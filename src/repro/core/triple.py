"""Triples and provenance — the atoms of every KG in the paper.

"A piece of knowledge can be considered as a *triple* in the form of
(subject, predicate, object), such as (Seattle, located_at, USA)." (Sec. 1)

Provenance records which source/extractor produced a triple; it is what the
fusion machinery of Sec. 2.4 (graphical-model fusion, Knowledge-Based Trust)
reasons over.
"""

from __future__ import annotations


from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

Value = Union[str, int, float, bool]


@dataclass(frozen=True)
class Provenance:
    """Where a triple came from.

    Attributes
    ----------
    source:
        Identifier of the data source (a website, a structured dump, the
        catalog, an LLM, ...).
    extractor:
        Identifier of the technique that produced the triple (``"infobox"``,
        ``"ceres"``, ``"opentag"``, ...); ``None`` for native/curated data.
    confidence:
        The producer's own belief in the triple, in [0, 1].
    """

    source: str
    extractor: Optional[str] = None
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class Triple:
    """An immutable (subject, predicate, object) statement.

    Subjects are entity identifiers; objects are either entity identifiers
    or atomic values.  Whether an object names an entity is decided by the
    graph holding the triple, not the triple itself — the same design that
    lets text-rich KGs treat most objects as free text.

    An object is a ``str``, ``int``, ``float`` or ``bool`` — what a
    snapshot can store — and never NaN, which equals nothing, itself
    included.  It is a term of its type: ``1``, ``1.0`` and ``True`` make
    three unequal triples (the hash ignores the type, so they share a
    bucket), and ``-0.0`` is stored as ``0.0``, the one float pair ``==``
    cannot tell apart.

    Triples order deterministically even when object types are mixed
    (strings vs numbers), so index scans over heterogeneous graphs stay
    stable.
    """

    subject: str
    predicate: str
    object: Value

    def _sort_key(self):
        return (self.subject, self.predicate, type(self.object).__name__, str(self.object))

    def __lt__(self, other: "Triple") -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return (
            self.object == other.object
            and type(self.object) is type(other.object)
            and self.subject == other.subject
            and self.predicate == other.predicate
        )

    def __post_init__(self) -> None:
        if not self.subject:
            raise ValueError("triple subject must be non-empty")
        if not self.predicate:
            raise ValueError("triple predicate must be non-empty")
        obj = self.object
        kind = type(obj)
        if kind is str:
            if not obj:
                raise ValueError("triple object must be non-empty")
        elif kind is float:
            if obj != obj:
                raise ValueError("triple object must not be NaN")
            if obj == 0.0:
                object.__setattr__(self, "object", 0.0)  # -0.0 is 0.0
        elif kind is not int and kind is not bool:
            raise ValueError(
                f"triple object must be a str, int, float or bool, not {kind.__name__}"
            )
        # Triples are hashed several times per graph insertion (triple set,
        # provenance table, index rows); computing the tuple hash once here
        # keeps every later probe a single attribute load.
        object.__setattr__(
            self, "_hash", hash((self.subject, self.predicate, self.object))
        )

    def as_tuple(self) -> Tuple[str, str, Value]:
        """The plain (s, p, o) tuple."""
        return (self.subject, self.predicate, self.object)

    def replace_subject(self, new_subject: str) -> "Triple":
        """Copy with a different subject — used when merging linked entities."""
        return Triple(new_subject, self.predicate, self.object)

    def replace_object(self, new_object: Value) -> "Triple":
        """Copy with a different object — used when merging linked entities."""
        return Triple(self.subject, self.predicate, new_object)

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"({self.subject}, {self.predicate}, {self.object})"


def _cached_triple_hash(self: "Triple") -> int:
    return self._hash


# Replace the dataclass-generated __hash__ (which rebuilds and hashes the
# field tuple on every call) with a read of the value cached at
# construction; same hash value, one attribute load per probe.
Triple.__hash__ = _cached_triple_hash  # type: ignore[assignment]


@dataclass(frozen=True)
class AttributedTriple:
    """A triple bundled with one provenance record.

    Extraction systems emit these; fusion collapses groups of them into a
    single believed triple with a calibrated confidence.
    """

    triple: Triple
    provenance: Provenance = field(default_factory=lambda: Provenance(source="unknown"))

    @property
    def confidence(self) -> float:
        """Shortcut to the provenance confidence."""
        return self.provenance.confidence
