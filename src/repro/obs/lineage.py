"""Knowledge lineage: the decision chain behind every accepted triple.

The paper's quality stage turns on being able to answer *why is this
triple in the graph?* — which sources claimed it, which extractor pulled
it out, which linkage merges rewrote its subject, and what the fusion
machinery (Sec. 2.4, Knowledge Vault / Knowledge-Based Trust) decided
about it and with what source-trust scores.  The :class:`LineageLedger`
records exactly that chain, one event list per (subject, predicate,
object) key, and :meth:`LineageLedger.explain` replays it.

Like the rest of :mod:`repro.obs`, the ledger is off by default and
enabled alongside ``REPRO_OBS``: the module-level recording helpers
(:func:`record_observation`, :func:`record_merge`, :func:`record_fusion`)
no-op while observability is disabled, so construction hot paths pay one
flag check.  Entity merges keep an alias map, so explaining a triple whose
subject absorbed other entities surfaces the events recorded under the
pre-merge subjects too.

Thread safety (audited for the concurrent serving layer): every public
:class:`LineageLedger` method takes the ledger lock, so recording from
parallel construction stages and explaining from server worker threads
are both safe without external synchronization.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.obs._flags import FLAGS

#: The ledger key for one triple: object is stringified so heterogeneous
#: value types (str vs int years) land on one chain.
TripleKey = Tuple[str, str, str]


def triple_key(subject: str, predicate: str, obj: object) -> TripleKey:
    """The canonical ledger key for a (subject, predicate, object)."""
    return (subject, predicate, str(obj))


@dataclass(frozen=True)
class LineageEvent:
    """One step of a triple's decision chain.

    ``kind`` is one of ``"observation"`` (a source/extractor produced the
    triple), ``"merge"`` (an entity-linkage merge touched its subject),
    ``"fusion"`` (a fusion verdict was reached), or ``"rejection"``
    (cleaning/fusion dropped it).  ``stage`` names the recording layer
    (``"graph.add_triple"``, ``"fusion.accu"``, ...); ``detail`` carries
    the kind-specific payload (source, extractor, confidence, verdict,
    source-trust scores...).
    """

    sequence: int
    kind: str
    stage: str
    detail: Mapping[str, object]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable record."""
        return {
            "sequence": self.sequence,
            "kind": self.kind,
            "stage": self.stage,
            "detail": dict(self.detail),
        }

    def describe(self) -> str:
        """One human-readable line for reports."""
        parts = [f"[{self.kind}] {self.stage}"]
        for key in sorted(self.detail):
            parts.append(f"{key}={self.detail[key]}")
        return " ".join(parts)


@dataclass
class LineageChain:
    """The full decision chain for one triple, in recording order."""

    subject: str
    predicate: str
    object: str
    events: List[LineageEvent] = field(default_factory=list)

    @property
    def verdict(self) -> Optional[str]:
        """The latest fusion/rejection verdict, if any."""
        for event in reversed(self.events):
            if event.kind in ("fusion", "rejection"):
                return str(event.detail.get("verdict", event.kind))
        return None

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable record."""
        return {
            "subject": self.subject,
            "predicate": self.predicate,
            "object": self.object,
            "verdict": self.verdict,
            "events": [event.to_dict() for event in self.events],
        }

    def describe(self) -> List[str]:
        """Human-readable lines: the triple, then one line per event."""
        lines = [f"({self.subject}, {self.predicate}, {self.object})"]
        for event in self.events:
            lines.append(f"  {event.describe()}")
        return lines


class LineageLedger:
    """Records per-triple decision chains and answers ``explain()``.

    Events accumulate per triple key; entity merges additionally maintain
    an alias map (``merged-away id -> surviving id``) so chains recorded
    under a pre-merge subject stay reachable from the post-merge triple.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: Dict[TripleKey, List[LineageEvent]] = {}
        self._entity_events: Dict[str, List[LineageEvent]] = {}
        self._absorbed: Dict[str, Set[str]] = {}  # survivor -> merged-away ids
        self._sequence = 0

    # ---- recording -----------------------------------------------------

    def _append(self, key: TripleKey, kind: str, stage: str, detail: Dict[str, object]) -> None:
        with self._lock:
            self._sequence += 1
            event = LineageEvent(self._sequence, kind, stage, detail)
            self._events.setdefault(key, []).append(event)

    def observation(
        self,
        subject: str,
        predicate: str,
        obj: object,
        *,
        source: str,
        extractor: Optional[str] = None,
        confidence: float = 1.0,
        stage: str = "observe",
    ) -> None:
        """Record that a source (via an extractor) produced the triple."""
        detail: Dict[str, object] = {"source": source, "confidence": round(float(confidence), 4)}
        if extractor is not None:
            detail["extractor"] = extractor
        self._append(triple_key(subject, predicate, obj), "observation", stage, detail)

    def observation_batch(
        self,
        items: Iterable[Tuple[str, str, object, str, Optional[str], float]],
        *,
        stage: str = "observe",
    ) -> None:
        """Record many observations under one lock acquisition.

        ``items`` are ``(subject, predicate, object, source, extractor,
        confidence)`` tuples.  Events get exactly the sequence numbers,
        kinds, and details that per-item :meth:`observation` calls would
        have produced — batch ingestion must leave a byte-identical
        ledger — but the lock is taken once per batch instead of once per
        triple.
        """
        with self._lock:
            events = self._events
            for subject, predicate, obj, source, extractor, confidence in items:
                detail: Dict[str, object] = {
                    "source": source,
                    "confidence": round(float(confidence), 4),
                }
                if extractor is not None:
                    detail["extractor"] = extractor
                self._sequence += 1
                events.setdefault((subject, predicate, str(obj)), []).append(
                    LineageEvent(self._sequence, "observation", stage, detail)
                )

    def merge(
        self,
        keep_id: str,
        drop_id: str,
        *,
        n_rewritten: int = 0,
        stage: str = "integrate.linkage",
    ) -> None:
        """Record an entity merge (``drop_id`` collapsed into ``keep_id``)."""
        with self._lock:
            self._sequence += 1
            event = LineageEvent(
                self._sequence,
                "merge",
                stage,
                {"kept": keep_id, "dropped": drop_id, "triples_rewritten": n_rewritten},
            )
            self._entity_events.setdefault(keep_id, []).append(event)
            absorbed = self._absorbed.setdefault(keep_id, set())
            absorbed.add(drop_id)
            # Transitivity: what drop_id had absorbed, keep_id now owns.
            absorbed.update(self._absorbed.pop(drop_id, set()))

    def fusion(
        self,
        subject: str,
        predicate: str,
        obj: object,
        *,
        verdict: str,
        confidence: float,
        source_trust: Optional[Mapping[str, float]] = None,
        extractor_trust: Optional[Mapping[str, float]] = None,
        stage: str = "fusion",
    ) -> None:
        """Record a fusion verdict (``"accepted"`` / ``"rejected"``)."""
        detail: Dict[str, object] = {
            "verdict": verdict,
            "confidence": round(float(confidence), 4),
        }
        if source_trust:
            detail["source_trust"] = {
                source: round(float(score), 4) for source, score in sorted(source_trust.items())
            }
        if extractor_trust:
            detail["extractor_trust"] = {
                name: round(float(score), 4) for name, score in sorted(extractor_trust.items())
            }
        self._append(triple_key(subject, predicate, obj), "fusion", stage, detail)

    def rejection(
        self,
        subject: str,
        predicate: str,
        obj: object,
        *,
        reason: str,
        stage: str = "cleaning",
    ) -> None:
        """Record that cleaning/validation dropped the triple."""
        self._append(
            triple_key(subject, predicate, obj),
            "rejection",
            stage,
            {"verdict": "rejected", "reason": reason},
        )

    # ---- inspection ----------------------------------------------------

    def explain(self, subject: str, predicate: str, obj: object) -> LineageChain:
        """The decision chain for one triple (empty chain when untracked).

        Events recorded under subjects later merged into ``subject`` are
        included, as are the merge events themselves, so the chain reads
        observation(s) -> merge(s) -> fusion verdict in recording order.
        """
        key_object = str(obj)
        events: List[LineageEvent] = []
        with self._lock:
            subjects = [subject] + sorted(self._absorbed.get(subject, set()))
            for candidate in subjects:
                events.extend(self._events.get((candidate, predicate, key_object), []))
            events.extend(self._entity_events.get(subject, []))
        events.sort(key=lambda event: event.sequence)
        return LineageChain(subject=subject, predicate=predicate, object=key_object, events=events)

    def keys(self) -> List[TripleKey]:
        """Every tracked triple key, sorted."""
        with self._lock:
            return sorted(self._events)

    def fused_keys(self, verdict: str = "accepted") -> List[TripleKey]:
        """Triple keys whose latest fusion event carries ``verdict``."""
        matched = []
        with self._lock:
            for key, events in self._events.items():
                for event in reversed(events):
                    if event.kind == "fusion":
                        if event.detail.get("verdict") == verdict:
                            matched.append(key)
                        break
        return sorted(matched)

    def sample_chains(self, n: int = 5, prefer_fused: bool = True) -> List[LineageChain]:
        """Up to ``n`` chains for reporting, fused-and-accepted first."""
        chosen: List[TripleKey] = []
        if prefer_fused:
            chosen.extend(self.fused_keys("accepted")[:n])
        if len(chosen) < n:
            seen = set(chosen)
            for key in self.keys():
                if key not in seen:
                    chosen.append(key)
                    if len(chosen) >= n:
                        break
        return [self.explain(*key) for key in chosen]

    def export_state(self) -> Dict[str, object]:
        """The ledger's full state, as plain data.

        Events flatten to one list sorted by sequence — recording order —
        plus the absorbed-alias map.  Snapshots persist it as their
        lineage section, and equality checks compare it;
        :meth:`merge_state` replays it into a ledger.
        """
        records: List[Dict[str, object]] = []
        with self._lock:
            for key, events in self._events.items():
                for event in events:
                    records.append(
                        {
                            "scope": "triple",
                            "key": list(key),
                            "sequence": event.sequence,
                            "kind": event.kind,
                            "stage": event.stage,
                            "detail": dict(event.detail),
                        }
                    )
            for entity_id, events in self._entity_events.items():
                for event in events:
                    records.append(
                        {
                            "scope": "entity",
                            "key": entity_id,
                            "sequence": event.sequence,
                            "kind": event.kind,
                            "stage": event.stage,
                            "detail": dict(event.detail),
                        }
                    )
            absorbed = {
                survivor: sorted(dropped)
                for survivor, dropped in sorted(self._absorbed.items())
            }
        records.sort(key=lambda record: record["sequence"])  # type: ignore[arg-type, return-value]
        return {"events": records, "absorbed": absorbed}

    def merge_state(self, state: Mapping[str, object]) -> None:
        """Replay an :meth:`export_state` into this one (a snapshot load).

        Events get fresh sequence numbers from this ledger's counter, in
        exported order, so the replayed chains read exactly as if this
        ledger had recorded them itself.
        """
        with self._lock:
            for record in state.get("events", []):  # type: ignore[union-attr]
                self._sequence += 1
                event = LineageEvent(
                    self._sequence,
                    str(record["kind"]),
                    str(record["stage"]),
                    dict(record["detail"]),
                )
                if record["scope"] == "entity":
                    self._entity_events.setdefault(str(record["key"]), []).append(event)
                else:
                    subject, predicate, obj = record["key"]
                    self._events.setdefault((subject, predicate, obj), []).append(event)
            for survivor, dropped in sorted(state.get("absorbed", {}).items()):  # type: ignore[union-attr]
                self._absorbed.setdefault(survivor, set()).update(dropped)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def reset(self) -> None:
        """Forget every chain and alias (test/CLI isolation)."""
        with self._lock:
            self._events = {}
            self._entity_events = {}
            self._absorbed = {}
            self._sequence = 0


_GLOBAL_LEDGER = LineageLedger()


def get_ledger() -> LineageLedger:
    """The process-global lineage ledger."""
    return _GLOBAL_LEDGER


def lineage_enabled() -> bool:
    """Whether lineage recording is on (tied to the REPRO_OBS switch)."""
    return FLAGS.enabled


# ---------------------------------------------------------------------------
# One-line recording helpers (no-ops while observability is disabled).


def record_observation(
    subject: str,
    predicate: str,
    obj: object,
    *,
    source: str,
    extractor: Optional[str] = None,
    confidence: float = 1.0,
    stage: str = "observe",
) -> None:
    """Record an observation on the global ledger (no-op while disabled)."""
    if FLAGS.enabled:
        _GLOBAL_LEDGER.observation(
            subject,
            predicate,
            obj,
            source=source,
            extractor=extractor,
            confidence=confidence,
            stage=stage,
        )


def record_observation_batch(
    items: Iterable[Tuple[str, str, object, str, Optional[str], float]],
    *,
    stage: str = "observe",
) -> None:
    """Record a batch of observations on the global ledger (no-op while
    disabled).  See :meth:`LineageLedger.observation_batch`."""
    if FLAGS.enabled:
        _GLOBAL_LEDGER.observation_batch(items, stage=stage)


def record_merge(
    keep_id: str, drop_id: str, *, n_rewritten: int = 0, stage: str = "integrate.linkage"
) -> None:
    """Record an entity merge on the global ledger (no-op while disabled)."""
    if FLAGS.enabled:
        _GLOBAL_LEDGER.merge(keep_id, drop_id, n_rewritten=n_rewritten, stage=stage)


def record_fusion(
    subject: str,
    predicate: str,
    obj: object,
    *,
    verdict: str,
    confidence: float,
    source_trust: Optional[Mapping[str, float]] = None,
    extractor_trust: Optional[Mapping[str, float]] = None,
    stage: str = "fusion",
) -> None:
    """Record a fusion verdict on the global ledger (no-op while disabled)."""
    if FLAGS.enabled:
        _GLOBAL_LEDGER.fusion(
            subject,
            predicate,
            obj,
            verdict=verdict,
            confidence=confidence,
            source_trust=source_trust,
            extractor_trust=extractor_trust,
            stage=stage,
        )


def record_rejection(
    subject: str, predicate: str, obj: object, *, reason: str, stage: str = "cleaning"
) -> None:
    """Record a cleaning rejection on the global ledger (no-op while disabled)."""
    if FLAGS.enabled:
        _GLOBAL_LEDGER.rejection(subject, predicate, obj, reason=reason, stage=stage)


def explain(subject: str, predicate: str, obj: object) -> LineageChain:
    """Explain a triple from the global ledger (works even while disabled)."""
    return _GLOBAL_LEDGER.explain(subject, predicate, obj)
