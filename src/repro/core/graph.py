"""The entity-based knowledge graph (first generation, Sec. 2).

Nodes have one-to-one correspondence with real-world entities; every entity
carries an identifier, a class from the ontology, a canonical name, and
aliases.  Triples are indexed three ways (SPO / POS / OSP) so that any
pattern with one or two wildcards is answered without a scan — the classic
triple-store layout.

Provenance is kept per (triple, source) pair, which is what the fusion and
trust machinery of Sec. 2.4 consumes.

Performance layer (the "as fast as the hardware allows" track):

* **generation-counter cached views** — sorted triple/entity snapshots are
  built once per mutation generation, so ``triples()`` / all-wildcard
  ``query()`` calls stop paying O(|T| log |T|) sorts on a read-mostly
  graph;
* **interned id table** — entity-id and term strings go through
  ``sys.intern``, so every graph in the process shares one canonical
  object per distinct string and dict probes short-circuit on pointer
  identity;
* **index-backed merges** — ``merge_entities`` walks the SPO/OSP rows of
  the dropped entity (O(degree)) instead of scanning every triple, which
  is what entity linkage (Sec. 2.2) calls thousands of times;
* **batch ingestion** — ``add_triples_batch`` does one pass with hoisted
  bookkeeping and a single deferred lineage flush; a batch landing in an
  empty graph sorts its columns once, the bulk-load shape Knowledge
  Vault-style web-scale construction loads arrive in.

Storage: every graph owns one
:class:`~repro.core.store.ColumnarTripleStore` — dictionary-encoded int
ids over sorted ``array('q')`` permutation columns under a small delta
overlay.  A term is its type plus its value (``0``, ``0.0`` and ``False``
are three object terms, see :func:`~repro.core.store.term_key`), and
:class:`~repro.core.triple.Triple` equality agrees.  Provenance has the
same two parts: an optional
:class:`~repro.core.store.ProvenanceColumns` base keyed by the store's
term ids, and a ``Triple``-keyed delta whose entries override it (an
empty entry hides a removed triple's base records).  Reads check the
delta, then bisect the base.  A graph may also log every mutation to an
append-only WAL (:meth:`attach_wal`, see
:class:`repro.core.codec.TripleWAL`) and be saved/loaded through the
binary snapshot codec: a save folds the delta into a new base and
installs it, and a load installs the file's base columns as they are.

The set-of-rows model this API is specified against lives in
``tests/oracles.py::SetGraph``; ``tests/test_perf_equivalence.py`` and
the state machine in ``tests/test_core_graph_property.py`` compare every
public read against it.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.ontology import Ontology
from repro.core.store import ColumnarTripleStore, ProvenanceColumns
from repro.core.triple import AttributedTriple, Provenance, Triple, Value
from repro.obs import lineage as obs_lineage

if TYPE_CHECKING:  # pragma: no cover - import cycle: codec imports graph
    from repro.core.codec import TripleWAL

#: One item of a batch ingest: a bare triple or a (triple, provenance) pair.
BatchItem = Union[Triple, Tuple[Triple, Optional[Provenance]]]

_intern = sys.intern


@dataclass
class Entity:
    """A node with real-world identity.

    "Most entities in entity-based KG are *named* entities, each
    corresponding to a real-world entity" (Sec. 2).  An entity installed
    in a graph is never mutated: graph copies share it, and
    :meth:`KnowledgeGraph.add_alias` / ``merge_entities`` install a
    replacement instead.
    """

    entity_id: str
    name: str
    entity_class: str
    aliases: Set[str] = field(default_factory=set)

    def all_names(self) -> Set[str]:
        """Canonical name plus aliases."""
        return {self.name} | self.aliases


class KnowledgeGraph:
    """An indexed, provenance-aware entity-based KG."""

    def __init__(
        self,
        ontology: Optional[Ontology] = None,
        name: str = "kg",
    ):
        self.name = name
        self.ontology = ontology or Ontology()
        self._entities: Dict[str, Entity] = {}
        # Provenance: immutable id-keyed base columns (from the last save
        # or load) under a delta whose entries replace the base's.
        self._provenance_base: Optional[ProvenanceColumns] = None
        self._provenance: Dict[Triple, Sequence[Provenance]] = {}
        # The triple table and its SPO/POS/OSP indexes.
        self._store = ColumnarTripleStore()
        self._name_index: Dict[str, Set[str]] = defaultdict(set)
        # Name-index keys whose id set this graph installed since its last
        # copy(): no copy shares them, so they are updated in place.
        self._owned_names: Set[str] = set()
        # Optional write-ahead log (codec.TripleWAL); suspended while
        # merge_entities rewrites triples so a merge logs one record.
        self._wal: Optional["TripleWAL"] = None
        self._wal_suspended = False
        # Mutation generation plus the generation-stamped cached views.
        self._generation = 0
        self._triples_view: List[Triple] = []
        self._triples_view_generation = -1
        self._entities_view: List[Entity] = []
        self._entities_view_generation = -1

    # ------------------------------------------------------------------
    # cached sorted views

    @property
    def generation(self) -> int:
        """Monotonic mutation counter; unchanged generation ⇒ unchanged views."""
        return self._generation

    def _sorted_triples(self) -> List[Triple]:
        """The sorted triple snapshot for the current generation.

        Callers must not mutate the returned list; public APIs copy or
        wrap it in an iterator.
        """
        if self._triples_view_generation != self._generation:
            self._triples_view = sorted(
                (Triple(s, p, o) for s, p, o in self._store.iter_triples()),
                key=Triple._sort_key,
            )
            self._triples_view_generation = self._generation
        return self._triples_view

    def _sorted_entities(self) -> List[Entity]:
        if self._entities_view_generation != self._generation:
            self._entities_view = sorted(
                self._entities.values(), key=lambda entity: entity.entity_id
            )
            self._entities_view_generation = self._generation
        return self._entities_view

    # ------------------------------------------------------------------
    # provenance: base columns + delta

    def _records(self, triple: Triple) -> Sequence[Provenance]:
        """The triple's provenance: its delta entry, else its base records.

        A delta list is shared with copies — callers must not mutate it.
        """
        base = self._provenance_base
        if base is None:
            return self._provenance.get(triple, ())
        records = self._provenance.get(triple)
        if records is not None:
            return records
        row = self._store.row_ids(triple.subject, triple.predicate, triple.object)
        return () if row is None else base.lookup(row)

    def _add_records(
        self, triple: Triple, records: Sequence[Provenance], is_new: bool
    ) -> None:
        """Append ``records`` to the triple's provenance.

        A new list is installed, never appended to: copies share the old
        one.  A triple the store has just added (``is_new``) has no live
        base entry — removing it left an empty delta entry — so its base
        is not read.
        """
        current = self._provenance.get(triple) if is_new else self._records(triple)
        self._provenance[triple] = current + records if current else records

    def _fold_provenance(self) -> Optional[ProvenanceColumns]:
        """Fold the delta into new base columns, install them, return them.

        Called by every snapshot save (the store's columns are compacted
        the same way).  With an empty delta the base is returned as it
        is, so saving a saved or loaded graph again does not fold.  None
        means no triple has provenance.
        """
        delta = self._provenance
        if delta:
            row_ids = self._store.row_ids
            self._provenance_base = ProvenanceColumns.fold(
                self._provenance_base,
                (
                    (row_ids(triple.subject, triple.predicate, triple.object), records)
                    for triple, records in delta.items()
                ),
                self._store.n_terms,
            )
            self._provenance = {}
        return self._provenance_base

    # ------------------------------------------------------------------
    # durability hooks

    def attach_wal(self, wal: "TripleWAL") -> None:
        """Log every subsequent mutation to ``wal``.

        Attach before building: only mutations made while attached are
        logged (recover pre-existing state from the WAL's base snapshot).
        An empty graph attached to a fresh log becomes its
        :attr:`~repro.core.codec.TripleWAL.writer`.
        """
        self._wal = wal
        wal.bind_writer(self)

    def detach_wal(self) -> Optional["TripleWAL"]:
        """Stop logging; returns the previously attached WAL (if any)."""
        wal = self._wal
        self._wal = None
        if wal is not None:
            wal.release_writer()
        return wal

    # ------------------------------------------------------------------
    # entities

    def add_entity(
        self,
        entity_id: str,
        name: str,
        entity_class: str,
        aliases: Iterable[str] = (),
    ) -> Entity:
        """Register an entity node.

        The class must exist in the ontology; duplicate ids are rejected
        because entity-based KGs require one node per real-world entity.
        """
        if entity_id in self._entities:
            raise ValueError(f"duplicate entity id: {entity_id!r}")
        if not self.ontology.has_class(entity_class):
            raise ValueError(f"unknown entity class: {entity_class!r}")
        entity = Entity(
            entity_id=_intern(entity_id),
            name=name,
            entity_class=entity_class,
            aliases=set(aliases),
        )
        self._entities[entity.entity_id] = entity
        self._index_names(entity.all_names(), entity_id)
        self._generation += 1
        if self._wal is not None and not self._wal_suspended:
            self._wal.append(
                {
                    "op": "entity",
                    "id": entity.entity_id,
                    "name": name,
                    "class": entity_class,
                    "aliases": sorted(entity.aliases),
                }
            )
        return entity

    def entity(self, entity_id: str) -> Entity:
        """Look up an entity by id."""
        if entity_id not in self._entities:
            raise KeyError(f"unknown entity: {entity_id!r}")
        return self._entities[entity_id]

    def has_entity(self, entity_id: str) -> bool:
        """True when the id names a registered entity."""
        return entity_id in self._entities

    def entities(self, entity_class: Optional[str] = None) -> Iterator[Entity]:
        """Iterate entities, optionally restricted to a class subtree."""
        for entity in self._sorted_entities():
            if entity_class is None or self.ontology.is_subclass_of(
                entity.entity_class, entity_class
            ):
                yield entity

    def find_by_name(self, name: str) -> List[Entity]:
        """Entities whose canonical name or alias matches (case-insensitive).

        Multiple hits are expected: "different entities may share the same
        name (thus entity disambiguation)" (Sec. 2.2).
        """
        ids = self._name_index.get(name.lower(), set())
        return [self._entities[entity_id] for entity_id in sorted(ids)]

    def _index_names(
        self, names: Iterable[str], entity_id: str, drop_id: Optional[str] = None
    ) -> None:
        """Point ``names`` at ``entity_id`` (instead of ``drop_id``).

        An id set a copy may share is replaced, never mutated; the
        replacement is this graph's own until the next :meth:`copy`, so
        a name shared by k entities costs O(k) once, not per insert.
        """
        index, owned = self._name_index, self._owned_names
        for name in names:
            key = name.lower()
            if key in owned:
                ids = index[key]
                ids.discard(drop_id)
                ids.add(entity_id)
                continue
            ids = index.get(key)
            index[key] = {entity_id} if ids is None else (ids - {drop_id}) | {entity_id}
            owned.add(key)

    def add_alias(self, entity_id: str, alias: str) -> None:
        """Record an additional surface form for an entity."""
        entity = self.entity(entity_id)
        # Replace, never mutate: copies share installed entities.
        self._entities[entity_id] = Entity(
            entity.entity_id, entity.name, entity.entity_class, entity.aliases | {alias}
        )
        self._entities_view_generation = -1
        self._index_names((alias,), entity_id)
        if self._wal is not None and not self._wal_suspended:
            self._wal.append({"op": "alias", "id": entity_id, "alias": alias})

    def remove_alias(self, entity_id: str, alias: str) -> None:
        """Forget a surface form; the name index keeps the entity under it
        while another of its names lowercases to it."""
        entity = self.entity(entity_id)
        self._entities[entity_id] = Entity(
            entity.entity_id, entity.name, entity.entity_class, entity.aliases - {alias}
        )
        self._entities_view_generation = -1
        key = alias.lower()
        ids = self._name_index.get(key)
        if ids and all(name.lower() != key for name in self._entities[entity_id].all_names()):
            # Replace, never mutate: a copy may share the id set.
            self._name_index[key] = ids - {entity_id}
        if self._wal is not None and not self._wal_suspended:
            self._wal.append({"op": "unalias", "id": entity_id, "alias": alias})

    # ------------------------------------------------------------------
    # triples

    def add_triple(
        self,
        triple: Triple,
        provenance: Optional[Provenance] = None,
        validate: bool = False,
    ) -> bool:
        """Insert a triple; returns True when the triple is new.

        Provenance accumulates across repeated insertions of the same
        triple from different sources — that multiplicity is the fusion
        signal.  With ``validate=True`` the ontology must accept the triple
        (entity-based rigidity); by default validation is advisory.
        """
        subject = triple.subject
        if subject not in self._entities:
            raise ValueError(f"unknown subject entity: {subject!r}")
        if validate:
            subject_class = self._entities[subject].entity_class
            problems = self.ontology.validate_triple(triple, subject_class)
            if problems:
                raise ValueError(f"triple rejected: {'; '.join(problems)}")
        is_new = self._store.add(subject, triple.predicate, triple.object)
        if is_new:
            self._generation += 1
        if provenance is not None:
            self._add_records(triple, [provenance], is_new)
            obs_lineage.record_observation(
                triple.subject,
                triple.predicate,
                triple.object,
                source=provenance.source,
                extractor=provenance.extractor,
                confidence=provenance.confidence,
                stage="graph.add_triple",
            )
        if (
            self._wal is not None
            and not self._wal_suspended
            and (is_new or provenance is not None)
        ):
            record: Dict[str, object] = {
                "op": "add",
                "s": subject,
                "p": triple.predicate,
                "o": triple.object,
            }
            if provenance is not None:
                record["prov"] = [
                    provenance.source,
                    provenance.extractor,
                    provenance.confidence,
                ]
            self._wal.append(record)
        return is_new

    def add(self, subject: str, predicate: str, obj: Value, **kwargs) -> bool:
        """Convenience wrapper around :meth:`add_triple`."""
        return self.add_triple(Triple(subject, predicate, obj), **kwargs)

    def add_triples_batch(
        self, items: Iterable[BatchItem], validate: bool = False
    ) -> int:
        """Ingest many triples in one pass; returns how many were new.

        ``items`` mixes bare :class:`Triple` objects and
        ``(triple, provenance)`` pairs.  Observably identical to calling
        :meth:`add_triple` per item — same query answers, provenance lists,
        and lineage events in the same order — but bookkeeping is hoisted
        out of the loop and lineage recording is flushed to the ledger
        once, under a single lock acquisition.  With a WAL attached, only
        state-changing items (new triple or carried provenance) are
        logged, as one id-encoded frame
        (:meth:`~repro.core.codec.TripleWAL.append_batch`), which replay
        installs without building a triple object per row.  A batch
        landing in an *empty* store takes the
        :meth:`~repro.core.store.ColumnarTripleStore.bulk_loader` path:
        rows are staged in a set and the columns sorted once.
        """
        entities = self._entities
        store = self._store
        if store.n_base_rows or store.n_delta_rows:
            loader = None
            store_add = store.add
        else:
            loader = store.bulk_loader()
            store_add = loader.add
        provenance_of = self._provenance
        provenance_get = provenance_of.get
        records_of = self._records
        ontology = self.ontology
        lineage_on = obs_lineage.lineage_enabled()
        wal = self._wal if not self._wal_suspended else None
        wal_rows: List[Tuple[Triple, Optional[Provenance]]] = []
        pending: List[Tuple[str, str, Value, str, Optional[str], float]] = []
        pending_append = pending.append
        n_new = 0
        try:
            for item in items:
                if type(item) is tuple:
                    triple, provenance = item
                else:
                    triple = item
                    provenance = None
                subject = triple.subject
                if subject not in entities:
                    raise ValueError(f"unknown subject entity: {subject!r}")
                if validate:
                    problems = ontology.validate_triple(
                        triple, entities[subject].entity_class
                    )
                    if problems:
                        raise ValueError(f"triple rejected: {'; '.join(problems)}")
                is_new = store_add(subject, triple.predicate, triple.object)
                if is_new:
                    n_new += 1
                if provenance is not None:
                    # As in _add_records (inlined: this loop is the bulk path).
                    current = provenance_get(triple) if is_new else records_of(triple)
                    provenance_of[triple] = current + [provenance] if current else [provenance]
                    if lineage_on:
                        pending_append(
                            (
                                subject,
                                triple.predicate,
                                triple.object,
                                provenance.source,
                                provenance.extractor,
                                provenance.confidence,
                            )
                        )
                if wal is not None and (is_new or provenance is not None):
                    wal_rows.append((triple, provenance))
        finally:
            # One generation bump and one ledger flush per batch — also on
            # mid-batch errors, so partial state matches the per-call path.
            if loader is not None:
                loader.finish()
            if n_new:
                self._generation += 1
            if pending:
                obs_lineage.record_observation_batch(pending, stage="graph.add_triple")
            if wal_rows:
                wal.append_batch(wal_rows)
        return n_new

    def remove_triple(self, triple: Triple) -> bool:
        """Delete a triple and its provenance; True when it existed."""
        subject, predicate, obj = triple.subject, triple.predicate, triple.object
        if not self._store.remove(subject, predicate, obj):
            return False
        if self._provenance_base is None:
            self._provenance.pop(triple, None)
        else:
            # Hides the base's records; the shared empty tuple allocates
            # nothing per removal.
            self._provenance[triple] = ()
        self._generation += 1
        if self._wal is not None and not self._wal_suspended:
            self._wal.append({"op": "remove", "s": subject, "p": predicate, "o": obj})
        return True

    def __contains__(self, triple: Triple) -> bool:
        return self._store.contains(triple.subject, triple.predicate, triple.object)

    def __len__(self) -> int:
        return len(self._store)

    def triples(self) -> Iterator[Triple]:
        """Iterate all triples in deterministic order (cached view)."""
        return iter(self._sorted_triples())

    def provenance(
        self, triple: Optional[Triple] = None
    ) -> Union[List[Provenance], Dict[Triple, List[Provenance]]]:
        """All provenance records attached to a triple.

        Without a triple: every triple that has records, mapped to them,
        in triple order.
        """
        if triple is not None:
            return list(self._records(triple))
        records_of = self._records
        return {
            triple: list(records)
            for triple in self._sorted_triples()
            if (records := records_of(triple))
        }

    def attributed_triples(self) -> Iterator[AttributedTriple]:
        """Iterate (triple, provenance) pairs; triples without provenance get
        a default record naming the graph itself."""
        records_of = self._records
        for triple in self.triples():
            records = records_of(triple)
            if not records:
                yield AttributedTriple(triple, Provenance(source=self.name))
            else:
                for record in records:
                    yield AttributedTriple(triple, record)

    # ------------------------------------------------------------------
    # queries

    def query(
        self,
        subject: Optional[str] = None,
        predicate: Optional[str] = None,
        obj: Optional[Value] = None,
    ) -> List[Triple]:
        """Match a triple pattern; ``None`` components are wildcards.

        Uses whichever index binds the most components; the all-wildcard
        case returns the cached sorted view, so no per-call sort or scan
        is needed.
        """
        if subject is None and predicate is None and obj is None:
            return list(self._sorted_triples())
        store = self._store
        if subject is not None and predicate is not None:
            if obj is not None:
                if not store.contains(subject, predicate, obj):
                    return []
                return [Triple(subject, predicate, obj)]
            results = [Triple(subject, predicate, o) for o in store.objects(subject, predicate)]
        elif subject is not None:
            if obj is not None:
                results = [Triple(subject, p, obj) for p in store.predicates(subject, obj)]
            else:
                results = [Triple(subject, p, o) for p, o in store.spo_row(subject)]
        elif predicate is not None:
            if obj is not None:
                results = [Triple(s, predicate, obj) for s in store.subjects(predicate, obj)]
            else:
                results = [Triple(s, predicate, o) for o, s in store.pos_row(predicate)]
        else:
            results = [Triple(s, p, obj) for s, p in store.osp_row(obj)]
        return sorted(results, key=Triple._sort_key)

    def pattern_cardinality(
        self,
        subject: Optional[str] = None,
        predicate: Optional[str] = None,
        obj: Optional[Value] = None,
    ) -> int:
        """Exact size of ``query(...)``'s answer from index row sizes alone.

        Costs a binary-searched row range plus the delta overlay's row
        lengths, and never materializes triples: the selectivity estimate
        join planning (``conjunctive_query``) orders patterns by.
        """
        store = self._store
        if subject is None and predicate is None and obj is None:
            return len(store)
        if subject is not None and predicate is not None:
            if obj is not None:
                return 1 if store.contains(subject, predicate, obj) else 0
            return store.count_sp(subject, predicate)
        if subject is not None:
            if obj is not None:
                return store.count_os(obj, subject)
            return store.count_s(subject)
        if predicate is not None:
            if obj is not None:
                return store.count_po(predicate, obj)
            return store.count_p(predicate)
        return store.count_o(obj)

    def objects(self, subject: str, predicate: str) -> List[Value]:
        """All objects of (subject, predicate, ?)."""
        return sorted(self._store.objects(subject, predicate), key=str)

    def one_object(self, subject: str, predicate: str) -> Optional[Value]:
        """A single object if exactly one exists, else None."""
        objects = self._store.objects(subject, predicate)
        if len(objects) == 1:
            return next(iter(objects))
        return None

    def subjects(self, predicate: str, obj: Value) -> List[str]:
        """All subjects of (?, predicate, object)."""
        return sorted(self._store.subjects(predicate, obj))

    def neighbors(self, entity_id: str) -> List[Tuple[str, str, bool]]:
        """Adjacent entity nodes as ``(relation, other_id, outgoing)``.

        Only object-valued edges whose object is itself an entity count —
        the "connected graph" structure of Fig. 1(a).  The list is sorted
        and equals a scan of ``query(subject=entity_id)`` and
        ``query(obj=entity_id)`` filtered on entity membership; it is read
        as ids (:meth:`ColumnarTripleStore.edges`), so of each row only the
        other end is decoded, and the predicate only when that end is an
        entity.
        """
        store = self._store
        decode = store.decoder()
        entities = self._entities
        result: List[Tuple[str, str, bool]] = []
        for p, other_id, outgoing in store.edges(entity_id):
            other = decode(other_id)
            if (not outgoing or isinstance(other, str)) and other in entities:
                result.append((decode(p), other, outgoing))
        result.sort()
        return result

    # ------------------------------------------------------------------
    # graph surgery (entity linkage applies this)

    def merge_entities(self, keep_id: str, drop_id: str) -> int:
        """Collapse ``drop_id`` into ``keep_id``; returns triples rewritten.

        This is how entity linkage decisions materialize: "we have a
        distinct node in the KG to represent a real-world entity" (Sec. 2.2).
        Aliases and provenance move over; duplicate triples collapse.

        Walks the dropped entity's SPO row (outgoing triples) and OSP row
        (incoming references) instead of scanning the whole triple set, so
        one merge costs O(degree(drop)) — the linkage stage applies
        thousands of these.  With a WAL attached, the whole merge logs one
        ``merge`` record (the constituent rewrites are suppressed; replay
        re-runs the merge).
        """
        keep = self.entity(keep_id)
        drop = self.entity(drop_id)
        if keep_id == drop_id:
            raise ValueError(f"cannot merge entity {keep_id!r} into itself")
        store = self._store
        rewritten = 0
        wal_was_suspended = self._wal_suspended
        self._wal_suspended = True
        try:
            # Outgoing first, then incoming — the incoming row is re-read
            # after the first pass so a (drop, p, drop) self-loop is
            # rewritten twice, exactly like the scan-based algorithm.
            for predicate, obj in store.spo_row(drop_id):
                self._rewrite_triple(
                    Triple(drop_id, predicate, obj), Triple(keep_id, predicate, obj)
                )
                rewritten += 1
            for subject, predicate in store.osp_row(drop_id):
                self._rewrite_triple(
                    Triple(subject, predicate, drop_id),
                    Triple(subject, predicate, keep_id),
                )
                rewritten += 1
        finally:
            self._wal_suspended = wal_was_suspended
        dropped_names = drop.all_names()
        self._index_names(dropped_names, keep_id, drop_id)
        self._entities[keep_id] = Entity(
            keep.entity_id,
            keep.name,
            keep.entity_class,
            (keep.aliases | dropped_names) - {keep.name},
        )
        del self._entities[drop_id]
        self._generation += 1
        obs_lineage.record_merge(
            keep_id, drop_id, n_rewritten=rewritten, stage="graph.merge_entities"
        )
        if self._wal is not None and not self._wal_suspended:
            self._wal.append({"op": "merge", "keep": keep_id, "drop": drop_id})
        return rewritten

    def _rewrite_triple(self, old: Triple, new: Triple) -> None:
        """Replace ``old`` with ``new``, carrying provenance records over."""
        records = self._records(old)
        self.remove_triple(old)
        is_new = self.add_triple(new)
        if records:
            self._add_records(new, records, is_new)

    # ------------------------------------------------------------------
    # stats

    def stats(self) -> Dict[str, int]:
        """Size statistics (the paper sizes KGs in triples — Sec. 2.4/2.5).

        ``n_id_terms`` reports the id-table size: distinct dictionary-
        encoded terms.  Ids are never recycled, so after removals or
        merges the count can exceed the number of live terms.
        """
        store = self._store
        entities = self._entities
        n_triples = len(store)
        entity_object_edges = 0
        for _, _, obj in store.iter_triples():
            if isinstance(obj, str) and obj in entities:
                entity_object_edges += 1
        return {
            "n_entities": len(entities),
            "n_triples": n_triples,
            "n_entity_edges": entity_object_edges,
            "n_attribute_triples": n_triples - entity_object_edges,
            "n_classes": self.ontology.stats()["n_classes"],
            "n_id_terms": store.n_terms,
        }

    def copy(self) -> "KnowledgeGraph":
        """An independent graph: mutating either side never shows in the other.

        The dictionaries are copied; what they hold is shared by reference,
        because none of it is written in place once shared — every
        mutation installs a replacement: the store's base columns (see
        :meth:`ColumnarTripleStore.clone`), the provenance base columns,
        each triple's delta provenance list, each :class:`Entity` with its
        alias set, and each name-index id set (which this graph again
        owns, and may update in place, once it has replaced it).
        """
        clone = KnowledgeGraph(ontology=self.ontology, name=self.name)
        clone._entities = dict(self._entities)
        clone._name_index = defaultdict(set, self._name_index)
        self._owned_names = set()
        clone._store = self._store.clone()
        clone._generation = len(clone._entities) + (1 if len(clone._store) else 0)
        clone._provenance_base = self._provenance_base
        clone._provenance = dict(self._provenance)
        return clone
