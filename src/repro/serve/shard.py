"""Subject-hash sharded read replicas and the scatter/gather planner.

A snapshot's triples are partitioned across ``N`` replica graphs by a
stable hash of the triple's subject (``crc32``, so the placement is
deterministic across processes and runs).  Every query path needs the
entity records (name resolution, entity-object checks in ``neighbors``),
so *every shard sees the whole entity directory* — shared by reference,
never copied — while triples live on exactly one: the classic "partition
the edges, replicate the vertex directory" layout.

The :class:`ScatterGatherPlanner` answers the same queries
:mod:`repro.core.query` answers over one graph, with identical results
regardless of shard count (the shard-invariance tests pin this):

* **lookup** — subject-bound reads route to the single owning shard;
* **pattern scatter** — an unbound pattern fans out to every shard; the
  gathered triples are merged and re-sorted, so downstream consumers see
  exactly the ordering a single-graph ``query()`` produces;
* **conjunctive queries** — the same most-selective-first join as
  :func:`repro.core.query.conjunctive_query`, with per-pattern
  cardinality summed across shards (exact, because each triple lives on
  one shard);
* **path queries** — the planner exposes ``has_entity``/``neighbors``
  (incoming and outgoing edges gathered across shards), so
  :class:`repro.core.query.PathQuery` runs against the planner unchanged.

Fan-out is a loop over the shards on the request's own thread: under one
GIL a pool would not help, and a request must not advance the *build*
progress heartbeat.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.graph import Entity, KnowledgeGraph
from repro.core.query import (
    Binding,
    PathQuery,
    TriplePattern,
    is_variable,
)
from repro.core.store import _build_from_rows
from repro.core.triple import Triple, Value
from repro.serve import context as serve_context


def shard_of(subject: str, n_shards: int) -> int:
    """The shard index owning ``subject`` (stable across processes)."""
    if n_shards <= 1:
        return 0
    return zlib.crc32(subject.encode("utf-8")) % n_shards


def build_shards(graph: KnowledgeGraph, n_shards: int) -> List[KnowledgeGraph]:
    """Partition ``graph`` into subject-hash shard replicas.

    With one shard the graph itself is returned (the snapshot layer
    already owns a private copy, so no second copy is needed).  Otherwise
    the store's id rows are split by their subject's shard — hashed once
    per distinct subject id — and each shard's columns are built straight
    from its rows.  Shards share ``graph``'s term dictionary, entity
    directory and name index by reference, so ``graph`` must not be
    mutated while they are in use.  Provenance stays on ``graph`` —
    serving reads never consult it.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards == 1:
        return [graph]
    store = graph._store
    decode = store._terms.decode
    owner: Dict[int, List[Tuple[int, int, int]]] = {}
    buckets: List[List[Tuple[int, int, int]]] = [[] for _ in range(n_shards)]
    for row in store.iter_rows():
        bucket = owner.get(row[0])
        if bucket is None:
            bucket = owner[row[0]] = buckets[shard_of(decode(row[0]), n_shards)]
        bucket.append(row)
    shards = []
    for index, rows in enumerate(buckets):
        shard = KnowledgeGraph(ontology=graph.ontology, name=f"{graph.name}.shard{index}")
        shard._store = _build_from_rows(store._terms, rows)
        shard._entities = graph._entities
        shard._name_index = graph._name_index
        shards.append(shard)
    return shards


class ScatterGatherPlanner:
    """Query planner over shard replicas with single-graph semantics.

    Duck-types the slice of the :class:`~repro.core.graph.KnowledgeGraph`
    API the query layer and :class:`repro.neural.qa.KGQA` consume
    (``has_entity`` / ``entity`` / ``find_by_name`` / ``objects`` /
    ``neighbors``), so existing consumers run against shards unchanged.
    """

    def __init__(self, shards: Sequence[KnowledgeGraph]):
        if not shards:
            raise ValueError("planner needs at least one shard")
        self.shards = list(shards)
        self.n_shards = len(self.shards)

    # ------------------------------------------------------------------
    # entity directory (replicated on every shard; shard 0 answers)

    def has_entity(self, entity_id: str) -> bool:
        return self.shards[0].has_entity(entity_id)

    def entity(self, entity_id: str) -> Entity:
        return self.shards[0].entity(entity_id)

    def find_by_name(self, name: str) -> List[Entity]:
        return self.shards[0].find_by_name(name)

    # ------------------------------------------------------------------
    # single-shard routed reads

    def owning_shard(self, subject: str) -> KnowledgeGraph:
        """The replica owning ``subject``'s triples."""
        return self.shards[shard_of(subject, self.n_shards)]

    def objects(self, subject: str, predicate: str) -> List[Value]:
        """All objects of ``(subject, predicate, ?)`` — one shard probe."""
        return self.owning_shard(subject).objects(subject, predicate)

    def lookup(self, subject: str, predicate: str) -> List[Value]:
        """Alias of :meth:`objects`; the ``lookup`` endpoint's engine."""
        return self.objects(subject, predicate)

    # ------------------------------------------------------------------
    # scatter/gather reads

    def query(
        self,
        subject: Optional[str] = None,
        predicate: Optional[str] = None,
        obj: Optional[Value] = None,
    ) -> List[Triple]:
        """Triple-pattern match with single-graph result ordering.

        A bound subject routes to its owning shard; anything else
        scatters, gathers, and re-sorts (each triple lives on exactly one
        shard, so the merged list *is* the single-graph answer).
        """
        if subject is not None:
            return self.owning_shard(subject).query(
                subject=subject, predicate=predicate, obj=obj
            )
        # Read the request context once, not per shard: each probe's child
        # span joins the request tree through explicit (context, parent).
        context = serve_context.current_context()
        parent = serve_context.current_request_span()

        def probe(index: int, shard: KnowledgeGraph) -> List[Triple]:
            with serve_context.shard_span(
                context, parent, "serve.shard.query", shard=index
            ) as span_:
                rows = shard.query(subject=None, predicate=predicate, obj=obj)
                span_.set_tag("rows", len(rows))
                return rows

        return sorted(
            row
            for index, shard in enumerate(self.shards)
            for row in probe(index, shard)
        )

    def pattern_cardinality(
        self,
        subject: Optional[str] = None,
        predicate: Optional[str] = None,
        obj: Optional[Value] = None,
    ) -> int:
        """Exact match count for a pattern (summed across shards)."""
        if subject is not None:
            return self.owning_shard(subject).pattern_cardinality(
                subject=subject, predicate=predicate, obj=obj
            )
        return sum(
            shard.pattern_cardinality(subject=None, predicate=predicate, obj=obj)
            for shard in self.shards
        )

    def neighbors(self, entity_id: str) -> List[Tuple[str, str, bool]]:
        """Adjacent entity edges gathered across shards, single-graph order.

        Outgoing edges live on the owning shard; incoming edges live on
        the owning shards of *their* subjects — hence the gather.
        """
        context = serve_context.current_context()
        parent = serve_context.current_request_span()

        def probe(index: int, shard: KnowledgeGraph) -> List[Tuple[str, str, bool]]:
            with serve_context.shard_span(
                context, parent, "serve.shard.neighbors", shard=index
            ) as span_:
                rows = shard.neighbors(entity_id)
                span_.set_tag("rows", len(rows))
                return rows

        return sorted(
            row
            for index, shard in enumerate(self.shards)
            for row in probe(index, shard)
        )

    # ------------------------------------------------------------------
    # conjunctive queries (the Sec. 1 "understanding" workload)

    def match_pattern(self, pattern: TriplePattern) -> List[Binding]:
        """One binding per matching triple, in single-graph order."""
        subject = None if is_variable(pattern.subject) else pattern.subject
        predicate = None if is_variable(pattern.predicate) else pattern.predicate
        obj = None if is_variable(pattern.object) else pattern.object
        bindings: List[Binding] = []
        for triple in self.query(subject=subject, predicate=predicate, obj=obj):
            binding: Binding = {}
            if subject is None:
                binding[pattern.subject] = triple.subject
            if predicate is None:
                binding[pattern.predicate] = triple.predicate
            if obj is None:
                binding[pattern.object] = triple.object
            bindings.append(binding)
        return bindings

    def _selectivity(self, pattern: TriplePattern) -> int:
        return self.pattern_cardinality(
            subject=None if is_variable(pattern.subject) else pattern.subject,
            predicate=None if is_variable(pattern.predicate) else pattern.predicate,
            obj=None if is_variable(pattern.object) else pattern.object,
        )

    def conjunctive_query(
        self, patterns: Sequence[TriplePattern], reorder: bool = True
    ) -> List[Binding]:
        """Join patterns across shards; identical output to the one-graph
        :func:`repro.core.query.conjunctive_query` (same reordering rule,
        same binding order)."""
        ordered = list(patterns)
        if reorder and len(ordered) > 1:
            ordered.sort(key=self._selectivity)
        solutions: List[Binding] = [{}]
        for pattern in ordered:
            next_solutions: List[Binding] = []
            for binding in solutions:
                bound = pattern.bind(binding)
                for new_binding in self.match_pattern(bound):
                    merged = dict(binding)
                    conflict = False
                    for variable, value in new_binding.items():
                        if variable in merged and merged[variable] != value:
                            conflict = True
                            break
                        merged[variable] = value
                    if not conflict:
                        next_solutions.append(merged)
            solutions = next_solutions
            if not solutions:
                break
        return solutions

    # ------------------------------------------------------------------
    # path queries

    def paths(
        self, start: str, goal: str, max_length: int = 3, max_paths: int = 100
    ) -> List[List[Tuple[str, int, str]]]:
        """Bounded simple paths, via :class:`PathQuery` over the planner.

        ``PathQuery`` only touches ``has_entity`` and ``neighbors``, both
        of which the planner answers with single-graph semantics, so the
        DFS explores in exactly the one-graph order.
        """
        return PathQuery(self, max_length=max_length).paths(  # type: ignore[arg-type]
            start, goal, max_paths=max_paths
        )

    # ------------------------------------------------------------------

    def shard_sizes(self) -> Dict[str, int]:
        """Triples per shard (balance visibility for ``/stats``)."""
        return {f"shard{index}": len(shard) for index, shard in enumerate(self.shards)}
