"""The snapshot's query planner and the subject-hash partition it reports.

A published snapshot is one frozen :class:`~repro.core.graph.KnowledgeGraph`:
one term dictionary plus the sorted SPO / POS / OSP permutation columns.
Every read the serving routes make is an index probe on that one store, so
the :class:`ScatterGatherPlanner` hands each read straight to the graph —
no per-shard replica is built at publish time and no answer is gathered
and re-sorted.  Its answers are :mod:`repro.core.query`'s by construction.

``n_shards`` survives as a *partition the snapshot reports*, not stores it
builds: a triple belongs to shard ``crc32(subject) % n_shards`` (stable
across processes and runs), and :meth:`ScatterGatherPlanner.shard_sizes`
counts triples per shard when ``/stats`` asks.
"""

from __future__ import annotations

import zlib
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.core.graph import KnowledgeGraph
from repro.core.query import Binding, PathQuery, TriplePattern, conjunctive_query


def shard_of(subject: str, n_shards: int) -> int:
    """The shard index owning ``subject`` (stable across processes)."""
    if n_shards <= 1:
        return 0
    return zlib.crc32(subject.encode("utf-8")) % n_shards


class ScatterGatherPlanner:
    """The read surface the router and :class:`repro.neural.qa.KGQA` use.

    Duck-types the slice of the :class:`~repro.core.graph.KnowledgeGraph`
    API they consume (``has_entity`` / ``entity`` / ``find_by_name`` /
    ``objects`` / ``query`` / ``pattern_cardinality`` / ``neighbors``) by
    binding those methods of the one frozen graph, plus the join and path
    entry points of :mod:`repro.core.query`.
    """

    def __init__(self, graph: KnowledgeGraph, n_shards: int = 1):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.graph = graph
        self.n_shards = n_shards
        # Bound methods, not wrappers: a lookup is one call into the store.
        self.has_entity = graph.has_entity
        self.entity = graph.entity
        self.find_by_name = graph.find_by_name
        self.objects = self.lookup = graph.objects
        self.query = graph.query
        self.pattern_cardinality = graph.pattern_cardinality
        self.neighbors = graph.neighbors

    def conjunctive_query(
        self, patterns: Sequence[TriplePattern], reorder: bool = True
    ) -> List[Binding]:
        """:func:`repro.core.query.conjunctive_query` over the snapshot."""
        return conjunctive_query(self.graph, patterns, reorder=reorder)

    def paths(
        self, start: str, goal: str, max_length: int = 3, max_paths: int = 100
    ) -> List[List[Tuple[str, int, str]]]:
        """Bounded simple paths, via :class:`PathQuery` over the snapshot."""
        return PathQuery(self.graph, max_length=max_length).paths(
            start, goal, max_paths=max_paths
        )

    def shard_sizes(self) -> Dict[str, int]:
        """Triples per subject-hash shard (balance visibility for ``/stats``).

        Counts rows per subject id, then hashes each distinct subject once.
        """
        store = self.graph._store
        decode = store._terms.decode
        sizes = [0] * self.n_shards
        for subject_id, count in Counter(row[0] for row in store.iter_rows()).items():
            sizes[shard_of(decode(subject_id), self.n_shards)] += count
        return {f"shard{index}": size for index, size in enumerate(sizes)}
