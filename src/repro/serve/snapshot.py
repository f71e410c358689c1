"""Versioned, immutable graph snapshots with atomic publish/swap.

Construction pipelines mutate a :class:`~repro.core.graph.KnowledgeGraph`
in place — linkage merges rewrite subjects, fusion drops triples.  An
online service cannot read that moving target: a query must see one
consistent graph from its first index probe to its last.  The snapshot
layer separates the two worlds:

* :meth:`SnapshotStore.publish` is a copy plus a swap: it copies the
  construction graph (so later ``merge_entities`` / ``add_triple`` calls
  never leak into served answers) and installs the copy as the *current*
  snapshot with a single reference swap under a lock.  The copy shares
  everything that is never written in place — the store's sorted base
  columns, each triple's provenance list, each entity and each name-index
  id set — so it costs flat copies of the directories, the delta overlay
  and the term dictionary, not the graph.  The planner reads that one
  frozen copy; no per-shard store is built;
* a request takes one ``store.current()`` reference up front and runs
  entirely against it — in-flight requests finish on the old generation
  while new requests see the new one, with no read locks at all.  The
  store keeps no retired snapshot: one lives exactly as long as a request
  holds it;
* every snapshot carries a monotonically increasing ``version`` plus the
  source graph's mutation ``generation`` (the counter
  :class:`~repro.core.graph.KnowledgeGraph` already maintains), which is
  what keys cache invalidation in :mod:`repro.serve.cache`.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.core.graph import KnowledgeGraph
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import span as obs_span
from repro.serve.shard import ScatterGatherPlanner


class GraphSnapshot:
    """One published, immutable generation of the serving graph.

    Holds a private copy of the source graph (readers never observe
    construction mutations) and the planner the router queries it
    through.  Snapshots are never mutated after construction; the store
    only ever swaps whole snapshot references.
    """

    def __init__(
        self,
        version: int,
        graph: KnowledgeGraph,
        n_shards: int = 1,
        source_generation: Optional[int] = None,
    ):
        self.version = version
        self.source_generation = (
            source_generation if source_generation is not None else graph.generation
        )
        self.published_unix = time.time()
        self.graph = graph
        self.planner = ScatterGatherPlanner(graph, n_shards)

    @property
    def n_shards(self) -> int:
        return self.planner.n_shards

    def describe(self) -> Dict[str, object]:
        """JSON-serializable snapshot metadata (the ``/stats`` payload)."""
        stats = self.graph.stats()
        return {
            "version": self.version,
            "source_generation": self.source_generation,
            "published_unix": round(self.published_unix, 3),
            "n_shards": self.n_shards,
            "n_entities": stats["n_entities"],
            "n_triples": stats["n_triples"],
        }


class SnapshotStore:
    """Holds the current snapshot and performs atomic publishes.

    The expensive work of a publish (the graph copy) happens *outside* the
    lock; only the final reference swap is serialized, so readers are
    never blocked by a publish and a half-built snapshot is never
    observable.
    """

    def __init__(self, n_shards: int = 1):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self._lock = threading.Lock()
        self._current: Optional[GraphSnapshot] = None
        self._next_version = 0

    def publish(self, graph: KnowledgeGraph, copy: bool = True) -> GraphSnapshot:
        """Copy ``graph`` and atomically install the copy.

        The copy is taken eagerly, so construction code is free to keep
        mutating ``graph`` the moment this returns (or concurrently — the
        caller must simply not mutate *during* the copy).  ``copy=False``
        adopts ``graph`` directly — only for graphs nothing else will
        mutate, e.g. one freshly loaded from a snapshot file.
        """
        started = time.perf_counter()
        with obs_span("serve.snapshot.publish", n_shards=self.n_shards) as span_:
            source_generation = graph.generation
            if copy:
                with obs_span("serve.snapshot.copy"):
                    frozen = graph.copy()
            else:
                frozen = graph
            with self._lock:
                self._next_version += 1
                version = self._next_version
            snapshot = GraphSnapshot(
                version=version,
                graph=frozen,
                n_shards=self.n_shards,
                source_generation=source_generation,
            )
            with self._lock:
                self._current = snapshot
            span_.set_tag("version", snapshot.version)
        obs_metrics.count("serve.snapshot.publishes")
        obs_metrics.gauge("serve.snapshot.version", snapshot.version)
        obs_metrics.gauge("serve.snapshot.n_triples", len(frozen))
        obs_metrics.observe(
            "serve.snapshot.publish_seconds", time.perf_counter() - started
        )
        return snapshot

    def publish_from_file(self, path: str) -> GraphSnapshot:
        """Boot the serving snapshot from a binary snapshot file.

        This is the restart-free path: ``repro save`` persists a built
        graph, and a fresh server process installs it here without
        re-running construction.  The loaded graph is adopted without a
        defensive copy (nothing else holds a reference to it).
        """
        from repro.core import codec  # local import: codec pulls in graph

        started = time.perf_counter()
        graph = codec.load_graph(path)
        obs_metrics.observe(
            "serve.snapshot.load_seconds", time.perf_counter() - started
        )
        obs_metrics.count("serve.snapshot.file_boots")
        return self.publish(graph, copy=False)

    def current(self) -> Optional[GraphSnapshot]:
        """The live snapshot reference (None before the first publish).

        Callers hold the returned reference for the whole request; a
        concurrent publish swaps the store pointer but never touches
        snapshots already handed out.
        """
        with self._lock:
            return self._current

    def current_version(self) -> int:
        """The live snapshot's version, 0 before the first publish."""
        snapshot = self.current()
        return snapshot.version if snapshot is not None else 0
