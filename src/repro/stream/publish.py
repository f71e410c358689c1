"""Live snapshot publishing: follow the WAL, hot-swap the serving store.

Two cooperating pieces:

* :class:`WALFollower` keeps the graph a
  :class:`~repro.core.codec.TripleWAL` directory holds.  On the thread
  that writes the log, that graph already exists: the follower is a
  *view* of the writer's graph (:attr:`TripleWAL.writer`), and a poll
  only counts the records appended since the last one.  Anywhere else —
  ``repro serve --follow-wal`` in another process, another thread, or
  once the writer's log is closed, checkpointed or compacted — it is a
  *replica*: a :class:`~repro.core.codec.WALReplay`, the same replay
  :meth:`TripleWAL.recover` runs, kept between polls so each one applies
  only what was appended since.  A replica never takes the writer's
  lock: a torn frame at the tail is retried on the next poll, and a
  checkpoint/compaction (``base.rkgs`` replaced, or the tailed segment
  gone) triggers a full re-bootstrap from the new base.  Both modes
  publish through one code path.

* :class:`StreamPublisher` turns follower state into serving traffic on
  a cadence: poll the follower, optionally persist a fresh ``.rkgs``
  snapshot, then hot-swap the graph into a
  :class:`~repro.serve.snapshot.SnapshotStore` (atomic publish; readers
  never block).  Each publish records the two freshness metrics the
  paper's "never rebuilt from scratch" lesson makes operational:

  - **staleness** (``stream.staleness_seconds``): how old the serving
    view just replaced was — the wall-clock gap between consecutive
    publishes;
  - **catch-up lag** (``stream.catchup_records``): ingest debt — source
    records enqueued but not yet ingested at publish time (the
    :meth:`~repro.stream.source.DeltaQueue.pending_records` gauge).

  Samples are kept so ``repro stream`` can fold p50/p95 percentiles
  into its table and run record (:meth:`StreamPublisher.freshness`).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.codec import TripleWAL, WALReplay, save_graph, writer_log
from repro.core.graph import KnowledgeGraph
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import span as obs_span


def percentiles(
    samples: Sequence[float], points: Sequence[int] = (50, 95)
) -> Dict[str, float]:
    """Nearest-rank percentiles (no numpy interpolation surprises).

    The ``p``-th percentile of ``n`` samples is the ``ceil(p·n/100)``-th
    smallest, computed in integers so that no float product rounds up a
    rank.  Empty input reads 0.0 for every point.
    """
    out: Dict[str, float] = {}
    ordered = sorted(samples)
    for point in points:
        if not ordered:
            out[f"p{point}"] = 0.0
            continue
        rank = -(-point * len(ordered) // 100)  # ceil(point * n / 100)
        out[f"p{point}"] = float(ordered[max(1, rank) - 1])
    return out


class WALFollower:
    """The graph a WAL directory holds: a view of the in-process writer's
    graph when there is one, else a replica built by tailing segments.

    A view's ``graph`` is the writer's live graph; the view exists only on
    the writer's thread, so it is read (and published) between the
    writer's mutations, never during one.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.graph: KnowledgeGraph
        # The writer's log while this follower is a view of its graph.
        self._view: Optional[TripleWAL] = None
        self._n_viewed = 0
        # The replica's replay, which remembers where tailing resumes.
        self._replay: Optional[WALReplay] = None
        self.n_applied = 0
        self.n_bootstraps = 0
        self._refresh()

    # ------------------------------------------------------------------

    def _bootstrap(self) -> int:
        """(Re)build the replica from the current base + all segments."""
        self._replay = WALReplay(self.directory)
        self.graph = self._replay.graph
        self.n_bootstraps += 1
        obs_metrics.count("stream.follower.bootstraps")
        return self._replay.catch_up() + 1

    def _refresh(self) -> int:
        log = writer_log(self.directory)
        if log is not None:
            # Entering a view counts as change, like a bootstrap.
            applied = (
                log.n_appended - self._n_viewed
                if log is self._view
                else log.n_appended + 1
            )
            self._view, self._n_viewed, self.graph = log, log.n_appended, log.writer
            return applied
        if self._view is not None or self._replay is None or self._replay.base_changed():
            self._view = None
            return self._bootstrap()
        try:
            return self._replay.catch_up()
        except FileNotFoundError:
            return self._bootstrap()

    def poll(self) -> int:
        """Catch up with the log; returns how many new records it reflects.

        A view only counts them.  A replica applies them; a changed
        ``base.rkgs`` (checkpoint/compaction), a vanished segment or a
        view that ended forces a full re-bootstrap, which also counts as
        change.
        """
        applied = self._refresh()
        self.n_applied += applied
        if applied:
            obs_metrics.count("stream.follower.applied_records", applied)
        return applied

    @property
    def is_view(self) -> bool:
        """True while ``graph`` is the in-process writer's own graph."""
        return self._view is not None


class StreamPublisher:
    """Cadenced hot-swap of follower state into a serving store."""

    def __init__(
        self,
        store,
        follower: WALFollower,
        snapshot_path: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.store = store
        self.follower = follower
        self.snapshot_path = snapshot_path
        self._clock = clock
        self._started = clock()
        self._last_publish: Optional[float] = None
        self.n_publishes = 0
        self.staleness_samples: List[float] = []
        self.catchup_samples: List[float] = []

    def publish(self, queue_records: int = 0) -> Dict[str, object]:
        """Poll the follower and unconditionally swap in its graph."""
        return self._swap(self._poll(), queue_records)

    def publish_if_changed(
        self, queue_records: int = 0
    ) -> Optional[Dict[str, object]]:
        """Swap only when the poll surfaced new WAL records (or nothing
        has ever been published) — the follow-wal serve loop's cadence."""
        applied = self._poll()
        if applied == 0 and self._last_publish is not None:
            return None
        return self._swap(applied, queue_records)

    def _poll(self) -> int:
        with obs_span("stream.publish.poll") as span_:
            applied = self.follower.poll()
            span_.set_tag("applied", applied)
        return applied

    def _swap(self, applied: int, queue_records: int) -> Dict[str, object]:
        now = self._clock()
        since = self._last_publish if self._last_publish is not None else self._started
        staleness = max(0.0, now - since)
        if self.snapshot_path:
            save_graph(self.follower.graph, self.snapshot_path, include_lineage=False)
        snapshot = self.store.publish(self.follower.graph, copy=True)
        self._last_publish = now
        self.n_publishes += 1
        self.staleness_samples.append(staleness)
        self.catchup_samples.append(float(queue_records))
        obs_metrics.observe("stream.staleness_seconds", staleness)
        obs_metrics.observe("stream.catchup_records", float(queue_records))
        obs_metrics.count("stream.publishes")
        return {
            "version": snapshot.version,
            "staleness_s": staleness,
            "catchup_records": queue_records,
            "n_applied": applied,
        }

    def freshness(self) -> Dict[str, float]:
        """The run-record slice: publish + lag percentiles."""
        summary = {"n_publishes": float(self.n_publishes)}
        for key, value in percentiles(self.staleness_samples).items():
            summary[f"staleness_{key}_s"] = value
        for key, value in percentiles(self.catchup_samples).items():
            summary[f"catchup_{key}_records"] = value
        return summary
