"""Deterministic data-parallel mapping for the construction hot paths.

The paper's pipelines are embarrassingly parallel at well-defined grain
boundaries — blocking keys per record, similarity features per candidate
pair, fusion posteriors per (subject, attribute) item, distant labels per
page.  :func:`pmap` is the one choke point those stages fan out through:

* ``mode="serial"`` (the default) — a plain list comprehension that also
  feeds the ``--progress`` item counts;
* ``mode="process"`` — ``ProcessPoolExecutor.map`` with chunking, for
  CPU-bound Python whose callable and items pickle.  Only the call sites
  that pass it fork (the per-partition pipeline and boundary-pair
  scoring); nothing in the environment turns a serial site into a forking
  one.  An unpicklable callable fails loudly, like an unknown mode does.

Results are **always** returned in input order, regardless of mode,
chunking, or completion order — parallelism must never change what a
pipeline computes, only how fast.  A worker failure re-raises the first
failing item's exception (in input order) with its own type and message,
the worker traceback chained as ``__cause__``.  ``REPRO_PMAP_WORKERS``
overrides the default pool size process-wide.

Workers ship results, not observability: spans, metrics and lineage
recorded inside a worker process stay there.  The callables that run in
workers record nothing by contract (DESIGN.md §10), so the coordinator's
own observations — the ``parallel.pmap.process_calls`` counter, the
progress totals and the enclosing stage span — are the whole trace.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.obs import metrics as obs_metrics
from repro.obs import progress as obs_progress
from repro.obs._flags import FLAGS as _OBS_FLAGS

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Environment variable overriding the default pool size (``max_workers``
#: arguments at call sites still win; this replaces the cpu-count default).
WORKERS_ENV_VAR = "REPRO_PMAP_WORKERS"

_MODES = ("serial", "process")


def default_workers() -> int:
    """Pool size when a call site passes ``max_workers=None``.

    ``REPRO_PMAP_WORKERS`` (a positive integer) wins; otherwise
    ``min(8, cpu_count)``.  The env override matters on single-core CI
    runners, where the cpu-count default collapses ``mode="process"``
    back to serial before a worker ever forks — which is exactly why a
    malformed value raises instead of being silently ignored: an operator
    who set it wants the pool they asked for, not a quiet fallback.
    """
    raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            value = 0
        if value < 1:
            raise ValueError(
                f"{WORKERS_ENV_VAR}={raw!r} is not a positive integer; "
                "set it to a whole number >= 1 (e.g. 4) or unset it"
            )
        return value
    return min(8, os.cpu_count() or 1)


#: Target chunks per worker when a call site does not pass ``chunk_size``.
#: >1 so an uneven workload can rebalance (a worker that drew cheap chunks
#: picks up more); small enough that per-chunk dispatch overhead amortizes.
CHUNKS_PER_WORKER = 4


def default_chunk_size(n_items: int, workers: int) -> int:
    """Chunk size adapted to the workload: ``len(items)`` split evenly
    into ~:data:`CHUNKS_PER_WORKER` chunks per worker (ceiling division,
    never below 1).  Scales with ``n_items / workers`` rather than a
    fixed constant, so tiny inputs still spread across the pool and huge
    inputs don't drown it in per-chunk dispatch."""
    return max(1, (n_items + workers * CHUNKS_PER_WORKER - 1) // (workers * CHUNKS_PER_WORKER))


def _consume(results: Iterable[ResultT], n_items: int) -> List[ResultT]:
    """Collect ``results`` in order, feeding the progress heartbeat."""
    if not (_OBS_FLAGS.enabled and n_items):
        return list(results)
    obs_progress.add_total(n_items)
    collected: List[ResultT] = []
    for result in results:
        collected.append(result)
        obs_progress.advance()
    return collected


def pmap(
    fn: Callable[[ItemT], ResultT],
    items: Iterable[ItemT],
    mode: Optional[str] = None,
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[ResultT]:
    """``[fn(item) for item in items]``, optionally in parallel.

    Parameters
    ----------
    mode:
        ``"serial"`` (also what ``None`` means) or ``"process"``; anything
        else raises ``ValueError``.
    max_workers:
        Pool size; defaults to ``REPRO_PMAP_WORKERS`` or
        ``min(8, cpu_count)``.
    chunk_size:
        Items handed to a worker at a time; defaults to
        :func:`default_chunk_size` — an even split of ``len(items)``
        across ~:data:`CHUNKS_PER_WORKER` chunks per worker (amortizes
        task dispatch without starving the pool).

    Returns results in input order in both modes.
    """
    if mode is not None and mode not in _MODES:
        raise ValueError(f"unknown pmap mode {mode!r}; use one of {_MODES}")
    materialized: Sequence[ItemT] = (
        items if isinstance(items, (list, tuple)) else list(items)
    )
    n_items = len(materialized)
    workers = 1
    if mode == "process" and n_items > 1:
        workers = max_workers if max_workers is not None else default_workers()
        workers = min(workers, n_items)
    if workers <= 1:
        return _consume((fn(item) for item in materialized), n_items)
    if chunk_size is None:
        chunk_size = default_chunk_size(n_items, workers)
    obs_metrics.count("parallel.pmap.process_calls")
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _consume(pool.map(fn, materialized, chunksize=chunk_size), n_items)
