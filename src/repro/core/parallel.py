"""Deterministic data-parallel mapping for the construction hot paths.

The paper's pipelines are embarrassingly parallel at well-defined grain
boundaries — blocking keys per record, similarity features per candidate
pair, fusion posteriors per (subject, attribute) item, distant labels per
page.  :func:`pmap` is the one choke point those stages fan out through:

* ``mode="serial"`` (the default) — a plain list comprehension that also
  feeds the ``--progress`` item counts;
* ``mode="process"`` — a process pool with chunking, for CPU-bound Python
  whose callable and items pickle.  Only the call sites that pass it fork
  (the per-partition pipeline and boundary-pair scoring); nothing in the
  environment turns a serial site into a forking one.  An unpicklable
  callable fails loudly, like an unknown mode does.

Results are **always** returned in input order, regardless of mode,
chunking, or completion order — parallelism must never change what a
pipeline computes, only how fast.  ``REPRO_PMAP_WORKERS`` overrides the
default pool size process-wide.

Observability crosses the process boundary: when tracing is enabled,
each worker chunk runs under a fresh collector set inside a
``pmap.worker`` span, buffers its spans/counters/lineage locally, and
ships them back with the chunk results; the coordinator merges payloads
in chunk input order, so the merged trace/metrics/lineage state is
deterministic and equal to a serial run's (see
``repro.obs.profiling.worker_begin``/``worker_collect``/``worker_merge``
and DESIGN.md §10).
"""

from __future__ import annotations

import os
import pickle
import traceback
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


class PmapWorkerError(Exception):
    """Carries a worker's original traceback text across the pool boundary.

    Raised as the ``__cause__`` of the re-raised worker exception (so the
    failing item's real stack — lost when an exception crosses a process
    boundary — still prints), and as the replacement exception when the
    original does not pickle.
    """


class _WorkerFailure:
    """A worker exception captured in-pool, returned instead of raised."""

    __slots__ = ("exc", "formatted")

    def __init__(self, exc: BaseException, formatted: str):
        self.exc = exc
        self.formatted = formatted


class _ShippedChunk:
    """One process chunk's results plus its observability payload."""

    __slots__ = ("value", "obs")

    def __init__(self, value, obs):
        self.value = value
        self.obs = obs


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


def _apply_chunk(fn: Callable[[ItemT], ResultT], chunk: Sequence[ItemT]):
    """Worker body: apply ``fn`` to one chunk, preserving chunk order.

    Failures come back as :class:`_WorkerFailure` rather than raising, so
    the coordinator can re-raise the *original* exception with the worker
    traceback chained — ``pool.map`` alone loses the worker-side stack
    for process pools.
    """
    try:
        return [fn(item) for item in chunk]
    except BaseException as exc:
        formatted = traceback.format_exc()
        if not _picklable(exc):
            exc = PmapWorkerError(f"{type(exc).__name__}: {exc}")
        return _WorkerFailure(exc, formatted)


def _apply_chunk_shipped(
    fn: Callable[[ItemT], ResultT], chunk: Sequence[ItemT], chunk_index: int
):
    """Process-worker body under observability: trace locally, ship back.

    Fresh collectors per *chunk* (not per worker process), so the shipped
    payload depends only on the chunk's work — never on which worker
    handled it or what that worker did before — which is what lets the
    coordinator merge payloads deterministically in input order.
    """
    from repro.obs import profiling as obs_profiling
    from repro.obs import tracing as obs_tracing

    obs_profiling.worker_begin()
    failure: Optional[_WorkerFailure] = None
    results: Optional[List[ResultT]] = None
    try:
        with obs_tracing.span("pmap.worker", chunk=chunk_index, n_items=len(chunk)):
            results = [fn(item) for item in chunk]
    except BaseException as exc:
        formatted = traceback.format_exc()
        if not _picklable(exc):
            exc = PmapWorkerError(f"{type(exc).__name__}: {exc}")
        failure = _WorkerFailure(exc, formatted)
    payload = obs_profiling.worker_collect()
    return _ShippedChunk(failure if failure is not None else results, payload)


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


def _chunked(items: Sequence[ItemT], chunk_size: int) -> List[Sequence[ItemT]]:
    return [items[start : start + chunk_size] for start in range(0, len(items), chunk_size)]


def _picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True


def _serial_map(fn: Callable[[ItemT], ResultT], items: Sequence[ItemT]) -> List[ResultT]:
    """The serial execution path, still feeding the progress heartbeat."""
    if not (_OBS_FLAGS.enabled and items):
        return [fn(item) for item in items]
    obs_progress.add_total(len(items))
    results: List[ResultT] = []
    for item in items:
        results.append(fn(item))
        obs_progress.advance()
    return results


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
    materialized = items if isinstance(items, (list, tuple)) else list(items)
    n_items = len(materialized)
    if mode != "process" or n_items <= 1:
        return _serial_map(fn, materialized)
    workers = max_workers if max_workers is not None else default_workers()
    workers = min(workers, n_items)
    if workers <= 1:
        return _serial_map(fn, materialized)
    if chunk_size is None:
        chunk_size = default_chunk_size(n_items, workers)
    chunks = _chunked(materialized, chunk_size)
    obs_metrics.count("parallel.pmap.process_calls")

    observing = _OBS_FLAGS.enabled
    context = None
    if observing:
        from repro.obs import tracing as obs_tracing

        context = obs_tracing.capture_context()
        obs_progress.add_total(n_items)

    shipping = observing and context.recording
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # map() yields chunk results in submission order — determinism is
        # structural, not sorted after the fact.
        if shipping:
            mapped = pool.map(
                _apply_chunk_shipped, [fn] * len(chunks), chunks, range(len(chunks))
            )
        else:
            mapped = pool.map(_apply_chunk, [fn] * len(chunks), chunks)
        if observing:
            chunk_results = []
            for chunk, chunk_result in zip(chunks, mapped):
                chunk_results.append(chunk_result)
                obs_progress.advance(len(chunk))
        else:
            chunk_results = list(mapped)

    if shipping:
        from repro.obs import profiling as obs_profiling

        # Merge every chunk's payload — in input order, failed chunks
        # included — *before* raising, so a failing build still accounts
        # for the work its workers did.
        unwrapped = []
        for shipped in chunk_results:
            obs_profiling.worker_merge(shipped.obs, context)
            unwrapped.append(shipped.value)
        chunk_results = unwrapped

    results: List[ResultT] = []
    for chunk_result in chunk_results:
        if isinstance(chunk_result, _WorkerFailure):
            # Re-raise the worker's exception with its original traceback
            # chained, and deterministically: the first failing chunk in
            # input order wins, regardless of completion order.
            raise chunk_result.exc from PmapWorkerError(
                f"pmap worker failed; original traceback:\n{chunk_result.formatted}"
            )
        results.extend(chunk_result)
    return results
