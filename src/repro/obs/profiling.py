"""Profiling hooks: the on/off switch plus decorator/context instruments.

``@profiled("extract.distant")`` wraps a callable so every invocation
feeds *both* sides of the observability layer: a span (hierarchy + tags)
and the metrics registry (a ``<name>.calls`` counter and a
``<name>.seconds`` latency histogram).  ``profile_block`` is the same
instrument as a context manager for regions that are not a whole function.

The disabled path is near-zero cost: one attribute load and a branch per
call, no object allocation — cheap enough to leave the decorators on hot
paths permanently (the <5% overhead budget of the perf benchmarks).

Enablement is process-global::

    from repro import obs

    obs.enable()            # or REPRO_OBS=1 in the environment
    ... run workload ...
    print(obs.get_registry().snapshot())
    obs.disable()

``enabled_scope()`` brackets enable/reset/disable for tests.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

from repro.obs._flags import FLAGS
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer, span

CallableT = TypeVar("CallableT", bound=Callable)


def enable() -> None:
    """Turn observability on (spans, metrics, profiling all record)."""
    FLAGS.enabled = True


def disable() -> None:
    """Turn observability off (instrumentation reverts to no-ops)."""
    FLAGS.enabled = False


def enabled() -> bool:
    """Whether observability is currently on."""
    return FLAGS.enabled


def reset_all() -> None:
    """Clear every global collector: tracer, registry, ledger, snapshots.

    The one call CLI entry points (``repro trace`` / ``repro report``) and
    tests make so back-to-back runs in one process never bleed state.
    """
    from repro.obs import lineage, progress, quality, slo

    get_tracer().reset()
    get_registry().reset()
    lineage.get_ledger().reset()
    quality.reset_snapshots()
    slo.reset_slo_tracker()
    progress.get_progress().reset()


def rusage() -> dict:
    """Peak RSS and CPU split for this process (the run-registry resources).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalized
    here to kilobytes so registry entries compare across platforms.
    """
    import resource
    import sys

    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_kb = usage.ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak_rss_kb //= 1024
    return {
        "peak_rss_kb": int(peak_rss_kb),
        "cpu_user_s": round(usage.ru_utime, 6),
        "cpu_system_s": round(usage.ru_stime, 6),
    }


@contextmanager
def enabled_scope(reset: bool = True) -> Iterator[None]:
    """Enable observability for a block, restoring the previous state.

    With ``reset`` (default) the tracer, registry, lineage ledger, and
    quality-snapshot holder are cleared on entry *and* exit, so
    surrounding code — e.g. other pytest tests — never sees spans,
    counts, or chains from the block.
    """
    previous = FLAGS.enabled
    if reset:
        reset_all()
    FLAGS.enabled = True
    try:
        yield
    finally:
        FLAGS.enabled = previous
        if reset:
            reset_all()


def profiled(name: str, **tags: object) -> Callable[[CallableT], CallableT]:
    """Decorate a callable with a span + calls counter + latency histogram.

    ``name`` keys all three: the span is ``name``, the counter
    ``<name>.calls``, the histogram ``<name>.seconds``.  Extra keyword
    tags are attached to every span the wrapper emits.
    """

    def decorate(func: CallableT) -> CallableT:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not FLAGS.enabled:
                return func(*args, **kwargs)
            registry = get_registry()
            started = time.perf_counter()
            try:
                with span(name, **tags):
                    return func(*args, **kwargs)
            finally:
                registry.counter(f"{name}.calls").inc()
                registry.histogram(f"{name}.seconds").observe(
                    time.perf_counter() - started
                )

        wrapper.__profiled_name__ = name
        return wrapper  # type: ignore[return-value]

    return decorate


@contextmanager
def profile_block(name: str, **tags: object) -> Iterator[None]:
    """``profiled`` as a context manager, for sub-function regions."""
    if not FLAGS.enabled:
        yield
        return
    registry = get_registry()
    started = time.perf_counter()
    try:
        with span(name, **tags):
            yield
    finally:
        registry.counter(f"{name}.calls").inc()
        registry.histogram(f"{name}.seconds").observe(time.perf_counter() - started)
