"""A process-global metrics registry: counters, gauges, histograms.

The registry is the numeric side of the observability layer: spans say
*where time went*, the registry says *how much work happened* — triples
ingested, candidate pairs generated, claims fused, extraction calls — and
how operation latencies distribute (fixed-bucket histograms with
p50/p95/p99 summaries).

Snapshot/reset semantics are deliberately pytest-friendly: ``snapshot()``
returns plain nested dicts (safe to assert against, JSON-serializable) and
``reset()`` restores a blank registry so tests cannot leak counts into
each other.

Module-level helpers (:func:`count`, :func:`gauge`, :func:`observe`) write
to the global registry and no-op when observability is disabled, so
instrumented call sites stay one line with near-zero disabled cost.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs._flags import FLAGS

#: Default histogram bucket upper bounds (seconds-oriented, exponential):
#: fine resolution around fast operations, coarse at the tail.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


class Counter:
    """A monotonically increasing count.

    Thread-safe: ``value += amount`` is a read-modify-write, and the
    serving layer increments the same counter from many worker threads —
    without the lock, concurrent ``inc`` calls lose updates.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value (last write wins). Thread-safe."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the current value."""
        value = float(value)
        with self._lock:
            self.value = value


class Histogram:
    """Fixed-bucket histogram with interpolated percentile summaries.

    Observations land in the first bucket whose upper bound is >= the
    value; an overflow bucket catches the rest.  Percentiles interpolate
    linearly within the winning bucket (clamped to the observed min/max,
    which are tracked exactly), so summaries stay honest at both tails
    without storing raw observations.

    Thread-safe: ``observe`` updates five fields that must move together
    (bucket, count, sum, min, max); summaries read them under the same
    lock so concurrent server threads never see a torn histogram.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None):
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(sorted(buckets or DEFAULT_BUCKETS))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def percentile(self, quantile: float) -> float:
        """Interpolated value at ``quantile`` in [0, 1].

        An empty histogram answers 0.0 — never raises — so summary and
        export paths stay safe on instruments that were registered but
        never observed (e.g. an error counter's latency twin).
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        with self._lock:
            return self._percentile_locked(quantile)

    def _percentile_locked(self, quantile: float) -> float:
        if self.count == 0:
            return 0.0
        rank = quantile * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index] if index < len(self.bounds) else self.max
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + fraction * (upper - lower)
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max  # pragma: no cover - guarded by the loop above

    def summary(self) -> Dict[str, float]:
        """Count, sum, mean, exact min/max, and p50/p95/p99.

        Empty histograms return all-zero summaries (the sentinel
        ``min=inf``/``max=-inf`` internals never leak to callers).
        """
        with self._lock:
            if self.count == 0:
                return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
                        "p50": 0.0, "p95": 0.0, "p99": 0.0}
            return {
                "count": self.count,
                "sum": self.total,
                "mean": self.total / self.count,
                "min": self.min,
                "max": self.max,
                "p50": self._percentile_locked(0.50),
                "p95": self._percentile_locked(0.95),
                "p99": self._percentile_locked(0.99),
            }

    def state(self) -> Dict[str, object]:
        """Raw bucket state for exporters (Prometheus needs the buckets).

        Empty histograms report zeroed extremes, not the inf sentinels.
        """
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "bucket_counts": list(self.bucket_counts),
                "count": self.count,
                "sum": self.total,
                "min": self.min if self.count else 0.0,
                "max": self.max if self.count else 0.0,
            }


class MetricsRegistry:
    """Named counters, gauges, and histograms.

    The registry lock guards instrument creation; each instrument carries
    its own lock for updates, so high-rate serving threads contend on
    their one metric, not on the whole registry.

    Instruments are created on first use (``registry.counter("x").inc()``)
    and a name belongs to exactly one instrument kind — re-registering
    ``"x"`` as a gauge after it was a counter raises, catching the silent
    metric collisions that make dashboards lie.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_unique(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}, "
                    f"cannot reuse it as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use).

        Lock-free on the hit path: a dict read is atomic under the GIL
        and ``reset()`` swaps in a fresh dict rather than mutating, so
        the worst race is two threads both taking the creation path —
        which the double-check under the lock resolves.  Serving-path
        metric calls hit this per request; one lock per call was
        measurable against a tens-of-microseconds request.
        """
        instrument = self._counters.get(name)
        if instrument is not None:
            return instrument
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_unique(name, "counter")
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is not None:
            return instrument
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._check_unique(name, "gauge")
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        instrument = self._histograms.get(name)
        if instrument is not None:
            return instrument
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_unique(name, "histogram")
                instrument = self._histograms[name] = Histogram(name, buckets=buckets)
            return instrument

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict view of every instrument (JSON-serializable)."""
        with self._lock:
            return {
                "counters": {name: c.value for name, c in sorted(self._counters.items())},
                "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
                "histograms": {
                    name: h.summary() for name, h in sorted(self._histograms.items())
                },
            }

    def histogram_states(self) -> Dict[str, Dict[str, object]]:
        """Raw bucket state per histogram (the Prometheus exporter's input)."""
        with self._lock:
            return {name: h.state() for name, h in sorted(self._histograms.items())}

    def reset(self) -> None:
        """Forget every instrument (test isolation)."""
        with self._lock:
            self._counters = {}
            self._gauges = {}
            self._histograms = {}


_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry."""
    return _GLOBAL_REGISTRY


# ---------------------------------------------------------------------------
# One-line instrumentation helpers (no-ops while observability is disabled).


def count(name: str, amount: float = 1.0) -> None:
    """Increment a global counter (no-op when observability is off)."""
    if FLAGS.enabled:
        _GLOBAL_REGISTRY.counter(name).inc(amount)


def gauge(name: str, value: float) -> None:
    """Set a global gauge (no-op when observability is off)."""
    if FLAGS.enabled:
        _GLOBAL_REGISTRY.gauge(name).set(value)


def observe(name: str, value: float, buckets: Optional[Sequence[float]] = None) -> None:
    """Record a global histogram observation (no-op when observability is off)."""
    if FLAGS.enabled:
        _GLOBAL_REGISTRY.histogram(name, buckets=buckets).observe(value)
