"""The six workloads, one module each, behind one small interface.

A workload is set up (possibly several times — set-up time is a metric),
runs its fixed-count measured phase once, has its outputs checked, and —
in the traced run only — replays parts of its work at layer boundaries to
attribute the time.  Sizes below are for ``factor == 1.0`` (the
``run_seconds`` of BENCHMARK.json); ``--seconds``/``--smoke`` scale every
count by one factor.
"""

from __future__ import annotations

import hashlib
import resource
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from bench.trace import Tracer


@dataclass
class Measured:
    """What one measured phase produced."""

    ops: int  # the fixed operation count behind ops_per_s
    wall_s: float  # measured phase, in reference-speed seconds (bench.calib)
    raw_wall_s: float  # the same phase in raw wall-clock seconds
    attempted: int  # operations whose outcome was checked
    failed: int = 0  # of those, how many failed on the spot
    #: Per-operation latencies; None for a bulk job (the job is the operation).
    latencies_ms: Optional[List[float]] = None
    #: How many equal consecutive slices ``latencies_ms`` falls into when
    #: p50/p95 should be the median of per-slice percentiles (1 = pooled).
    latency_slices: int = 1
    #: Exact, seed-determined counts (repeat bit-for-bit across runs).
    counts: Dict[str, int] = field(default_factory=dict)
    #: Layer values that fall out of the measured phase without a replay.
    layers: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    #: Why the run's load generation was not valid (rerun it), or "".
    invalid: str = ""
    #: Per timed slice: (raw seconds, arithmetic reading, memory reading).
    slices: List[tuple] = field(default_factory=list)


class Workload:
    """Base class; subclasses fill in the four phases."""

    name = ""
    #: Share of this workload's machine-speed drift that tracks the
    #: memory-bound calibration kernel rather than the arithmetic one
    #: (bench/calib.py); fitted on same-seed runs, part of the definition.
    memory_weight = 0.5

    def __init__(self, seed: int, factor: float, tracer: Tracer, workdir: str):
        self.seed = seed
        self.factor = factor
        self.tracer = tracer
        self.workdir = workdir

    def scaled(self, count: int, floor: int = 1) -> int:
        return max(floor, int(round(count * self.factor)))

    def setup(self) -> None:
        """Everything before the measured phase; callable repeatedly."""
        raise NotImplementedError

    def run(self) -> Measured:
        raise NotImplementedError

    def check(self, measured: Measured) -> List[str]:
        """Correctness failures of the run (empty when every check holds)."""
        raise NotImplementedError

    def layer_metrics(self, measured: Measured) -> Dict[str, float]:
        """Traced run only: replays at layer boundaries + program counters."""
        return {}

    def close(self) -> None:
        """Stop processes and drop state the last ``setup`` created."""

    def peak_rss_kb(self) -> int:
        """Peak resident set of the process that did the workload's work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def digest_of(items: Iterable[object]) -> str:
    """An order-sensitive fingerprint of ``repr`` items (correctness digest)."""
    sha = hashlib.sha256()
    for item in items:
        sha.update(repr(item).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()[:16]


def sorted_rows(graph) -> List[tuple]:
    """The graph's triples as plain tuples in the graph's own sorted order."""
    return [triple.as_tuple() for triple in graph.query()]


def registry() -> Dict[str, type]:
    from bench.workloads.build_batch import BuildBatch
    from bench.workloads.graph_mutate import GraphMutate
    from bench.workloads.serve_http import ServeHTTP
    from bench.workloads.serve_scan import ServeScan
    from bench.workloads.store_cycle import StoreCycle
    from bench.workloads.stream_live import StreamLive

    classes = (BuildBatch, StreamLive, StoreCycle, GraphMutate, ServeScan, ServeHTTP)
    return {cls.name: cls for cls in classes}
