"""Machine-speed calibration: times in reference-speed seconds.

This box's speed drifts.  A fixed pure-Python arithmetic loop reads
anywhere from 83 ms to 167 ms within one minute, a fixed random walk over
a 100k-tuple list (≈10 MB) drifts independently of it, and each drift
lasts 5-30 s — so raw wall-clock throughput of *identical* runs spreads
8-46%.

The benchmark therefore brackets every timed slice of work with two short
fixed kernels — one arithmetic-bound, one memory-bound — and scales the
slice's wall time by how much slower than the reference each kernel ran
just then, mixed by the workload's ``memory_weight`` (0 = tracks the
arithmetic kernel only; each workload's weight is the one that minimised
the spread of ten same-seed runs — see bench/README.md).  The result is
"how long the slice would have taken at reference speed".  A change to
the program moves a slice's wall time and not the kernels, so ratios
between commits are preserved; what cancels is the machine's own drift.  Raw (unscaled) seconds are kept
beside the scaled ones in every result file.
"""

from __future__ import annotations

import os
import random
import time
from typing import Callable, List, Optional, Tuple

#: Passes per kernel per calibration; the median pass is the reading.
PASSES = 3
ARITHMETIC_ITERATIONS = 40_000
TABLE_SIZE = 100_000
MEMORY_READS = 18_000
#: The readings that define "reference speed": the kernels' median pass on
#: the seed commit's box in a quiet minute.  Any constants would do — they
#: fix the unit, not the comparison.
REFERENCE_ARITHMETIC_S = 0.0019
REFERENCE_MEMORY_S = 0.0019

#: The cores this process could run on when the module was imported — read
#: before anything is pinned, because a pinned process only sees its own.
_CORES = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

_table: Optional[List[Tuple[int, int]]] = None
_order: List[int] = []


def _arithmetic_pass() -> float:
    started = time.perf_counter()
    total = 0
    for index in range(ARITHMETIC_ITERATIONS):
        total += index * index % 7
    return time.perf_counter() - started


def _memory_pass() -> float:
    table = _table
    started = time.perf_counter()
    total = 0
    for position in _order:
        total += table[position][0]
    return time.perf_counter() - started


def calibrate() -> Tuple[float, float]:
    """(arithmetic, memory) kernel seconds right now, each a median of a few."""
    global _table, _order
    if _table is None:
        rng = random.Random(0)
        _table = [(index, index) for index in range(TABLE_SIZE)]
        _order = [rng.randrange(TABLE_SIZE) for _ in range(MEMORY_READS)]
    arithmetic = sorted(_arithmetic_pass() for _ in range(PASSES))[PASSES // 2]
    memory = sorted(_memory_pass() for _ in range(PASSES))[PASSES // 2]
    return arithmetic, memory


class Meter:
    """Accumulates timed slices in raw and in reference-speed seconds.

    ``with meter: work()`` times one slice; the calibration taken at its
    end also opens the next slice, so back-to-back slices cost one
    calibration each.  After the block ``meter.factor`` is that slice's
    speed factor and ``meter.last_s`` its scaled duration.
    """

    def __init__(
        self,
        memory_weight: float = 0.5,
        calibrate: Callable[[], Tuple[float, float]] = calibrate,
    ) -> None:
        self.memory_weight = memory_weight
        self._calibrate = calibrate
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.factor = 1.0
        self.last_s = 0.0
        #: Per slice: (raw seconds, arithmetic reading, memory reading).
        self.slices: List[Tuple[float, float, float]] = []
        self._opening = self._calibrate()
        self._started = 0.0

    def __enter__(self) -> "Meter":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._started
        closing = self._calibrate()
        arithmetic = (self._opening[0] + closing[0]) / 2
        memory = (self._opening[1] + closing[1]) / 2
        self._opening = closing
        self.factor = speed_factor(arithmetic, memory, self.memory_weight)
        self.last_s = elapsed * self.factor
        self.raw_s += elapsed
        self.ref_s += self.last_s
        self.slices.append((elapsed, arithmetic, memory))

    def refresh(self) -> None:
        """Retake the opening reading after untimed work between slices."""
        self._opening = self._calibrate()


def speed_factor(arithmetic: float, memory: float, memory_weight: float) -> float:
    """Reference time over observed time: the two kernels' slow-downs mixed
    as a weighted geometric mean."""
    return (REFERENCE_ARITHMETIC_S / arithmetic) ** (1.0 - memory_weight) * (
        REFERENCE_MEMORY_S / memory
    ) ** memory_weight


def pin(pid: int, nth: int) -> None:
    """Pin process ``pid`` to the ``nth`` core this process may run on.

    A process that migrates between the two cores sees both cores' drift
    and the migration cost; pinned, the calibration kernels and the work
    they bracket run on the same core.  A no-op where the platform has no
    affinity call or only one core is available.
    """
    if len(_CORES) > 1:
        os.sched_setaffinity(pid, {_CORES[nth % len(_CORES)]})
