"""The load generator: one closed-loop and one open-loop driver.

Both drive a ``send(request) -> (status, body)`` callable from at most
:data:`MAX_CONNECTIONS` threads (the box has two cores; the system under
test needs one).  The open loop sends on a fixed schedule whether or not
the system keeps up and times each request **from when it was due**, so a
stall shows up in the latency of the requests queued behind it instead of
silently slowing the generator (coordinated omission).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

MAX_CONNECTIONS = 2

Send = Callable[[object], Tuple[int, dict]]


@dataclass
class Sample:
    """One issued request: what was sent, when, and what came back."""

    index: int  # position in the issued sequence
    due: float  # scheduled send time (== start for closed loops)
    start: float
    end: float
    status: int
    body: dict
    #: Machine-speed factor of the slice this request ran in (bench.calib).
    scale: float = 1.0

    @property
    def latency_ms(self) -> float:
        """From due time to reply, in reference-speed milliseconds."""
        return (self.end - self.due) * 1000.0 * self.scale

    @property
    def late_ms(self) -> float:
        return (self.start - self.due) * 1000.0


def _run_threads(workers: Sequence[Callable[[], List[Sample]]]) -> List[Sample]:
    if len(workers) > MAX_CONNECTIONS:
        raise ValueError(f"at most {MAX_CONNECTIONS} connections, got {len(workers)}")
    results: List[List[Sample]] = [[] for _ in workers]
    errors: List[BaseException] = []

    def body(slot: int) -> None:
        try:
            results[slot] = workers[slot]()
        except BaseException as error:  # re-raised on the caller's thread
            errors.append(error)

    threads = [threading.Thread(target=body, args=(slot,)) for slot in range(len(workers))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    samples = [sample for chunk in results for sample in chunk]
    samples.sort(key=lambda sample: sample.index)
    return samples


def closed_loop(
    send: Send,
    requests: Sequence[object],
    connections: int = 1,
    first_index: int = 0,
    clock=time.perf_counter,
) -> Tuple[List[Sample], float]:
    """Each connection sends its next request when the previous one returns.

    Request ``i`` goes to connection ``i % connections``.  Returns the
    samples (indexed from ``first_index``, for plans issued in slices) and
    the wall time from first send to last reply.
    """

    def worker(slot: int) -> Callable[[], List[Sample]]:
        def run() -> List[Sample]:
            samples = []
            for index in range(slot, len(requests), connections):
                start = clock()
                status, body = send(requests[index])
                samples.append(Sample(first_index + index, start, start, clock(), status, body))
            return samples

        return run

    started = clock()
    if connections == 1:
        samples = worker(0)()
    else:
        samples = _run_threads([worker(slot) for slot in range(connections)])
    return samples, clock() - started


def open_loop(
    send: Send,
    requests: Sequence[object],
    rate: float,
    connections: int = MAX_CONNECTIONS,
    first_index: int = 0,
    clock=time.perf_counter,
    sleep=time.sleep,
) -> Tuple[List[Sample], float]:
    """Request ``i`` is due at ``start + i / rate`` regardless of replies.

    Connection ``c`` owns requests ``c, c + connections, ...``; it sleeps
    until the next one is due, or sends immediately when already late.
    """
    origin = clock() + 0.05  # let every thread reach its first wait

    def worker(slot: int) -> Callable[[], List[Sample]]:
        def run() -> List[Sample]:
            samples = []
            for index in range(slot, len(requests), connections):
                due = origin + index / rate
                wait = due - clock()
                if wait > 0:
                    sleep(wait)
                start = clock()
                status, body = send(requests[index])
                samples.append(Sample(first_index + index, due, start, clock(), status, body))
            return samples

        return run

    if connections == 1:
        samples = worker(0)()
    else:
        samples = _run_threads([worker(slot) for slot in range(connections)])
    return samples, clock() - origin


def waits(samples: Sequence[Sample], connections: int) -> List[Tuple[float, float]]:
    """The intervals each connection spent waiting for its next due time."""
    gaps = []
    last_end = {}
    for sample in samples:
        slot = sample.index % connections
        if slot in last_end and sample.start > last_end[slot]:
            gaps.append((last_end[slot], sample.start))
        last_end[slot] = sample.end
    return gaps
