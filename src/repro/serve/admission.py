"""Admission control: rate limiting, bounded queues, degradation.

A serving system dies two ways under overload: it queues without bound
(latency collapse) or it errors without discrimination (availability
collapse).  This module implements a third option, the *degradation
ladder* — keep answering, shedding the expensive work first:

* **level 0 (normal)** — full service, ``ask`` may take the LM path;
* **level 1 (lm_shed)** — the token bucket is draining faster than it
  refills; ``ask`` sheds its LM/RAG path and answers from triples only
  (the cheap, grounded path — exactly the Sec. 4 head/tail routing
  argument run in reverse: under pressure, *everything* routes to the KG);
* **level 2 (stale)** — the bucket is empty; requests are served from
  the stale cache tier when possible, and computed KG-only otherwise;
* **reject** — the bounded concurrency queue is full; the request is
  refused up front (a 429-equivalent, never a 5xx) so waiting work
  cannot pile up behind a saturated worker pool.

All counters land in the ``serve.admission.*`` / ``serve.shed.*``
metrics, which is how the loadgen harness and ``repro report`` make the
ladder visible.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs import metrics as obs_metrics
from repro.serve import context as serve_context

#: Ladder levels (ordered: higher sheds more).
LEVEL_NORMAL = 0
LEVEL_LM_SHED = 1
LEVEL_STALE = 2

LEVEL_NAMES = {LEVEL_NORMAL: "normal", LEVEL_LM_SHED: "lm_shed", LEVEL_STALE: "stale"}


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/s refill, ``capacity`` burst.

    ``try_acquire`` never blocks — admission control must answer *now* —
    and ``fill_fraction`` exposes how close to saturation the bucket is,
    which is what picks the degradation level.  Thread-safe.
    """

    def __init__(self, rate: float, capacity: Optional[float] = None):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.capacity = float(capacity) if capacity is not None else float(rate)
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        self._lock = threading.Lock()
        self._tokens = self.capacity
        self._last_refill = time.monotonic()

    def _refill_locked(self) -> None:
        now = time.monotonic()
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
            self._last_refill = now

    def try_acquire(self, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; False (no wait) otherwise."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= n:
                self._tokens -= n
                return True
            return False

    def fill_fraction(self) -> float:
        """Current tokens as a fraction of capacity, in [0, 1]."""
        with self._lock:
            self._refill_locked()
            return self._tokens / self.capacity


@dataclass(frozen=True)
class AdmissionDecision:
    """What the controller decided for one request."""

    admitted: bool
    level: int
    reason: str

    @property
    def level_name(self) -> str:
        return LEVEL_NAMES.get(self.level, str(self.level))

    @property
    def shed_lm(self) -> bool:
        """Whether the LM path must be shed at this level."""
        return self.level >= LEVEL_LM_SHED

    @property
    def prefer_stale(self) -> bool:
        """Whether stale-cache serving is preferred at this level."""
        return self.level >= LEVEL_STALE


class AdmissionController:
    """Token bucket + bounded concurrency + the degradation ladder.

    ``admit()`` must be paired with ``release()`` (the router does this in
    a ``finally``) so the concurrency slots actually bound in-flight work.
    """

    def __init__(
        self,
        rate: float = 500.0,
        burst: Optional[float] = None,
        max_concurrent: int = 64,
        lm_shed_fill: float = 0.5,
        stale_fill: float = 0.15,
    ):
        if not 0.0 <= stale_fill <= lm_shed_fill <= 1.0:
            raise ValueError(
                f"need 0 <= stale_fill <= lm_shed_fill <= 1, "
                f"got stale_fill={stale_fill}, lm_shed_fill={lm_shed_fill}"
            )
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        self.bucket = TokenBucket(rate=rate, capacity=burst)
        self.max_concurrent = max_concurrent
        self.lm_shed_fill = lm_shed_fill
        self.stale_fill = stale_fill
        self._slots = threading.Semaphore(max_concurrent)
        self._lock = threading.Lock()
        self._in_flight = 0
        self._rejected = 0
        self._degraded: Dict[int, int] = {LEVEL_LM_SHED: 0, LEVEL_STALE: 0}

    # ------------------------------------------------------------------

    def admit(self, route: str) -> AdmissionDecision:
        """Decide for one request; pair with :meth:`release` when admitted.

        The queue bound is checked first (a full pool rejects regardless
        of tokens), then the bucket's fill picks the ladder level.  An
        empty bucket still *admits* — at level 2 — because shedding to
        stale answers is the whole point of the ladder; only queue
        exhaustion refuses outright.
        """
        if not self._slots.acquire(blocking=False):
            with self._lock:
                self._rejected += 1
            obs_metrics.count("serve.admission.rejected")
            obs_metrics.count(f"serve.route.{route}.rejected")
            serve_context.tag_request("admission.level", "rejected")
            serve_context.tag_request("admission.reason", "queue_full")
            return AdmissionDecision(admitted=False, level=LEVEL_STALE, reason="queue_full")
        with self._lock:
            self._in_flight += 1
            in_flight = self._in_flight
        obs_metrics.gauge("serve.admission.in_flight", in_flight)

        has_token = self.bucket.try_acquire()
        fill = self.bucket.fill_fraction()
        if not has_token or fill < self.stale_fill:
            level, reason = LEVEL_STALE, ("no_tokens" if not has_token else "bucket_low")
        elif fill < self.lm_shed_fill:
            level, reason = LEVEL_LM_SHED, "bucket_draining"
        else:
            level, reason = LEVEL_NORMAL, "ok"
        if level > LEVEL_NORMAL:
            with self._lock:
                self._degraded[level] = self._degraded.get(level, 0) + 1
            obs_metrics.count(f"serve.admission.degraded.{LEVEL_NAMES[level]}")
        obs_metrics.count("serve.admission.admitted")
        serve_context.tag_request("admission.level", LEVEL_NAMES[level])
        serve_context.tag_request("admission.reason", reason)
        return AdmissionDecision(admitted=True, level=level, reason=reason)

    def release(self) -> None:
        """Return the concurrency slot taken by an admitted request."""
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)
            in_flight = self._in_flight
        self._slots.release()
        obs_metrics.gauge("serve.admission.in_flight", in_flight)

    def current_level(self) -> str:
        """The ladder level the *next* request would be admitted at.

        Read-only (no token is consumed): ``/statusz`` polls this to show
        the live degradation level without perturbing admission.
        """
        fill = self.bucket.fill_fraction()
        if fill < self.stale_fill:
            return LEVEL_NAMES[LEVEL_STALE]
        if fill < self.lm_shed_fill:
            return LEVEL_NAMES[LEVEL_LM_SHED]
        return LEVEL_NAMES[LEVEL_NORMAL]

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Counters for ``/stats`` and tests."""
        with self._lock:
            return {
                "in_flight": self._in_flight,
                "max_concurrent": self.max_concurrent,
                "rejected": self._rejected,
                "degraded_lm_shed": self._degraded.get(LEVEL_LM_SHED, 0),
                "degraded_stale": self._degraded.get(LEVEL_STALE, 0),
                "bucket_fill": round(self.bucket.fill_fraction(), 4),
            }
