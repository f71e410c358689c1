"""Admission control: the token bucket, the ladder, queue bounds."""

import time

import pytest

from repro.serve.admission import (
    LEVEL_LM_SHED,
    LEVEL_NORMAL,
    LEVEL_STALE,
    AdmissionController,
    TokenBucket,
)


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate=1000.0, capacity=3.0)
        assert bucket.fill_fraction() == pytest.approx(1.0, abs=0.01)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert bucket.try_acquire()

    def test_empty_bucket_refuses_without_blocking(self):
        bucket = TokenBucket(rate=0.001, capacity=1.0)
        assert bucket.try_acquire()
        started = time.monotonic()
        assert not bucket.try_acquire()
        assert time.monotonic() - started < 0.1  # non-blocking

    def test_refills_over_time(self):
        bucket = TokenBucket(rate=200.0, capacity=2.0)
        bucket.try_acquire(2.0)
        assert not bucket.try_acquire()
        time.sleep(0.05)  # ~10 tokens at rate 200, capped at capacity 2
        assert bucket.try_acquire()

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0)
        with pytest.raises(ValueError):
            TokenBucket(rate=10, capacity=-1)


class TestDegradationLadder:
    def test_full_bucket_is_normal(self):
        controller = AdmissionController(rate=10_000.0)
        decision = controller.admit("lookup")
        controller.release()
        assert decision.admitted and decision.level == LEVEL_NORMAL
        assert not decision.shed_lm and not decision.prefer_stale

    def test_draining_bucket_sheds_lm(self):
        controller = AdmissionController(
            rate=0.001, burst=100.0, lm_shed_fill=0.5, stale_fill=0.1
        )
        # Drain to between 10% and 50%.
        for _ in range(70):
            controller.bucket.try_acquire()
        decision = controller.admit("ask")
        controller.release()
        assert decision.admitted and decision.level == LEVEL_LM_SHED
        assert decision.shed_lm and not decision.prefer_stale

    def test_empty_bucket_admits_at_stale_level(self):
        """Empty bucket degrades to stale serving — it never refuses."""
        controller = AdmissionController(rate=0.001, burst=1.0)
        controller.bucket.try_acquire()
        decision = controller.admit("lookup")
        controller.release()
        assert decision.admitted and decision.level == LEVEL_STALE
        assert decision.shed_lm and decision.prefer_stale
        assert decision.reason == "no_tokens"

    def test_queue_full_rejects(self):
        controller = AdmissionController(rate=10_000.0, max_concurrent=2)
        first = controller.admit("lookup")
        second = controller.admit("lookup")
        third = controller.admit("lookup")
        assert first.admitted and second.admitted
        assert not third.admitted and third.reason == "queue_full"
        controller.release()
        controller.release()
        # Slots freed: admission works again.
        fourth = controller.admit("lookup")
        assert fourth.admitted
        controller.release()

    def test_stats_count_decisions(self):
        controller = AdmissionController(rate=0.001, burst=1.0, max_concurrent=1)
        controller.bucket.try_acquire()
        controller.admit("lookup")  # admitted, stale level
        rejected = controller.admit("lookup")  # queue full
        assert not rejected.admitted
        stats = controller.stats()
        assert stats["rejected"] == 1
        assert stats["degraded_stale"] == 1
        assert stats["in_flight"] == 1
        controller.release()
        assert controller.stats()["in_flight"] == 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(lm_shed_fill=0.2, stale_fill=0.5)
        with pytest.raises(ValueError):
            AdmissionController(max_concurrent=0)

    def test_level_names(self):
        controller = AdmissionController(rate=10_000.0)
        decision = controller.admit("lookup")
        controller.release()
        assert decision.level_name == "normal"
