"""Tests for the observability layer: tracing, metrics, profiling."""

import json
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    count,
    current_span,
    disable,
    enable,
    enabled,
    enabled_scope,
    gauge,
    get_registry,
    get_tracer,
    observe,
    profile_block,
    profiled,
    span,
)
from repro.obs.metrics import Histogram
from repro.obs.tracing import NULL_SPAN


@pytest.fixture
def obs_on():
    """Enable observability with a clean tracer/registry; restore after."""
    with enabled_scope():
        yield


class TestSpans:
    def test_disabled_span_is_null_and_records_nothing(self):
        assert not enabled()
        get_tracer().reset()
        with span("anything") as opened:
            assert opened is NULL_SPAN
            opened.set_tag("k", "v")  # discarded, no error
        assert get_tracer().spans() == []

    def test_nesting_links_parent_and_trace(self, obs_on):
        with span("outer") as outer:
            with span("inner") as inner:
                assert current_span() is inner
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
            assert current_span() is outer
        assert current_span() is None
        finished = get_tracer().spans()
        assert [s.name for s in finished] == ["inner", "outer"]

    def test_sibling_roots_get_distinct_traces(self, obs_on):
        with span("first"):
            pass
        with span("second"):
            pass
        first, second = get_tracer().spans()
        assert first.trace_id != second.trace_id
        assert first.parent_id is None and second.parent_id is None

    def test_span_times_and_tags(self, obs_on):
        with span("work", site="imdb") as opened:
            opened.set_tag("rows", 7)
        (finished,) = get_tracer().spans()
        assert finished.wall_seconds >= 0.0
        assert finished.cpu_seconds >= 0.0
        assert finished.tags == {"site": "imdb", "rows": 7}

    def test_exception_tags_error_and_propagates(self, obs_on):
        with pytest.raises(ValueError):
            with span("failing"):
                raise ValueError("boom")
        (finished,) = get_tracer().spans()
        assert finished.tags["error"] == "ValueError: boom"
        assert current_span() is None

    def test_export_jsonl_round_trips(self, obs_on):
        with span("outer"):
            with span("inner"):
                pass
        records = [json.loads(line) for line in get_tracer().export_jsonl().splitlines()]
        assert len(records) == 2
        by_name = {record["name"]: record for record in records}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert all(record["kind"] == "span" for record in records)

    def test_write_jsonl(self, obs_on, tmp_path):
        with span("only"):
            pass
        path = tmp_path / "trace.jsonl"
        assert get_tracer().write_jsonl(str(path)) == 1
        assert json.loads(path.read_text().strip())["name"] == "only"

    def test_reset_drops_finished_spans(self, obs_on):
        with span("gone"):
            pass
        get_tracer().reset()
        assert get_tracer().spans() == []

    def test_prefix_filter(self, obs_on):
        with span("stage.one"):
            pass
        with span("other"):
            pass
        assert [s.name for s in get_tracer().spans("stage.")] == ["stage.one"]


class TestHistogram:
    def test_percentiles_interpolate(self):
        histogram = Histogram("h", buckets=[float(i) for i in range(1, 101)])
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.percentile(0.50) == pytest.approx(50.0)
        assert histogram.percentile(0.95) == pytest.approx(95.0)
        assert histogram.percentile(0.99) == pytest.approx(99.0)

    def test_summary_tracks_exact_extremes(self):
        histogram = Histogram("h", buckets=[1.0, 10.0])
        for value in (0.5, 2.0, 500.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["min"] == 0.5
        assert summary["max"] == 500.0
        assert summary["sum"] == pytest.approx(502.5)

    def test_overflow_percentile_clamped_to_max(self):
        histogram = Histogram("h", buckets=[1.0])
        histogram.observe(42.0)
        assert histogram.percentile(0.99) == 42.0

    def test_empty_summary_is_zeros(self):
        assert Histogram("h").summary()["count"] == 0
        assert Histogram("h").percentile(0.5) == 0.0

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(1.5)

    def test_empty_histogram_never_raises(self):
        histogram = Histogram("h")
        assert histogram.percentile(0.99) == 0.0
        summary = histogram.summary()
        assert summary["min"] == 0.0 and summary["max"] == 0.0

    def test_state_zeroes_empty_extremes(self):
        state = Histogram("h", buckets=[1.0]).state()
        assert state["count"] == 0
        assert state["min"] == 0.0 and state["max"] == 0.0
        assert state["bucket_counts"] == [0, 0]

    def test_state_buckets_sum_to_count(self):
        histogram = Histogram("h", buckets=[1.0, 10.0])
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        state = histogram.state()
        assert sum(state["bucket_counts"]) == state["count"] == 3

    def test_single_sample_percentiles_collapse_to_value(self):
        histogram = Histogram("h", buckets=[1.0, 10.0, 100.0])
        histogram.observe(7.0)
        for quantile in (0.01, 0.5, 0.95, 0.99):
            assert histogram.percentile(quantile) == 7.0
        summary = histogram.summary()
        assert summary["min"] == summary["max"] == 7.0
        assert summary["count"] == 1


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2)
        assert registry.snapshot()["counters"]["c"] == 3.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        registry.gauge("g").set(5.0)
        assert registry.snapshot()["gauges"]["g"] == 5.0

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_snapshot_is_plain_and_detached(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(0.01)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # plain data, serializable
        registry.counter("c").inc(10)
        assert snapshot["counters"]["c"] == 1.0  # detached from live state

    def test_reset_isolates_between_tests(self):
        registry = MetricsRegistry()
        registry.counter("leak").inc(99)
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}
        assert snapshot["histograms"] == {}

    def test_global_helpers_gated_by_enablement(self):
        get_registry().reset()
        assert not enabled()
        count("nope")
        gauge("nope2", 1.0)
        observe("nope3", 0.5)
        assert get_registry().snapshot()["counters"] == {}
        with enabled_scope():
            count("yes", 2)
            gauge("depth", 4)
            observe("latency", 0.25)
            snapshot = get_registry().snapshot()
            assert snapshot["counters"]["yes"] == 2.0
            assert snapshot["gauges"]["depth"] == 4.0
            assert snapshot["histograms"]["latency"]["count"] == 1

    def test_thread_safety_of_counter(self):
        registry = MetricsRegistry()

        def hammer():
            counter = registry.counter("hits")
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # The lock guards instrument creation; concurrent inc on one
        # counter may lose updates but must never corrupt the registry.
        assert 0 < registry.snapshot()["counters"]["hits"] <= 4000


class TestProfiling:
    def test_enable_disable_roundtrip(self):
        assert not enabled()
        enable()
        try:
            assert enabled()
        finally:
            disable()
        assert not enabled()

    def test_profiled_disabled_is_passthrough(self):
        calls = []

        @profiled("unit.work")
        def work(x):
            calls.append(x)
            return x * 2

        get_registry().reset()
        get_tracer().reset()
        assert work(3) == 6
        assert calls == [3]
        assert get_registry().snapshot()["counters"] == {}
        assert get_tracer().spans() == []

    def test_profiled_enabled_feeds_span_counter_histogram(self, obs_on):
        @profiled("unit.work", kind="test")
        def work():
            return "ok"

        assert work() == "ok"
        assert work() == "ok"
        (first, second) = get_tracer().spans()
        assert first.name == "unit.work" and first.tags["kind"] == "test"
        snapshot = get_registry().snapshot()
        assert snapshot["counters"]["unit.work.calls"] == 2.0
        assert snapshot["histograms"]["unit.work.seconds"]["count"] == 2

    def test_profiled_records_on_exception(self, obs_on):
        @profiled("unit.fail")
        def fail():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            fail()
        snapshot = get_registry().snapshot()
        assert snapshot["counters"]["unit.fail.calls"] == 1.0
        (finished,) = get_tracer().spans()
        assert "RuntimeError" in finished.tags["error"]

    def test_profile_block(self, obs_on):
        with profile_block("region.x"):
            pass
        assert get_registry().snapshot()["counters"]["region.x.calls"] == 1.0
        assert [s.name for s in get_tracer().spans()] == ["region.x"]

    def test_reset_all_clears_every_global(self):
        from repro.obs import reset_all
        from repro.obs.lineage import get_ledger
        from repro.obs.quality import snapshots

        with enabled_scope():
            count("some.counter")
            with span("some.span"):
                pass
            get_ledger().observation("s", "p", "o", source="src")
            reset_all()
            assert get_registry().snapshot()["counters"] == {}
            assert get_tracer().spans() == []
            assert len(get_ledger()) == 0
            assert snapshots() == []

    def test_enabled_scope_restores_and_clears(self):
        assert not enabled()
        with enabled_scope():
            assert enabled()
            count("inside")
            with span("inside"):
                pass
        assert not enabled()
        assert get_registry().snapshot()["counters"] == {}
        assert get_tracer().spans() == []
