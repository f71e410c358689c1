"""Unit tests of the benchmark's own machinery (no child processes)."""

import re

import pytest

from bench import compare, gen, loadgen, stats
from bench.model import SetModel
from bench.trace import Tracer


# -- stats -----------------------------------------------------------------


def test_percentile_refuses_a_tail_it_cannot_support():
    values = list(range(199))
    with pytest.raises(ValueError, match="samples beyond"):
        stats.percentile(values, 95)  # 9.95 samples beyond p95
    assert stats.percentile(list(range(200)), 95) == 190
    with pytest.raises(ValueError):
        stats.percentile(list(range(999)), 99)
    assert stats.percentile(list(range(1000)), 99) == 990


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread([5.0] * 10) == 0.0


# -- load generator ----------------------------------------------------------


def test_open_loop_times_each_request_from_when_it_was_due():
    """A 50 ms stall must show in the latency of the requests queued behind
    it, not just in the stalled request's own service time."""
    import time

    def send(request):
        if request == 2:
            time.sleep(0.05)
        return 200, {}

    samples, _ = loadgen.open_loop(send, list(range(10)), rate=200.0, connections=1)
    # Requests 3..9 were due 5 ms apart while request 2 was still stalled.
    assert samples[3].latency_ms >= 40.0
    assert samples[4].latency_ms >= 35.0
    assert samples[3].late_ms >= 40.0
    # Service time alone would have hidden it.
    assert (samples[3].end - samples[3].start) * 1000.0 < 10.0
    assert samples[1].latency_ms < 10.0


def test_load_generator_refuses_more_than_two_connections():
    with pytest.raises(ValueError, match="at most 2"):
        loadgen.closed_loop(lambda request: (200, {}), [1, 2, 3], connections=3)


def test_closed_loop_issues_every_request_once_in_order():
    seen = []
    samples, wall = loadgen.closed_loop(
        lambda request: (seen.append(request), (200, {"r": request}))[1], list(range(50)),
        connections=2,
    )
    assert sorted(seen) == list(range(50))
    assert [sample.index for sample in samples] == list(range(50))
    assert all(sample.body == {"r": sample.index} for sample in samples)
    assert wall > 0


# -- generators --------------------------------------------------------------


def test_graph_spec_is_exact_and_seeded():
    first = gen.graph_spec(5, 300, 3000)
    again = gen.graph_spec(5, 300, 3000)
    other = gen.graph_spec(6, 300, 3000)
    assert first == again
    assert first.rows != other.rows
    assert len(first.rows) == len(set(first.rows)) == 3000
    assert len(first.entities) == 300
    assert len(first.provenance) > len(first.rows)  # some carry two records


def test_plans_and_op_streams_are_seeded():
    spec = gen.graph_spec(5, 300, 3000)
    from bench.workloads.serving import vocabulary

    vocab = vocabulary(spec, 100, 5)
    assert gen.request_plan(vocab, 200, 5) == gen.request_plan(vocab, 200, 5)
    assert gen.request_plan(vocab, 200, 5) != gen.request_plan(vocab, 200, 6)
    distinct = gen.request_plan(vocab, 300, 5, distinct=True)
    assert len({repr(request) for request in distinct}) == 300
    assert gen.mutate_ops(spec, 500, 5) == gen.mutate_ops(spec, 500, 5)
    assert gen.mutate_ops(spec, 500, 5) != gen.mutate_ops(spec, 500, 6)
    kinds = {op[0] for op in gen.mutate_ops(spec, 2000, 5)}
    assert kinds == set(gen.MUTATE_MIX)


def test_production_kwargs_drops_keywords_the_callable_lost():
    def today(ontology=None, name="kg", backend="dict"):
        return backend

    def after_the_dict_backend_is_deleted(ontology=None, name="kg"):
        return name

    assert gen.production_kwargs(today, backend="columnar") == {"backend": "columnar"}
    assert gen.production_kwargs(after_the_dict_backend_is_deleted, backend="columnar") == {}
    assert getattr(gen.new_graph(), "backend", "columnar") == "columnar"


def test_gen_does_not_import_evalx():
    import sys

    from bench.workloads import registry

    registry()  # imports every workload module
    assert not [name for name in sys.modules if name.startswith("repro.evalx")]


# -- model ---------------------------------------------------------------------


def test_set_model_merge_rewrites_both_ends():
    rows = [("a", "r", "b"), ("b", "r", "b"), ("c", "r", "b"), ("b", "x", 1)]
    model = SetModel(["a", "b", "c"], rows)
    model.merge("a", "b")
    assert model.rows == {("a", "r", "a"), ("c", "r", "a"), ("a", "x", 1)}
    assert model.entities == {"a", "c"}
    assert model.add("a", "x", 1) is False
    assert model.remove("a", "x", 1) is True
    assert model.remove("a", "x", 1) is False


# -- tracer --------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer(enabled=True)
    tracer.spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a (two load-generator threads)
        ("leaf", 1.5, 2.0, 1),
    ]
    assert tracer.self_times() == pytest.approx([5.0, 2.5, 3.0, 0.5])
    assert tracer.total("a") == pytest.approx(3.0)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x"):
        tracer.record("y", 0.0, 1.0)
    assert tracer.spans == []


# -- compare -------------------------------------------------------------------


@pytest.mark.parametrize(
    "base, other, better, expected",
    [
        ([100, 101, 102], [100, 102, 103], "higher", "same"),
        ([100, 101, 102], [120, 121, 125], "higher", "better"),
        ([100, 101, 102], [80, 81, 82], "higher", "worse"),
        ([100, 101, 102], [60, 85, 101], "higher", "unresolved"),  # worse median, runs interleave
        ([10, 10.1, 10.2], [12, 12.1, 12.2], "lower", "worse"),
        ([10, 14, 18, 22], [11, 15, 17, 23], "lower", "unresolved"),  # spread wider than bound
    ],
)
def test_verdicts(base, other, better, expected):
    assert compare.verdict(base, other, better, 0.10) == expected


def test_failed_share_worsens_on_any_increase():
    assert compare.verdict([0.0, 0.0], [0.0, 0.0], "lower", None) == "same"
    assert compare.verdict([0.0, 0.0], [0.001, 0.001], "lower", None) == "worse"


def test_derived_bounds_are_twice_the_spread_and_capped():
    rows = [
        {"metric": "ops_per_s", "bound": 0.10, "spread": 0.02},
        {"metric": "ops_per_s", "bound": 0.10, "spread": 0.08},
        {"metric": "p95_ms", "bound": 0.15, "spread": 0.30},
        {"metric": "failed_share", "bound": None, "spread": 0.0},
    ]
    assert compare.derived_bounds(rows) == {"ops_per_s": 0.16, "p95_ms": 0.25}


def test_metric_name_shape():
    from bench import metrics

    spec = metrics.load_spec()
    names = [metric["name"] for metric in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert "setup_s" in names


def test_sliced_percentiles_ignore_a_burst_in_one_slice():
    from bench.run import latency_percentiles

    calm = [1.0 + (index % 100) / 100 for index in range(800)]
    burst = [value + 5.0 if index % 10 == 0 else value for index, value in enumerate(calm)]
    latencies = calm * 4 + burst
    pooled = latency_percentiles(latencies, 1)
    sliced = latency_percentiles(latencies, 5)
    assert sliced[1] == pytest.approx(stats.percentile(calm, 95))
    assert pooled[1] > sliced[1]
    # Slices too small for a p95 fall back to the pooled percentiles.
    assert latency_percentiles(latencies[:500], 5) == latency_percentiles(latencies[:500], 1)
