"""The load generator: plans, both loops, report summaries, overload."""

import pytest

from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.evalx import loadgen
from repro.evalx.loadgen import (
    LoadgenReport,
    RequestOutcome,
    build_request_plan,
    run_loadgen,
)
from repro.obs import profiling
from repro.serve.admission import AdmissionController
from repro.serve.server import InProcessClient
from repro.serve.service import KGService


def make_client(admission=None):
    ontology = Ontology()
    ontology.add_class("Thing")
    graph = KnowledgeGraph(ontology=ontology, name="lg")
    for index in range(20):
        graph.add_entity(f"e{index}", f"Node {index}", "Thing")
        graph.add(f"e{index}", "label", f"value-{index % 5}")
    for index in range(19):
        graph.add(f"e{index}", "next_to", f"e{index + 1}")
    service = KGService(admission=admission)
    service.publish(graph)
    return InProcessClient(service)


SAMPLE = [
    {"entity_id": f"e{i}", "name": f"Node {i}", "class": "Thing", "predicates": ["label"]}
    for i in range(10)
]


class TestRequestPlan:
    def test_deterministic_for_same_seed(self):
        first = build_request_plan(SAMPLE, n_requests=50, seed=9)
        second = build_request_plan(SAMPLE, n_requests=50, seed=9)
        assert first == second

    def test_different_seeds_differ(self):
        assert build_request_plan(SAMPLE, 50, seed=1) != build_request_plan(
            SAMPLE, 50, seed=2
        )

    def test_respects_mix(self):
        plan = build_request_plan(SAMPLE, 80, mix={"lookup": 1.0}, seed=3)
        assert {planned.route for planned in plan} == {"lookup"}

    def test_covers_all_routes_by_default(self):
        plan = build_request_plan(SAMPLE, 200, seed=4)
        assert {planned.route for planned in plan} == {"lookup", "query", "paths", "ask"}

    def test_rejects_empty_vocabulary(self):
        with pytest.raises(ValueError):
            build_request_plan([{"entity_id": "e0", "name": "n", "predicates": []}], 10)

    def test_rejects_zero_weight_mix(self):
        with pytest.raises(ValueError):
            build_request_plan(SAMPLE, 10, mix={"lookup": 0.0})


class TestLoops:
    def test_closed_loop_collects_outcomes(self):
        report = run_loadgen(
            make_client(), duration_s=0.5, mode="closed", concurrency=2
        )
        assert report.n_requests > 0
        assert report.throughput_rps > 0
        assert report.mode == "closed"
        assert report.n_server_errors == 0

    def test_open_loop_tracks_target_rate(self):
        report = run_loadgen(
            make_client(), duration_s=1.0, mode="open", rps=40.0, concurrency=4
        )
        assert report.mode == "open"
        assert report.target_rps == 40.0
        # Scheduled arrivals: ~40 requests in ~1s, generous tolerance.
        assert 20 <= report.n_requests <= 60

    def test_uses_stats_entity_sample_by_default(self):
        report = run_loadgen(make_client(), duration_s=0.3, concurrency=1)
        assert report.n_requests > 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            run_loadgen(make_client(), duration_s=0.1, mode="sideways")
        with pytest.raises(ValueError):
            run_loadgen(make_client(), duration_s=0)


class TestOverloadLadder:
    def test_sustained_overload_degrades_with_zero_5xx(self):
        """The acceptance gate: overload -> shed/stale, never a 5xx."""
        admission = AdmissionController(rate=50.0, burst=20.0, max_concurrent=4)
        client = make_client(admission=admission)
        report = run_loadgen(client, duration_s=1.0, mode="closed", concurrency=8)
        # Far more attempts than 50 tokens/s: the ladder must engage...
        assert report.n_requests > 200
        assert report.degraded_counts(), "expected degraded serving under overload"
        # ...and absolutely nothing may 5xx.
        assert report.n_server_errors == 0
        statuses = set(report.status_counts())
        assert statuses <= {"200", "429"}


class TestReport:
    def make_report(self):
        report = LoadgenReport(
            mode="closed", duration_s=2.0, target_rps=None, concurrency=2
        )
        for index in range(10):
            report.outcomes.append(
                RequestOutcome(
                    route="lookup" if index % 2 else "ask",
                    status_code=200,
                    latency_ms=float(index + 1),
                )
            )
        report.outcomes.append(
            RequestOutcome(route="ask", status_code=429, latency_ms=0.5, degraded="rejected")
        )
        return report

    def test_latency_summary(self):
        summary = self.make_report().latency_summary()
        assert summary["n"] == 11
        assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]

    def test_status_and_degraded_counts(self):
        report = self.make_report()
        assert report.status_counts() == {"200": 10, "429": 1}
        assert report.degraded_counts() == {"rejected": 1}

    def test_server_error_count(self):
        report = self.make_report()
        report.outcomes.append(
            RequestOutcome(route="lookup", status_code=500, latency_ms=1.0)
        )
        assert report.n_server_errors == 1


class TestObsCompareOrder:
    def test_first_label_alternates_by_round(self, monkeypatch):
        """Neither label always runs first: round 0 is off/on, round 1
        on/off, and so on; the gate's trimming and pooling are unchanged."""
        order = []

        def fake_run_loadgen(client, **_kwargs):
            order.append("on" if profiling.enabled() else "off")
            report = LoadgenReport(
                mode="closed", duration_s=0.1, target_rps=None, concurrency=1
            )
            report.outcomes.append(RequestOutcome(route="lookup", status_code=200, latency_ms=1.0))
            return report

        monkeypatch.setattr(loadgen, "run_loadgen", fake_run_loadgen)
        result = loadgen.measure_obs_overhead(
            lambda: make_client().service, rounds=4, transport="inprocess"
        )
        assert order == ["off", "on", "on", "off", "off", "on", "on", "off"]
        assert result["round_overheads"] == [0.0] * 4 and result["passed"]
