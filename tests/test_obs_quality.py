"""Tests for quality snapshots and regression diffs (repro.obs.quality)."""

import pytest

from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.triple import Provenance, Triple
from repro.obs import enabled_scope
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.quality import (
    QualitySnapshot,
    RegressionThresholds,
    capture,
    record_snapshot,
    reset_snapshots,
    snapshots,
)


def _movie_graph(n_movies=3, year="1995"):
    ontology = Ontology()
    ontology.add_class("Movie")
    graph = KnowledgeGraph(ontology=ontology, name="movies")
    for index in range(n_movies):
        graph.add_entity(f"m{index}", f"Movie {index}", "Movie")
        graph.add_triple(
            Triple(f"m{index}", "release_year", year),
            Provenance(source="imdb", confidence=0.9),
        )
        graph.add_triple(
            Triple(f"m{index}", "genre", "crime"),
            Provenance(source="freebase", confidence=0.7),
        )
    return graph


def _product_graph():
    taxonomy = Ontology()
    taxonomy.add_class("Coffee")
    kg = KnowledgeGraph(ontology=taxonomy, name="products")
    kg.add_entity("p1", "Dark roast coffee", "Coffee")
    kg.add_triple(Triple("p1", "roast", "dark"), Provenance(source="catalog"))
    kg.add_triple(
        Triple("p1", "flavor", "chocolate"), Provenance(source="txtract", confidence=0.9)
    )
    return kg


class TestSnapshot:
    def test_entity_based_graph_counts(self):
        snapshot = QualitySnapshot.from_graph(_movie_graph())
        assert snapshot.name == "movies"
        assert snapshot.n_entities == 3
        assert snapshot.n_triples == 6
        assert snapshot.predicate_counts == {"release_year": 3, "genre": 3}
        assert snapshot.class_counts == {"Movie": 3}
        assert snapshot.source_counts == {"imdb": 3, "freebase": 3}
        assert snapshot.source_confidence["imdb"] == pytest.approx(0.9)

    def test_text_rich_graph_counts(self):
        snapshot = QualitySnapshot.from_graph(_product_graph())
        assert snapshot.n_entities == 1
        assert snapshot.n_triples == 2
        assert snapshot.predicate_counts == {"roast": 1, "flavor": 1}
        assert snapshot.source_counts == {"catalog": 1, "txtract": 1}

    def test_unsnapshotable_object_raises_type_error(self):
        with pytest.raises(TypeError):
            QualitySnapshot.from_graph(object())

    def test_gold_scoring_sets_coverage_and_accuracy(self):
        gold = [
            ("m0", "release_year", "1995"),  # present
            ("m0", "genre", "crime"),  # present
            ("m0", "runtime", "170"),  # absent entirely
            ("m1", "release_year", "1996"),  # graph has a wrong value
        ]
        snapshot = QualitySnapshot.from_graph(_movie_graph(), gold=gold)
        assert snapshot.coverage == pytest.approx(2 / 4)
        assert snapshot.accuracy == pytest.approx(2 / 3)

    def test_fusion_counters_folded_from_registry(self):
        registry = MetricsRegistry()
        registry.counter("fusion.accepted").inc(7)
        registry.counter("fusion.graphical.accepted").inc(3)
        registry.counter("fusion.rejected").inc(5)
        snapshot = QualitySnapshot.from_graph(_movie_graph(), registry=registry)
        assert snapshot.fusion_accepted == 10
        assert snapshot.fusion_rejected == 5
        assert snapshot.fusion_accept_rate == pytest.approx(10 / 15)

    def test_accept_rate_none_when_fusion_never_ran(self):
        snapshot = QualitySnapshot.from_graph(_movie_graph())
        assert snapshot.fusion_accept_rate is None
        assert "fusion_accept_rate" not in snapshot.scalar_metrics()

    def test_dict_round_trip(self):
        import json

        original = QualitySnapshot.from_graph(_movie_graph(), gold=[("m0", "genre", "crime")])
        record = original.to_dict()
        json.dumps(record)
        rebuilt = QualitySnapshot.from_dict(record)
        assert rebuilt.scalar_metrics() == original.scalar_metrics()

    def test_fold_into_sets_gauges(self):
        registry = MetricsRegistry()
        QualitySnapshot.from_graph(_movie_graph()).fold_into(registry)
        gauges = registry.snapshot()["gauges"]
        assert gauges["quality.movies.n_triples"] == 6.0
        assert gauges["quality.movies.n_entities"] == 3.0
        assert gauges["quality.movies.source_confidence.imdb"] == pytest.approx(0.9)


class TestDiff:
    def test_identical_snapshots_report_zero_regressions(self):
        current = QualitySnapshot.from_graph(_movie_graph())
        baseline = QualitySnapshot.from_graph(_movie_graph())
        diff = current.diff(baseline)
        assert not diff.has_regressions
        assert diff.rows(only_changed=True) == []

    def test_injected_regression_is_flagged(self):
        baseline = QualitySnapshot.from_graph(_movie_graph(n_movies=10))
        current = QualitySnapshot.from_graph(_movie_graph(n_movies=5))
        diff = current.diff(baseline)
        assert diff.has_regressions
        regressed = {delta.metric for delta in diff.regressions}
        assert "n_triples" in regressed
        assert "n_entities" in regressed

    def test_small_count_drop_within_tolerance_is_ok(self):
        baseline = QualitySnapshot(name="kg", n_triples=100, n_entities=50)
        current = QualitySnapshot(name="kg", n_triples=99, n_entities=50)
        assert not current.diff(baseline).has_regressions

    def test_accuracy_drop_uses_absolute_tolerance(self):
        baseline = QualitySnapshot(name="kg", accuracy=0.95)
        ok = QualitySnapshot(name="kg", accuracy=0.945)
        bad = QualitySnapshot(name="kg", accuracy=0.90)
        assert not ok.diff(baseline).has_regressions
        assert bad.diff(baseline).has_regressions

    def test_vanished_metric_is_a_regression(self):
        baseline = QualitySnapshot(name="kg", predicate_counts={"genre": 5})
        current = QualitySnapshot(name="kg")
        diff = current.diff(baseline)
        assert any(
            delta.metric == "predicate.genre" and delta.regression
            for delta in diff.deltas
        )

    def test_new_metric_is_not_a_regression(self):
        baseline = QualitySnapshot(name="kg")
        current = QualitySnapshot(name="kg", predicate_counts={"genre": 5})
        assert not current.diff(baseline).has_regressions

    def test_improvement_is_never_a_regression(self):
        baseline = QualitySnapshot(name="kg", n_triples=10, accuracy=0.5)
        current = QualitySnapshot(name="kg", n_triples=20, accuracy=0.9)
        assert not current.diff(baseline).has_regressions

    def test_custom_thresholds(self):
        baseline = QualitySnapshot(name="kg", n_triples=100)
        current = QualitySnapshot(name="kg", n_triples=90)
        assert current.diff(baseline).has_regressions
        lax = RegressionThresholds(relative_tolerance=0.2)
        assert not current.diff(baseline, lax).has_regressions

    def test_diff_serializes(self):
        import json

        baseline = QualitySnapshot.from_graph(_movie_graph(n_movies=4))
        current = QualitySnapshot.from_graph(_movie_graph(n_movies=2))
        record = current.diff(baseline).to_dict()
        json.dumps(record)
        assert record["n_regressions"] > 0


class TestGlobalHolder:
    def test_record_is_gated_on_enablement(self):
        reset_snapshots()
        record_snapshot(QualitySnapshot(name="ignored"))
        assert snapshots() == []
        with enabled_scope():
            record_snapshot(QualitySnapshot(name="kept"))
            assert [s.name for s in snapshots()] == ["kept"]
        assert snapshots() == []  # enabled_scope resets on exit

    def test_capture_folds_records_and_returns(self):
        with enabled_scope():
            snapshot = capture(_movie_graph(), name="captured")
            assert snapshot.name == "captured"
            assert [s.name for s in snapshots()] == ["captured"]
            gauges = get_registry().snapshot()["gauges"]
            assert gauges["quality.captured.n_triples"] == 6.0
