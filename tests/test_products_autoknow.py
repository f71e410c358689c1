"""Tests for the AutoKnow-style end-to-end pipeline."""

import pytest

from repro.core.codec import load_graph, save_graph
from repro.products.autoknow import AutoKnow


@pytest.fixture(scope="module")
def run(product_domain, behavior_log):
    autoknow = AutoKnow(n_epochs=4, seed=5)
    report = autoknow.run(product_domain, behavior=behavior_log)
    return autoknow, report


class TestAutoKnow:
    def test_grows_catalog_knowledge(self, run):
        _autoknow, report = run
        assert report.n_final_triples > report.n_catalog_triples
        assert report.growth_factor > 1.1

    def test_covers_most_types(self, run, product_domain):
        _autoknow, report = run
        assert report.n_types_covered >= len(product_domain.types()) - 3

    def test_taxonomy_extended(self, run):
        _autoknow, report = run
        assert report.n_taxonomy_edges_added >= 0  # mined edges may already exist

    def test_cleaning_improves_precision(self, run):
        """What survives cleaning must be at least as accurate as the raw
        extraction stream."""
        _autoknow, report = run
        assert report.final_accuracy >= report.extraction_accuracy - 0.02

    def test_added_knowledge_production_quality(self, run):
        _autoknow, report = run
        assert report.final_accuracy > 0.8

    def test_kg_populated(self, run, product_domain):
        autoknow, report = run
        stats = autoknow.kg_.stats()
        assert stats["n_entities"] == len(product_domain.products)
        assert len(autoknow.kg_) == report.n_final_triples > 0

    def test_kg_round_trips_through_a_snapshot(self, run, tmp_path):
        """The AutoKnow graph saves and loads like any other: triples,
        per-source provenance and the taxonomy come back equal."""
        kg = run[0].kg_
        path = tmp_path / "autoknow.rkgs"
        save_graph(kg, path)
        loaded = load_graph(path)
        assert list(loaded.triples()) == list(kg.triples())
        assert list(loaded.attributed_triples()) == list(kg.attributed_triples())
        assert sorted(loaded.ontology.classes()) == sorted(kg.ontology.classes())
        for class_name in kg.ontology.classes():
            assert loaded.ontology.parent(class_name) == kg.ontology.parent(class_name)
        assert [
            (entity.entity_id, entity.name, entity.entity_class) for entity in loaded.entities()
        ] == [(entity.entity_id, entity.name, entity.entity_class) for entity in kg.entities()]

    def test_catalog_accuracy_tracked(self, run):
        _autoknow, report = run
        assert 0.7 < report.catalog_accuracy <= 1.0
