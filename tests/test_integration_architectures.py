"""End-to-end integration tests: the Fig. 4 architectures run whole."""

import pytest

from repro.datagen.world import WorldConfig, build_world
from repro.evalx.architectures import (
    build_entity_based_kg,
    build_text_rich_kg,
    evaluate_entity_kg_accuracy,
)


@pytest.fixture(scope="module")
def entity_context():
    world = build_world(WorldConfig(n_people=100, n_movies=70, n_songs=30, seed=51))
    return build_entity_based_kg(world, label_budget=300, n_sites=3, pages_per_site=15, seed=1)


class TestEntityBasedArchitecture:
    def test_all_stages_ran(self, entity_context):
        pipeline = entity_context.artifacts["pipeline"]
        names = [report.stage_name for report in pipeline.reports]
        assert names == [
            "transform_curated",
            "integrate_second_source",
            "fuse_values",
            "extract_semistructured",
        ]

    def test_each_stage_grows_or_curates_knowledge(self, entity_context):
        metrics = entity_context.metrics
        assert metrics["transform.triples"] > 0
        assert metrics["integrate.triples_added"] > 0
        assert metrics["extract.triples_added"] > 0

    def test_integration_links_entities(self, entity_context):
        assert entity_context.metrics["integrate.matched"] > 10
        assert entity_context.metrics["integrate.new_entities"] > 0

    def test_final_kg_accuracy(self, entity_context):
        accuracy = evaluate_entity_kg_accuracy(entity_context)
        assert accuracy > 0.85  # curated + integrated + extracted stays clean

    def test_kg_has_connected_structure(self, entity_context):
        graph = entity_context.artifacts["kg"]
        some_entity = next(iter(graph.entities("Movie"))).entity_id
        assert graph.query(subject=some_entity)


class TestTextRichArchitecture:
    def test_end_to_end(self, product_domain, behavior_log):
        context = build_text_rich_kg(product_domain, behavior=behavior_log, n_epochs=3, seed=2)
        report = context.artifacts["report"]
        assert report.n_final_triples > report.n_catalog_triples
        kg = context.artifacts["kg"]
        assert kg.stats()["n_entities"] == len(product_domain.products)
