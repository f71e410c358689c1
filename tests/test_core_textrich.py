"""Tests for the text-rich (bipartite) KG of Sec. 3 on the one graph.

Products are entities typed by the taxonomy (the graph's ontology) and
their free-text attribute values are triples with provenance — the shape
AutoKnow builds and ProductSearch reads.
"""

import pytest

from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.triple import Provenance, Triple
from repro.products.autoknow import AutoKnow
from repro.products.search import ProductSearch


def _kg():
    taxonomy = Ontology()
    taxonomy.add_class("Ground Coffee")
    taxonomy.add_class("Green Tea")
    kg = KnowledgeGraph(ontology=taxonomy)
    kg.add_entity("b1", "Onus vanilla Ground Coffee", "Ground Coffee")
    kg.add_entity("b2", "Verdant mint Green Tea", "Green Tea")
    kg.add_triple(Triple("b1", "flavor", "vanilla"), Provenance(source="catalog"))
    kg.add_triple(
        Triple("b2", "flavor", "mint"), Provenance(source="txtract", confidence=0.8)
    )
    return kg


class TestTopics:
    def test_add_and_lookup(self):
        kg = _kg()
        assert kg.entity("b1").entity_class == "Ground Coffee"

    def test_duplicate_rejected(self):
        kg = _kg()
        with pytest.raises(ValueError):
            kg.add_entity("b1", "x", "Ground Coffee")

    def test_unknown_type_added_to_taxonomy(self, product_domain, behavior_log):
        """The graph refuses an unknown class; AutoKnow's bootstrap run
        (no curated taxonomy) adds each product's type as it ingests it,
        and behavior mining organizes them."""
        with pytest.raises(ValueError):
            _kg().add_entity("b3", "x", "BrandNewType")
        autoknow = AutoKnow(n_epochs=1, seed=3, curated_taxonomy=False)
        report = autoknow.run(product_domain, behavior=behavior_log)
        kg = autoknow.kg_
        assert report.n_taxonomy_edges_added > 0
        for product in product_domain.products:
            entity = kg.entity(product.product_id)
            assert entity.entity_class == product.leaf_type
            assert kg.ontology.has_class(entity.entity_class)

    def test_topics_filtered_by_subtree(self):
        taxonomy = Ontology()
        taxonomy.add_class("Coffee")
        taxonomy.add_class("Ground Coffee", parent="Coffee")
        kg = KnowledgeGraph(ontology=taxonomy)
        kg.add_entity("b1", "x", "Ground Coffee")
        assert [entity.entity_id for entity in kg.entities("Coffee")] == ["b1"]

    def test_unknown_topic_raises(self):
        with pytest.raises(KeyError):
            _kg().entity("nope")


class TestValues:
    def test_values_and_value_of(self):
        kg = _kg()
        assert kg.objects("b1", "flavor") == ["vanilla"]
        assert kg.one_object("b1", "flavor") == "vanilla"
        assert kg.one_object("b1", "scent") is None

    def test_duplicate_value_keeps_higher_confidence(self):
        """A repeated value is one triple holding both records; the panel
        reads the higher confidence."""
        kg = _kg()
        kg.add_triple(
            Triple("b2", "flavor", "mint"), Provenance(source="catalog", confidence=0.95)
        )
        assert kg.objects("b2", "flavor") == ["mint"]
        records = kg.provenance(Triple("b2", "flavor", "mint"))
        assert max(record.confidence for record in records) == 0.95

    def test_highest_confidence_wins_value_of(self):
        kg = _kg()
        kg.add_triple(
            Triple("b2", "flavor", "peppermint"), Provenance(source="catalog")
        )
        assert ProductSearch(kg).display("b2") == {"flavor": "peppermint"}

    def test_remove_value(self):
        kg = _kg()
        assert kg.remove_triple(Triple("b1", "flavor", "vanilla")) is True
        assert kg.remove_triple(Triple("b1", "flavor", "vanilla")) is False
        assert kg.one_object("b1", "flavor") is None

    def test_reverse_index(self):
        hits = ProductSearch(_kg()).search("VANILLA")
        assert [hit.topic_id for hit in hits] == ["b1"]
        assert hits[0].matched == ("flavor=vanilla",)

    def test_reverse_index_after_removal(self):
        kg = _kg()
        search = ProductSearch(kg)
        kg.remove_triple(Triple("b1", "flavor", "vanilla"))
        assert search.parse("vanilla").value_filters == ()

    def test_distinct_values(self):
        kg = _kg()
        assert sorted({triple.object for triple in kg.query(predicate="flavor")}) == [
            "mint",
            "vanilla",
        ]

    def test_unknown_topic_value_raises(self):
        with pytest.raises(ValueError):
            _kg().add_triple(Triple("nope", "a", "b"), Provenance(source="catalog"))

    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            Provenance(source="catalog", confidence=2.0)


class TestExportAndStats:
    def test_stats(self):
        stats = _kg().stats()
        assert stats["n_entities"] == 2
        assert stats["n_triples"] == 2
        assert stats["n_attribute_triples"] == 2
