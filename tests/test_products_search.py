"""Tests for product search/display/comparison over the text-rich KG."""

import pytest

from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.triple import Provenance, Triple
from repro.products.search import ProductSearch

CATALOG = Provenance(source="catalog")


@pytest.fixture
def kg():
    taxonomy = Ontology()
    taxonomy.add_class("Coffee")
    taxonomy.add_class("Ground Coffee", parent="Coffee")
    taxonomy.add_class("Tea")
    kg = KnowledgeGraph(ontology=taxonomy)
    kg.add_entity("c1", "Onus mocha dark roast Ground Coffee", "Ground Coffee")
    kg.add_triple(Triple("c1", "flavor", "Mocha"), CATALOG)
    kg.add_triple(Triple("c1", "roast", "dark roast"), CATALOG)
    kg.add_entity("c2", "Brio vanilla Ground Coffee", "Ground Coffee")
    kg.add_triple(Triple("c2", "flavor", "vanilla"), CATALOG)
    kg.add_triple(Triple("c2", "roast", "light roast"), CATALOG)
    kg.add_entity("t1", "Verdant mint Tea", "Tea")
    kg.add_triple(Triple("t1", "flavor", "mint"), CATALOG)
    return kg


@pytest.fixture
def search(kg):
    return ProductSearch(kg)


class TestParse:
    def test_type_and_value_filters(self, search):
        parsed = search.parse("dark roast coffee")
        assert parsed.type_filter == "Coffee"
        assert ("roast", "dark roast") in parsed.value_filters

    def test_longest_value_wins(self, search):
        parsed = search.parse("dark roast")
        values = [value for _attr, value in parsed.value_filters]
        assert "dark roast" in values

    def test_no_filters(self, search):
        parsed = search.parse("something unrelated")
        assert parsed.type_filter is None
        assert parsed.value_filters == ()


class TestSearch:
    def test_value_filtered_search(self, search):
        """Values match case-insensitively: "MOCHA" finds the catalog's
        "Mocha"."""
        hits = search.search("MOCHA coffee")
        assert hits[0].topic_id == "c1"
        assert "flavor=mocha" in hits[0].matched

    def test_type_filter_excludes_other_types(self, search):
        hits = search.search("mint coffee")
        # "mint" exists only on a Tea topic; type filter Coffee excludes it.
        assert all(hit.topic_id != "t1" for hit in hits if hit.score > 0)

    def test_type_only_query_returns_type(self, search):
        hits = search.search("tea")
        assert {hit.topic_id for hit in hits} == {"t1"}

    def test_residual_terms_break_ties(self, search):
        hits = search.search("coffee Brio")
        assert hits[0].topic_id == "c2"

    def test_top_k(self, search):
        assert len(search.search("coffee", top_k=1)) == 1


class TestDisplayCompare:
    def test_display_panel(self, search):
        panel = search.display("c1")
        assert panel == {"flavor": "Mocha", "roast": "dark roast"}

    def test_display_picks_highest_confidence(self, search, kg):
        """A slot with a catalog value and a different extracted one shows
        the catalog's (1.0 over 0.9), whichever was inserted first."""
        kg.add_entity("c3", "Brio dark roast Ground Coffee", "Ground Coffee")
        kg.add_triple(
            Triple("c3", "roast", "dark roast"), Provenance(source="txtract", confidence=0.9)
        )
        kg.add_triple(Triple("c3", "roast", "medium roast"), CATALOG)
        assert search.display("c3") == {"roast": "medium roast"}

    def test_compare_table_shape(self, search):
        rows = search.compare(["c1", "c2"])
        assert rows[0][0] == "attribute"
        assert len(rows[0]) == 3
        flavor_row = next(row for row in rows if row[0] == "flavor")
        assert flavor_row[1:] == ["Mocha", "vanilla"]

    def test_compare_missing_values_dashed(self, search, kg):
        kg.add_triple(Triple("c1", "caffeine", "decaf"), CATALOG)
        rows = search.compare(["c1", "c2"])
        caffeine_row = next(row for row in rows if row[0] == "caffeine")
        assert caffeine_row[1:] == ["decaf", "-"]

    def test_integration_with_autoknow_kg(self, product_domain, behavior_log):
        from repro.products.autoknow import AutoKnow

        autoknow = AutoKnow(n_epochs=3, seed=9)
        autoknow.run(product_domain, behavior=behavior_log)
        search = ProductSearch(autoknow.kg_)
        hits = search.search("mocha coffee", top_k=5)
        by_id = {p.product_id: p for p in product_domain.products}
        for hit in hits:
            if hit.score >= 1.0:
                product = by_id[hit.topic_id]
                assert product.product_type in ("Coffee",) or "coffee" in product.leaf_type.lower()
