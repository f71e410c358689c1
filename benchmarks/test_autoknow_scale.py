"""T-AUTOKNOW — Self-driving knowledge collection at scale (paper Sec. 3.5).

Paper claim: "Amazon AutoKnow system automatically collected 1B knowledge
triples over 11K distinct product types, and considerably extended the
ontology and improved Catalog quality."  Shape reproduced: the pipeline
multiplies the catalog's knowledge, covers (nearly) every type with zero
per-type manual work, extends the taxonomy from behavior, and what it adds
is production quality.
"""

from __future__ import annotations

import pytest

from repro.evalx.tables import ResultTable
from repro.products.autoknow import AutoKnow


def _run(domain, behavior):
    autoknow = AutoKnow(n_epochs=5, seed=7)
    report = autoknow.run(domain, behavior=behavior)
    # The Octet from-scratch setting: no curated taxonomy; behavior mining
    # must discover the type hierarchy.
    bootstrap = AutoKnow(n_epochs=3, seed=7, curated_taxonomy=False)
    bootstrap_report = bootstrap.run(domain, behavior=behavior)

    table = ResultTable(
        title="Sec. 3.5 - AutoKnow-style collection outcome",
        columns=["metric", "value"],
        note="paper: 1B triples over 11K types; ontology extended; catalog improved",
    )
    table.add_row("catalog_triples", report.n_catalog_triples)
    table.add_row("extracted_triples", report.n_extracted_triples)
    table.add_row("dropped_by_cleaning", report.n_cleaned_triples)
    table.add_row("final_triples", report.n_final_triples)
    table.add_row("growth_factor", report.growth_factor)
    table.add_row("types_covered", report.n_types_covered)
    table.add_row("taxonomy_edges_added(curated)", report.n_taxonomy_edges_added)
    table.add_row(
        "taxonomy_edges_discovered(bootstrap)", bootstrap_report.n_taxonomy_edges_added
    )
    table.add_row("catalog_accuracy", report.catalog_accuracy)
    table.add_row("raw_extraction_accuracy", report.extraction_accuracy)
    table.add_row("added_knowledge_accuracy", report.final_accuracy)
    table.show()
    return autoknow, report, bootstrap_report


@pytest.mark.benchmark(group="autoknow")
def test_autoknow_scale(benchmark, bench_product_domain, bench_behavior):
    autoknow, report, bootstrap_report = benchmark.pedantic(
        lambda: _run(bench_product_domain, bench_behavior), rounds=1, iterations=1
    )
    # Shape 1: knowledge multiplies over the catalog baseline.
    assert report.growth_factor > 1.2
    # Shape 2: coverage spans (nearly) all types with one model.
    assert report.n_types_covered >= len(bench_product_domain.types()) - 2
    # Shape 3: cleaning keeps added knowledge at production quality.
    assert report.final_accuracy > 0.85
    # Shape 4: in the from-scratch regime, behavior mining builds real
    # taxonomy structure ("considerably extended the ontology").
    assert bootstrap_report.n_taxonomy_edges_added > 3
    # Shape 5: the output KG is well-formed and queryable.
    stats = autoknow.kg_.stats()
    assert stats["n_entities"] == len(bench_product_domain.products)
    assert len(autoknow.kg_) == report.n_final_triples
