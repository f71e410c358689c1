"""T-TXTRACT — One type-aware model for all types (paper Sec. 3.3).

Paper claim: "TXtract shows that it can train one model for 4K product
types, while increasing extraction F-measure by 10% compared to OpenTag as
a baseline."  The reproduction compares (a) one pooled OpenTag with no type
context, (b) one-model-per-type OpenTag (the unscalable regime), and
(c) TXtract — one model with type conditioning.
"""

from __future__ import annotations

import pytest

from repro.evalx.tables import ResultTable
from repro.ml.metrics import BinaryConfusion
from repro.products.opentag import OpenTagModel, score_extractions, train_test_split
from repro.products.txtract import TXtractModel


def _per_type_baseline(domain, train, test, attributes):
    """Train one OpenTag per product type; evaluate jointly."""
    total = BinaryConfusion()
    by_type_train = {}
    for product in train:
        by_type_train.setdefault(product.product_type, []).append(product)
    by_type_test = {}
    for product in test:
        by_type_test.setdefault(product.product_type, []).append(product)
    n_models = 0
    for product_type, type_test in by_type_test.items():
        type_train = by_type_train.get(product_type, [])
        if len(type_train) < 4:
            continue
        model = OpenTagModel(attributes=attributes, n_epochs=6, seed=3).fit(type_train)
        n_models += 1
        for confusion in score_extractions(type_test, attributes, model.extract).values():
            total += confusion
    return total, n_models


def _run(domain):
    attributes = tuple(domain.attributes())
    train, test = train_test_split(domain.products, test_fraction=0.3, seed=4)

    pooled = OpenTagModel(attributes=attributes, n_epochs=6, seed=3).fit(train)
    pooled_f1 = pooled.micro_f1(test)

    per_type_confusion, n_models = _per_type_baseline(domain, train, test, attributes)
    per_type_f1 = per_type_confusion.f1

    txtract = TXtractModel(attributes=attributes, n_epochs=6, seed=3).fit(train)
    txtract_f1 = txtract.micro_f1(test)

    # The scarce-data regime: few examples per type, where sharing one
    # model across types while staying type-aware matters most (the 4K-type
    # production setting is scarce for almost every type).
    scarce_train = train[:90]
    pooled_scarce = OpenTagModel(attributes=attributes, n_epochs=6, seed=3).fit(scarce_train)
    txtract_scarce = TXtractModel(attributes=attributes, n_epochs=6, seed=3).fit(scarce_train)
    pooled_scarce_f1 = pooled_scarce.micro_f1(test)
    txtract_scarce_f1 = txtract_scarce.micro_f1(test)

    table = ResultTable(
        title="Sec. 3.3 - TXtract vs OpenTag across all product types",
        columns=["model", "n_models", "micro_f1", "relative_gain_vs_pooled"],
        note="paper: one TXtract model for 4K types, +10% F over OpenTag",
    )
    table.add_row("opentag_pooled", 1, pooled_f1, 0.0)
    table.add_row(
        "opentag_per_type", n_models, per_type_f1, (per_type_f1 - pooled_f1) / pooled_f1
    )
    table.add_row("txtract", 1, txtract_f1, (txtract_f1 - pooled_f1) / pooled_f1)
    table.add_row("opentag_pooled(90-train)", 1, pooled_scarce_f1, 0.0)
    table.add_row(
        "txtract(90-train)",
        1,
        txtract_scarce_f1,
        (txtract_scarce_f1 - pooled_scarce_f1) / pooled_scarce_f1,
    )
    table.show()
    return {
        "pooled": pooled_f1,
        "per_type": per_type_f1,
        "txtract": txtract_f1,
        "n_models": n_models,
        "pooled_scarce": pooled_scarce_f1,
        "txtract_scarce": txtract_scarce_f1,
    }


@pytest.mark.benchmark(group="txtract")
def test_txtract_multitype(benchmark, bench_product_domain):
    results = benchmark.pedantic(
        lambda: _run(bench_product_domain), rounds=1, iterations=1
    )
    # Shape 1: a single type-aware model beats the single pooled model.
    assert results["txtract"] > results["pooled"]
    # Shape 2: it does so with ONE model where the per-type regime needs
    # one per type — the scalability claim.
    assert results["n_models"] > 5
    # Shape 3: type awareness recovers (at least most of) the per-type
    # quality without per-type training.
    assert results["txtract"] >= results["per_type"] - 0.05
    # Shape 4: in the scarce-data regime the gap widens (the production
    # setting behind the paper's +10%).
    assert results["txtract_scarce"] > results["pooled_scarce"]
