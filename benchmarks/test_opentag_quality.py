"""T-OPENTAG — Raw NER quality vs pipelined quality (paper Sec. 3.1/3.2).

Paper claims: NER-based extraction lands at 85-95% ("still mediocre");
pre/post-processing (here: normalization + consistency cleaning) lifts it
to production quality, "often with accuracy above 95%".
"""

from __future__ import annotations

import pytest

from repro.evalx.tables import ResultTable
from repro.ml.metrics import BinaryConfusion
from repro.products.cleaning import KnowledgeCleaner
from repro.products.opentag import OpenTagModel, score_extractions, train_test_split

TASKS = (
    ("Coffee", ("flavor", "roast", "caffeine", "size")),
    ("Ice Cream", ("flavor", "dietary", "size")),
    ("Headphones", ("color", "connectivity", "battery")),
)


def _score(model, cleaner, test, product_type, use_cleaning):
    def predict(product):
        predicted = model.extract(product)
        return cleaner.clean(predicted, product_type) if use_cleaning else predicted

    confusions = score_extractions(test, model.attributes, predict)
    return sum(confusions.values(), BinaryConfusion())


def _run(domain):
    table = ResultTable(
        title="Sec. 3.1/3.2 - OpenTag raw vs pipelined quality",
        columns=["type", "regime", "precision", "recall", "f1"],
        note="paper: raw NER 85-95%; with pipeline post-processing >95%",
    )
    cleaner = KnowledgeCleaner.from_rules(domain)
    results = []
    for product_type, attributes in TASKS:
        products = domain.by_type(product_type)
        train, test = train_test_split(products, test_fraction=0.3, seed=3)
        model = OpenTagModel(attributes=attributes, n_epochs=8, seed=3).fit(
            train, supervision="gold"
        )
        raw = _score(model, cleaner, test, product_type, use_cleaning=False)
        piped = _score(model, cleaner, test, product_type, use_cleaning=True)
        results.append((product_type, raw, piped))
        table.add_row(product_type, "raw NER", raw.precision, raw.recall, raw.f1)
        table.add_row(product_type, "with pipeline", piped.precision, piped.recall, piped.f1)
    table.show()
    return results


@pytest.mark.benchmark(group="opentag")
def test_opentag_quality(benchmark, bench_product_domain):
    results = benchmark.pedantic(
        lambda: _run(bench_product_domain), rounds=1, iterations=1
    )
    raw_f1s = [raw.f1 for _t, raw, _p in results]
    piped_f1s = [piped.f1 for _t, _raw, piped in results]
    # Shape 1: raw NER is useful everywhere, and at least one ambiguous
    # type sits in the paper's "still mediocre" sub-95% band.
    assert all(f1 > 0.75 for f1 in raw_f1s)
    assert min(raw_f1s) < 0.95
    # Shape 2: the pipeline lifts quality on average and never hurts much.
    assert sum(piped_f1s) / len(piped_f1s) >= sum(raw_f1s) / len(raw_f1s)
    assert all(piped >= raw - 0.05 for raw, piped in zip(raw_f1s, piped_f1s))
    # Shape 3: pipelined extraction reaches the production band.
    assert max(piped_f1s) > 0.9
