"""The two extraction pipelines of Figure 5, with manual work metered.

Fig. 5(a) — production quality via manual effort: understand the domain and
label training data, fine-tune hyper-parameters, post-process with
hand-written rules, and gate behind a pre-publish evaluation.

Fig. 5(b) — repeatability via automation: distant supervision from the
catalog (plus a small manually-labeled benchmark), AutoML tuning, ML-based
cleaning, and the same gate.

Both run the same underlying tagger; what differs is where labels and
tuning come from, and the :class:`ManualWorkLedger` records the difference
— "the time to train and deploy an extraction model can be reduced from a
couple of months to a couple of weeks" (Sec. 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.datagen.products import ProductDomain, ProductRecord
from repro.ml.metrics import BinaryConfusion
from repro.obs import metrics as obs_metrics
from repro.obs.profiling import profiled
from repro.products.cleaning import KnowledgeCleaner
from repro.products.opentag import OpenTagModel, score_extractions, train_test_split

#: Manual-work cost (person-hours) of each manual activity, rough but
#: internally consistent; the benchmark reports ratios, not absolutes.
MANUAL_COSTS: Dict[str, float] = {
    "label_product": 0.05,          # annotate one product's spans
    "domain_analysis": 8.0,         # understand the domain & attributes
    "hyperparameter_tuning": 16.0,  # per model, by an ML engineer
    "write_postprocess_rule": 2.0,  # per hand-written cleaning rule
    "prepublish_review": 4.0,       # sampled audit before launch
    "benchmark_label": 0.05,        # label one benchmark instance (5b)
}


@dataclass
class ManualWorkLedger:
    """Accumulates manual-work units by activity."""

    entries: Dict[str, float] = field(default_factory=dict)

    def charge(self, activity: str, count: float = 1.0) -> None:
        """Record ``count`` occurrences of a manual activity."""
        if activity not in MANUAL_COSTS:
            raise KeyError(f"unknown manual activity {activity!r}")
        self.entries[activity] = self.entries.get(activity, 0.0) + count * MANUAL_COSTS[activity]

    @property
    def total_hours(self) -> float:
        """Total metered person-hours."""
        return sum(self.entries.values())


@dataclass
class PipelineResult:
    """Outcome of one pipeline run on one (type, attributes) task."""

    pipeline: str
    product_type: str
    f1: float
    precision: float
    recall: float
    manual_hours: float
    published: bool
    ledger: ManualWorkLedger


@dataclass
class ProductionPipeline:
    """Fig. 5(a): manual labels, manual tuning, rule post-processing."""

    attributes: Tuple[str, ...]
    n_labeled_products: int = 120
    quality_bar: float = 0.9
    seed: int = 0

    @profiled("products.pipeline.production")
    def run(self, domain: ProductDomain, product_type: str) -> PipelineResult:
        """Train, post-process, gate, and account for the manual work."""
        ledger = ManualWorkLedger()
        products = domain.by_type(product_type)
        train, test = train_test_split(products, test_fraction=0.3, seed=self.seed)
        # 1. Understand the domain and generate training data (manual).
        ledger.charge("domain_analysis")
        labeled = train[: self.n_labeled_products]
        ledger.charge("label_product", count=len(labeled))
        # 2. Fine-tune hyper-parameters (manual): emulate by trying a couple
        #    of epoch settings under human supervision.
        ledger.charge("hyperparameter_tuning")
        model = _best_model(self.attributes, self.seed, (6, 10), labeled, "gold", labeled)
        # 3. Post-process with hand-written rule filtering.
        cleaner = KnowledgeCleaner.from_rules(domain)
        ledger.charge("write_postprocess_rule", count=cleaner.n_rules)
        # 4. Pre-publish evaluation gate (manual audit).
        return _prepublish_gate(
            "production(5a)", model, cleaner, test, product_type, ledger, self.quality_bar
        )


@dataclass
class AutomatedPipeline:
    """Fig. 5(b): distant supervision, AutoML, ML cleaning."""

    attributes: Tuple[str, ...]
    n_benchmark_labels: int = 30
    quality_bar: float = 0.9
    seed: int = 0

    @profiled("products.pipeline.automated")
    def run(self, domain: ProductDomain, product_type: str) -> PipelineResult:
        """Train from the catalog, auto-tune, ML-clean, gate."""
        ledger = ManualWorkLedger()
        products = domain.by_type(product_type)
        train, test = train_test_split(products, test_fraction=0.3, seed=self.seed)
        # 1. Distant supervision from the catalog; only a small benchmark is
        #    human-labeled ("tens to hundreds", Sec. 3.2).
        ledger.charge("benchmark_label", count=min(self.n_benchmark_labels, len(test)))
        # 2. AutoML replaces manual tuning: pick epochs by benchmark F1.
        benchmark = test[: self.n_benchmark_labels]
        model = _best_model(self.attributes, self.seed, (4, 6, 10), train, "distant", benchmark)
        # 3. ML-based cleaning learned from catalog statistics (no rules
        #    hand-written for this type).
        cleaner = KnowledgeCleaner.from_catalog_statistics(domain)
        # 4. Same pre-publish gate, still a (cheap) human audit.
        return _prepublish_gate(
            "automated(5b)", model, cleaner, test, product_type, ledger, self.quality_bar
        )


def _best_model(
    attributes: Tuple[str, ...],
    seed: int,
    epoch_grid: Sequence[int],
    train: Sequence[ProductRecord],
    supervision: str,
    benchmark: Sequence[ProductRecord],
) -> OpenTagModel:
    """The OpenTag epoch setting with the best micro-F1 on ``benchmark`` (first on ties)."""
    models = [
        OpenTagModel(attributes=attributes, n_epochs=n_epochs, seed=seed).fit(
            train, supervision=supervision
        )
        for n_epochs in epoch_grid
    ]
    return max(models, key=lambda model: model.micro_f1(benchmark))


def _prepublish_gate(
    pipeline: str,
    model: OpenTagModel,
    cleaner: KnowledgeCleaner,
    test: Sequence[ProductRecord],
    product_type: str,
    ledger: ManualWorkLedger,
    quality_bar: float,
) -> PipelineResult:
    """Score extract -> clean on held-out products and apply the pre-publish gate."""
    confusions = score_extractions(
        test, model.attributes, lambda product: cleaner.clean(model.extract(product), product_type)
    )
    confusion = sum(confusions.values(), BinaryConfusion())
    ledger.charge("prepublish_review")
    obs_metrics.observe("products.pipeline.manual_hours", ledger.total_hours)
    return PipelineResult(
        pipeline=pipeline,
        product_type=product_type,
        f1=confusion.f1,
        precision=confusion.precision,
        recall=confusion.recall,
        manual_hours=ledger.total_hours,
        published=confusion.f1 >= quality_bar,
        ledger=ledger,
    )
