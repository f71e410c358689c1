"""AutoKnow-style self-driving product knowledge collection (Sec. 3.5).

"With one-size-fits-all extraction and cleaning, Amazon AutoKnow system
automatically collected 1B knowledge triples over 11K distinct product
types, and considerably extended the ontology and improved Catalog
quality."

The orchestration mirrors Fig. 4(b): taxonomy enrichment from behavior,
distantly-supervised type-aware extraction over *all* types at once
(TXtract), statistical knowledge cleaning, and assembly of the resulting
text-rich KG.  That KG is a :class:`~repro.core.graph.KnowledgeGraph` like
the entity-based one: each product is an entity whose class is its leaf
type in the taxonomy (the graph's ontology), and each catalog, TXtract or
imputed attribute value is a triple whose provenance names its source and
confidence.  The report quantifies the same outcomes AutoKnow reported:
triples added over the catalog, types covered, and the quality of what was
added.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.triple import Provenance, Triple
from repro.datagen.behavior import BehaviorLog
from repro.datagen.products import ProductDomain
from repro.ml.metrics import BinaryConfusion
from repro.obs import lineage as obs_lineage
from repro.obs import metrics as obs_metrics
from repro.obs import quality as obs_quality
from repro.obs.profiling import profiled
from repro.obs.tracing import span
from repro.products.cleaning import KnowledgeCleaner
from repro.products.opentag import train_test_split
from repro.products.taxonomy_mining import HypernymMiner, enrich_taxonomy
from repro.products.txtract import TXtractModel


@dataclass
class AutoKnowReport:
    """The AutoKnow outcome numbers."""

    n_catalog_triples: int = 0
    n_extracted_triples: int = 0
    n_cleaned_triples: int = 0
    n_imputed_triples: int = 0
    n_final_triples: int = 0
    n_types_covered: int = 0
    n_taxonomy_edges_added: int = 0
    extraction_accuracy: float = 0.0
    catalog_accuracy: float = 0.0
    imputation_accuracy: float = 1.0
    final_accuracy: float = 0.0

    @property
    def growth_factor(self) -> float:
        """Final triples relative to the catalog baseline."""
        if self.n_catalog_triples == 0:
            return float("inf")
        return self.n_final_triples / self.n_catalog_triples


@dataclass
class AutoKnow:
    """The end-to-end self-driving collection pipeline.

    With ``curated_taxonomy`` (default), mined hypernyms only *extend* the
    domain's existing taxonomy; without it, AutoKnow bootstraps a taxonomy
    from scratch — leaf types appear as roots when products are ingested
    and behavior mining organizes them under discovered parents, the Octet
    setting where "considerably extended the ontology" is visible.
    """

    n_epochs: int = 6
    seed: int = 0
    curated_taxonomy: bool = True
    impute_missing: bool = False
    imputation_confidence: float = 0.8
    kg_: Optional[KnowledgeGraph] = field(default=None, init=False)
    report_: Optional[AutoKnowReport] = field(default=None, init=False)

    @profiled("autoknow.run")
    def run(
        self,
        domain: ProductDomain,
        behavior: Optional[BehaviorLog] = None,
    ) -> AutoKnowReport:
        """Build the text-rich KG; returns the outcome report."""
        report = AutoKnowReport()
        taxonomy = domain.taxonomy if self.curated_taxonomy else Ontology(name="discovered")
        kg = KnowledgeGraph(ontology=taxonomy, name="autoknow")

        # ---- ontology enrichment (behavior -> taxonomy edges) ----------
        if behavior is not None:
            with span("autoknow.taxonomy_enrichment"):
                miner = HypernymMiner()
                mined = miner.mine(domain, behavior)
                report.n_taxonomy_edges_added = enrich_taxonomy(
                    taxonomy, mined, create_parents=not self.curated_taxonomy
                )

        # ---- data enrichment: distantly-supervised TXtract -------------
        with span("autoknow.train_txtract"):
            attributes = tuple(domain.attributes())
            train, _test = train_test_split(
                domain.products, test_fraction=0.0, seed=self.seed
            )
            model = TXtractModel(
                attributes=attributes, n_epochs=self.n_epochs, seed=self.seed
            ).fit(train, supervision="distant")

        # ---- cleaning learned from catalog statistics ------------------
        cleaner = KnowledgeCleaner.from_catalog_statistics(domain)

        # ---- optional imputation of still-missing catalog values -------
        imputer = None
        if self.impute_missing:
            from repro.products.imputation import ValueImputer

            imputer = ValueImputer(min_confidence=self.imputation_confidence).fit(domain)

        imputation_confusion = BinaryConfusion()
        extraction_confusion = BinaryConfusion()
        catalog_confusion = BinaryConfusion()
        final_confusion = BinaryConfusion()
        types_covered = set()
        with span("autoknow.collect", n_products=len(domain.products)):
            for product in domain.products:
                # Type boundaries are fluid in this generation: an unknown
                # type joins the taxonomy as a root.
                if not taxonomy.has_class(product.leaf_type):
                    taxonomy.add_class(product.leaf_type)
                kg.add_entity(product.product_id, product.title_text, product.leaf_type)
                # Catalog triples form the baseline KG content.
                for attribute, value in sorted(product.catalog_values.items()):
                    kg.add_triple(
                        Triple(product.product_id, attribute, value),
                        Provenance(source="catalog"),
                    )
                    report.n_catalog_triples += 1
                    catalog_confusion += _judge(product, attribute, value)
                # Extraction + cleaning adds new knowledge.
                extracted = model.extract(product)
                report.n_extracted_triples += len(extracted)
                for attribute, value in sorted(extracted.items()):
                    extraction_confusion += _judge(product, attribute, value)
                kept = cleaner.clean(extracted, product.product_type)
                report.n_cleaned_triples += len(extracted) - len(kept)
                for attribute, value in sorted(extracted.items()):
                    if kept.get(attribute) != value:
                        obs_lineage.record_rejection(
                            product.product_id,
                            attribute,
                            value,
                            reason="catalog-statistics cleaning",
                            stage="autoknow.cleaning",
                        )
                for attribute, value in sorted(kept.items()):
                    if product.catalog_values.get(attribute, "").lower() == value.lower():
                        continue  # already in the catalog
                    kg.add_triple(
                        Triple(product.product_id, attribute, value),
                        Provenance(source="txtract", confidence=0.9),
                    )
                    final_confusion += _judge(product, attribute, value)
                    types_covered.add(product.product_type)
                # Imputation fills attributes neither the catalog nor the
                # profile text provided.
                if imputer is not None:
                    still_missing = [
                        attribute
                        for attribute in sorted(product.true_values)
                        if attribute not in product.catalog_values and attribute not in kept
                    ]
                    for imputation in imputer.impute_all(product, still_missing):
                        kg.add_triple(
                            Triple(product.product_id, imputation.attribute, imputation.value),
                            Provenance(source="imputation", confidence=imputation.confidence),
                        )
                        report.n_imputed_triples += 1
                        imputation_confusion += _judge(
                            product, imputation.attribute, imputation.value
                        )

        report.n_final_triples = len(kg)
        report.n_types_covered = len(types_covered)
        report.extraction_accuracy = extraction_confusion.precision
        report.catalog_accuracy = catalog_confusion.precision
        report.imputation_accuracy = imputation_confusion.precision
        report.final_accuracy = final_confusion.precision
        obs_metrics.count("autoknow.catalog_triples", report.n_catalog_triples)
        obs_metrics.count("autoknow.extracted_triples", report.n_extracted_triples)
        obs_metrics.count("autoknow.cleaned_triples", report.n_cleaned_triples)
        obs_metrics.count("autoknow.imputed_triples", report.n_imputed_triples)
        obs_metrics.gauge("autoknow.final_triples", report.n_final_triples)
        obs_metrics.gauge("autoknow.final_accuracy", report.final_accuracy)
        if obs_lineage.lineage_enabled():
            obs_quality.capture(kg, name=kg.name)
        self.kg_ = kg
        self.report_ = report
        return report


def _judge(product, attribute: str, value: str) -> BinaryConfusion:
    truth = product.true_values.get(attribute)
    if truth is not None and truth.lower() == value.lower():
        return BinaryConfusion(true_positive=1)
    return BinaryConfusion(false_positive=1)
