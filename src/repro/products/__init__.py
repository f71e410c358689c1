"""Text-rich KG construction for the product domain (Sec. 3).

* :mod:`repro.products.opentag` — OpenTag-style NER extraction of attribute
  values from product profiles (the Sec. 3.1 seed technique), and the
  value-level scorer every extractor below reports through;
* :mod:`repro.products.pipelines` — the Fig. 5(a) production pipeline and
  the Fig. 5(b) automated pipeline, with a manual-work ledger;
* :mod:`repro.products.cleaning` — knowledge cleaning via taxonomy-aware
  consistency rules and catalog statistics (Sec. 3.2);
* :mod:`repro.products.taxonomy_mining` — hypernym mining from customer
  behavior (Octet-style, Sec. 3.1);
* :mod:`repro.products.relationships` — substitutes/complements mining;
* :mod:`repro.products.txtract` — type-aware one-model-for-all-types
  extraction (TXtract, Sec. 3.3);
* :mod:`repro.products.adatag` — attribute-conditioned multi-attribute
  extraction (AdaTag, Sec. 3.3);
* :mod:`repro.products.pam` — multi-modal text+image extraction (PAM,
  Sec. 3.4);
* :mod:`repro.products.autoknow` — the AutoKnow-style end-to-end
  self-driving collection system (Sec. 3.5).
"""

from repro.products.opentag import OpenTagModel, distant_bio_tags, gold_bio_tags
from repro.products.pipelines import (
    AutomatedPipeline,
    ManualWorkLedger,
    PipelineResult,
    ProductionPipeline,
)
from repro.products.cleaning import CleaningReport, KnowledgeCleaner
from repro.products.taxonomy_mining import HypernymMiner, MinedHypernym
from repro.products.relationships import RelationshipMiner
from repro.products.txtract import TXtractModel
from repro.products.adatag import AdaTagModel
from repro.products.pam import PAMExtractor
from repro.products.autoknow import AutoKnow, AutoKnowReport
from repro.products.companion import CompanionRecommender
from repro.products.imputation import ValueImputer
from repro.products.search import ProductSearch

__all__ = [
    "OpenTagModel",
    "distant_bio_tags",
    "gold_bio_tags",
    "AutomatedPipeline",
    "ManualWorkLedger",
    "PipelineResult",
    "ProductionPipeline",
    "CleaningReport",
    "KnowledgeCleaner",
    "HypernymMiner",
    "MinedHypernym",
    "RelationshipMiner",
    "TXtractModel",
    "AdaTagModel",
    "PAMExtractor",
    "AutoKnow",
    "AutoKnowReport",
    "CompanionRecommender",
    "ValueImputer",
    "ProductSearch",
]
