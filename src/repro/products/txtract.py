"""TXtract: taxonomy-aware extraction for thousands of types (Sec. 3.3).

"TXtract takes the embedding of the product types as part of the input to
the model, so the extraction is type-aware. Second, it employs multi-task
learning to predict product types in addition to knowledge extraction. ...
it can train one model for 4K product types, while increasing extraction
F-measure by 10% compared to OpenTag as a baseline."

Reproduction: one shared :class:`~repro.products.opentag.OpenTagModel`
conditioned on per-product *type context features* (type, department, and
type-embedding buckets), plus an auxiliary type classifier (the multi-task
head) used to infer the context when the type is not given at inference
time.  The baseline for the T-TXTRACT benchmark is the same tagger with no
type conditioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datagen.products import ProductRecord
from repro.ml.embeddings import hash_embedding
from repro.ml.logistic import FeatureVocabulary, LogisticRegression
from repro.ml.metrics import BinaryConfusion
from repro.products.opentag import OpenTagModel, score_extractions


def type_context_features(product_type: str, department: str, n_buckets: int = 8) -> List[str]:
    """Context features encoding the product type.

    The hash-embedding sign buckets are the discrete stand-in for "taking
    the embedding of the product types as part of the input": types with
    similar names share buckets, letting vocabulary transfer between
    neighboring types.
    """
    features = [f"type={product_type}", f"dept={department}"]
    vector = hash_embedding(product_type, dim=n_buckets)
    for dimension, value in enumerate(vector):
        if value > 0:
            features.append(f"tvec{dimension}+")
    return features


@dataclass
class TXtractModel:
    """One type-aware tagger for all product types."""

    attributes: Tuple[str, ...]
    n_epochs: int = 8
    use_predicted_type: bool = False
    seed: int = 0
    tagger_: Optional[OpenTagModel] = field(default=None, init=False, repr=False)
    _type_classifier: Optional[LogisticRegression] = field(default=None, init=False, repr=False)
    _type_labels: List[str] = field(default_factory=list, init=False)
    _vocabulary: FeatureVocabulary = field(default_factory=FeatureVocabulary, init=False)
    _departments: Dict[str, str] = field(default_factory=dict, init=False)

    def fit(
        self, products: Sequence[ProductRecord], supervision: str = "gold"
    ) -> "TXtractModel":
        """Train the shared tagger plus the auxiliary type classifier."""
        contexts = [
            type_context_features(product.product_type, product.department)
            for product in products
        ]
        self.tagger_ = OpenTagModel(
            attributes=self.attributes, n_epochs=self.n_epochs, seed=self.seed
        )
        self.tagger_.fit(products, supervision=supervision, contexts=contexts)
        self._fit_type_classifier(products)
        for product in products:
            self._departments.setdefault(product.product_type, product.department)
        return self

    def _fit_type_classifier(self, products: Sequence[ProductRecord]) -> None:
        """The multi-task head: predict the product type from the title."""
        self._type_labels = sorted({product.product_type for product in products})
        label_index = {label: i for i, label in enumerate(self._type_labels)}
        titles = [[token.lower() for token in product.title.tokens] for product in products]
        matrix = self._vocabulary.fit(titles).transform(titles)
        targets = np.array([label_index[product.product_type] for product in products])
        self._type_classifier = LogisticRegression(
            learning_rate=0.8, n_iterations=200, seed=self.seed
        )
        self._type_classifier.fit(matrix, targets)

    def predict_type(self, product: ProductRecord) -> str:
        """Auxiliary-task inference of the product type from the title."""
        if self._type_classifier is None:
            raise RuntimeError("model is not fitted")
        row = self._vocabulary.transform([[token.lower() for token in product.title.tokens]])
        index = int(self._type_classifier.predict(row)[0])
        return self._type_labels[index]

    def _context_for(self, product: ProductRecord) -> List[str]:
        if self.use_predicted_type:
            predicted = self.predict_type(product)
            department = self._departments.get(predicted, product.department)
            return type_context_features(predicted, department)
        return type_context_features(product.product_type, product.department)

    def extract(self, product: ProductRecord) -> Dict[str, str]:
        """Type-conditioned extraction for one product."""
        if self.tagger_ is None:
            raise RuntimeError("model is not fitted")
        return self.tagger_.extract(product, context=self._context_for(product))

    def evaluate(self, products: Sequence[ProductRecord]) -> Dict[str, BinaryConfusion]:
        """Per-attribute value-level confusion on held-out products."""
        return score_extractions(products, self.attributes, self.extract)

    def micro_f1(self, products: Sequence[ProductRecord]) -> float:
        """Micro-averaged F1 over all attributes."""
        return sum(self.evaluate(products).values(), BinaryConfusion()).f1
