"""AdaTag: multi-attribute extraction with an adaptive decoder (Sec. 3.3).

"AdaTag takes attribute embeddings as input, and applies Mix of Expert
(MoE) and HyperNet to leverage the similarities between the attributes
(e.g., flavor and scent, though different, share a lot of common
vocabularies). It can train one model for 32 major attributes whereas
still improving quality over training one model per attribute."

Reproduction: one shared tagger, trained on a per-(product, attribute)
expansion of the corpus where each example is tagged *only* for its target
attribute and carries attribute context features (attribute identity plus
attribute-embedding buckets).  Because non-conjoined token features are
shared across attributes, vocabulary learned for ``flavor`` transfers to
``scent`` — the MoE-style parameter sharing; the attribute-conditioned
features play the adaptive-decoder role.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datagen.products import ProductRecord
from repro.ml.embeddings import hash_embedding
from repro.ml.metrics import BinaryConfusion
from repro.ml.tagger import SequenceTagger
from repro.products.opentag import bio_tag_rule, score_extractions


def attribute_context_features(attribute: str, n_buckets: int = 8) -> List[str]:
    """Attribute identity plus embedding-bucket features.

    The buckets let similar attribute names land in shared buckets, giving
    the model a soft notion of attribute similarity.
    """
    features = [f"attr={attribute}"]
    vector = hash_embedding(attribute, dim=n_buckets)
    for dimension, value in enumerate(vector):
        if value > 0:
            features.append(f"avec{dimension}+")
    return features


@dataclass
class AdaTagModel:
    """One attribute-conditioned tagger for many attributes."""

    attributes: Tuple[str, ...]
    n_epochs: int = 8
    seed: int = 0
    tagger_: Optional[SequenceTagger] = field(default=None, init=False, repr=False)

    def fit(
        self, products: Sequence[ProductRecord], supervision: str = "gold"
    ) -> "AdaTagModel":
        """Train on the per-attribute expansion of the product corpus."""
        tag = bio_tag_rule(supervision)
        sentences: List[List[str]] = []
        tag_sequences: List[List[str]] = []
        contexts: List[List[str]] = []
        for product in products:
            for text in product.all_texts():
                for attribute in self.attributes:
                    sentences.append(list(text.tokens))
                    tag_sequences.append(tag(text, product, {attribute}))
                    contexts.append(attribute_context_features(attribute))
        self.tagger_ = SequenceTagger(n_epochs=self.n_epochs, seed=self.seed)
        self.tagger_.fit(sentences, tag_sequences, contexts=contexts)
        return self

    def extract(self, product: ProductRecord) -> Dict[str, str]:
        """One conditioned decoding pass per attribute."""
        if self.tagger_ is None:
            raise RuntimeError("model is not fitted")
        found: Dict[str, str] = {}
        for attribute in self.attributes:
            context = attribute_context_features(attribute)
            for text in product.all_texts():
                if attribute in found:
                    break
                for label, value in self.tagger_.extract(list(text.tokens), context):
                    if label == attribute:
                        found[attribute] = value
                        break
        return found

    def evaluate(self, products: Sequence[ProductRecord]) -> Dict[str, BinaryConfusion]:
        """Per-attribute value-level confusion on held-out products."""
        return score_extractions(products, self.attributes, self.extract)

    def micro_f1(self, products: Sequence[ProductRecord]) -> float:
        """Micro-averaged F1 over all attributes."""
        return sum(self.evaluate(products).values(), BinaryConfusion()).f1
