"""OpenTag-style attribute-value extraction from product profiles.

"We resort to product profiles including product names, descriptions, and
bullets, and train Named Entity Recognition (NER) models to detect patterns
that express a particular attribute. Such models, like OpenTag, serve as
the basis for product knowledge collection." (Sec. 3.1)

Supervision comes in two flavors matching Fig. 5:

* **gold** — human span annotations (metered as manual work in the
  production pipeline);
* **distant** — spans located by matching noisy catalog values against the
  profile text (the automated pipeline), which inherits catalog errors.

The module also owns :func:`score_extractions`, the one value-level scorer
that every tagger of Sec. 3 and both Fig. 5 pipelines report through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.datagen.products import LabeledText, ProductRecord
from repro.ml.metrics import BinaryConfusion
from repro.ml.tagger import BIO, SequenceTagger


def gold_bio_tags(text: LabeledText, attributes: Set[str]) -> List[str]:
    """BIO tags from the generator's gold spans, filtered to ``attributes``."""
    spans = [
        (start, end, attribute)
        for start, end, attribute in text.spans
        if attribute in attributes
    ]
    return BIO.encode(list(text.tokens), spans)


def distant_bio_tags(
    text: LabeledText, catalog_values: Dict[str, str], attributes: Set[str]
) -> List[str]:
    """BIO tags by matching catalog values against the token sequence.

    This is distant supervision in the Fig. 5(b) sense: wrong catalog
    values label wrong spans (or none), and values the catalog lacks go
    unlabeled — the quality/coverage trade the automated pipeline accepts.
    """
    tokens_lower = [token.lower() for token in text.tokens]
    spans: List[Tuple[int, int, str]] = []
    for attribute, value in catalog_values.items():
        if attribute not in attributes:
            continue
        value_tokens = value.lower().split()
        if not value_tokens:
            continue
        for start in range(len(tokens_lower) - len(value_tokens) + 1):
            if tokens_lower[start : start + len(value_tokens)] == value_tokens:
                spans.append((start, start + len(value_tokens), attribute))
                break
    return BIO.encode(list(text.tokens), spans)


def bio_tag_rule(supervision: str) -> Callable[[LabeledText, ProductRecord, Set[str]], List[str]]:
    """The tag rule ``rule(text, product, attributes)`` of ``"gold"`` or ``"distant"``.

    Any other mode raises ``ValueError`` here, before any training.
    """
    if supervision == "gold":
        return lambda text, _product, attributes: gold_bio_tags(text, attributes)
    if supervision == "distant":
        return lambda text, product, attributes: distant_bio_tags(
            text, product.catalog_values, attributes
        )
    raise ValueError(f"unknown supervision mode {supervision!r}")


@dataclass
class OpenTagModel:
    """A sequence tagger over product-profile tokens.

    One instance can cover one attribute or several; TXtract/AdaTag build
    on the same class by passing context features.
    """

    attributes: Tuple[str, ...]
    n_epochs: int = 8
    seed: int = 0
    tagger_: Optional[SequenceTagger] = field(default=None, init=False, repr=False)

    def fit(
        self,
        products: Sequence[ProductRecord],
        supervision: str = "gold",
        contexts: Optional[Sequence[Sequence[str]]] = None,
    ) -> "OpenTagModel":
        """Train on product profiles.

        ``supervision`` is ``"gold"`` (human spans) or ``"distant"``
        (catalog matching).  ``contexts`` supplies per-product context
        features (one list per product; applied to all its texts).
        """
        tag = bio_tag_rule(supervision)
        attribute_set = set(self.attributes)
        sentences: List[List[str]] = []
        tag_sequences: List[List[str]] = []
        context_rows: Optional[List[List[str]]] = [] if contexts is not None else None
        for index, product in enumerate(products):
            for text in product.all_texts():
                sentences.append(list(text.tokens))
                tag_sequences.append(tag(text, product, attribute_set))
                if context_rows is not None:
                    context_rows.append(list(contexts[index]))
        self.tagger_ = SequenceTagger(n_epochs=self.n_epochs, seed=self.seed)
        self.tagger_.fit(sentences, tag_sequences, contexts=context_rows)
        return self

    def extract(
        self, product: ProductRecord, context: Sequence[str] = ()
    ) -> Dict[str, str]:
        """Extract attribute -> value from a product's profile.

        The first prediction per attribute wins (title first, then
        bullets), mirroring profile-priority heuristics in practice.
        """
        if self.tagger_ is None:
            raise RuntimeError("model is not fitted")
        found: Dict[str, str] = {}
        for text in product.all_texts():
            for attribute, value in self.tagger_.extract(list(text.tokens), context):
                if attribute in self.attributes and attribute not in found:
                    found[attribute] = value
        return found

    def evaluate(self, products: Sequence[ProductRecord]) -> Dict[str, BinaryConfusion]:
        """Value-level confusion per attribute against text-mentioned truth."""
        return score_extractions(products, self.attributes, self.extract)

    def micro_f1(self, products: Sequence[ProductRecord]) -> float:
        """Micro-averaged F1 over all attributes."""
        return sum(self.evaluate(products).values(), BinaryConfusion()).f1


def mentioned_attributes(product: ProductRecord) -> Set[str]:
    """Attributes whose true value is present in the product's profile text."""
    return {
        attribute for text in product.all_texts() for _s, _e, attribute in text.spans
    }


def score_extractions(
    products: Sequence[ProductRecord],
    attributes: Sequence[str],
    predict: Callable[[ProductRecord], Mapping[str, str]],
    mentioned_only: bool = True,
) -> Dict[str, BinaryConfusion]:
    """Value-level confusion per attribute of ``predict(product)`` against truth.

    A prediction equal to the true value (case-insensitively) is a true
    positive, any other a false positive; an unpredicted truth is a false
    negative.  With ``mentioned_only`` a truth counts only if the profile
    text mentions it, as no text extractor can recover it otherwise; PAM,
    whose contribution is recovering such values, passes ``False``.
    """
    confusions = {attribute: BinaryConfusion() for attribute in attributes}
    for product in products:
        predicted = predict(product)
        counted = mentioned_attributes(product) if mentioned_only else product.true_values
        for attribute in attributes:
            truth = product.true_values.get(attribute) if attribute in counted else None
            prediction = predicted.get(attribute)
            if prediction is not None and truth is not None and prediction.lower() == truth.lower():
                confusions[attribute] += BinaryConfusion(true_positive=1)
            elif prediction is not None:
                confusions[attribute] += BinaryConfusion(false_positive=1)
            elif truth is not None:
                confusions[attribute] += BinaryConfusion(false_negative=1)
    return confusions


def train_test_split(
    products: Sequence[ProductRecord], test_fraction: float = 0.3, seed: int = 0
) -> Tuple[List[ProductRecord], List[ProductRecord]]:
    """Deterministic shuffled split of a product list."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(products))
    n_test = int(len(products) * test_fraction)
    test_indexes = set(order[:n_test].tolist())
    train = [product for index, product in enumerate(products) if index not in test_indexes]
    test = [product for index, product in enumerate(products) if index in test_indexes]
    return train, test
