"""Binary and multinomial logistic regression on numpy, and its featurizer.

Used as the confidence model for distantly-supervised extraction (Sec. 2.3),
as the combiner over PRA path features (Sec. 2.4), as TXtract's product-type
head (Sec. 3.3), and as the read-out layer of the GNN extractors.  The first
three one-hot encode their features (Ceres's node features, PRA's path
signatures, TXtract's title tokens) with :class:`FeatureVocabulary`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, Optional

import numpy as np


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exponentials = np.exp(shifted)
    return exponentials / exponentials.sum(axis=1, keepdims=True)


class FeatureVocabulary:
    """Hashable features -> dense 0/1 indicator rows, one column per feature.

    Columns follow first-seen order in ``fit``; ``transform`` ignores
    features the fit never saw and is at least one column wide.
    """

    def __init__(self) -> None:
        self._index: Dict[Hashable, int] = {}

    def fit(self, feature_lists: Iterable[Iterable[Hashable]]) -> "FeatureVocabulary":
        """Index the features of ``feature_lists``, replacing any earlier fit."""
        self._index = {}
        for features in feature_lists:
            for feature in features:
                self._index.setdefault(feature, len(self._index))
        return self

    def transform(self, feature_lists: Iterable[Iterable[Hashable]]) -> np.ndarray:
        """One indicator row per feature list."""
        feature_lists = list(feature_lists)
        matrix = np.zeros((len(feature_lists), max(len(self._index), 1)))
        for row, features in enumerate(feature_lists):
            for feature in features:
                column = self._index.get(feature)
                if column is not None:
                    matrix[row, column] = 1.0
        return matrix

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[Hashable]:
        """The features in column order."""
        return iter(self._index)

    def __repr__(self) -> str:
        return f"FeatureVocabulary({len(self)} features)"


@dataclass
class LogisticRegression:
    """L2-regularized multinomial logistic regression, batch gradient descent.

    Works for binary problems (two columns of probabilities) and multi-class
    problems alike.  Deterministic given ``seed``.
    """

    learning_rate: float = 0.5
    n_iterations: int = 300
    l2: float = 1e-3
    seed: int = 0
    fit_intercept: bool = True
    weights_: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    n_classes_: int = field(default=0, init=False)

    def _design(self, features: np.ndarray) -> np.ndarray:
        if not self.fit_intercept:
            return features
        return np.hstack([features, np.ones((len(features), 1))])

    def fit(self, features, labels) -> "LogisticRegression":
        """Fit on ``features`` (n x d) and integer ``labels`` in [0, k)."""
        matrix = np.asarray(features, dtype=float)
        targets = np.asarray(labels, dtype=int)
        if matrix.ndim != 2:
            raise ValueError("features must be 2-D")
        if len(matrix) != len(targets):
            raise ValueError("features and labels must be parallel")
        if len(matrix) == 0:
            raise ValueError("cannot fit on zero samples")
        self.n_classes_ = int(targets.max()) + 1
        if self.n_classes_ < 2:
            self.n_classes_ = 2
        design = self._design(matrix)
        n_samples, n_features = design.shape
        rng = np.random.default_rng(self.seed)
        self.weights_ = rng.normal(scale=0.01, size=(n_features, self.n_classes_))
        one_hot = np.zeros((n_samples, self.n_classes_))
        one_hot[np.arange(n_samples), targets] = 1.0
        for _ in range(self.n_iterations):
            probabilities = _softmax(design @ self.weights_)
            gradient = design.T @ (probabilities - one_hot) / n_samples
            gradient += self.l2 * self.weights_
            self.weights_ -= self.learning_rate * gradient
        return self

    def predict_proba(self, features) -> np.ndarray:
        """Class-probability matrix (n x n_classes)."""
        if self.weights_ is None:
            raise RuntimeError("model is not fitted")
        matrix = np.asarray(features, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        return _softmax(self._design(matrix) @ self.weights_)

    def predict(self, features) -> np.ndarray:
        """Most-probable class per row."""
        return np.argmax(self.predict_proba(features), axis=1)

    def decision_scores(self, features) -> np.ndarray:
        """Probability of class 1; convenience for binary problems."""
        return self.predict_proba(features)[:, 1]
