"""AutoML-style hyper-parameter search.

Figure 5(b) replaces hand tuning with an "AutoML pipeline ... to reduce model
fine tuning efforts and enable non ML-savvies to tune the models".  This
module provides a deterministic grid search with cross-validation that the
automated product-extraction pipeline plugs in where Fig. 5(a) had a human
fine-tuning step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Sequence

import numpy as np

from repro.ml.metrics import accuracy


@dataclass(frozen=True)
class SearchResult:
    """One evaluated configuration with its cross-validated score."""

    params: Dict[str, object]
    score: float


@dataclass
class GridSearch:
    """Exhaustive grid search with k-fold cross-validation.

    Parameters
    ----------
    model_factory:
        Callable taking keyword hyper-parameters and returning an unfitted
        model with ``fit`` / ``predict``.
    grid:
        Mapping from hyper-parameter name to the values to try.
    scorer:
        ``scorer(y_true, y_pred) -> float`` (higher is better); defaults to
        accuracy.
    n_folds:
        Cross-validation folds (capped by sample count).
    """

    model_factory: Callable[..., object]
    grid: Mapping[str, Sequence[object]]
    scorer: Callable[[Sequence, Sequence], float] = accuracy
    n_folds: int = 3
    seed: int = 0
    results_: List[SearchResult] = field(default_factory=list, init=False)

    def _configurations(self) -> Iterable[Dict[str, object]]:
        names = sorted(self.grid)
        for values in itertools.product(*(self.grid[name] for name in names)):
            yield dict(zip(names, values))

    def fit(self, features, labels) -> object:
        """Search the grid, then refit the best configuration on all data."""
        matrix = np.asarray(features, dtype=float)
        targets = np.asarray(labels)
        if len(matrix) != len(targets):
            raise ValueError("features and labels must be parallel")
        folds = self._folds(len(matrix))
        self.results_ = []
        for params in self._configurations():
            fold_scores = []
            for held_out in range(len(folds)):
                test_index = folds[held_out]
                train_index = np.concatenate(
                    [folds[i] for i in range(len(folds)) if i != held_out]
                )
                model = self.model_factory(**params)
                model.fit(matrix[train_index], targets[train_index])
                predictions = model.predict(matrix[test_index])
                fold_scores.append(self.scorer(list(targets[test_index]), list(predictions)))
            self.results_.append(SearchResult(params=params, score=float(np.mean(fold_scores))))
        self.results_.sort(key=lambda result: -result.score)
        best = self.results_[0]
        model = self.model_factory(**best.params)
        model.fit(matrix, targets)
        return model

    @property
    def best_params_(self) -> Dict[str, object]:
        """Hyper-parameters of the winning configuration."""
        if not self.results_:
            raise RuntimeError("search has not been run")
        return self.results_[0].params

    @property
    def best_score_(self) -> float:
        """Cross-validated score of the winning configuration."""
        if not self.results_:
            raise RuntimeError("search has not been run")
        return self.results_[0].score

    def _folds(self, n_samples: int) -> List[np.ndarray]:
        rng = np.random.default_rng(self.seed)
        permutation = rng.permutation(n_samples)
        n_folds = min(self.n_folds, n_samples)
        return [fold for fold in np.array_split(permutation, n_folds) if len(fold)]
