"""Path Ranking Algorithm (PRA) — NELL's knowledge-fusion workhorse.

PRA predicts whether a relation holds between two entities from the
*relation paths* connecting them: e.g. a candidate ``directed_by`` edge is
supported by the path ``stars -> stars^-1 -> directed_by`` (co-actors'
movies share directors far more often than random pairs).  Path signatures
become binary features of a logistic model trained on known edges vs
corrupted negatives; :class:`~repro.ml.logistic.FeatureVocabulary` gives
each signature its column in first-seen order (``paths_`` lists them in
that order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.graph import KnowledgeGraph
from repro.core.query import PathQuery
from repro.ml.logistic import FeatureVocabulary, LogisticRegression

PathSignature = Tuple[Tuple[str, int], ...]


@dataclass
class PathRankingModel:
    """Logistic regression over relation-path features for one relation."""

    relation: str
    max_path_length: int = 3
    max_paths_per_pair: int = 60
    n_negatives_per_positive: int = 2
    seed: int = 0
    paths_: List[PathSignature] = field(default_factory=list, init=False)
    _vocabulary: FeatureVocabulary = field(default_factory=FeatureVocabulary, init=False)
    _model: Optional[LogisticRegression] = field(default=None, init=False, repr=False)

    def fit(self, graph: KnowledgeGraph) -> "PathRankingModel":
        """Train from the graph's existing edges of the target relation."""
        positives = [
            (triple.subject, str(triple.object))
            for triple in graph.query(predicate=self.relation)
            if isinstance(triple.object, str) and graph.has_entity(triple.object)
        ]
        if not positives:
            raise ValueError(f"graph has no {self.relation!r} edges to learn from")
        rng = np.random.default_rng(self.seed)
        negatives = self._corrupt(graph, positives, rng)
        query = PathQuery(graph, max_length=self.max_path_length)
        raw_features = [
            self._pair_paths(query, subject, obj) for subject, obj in positives + negatives
        ]
        labels = [1] * len(positives) + [0] * len(negatives)
        matrix = self._vocabulary.fit(raw_features).transform(raw_features)
        self.paths_ = list(self._vocabulary)
        self._model = LogisticRegression(learning_rate=0.8, n_iterations=300, seed=self.seed)
        self._model.fit(matrix, labels)
        self._graph = graph
        return self

    def score(self, subject: str, obj: str) -> float:
        """Probability that (subject, relation, obj) holds."""
        if self._model is None:
            raise RuntimeError("model is not fitted")
        query = PathQuery(self._graph, max_length=self.max_path_length)
        row = self._vocabulary.transform([self._pair_paths(query, subject, obj)])
        return float(self._model.predict_proba(row)[0, 1])

    def score_pairs(self, pairs: Sequence[Tuple[str, str]]) -> List[float]:
        """Scores for many candidate pairs."""
        return [self.score(subject, obj) for subject, obj in pairs]

    # ------------------------------------------------------------------

    def _pair_paths(
        self, query: PathQuery, subject: str, obj: str
    ) -> Dict[PathSignature, int]:
        """Path signatures between the pair, with the direct edge excluded.

        Excluding the single-hop target relation prevents the model from
        trivially memorizing the edge it is asked to predict.
        """
        signatures: Dict[PathSignature, int] = {}
        for signature in query.relation_paths(subject, obj, max_paths=self.max_paths_per_pair):
            if signature == ((self.relation, 1),):
                continue
            signatures[signature] = signatures.get(signature, 0) + 1
        return signatures

    def _corrupt(
        self,
        graph: KnowledgeGraph,
        positives: Sequence[Tuple[str, str]],
        rng: np.random.Generator,
    ) -> List[Tuple[str, str]]:
        """Negative pairs by corrupting the object side of true edges."""
        objects = sorted({obj for _subject, obj in positives})
        existing = set(positives)
        negatives: List[Tuple[str, str]] = []
        for subject, _obj in positives:
            produced = 0
            attempts = 0
            while produced < self.n_negatives_per_positive and attempts < 20:
                attempts += 1
                candidate = objects[int(rng.integers(0, len(objects)))]
                if (subject, candidate) in existing:
                    continue
                negatives.append((subject, candidate))
                produced += 1
        return negatives
