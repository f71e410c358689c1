"""Tests for logistic regression."""

import numpy as np
import pytest

from repro.ml.logistic import FeatureVocabulary, LogisticRegression


def _separable(n=150, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 2))
    labels = (features[:, 0] + features[:, 1] > 0).astype(int)
    return features, labels


class TestLogisticRegression:
    def test_learns_separable_data(self):
        features, labels = _separable()
        model = LogisticRegression(n_iterations=200).fit(features, labels)
        accuracy = float(np.mean(model.predict(features) == labels))
        assert accuracy > 0.95

    def test_probabilities_normalized(self):
        features, labels = _separable()
        model = LogisticRegression().fit(features, labels)
        probabilities = model.predict_proba(features)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_decision_scores_class_one(self):
        features, labels = _separable()
        model = LogisticRegression().fit(features, labels)
        scores = model.decision_scores(features)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_multiclass(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(300, 2))
        labels = np.argmax(
            np.stack([features[:, 0], features[:, 1], -features.sum(axis=1)]), axis=0
        )
        model = LogisticRegression(n_iterations=400).fit(features, labels)
        accuracy = float(np.mean(model.predict(features) == labels))
        assert accuracy > 0.85

    def test_single_row(self):
        features, labels = _separable()
        model = LogisticRegression().fit(features, labels)
        assert model.predict_proba(features[0]).shape == (1, 2)

    def test_deterministic(self):
        features, labels = _separable(seed=4)
        first = LogisticRegression(seed=3).fit(features, labels)
        second = LogisticRegression(seed=3).fit(features, labels)
        assert np.allclose(first.weights_, second.weights_)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((0, 2)), [])

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((3, 2)), [0, 1])

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict_proba([[0.0, 0.0]])

    def test_intercept_handles_shifted_data(self):
        rng = np.random.default_rng(8)
        features = rng.normal(loc=5.0, size=(200, 1))
        labels = (features[:, 0] > 5.0).astype(int)
        model = LogisticRegression(learning_rate=0.2, n_iterations=1000).fit(features, labels)
        accuracy = float(np.mean(model.predict(features) == labels))
        assert accuracy > 0.9


class TestFeatureVocabulary:
    def test_columns_in_first_seen_order(self):
        vocabulary = FeatureVocabulary().fit([["b", "a"], ["c", "a"], [("path", 1)]])
        assert list(vocabulary) == ["b", "a", "c", ("path", 1)]
        matrix = vocabulary.transform([["a", "c"]])
        assert matrix.tolist() == [[0.0, 1.0, 1.0, 0.0]]

    def test_transform_ignores_unseen_features(self):
        vocabulary = FeatureVocabulary().fit([["x", "y"]])
        matrix = vocabulary.transform([["y", "never-seen"], []])
        assert matrix.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    def test_empty_fit_is_one_column_wide(self):
        vocabulary = FeatureVocabulary().fit([])
        assert len(vocabulary) == 0
        assert vocabulary.transform([["x"], []]).shape == (2, 1)
        assert not vocabulary.transform([["x"]]).any()

    def test_refit_replaces_the_columns(self):
        vocabulary = FeatureVocabulary().fit([["a", "b"]])
        vocabulary.fit([["c"]])
        assert list(vocabulary) == ["c"]
