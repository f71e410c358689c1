"""Sequence tagging substrate for OpenTag-style attribute extraction.

OpenTag (Sec. 3.1) casts product attribute-value extraction as named-entity
recognition with BIO tags over product-profile tokens.  The original uses a
BiLSTM-CRF; this reproduction uses an averaged structured perceptron with
Viterbi decoding — the same *model family* (feature-based linear sequence
model with learned transitions), trainable offline on a laptop, which is
what the reproduction needs to exhibit the paper's quality/coverage trends.

The tagger is deliberately generic: TXtract and AdaTag (Sec. 3.3) reuse it
by injecting extra *context features* (product-type buckets, attribute
identity) into every token's feature set.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

OUTSIDE = "O"


@dataclass(frozen=True)
class TaggedToken:
    """A token paired with its BIO tag (e.g. ``("dark", "B-flavor")``)."""

    token: str
    tag: str


class BIO:
    """Helpers to move between tag sequences and attribute-value spans."""

    @staticmethod
    def encode(tokens: Sequence[str], spans: Iterable[Tuple[int, int, str]]) -> List[str]:
        """Encode ``(start, end, label)`` spans (end exclusive) as BIO tags.

        Overlapping spans are resolved first-wins; out-of-range spans raise.
        """
        tags = [OUTSIDE] * len(tokens)
        for start, end, label in spans:
            if start < 0 or end > len(tokens) or start >= end:
                raise ValueError(f"invalid span ({start}, {end}) for {len(tokens)} tokens")
            if any(tags[i] != OUTSIDE for i in range(start, end)):
                continue
            tags[start] = f"B-{label}"
            for position in range(start + 1, end):
                tags[position] = f"I-{label}"
        return tags

    @staticmethod
    def decode(tags: Sequence[str]) -> List[Tuple[int, int, str]]:
        """Decode BIO tags into ``(start, end, label)`` spans (end exclusive).

        Tolerates dangling ``I-`` tags by opening a new span, the common
        convention for noisy decoders.
        """
        spans: List[Tuple[int, int, str]] = []
        start: Optional[int] = None
        label: Optional[str] = None
        for position, tag in enumerate(tags):
            if tag.startswith("B-"):
                if start is not None:
                    spans.append((start, position, label))
                start, label = position, tag[2:]
            elif tag.startswith("I-"):
                current = tag[2:]
                if start is None or current != label:
                    if start is not None:
                        spans.append((start, position, label))
                    start, label = position, current
            else:
                if start is not None:
                    spans.append((start, position, label))
                start, label = None, None
        if start is not None:
            spans.append((start, len(tags), label))
        return spans

    @staticmethod
    def span_values(tokens: Sequence[str], tags: Sequence[str]) -> List[Tuple[str, str]]:
        """Return ``(label, "joined token text")`` for each decoded span."""
        return [
            (label, " ".join(tokens[start:end]))
            for start, end, label in BIO.decode(tags)
        ]


def _word_shape(token: str) -> str:
    shape = []
    for char in token:
        if char.isupper():
            shape.append("X")
        elif char.islower():
            shape.append("x")
        elif char.isdigit():
            shape.append("9")
        else:
            shape.append(char)
    # Collapse runs to keep the feature space small.
    collapsed = []
    for char in shape:
        if not collapsed or collapsed[-1] != char:
            collapsed.append(char)
    return "".join(collapsed)


def default_token_features(tokens: Sequence[str], position: int) -> List[str]:
    """Classic NER feature template: identity, shape, affixes, context."""
    token = tokens[position]
    lowered = token.lower()
    features = [
        f"w={lowered}",
        f"shape={_word_shape(token)}",
        f"suf3={lowered[-3:]}",
        f"pre3={lowered[:3]}",
        f"isdigit={token.isdigit()}",
        f"istitle={token.istitle()}",
    ]
    if position > 0:
        features.append(f"w-1={tokens[position - 1].lower()}")
        features.append(f"w-1,w={tokens[position - 1].lower()}|{lowered}")
    else:
        features.append("BOS")
    if position < len(tokens) - 1:
        features.append(f"w+1={tokens[position + 1].lower()}")
    else:
        features.append("EOS")
    return features


FeatureExtractor = Callable[[Sequence[str], int], List[str]]


@dataclass
class SequenceTagger:
    """Averaged structured perceptron with first-order Viterbi decoding.

    Parameters
    ----------
    feature_extractor:
        Maps ``(tokens, position)`` to a list of string features.  Replace
        to condition the model on product type (TXtract) or attribute
        identity (AdaTag).
    n_epochs:
        Training passes over the data.
    seed:
        Seed for example shuffling.
    """

    feature_extractor: FeatureExtractor = field(default=default_token_features)
    n_epochs: int = 8
    seed: int = 0
    _weights: Dict[Tuple[str, str], float] = field(default_factory=dict, init=False, repr=False)
    _totals: Dict[Tuple[str, str], float] = field(default_factory=dict, init=False, repr=False)
    _timestamps: Dict[Tuple[str, str], int] = field(default_factory=dict, init=False, repr=False)
    _tags: List[str] = field(default_factory=list, init=False)
    _step: int = field(default=0, init=False)

    @property
    def tags(self) -> List[str]:
        """The tag inventory discovered during training."""
        return list(self._tags)

    def fit(
        self,
        sentences: Sequence[Sequence[str]],
        tag_sequences: Sequence[Sequence[str]],
        contexts: Optional[Sequence[Sequence[str]]] = None,
    ) -> "SequenceTagger":
        """Train on parallel token and BIO-tag sequences.

        ``contexts`` optionally supplies sentence-level context features per
        example (e.g. ``["type=Coffee"]``); they are appended to every
        token's features, plus conjoined with the token identity, which is
        how TXtract/AdaTag condition one shared model on task context.
        """
        if len(sentences) != len(tag_sequences):
            raise ValueError("sentences and tag_sequences must be parallel")
        if contexts is not None and len(contexts) != len(sentences):
            raise ValueError("contexts must be parallel to sentences")
        tag_set = {OUTSIDE}
        for tags in tag_sequences:
            tag_set.update(tags)
        self._tags = sorted(tag_set)
        rng = np.random.default_rng(self.seed)
        examples = list(zip(sentences, tag_sequences))
        for _ in range(self.n_epochs):
            order = rng.permutation(len(examples))
            for index in order:
                tokens, gold = examples[index]
                context = tuple(contexts[index]) if contexts is not None else ()
                if len(tokens) != len(gold):
                    raise ValueError("tokens and tags must be parallel")
                if not tokens:
                    continue
                predicted = self._viterbi(tokens, context)
                if list(predicted) != list(gold):
                    self._update(tokens, gold, predicted, context)
                self._step += 1
        self._average()
        return self

    def predict(self, tokens: Sequence[str], context: Sequence[str] = ()) -> List[str]:
        """Viterbi-decode the most probable tag sequence."""
        if not self._tags:
            raise RuntimeError("tagger is not fitted")
        if not tokens:
            return []
        return self._viterbi(tokens, tuple(context))

    def extract(self, tokens: Sequence[str], context: Sequence[str] = ()) -> List[Tuple[str, str]]:
        """Predict tags and decode them into ``(label, value_text)`` pairs."""
        return BIO.span_values(tokens, self.predict(tokens, context))

    # ------------------------------------------------------------------
    # internals

    def _token_features(
        self, tokens: Sequence[str], position: int, context: Tuple[str, ...]
    ) -> List[str]:
        features = self.feature_extractor(tokens, position)
        for context_feature in context:
            features.append(context_feature)
            features.append(f"{context_feature}&w={tokens[position].lower()}")
        return features

    def _score(self, features: List[str], tag: str, previous_tag: str) -> float:
        score = self._weights.get((f"T:{previous_tag}", tag), 0.0)
        for feature in features:
            score += self._weights.get((feature, tag), 0.0)
        return score

    def _viterbi(self, tokens: Sequence[str], context: Tuple[str, ...] = ()) -> List[str]:
        n_tags = len(self._tags)
        n_tokens = len(tokens)
        scores = np.full((n_tokens, n_tags), -np.inf)
        backpointers = np.zeros((n_tokens, n_tags), dtype=int)
        feature_cache = [self._token_features(tokens, i, context) for i in range(n_tokens)]
        for tag_index, tag in enumerate(self._tags):
            scores[0, tag_index] = self._score(feature_cache[0], tag, "<s>")
        for position in range(1, n_tokens):
            features = feature_cache[position]
            emission = np.array(
                [
                    sum(self._weights.get((feature, tag), 0.0) for feature in features)
                    for tag in self._tags
                ]
            )
            for tag_index, tag in enumerate(self._tags):
                transition = np.array(
                    [
                        self._weights.get((f"T:{previous}", tag), 0.0)
                        for previous in self._tags
                    ]
                )
                candidates = scores[position - 1] + transition
                best_previous = int(np.argmax(candidates))
                scores[position, tag_index] = candidates[best_previous] + emission[tag_index]
                backpointers[position, tag_index] = best_previous
        best_final = int(np.argmax(scores[-1]))
        path = [best_final]
        for position in range(n_tokens - 1, 0, -1):
            path.append(int(backpointers[position, path[-1]]))
        path.reverse()
        return [self._tags[tag_index] for tag_index in path]

    def _bump(self, key: Tuple[str, str], delta: float) -> None:
        elapsed = self._step - self._timestamps.get(key, 0)
        self._totals[key] = self._totals.get(key, 0.0) + elapsed * self._weights.get(key, 0.0)
        self._timestamps[key] = self._step
        self._weights[key] = self._weights.get(key, 0.0) + delta

    def _update(
        self,
        tokens: Sequence[str],
        gold: Sequence[str],
        predicted: Sequence[str],
        context: Tuple[str, ...] = (),
    ) -> None:
        previous_gold, previous_predicted = "<s>", "<s>"
        for position, token_features in enumerate(
            self._token_features(tokens, i, context) for i in range(len(tokens))
        ):
            gold_tag, predicted_tag = gold[position], predicted[position]
            if gold_tag != predicted_tag:
                for feature in token_features:
                    self._bump((feature, gold_tag), +1.0)
                    self._bump((feature, predicted_tag), -1.0)
            if (previous_gold, gold_tag) != (previous_predicted, predicted_tag):
                self._bump((f"T:{previous_gold}", gold_tag), +1.0)
                self._bump((f"T:{previous_predicted}", predicted_tag), -1.0)
            previous_gold, previous_predicted = gold_tag, predicted_tag

    def _average(self) -> None:
        """Replace weights with their historical averages (averaged perceptron)."""
        if self._step == 0:
            return
        for key, weight in self._weights.items():
            elapsed = self._step - self._timestamps.get(key, 0)
            total = self._totals.get(key, 0.0) + elapsed * weight
            self._weights[key] = total / self._step
        self._totals = {}
        self._timestamps = defaultdict(int)

