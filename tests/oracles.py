"""Reference implementations the production kernels are tested against.

Slow, obvious, and memo-free on purpose: the row-by-row Levenshtein DP that
``repro.ml.similarity.levenshtein`` used to be, and ``pair_score`` composed
from it with every name re-tokenized and every token pair re-scored.
"""

from repro.ml.similarity import jaro_winkler, numeric_similarity, tokenize

_jaro_winkler = jaro_winkler.__wrapped__  # the function under the memo


def levenshtein(left: str, right: str) -> int:
    """Classic edit distance, one DP cell per character pair."""
    previous = list(range(len(left) + 1))
    for row, right_char in enumerate(right, start=1):
        current = [row]
        for col, left_char in enumerate(left, start=1):
            substitution_cost = 0 if left_char == right_char else 1
            current.append(
                min(
                    previous[col] + 1,  # deletion
                    current[col - 1] + 1,  # insertion
                    previous[col - 1] + substitution_cost,
                )
            )
        previous = current
    return previous[-1]


def token_sort_similarity(left: str, right: str) -> float:
    left_sorted = " ".join(sorted(tokenize(left)))
    right_sorted = " ".join(sorted(tokenize(right)))
    if not left_sorted and not right_sorted:
        return 1.0
    longest = max(len(left_sorted), len(right_sorted))
    return 1.0 - levenshtein(left_sorted, right_sorted) / longest


def monge_elkan(left: str, right: str) -> float:
    left_tokens, right_tokens = tokenize(left), tokenize(right)
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    total = 0.0
    for left_token in left_tokens:
        total += max(_jaro_winkler(left_token, right_token) for right_token in right_tokens)
    return total / len(left_tokens)


def pair_score(left, right) -> float:
    """``repro.core.partition.pair_score`` from the oracles above."""
    if left.entity_class != right.entity_class:
        return 0.0
    name_sim = 0.5 * token_sort_similarity(left.name, right.name) + 0.5 * monge_elkan(
        left.name, right.name
    )
    for attribute in ("release_year", "birth_year"):
        left_year, right_year = left.fields.get(attribute), right.fields.get(attribute)
        if left_year is not None and right_year is not None:
            return 0.75 * name_sim + 0.25 * numeric_similarity(left_year, right_year)
    return name_sim
