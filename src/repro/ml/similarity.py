"""String and value similarity functions.

These are the attribute-wise similarity *features* behind the random-forest
entity-linkage models of Sec. 2.2 / Fig. 2: each candidate entity pair is
described by one similarity score per shared attribute, and a tree ensemble
learns the decision surface over those scores.

They are also the scoring kernel under
:func:`repro.core.partition.pair_score`, the cost centre of every build, so
the three hot pieces are built for that call pattern without changing a
single returned float: :func:`levenshtein` is the exact bit-parallel
(Myers/Hyyrö) algorithm, :func:`name_forms` tokenizes and token-sorts each
distinct name once, and :func:`jaro_winkler` is memoized on its *ordered*
arguments.  Both memos are fixed-size ``functools.lru_cache`` wrappers on
pure string functions, so a hit returns the very float a miss would compute
(DESIGN.md §7).
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Dict, Iterable, Optional, Sequence, Tuple

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list:
    """Lowercase alphanumeric tokenization used by all token-based measures."""
    return _TOKEN_PATTERN.findall(text.lower())


@lru_cache(maxsize=4096)
def name_forms(text: str) -> Tuple[Tuple[str, ...], str]:
    """``(tokens, token-sorted string)`` of a name, computed once per name.

    Linkage scores every record against many candidates, so the same name
    is compared again and again; its forms are a pure function of the
    string and are shared by :func:`token_sort_similarity` and
    :func:`monge_elkan`.  (Blocking sees each name once and needs no sorted
    form, so it stays on :func:`tokenize`.)
    """
    tokens = tuple(tokenize(text))
    return tokens, " ".join(sorted(tokens))


def levenshtein(left: str, right: str) -> int:
    """Exact edit distance (insert/delete/substitute, unit costs).

    Bit-parallel (Myers 1999, in Hyyrö's 2003 edit-distance form): one
    column of the DP matrix is held as its vertical differences — bit ``i``
    of ``plus``/``minus`` says whether cell ``i+1`` is one more/one less
    than cell ``i`` — and a whole column is advanced with a dozen integer
    operations instead of one ``min`` per cell.  Python's ints are
    unbounded, so there is no 64-character block case; the result is the
    same integer the row-by-row DP gives (``tests/oracles.py`` keeps that
    DP as the reference).
    """
    if left == right:
        return 0
    # The longer string becomes the bit-vector, the loop runs over the
    # shorter one: fewer Python-level iterations for the same matrix.
    if len(left) < len(right):
        left, right = right, left
    if not right:
        return len(left)
    positions: Dict[str, int] = {}  # char -> bit set of its rows in ``left``
    bit = 1
    for char in left:
        positions[char] = positions.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    plus, minus = mask, 0  # column 0 is 0, 1, 2, ..., len(left)
    lookup = positions.get
    for char in right:
        match = lookup(char, 0) | minus
        diagonal = (((match & plus) + plus) ^ plus) | match
        # Horizontal +1 differences, shifted down one row; the low 1 is
        # row 0 of the matrix, which grows by one per column.
        across = ((minus | ~(plus | diagonal)) << 1) | 1
        minus = across & diagonal
        plus = (((plus & diagonal) << 1) | ~(across | diagonal)) & mask
    # Top cell of the last column is len(right); walk down its differences.
    return len(right) + bin(plus).count("1") - bin(minus & mask).count("1")


def levenshtein_similarity(left: str, right: str) -> float:
    """Edit distance normalized to a [0, 1] similarity (1.0 = identical)."""
    if not left and not right:
        return 1.0
    longest = max(len(left), len(right))
    return 1.0 - levenshtein(left, right) / longest


def jaccard(left: Iterable, right: Iterable) -> float:
    """Set-overlap similarity; accepts any iterables of hashables."""
    left_set, right_set = set(left), set(right)
    if not left_set and not right_set:
        return 1.0
    union = left_set | right_set
    if not union:
        return 1.0
    return len(left_set & right_set) / len(union)


def token_jaccard(left: str, right: str) -> float:
    """Jaccard similarity over alphanumeric tokens of the two strings."""
    return jaccard(tokenize(left), tokenize(right))


def token_sort_similarity(left: str, right: str) -> float:
    """Edit similarity after sorting tokens; robust to word reordering.

    ``"Dong, Xin Luna"`` vs ``"Xin Luna Dong"`` scores 1.0.
    """
    return levenshtein_similarity(name_forms(left)[1], name_forms(right)[1])


def _jaro(left: str, right: str) -> float:
    if left == right:
        return 1.0
    len_left, len_right = len(left), len(right)
    if len_left == 0 or len_right == 0:
        return 0.0
    match_window = max(len_left, len_right) // 2 - 1
    match_window = max(match_window, 0)
    left_matched = [False] * len_left
    right_matched = [False] * len_right
    matches = 0
    for i, char in enumerate(left):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len_right)
        for j in range(start, end):
            if right_matched[j] or right[j] != char:
                continue
            left_matched[i] = True
            right_matched[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len_left):
        if not left_matched[i]:
            continue
        while not right_matched[j]:
            j += 1
        if left[i] != right[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len_left + matches / len_right + (matches - transpositions) / matches
    ) / 3.0


@lru_cache(maxsize=16384)
def jaro_winkler(left: str, right: str, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler similarity: Jaro boosted for shared prefixes (<= 4 chars).

    Memoized on the arguments *in order*.  :func:`monge_elkan` asks for the
    same few thousand token pairs tens of thousands of times per build, and
    it is asymmetric in its arguments, so the key is never canonicalised.
    """
    jaro = _jaro(left, right)
    prefix_length = 0
    for left_char, right_char in zip(left[:4], right[:4]):
        if left_char != right_char:
            break
        prefix_length += 1
    return jaro + prefix_length * prefix_scale * (1.0 - jaro)


def monge_elkan(left: str, right: str) -> float:
    """Monge-Elkan similarity: for each left token, best Jaro-Winkler match
    among right tokens, averaged.  Suits multi-token names with local typos.
    """
    left_tokens = name_forms(left)[0]
    right_tokens = name_forms(right)[0]
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    total = 0.0
    for left_token in left_tokens:
        total += max(jaro_winkler(left_token, right_token) for right_token in right_tokens)
    return total / len(left_tokens)


def numeric_similarity(left: Optional[float], right: Optional[float]) -> float:
    """Similarity for numeric attributes (years, runtimes, prices).

    Defined as ``1 / (1 + |left - right|)`` so that equal values score 1 and
    the score decays smoothly with the absolute difference.  Missing values
    score 0.
    """
    if left is None or right is None:
        return 0.0
    try:
        difference = abs(float(left) - float(right))
    except (TypeError, ValueError):
        return 0.0
    if math.isnan(difference):
        return 0.0
    return 1.0 / (1.0 + difference)


def set_containment(left: Iterable, right: Iterable) -> float:
    """|left ∩ right| / |left| — how much of ``left`` is explained by ``right``."""
    left_set, right_set = set(left), set(right)
    if not left_set:
        return 1.0
    return len(left_set & right_set) / len(left_set)


def value_similarity(left, right) -> float:
    """Dispatch similarity by value type; the default feature for linkage.

    Numeric pairs use :func:`numeric_similarity`; strings use a blend of
    character-level and token-level similarity; sequences use Jaccard.
    """
    if left is None or right is None:
        return 0.0
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return numeric_similarity(left, right)
    if isinstance(left, (list, tuple, set, frozenset)) and isinstance(
        right, (list, tuple, set, frozenset)
    ):
        return jaccard(left, right)
    left_text, right_text = str(left), str(right)
    blended = 0.5 * token_sort_similarity(left_text, right_text) + 0.5 * jaro_winkler(
        left_text.lower(), right_text.lower()
    )
    return blended


def feature_vector(
    left_record: dict, right_record: dict, attributes: Sequence[str]
) -> list:
    """Attribute-wise similarity features for a candidate record pair.

    Returns one float per attribute in ``attributes`` plus a trailing
    missing-value indicator count, matching the feature design described for
    the Fig. 2 linkage models (tree models take attribute-wise value
    similarities as features).
    """
    features = []
    missing = 0
    for attribute in attributes:
        left_value = left_record.get(attribute)
        right_value = right_record.get(attribute)
        if left_value is None or right_value is None:
            missing += 1
            features.append(0.0)
        else:
            features.append(value_similarity(left_value, right_value))
    features.append(float(missing) / max(len(attributes), 1))
    return features
