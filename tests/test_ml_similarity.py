"""Tests for repro.ml.similarity."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.ml.similarity import (
    _sorted_forms_similarity,
    feature_vector,
    jaccard,
    jaro_winkler,
    levenshtein,
    levenshtein_similarity,
    monge_elkan,
    name_forms,
    numeric_similarity,
    set_containment,
    token_jaccard,
    token_sort_similarity,
    tokenize,
    value_similarity,
)
from tests import oracles

text_strategy = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x24F),
    max_size=20,
)

# Arbitrary unicode (non-BMP included), plus a tiny alphabet so that long
# strings with many repeated characters — several machine words of
# bit-vector, carries crossing every word boundary — are common.
oracle_text_strategy = st.one_of(
    st.text(max_size=150),
    st.text(alphabet="ab \U0001F600", max_size=300),
)


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("kitten", "kitten") == 0

    def test_classic_example(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_empty_sides(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_similarity_normalized(self):
        assert levenshtein_similarity("abcd", "abcd") == 1.0
        assert levenshtein_similarity("", "") == 1.0
        assert 0.0 <= levenshtein_similarity("abcd", "wxyz") <= 1.0

    @given(text_strategy, text_strategy)
    def test_symmetry(self, left, right):
        assert levenshtein(left, right) == levenshtein(right, left)

    @given(text_strategy, text_strategy, text_strategy)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(text_strategy, text_strategy)
    def test_bounded_by_longest(self, left, right):
        assert levenshtein(left, right) <= max(len(left), len(right))

    @given(oracle_text_strategy, oracle_text_strategy)
    @example("", "")
    @example("", "a" * 65)
    @example("a" * 64, "a" * 65)
    @example("ab" * 70, "ba" * 70)
    @example("a" * 129, "b" * 129)
    @example("\U0001F600" * 130 + "x", "x" + "\U0001F600" * 130)
    def test_equals_dp_oracle(self, left, right):
        assert levenshtein(left, right) == oracles.levenshtein(left, right)


class TestTokenMeasures:
    def test_tokenize_lowercases_and_splits(self):
        assert tokenize("Dark-Roast 12oz!") == ["dark", "roast", "12oz"]

    def test_jaccard_identical(self):
        assert jaccard([1, 2], [2, 1]) == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard([1], [2]) == 0.0

    def test_jaccard_both_empty(self):
        assert jaccard([], []) == 1.0

    def test_token_jaccard(self):
        assert token_jaccard("green tea", "tea green") == 1.0

    def test_token_sort_handles_reordering(self):
        assert token_sort_similarity("Dong, Xin Luna", "Xin Luna Dong") == 1.0

    def test_name_forms_are_tokens_and_sorted_string(self):
        assert name_forms("Dong, Xin Luna") == (("dong", "xin", "luna"), "dong luna xin")
        assert name_forms("") == ((), "")

    @given(oracle_text_strategy, oracle_text_strategy)
    def test_token_sort_equals_oracle(self, left, right):
        assert token_sort_similarity(left, right) == oracles.token_sort_similarity(left, right)

    @given(oracle_text_strategy, oracle_text_strategy)
    @example("Xin Luna Dong", "Dong Xin")
    def test_token_sort_memo_is_symmetric_and_exact(self, left, right):
        """Both argument orders share one memo entry holding the oracle's
        float, and a cleared memo recomputes the same float."""
        expected = oracles.token_sort_similarity(left, right)
        assert expected == oracles.token_sort_similarity(right, left)
        for _ in range(2):
            assert token_sort_similarity(left, right) == expected
            assert token_sort_similarity(right, left) == expected
            _sorted_forms_similarity.cache_clear()
            assert token_sort_similarity(right, left) == expected
            hits = _sorted_forms_similarity.cache_info().hits
            assert token_sort_similarity(left, right) == expected
            assert _sorted_forms_similarity.cache_info().hits == hits + 1

    def test_set_containment(self):
        assert set_containment([1, 2], [1, 2, 3]) == 1.0
        assert set_containment([1, 2], [1]) == 0.5
        assert set_containment([], [1]) == 1.0


class TestJaroWinkler:
    def test_identical(self):
        assert jaro_winkler("martha", "martha") == 1.0

    def test_known_pair_is_high(self):
        assert jaro_winkler("martha", "marhta") > 0.94

    def test_empty(self):
        assert jaro_winkler("", "abc") == 0.0

    def test_prefix_boost(self):
        with_prefix = jaro_winkler("prefixed", "prefixxy")
        reversed_form = jaro_winkler("dexiferp", "yxxiferp")
        assert with_prefix >= reversed_form

    @given(text_strategy, text_strategy)
    def test_bounded(self, left, right):
        assert 0.0 <= jaro_winkler(left, right) <= 1.0


class TestMongeElkan:
    def test_identical_tokens(self):
        assert monge_elkan("luna dong", "dong luna") > 0.9

    def test_empty_both(self):
        assert monge_elkan("", "") == 1.0

    def test_one_empty(self):
        assert monge_elkan("abc", "") == 0.0

    def test_asymmetric_so_memo_keys_keep_argument_order(self):
        # The jaro_winkler memo may never canonicalise (left, right): the
        # measure averages over the *left* tokens only.
        assert monge_elkan("a b", "a") == 0.5
        assert monge_elkan("a", "a b") == 1.0

    @given(oracle_text_strategy, oracle_text_strategy)
    def test_equals_unmemoized_oracle(self, left, right):
        assert monge_elkan(left, right) == oracles.monge_elkan(left, right)


class TestNumericAndDispatch:
    def test_numeric_equal(self):
        assert numeric_similarity(1999, 1999) == 1.0

    def test_numeric_decay(self):
        assert numeric_similarity(1999, 2000) == pytest.approx(0.5)

    def test_numeric_missing(self):
        assert numeric_similarity(None, 3) == 0.0

    def test_numeric_non_numeric(self):
        assert numeric_similarity("abc", 3) == 0.0

    def test_value_similarity_dispatch_numeric(self):
        assert value_similarity(5, 5) == 1.0

    def test_value_similarity_dispatch_lists(self):
        assert value_similarity(["a"], ["a"]) == 1.0

    def test_value_similarity_none(self):
        assert value_similarity(None, "x") == 0.0

    def test_value_similarity_strings(self):
        assert value_similarity("The Silent River", "Silent River, The") > 0.7


class TestFeatureVector:
    def test_length_is_attributes_plus_missing_indicator(self):
        features = feature_vector({"name": "a"}, {"name": "a"}, ["name", "year"])
        assert len(features) == 3

    def test_missing_fraction(self):
        features = feature_vector({"name": "a"}, {"year": 2}, ["name", "year"])
        assert features[-1] == 1.0

    def test_identical_records_score_high(self):
        record = {"name": "Silent River", "year": 1987}
        features = feature_vector(record, dict(record), ["name", "year"])
        assert features[0] == pytest.approx(1.0)
        assert features[1] == pytest.approx(1.0)
