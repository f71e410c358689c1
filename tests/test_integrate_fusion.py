"""Tests for data fusion (majority vote and Bayesian ACCU-style)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.integrate.fusion import AccuFusion, ValueClaim, claims_from_sources, majority_vote


def _claims(spec):
    """spec: list of (subject, attribute, value, source)."""
    return [ValueClaim(*row) for row in spec]


class TestMajorityVote:
    def test_plurality_wins(self):
        results = majority_vote(
            _claims(
                [
                    ("e1", "year", 1999, "a"),
                    ("e1", "year", 1999, "b"),
                    ("e1", "year", 2001, "c"),
                ]
            )
        )
        assert results[0].value == 1999
        assert results[0].confidence == pytest.approx(2 / 3)

    def test_groups_items_independently(self):
        results = majority_vote(
            _claims(
                [
                    ("e1", "year", 1999, "a"),
                    ("e2", "year", 2000, "a"),
                ]
            )
        )
        assert len(results) == 2

    def test_deterministic_tie_break(self):
        first = majority_vote(_claims([("e", "x", "a", "s1"), ("e", "x", "b", "s2")]))
        second = majority_vote(_claims([("e", "x", "b", "s2"), ("e", "x", "a", "s1")]))
        assert first[0].value == second[0].value


class TestAccuFusion:
    def test_accurate_source_outvotes_sloppy_majority(self):
        """A careful source beats two sloppy ones on conflicted items —
        provided other items supply independent evidence of who errs.

        Items 0-19: good+ok sources agree on the truth while the bad pair
        disagree (each with its own junk), exposing the bad pair's
        inaccuracy.  Items 20-29: good (1 vote) vs bad pair agreeing
        (2 votes) — learned accuracies must override the raw count."""
        claims = []
        for item in range(20):
            claims.append(ValueClaim(f"e{item}", "a", "truth", "good"))
            claims.append(ValueClaim(f"e{item}", "a", "truth", "ok1"))
            claims.append(ValueClaim(f"e{item}", "a", "truth", "ok2"))
            claims.append(ValueClaim(f"e{item}", "a", f"junk{item}", "bad1"))
            claims.append(ValueClaim(f"e{item}", "a", f"junk{item}x", "bad2"))
        for item in range(20, 30):
            claims.append(ValueClaim(f"e{item}", "a", "truth", "good"))
            claims.append(ValueClaim(f"e{item}", "a", "junk", "bad1"))
            claims.append(ValueClaim(f"e{item}", "a", "junk", "bad2"))
        fusion = AccuFusion(n_iterations=15)
        results = {r.subject: r for r in fusion.fuse(claims)}
        wins = sum(1 for item in range(20, 30) if results[f"e{item}"].value == "truth")
        assert wins >= 8

    def test_source_accuracy_learned(self):
        """Accuracy estimation needs corroboration: a witness source tips
        the conflicted items, and EM propagates that into accuracies."""
        claims = []
        for item in range(30):
            claims.append(ValueClaim(f"e{item}", "a", "v", "reliable"))
            claims.append(ValueClaim(f"e{item}", "a", "v", "witness"))
            value = "v" if item % 3 else "junk"
            claims.append(ValueClaim(f"e{item}", "a", value, "flaky"))
        fusion = AccuFusion()
        fusion.fuse(claims)
        assert fusion.source_accuracy_["reliable"] > fusion.source_accuracy_["flaky"]

    def test_confidences_normalized_per_item(self):
        claims = _claims(
            [
                ("e1", "x", "a", "s1"),
                ("e1", "x", "b", "s2"),
                ("e1", "x", "a", "s3"),
            ]
        )
        results = AccuFusion().fuse(claims)
        assert len(results) == 1
        assert 0.0 < results[0].confidence <= 1.0

    def test_empty_claims(self):
        assert AccuFusion().fuse([]) == []

    def test_estimate_equals_numpy_clip(self):
        """The M-step clip is bit-identical to ``np.clip`` at, below and
        above both bounds; a source with no claims keeps the prior."""
        fusion = AccuFusion()
        lo, hi = fusion.min_accuracy, fusion.max_accuracy
        for mass, count in [
            (lo, 1), (hi, 1),  # at each bound
            (0.0, 3), (lo / 2, 1), (lo * 4 - 1e-12, 4), (1e-300, 1),  # below lo
            (0.5, 1), (1.0, 3), (lo * 4, 4), (hi * 7, 7),  # between (or rounding onto one)
            (7.0, 7), (hi * 7 + 1e-9, 7), (5.0, 2),  # above hi
        ]:
            estimate = fusion.estimate(mass, count)
            assert type(estimate) is float
            assert estimate == float(np.clip(mass / count, lo, hi)), (mass, count)
        assert fusion.estimate(2.5, 0) == fusion.initial_accuracy

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["e1", "e2"]),
                st.sampled_from(["attr"]),
                st.sampled_from(["u", "v", "w"]),
                st.sampled_from(["s1", "s2", "s3"]),
            ),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_fused_value_always_among_claims(self, rows):
        claims = _claims(rows)
        claimed = {}
        for claim in claims:
            claimed.setdefault((claim.subject, claim.attribute), set()).add(claim.value)
        for result in AccuFusion(n_iterations=4).fuse(claims):
            assert result.value in claimed[(result.subject, result.attribute)]
            assert 0.0 < result.confidence <= 1.0


class TestClaimsFromSources:
    def test_builds_claims_with_canonical_attributes(self, small_world):
        from repro.datagen.sources import conflicting_sources

        sources = conflicting_sources(small_world, n_sources=3, seed=31)
        claims = claims_from_sources(sources, attributes=("release_year", "genre"))
        assert claims
        assert {claim.attribute for claim in claims} <= {"release_year", "genre"}

    def test_fusion_beats_single_worst_source(self, small_world):
        from repro.datagen.sources import conflicting_sources

        sources = conflicting_sources(
            small_world, n_sources=5, base_accuracy=(0.97, 0.95, 0.9, 0.7, 0.55), seed=33
        )
        claims = claims_from_sources(sources, attributes=("release_year",))
        results = AccuFusion().fuse(claims)
        correct = sum(
            1
            for result in results
            if small_world.truth.objects(result.subject, "release_year")
            and result.value == small_world.truth.objects(result.subject, "release_year")[0]
        )
        assert correct / len(results) > 0.9
