"""Tests for data fusion (majority vote and Bayesian ACCU-style)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.store import term_key
from repro.integrate.fusion import AccuFusion, ValueClaim, claims_from_sources, majority_vote
from repro.obs import enabled_scope, reset_all
from repro.obs.lineage import get_ledger
from tests import oracles


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


# Python-equal values of different types (distinct terms), strings that
# print like them, a shared NaN object and fresh ones (each unequal to
# every value, itself included).
_VALUES = st.one_of(
    st.sampled_from([0, 0.0, False, 1, 1.0, True, "1", "a", "b", math.nan]),
    st.builds(float, st.just("nan")),
)
_CLAIM_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["e1", "e2", "e3", "e4"]),
        st.sampled_from(["x", "y"]),
        _VALUES,
        st.sampled_from(["s1", "s2", "s3"]),
    ),
    max_size=30,
)
_ONE_SOURCE = [("e1", "x", 1, "s1"), ("e1", "x", 2, "s1"), ("e2", "x", "a", "s1")]
_ALL_UNCONTESTED = [("e1", "x", 0, "s1"), ("e1", "x", 0.0, "s2"), ("e2", "y", "a", "s2")]
_ALL_CONTESTED = [
    ("e1", "x", "a", "s1"), ("e1", "x", "b", "s2"),
    ("e2", "x", 1, "s3"), ("e2", "x", 2, "s1"), ("e2", "x", 2, "s2"),
]
# One term four ways, with sources repeated inside an item.
_ONE_FOUR_WAYS = [
    ("e1", "x", 1, "s1"), ("e1", "x", 1.0, "s1"), ("e1", "x", True, "s2"),
    ("e1", "x", "1", "s2"), ("e2", "x", True, "s1"), ("e2", "x", 1, "s1"),
    ("e2", "x", 1, "s3"), ("e3", "x", "1", "s3"), ("e3", "x", 1, "s2"),
]


class TestFoldedEMExactness:
    """``fuse`` runs the E-step once per agreement pattern of the contested
    items; the stepwise loop over every item in ``tests/oracles.py`` must
    give the very same floats, winners and ledger."""

    @given(rows=_CLAIM_ROWS, n_iterations=st.integers(min_value=1, max_value=12))
    @example(rows=_ONE_SOURCE, n_iterations=10)
    @example(rows=_ALL_UNCONTESTED, n_iterations=10)
    @example(rows=_ALL_CONTESTED, n_iterations=10)
    @example(rows=_ONE_FOUR_WAYS, n_iterations=10)
    @settings(max_examples=150, deadline=None)
    def test_fuse_equals_the_stepwise_loop(self, rows, n_iterations):
        claims = _claims(rows)
        fusion = AccuFusion(n_iterations=n_iterations)
        results = fusion.fuse(claims)
        expected, accuracy = oracles.accu_fuse_stepwise(
            AccuFusion(n_iterations=n_iterations), claims
        )
        assert results == expected
        assert fusion.source_accuracy_ == accuracy
        assert [type(result.value) for result in results] == [
            type(result.value) for result in expected
        ]
        terms = {}
        for claim in claims:
            terms.setdefault((claim.subject, claim.attribute), set()).add(term_key(claim.value))
        assert fusion.n_contested_items_ == sum(len(item) > 1 for item in terms.values())

    @given(rows=_CLAIM_ROWS)
    @example(rows=_ALL_CONTESTED)
    @example(rows=_ONE_FOUR_WAYS)
    @settings(max_examples=40, deadline=None)
    def test_lineage_ledgers_are_equal(self, rows):
        claims = _claims(rows)
        ledgers = []
        for run in (
            lambda: AccuFusion().fuse(claims),
            lambda: oracles.accu_fuse_stepwise(AccuFusion(), claims),
        ):
            reset_all()
            with enabled_scope():
                run()
                ledgers.append(repr(get_ledger().export_state()))
            reset_all()
        assert ledgers[0] == ledgers[1]


class TestPatterns:
    def test_posterior_runs_once_per_pattern_per_iteration(self, monkeypatch):
        """A feed shaped like the streaming benchmark's — every tenth
        person repeated by a second feed with the birth year off by one —
        has many contested items and one pattern."""
        claims = []
        for index in range(200):
            year = 1900 + index % 90
            claims.append(ValueClaim(f"p{index}", "birth_year", year, "feed-a"))
            claims.append(ValueClaim(f"p{index}", "city", f"c{index % 7}", "feed-a"))
            if index % 10 == 0:
                claims.append(ValueClaim(f"p{index}", "birth_year", year + 1, "feed-b"))
                claims.append(ValueClaim(f"p{index}", "city", f"c{index % 7}", "feed-b"))
        seen = []
        posterior = AccuFusion.posterior

        def counted(self, pattern, accuracy):
            seen.append(pattern)
            return posterior(self, pattern, accuracy)

        monkeypatch.setattr(AccuFusion, "posterior", counted)
        fusion = AccuFusion()
        results = fusion.fuse(claims)
        assert fusion.n_contested_items_ == 20
        assert seen == [(("feed-a", 0), ("feed-b", 1))] * fusion.n_iterations
        assert fusion.source_accuracy_["feed-a"] > fusion.source_accuracy_["feed-b"]
        assert all(
            result.value == 1900 + int(result.subject[1:]) % 90
            for result in results
            if result.attribute == "birth_year"
        )

    def test_one_true_and_two_are_three_candidates(self):
        """``1`` and ``True`` are two terms: three sources claiming ``1``,
        ``True`` and ``2`` tie three ways, and the build keeps exactly the
        winner's triple, of the winner's type."""
        from repro.core.partition import partitioned_pipeline
        from repro.datagen.sources import SourceRecord, StructuredSource

        sources = [
            StructuredSource(
                name=name,
                records=[
                    SourceRecord(
                        f"{name}:1", name, "Person", {"name": "Ada Lovelace", "flag": flag}, "w1"
                    )
                ],
            )
            for name, flag in (("x", 1), ("y", True), ("z", 2))
        ]
        pipeline, context = partitioned_pipeline(sources)
        context = pipeline.run(context, partitions=1)
        (result,) = [
            r for r in context.artifacts["exchange"].fusion_results if r.attribute == "flag"
        ]
        assert (result.value, type(result.value)) == (True, bool)
        assert result.confidence == 1 / 3
        triples = context.artifacts["kg"].query(predicate="flag")
        assert [(t.object, type(t.object)) for t in triples] == [(True, bool)]

    def test_winner_does_not_depend_on_the_hash_seed(self):
        """``1`` and ``"1"`` print alike; candidate order breaks the tie on
        the type name, not on set order."""
        import os
        import subprocess
        import sys

        script = (
            "from repro.integrate.fusion import AccuFusion, ValueClaim\n"
            "claims = [ValueClaim('e', 'a', 1, 'x'), ValueClaim('e', 'a', '1', 'y')]\n"
            "print(repr(AccuFusion().fuse(claims)[0].value))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        winners = set()
        for hash_seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
            completed = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, timeout=120, check=True,
            )
            winners.add(completed.stdout.strip())
        assert winners == {"'1'"}


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
