"""Data fusion: resolving conflicting values across sources (Sec. 2.2/2.4).

"Data fusion decides among different, and possibly conflicting values,
which are correct and up-to-date values."

Two resolvers are provided:

* :func:`majority_vote` — the baseline: most-claimed value wins;
* :class:`AccuFusion` — Bayesian accuracy-weighted fusion in the style of
  the ACCU family the author's fusion survey [20] covers: source accuracies
  and value probabilities are estimated jointly by EM, so a careful source
  outvotes three sloppy ones.  The learned source accuracies are also the
  substrate for Knowledge-Based Trust (:mod:`repro.fuse.kbt`).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.parallel import pmap
from repro.core.triple import Value
from repro.obs import lineage as obs_lineage
from repro.obs import metrics as obs_metrics
from repro.obs.profiling import profiled


@dataclass(frozen=True)
class ValueClaim:
    """One source's claim about one data item.

    A *data item* is a (subject, attribute) slot; the claim asserts a value
    for it.
    """

    subject: str
    attribute: str
    value: Value
    source: str


@dataclass(frozen=True)
class FusionResult:
    """The fused decision for one data item."""

    subject: str
    attribute: str
    value: Value
    confidence: float
    n_claims: int


def _group_claims(
    claims: Iterable[ValueClaim],
) -> Dict[Tuple[str, str], List[ValueClaim]]:
    grouped: Dict[Tuple[str, str], List[ValueClaim]] = defaultdict(list)
    for claim in claims:
        grouped[(claim.subject, claim.attribute)].append(claim)
    return grouped


def _vote_one_item(
    entry: Tuple[Tuple[str, str], List[ValueClaim]],
) -> FusionResult:
    """Resolve one (subject, attribute) group by plurality."""
    (subject, attribute), item_claims = entry
    votes: Dict[Value, int] = defaultdict(int)
    for claim in item_claims:
        votes[claim.value] += 1
    value, count = max(votes.items(), key=lambda item: (item[1], str(item[0])))
    return FusionResult(
        subject=subject,
        attribute=attribute,
        value=value,
        confidence=count / len(item_claims),
        n_claims=len(item_claims),
    )


@profiled("fusion.majority_vote")
def majority_vote(claims: Iterable[ValueClaim]) -> List[FusionResult]:
    """Most-claimed value per data item; confidence = vote share.

    Groups are independent, so per-item resolution fans out through
    :func:`repro.core.parallel.pmap`; the sorted grouping fixes result
    order in every mode.
    """
    return pmap(_vote_one_item, sorted(_group_claims(claims).items()))


@dataclass
class AccuFusion:
    """Bayesian fusion with EM-estimated source accuracies.

    Model: each data item has one true value; a source reports the truth
    with probability ``accuracy(source)`` and otherwise picks uniformly
    among ``n_distractors`` wrong values.  EM alternates between value
    posteriors given accuracies and accuracy estimates given posteriors.
    """

    n_distractors: int = 10
    n_iterations: int = 10
    initial_accuracy: float = 0.8
    min_accuracy: float = 0.05
    max_accuracy: float = 0.99
    source_accuracy_: Dict[str, float] = field(default_factory=dict, init=False)

    @profiled("fusion.accu")
    def fuse(self, claims: Sequence[ValueClaim]) -> List[FusionResult]:
        """Run EM and return the fused value per data item."""
        obs_metrics.count("fusion.claims", len(claims))
        grouped = _group_claims(claims)
        obs_metrics.count("fusion.data_items", len(grouped))
        sources = sorted({claim.source for claim in claims})
        accuracy = {source: self.initial_accuracy for source in sources}
        items = list(grouped.items())
        posteriors: Dict[Tuple[str, str], Dict[Value, float]] = {}
        for _ in range(self.n_iterations):
            # E-step: value posteriors per item — items are independent
            # given the accuracies, so the per-item computation fans out
            # through pmap (order-preserved, results zip back to items).
            item_posteriors = pmap(
                partial(_accu_item_posterior, self.n_distractors, accuracy),
                [item_claims for _, item_claims in items],
            )
            posteriors = {
                item: posterior
                for (item, _), posterior in zip(items, item_posteriors)
            }
            # M-step: source accuracies from expected correctness.
            totals: Dict[str, float] = defaultdict(float)
            counts: Dict[str, int] = defaultdict(int)
            for item, item_claims in grouped.items():
                posterior = posteriors[item]
                for claim in item_claims:
                    totals[claim.source] += posterior.get(claim.value, 0.0)
                    counts[claim.source] += 1
            for source in sources:
                if counts[source]:
                    estimate = totals[source] / counts[source]
                    accuracy[source] = float(
                        np.clip(estimate, self.min_accuracy, self.max_accuracy)
                    )
        self.source_accuracy_ = dict(accuracy)
        results = []
        n_rejected = 0
        record_lineage = obs_lineage.lineage_enabled()
        for (subject, attribute), posterior in sorted(posteriors.items()):
            value, probability = max(
                posterior.items(), key=lambda item: (item[1], str(item[0]))
            )
            results.append(
                FusionResult(
                    subject=subject,
                    attribute=attribute,
                    value=value,
                    confidence=float(probability),
                    n_claims=len(grouped[(subject, attribute)]),
                )
            )
            n_rejected += len(posterior) - 1
            if record_lineage:
                # The decision chain: every candidate value gets a verdict
                # carrying the learned trust of the sources that claimed it.
                item_claims = grouped[(subject, attribute)]
                source_trust = {
                    claim.source: accuracy[claim.source] for claim in item_claims
                }
                for candidate, candidate_probability in sorted(
                    posterior.items(), key=lambda kv: str(kv[0])
                ):
                    obs_lineage.record_fusion(
                        subject,
                        attribute,
                        candidate,
                        verdict="accepted" if candidate == value else "rejected",
                        confidence=float(candidate_probability),
                        source_trust=source_trust,
                        stage="fusion.accu",
                    )
        obs_metrics.count("fusion.accepted", len(results))
        obs_metrics.count("fusion.rejected", n_rejected)
        return results

    def _item_posterior(
        self, item_claims: Sequence[ValueClaim], accuracy: Dict[str, float]
    ) -> Dict[Value, float]:
        return _accu_item_posterior(self.n_distractors, accuracy, item_claims)


def _accu_item_posterior(
    n_distractors: int,
    accuracy: Dict[str, float],
    item_claims: Sequence[ValueClaim],
) -> Dict[Value, float]:
    """Posterior over one item's candidate values given source accuracies.

    Module-level (not a method) so process-mode :func:`pmap` can pickle it.
    """
    candidate_values = sorted({claim.value for claim in item_claims}, key=str)
    if len(candidate_values) == 1:
        # exp(s - s) / exp(s - s): exactly 1.0 whatever the sources' trust.
        return {candidate_values[0]: 1.0}
    log_scores = {}
    # math.log/math.exp, not np.log/np.exp: these are scalar calls in the
    # EM hot loop, and the numpy ufunc dispatch costs ~2x per call for the
    # same IEEE-754 result.
    for candidate in candidate_values:
        log_score = 0.0
        for claim in item_claims:
            source_accuracy = accuracy[claim.source]
            if claim.value == candidate:
                log_score += math.log(source_accuracy)
            else:
                log_score += math.log((1.0 - source_accuracy) / n_distractors)
        log_scores[candidate] = log_score
    peak = max(log_scores.values())
    unnormalized = {value: math.exp(score - peak) for value, score in log_scores.items()}
    total = sum(unnormalized.values())
    return {value: score / total for value, score in unnormalized.items()}


def claims_from_sources(
    sources: Sequence,
    attributes: Sequence[str],
) -> List[ValueClaim]:
    """Build claims from structured sources, keyed by hidden world id.

    Uses each record's ``world_id`` as the subject so fusion quality can be
    scored against the ground-truth world directly (linkage quality is
    studied separately; this isolates the fusion problem, as the paper's
    experiments do).
    """
    claims: List[ValueClaim] = []
    for source in sources:
        inverse = {mapped: canonical for canonical, mapped in source.field_map.items()}
        for record in source.records:
            for field_name, value in record.fields.items():
                attribute = inverse.get(field_name, field_name)
                if attribute in attributes and not isinstance(value, list):
                    claims.append(
                        ValueClaim(
                            subject=record.world_id,
                            attribute=attribute,
                            value=value,
                            source=source.name,
                        )
                    )
    return claims
