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

Most data items are uncontested (every claim agrees), so EM folds them into
constants once, and it iterates over the agreement *patterns* of the
contested ones rather than the items; an exactly rounded M-step keeps every
float what the loop over all items gave.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.parallel import pmap
from repro.core.store import term_key
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


#: A data item — a (subject, attribute) slot — and the item with its claims.
ItemKey = Tuple[str, str]
Item = Tuple[ItemKey, List[ValueClaim]]


def _group_claims(claims: Iterable[ValueClaim]) -> Dict[ItemKey, List[ValueClaim]]:
    grouped: Dict[ItemKey, List[ValueClaim]] = defaultdict(list)
    for claim in claims:
        grouped[(claim.subject, claim.attribute)].append(claim)
    return grouped


def _vote_one_item(entry: Item) -> FusionResult:
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


#: An item's claims in claim order, each as ``(source, candidate index)``.
Pattern = Tuple[Tuple[str, int], ...]


def claim_order(claim: ValueClaim) -> Tuple[str, str, str]:
    """Where a claim sits among its item's claims: by source, then term."""
    return (claim.source, type(claim.value).__name__, str(claim.value))


def item_pattern(item_claims: Sequence[ValueClaim]) -> Tuple[List[Value], Pattern]:
    """One item's candidates — its distinct terms by
    :func:`~repro.core.store.term_key`, ordered by ``(str(value), type
    name)`` — and its pattern, which alone decides its posterior."""
    if len(item_claims) == 1:  # most items: skip the keying
        return [item_claims[0].value], ((item_claims[0].source, 0),)
    first: Dict[object, Value] = {}
    for claim in item_claims:
        first.setdefault(term_key(claim.value), claim.value)
    candidates = sorted(first.values(), key=lambda value: (str(value), type(value).__name__))
    index = {term_key(value): position for position, value in enumerate(candidates)}
    return candidates, tuple((claim.source, index[term_key(claim.value)]) for claim in item_claims)


def winner_index(posterior: Sequence[float]) -> int:
    """The most probable candidate; of a tie, the last in candidate order."""
    return max(range(len(posterior)), key=lambda index: (posterior[index], index))


@dataclass
class AccuFusion:
    """Bayesian fusion with EM-estimated source accuracies.

    Model: each data item has one true value; a source reports the truth
    with probability ``accuracy(source)`` and otherwise picks uniformly
    among ``n_distractors`` wrong values.  EM alternates between value
    posteriors given accuracies and accuracy estimates given posteriors.

    This is the fusion half of the construction kernel, and its fields are
    the one declaration of the EM hyper-parameters.  :meth:`em` is the only
    EM loop, over agreement patterns (:func:`item_pattern`) rather than
    items: :meth:`fuse` runs it on every claim at once (the batch exchange,
    a stream's drain) and :class:`repro.stream.ingest.StreamIngestor` on
    its maintained pattern counts after every delta.
    """

    n_distractors: int = 10
    n_iterations: int = 10
    initial_accuracy: float = 0.8
    min_accuracy: float = 0.05
    max_accuracy: float = 0.99
    source_accuracy_: Dict[str, float] = field(default_factory=dict, init=False)
    n_contested_items_: int = field(default=0, init=False)

    def posterior(self, pattern: Pattern, accuracy: Dict[str, float]) -> List[float]:
        """E-step: the posterior by candidate index of every item with
        this pattern, given source accuracies."""
        n_candidates = 1 + max(index for _, index in pattern)
        if n_candidates == 1:
            # exp(s - s) / exp(s - s): exactly 1.0 whatever the sources' trust.
            return [1.0]
        log_scores = []
        # math.log/math.exp, not np.log/np.exp: these are scalar calls in the
        # EM hot loop, and the numpy ufunc dispatch costs ~2x per call for the
        # same IEEE-754 result.
        for candidate in range(n_candidates):
            log_score = 0.0
            for source, index in pattern:
                source_accuracy = accuracy[source]
                if index == candidate:
                    log_score += math.log(source_accuracy)
                else:
                    log_score += math.log((1.0 - source_accuracy) / self.n_distractors)
            log_scores.append(log_score)
        peak = max(log_scores)
        unnormalized = [math.exp(score - peak) for score in log_scores]
        total = sum(unnormalized)
        return [score / total for score in unnormalized]

    def estimate(self, mass: float, count: int) -> float:
        """M-step: a source's accuracy from its summed statistics, clipped;
        a source with no claims left keeps the prior."""
        if count <= 0:
            return self.initial_accuracy
        # min/max, not np.clip: the same float for a finite quotient, without
        # a numpy scalar dispatch (~10x the cost).
        return min(max(mass / count, self.min_accuracy), self.max_accuracy)

    def em(
        self, patterns: Mapping[Pattern, int], counts: Mapping[str, int]
    ) -> Tuple[Dict[str, float], Dict[Pattern, List[float]]]:
        """Source accuracies and the last E-step's posterior per pattern.

        ``patterns`` counts the contested items per pattern and ``counts``
        the claims per source.  A claim on an uncontested item adds exactly
        1 to its source's mass, so the M-step ``math.fsum``s that constant
        with each pattern's per-source mass repeated ``count`` times;
        ``fsum`` is correctly rounded, so the accuracies are bit-identical
        to summing every item's row.
        """
        settled = Counter(counts)
        for pattern, count in patterns.items():
            for source, _ in pattern:
                settled[source] -= count
        sources = sorted(counts)
        accuracy = dict.fromkeys(sources, self.initial_accuracy)
        posteriors: Dict[Pattern, List[float]] = {}
        for _ in range(self.n_iterations):
            masses: Dict[str, List[float]] = {source: [] for source in sources}
            for pattern, count in patterns.items():
                posterior = posteriors[pattern] = self.posterior(pattern, accuracy)
                mass: Dict[str, float] = {}
                for source, index in pattern:
                    mass[source] = mass.get(source, 0.0) + posterior[index]
                for source, value in mass.items():
                    masses[source] += [value] * count
            accuracy = {
                source: self.estimate(
                    math.fsum(masses[source] + [settled[source]]), counts[source]
                )
                for source in sources
            }
        return accuracy, posteriors

    def decide(
        self,
        item_key: ItemKey,
        candidates: Sequence[Value],
        posterior: Sequence[float],
        item_claims: Sequence[ValueClaim],
        accuracy: Dict[str, float],
        stage: str,
    ) -> FusionResult:
        """The verdict for one item (:func:`winner_index` wins), and with
        lineage on a verdict per candidate carrying the learned trust of
        the sources that claimed the item."""
        subject, attribute = item_key
        winner = winner_index(posterior)
        if obs_lineage.lineage_enabled():
            source_trust = {claim.source: accuracy[claim.source] for claim in item_claims}
            for index, candidate in enumerate(candidates):
                obs_lineage.record_fusion(
                    subject,
                    attribute,
                    candidate,
                    verdict="accepted" if index == winner else "rejected",
                    confidence=float(posterior[index]),
                    source_trust=source_trust,
                    stage=stage,
                )
        return FusionResult(
            subject, attribute, candidates[winner], float(posterior[winner]), len(item_claims)
        )

    @profiled("fusion.accu")
    def fuse(self, claims: Sequence[ValueClaim]) -> List[FusionResult]:
        """Run :meth:`em` over the contested items' patterns and return the
        fused value per data item, sorted by item.  The claim sort makes
        the result independent of claim input order."""
        claims = sorted(
            claims, key=lambda claim: (claim.subject, claim.attribute, *claim_order(claim))
        )
        obs_metrics.count("fusion.claims", len(claims))
        grouped = _group_claims(claims)  # in item order: the claims are sorted
        obs_metrics.count("fusion.data_items", len(grouped))
        items = [(key, group, *item_pattern(group)) for key, group in grouped.items()]
        patterns = Counter(item[3] for item in items if len(item[2]) > 1)
        self.n_contested_items_ = sum(patterns.values())
        accuracy, posteriors = self.em(patterns, Counter(claim.source for claim in claims))
        self.source_accuracy_ = accuracy
        results = [
            self.decide(
                item_key, candidates, posteriors[pattern] if len(candidates) > 1 else [1.0],
                item_claims, accuracy, "fusion.accu",
            )
            for item_key, item_claims, candidates, pattern in items
        ]
        obs_metrics.count("fusion.accepted", len(results))
        obs_metrics.count(
            "fusion.rejected", sum(len(item[2]) for item in items) - len(results)
        )
        return results


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
