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
constants once and iterates over the contested ones; an exactly rounded
M-step keeps every float what the loop over all items gave.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

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


@dataclass
class AccuFusion:
    """Bayesian fusion with EM-estimated source accuracies.

    Model: each data item has one true value; a source reports the truth
    with probability ``accuracy(source)`` and otherwise picks uniformly
    among ``n_distractors`` wrong values.  EM alternates between value
    posteriors given accuracies and accuracy estimates given posteriors.

    This is the fusion half of the construction kernel, and its fields are
    the one declaration of the EM hyper-parameters.  :meth:`fuse` is the
    only EM loop — the batch exchange and a stream's drain call it on every
    claim at once — and the four steps it is made of (:meth:`posterior`,
    :meth:`item_statistics`, :meth:`estimate`, :meth:`decide`) are what
    :class:`repro.stream.ingest.StreamIngestor` applies to one group at a
    time.
    """

    n_distractors: int = 10
    n_iterations: int = 10
    initial_accuracy: float = 0.8
    min_accuracy: float = 0.05
    max_accuracy: float = 0.99
    source_accuracy_: Dict[str, float] = field(default_factory=dict, init=False)
    n_contested_items_: int = field(default=0, init=False)

    # -- the four kernel steps ------------------------------------------

    def posterior(
        self, item_claims: Sequence[ValueClaim], accuracy: Dict[str, float]
    ) -> Dict[Value, float]:
        """E-step: one item's value posterior given source accuracies."""
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
                    log_score += math.log((1.0 - source_accuracy) / self.n_distractors)
            log_scores[candidate] = log_score
        peak = max(log_scores.values())
        unnormalized = {
            value: math.exp(score - peak) for value, score in log_scores.items()
        }
        total = sum(unnormalized.values())
        return {value: score / total for value, score in unnormalized.items()}

    @staticmethod
    def item_statistics(
        posterior: Dict[Value, float], item_claims: Sequence[ValueClaim]
    ) -> Tuple[Dict[str, float], Dict[str, int]]:
        """One item's sufficient statistics: per source, the posterior mass
        of the values it claimed and how many claims it made."""
        mass: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for claim in item_claims:
            source = claim.source
            mass[source] = mass.get(source, 0.0) + posterior.get(claim.value, 0.0)
            counts[source] = counts.get(source, 0) + 1
        return mass, counts

    def estimate(self, mass: float, count: int) -> float:
        """M-step: a source's accuracy from its summed statistics, clipped;
        a source with no claims left keeps the prior."""
        if count <= 0:
            return self.initial_accuracy
        # min/max, not np.clip: the same float for a finite quotient, without
        # a numpy scalar dispatch (~10x the cost) once per re-fused group.
        return min(max(mass / count, self.min_accuracy), self.max_accuracy)

    def decide(
        self,
        item_key: ItemKey,
        posterior: Dict[Value, float],
        item_claims: Sequence[ValueClaim],
        accuracy: Dict[str, float],
        stage: str,
    ) -> FusionResult:
        """The verdict for one item: the most probable value wins (ties by
        ``str(value)``), and with lineage on every candidate gets a verdict
        carrying the learned trust of the sources that claimed the item."""
        subject, attribute = item_key
        value, probability = max(
            posterior.items(), key=lambda entry: (entry[1], str(entry[0]))
        )
        if obs_lineage.lineage_enabled():
            source_trust = {
                claim.source: accuracy[claim.source] for claim in item_claims
            }
            for candidate, candidate_probability in sorted(
                posterior.items(), key=lambda entry: str(entry[0])
            ):
                obs_lineage.record_fusion(
                    subject,
                    attribute,
                    candidate,
                    verdict="accepted" if candidate == value else "rejected",
                    confidence=float(candidate_probability),
                    source_trust=source_trust,
                    stage=stage,
                )
        return FusionResult(
            subject=subject,
            attribute=attribute,
            value=value,
            confidence=float(probability),
            n_claims=len(item_claims),
        )

    # -- the EM loop ----------------------------------------------------

    @profiled("fusion.accu")
    def fuse(self, claims: Sequence[ValueClaim]) -> List[FusionResult]:
        """Run EM and return the fused value per data item, sorted by item.

        Only *contested* items (more than one distinct value) are iterated.
        An uncontested item's posterior is ``{value: 1.0}`` whatever the
        accuracies, so it is folded once into per-source constants: each of
        its claims adds exactly 1 to its source's mass and count.  The
        M-step ``math.fsum``s a source's contested masses with that constant;
        ``fsum`` is correctly rounded, so the accuracies are bit-identical to
        summing every item's row.  The claim sort makes the result
        independent of claim input order.
        """
        claims = sorted(
            claims,
            key=lambda claim: (
                claim.subject,
                claim.attribute,
                claim.source,
                type(claim.value).__name__,
                str(claim.value),
            ),
        )
        obs_metrics.count("fusion.claims", len(claims))
        grouped = _group_claims(claims)  # in item order: the claims are sorted
        obs_metrics.count("fusion.data_items", len(grouped))
        counts = Counter(claim.source for claim in claims)
        sources = sorted(counts)
        accuracy = {source: self.initial_accuracy for source in sources}
        posteriors: Dict[ItemKey, Dict[Value, float]] = {}
        contested: List[Item] = []
        for item_key, item_claims in grouped.items():
            if len({claim.value for claim in item_claims}) > 1:
                contested.append((item_key, item_claims))
            else:  # what :meth:`posterior` returns for one candidate value
                posteriors[item_key] = {item_claims[0].value: 1.0}
        settled = counts - Counter(
            claim.source for _, item_claims in contested for claim in item_claims
        )
        self.n_contested_items_ = len(contested)
        for _ in range(self.n_iterations):
            masses: Dict[str, List[float]] = {source: [] for source in sources}
            for item_key, item_claims in contested:
                posterior = self.posterior(item_claims, accuracy)
                posteriors[item_key] = posterior
                for source, mass in self.item_statistics(posterior, item_claims)[0].items():
                    masses[source].append(mass)
            accuracy = {
                source: self.estimate(
                    math.fsum(masses[source] + [settled[source]]), counts[source]
                )
                for source in sources
            }
        self.source_accuracy_ = accuracy
        results = [
            self.decide(
                item_key, posteriors[item_key], item_claims, accuracy, "fusion.accu"
            )
            for item_key, item_claims in grouped.items()
        ]
        obs_metrics.count("fusion.accepted", len(results))
        obs_metrics.count(
            "fusion.rejected", sum(map(len, posteriors.values())) - len(results)
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
