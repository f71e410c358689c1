"""The cross-partition exchange phase of a partition-parallel build.

Partition workers (:func:`repro.core.partition.run_partition`) are pure:
they transform, extract, block, link, and clean only what lives inside
their partition, and record nothing.  This module is where the shards
meet, and it is deliberately the *only* place cross-record decisions are
made:

* **re-block boundary candidates** — per-partition blocking key maps are
  merged into global blocks; :func:`~repro.core.partition.block_pairs`
  applies the ``max_block_size`` cap to the *global* block sizes, and
  candidate pairs whose members live in different partitions are scored
  here with the same pure :func:`~repro.core.partition.pair_score` the
  partitions used locally; matches are unioned in one
  :class:`~repro.core.partition.Clusters`;
* **fuse** — the one Accu EM loop
  (:meth:`repro.integrate.fusion.AccuFusion.fuse`) runs once over every
  rewritten claim, iterating over the contested items' patterns; its
  claim sort and ``math.fsum`` M-step make the learned source accuracies
  — and hence the value posteriors — independent of claim order and so
  of the partition count;
* **assemble** — one pass over the rewritten claims, sorted, keeps each
  claim whose term is its item's winner as a ``(triple,
  provenance)`` row, and bulk-loads the rows into a single
  :class:`~repro.core.graph.KnowledgeGraph`.  Partitions ship their claim
  lists, not encoded fragments: the graph's ``TermDict`` is the only
  dictionary a build uses.  Ledger, fuse and assemble are
  :func:`assemble`, which a drained stream calls on its live clusters.

Every ledger event (cleaning rejections, linkage merges, fusion verdicts,
the observation batch of the final assembly) is recorded here in globally
sorted order, which is what makes the lineage ledger byte-identical across
partition counts.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.parallel import pmap
from repro.core.partition import (
    CanonicalRecord,
    Clusters,
    PartitionResult,
    Rejection,
    _score_pair,
    block_pairs,
)
from repro.core.store import term_key
from repro.core.triple import Provenance, Triple
from repro.integrate.blocking import BlockingStrategy
from repro.integrate.fusion import AccuFusion, FusionResult, ValueClaim
from repro.obs import lineage as obs_lineage
from repro.obs import metrics as obs_metrics
from repro.obs.profiling import profiled

#: Extractor tag recorded in provenance for partition-extracted claims.
EXTRACTOR = "partition"


@dataclass
class ExchangeOutcome:
    """What the exchange produced: the graph plus its decision summary."""

    graph: KnowledgeGraph
    fusion_results: List[FusionResult]
    source_accuracy: Dict[str, float]
    clusters: Dict[str, List[str]]
    stats: Dict[str, float]


def fuse_sharded(
    claims: Sequence[ValueClaim], n_shards: int
) -> Tuple[List[FusionResult], Dict[str, float]]:
    """:meth:`AccuFusion.fuse` with its defaults, plus the learned accuracies.
    ``n_shards`` changes nothing; the signature stays for the benchmark."""
    fusion = AccuFusion()
    return fusion.fuse(claims), fusion.source_accuracy_


def stitch_fragments(
    results: Sequence[PartitionResult], root_of: Dict[str, str]
) -> set:
    """Every claim as a ``(cluster root, attribute, value)`` row.

    Bench-only: the frozen benchmark times it by name, and :func:`exchange`
    does not call it.
    """
    return {
        (root_of.get(claim.subject, claim.subject), claim.attribute, claim.value)
        for result in results
        for claim in result.claims
    }


# ---------------------------------------------------------------------------
# the exchange itself


@profiled("exchange")
def exchange(
    results: Sequence[PartitionResult],
    *,
    strategy: BlockingStrategy,
    match_threshold: float = 0.85,
    graph_name: str = "kg",
) -> ExchangeOutcome:
    """Deterministically combine partition results into one graph.

    Every step works on merged, globally sorted data, so the outcome —
    graph state, provenance, lineage ledger — depends only on the union
    of the partition results, never on how records were sharded.
    """
    results = sorted(results, key=lambda result: result.index)
    records: Dict[str, CanonicalRecord] = {
        record.record_id: record for result in results for record in result.records
    }

    # -- re-block: merge key maps, cap on *global* block sizes ------------
    blocks: Dict[str, List[str]] = defaultdict(list)
    for result in results:
        for record_id, keys in result.keys.items():
            for key in keys:
                blocks[key].append(record_id)
    local_scores: Dict[Tuple[str, str], float] = {}
    for result in results:
        local_scores.update(result.scores)
    eligible = block_pairs(blocks, records, strategy.max_block_size)

    # -- score boundary pairs (same pure scorer the partitions used) ------
    boundary = sorted(pair for pair in eligible if pair not in local_scores)
    boundary_scores = pmap(
        _score_pair,
        [(records[left_id], records[right_id]) for left_id, right_id in boundary],
        mode="process",
    )
    scores = dict(local_scores)
    scores.update(zip(boundary, boundary_scores))

    # -- link: threshold + union-find, roots = lexicographic minima -------
    linked = Clusters(records)
    n_matches = 0
    for pair in eligible:
        if scores[pair] >= match_threshold:
            linked.union(*pair)
            n_matches += 1
    clusters = {root: sorted(linked.members[root]) for root in sorted(linked.members)}
    claims = [claim for result in results for claim in result.claims]
    rejections = [row for result in results for row in result.rejections]
    link_stats = {
        "n_partitions": len(results),
        "n_records": len(records),
        "n_eligible_pairs": len(eligible),
        "n_boundary_pairs": len(boundary),
        "n_matches": n_matches,
    }
    return assemble(records, clusters, claims, rejections, graph_name, link_stats)


def entity_row(
    records: Mapping[str, CanonicalRecord], members: Sequence[str]
) -> Tuple[str, List[str]]:
    """A cluster's entity name and sorted aliases: the root record's name
    (else the first member name, else the root id) and every other
    distinct member name.  ``members`` is sorted, so its head is the root."""
    names = sorted({records[member].name for member in members} - {""})
    name = records[members[0]].name or (names[0] if names else members[0])
    return name, [alias for alias in names if alias != name]


def assemble(
    records: Mapping[str, CanonicalRecord],
    clusters: Dict[str, List[str]],
    claims: Sequence[ValueClaim],
    rejections: Sequence[Rejection],
    graph_name: str,
    link_stats: Mapping[str, float],
) -> ExchangeOutcome:
    """Everything after linkage — ledger, fuse, keep the winners, assemble —
    for ``clusters`` (root -> sorted members, in root order) and claims and
    rejections in any order: the batch exchange's and a drained stream's.
    The stats start with ``link_stats``, what the linkage that made the
    clusters counted."""
    root_of = {member: root for root, members in clusters.items() for member in members}

    # -- lineage: cleaning rejections, then merges, in sorted order -------
    rejections = sorted(rejections, key=lambda row: (row[0], row[1], str(row[2]), row[3]))
    for record_id, attribute, value, reason in rejections:
        obs_lineage.record_rejection(
            record_id, attribute, value, reason=reason, stage="partition.clean"
        )
    # extract_claims emits one claim per attribute per record, so a member's
    # claim count is the number of rows its merge rewrites.
    n_claims_of = Counter(claim.subject for claim in claims)
    n_merges = 0
    for root, members in clusters.items():
        for member in members:
            if member == root:
                continue
            obs_lineage.record_merge(
                root, member, n_rewritten=n_claims_of[member], stage="exchange.link"
            )
            n_merges += 1

    # -- fuse: claims rewritten to cluster roots, one EM over them --------
    rewritten = [
        ValueClaim(root_of[claim.subject], claim.attribute, claim.value, claim.source)
        for claim in claims
    ]
    fusion = AccuFusion()
    fusion_results = fusion.fuse(rewritten)
    winners = {
        (result.subject, result.attribute): term_key(result.value)
        for result in fusion_results
    }

    # -- keep each claim that agrees with its item's winner, in one pass --
    items = [
        (
            Triple(claim.subject, claim.attribute, claim.value),
            Provenance(source=claim.source, extractor=EXTRACTOR),
        )
        for claim in sorted(
            rewritten,
            key=lambda claim: (
                claim.subject, claim.attribute, type(claim.value).__name__, str(claim.value),
                claim.source,
            ),
        )
        if term_key(claim.value) == winners[(claim.subject, claim.attribute)]
    ]

    # -- assemble the graph (bulk-load fast path on the empty store) ------
    ontology = Ontology(name="sources")
    for entity_class in sorted({record.entity_class for record in records.values()}):
        ontology.add_class(entity_class)
    graph = KnowledgeGraph(ontology=ontology, name=graph_name)
    for root, members in clusters.items():
        name, aliases = entity_row(records, members)
        graph.add_entity(root, name, records[root].entity_class, aliases=aliases)
    graph.add_triples_batch(items)

    stats = {
        **link_stats,
        "n_merges": n_merges,
        "n_entities": len(clusters),
        "n_claims": len(rewritten),
        "n_data_items": len(winners),
        "n_contested_items": fusion.n_contested_items_,
        "n_triples": len(graph),
        "n_rejections": len(rejections),
    }
    for metric, value in stats.items():
        obs_metrics.gauge(f"exchange.{metric}", value)
    return ExchangeOutcome(graph, fusion_results, fusion.source_accuracy_, clusters, stats)
