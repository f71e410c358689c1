"""The cross-partition exchange phase of a partition-parallel build.

Partition workers (:func:`repro.core.partition.run_partition`) are pure:
they transform, extract, block, link, and clean only what lives inside
their partition, and record nothing.  This module is where the shards
meet, and it is deliberately the *only* place cross-record decisions are
made:

* **re-block boundary candidates** — per-partition blocking key maps are
  merged into global blocks; the ``max_block_size`` cap is applied to the
  *global* block sizes, and candidate pairs whose members live in
  different partitions are scored here with the same pure
  :func:`~repro.core.partition.pair_score` the partitions used locally;
* **merge EM sufficient statistics** — the Accu source-trust EM runs its
  E-step per logical shard, and the M-step merges each shard's
  sufficient statistics (posterior mass + claim counts per source) with
  ``math.fsum`` over globally sorted data items, so the learned source
  accuracies — and hence the value posteriors — are bit-identical for
  every shard count;
* **stitch columnar fragments** — each partition's ``TermDict``/SPO id
  columns are decoded through a per-fragment id remap (subject ids
  rewritten to their linked cluster roots) into one global row set, and
  the fused survivors are bulk-loaded into a single
  :class:`~repro.core.graph.KnowledgeGraph`.

Every ledger event (cleaning rejections, linkage merges, fusion verdicts,
the observation batch of the final assembly) is recorded here in globally
sorted order, which is what makes the lineage ledger byte-identical across
partition counts.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple
from zlib import crc32

import numpy as np

from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.parallel import pmap
from repro.core.partition import (
    CanonicalRecord,
    PartitionResult,
    _score_pair,
    ordered_pair,
)
from repro.core.triple import Provenance, Triple, Value
from repro.integrate.blocking import BlockingStrategy
from repro.integrate.fusion import FusionResult, ValueClaim, _accu_item_posterior
from repro.obs import lineage as obs_lineage
from repro.obs import metrics as obs_metrics
from repro.obs.profiling import profiled

#: Extractor tag recorded in provenance for partition-extracted claims.
EXTRACTOR = "partition"

ItemKey = Tuple[str, str]


@dataclass
class ExchangeOutcome:
    """What the exchange produced: the graph plus its decision summary."""

    graph: KnowledgeGraph
    fusion_results: List[FusionResult]
    source_accuracy: Dict[str, float]
    clusters: Dict[str, List[str]]
    stats: Dict[str, float]


# ---------------------------------------------------------------------------
# deterministic union-find


class _UnionFind:
    """Union-find whose component roots are the lexicographic minima.

    The final components of a union-find depend only on the edge *set*,
    and rooting each component at its smallest member removes the last
    trace of processing order — so the cluster map is identical no matter
    how the match edges were discovered or ordered.
    """

    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}

    def find(self, item: str) -> str:
        parent = self._parent
        root = item
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(item, item) != item:
            parent[item], item = root, parent[item]
        return root

    def union(self, left: str, right: str) -> None:
        left_root, right_root = self.find(left), self.find(right)
        if left_root == right_root:
            return
        keep, drop = sorted((left_root, right_root))
        self._parent[drop] = keep


# ---------------------------------------------------------------------------
# sharded Accu fusion: E-step per shard, sufficient statistics merged


def _shard_em_stats(
    n_distractors: int,
    accuracy: Dict[str, float],
    items: Sequence[Tuple[ItemKey, List[ValueClaim]]],
):
    """One shard's E-step pass: posteriors + per-source sufficient stats.

    Returns ``(posteriors, contributions, counts)`` where ``contributions``
    is a list of ``((subject, attribute), source, posterior_mass)`` rows —
    one per (item, source) pair, accumulated in canonical claim order —
    and ``counts`` is claims seen per source.  Module-level so process-mode
    :func:`pmap` can pickle it.
    """
    posteriors = []
    contributions: List[Tuple[ItemKey, str, float]] = []
    counts: Dict[str, int] = {}
    for item_key, item_claims in items:
        posterior = _accu_item_posterior(n_distractors, accuracy, item_claims)
        posteriors.append(posterior)
        mass: Dict[str, float] = {}
        for claim in item_claims:
            mass[claim.source] = mass.get(claim.source, 0.0) + posterior.get(
                claim.value, 0.0
            )
            counts[claim.source] = counts.get(claim.source, 0) + 1
        for source in sorted(mass):
            contributions.append((item_key, source, mass[source]))
    return posteriors, contributions, counts


def _merge_em_statistics(
    shard_stats: Sequence[Tuple[list, list, dict]], sources: Sequence[str]
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Merge per-shard EM sufficient statistics into global M-step inputs.

    Each (item, source) contribution lives in exactly one shard (items are
    atomic), so re-sorting the union by data item and summing with
    ``math.fsum`` yields totals that are bit-identical no matter how many
    shards the items were split across — the invariant that makes fused
    posteriors partition-count-invariant.
    """
    per_source: Dict[str, List[Tuple[ItemKey, float]]] = {
        source: [] for source in sources
    }
    counts: Dict[str, int] = {source: 0 for source in sources}
    for _, contributions, shard_counts in shard_stats:
        for item_key, source, mass in contributions:
            per_source[source].append((item_key, mass))
        for source, count in shard_counts.items():
            counts[source] += count
    totals = {
        source: math.fsum(mass for _, mass in sorted(rows))
        for source, rows in per_source.items()
    }
    return totals, counts


def fuse_sharded(
    claims: Sequence[ValueClaim],
    n_shards: int,
    *,
    n_distractors: int = 10,
    n_iterations: int = 10,
    initial_accuracy: float = 0.8,
    min_accuracy: float = 0.05,
    max_accuracy: float = 0.99,
) -> Tuple[List[FusionResult], Dict[str, float]]:
    """Accu-style EM fusion with the E-step sharded over data items.

    Same model, update rule, winner selection, lineage events, and
    counters as :class:`repro.integrate.fusion.AccuFusion`, but each EM
    iteration computes per-shard sufficient statistics and merges them via
    :func:`_merge_em_statistics` — the result is independent of
    ``n_shards`` down to the last bit (the claim sort below makes it
    independent of claim input order too).
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
    grouped: Dict[ItemKey, List[ValueClaim]] = defaultdict(list)
    for claim in claims:
        grouped[(claim.subject, claim.attribute)].append(claim)
    obs_metrics.count("fusion.data_items", len(grouped))
    items = sorted(grouped.items())
    n_shards = max(1, n_shards)
    shards: List[List[Tuple[ItemKey, List[ValueClaim]]]] = [
        [] for _ in range(n_shards)
    ]
    for item in items:
        shards[crc32(item[0][0].encode("utf-8")) % n_shards].append(item)
    sources = sorted({claim.source for claim in claims})
    accuracy = {source: initial_accuracy for source in sources}
    shard_stats: List[Tuple[list, list, dict]] = []
    for _ in range(n_iterations):
        shard_stats = pmap(
            partial(_shard_em_stats, n_distractors, accuracy), shards
        )
        totals, counts = _merge_em_statistics(shard_stats, sources)
        for source in sources:
            if counts[source]:
                estimate = totals[source] / counts[source]
                accuracy[source] = float(
                    np.clip(estimate, min_accuracy, max_accuracy)
                )
    posteriors: Dict[ItemKey, Dict[Value, float]] = {}
    for shard, (shard_posteriors, _, _) in zip(shards, shard_stats):
        for (item_key, _), posterior in zip(shard, shard_posteriors):
            posteriors[item_key] = posterior
    results: List[FusionResult] = []
    n_rejected = 0
    record_lineage = obs_lineage.lineage_enabled()
    for (subject, attribute), posterior in sorted(posteriors.items()):
        value, probability = max(
            posterior.items(), key=lambda entry: (entry[1], str(entry[0]))
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
    return results, dict(accuracy)


# ---------------------------------------------------------------------------
# fragment stitching


def stitch_fragments(
    results: Sequence[PartitionResult], root_of: Dict[str, str]
) -> set:
    """Merge per-partition columnar fragments into one global row set.

    Each fragment's term ids are remapped once per distinct id (memoized
    decode + cluster-root rewrite for subject terms), then its SPO rows
    are emitted in the merged value space — the id-remap stitch that lets
    partitions build their columns independently.
    """
    rows = set()
    for result in results:
        terms = result.fragment_terms
        subject_col, predicate_col, object_col = result.fragment_columns
        subject_map: Dict[int, str] = {}
        term_map: Dict[int, Value] = {}
        for s_id, p_id, o_id in zip(subject_col, predicate_col, object_col):
            subject = subject_map.get(s_id)
            if subject is None:
                raw = terms[s_id]
                subject = root_of.get(raw, raw)  # type: ignore[arg-type]
                subject_map[s_id] = subject
            predicate = term_map.get(p_id)
            if predicate is None:
                predicate = term_map[p_id] = terms[p_id]
            obj = term_map.get(o_id)
            if obj is None:
                obj = term_map[o_id] = terms[o_id]
            rows.add((subject, predicate, obj))
    return rows


# ---------------------------------------------------------------------------
# the exchange itself


@profiled("exchange")
def exchange(
    results: Sequence[PartitionResult],
    *,
    strategy: BlockingStrategy,
    match_threshold: float = 0.85,
    graph_name: str = "kg",
    n_distractors: int = 10,
    n_iterations: int = 10,
    initial_accuracy: float = 0.8,
    min_accuracy: float = 0.05,
    max_accuracy: float = 0.99,
) -> ExchangeOutcome:
    """Deterministically combine partition results into one graph.

    Every step works on merged, globally sorted data, so the outcome —
    graph state, provenance, lineage ledger — depends only on the union
    of the partition results, never on how records were sharded.
    """
    results = sorted(results, key=lambda result: result.index)
    records: Dict[str, CanonicalRecord] = {}
    partition_of: Dict[str, int] = {}
    for result in results:
        for record in result.records:
            records[record.record_id] = record
            partition_of[record.record_id] = result.index

    # -- re-block: merge key maps, cap on *global* block sizes ------------
    blocks: Dict[str, List[str]] = defaultdict(list)
    for result in results:
        for record_id, keys in result.keys.items():
            for key in keys:
                blocks[key].append(record_id)
    local_scores: Dict[Tuple[str, str], float] = {}
    for result in results:
        local_scores.update(result.scores)
    eligible = set()
    for key in sorted(blocks):
        members = sorted(blocks[key])
        if len(members) > strategy.max_block_size:
            continue
        for i, left_id in enumerate(members):
            left = records[left_id]
            for right_id in members[i + 1 :]:
                if left.entity_class != records[right_id].entity_class:
                    continue
                eligible.add(ordered_pair(left_id, right_id))

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
    union_find = _UnionFind()
    n_matches = 0
    for pair in sorted(eligible):
        if scores[pair] >= match_threshold:
            union_find.union(*pair)
            n_matches += 1
    root_of = {record_id: union_find.find(record_id) for record_id in records}
    clusters: Dict[str, List[str]] = defaultdict(list)
    for record_id in sorted(records):
        clusters[root_of[record_id]].append(record_id)

    # -- lineage: cleaning rejections, then merges, in sorted order -------
    rejections = sorted(
        (
            (record_id, attribute, value, reason)
            for result in results
            for record_id, attribute, value, reason in result.rejections
        ),
        key=lambda row: (row[0], row[1], str(row[2]), row[3]),
    )
    for record_id, attribute, value, reason in rejections:
        obs_lineage.record_rejection(
            record_id, attribute, value, reason=reason, stage="partition.clean"
        )
    claim_triples: Dict[str, set] = defaultdict(set)
    for result in results:
        for claim in result.claims:
            claim_triples[claim.subject].add((claim.attribute, claim.value))
    n_merges = 0
    for root in sorted(clusters):
        for member in clusters[root]:
            if member == root:
                continue
            obs_lineage.record_merge(
                root,
                member,
                n_rewritten=len(claim_triples[member]),
                stage="exchange.link",
            )
            n_merges += 1

    # -- fuse: claims rewritten to cluster roots, EM stats merged ---------
    rewritten = [
        ValueClaim(
            subject=root_of[claim.subject],
            attribute=claim.attribute,
            value=claim.value,
            source=claim.source,
        )
        for result in results
        for claim in result.claims
    ]
    fusion_results, source_accuracy = fuse_sharded(
        rewritten,
        n_shards=len(results),
        n_distractors=n_distractors,
        n_iterations=n_iterations,
        initial_accuracy=initial_accuracy,
        min_accuracy=min_accuracy,
        max_accuracy=max_accuracy,
    )
    winners = {
        (result.subject, result.attribute): result.value
        for result in fusion_results
    }

    # -- stitch fragments, keep fused survivors ---------------------------
    stitched = stitch_fragments(results, root_of)
    final_rows = sorted(
        (row for row in stitched if winners.get((row[0], row[1])) == row[2]),
        key=lambda row: (row[0], row[1], type(row[2]).__name__, str(row[2])),
    )

    # -- assemble the graph (bulk-load fast path on the empty store) ------
    ontology = Ontology(name="sources")
    for entity_class in sorted(
        {record.entity_class for record in records.values()}
    ):
        ontology.add_class(entity_class)
    graph = KnowledgeGraph(ontology=ontology, name=graph_name)
    for root in sorted(clusters):
        root_record = records[root]
        names = sorted(
            {
                records[member].name
                for member in clusters[root]
                if records[member].name
            }
        )
        name = root_record.name or (names[0] if names else root)
        graph.add_entity(
            root,
            name,
            root_record.entity_class,
            aliases=[alias for alias in names if alias != name],
        )
    provenance_sources: Dict[Tuple[str, str, Value], List[str]] = defaultdict(list)
    for claim in sorted(
        rewritten,
        key=lambda claim: (
            claim.subject,
            claim.attribute,
            type(claim.value).__name__,
            str(claim.value),
            claim.source,
        ),
    ):
        provenance_sources[(claim.subject, claim.attribute, claim.value)].append(
            claim.source
        )
    items = []
    for subject, predicate, obj in final_rows:
        triple = Triple(subject, predicate, obj)
        for source in provenance_sources[(subject, predicate, obj)]:
            items.append(
                (triple, Provenance(source=source, extractor=EXTRACTOR))
            )
    graph.add_triples_batch(items)

    stats = {
        "n_partitions": len(results),
        "n_records": len(records),
        "n_eligible_pairs": len(eligible),
        "n_boundary_pairs": len(boundary),
        "n_matches": n_matches,
        "n_merges": n_merges,
        "n_entities": len(clusters),
        "n_claims": len(rewritten),
        "n_data_items": len(winners),
        "n_triples": len(final_rows),
        "n_rejections": len(rejections),
    }
    for metric, value in stats.items():
        obs_metrics.gauge(f"exchange.{metric}", value)
    return ExchangeOutcome(
        graph=graph,
        fusion_results=fusion_results,
        source_accuracy=source_accuracy,
        clusters=dict(clusters),
        stats=stats,
    )
