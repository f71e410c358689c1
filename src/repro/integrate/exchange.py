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
  rewritten claim, iterating over the contested data items only; its
  claim sort and ``math.fsum`` M-step make the learned source accuracies
  — and hence the value posteriors — independent of claim order and so
  of the partition count;
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

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.parallel import pmap
from repro.core.partition import (
    CanonicalRecord,
    Clusters,
    PartitionResult,
    _score_pair,
    block_pairs,
)
from repro.core.triple import Provenance, Triple, Value
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
    root_of = linked.root_of
    clusters = {root: sorted(linked.members[root]) for root in sorted(linked.members)}

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

    # -- fuse: claims rewritten to cluster roots, one EM over them --------
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
    fusion = AccuFusion()
    fusion_results = fusion.fuse(rewritten)
    source_accuracy = fusion.source_accuracy_
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
        "n_contested_items": fusion.n_contested_items_,
        "n_triples": len(final_rows),
        "n_rejections": len(rejections),
    }
    for metric, value in stats.items():
        obs_metrics.gauge(f"exchange.{metric}", value)
    return ExchangeOutcome(
        graph=graph,
        fusion_results=fusion_results,
        source_accuracy=source_accuracy,
        clusters=clusters,
        stats=stats,
    )
