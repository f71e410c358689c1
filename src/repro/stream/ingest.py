"""Incremental construction: per-delta linkage, trust, and re-fusion.

The :class:`StreamIngestor` maintains the same decision inputs a batch
build accumulates — canonical records, blocking keys, pure pair scores,
claims, rejections — but updates them one :class:`~repro.stream.source.
Delta` at a time, mutating a *live* :class:`~repro.core.graph.
KnowledgeGraph` (WAL-attached, so followers and publishers can tail it)
after every micro-batch:

It is a driver over the construction kernel, not a second copy of it:
claims come from :func:`~repro.core.partition.extract_claims`, keys from
:func:`~repro.core.partition.blocking_keys`, clusters live in one
:class:`~repro.core.partition.Clusters`, and every fusion step is a method
of :class:`~repro.integrate.fusion.AccuFusion`.

* **incremental linkage** — only the blocking keys touched by the delta
  are re-blocked; new candidate pairs are scored with the identical pure
  :func:`~repro.core.partition.pair_score` the partitions use, and match
  edges are unioned as they appear.  When a delta pushes a block over the
  ``max_block_size`` cap (or replaces a record), pair eligibility can
  shrink, so the ingestor falls back to a full re-link over
  :func:`~repro.core.partition.block_pairs` — counted in
  ``stream.relinks`` so the (rare) O(pairs) events are visible;
* **online Accu EM** — per-source sufficient statistics (posterior mass
  + claim counts, the quantities :meth:`AccuFusion.fuse` merges with
  ``fsum``) are updated by subtracting each re-fused group's previous
  contribution and adding its new one, so source accuracies track the
  stream without re-running EM over the world;
* **indexed re-fusion** — only the ``(subject, predicate)`` groups
  touched by the delta are re-fused: the groups the delta's claims land
  in, plus — when a cluster merge re-roots records — the groups the
  always-on ``_fused`` index holds under the old roots.  The work done
  does not depend on whether observability is on.  Fused groups per
  delta is the sub-linearity contract the tests assert.

The live graph is an *approximation*: accuracies lag full EM, and block
overflows can transiently merge entities a batch build would keep apart.
The contract is :meth:`StreamIngestor.finalize` — shape the accumulated
union as one :class:`~repro.core.partition.PartitionResult` (records,
keys, scores, claims, rejections) and run it through the identical
:func:`~repro.integrate.exchange.exchange` a ``partitions=1`` batch build
uses, so after draining all deltas the canonical graph state,
provenance, lineage ledger, and ``.rkgs`` bytes are byte-identical to the
batch build over the same source union, for any micro-batch split and
delta order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.partition import (
    CanonicalRecord,
    Clusters,
    Pair,
    PartitionedBuild,
    PartitionResult,
    Rejection,
    block_pairs,
    blocking_keys,
    extract_claims,
    ordered_pair,
    pair_score,
    transform_record,
)
from repro.core.triple import Provenance, Triple
from repro.integrate.exchange import EXTRACTOR, ExchangeOutcome, exchange
from repro.integrate.fusion import AccuFusion, ValueClaim
from repro.obs import lineage as obs_lineage
from repro.obs import metrics as obs_metrics
from repro.stream.source import Delta

GroupKey = Tuple[str, str]


@dataclass(frozen=True)
class DeltaReport:
    """What one micro-batch cost — the sub-linearity evidence."""

    seqno: int
    n_records: int
    n_pairs_scored: int
    n_cluster_merges: int
    n_fused_groups: int
    n_groups_total: int
    relinked: bool
    wall_s: float


class StreamIngestor:
    """Continuous construction over a live, WAL-attached graph."""

    def __init__(
        self,
        build: Optional[PartitionedBuild] = None,
        wal=None,
    ) -> None:
        self.build = build or PartitionedBuild()
        ontology = Ontology(name="sources")
        self.graph = KnowledgeGraph(ontology=ontology, name=self.build.graph_name)
        if wal is not None:
            self.graph.attach_wal(wal)
        self.wal = wal
        # The batch build's decision inputs, maintained incrementally.
        self.records: Dict[str, CanonicalRecord] = {}
        self.keys: Dict[str, Tuple[str, ...]] = {}
        self.claims: Dict[str, List[ValueClaim]] = {}
        self.rejections: Dict[str, List[Rejection]] = {}
        self.scores: Dict[Pair, float] = {}
        self._blocks: Dict[str, Set[str]] = {}
        self._pair_index: Dict[str, Set[Pair]] = {}
        self._matches: Set[Pair] = set()
        self._clusters = Clusters()
        self._dirty = False
        # Online EM state: global per-source sufficient statistics plus the
        # cached per-group contribution that gets retracted on re-fusion.
        self._fusion = AccuFusion()
        self._em_mass: Dict[str, float] = {}
        self._em_count: Dict[str, int] = {}
        self._accuracy: Dict[str, float] = {}
        self._group_mass: Dict[GroupKey, Dict[str, float]] = {}
        self._group_count: Dict[GroupKey, Dict[str, int]] = {}
        # The re-fusion index: root -> attributes fused under it.
        self._fused: Dict[str, Set[str]] = {}
        self.n_deltas = 0
        self.n_relinks = 0

    # ------------------------------------------------------------------
    # per-delta ingest

    def ingest(self, delta: Delta) -> DeltaReport:
        """Apply one micro-batch; returns the incremental-work report."""
        started = time.perf_counter()
        strategy = self.build.strategy
        arrived: List[CanonicalRecord] = []
        for record in delta.records:
            canonical = transform_record(
                record, delta.field_maps.get(record.source, {})
            )
            self._upsert(canonical)
            arrived.append(canonical)

        merge_events: List[Tuple[str, str]] = []
        moved: Dict[str, Tuple[str, str]] = {}
        n_pairs_scored = 0
        relinked = False
        if self._dirty:
            n_pairs_scored, merge_events, moved = self._relink()
            relinked = True
            self.n_relinks += 1
        else:
            for canonical in arrived:
                n_pairs_scored += self._link_record(
                    canonical, strategy.max_block_size, merge_events
                )

        touched = self._apply_cluster_changes(merge_events, moved)
        for canonical in arrived:
            root = self._clusters.root_of[canonical.record_id]
            self._ensure_entity(root)
            if canonical.record_id != root:
                self._add_member_alias(root, canonical)
            for claim in self.claims[canonical.record_id]:
                touched.add((root, claim.attribute))

        adds: List[Tuple[Triple, Provenance]] = []
        for group in sorted(touched):
            self._refuse_group(group, adds)
        if adds:
            self.graph.add_triples_batch(adds)

        self.n_deltas += 1
        wall_s = time.perf_counter() - started
        obs_metrics.count("stream.deltas")
        obs_metrics.count("stream.records", len(delta))
        obs_metrics.count("stream.pairs_scored", n_pairs_scored)
        obs_metrics.count("stream.cluster_merges", len(merge_events))
        obs_metrics.count("stream.fused_groups", len(touched))
        if relinked:
            obs_metrics.count("stream.relinks")
        obs_metrics.gauge("stream.n_records", len(self.records))
        obs_metrics.gauge("stream.n_groups", len(self._group_mass))
        obs_metrics.observe("stream.delta_seconds", wall_s)
        return DeltaReport(
            seqno=delta.seqno,
            n_records=len(delta),
            n_pairs_scored=n_pairs_scored,
            n_cluster_merges=len(merge_events),
            n_fused_groups=len(touched),
            n_groups_total=len(self._group_mass),
            relinked=relinked,
            wall_s=wall_s,
        )

    # ------------------------------------------------------------------
    # state maintenance

    def _upsert(self, canonical: CanonicalRecord) -> None:
        record_id = canonical.record_id
        if record_id in self.records:
            self._retract(record_id)
        self.records[record_id] = canonical
        keys = blocking_keys(self.build.strategy, canonical)
        self.keys[record_id] = keys
        cap = self.build.strategy.max_block_size
        for key in keys:
            block = self._blocks.setdefault(key, set())
            if len(block) == cap:
                # This insert pushes the block over the cap: pairs that
                # relied on it stop being eligible, so re-link globally.
                self._dirty = True
            block.add(record_id)
        self._clusters.add(record_id)
        claims, rejections = extract_claims(canonical)
        for _, attribute, value, reason in rejections:
            obs_lineage.record_rejection(
                record_id, attribute, value, reason=reason, stage="stream.clean"
            )
        self.claims[record_id] = claims
        self.rejections[record_id] = rejections

    def _retract(self, record_id: str) -> None:
        """Drop a replaced record's derived state; forces a re-link."""
        for key in self.keys.pop(record_id, ()):
            block = self._blocks.get(key)
            if block is not None:
                block.discard(record_id)
                if not block:
                    del self._blocks[key]
        for pair in self._pair_index.pop(record_id, set()):
            self.scores.pop(pair, None)
            self._matches.discard(pair)
            other = pair[0] if pair[1] == record_id else pair[1]
            other_pairs = self._pair_index.get(other)
            if other_pairs is not None:
                other_pairs.discard(pair)
        del self.records[record_id]
        self.claims.pop(record_id, None)
        self.rejections.pop(record_id, None)
        # Replacement can change keys, scores, and hence clusters in both
        # directions — rebuild linkage from the cached pure scores.
        self._dirty = True

    # ------------------------------------------------------------------
    # linkage

    def _score(self, pair: Pair) -> float:
        score = self.scores.get(pair)
        if score is None:
            score = pair_score(self.records[pair[0]], self.records[pair[1]])
            self.scores[pair] = score
            self._pair_index.setdefault(pair[0], set()).add(pair)
            self._pair_index.setdefault(pair[1], set()).add(pair)
        return score

    def _link_record(
        self,
        canonical: CanonicalRecord,
        cap: int,
        merge_events: List[Tuple[str, str]],
    ) -> int:
        """Score the delta record against co-blocked candidates; union matches."""
        record_id = canonical.record_id
        n_scored = 0
        for key in self.keys[record_id]:
            block = self._blocks[key]
            if len(block) > cap:
                continue
            # Sorted, so that when the record bridges two clusters the union
            # order — and with it the merge events, the live aliases and the
            # WAL bytes followers replicate — does not vary with the hash seed.
            for other_id in sorted(block):
                if other_id == record_id:
                    continue
                other = self.records[other_id]
                if other.entity_class != canonical.entity_class:
                    continue
                pair = ordered_pair(record_id, other_id)
                if pair not in self.scores:
                    n_scored += 1
                if (
                    self._score(pair) >= self.build.match_threshold
                    and pair not in self._matches
                ):
                    self._matches.add(pair)
                    merged = self._clusters.union(*pair)
                    if merged is not None:
                        merge_events.append(merged)
        return n_scored

    def _relink(self):
        """Full linkage rebuild from cached scores + current eligibility.

        Needed when eligibility shrank (block overflow, record
        replacement): incremental unions can only grow clusters, but the
        batch contract says a pair is linked iff it shares a key whose
        *global* block is within the cap and its pure score clears the
        threshold — so recompute exactly that, then diff the root map.
        """
        n_scored = 0
        matches: Set[Pair] = set()
        for pair in block_pairs(
            self._blocks, self.records, self.build.strategy.max_block_size
        ):
            if pair not in self.scores:
                n_scored += 1
            if self._score(pair) >= self.build.match_threshold:
                matches.add(pair)
        old_root_of = self._clusters.root_of
        self._matches = matches
        self._clusters = Clusters(self.records)
        for pair in matches:
            self._clusters.union(*pair)
        root_of = self._clusters.root_of
        moved = {
            record_id: (old_root_of.get(record_id, record_id), root)
            for record_id, root in root_of.items()
            if old_root_of.get(record_id, record_id) != root
        }
        merge_events = sorted(
            {
                (root_of[old_root], old_root)
                for old_root, _ in moved.values()
                if old_root in root_of and root_of[old_root] != old_root
            }
        )
        self._dirty = False
        return n_scored, merge_events, moved

    # ------------------------------------------------------------------
    # live-graph reconciliation

    def _apply_cluster_changes(
        self,
        merge_events: List[Tuple[str, str]],
        moved: Dict[str, Tuple[str, str]],
    ) -> Set[GroupKey]:
        touched: Set[GroupKey] = set()
        graph = self.graph
        # Union order, not sorted: of a chain (b, c), (a, b), sorted order
        # merges b into a first, then re-creates b as an orphan to absorb c.
        for keep, drop in merge_events:
            for attribute in self._fused.get(drop, ()):
                touched.add((drop, attribute))
                touched.add((keep, attribute))
            for attribute in self._fused.get(keep, ()):
                touched.add((keep, attribute))
            self._ensure_entity(keep)
            if graph.has_entity(drop):
                graph.merge_entities(keep, drop)
            elif drop in self.records:
                self._add_member_alias(keep, self.records[drop])
            obs_lineage.record_merge(
                keep,
                drop,
                n_rewritten=len(self._fused.get(drop, ())),
                stage="stream.link",
            )
            self._fused[keep] = self._fused.get(keep, set()) | self._fused.pop(
                drop, set()
            )
        # Relink moves that are not whole-cluster merges are splits: touch
        # the departed groups on both sides so stale fusions re-settle.
        for record_id, (old_root, new_root) in sorted(moved.items()):
            self._ensure_entity(new_root)
            if record_id != new_root and record_id in self.records:
                self._add_member_alias(new_root, self.records[record_id])
            for attribute in self._fused.get(old_root, ()):
                touched.add((old_root, attribute))
            for claim in self.claims.get(record_id, ()):
                touched.add((old_root, claim.attribute))
                touched.add((new_root, claim.attribute))
        return touched

    def _ensure_entity(self, root: str) -> None:
        graph = self.graph
        if graph.has_entity(root):
            return
        record = self.records[root]
        if not graph.ontology.has_class(record.entity_class):
            graph.ontology.add_class(record.entity_class)
        graph.add_entity(root, record.name or root, record.entity_class)

    def _add_member_alias(self, root: str, member: CanonicalRecord) -> None:
        if not self.graph.has_entity(root):
            return
        entity = self.graph.entity(root)
        name = member.name
        if name and name != entity.name and name not in entity.aliases:
            self.graph.add_alias(root, name)

    # ------------------------------------------------------------------
    # online EM + re-fusion

    def _retract_group_stats(self, group: GroupKey) -> None:
        mass = self._group_mass.pop(group, None)
        if mass is None:
            return
        counts = self._group_count.pop(group)
        for source, value in mass.items():
            self._em_mass[source] -= value
        for source, value in counts.items():
            self._em_count[source] -= value

    def _refuse_group(
        self, group: GroupKey, adds: List[Tuple[Triple, Provenance]]
    ) -> None:
        root, attribute = group
        graph = self.graph
        self._retract_group_stats(group)
        group_claims = [
            claim
            for member in sorted(self._clusters.members.get(root, ()))
            for claim in self.claims.get(member, ())
            if claim.attribute == attribute
        ]
        if not group_claims:
            # The group dissolved (merge rewrote it, or a split moved every
            # claimant away): retire its triples and its fusion index entry.
            for triple in list(graph.query(subject=root, predicate=attribute)):
                graph.remove_triple(triple)
            fused = self._fused.get(root)
            if fused is not None:
                fused.discard(attribute)
            return
        fusion = self._fusion
        for claim in group_claims:
            self._accuracy.setdefault(claim.source, fusion.initial_accuracy)
        posterior = fusion.posterior(group_claims, self._accuracy)
        # Fold this group's fresh sufficient statistics into the global
        # per-source totals (previous contribution already retracted).
        mass, counts = fusion.item_statistics(posterior, group_claims)
        self._group_mass[group] = mass
        self._group_count[group] = counts
        for source in mass:
            self._em_mass[source] = self._em_mass.get(source, 0.0) + mass[source]
            self._em_count[source] = self._em_count.get(source, 0) + counts[source]
            self._accuracy[source] = fusion.estimate(
                self._em_mass[source], self._em_count[source]
            )
        winner = fusion.decide(
            group, posterior, group_claims, self._accuracy, "stream.fusion"
        ).value
        self._ensure_entity(root)
        winner_triple = Triple(root, attribute, winner)
        supporters = sorted(
            (claim for claim in group_claims if claim.value == winner),
            key=lambda claim: claim.source,
        )
        desired = [
            Provenance(source=claim.source, extractor=EXTRACTOR)
            for claim in supporters
        ]
        existing = list(graph.query(subject=root, predicate=attribute))
        if existing == [winner_triple] and graph.provenance(winner_triple) == desired:
            self._fused.setdefault(root, set()).add(attribute)
            return
        for triple in existing:
            graph.remove_triple(triple)
        adds.extend((winner_triple, provenance) for provenance in desired)
        self._fused.setdefault(root, set()).add(attribute)

    # ------------------------------------------------------------------
    # canonical finalize (the batch-equivalence keystone)

    def finalize(self) -> ExchangeOutcome:
        """Canonicalize: run the accumulated union through the batch
        exchange, shaped exactly like one partition worker's output, so a
        drained stream is treated identically to a ``partitions=1`` batch
        build.  The caller owns observability scope (reset + enable) and
        what to do with the result (checkpoint the WAL, republish).
        """
        ordered = sorted(self.records)
        union = PartitionResult(
            index=0,
            records=[self.records[record_id] for record_id in ordered],
            keys={record_id: self.keys[record_id] for record_id in ordered},
            scores=self.scores,
            claims=[
                claim for record_id in ordered for claim in self.claims[record_id]
            ],
            rejections=[
                rejection
                for record_id in ordered
                for rejection in self.rejections[record_id]
            ],
        )
        build = self.build
        return exchange(
            [union],
            strategy=build.strategy,
            match_threshold=build.match_threshold,
            graph_name=build.graph_name,
        )
