"""Incremental construction: per-delta linkage, exact fusion, live rows.

The :class:`StreamIngestor` maintains the same decision inputs a batch
build accumulates — canonical records, blocking keys, pure pair scores,
claims, rejections — but updates them one :class:`~repro.stream.source.
Delta` at a time, mutating a *live* :class:`~repro.core.graph.
KnowledgeGraph` (WAL-attached, so followers and publishers can tail it).
After every delta the live graph *is* the batch build of the records
that have arrived: its triples, provenance and entity rows.

It is a driver over the construction kernel, not a second copy of it:
claims come from :func:`~repro.core.partition.extract_claims`, keys from
:func:`~repro.core.partition.blocking_keys`, clusters live in one
:class:`~repro.core.partition.Clusters`, fusion is the one EM loop
(:meth:`~repro.integrate.fusion.AccuFusion.em`) and entity rows follow
:func:`~repro.integrate.exchange.entity_row`.

* **incremental linkage** — only the blocking keys touched by the delta
  are re-blocked; new candidate pairs are scored with the identical pure
  :func:`~repro.core.partition.pair_score` the partitions use, and match
  edges are unioned as they appear.  When a delta pushes a block over the
  ``max_block_size`` cap (or replaces a record), pair eligibility can
  shrink, so the ingestor falls back to a full re-link over
  :func:`~repro.core.partition.block_pairs` — counted in
  ``stream.relinks`` so the (rare) O(pairs) events are visible;
* **exact EM over patterns** — only the ``(subject, predicate)`` groups
  the delta touches are re-read: the groups its claims land in, plus —
  when clusters merge or split — the groups the always-on group index
  holds under the old roots.  Their agreement patterns update a
  pattern table and per-source claim counts, and EM runs over the
  patterns from the prior, as a batch build's does.  The touched groups
  and every group of a pattern whose winner flipped are rewritten (the
  delta's ``n_rewritten``), and every touched cluster's entity row is
  set by the batch naming rule — a split removes aliases.

:meth:`StreamIngestor.finalize` runs the live records, clusters, claims
and rejections through :func:`~repro.integrate.exchange.assemble`, the
batch exchange after linkage, so a drained stream's graph state,
provenance, lineage ledger, and ``.rkgs`` bytes are the batch build's,
for any micro-batch split and delta order.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.partition import (
    CanonicalRecord,
    Clusters,
    Pair,
    PartitionedBuild,
    Rejection,
    block_pairs,
    blocking_keys,
    extract_claims,
    ordered_pair,
    pair_score,
    transform_record,
)
from repro.core.store import term_key
from repro.core.triple import Provenance, Triple
from repro.integrate.exchange import EXTRACTOR, ExchangeOutcome, assemble, entity_row
from repro.integrate.fusion import (
    AccuFusion,
    Pattern,
    ValueClaim,
    claim_order,
    item_pattern,
    winner_index,
)
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
    n_rewritten: int
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
        # What EM reads: root -> attribute -> pattern of every group (also
        # the re-fusion index), the groups of each contested pattern (its
        # count is their number) and the claims per source.  Plus each
        # contested pattern's last winning candidate.
        self._fusion = AccuFusion()
        self._groups: Dict[str, Dict[str, Pattern]] = {}
        self._n_groups = 0
        self._pattern_groups: Dict[Pattern, Set[GroupKey]] = {}
        self._claim_count: Counter = Counter()
        self._winner: Dict[Pattern, int] = {}
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

        dropped: List[str] = []  # the roots merged away, in merge order
        moved: Dict[str, Tuple[str, str]] = {}
        n_pairs_scored = 0
        relinked = False
        if self._dirty:
            n_pairs_scored, dropped, moved = self._relink()
            relinked = True
            self.n_relinks += 1
        else:
            for canonical in arrived:
                n_pairs_scored += self._link_record(
                    canonical, strategy.max_block_size, dropped
                )

        touched, roots = self._apply_cluster_changes(dropped, moved)
        for canonical in arrived:
            root = self._clusters.root_of[canonical.record_id]
            roots.add(root)
            touched.update((root, claim.attribute) for claim in self.claims[canonical.record_id])
        for root in sorted(roots.intersection(self._clusters.members)):
            self._set_entity_row(root)

        # Exact EM over the patterns, then rewrite the touched groups and
        # every group of a pattern whose winner flipped.
        fresh = {group: self._refit_group(group) for group in sorted(touched)}
        accuracy, posteriors = self._fusion.em(
            {pattern: len(groups) for pattern, groups in self._pattern_groups.items()},
            self._claim_count,
        )
        self._fusion.source_accuracy_ = accuracy
        rewrite = set(touched)
        for pattern, posterior in posteriors.items():
            winner = winner_index(posterior)
            if self._winner.get(pattern, winner) != winner:
                rewrite |= self._pattern_groups[pattern]
            self._winner[pattern] = winner
        adds: List[Tuple[Triple, Provenance]] = []
        for group in sorted(rewrite):
            read = fresh[group] if group in fresh else self._read_group(group)
            self._write_group(group, read, accuracy, posteriors, adds)
        if adds:
            self.graph.add_triples_batch(adds)
        n_rewritten = len({triple for triple, _ in adds})

        wall_s = time.perf_counter() - started
        obs_metrics.count("stream.deltas")
        obs_metrics.count("stream.records", len(delta))
        obs_metrics.count("stream.pairs_scored", n_pairs_scored)
        obs_metrics.count("stream.cluster_merges", len(dropped))
        obs_metrics.count("stream.fused_groups", len(touched))
        obs_metrics.count("stream.rewritten", n_rewritten)
        if relinked:
            obs_metrics.count("stream.relinks")
        obs_metrics.gauge("stream.n_records", len(self.records))
        obs_metrics.gauge("stream.n_groups", self._n_groups)
        obs_metrics.observe("stream.delta_seconds", wall_s)
        return DeltaReport(
            seqno=delta.seqno,
            n_records=len(delta),
            n_pairs_scored=n_pairs_scored,
            n_cluster_merges=len(dropped),
            n_fused_groups=len(touched),
            n_groups_total=self._n_groups,
            n_rewritten=n_rewritten,
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
        dropped: List[str],
    ) -> int:
        """Score the delta record against co-blocked candidates; union matches."""
        record_id = canonical.record_id
        n_scored = 0
        for key in self.keys[record_id]:
            block = self._blocks[key]
            if len(block) > cap:
                continue
            # Sorted, so that when the record bridges two clusters the union
            # order — and with it the merges and the WAL bytes followers
            # replicate — does not vary with the hash seed.
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
                        dropped.append(merged[1])
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
        dropped = sorted({old for old, _ in moved.values() if root_of.get(old, old) != old})
        self._dirty = False
        return n_scored, dropped, moved

    # ------------------------------------------------------------------
    # live-graph reconciliation

    def _apply_cluster_changes(
        self,
        dropped: List[str],
        moved: Dict[str, Tuple[str, str]],
    ) -> Tuple[Set[GroupKey], Set[str]]:
        """Apply merges and splits to the live graph; returns the groups
        and the roots whose entity row they touched."""
        touched: Set[GroupKey] = set()
        roots: Set[str] = set()
        graph = self.graph
        index = self._groups
        # Into the current root: of a chain b <- c, a <- b, both c and b
        # merge into a, so b is never made an entity it must give up again.
        for drop in dropped:
            keep = self._clusters.root_of[drop]
            roots.add(keep)
            for attribute in index.get(drop, ()):
                touched.update(((drop, attribute), (keep, attribute)))
            touched.update((keep, attribute) for attribute in index.get(keep, ()))
            if not graph.has_entity(keep):
                self._set_entity_row(keep)
            if graph.has_entity(drop):
                graph.merge_entities(keep, drop)
            obs_lineage.record_merge(
                keep, drop, n_rewritten=len(index.get(drop, ())), stage="stream.link"
            )
        # Relink moves that are not whole-cluster merges are splits: touch
        # the departed groups on both sides so stale fusions re-settle.
        for record_id, (old_root, new_root) in sorted(moved.items()):
            roots.update((old_root, new_root))
            touched.update((old_root, attribute) for attribute in index.get(old_root, ()))
            for claim in self.claims.get(record_id, ()):
                touched.update(((old_root, claim.attribute), (new_root, claim.attribute)))
        return touched, roots

    def _set_entity_row(self, root: str) -> None:
        """Create or correct a cluster's entity: the batch naming rule's
        name and aliases (a split removes the aliases it took away)."""
        graph = self.graph
        name, aliases = entity_row(self.records, sorted(self._clusters.members[root]))
        if not graph.has_entity(root):
            entity_class = self.records[root].entity_class
            graph.ontology.add_class(entity_class)  # a no-op when it is there
            graph.add_entity(root, name, entity_class, aliases=aliases)
            return
        live = graph.entity(root).aliases
        for alias in sorted(live.symmetric_difference(aliases)):
            (graph.remove_alias if alias in live else graph.add_alias)(root, alias)

    # ------------------------------------------------------------------
    # exact fusion

    def _read_group(self, group: GroupKey) -> Tuple[List[ValueClaim], List, Pattern]:
        """The group's claims in ``fuse``'s claim order, candidates, pattern."""
        root, attribute = group
        claims = sorted(
            (
                claim
                for member in self._clusters.members.get(root, ())
                for claim in self.claims.get(member, ())
                if claim.attribute == attribute
            ),
            key=claim_order,
        )
        return (claims, *item_pattern(claims)) if claims else (claims, [], ())

    def _refit_group(self, group: GroupKey):
        """Re-read a touched group into the pattern tables."""
        root, attribute = group
        read = self._read_group(group)
        old = self._groups.get(root, {}).pop(attribute, None)
        for pattern, sign in ((old, -1), (read[2], 1)):
            if not pattern:
                continue
            self._n_groups += sign
            for source, _ in pattern:
                self._claim_count[source] += sign
                if not self._claim_count[source]:
                    del self._claim_count[source]
            if any(index for _, index in pattern):  # contested
                groups = self._pattern_groups.setdefault(pattern, set())
                (groups.add if sign > 0 else groups.discard)(group)
                if not groups:
                    del self._pattern_groups[pattern]
                    self._winner.pop(pattern, None)
        if read[0]:
            self._groups.setdefault(root, {})[attribute] = read[2]
        elif not self._groups.get(root, True):
            del self._groups[root]
        return read

    def _write_group(self, group, read, accuracy, posteriors, adds) -> None:
        """Make the group's triples its verdict's supporters."""
        root, attribute = group
        graph = self.graph
        claims, candidates, pattern = read
        existing = list(graph.query(subject=root, predicate=attribute))
        if not claims:
            # The group dissolved (merge rewrote it, or a split moved every
            # claimant away): retire its triples.
            for triple in existing:
                graph.remove_triple(triple)
            return
        posterior = posteriors[pattern] if len(candidates) > 1 else [1.0]
        winner = self._fusion.decide(
            group, candidates, posterior, claims, accuracy, "stream.fusion"
        ).value
        winner_triple = Triple(root, attribute, winner)
        desired = [
            Provenance(source=claim.source, extractor=EXTRACTOR)
            for claim in claims
            if term_key(claim.value) == term_key(winner)
        ]
        if existing == [winner_triple] and graph.provenance(winner_triple) == desired:
            return
        for triple in existing:
            graph.remove_triple(triple)
        adds.extend((winner_triple, provenance) for provenance in desired)

    # ------------------------------------------------------------------
    # canonical finalize (the batch-equivalence keystone)

    def finalize(self) -> ExchangeOutcome:
        """The batch build of the drained stream, from its live clusters:
        no re-blocking, no re-linking.  The caller owns observability scope
        and what to do with the result (checkpoint the WAL, republish)."""
        ordered = sorted(self.records)
        members = self._clusters.members
        return assemble(
            self.records,
            {root: sorted(members[root]) for root in sorted(members)},
            [claim for record_id in ordered for claim in self.claims[record_id]],
            [row for record_id in ordered for row in self.rejections[record_id]],
            self.build.graph_name,
            {},
        )
