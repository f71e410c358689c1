"""Partition-parallel KG construction — shard the build, not just the reads.

The paper's business lesson is that construction is the cost center: every
generation scaled by industrializing the build loop over ever-larger source
sets.  This module shards that loop.  Source records are routed to
partitions by their cheapest blocking key (the same key domain
:mod:`repro.integrate.blocking` uses for candidate generation), each
partition runs a full pipeline — transform → extract → block → link →
clean — as one :func:`repro.core.parallel.pmap` item in ``mode="process"``,
and a deterministic cross-partition exchange
(:mod:`repro.integrate.exchange`) re-blocks boundary candidates, runs one
Accu EM over every partition's claims, and assembles the fused survivors
into one :class:`~repro.core.graph.KnowledgeGraph`.  A partition ships its
records, keys, scores and claims, not encoded columns: the graph's
``TermDict`` is the only dictionary a build uses.

The contract is **equality by construction**: ``partitions=1`` and
``partitions=N`` run the identical code path, every cross-record decision
(linkage, fusion, lineage, final assembly) is made in the exchange phase
from merged global data in globally sorted order, and partition workers are
pure functions that record no observability state — so the resulting graph
state, provenance, lineage ledger, and ``.rkgs`` snapshot bytes are
partition-count-invariant (pinned by ``tests/test_perf_equivalence.py``
and the Hypothesis property in ``tests/test_core_partition_property.py``).

This module also holds the **link half of the construction kernel** — the
one copy of how a record becomes claims (:func:`extract_claims` over
:func:`clean_reason`), which records may be compared
(:func:`blocking_keys`, :func:`block_pairs`), how alike two records are
(:func:`pair_score`) and how matches become clusters (:class:`Clusters`).
:func:`run_partition`, :func:`repro.integrate.exchange.exchange` and
:class:`repro.stream.ingest.StreamIngestor` are only *how inputs arrive*:
all at once, per shard, or per delta.  The fusion half is
:class:`repro.integrate.fusion.AccuFusion`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)
from zlib import crc32

from repro.core.parallel import pmap
from repro.core.pipeline import (
    ConstructionPipeline,
    PipelineContext,
    PipelineStage,
)
from repro.core.triple import Value
from repro.datagen.sources import SourceRecord, StructuredSource
from repro.datagen.world import WorldConfig, build_world
from repro.integrate.blocking import BlockingStrategy
from repro.integrate.fusion import ValueClaim
from repro.ml.similarity import (
    monge_elkan,
    numeric_similarity,
    token_sort_similarity,
)

#: Canonical year-like attributes (used by cleaning and pair scoring).
_YEAR_ATTRIBUTES = ("release_year", "birth_year")

Pair = Tuple[str, str]
#: A claim cleaning refused: (record id, attribute, value, reason).
Rejection = Tuple[str, str, Value, str]


# ---------------------------------------------------------------------------
# transform: source schema -> canonical record


@dataclass
class CanonicalRecord:
    """A source record normalized to the canonical attribute schema.

    ``fields`` includes ``"name"``; the remaining attributes are the claim
    candidates.  Plain data — it crosses the process boundary in both
    directions (task in, result out).
    """

    record_id: str
    source: str
    entity_class: str
    fields: Dict[str, Value]

    @property
    def name(self) -> str:
        """The canonical display name (empty when the source lacked one)."""
        return str(self.fields.get("name", ""))


def transform_record(
    record: SourceRecord, field_map: Dict[str, str]
) -> CanonicalRecord:
    """Undo one source's schema heterogeneity.

    Reverses the source's field-name map and re-joins split person names
    (``first_name``/``last_name`` → ``name``), producing a record over the
    canonical attribute vocabulary.  A float with an integral value
    becomes an ``int``: a term is its type plus its value, and sources
    that disagree only on ``2002`` versus ``2002.0`` still agree.
    """
    inverse = {mapped: canonical for canonical, mapped in field_map.items()}
    fields: Dict[str, Value] = {}
    for source_field, value in record.fields.items():
        if type(value) is float and value.is_integer():
            value = int(value)
        fields[inverse.get(source_field, source_field)] = value
    first = fields.pop("first_name", None)
    last = fields.pop("last_name", None)
    if "name" not in fields and (first is not None or last is not None):
        parts = [str(part) for part in (first, last) if part is not None]
        # Single-token names arrive duplicated into both halves.
        if len(parts) == 2 and parts[0] == parts[1]:
            parts = parts[:1]
        fields["name"] = " ".join(parts)
    return CanonicalRecord(
        record_id=record.record_id,
        source=record.source,
        entity_class=record.entity_class,
        fields=fields,
    )


# ---------------------------------------------------------------------------
# clean: per-claim validation (pure, so partitions and tests share it)


def clean_reason(attribute: str, value: Value) -> Optional[str]:
    """Why a claim should be rejected, or ``None`` when it is clean."""
    if value is None or (isinstance(value, str) and not value.strip()):
        return "empty value"
    if attribute in _YEAR_ATTRIBUTES:
        try:
            year = int(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return "non-numeric year"
        if not 1500 <= year <= 2100:
            return "implausible year"
    if attribute == "runtime":
        try:
            runtime = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return "non-numeric runtime"
        if not 1 <= runtime <= 600:
            return "implausible runtime"
    return None


def extract_claims(
    record: CanonicalRecord,
) -> Tuple[List[ValueClaim], List[Rejection]]:
    """One record's scalar attributes as claims, and the ones cleaning refused.

    ``name`` identifies the record and multi-valued extras are not
    claimable scalars; every other attribute is either a
    :class:`~repro.integrate.fusion.ValueClaim` or a ``(record id,
    attribute, value, reason)`` rejection, in attribute order.
    """
    claims: List[ValueClaim] = []
    rejections: List[Rejection] = []
    for attribute in sorted(record.fields):
        if attribute == "name":
            continue
        value = record.fields[attribute]
        if isinstance(value, (list, tuple, set, dict)):
            continue
        reason = clean_reason(attribute, value)
        if reason is not None:
            rejections.append((record.record_id, attribute, value, reason))
        else:
            claims.append(
                ValueClaim(
                    subject=record.record_id,
                    attribute=attribute,
                    value=value,
                    source=record.source,
                )
            )
    return claims, rejections


# ---------------------------------------------------------------------------
# link: deterministic pair scoring (pure, shared by partitions and exchange)


def pair_score(left: CanonicalRecord, right: CanonicalRecord) -> float:
    """Similarity of a candidate record pair, in [0, 1].

    A fixed blend of token-sort and Monge-Elkan name similarity, weighted
    with year agreement when both records carry a year (a year that is not
    a number agrees with nothing: it scores 0.0 here and is rejected as a
    claim by :func:`clean_reason`).  Pure function of the two records — the
    same pair gives the same float whether it is scored inside a partition,
    in the exchange phase, or by the streamer, which is what makes the
    match set partition-count-invariant, and also what makes the memos
    under it (:mod:`repro.ml.similarity`) safe: a hit returns exactly what
    a miss would compute.
    """
    if left.entity_class != right.entity_class:
        return 0.0
    left_name, right_name = left.name, right.name
    name_sim = 0.5 * token_sort_similarity(left_name, right_name) + 0.5 * monge_elkan(
        left_name, right_name
    )
    for attribute in _YEAR_ATTRIBUTES:
        left_year = left.fields.get(attribute)
        right_year = right.fields.get(attribute)
        if left_year is not None and right_year is not None:
            return 0.75 * name_sim + 0.25 * numeric_similarity(
                left_year, right_year  # type: ignore[arg-type]
            )
    return name_sim


def ordered_pair(left_id: str, right_id: str) -> Tuple[str, str]:
    """The canonical (smaller, larger) orientation of a record pair."""
    return (left_id, right_id) if left_id < right_id else (right_id, left_id)


def _score_pair(pair: Tuple[CanonicalRecord, CanonicalRecord]) -> float:
    """Module-level pair scorer so process-mode :func:`pmap` can pickle it."""
    return pair_score(pair[0], pair[1])


# ---------------------------------------------------------------------------
# block + cluster: which pairs may be compared, and what matches add up to


def blocking_keys(
    strategy: BlockingStrategy, record: CanonicalRecord
) -> Tuple[str, ...]:
    """A record's distinct blocking keys, sorted."""
    return tuple(sorted(set(strategy.keys(record.fields))))


def block_pairs(
    blocks: Mapping[str, Collection[str]],
    records: Mapping[str, CanonicalRecord],
    max_block_size: int,
) -> Set[Pair]:
    """The eligibility rule: every (smaller id, larger id) pair that may be scored.

    Two records are comparable iff they share a blocking key whose block
    holds at most ``max_block_size`` records and they are of one entity
    class.  ``blocks`` maps key to record ids.  Called on a partition's
    local blocks, on the exchange's global ones and by the streamer's
    re-link; a local block over the cap is a subset of a global block over
    the cap, so skipping it locally never drops a pair the exchange keeps.
    """
    pairs: Set[Pair] = set()
    for block in blocks.values():
        if len(block) > max_block_size:
            continue
        members = sorted(block)
        for i, left_id in enumerate(members):
            left_class = records[left_id].entity_class
            for right_id in members[i + 1 :]:
                if records[right_id].entity_class == left_class:
                    pairs.add((left_id, right_id))
    return pairs


class Clusters:
    """Union-find over record ids whose roots are the lexicographic minima.

    The final components of a union-find depend only on the edge *set*,
    and rooting each component at its smallest member removes the last
    trace of processing order — so the cluster map is identical no matter
    how the match edges were discovered or ordered.  ``root_of`` (id →
    root) and ``members`` (root → ids, unordered) are both current after
    every :meth:`union`: the dropped root's side is relabelled, which
    costs its size, and cluster sizes are bounded by source overlap.
    """

    def __init__(self, items: Iterable[str] = ()) -> None:
        self.root_of: Dict[str, str] = {}
        self.members: Dict[str, List[str]] = {}
        for item in items:
            self.add(item)

    def add(self, item: str) -> None:
        """Start ``item`` as its own cluster (no-op when already known)."""
        if item not in self.root_of:
            self.root_of[item] = item
            self.members[item] = [item]

    def union(self, left: str, right: str) -> Optional[Pair]:
        """Join two items' clusters.

        Returns ``(kept root, dropped root)`` when two clusters became
        one, ``None`` when the items already shared a cluster.
        """
        left_root, right_root = self.root_of[left], self.root_of[right]
        if left_root == right_root:
            return None
        keep, drop = ordered_pair(left_root, right_root)
        dropped = self.members.pop(drop)
        for member in dropped:
            self.root_of[member] = keep
        self.members[keep].extend(dropped)
        return keep, drop


# ---------------------------------------------------------------------------
# routing: blocking keys as the hash domain


def home_partition(
    record: CanonicalRecord, strategy: BlockingStrategy, n_partitions: int
) -> int:
    """Which partition a record lives in.

    Hashes the record's smallest blocking key (falling back to the record
    id for keyless records), so records sharing that key co-locate and
    most candidate pairs are scored without crossing partitions.  Pure in
    the record — routing never depends on input order.
    """
    keys = blocking_keys(strategy, record)
    anchor = keys[0] if keys else record.record_id
    return crc32(anchor.encode("utf-8")) % n_partitions


# ---------------------------------------------------------------------------
# the per-partition pipeline (one pmap item, pure, picklable)


@dataclass
class PartitionTask:
    """Everything one partition worker needs — plain picklable data."""

    index: int
    n_partitions: int
    records: List[SourceRecord]
    field_maps: Dict[str, Dict[str, str]]
    strategy: BlockingStrategy


@dataclass
class PartitionResult:
    """What one partition produced; consumed by the exchange phase.

    Plain picklable data: the canonical records, their blocking keys, the
    locally scored pairs, and the claims and rejections in record order.
    """

    index: int
    records: List[CanonicalRecord]
    keys: Dict[str, Tuple[str, ...]]
    scores: Dict[Tuple[str, str], float]
    claims: List[ValueClaim]
    rejections: List[Rejection]


def run_partition(task: PartitionTask) -> PartitionResult:
    """Run the full per-partition pipeline: transform → extract → block →
    link → clean.

    Pure function of the task (records arrive sorted by record id), and it
    records **no** lineage or metrics — every ledger event is written by
    the exchange phase in globally sorted order, which is what keeps the
    lineage ledger byte-identical across partition counts.
    """
    strategy = task.strategy
    # transform
    records = [
        transform_record(record, task.field_maps.get(record.source, {}))
        for record in task.records
    ]
    # extract + clean
    claims: List[ValueClaim] = []
    rejections: List[Rejection] = []
    for record in records:
        record_claims, record_rejections = extract_claims(record)
        claims += record_claims
        rejections += record_rejections
    # block + link: score every locally co-resident candidate pair
    by_id = {record.record_id: record for record in records}
    keys = {
        record_id: blocking_keys(strategy, record) for record_id, record in by_id.items()
    }
    blocks: Dict[str, List[str]] = {}
    for record_id, record_keys in keys.items():
        for key in record_keys:
            blocks.setdefault(key, []).append(record_id)
    scores = {
        pair: pair_score(by_id[pair[0]], by_id[pair[1]])
        for pair in sorted(block_pairs(blocks, by_id, strategy.max_block_size))
    }
    return PartitionResult(
        index=task.index,
        records=records,
        keys=keys,
        scores=scores,
        claims=claims,
        rejections=rejections,
    )


# ---------------------------------------------------------------------------
# pipeline stages


@dataclass
class PartitionedBuild:
    """Configuration of a partition-parallel build.

    Attach to a :class:`~repro.core.pipeline.ConstructionPipeline` (the
    ``partition_build`` field) to enable ``pipeline.run(partitions=N)``.
    """

    strategy: BlockingStrategy = field(default_factory=BlockingStrategy)
    match_threshold: float = 0.85
    graph_name: str = "kg"
    sources_key: str = "sources"

    def stages(self, partitions: int) -> List[PipelineStage]:
        """The three partitioned-build stages for a given partition count."""
        if not isinstance(partitions, int) or partitions < 1:
            raise ValueError(
                f"partitions must be a positive integer, got {partitions!r}"
            )
        return [
            _PartitionStage(self, partitions),
            _PartitionMapStage(self),
            _ExchangeStage(self),
        ]


class _PartitionStage(PipelineStage):
    """Route source records to partitions by blocking key."""

    def __init__(self, build: PartitionedBuild, partitions: int):
        super().__init__(name="partition")
        self._build = build
        self._partitions = partitions

    def run(self, context: PipelineContext) -> None:
        build = self._build
        sources: Sequence[StructuredSource] = context.require(build.sources_key)
        field_maps = {source.name: dict(source.field_map) for source in sources}
        buckets: List[List[SourceRecord]] = [[] for _ in range(self._partitions)]
        n_records = 0
        for source in sources:
            for record in source.records:
                canonical = transform_record(record, field_maps[record.source])
                home = home_partition(canonical, build.strategy, self._partitions)
                buckets[home].append(record)
                n_records += 1
        # Sort within each partition so downstream work is canonical no
        # matter how the input sources were ordered.
        tasks = [
            PartitionTask(
                index=index,
                n_partitions=self._partitions,
                records=sorted(bucket, key=lambda record: record.record_id),
                field_maps=field_maps,
                strategy=build.strategy,
            )
            for index, bucket in enumerate(buckets)
        ]
        context.artifacts["partition_tasks"] = tasks
        self.record("n_records", n_records)
        self.record("n_partitions", self._partitions)
        if tasks:
            self.record(
                "max_partition_records", max(len(task.records) for task in tasks)
            )


class _PartitionMapStage(PipelineStage):
    """Run every partition's pipeline under ``pmap(mode="process")``."""

    def __init__(self, build: PartitionedBuild):
        super().__init__(name="build_partitions")
        self._build = build

    def run(self, context: PipelineContext) -> None:
        tasks: List[PartitionTask] = context.require("partition_tasks")
        results = pmap(run_partition, tasks, mode="process", chunk_size=1)
        context.artifacts["partition_results"] = results
        self.record("n_partitions", len(results))
        self.record("n_claims", sum(len(result.claims) for result in results))
        self.record(
            "n_local_pairs", sum(len(result.scores) for result in results)
        )
        self.record(
            "n_rejections", sum(len(result.rejections) for result in results)
        )


class _ExchangeStage(PipelineStage):
    """Cross-partition exchange: boundary linkage, fusion, stitch."""

    def __init__(self, build: PartitionedBuild):
        super().__init__(name="exchange")
        self._build = build

    def run(self, context: PipelineContext) -> None:
        from repro.integrate.exchange import exchange

        build = self._build
        results = context.require("partition_results")
        outcome = exchange(
            results,
            strategy=build.strategy,
            match_threshold=build.match_threshold,
            graph_name=build.graph_name,
        )
        context.artifacts["kg"] = outcome.graph
        context.artifacts["exchange"] = outcome
        for metric, value in sorted(outcome.stats.items()):
            self.record(metric, value)


# ---------------------------------------------------------------------------
# factory + fixture sources


def partitioned_pipeline(
    sources: Sequence[StructuredSource],
    *,
    name: str = "partitioned_build",
    strategy: Optional[BlockingStrategy] = None,
    match_threshold: float = 0.85,
) -> Tuple[ConstructionPipeline, PipelineContext]:
    """A ready-to-run partition-parallel construction pipeline.

    Returns the pipeline (its default stages are the ``partitions=1``
    build, so ``pipeline.run()`` and ``pipeline.run(partitions=1)`` are
    the same thing) and a fresh context holding the sources artifact.
    Build a new context per run — stages add artifacts as they go.
    """
    build = PartitionedBuild(
        strategy=strategy or BlockingStrategy(),
        match_threshold=match_threshold,
    )
    pipeline = ConstructionPipeline(
        name=name, stages=build.stages(1), partition_build=build
    )
    return pipeline, build_context(sources, build)


def build_context(
    sources: Sequence[StructuredSource], build: PartitionedBuild
) -> PipelineContext:
    """A fresh context for one run of a partitioned pipeline."""
    return PipelineContext(artifacts={build.sources_key: list(sources)})


def fixture_sources(
    n_people: int = 120, n_movies: int = 80, seed: int = 11
) -> List[StructuredSource]:
    """The standard partitioned-build fixture: three overlapping sources.

    A Freebase-like and an IMDb-like source (schema + entity
    heterogeneity) plus a noisier wiki-like source (value heterogeneity),
    all derived from one synthetic ground-truth world — enough source
    overlap that linkage, fusion, and the cross-partition exchange all
    have real work to do.
    """
    from repro.datagen.sources import SourceConfig, default_source_pair, derive_source

    world = build_world(
        WorldConfig(n_people=n_people, n_movies=n_movies, n_songs=0, seed=seed)
    )
    freebase_like, imdb_like = default_source_pair(world, seed=seed)
    wiki_like = derive_source(
        world,
        SourceConfig(
            name="wiki",
            entity_classes=("Movie", "Person"),
            coverage_base=0.85,
            coverage_floor=0.4,
            name_variation_rate=0.25,
            value_noise_rate=0.18,
            missing_rate=0.15,
            seed=seed + 7,
        ),
    )
    return [freebase_like, imdb_like, wiki_like]
