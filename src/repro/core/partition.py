"""Partition-parallel KG construction — shard the build, not just the reads.

The paper's business lesson is that construction is the cost center: every
generation scaled by industrializing the build loop over ever-larger source
sets.  This module shards that loop.  Source records are routed to
partitions by their cheapest blocking key (the same key domain
:mod:`repro.integrate.blocking` uses for candidate generation), each
partition runs a full pipeline — transform → extract → block → link →
clean — as one :func:`repro.core.parallel.pmap` item in ``mode="process"``,
and a deterministic cross-partition exchange
(:mod:`repro.integrate.exchange`) re-blocks boundary candidates, merges
source-trust EM sufficient statistics, and stitches the per-partition
columnar fragments into one :class:`~repro.core.graph.KnowledgeGraph`.

The contract is **equality by construction**: ``partitions=1`` and
``partitions=N`` run the identical code path, every cross-record decision
(linkage, fusion, lineage, final assembly) is made in the exchange phase
from merged global data in globally sorted order, and partition workers are
pure functions that record no observability state — so the resulting graph
state, provenance, lineage ledger, and ``.rkgs`` snapshot bytes are
partition-count-invariant (pinned by ``tests/test_perf_equivalence.py``
and the Hypothesis property in ``tests/test_core_partition_property.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple
from zlib import crc32

from repro.core.parallel import pmap
from repro.core.pipeline import (
    ConstructionPipeline,
    PipelineContext,
    PipelineStage,
)
from repro.core.store import ColumnarTripleStore
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
    canonical attribute vocabulary.
    """
    inverse = {mapped: canonical for canonical, mapped in field_map.items()}
    fields: Dict[str, Value] = {}
    for source_field, value in record.fields.items():
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
    keys = sorted(set(strategy.keys(record.fields)))
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

    ``fragment_terms``/``fragment_columns`` are the partition's local
    :class:`~repro.core.store.TermDict` terms and sorted SPO id columns —
    the columnar fragment the exchange stitches via id remapping.
    """

    index: int
    records: List[CanonicalRecord]
    keys: Dict[str, Tuple[str, ...]]
    scores: Dict[Tuple[str, str], float]
    claims: List[ValueClaim]
    rejections: List[Tuple[str, str, Value, str]]
    fragment_terms: List[Value]
    fragment_columns: Tuple


def run_partition(task: PartitionTask) -> PartitionResult:
    """Run the full per-partition pipeline: transform → extract → block →
    link → clean, plus the local columnar fragment build.

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
    rejections: List[Tuple[str, str, Value, str]] = []
    for record in records:
        for attribute in sorted(record.fields):
            if attribute == "name":
                continue
            value = record.fields[attribute]
            if isinstance(value, (list, tuple, set, dict)):
                continue  # multi-valued extras are not claimable scalars
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
    # block
    keys: Dict[str, Tuple[str, ...]] = {
        record.record_id: tuple(sorted(set(strategy.keys(record.fields))))
        for record in records
    }
    blocks: Dict[str, List[int]] = {}
    for position, record in enumerate(records):
        for key in keys[record.record_id]:
            blocks.setdefault(key, []).append(position)
    # link: score every locally co-resident candidate pair.  A local block
    # larger than the cap is a subset of a global block larger than the
    # cap, so skipping it here can never drop a pair the exchange phase
    # would have kept.
    pairs = set()
    for members in blocks.values():
        if len(members) > strategy.max_block_size:
            continue
        for i, left_position in enumerate(members):
            left = records[left_position]
            for right_position in members[i + 1 :]:
                right = records[right_position]
                if left.entity_class != right.entity_class:
                    continue
                pairs.add(ordered_pair(left.record_id, right.record_id))
    by_id = {record.record_id: record for record in records}
    scores = {
        pair: pair_score(by_id[pair[0]], by_id[pair[1]]) for pair in sorted(pairs)
    }
    # local columnar fragment: claims as (record, attribute, value) rows
    store = ColumnarTripleStore()
    loader = store.bulk_loader()
    try:
        for claim in claims:
            loader.add(claim.subject, claim.attribute, claim.value)
    finally:
        loader.finish()
    terms, spo, _, _ = store.sorted_columns()
    return PartitionResult(
        index=task.index,
        records=records,
        keys=keys,
        scores=scores,
        claims=claims,
        rejections=rejections,
        fragment_terms=terms,
        fragment_columns=spo,
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
    n_distractors: int = 10
    n_iterations: int = 10
    initial_accuracy: float = 0.8
    min_accuracy: float = 0.05
    max_accuracy: float = 0.99
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
            n_distractors=build.n_distractors,
            n_iterations=build.n_iterations,
            initial_accuracy=build.initial_accuracy,
            min_accuracy=build.min_accuracy,
            max_accuracy=build.max_accuracy,
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
