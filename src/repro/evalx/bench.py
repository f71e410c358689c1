"""``repro bench`` — the core performance trajectory harness.

The ROADMAP's north star is a system that runs "as fast as the hardware
allows"; this module plants the measurement stake every perf PR is judged
against.  It runs parameterized workloads over the hot paths of KG
construction — batch ingestion, merge-heavy entity linkage, the query
mix, and Bayesian fusion — and appends one trajectory entry (keyed by git
SHA) to ``BENCH_core.json`` at the repo root.

Two comparisons are recorded per entry:

* **speedup_vs_naive** — each workload also runs a *naive* reference
  implementation (full-scan ``merge_entities``, one-at-a-time
  ``add_triple`` ingestion, per-call-sorted scans) on identical data in
  the same process, so the fast-path win is visible inside a single
  entry, independent of history;
* **the trajectory gate** — the new entry's throughput is compared to
  the most recent previous entry of the same mode (quick/full) and the
  run fails when any workload regresses by more than ``tolerance``
  (default 20%).

Wall-times and throughputs are recorded through the existing
:mod:`repro.obs.metrics` registry (a private instance, so benchmark runs
never pollute the process-global registry) and the registry snapshot is
embedded in the trajectory entry.

The naive reference implementations double as the *equivalence oracle*:
``tests/test_perf_equivalence.py`` asserts that fast and naive paths
produce byte-identical query results, provenance, and lineage ledgers.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.query import PathQuery, TriplePattern, conjunctive_query
from repro.core.triple import Provenance, Triple
from repro.integrate.fusion import AccuFusion, ValueClaim
from repro.obs import lineage as obs_lineage
from repro.obs import profiling, runs
from repro.obs.metrics import MetricsRegistry

#: Trajectory document version (bump on incompatible schema changes).
SCHEMA_VERSION = 1

#: Default trajectory file name, kept at the repo root so CI can upload it.
TRAJECTORY_BASENAME = "BENCH_core.json"

#: Allowed relative throughput drop vs the previous same-mode entry.
DEFAULT_TOLERANCE = 0.20


# ---------------------------------------------------------------------------
# naive reference implementations (the pre-optimization algorithms)


def naive_merge_entities(graph: KnowledgeGraph, keep_id: str, drop_id: str) -> int:
    """Full-scan entity merge: the O(|T|) algorithm the index walk replaced.

    Scans ``graph.triples()`` twice per merge.  Kept as the benchmark
    baseline *and* the equivalence oracle: its final graph state,
    provenance, and lineage records must match ``merge_entities`` exactly.
    """
    keep = graph.entity(keep_id)
    drop = graph.entity(drop_id)
    if keep_id == drop_id:
        raise ValueError(f"cannot merge entity {keep_id!r} into itself")
    rewritten = 0
    for triple in [t for t in graph.triples() if t.subject == drop_id]:
        _naive_rewrite(graph, triple, triple.replace_subject(keep_id))
        rewritten += 1
    for triple in [t for t in graph.triples() if t.object == drop_id]:
        _naive_rewrite(graph, triple, triple.replace_object(keep_id))
        rewritten += 1
    for alias in drop.all_names():
        keep.aliases.add(alias)
        graph._name_index[alias.lower()].discard(drop_id)
        graph._name_index[alias.lower()].add(keep_id)
    keep.aliases.discard(keep.name)
    del graph._entities[drop_id]
    graph._generation += 1
    obs_lineage.record_merge(
        keep_id, drop_id, n_rewritten=rewritten, stage="graph.merge_entities"
    )
    return rewritten


def _naive_rewrite(graph: KnowledgeGraph, old: Triple, new: Triple) -> None:
    """Replace ``old`` with ``new``; provenance moves without re-observing it."""
    records = graph.provenance(old)
    graph.remove_triple(old)
    graph.add_triple(new)
    if records:
        graph._provenance[new].extend(records)


def naive_ingest(
    graph: KnowledgeGraph, items: Sequence[Tuple[Triple, Optional[Provenance]]]
) -> int:
    """One-at-a-time ingestion: the per-call bookkeeping path."""
    n_new = 0
    for triple, provenance in items:
        if graph.add_triple(triple, provenance=provenance):
            n_new += 1
    return n_new


def fast_ingest(
    graph: KnowledgeGraph, items: Sequence[Tuple[Triple, Optional[Provenance]]]
) -> int:
    """Batch ingestion via ``add_triples_batch`` when the graph has it.

    Falls back to the naive loop, so the harness runs (and records a
    truthful baseline) against pre-batch-API code.
    """
    batch = getattr(graph, "add_triples_batch", None)
    if batch is None:
        return naive_ingest(graph, items)
    return batch(items)


# ---------------------------------------------------------------------------
# synthetic workload data (seeded, so every run times identical work)


def _build_graph(
    n_entities: int,
    n_triples: int,
    seed: int = 7,
    with_provenance: bool = True,
) -> KnowledgeGraph:
    """A seeded scale-free-ish KG: entity edges plus attribute triples."""
    graph = _empty_graph(n_entities)
    for triple, provenance in make_triples(
        n_entities, n_triples, seed=seed, with_provenance=with_provenance
    ):
        graph.add_triple(triple, provenance=provenance)
    return graph


def _empty_graph(n_entities: int) -> KnowledgeGraph:
    ontology = Ontology()
    ontology.add_class("Thing")
    graph = KnowledgeGraph(ontology=ontology, name="bench")
    for index in range(n_entities):
        graph.add_entity(f"e{index}", f"Entity {index}", "Thing")
    return graph


#: Predicates mix entity-valued relations and literal attributes.
_RELATIONS = ("related_to", "part_of", "derived_from")
_ATTRIBUTES = ("label", "score", "year")


def make_triples(
    n_entities: int,
    n_triples: int,
    seed: int = 7,
    with_provenance: bool = True,
) -> List[Tuple[Triple, Optional[Provenance]]]:
    """Deterministic (triple, provenance) pairs over ``e0..e{n-1}``."""
    rng = random.Random(seed)
    sources = [f"src{j}" for j in range(5)]
    items: List[Tuple[Triple, Optional[Provenance]]] = []
    for _ in range(n_triples):
        subject = f"e{rng.randrange(n_entities)}"
        if rng.random() < 0.6:
            predicate = rng.choice(_RELATIONS)
            obj: object = f"e{rng.randrange(n_entities)}"
        else:
            predicate = rng.choice(_ATTRIBUTES)
            obj = (
                rng.randrange(1900, 2030)
                if predicate == "year"
                else f"value-{rng.randrange(2000)}"
            )
        provenance = (
            Provenance(source=rng.choice(sources), confidence=round(rng.random(), 3))
            if with_provenance
            else None
        )
        items.append((Triple(subject, predicate, obj), provenance))
    return items


def make_claims(n_items: int, n_sources: int = 4, seed: int = 11) -> List[ValueClaim]:
    """Conflicting per-item claims for the fusion workload."""
    rng = random.Random(seed)
    claims: List[ValueClaim] = []
    for index in range(n_items):
        truth = f"v{rng.randrange(50)}"
        for source_index in range(n_sources):
            value = truth if rng.random() < 0.7 else f"v{rng.randrange(50)}"
            claims.append(
                ValueClaim(
                    subject=f"item{index}",
                    attribute="attr",
                    value=value,
                    source=f"s{source_index}",
                )
            )
    return claims


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class WorkloadResult:
    """One workload's measurement within a trajectory entry."""

    name: str
    wall_s: float
    n_ops: int
    naive_wall_s: Optional[float] = None
    #: Workload-specific detail merged into the trajectory entry (e.g.
    #: the full partition-count scaling curve for ``build_scaling``).
    extra: Optional[Dict[str, object]] = None

    @property
    def ops_per_s(self) -> float:
        return self.n_ops / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def speedup_vs_naive(self) -> Optional[float]:
        if self.naive_wall_s is None or self.wall_s <= 0:
            return None
        return self.naive_wall_s / self.wall_s

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "wall_s": round(self.wall_s, 6),
            "n_ops": self.n_ops,
            "ops_per_s": round(self.ops_per_s, 3),
        }
        if self.naive_wall_s is not None:
            record["naive_wall_s"] = round(self.naive_wall_s, 6)
            record["speedup_vs_naive"] = round(self.speedup_vs_naive, 3)
        if self.extra:
            record.update(self.extra)
        return record


@dataclass(frozen=True)
class WorkloadScale:
    """Knobs for one workload size (full vs ``--quick``)."""

    n_entities: int
    n_triples: int
    n_merges: int
    n_queries: int
    n_fusion_items: int


FULL_SCALE = WorkloadScale(
    n_entities=1500, n_triples=24000, n_merges=300, n_queries=400, n_fusion_items=500
)
QUICK_SCALE = WorkloadScale(
    n_entities=200, n_triples=2000, n_merges=40, n_queries=60, n_fusion_items=60
)


def _bench_ingest(scale: WorkloadScale) -> WorkloadResult:
    """Batch ingestion (with provenance) vs the one-at-a-time loop."""
    items = make_triples(scale.n_entities, scale.n_triples)

    graph = _empty_graph(scale.n_entities)
    start = time.perf_counter()
    fast_ingest(graph, items)
    wall = time.perf_counter() - start

    graph_naive = _empty_graph(scale.n_entities)
    start = time.perf_counter()
    naive_ingest(graph_naive, items)
    naive_wall = time.perf_counter() - start

    if len(graph) != len(graph_naive):  # pragma: no cover - equivalence guard
        raise RuntimeError("fast and naive ingestion disagree on graph size")
    return WorkloadResult(
        "ingest_batch", wall, n_ops=scale.n_triples, naive_wall_s=naive_wall
    )


def _merge_pairs(scale: WorkloadScale, seed: int = 13) -> List[Tuple[str, str]]:
    """Disjoint (keep, drop) pairs: every entity appears at most once."""
    rng = random.Random(seed)
    ids = [f"e{i}" for i in range(scale.n_entities)]
    rng.shuffle(ids)
    return [
        (ids[2 * k], ids[2 * k + 1])
        for k in range(min(scale.n_merges, len(ids) // 2))
    ]


def _bench_linkage_merge(scale: WorkloadScale) -> WorkloadResult:
    """Merge-heavy linkage: index-walk merges vs full-scan merges."""
    base = _build_graph(scale.n_entities, scale.n_triples)
    pairs = _merge_pairs(scale)

    graph = base.copy()
    start = time.perf_counter()
    for keep_id, drop_id in pairs:
        graph.merge_entities(keep_id, drop_id)
    wall = time.perf_counter() - start

    graph_naive = base.copy()
    start = time.perf_counter()
    for keep_id, drop_id in pairs:
        naive_merge_entities(graph_naive, keep_id, drop_id)
    naive_wall = time.perf_counter() - start

    if len(graph) != len(graph_naive):  # pragma: no cover - equivalence guard
        raise RuntimeError("fast and naive merges disagree on graph size")
    return WorkloadResult(
        "linkage_merge", wall, n_ops=len(pairs), naive_wall_s=naive_wall
    )


def _bench_query_mix(scale: WorkloadScale) -> WorkloadResult:
    """Full scans, pattern matches, conjunctive joins, and path searches."""
    graph = _build_graph(scale.n_entities, scale.n_triples, with_provenance=False)
    rng = random.Random(17)
    subjects = [f"e{rng.randrange(scale.n_entities)}" for _ in range(scale.n_queries)]
    patterns = [
        TriplePattern("?x", "related_to", "?y"),
        TriplePattern("?y", "part_of", "?z"),
    ]
    path_query = PathQuery(graph, max_length=3)

    n_ops = 0
    start = time.perf_counter()
    for index, subject in enumerate(subjects):
        graph.query(subject=subject)
        graph.query(predicate="related_to", obj=subject)
        n_ops += 2
        if index % 10 == 0:
            len(graph.query())  # the all-wildcard scan (cached-view path)
            n_ops += 1
        if index % 20 == 0:
            conjunctive_query(graph, patterns)
            path_query.paths(subject, f"e{(index * 7) % scale.n_entities}", max_paths=5)
            n_ops += 2
    wall = time.perf_counter() - start
    return WorkloadResult("query_mix", wall, n_ops=n_ops)


def _bench_fusion(scale: WorkloadScale) -> WorkloadResult:
    """AccuFusion EM over conflicting multi-source claims."""
    claims = make_claims(scale.n_fusion_items)
    fusion = AccuFusion(n_iterations=6)
    start = time.perf_counter()
    results = fusion.fuse(claims)
    wall = time.perf_counter() - start
    return WorkloadResult("fusion_accu", wall, n_ops=len(results))


def _bench_load_snapshot(scale: WorkloadScale) -> WorkloadResult:
    """Binary snapshot boot vs re-running storage construction.

    The naive baseline re-ingests the same pre-generated (triple,
    provenance) items one call at a time into a fresh graph — the
    storage-rebuild core of a pipeline re-run, with datagen/extraction
    excluded so the comparison is conservative.  The fast path parses the
    ``.rkgs`` file into a graph (provenance thaw deferred, as a serving
    boot would leave it).
    """
    from repro.core import codec

    items = make_triples(scale.n_entities, scale.n_triples)
    source = _empty_graph(scale.n_entities)
    fast_ingest(source, items)
    with tempfile.TemporaryDirectory() as tmp_dir:
        path = os.path.join(tmp_dir, "bench.rkgs")
        codec.save_graph(source, path, include_lineage=False)

        start = time.perf_counter()
        loaded = codec.load_graph(path)
        wall = time.perf_counter() - start

    graph_naive = _empty_graph(scale.n_entities)
    start = time.perf_counter()
    naive_ingest(graph_naive, items)
    naive_wall = time.perf_counter() - start

    if len(loaded) != len(graph_naive):  # pragma: no cover - equivalence guard
        raise RuntimeError("snapshot load and rebuild disagree on graph size")
    return WorkloadResult(
        "load_snapshot", wall, n_ops=scale.n_triples, naive_wall_s=naive_wall
    )


def _bench_wal_replay(scale: WorkloadScale) -> WorkloadResult:
    """WAL recovery (segment replay into a fresh graph) vs re-ingestion.

    The naive baseline is per-call re-ingestion into a fresh graph — what
    a restart without a log would actually have to do (and it still gets
    the datagen for free).
    """
    from repro.core import codec

    items = make_triples(scale.n_entities, scale.n_triples)
    with tempfile.TemporaryDirectory() as tmp_dir:
        wal = codec.TripleWAL(tmp_dir)
        graph = _empty_graph(scale.n_entities)
        graph.attach_wal(wal)
        # Entity records must be in the log too: recovery starts empty.
        for entity in list(graph.entities()):
            wal.append(
                {
                    "op": "entity",
                    "id": entity.entity_id,
                    "name": entity.name,
                    "class": entity.entity_class,
                    "aliases": sorted(entity.aliases),
                }
            )
        fast_ingest(graph, items)
        wal.close()

        recovery = codec.TripleWAL(tmp_dir)
        start = time.perf_counter()
        recovered = recovery.recover()
        wall = time.perf_counter() - start
        recovery.close()

    graph_naive = _empty_graph(scale.n_entities)
    start = time.perf_counter()
    naive_ingest(graph_naive, items)
    naive_wall = time.perf_counter() - start

    if len(recovered) != len(graph_naive):  # pragma: no cover - equivalence guard
        raise RuntimeError("WAL recovery and rebuild disagree on graph size")
    return WorkloadResult(
        "wal_replay", wall, n_ops=scale.n_triples, naive_wall_s=naive_wall
    )


def _bench_build_scaling(scale: WorkloadScale) -> WorkloadResult:
    """Partition-parallel construction throughput at 1, 2, 4, and 8 shards.

    ``wall_s`` is the 4-partition build, ``naive_wall_s`` the single-shard
    reference, so ``speedup_vs_naive`` reads directly as the scaling
    factor at 4 partitions (the ISSUE target: >=2.5x on a 4-core runner).
    The full curve — wall and records/s per partition count — plus the
    machine's core count lands in the entry via ``extra``, so a curve
    measured on a 1-core CI box is never mistaken for a scaling failure.
    Every curve point is checked observably identical to the single-shard
    build before its timing counts.
    """
    from repro.core.partition import fixture_sources, partitioned_pipeline

    n_people = max(20, scale.n_entities // 10)
    n_movies = max(15, scale.n_entities // 15)
    sources = fixture_sources(n_people=n_people, n_movies=n_movies, seed=11)
    n_records = sum(len(source) for source in sources)

    curve: Dict[str, object] = {}
    walls: Dict[int, float] = {}
    reference_state: Optional[Tuple[int, List[Triple]]] = None
    for partitions in (1, 2, 4, 8):
        pipeline, context = partitioned_pipeline(sources, name="build_scaling")
        start = time.perf_counter()
        context = pipeline.run(context, partitions=partitions)
        wall = time.perf_counter() - start
        walls[partitions] = wall

        graph = context.artifacts["kg"]
        state = (len(graph), sorted(graph.query(), key=lambda t: t._sort_key()))
        if reference_state is None:
            reference_state = state
        elif state != reference_state:  # pragma: no cover - equivalence guard
            raise RuntimeError(
                f"{partitions}-partition build diverges from single-shard"
            )
        curve[str(partitions)] = {
            "wall_s": round(wall, 6),
            "records_per_s": round(n_records / wall, 3) if wall > 0 else 0.0,
        }

    return WorkloadResult(
        "build_scaling",
        walls[4],
        n_ops=n_records,
        naive_wall_s=walls[1],
        extra={
            "scaling_curve": curve,
            "cpu_count": os.cpu_count() or 1,
            "n_records": n_records,
        },
    )


def _bench_stream_ingest(scale: WorkloadScale) -> WorkloadResult:
    """Streaming construction vs the one-shot batch build over the same
    sources.

    ``wall_s`` is the full delta drain including cadenced live snapshot
    publishes, ``naive_wall_s`` the batch build, and the staleness /
    catch-up-lag percentiles land in ``extra`` — the freshness numbers the
    ISSUE pins into BENCH_core.json.  After timing, the stream finalizes
    and its canonical state must match the batch build (equivalence
    guard), so a regression here can never hide behind a wrong answer.
    """
    import tempfile

    from repro.core.codec import TripleWAL
    from repro.core.partition import fixture_sources, partitioned_pipeline
    from repro.serve.snapshot import SnapshotStore
    from repro.stream import (
        StreamIngestor,
        StreamPublisher,
        WALFollower,
        micro_batches,
    )

    n_people = max(20, scale.n_entities // 10)
    n_movies = max(15, scale.n_entities // 15)
    sources = fixture_sources(n_people=n_people, n_movies=n_movies, seed=11)
    n_records = sum(len(source) for source in sources)

    pipeline, context = partitioned_pipeline(sources, name="stream_ingest")
    start = time.perf_counter()
    context = pipeline.run(context, partitions=1)
    naive_wall = time.perf_counter() - start
    batch_graph = context.artifacts["kg"]
    reference = (
        len(batch_graph),
        sorted(batch_graph.query(), key=lambda t: t._sort_key()),
    )

    deltas = micro_batches(sources, max(1, n_records // 12))
    with tempfile.TemporaryDirectory() as wal_dir:
        wal = TripleWAL(wal_dir)
        ingestor = StreamIngestor(wal=wal)
        publisher = StreamPublisher(SnapshotStore(), WALFollower(wal_dir))
        pending = n_records
        start = time.perf_counter()
        for position, delta in enumerate(deltas):
            ingestor.ingest(delta)
            pending -= len(delta)
            if position % 2 == 1:
                publisher.publish(queue_records=pending)
        publisher.publish(queue_records=0)
        wall = time.perf_counter() - start

        outcome = ingestor.finalize()
    graph = outcome.graph
    state = (len(graph), sorted(graph.query(), key=lambda t: t._sort_key()))
    if state != reference:  # pragma: no cover - equivalence guard
        raise RuntimeError("streamed build diverges from the batch build")

    freshness = publisher.freshness()
    return WorkloadResult(
        "stream_ingest",
        wall,
        n_ops=n_records,
        naive_wall_s=naive_wall,
        extra={
            "n_deltas": len(deltas),
            "n_relinks": ingestor.n_relinks,
            "n_publishes": publisher.n_publishes,
            "staleness_p50_s": round(freshness["staleness_p50_s"], 6),
            "staleness_p95_s": round(freshness["staleness_p95_s"], 6),
            "catchup_p50_records": freshness["catchup_p50_records"],
            "catchup_p95_records": freshness["catchup_p95_records"],
        },
    )


def _bench_stream_scale(scale: WorkloadScale) -> WorkloadResult:
    """Large synthetic stream: records/s and peak RSS at >=100k entities.

    Names use per-entity unique tokens so blocking stays bounded (the
    real-world analogue: a well-chosen blocking key); every tenth entity
    arrives twice from a second source, so linkage, fusion conflicts, and
    WAL-logged merges all run at scale rather than being optimized away.
    """
    import tempfile

    from repro.datagen.sources import SourceRecord, StructuredSource
    from repro.serve.snapshot import SnapshotStore
    from repro.core.codec import TripleWAL
    from repro.stream import (
        StreamIngestor,
        StreamPublisher,
        WALFollower,
        micro_batches,
    )

    n_entities = 100_000 if scale.n_entities >= 1000 else 4_000
    primary = StructuredSource(name="feed-a")
    secondary = StructuredSource(name="feed-b")
    for index in range(n_entities):
        fields = {
            "name": f"stream{index} uniq{index}",
            "birth_year": 1900 + index % 120,
            "city": f"city {index % 500}",
        }
        primary.records.append(
            SourceRecord(
                record_id=f"a:{index}",
                source="feed-a",
                entity_class="Person",
                fields=dict(fields),
                world_id=f"w{index}",
            )
        )
        if index % 10 == 0:
            conflicting = dict(fields)
            conflicting["birth_year"] = fields["birth_year"] + 1
            secondary.records.append(
                SourceRecord(
                    record_id=f"b:{index}",
                    source="feed-b",
                    entity_class="Person",
                    fields=conflicting,
                    world_id=f"w{index}",
                )
            )
    sources = [primary, secondary]
    n_records = len(primary) + len(secondary)

    deltas = micro_batches(sources, max(1, n_records // 20), order_seed=3)
    publish_every = max(1, len(deltas) // 4)
    with tempfile.TemporaryDirectory() as wal_dir:
        wal = TripleWAL(wal_dir)
        ingestor = StreamIngestor(wal=wal)
        publisher = StreamPublisher(SnapshotStore(), WALFollower(wal_dir))
        start = time.perf_counter()
        for position, delta in enumerate(deltas):
            ingestor.ingest(delta)
            if (position + 1) % publish_every == 0:
                publisher.publish()
        wall = time.perf_counter() - start

    return WorkloadResult(
        "stream_scale",
        wall,
        n_ops=n_records,
        extra={
            "n_stream_records": n_records,
            "n_entities": n_entities,
            "n_deltas": len(deltas),
            "n_relinks": ingestor.n_relinks,
            "n_publishes": publisher.n_publishes,
            "records_per_s": round(n_records / wall, 3) if wall > 0 else 0.0,
            "peak_rss_mb": round(profiling.rusage()["peak_rss_kb"] / 1024, 1),
        },
    )


WORKLOADS: Dict[str, Callable[[WorkloadScale], WorkloadResult]] = {
    "ingest_batch": _bench_ingest,
    "linkage_merge": _bench_linkage_merge,
    "query_mix": _bench_query_mix,
    "fusion_accu": _bench_fusion,
    "load_snapshot": _bench_load_snapshot,
    "wal_replay": _bench_wal_replay,
    "build_scaling": _bench_build_scaling,
    "stream_ingest": _bench_stream_ingest,
    "stream_scale": _bench_stream_scale,
}


# ---------------------------------------------------------------------------
# the trajectory file


@dataclass
class BenchRun:
    """All workload results of one bench invocation plus its metrics."""

    quick: bool
    results: Dict[str, WorkloadResult]
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    def to_entry(self) -> Dict[str, object]:
        """The JSON trajectory entry for this run."""
        return {
            "git_sha": current_git_sha(),
            "timestamp": round(time.time(), 3),
            "quick": self.quick,
            "workloads": {
                name: result.to_dict() for name, result in sorted(self.results.items())
            },
            "metrics": self.registry.snapshot(),
            # Peak RSS etc. so memory regressions are visible in the
            # trajectory next to the throughput numbers.
            "resources": profiling.rusage(),
        }


def current_git_sha() -> str:
    """The repo HEAD SHA, or ``"unknown"`` outside a git checkout."""
    return runs.git_sha()


def run_bench(
    quick: bool = False,
    workloads: Optional[Sequence[str]] = None,
    repeats: Optional[int] = None,
) -> BenchRun:
    """Run the selected workloads; best-of-``repeats`` wall time wins.

    Timing through a private :class:`MetricsRegistry`: one histogram of
    per-repeat wall seconds and one throughput gauge per workload.
    """
    scale = QUICK_SCALE if quick else FULL_SCALE
    repeats = repeats if repeats is not None else (1 if quick else 3)
    selected = list(workloads) if workloads else list(WORKLOADS)
    unknown = [name for name in selected if name not in WORKLOADS]
    if unknown:
        raise ValueError(f"unknown workload(s): {', '.join(sorted(unknown))}")
    run = BenchRun(quick=quick, results={})
    for name in selected:
        best: Optional[WorkloadResult] = None
        for _ in range(max(repeats, 1)):
            result = WORKLOADS[name](scale)
            run.registry.histogram(f"bench.{name}.wall_seconds").observe(result.wall_s)
            if result.naive_wall_s is not None:
                run.registry.histogram(f"bench.{name}.naive_wall_seconds").observe(
                    result.naive_wall_s
                )
            if best is None or result.wall_s < best.wall_s:
                best = result
        assert best is not None
        run.registry.gauge(f"bench.{name}.ops_per_s").set(best.ops_per_s)
        run.registry.counter(f"bench.{name}.ops").inc(best.n_ops)
        run.results[name] = best
    return run


def load_trajectory(path: str) -> Dict[str, object]:
    """The trajectory document at ``path`` (a fresh one when absent)."""
    if not os.path.exists(path):
        return {"schema": SCHEMA_VERSION, "entries": []}
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trajectory schema {document.get('schema')!r} in {path}"
        )
    if not isinstance(document.get("entries"), list):
        raise ValueError(f"malformed trajectory file {path}: no entries list")
    return document


def append_entry(path: str, entry: Dict[str, object]) -> Dict[str, object]:
    """Append one entry to the trajectory file; returns the document."""
    document = load_trajectory(path)
    document["entries"].append(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


@dataclass(frozen=True)
class Regression:
    """One workload whose throughput dropped beyond the tolerance."""

    workload: str
    previous_ops_per_s: float
    current_ops_per_s: float

    @property
    def drop(self) -> float:
        if self.previous_ops_per_s <= 0:
            return 0.0
        return 1.0 - self.current_ops_per_s / self.previous_ops_per_s

    def describe(self) -> str:
        return (
            f"{self.workload}: {self.previous_ops_per_s:.1f} -> "
            f"{self.current_ops_per_s:.1f} ops/s ({self.drop:.1%} drop)"
        )


def previous_entry(
    document: Dict[str, object], quick: bool
) -> Optional[Dict[str, object]]:
    """The most recent earlier entry of the same mode (quick vs full).

    Quick runs use smaller scales, so cross-mode throughput comparisons
    would gate on noise, not regressions.
    """
    for entry in reversed(document.get("entries", [])):
        if bool(entry.get("quick")) == quick:
            return entry
    return None


def check_regressions(
    entry: Dict[str, object],
    baseline: Optional[Dict[str, object]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Regression]:
    """Workloads in ``entry`` slower than ``baseline`` beyond ``tolerance``."""
    if baseline is None:
        return []
    regressions: List[Regression] = []
    baseline_workloads = baseline.get("workloads", {})
    for name, record in sorted(entry.get("workloads", {}).items()):
        previous = baseline_workloads.get(name)
        if not previous:
            continue
        previous_rate = float(previous.get("ops_per_s", 0.0))
        current_rate = float(record.get("ops_per_s", 0.0))
        if previous_rate > 0 and current_rate < previous_rate * (1.0 - tolerance):
            regressions.append(Regression(name, previous_rate, current_rate))
    return regressions
