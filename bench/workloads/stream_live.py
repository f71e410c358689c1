"""``stream_live`` — stream -> publish -> serve, fusion/stitch-bound.

A two-feed stream arrives as 40 micro-batches into a WAL-attached
``StreamIngestor``; every fifth delta a ``StreamPublisher`` tails the WAL
and hot-swaps the serving store, and 100 just-published records are read
back through ``InProcessClient`` (read-your-publish).  ``finalize()`` is
timed separately.  The same feed built in batch spends most of its time in
``exchange`` and little in ``run_partition`` — the mirror image of
``build_batch`` — and this is the only workload where memory per record
and publish cost dominate.
"""

from __future__ import annotations

import os
import resource
import time
from typing import Dict, List

from repro.core.codec import TripleWAL
from repro.core.partition import partitioned_pipeline
from repro.serve.admission import AdmissionController
from repro.serve.server import InProcessClient
from repro.serve.service import KGService
from repro.stream.ingest import StreamIngestor
from repro.stream.publish import StreamPublisher, WALFollower
from repro.stream.source import micro_batches

from bench import gen, stats
from bench.calib import Meter
from bench.workloads import Measured, Workload, digest_of, sorted_rows

#: ISSUE 11 sized this at 20,000 (≈10 s live + 4 s finalize here, publish
#: cost growing with graph size); 0.5x fits the driver's per-run budget.
N_ENTITIES = 10_000
N_DELTAS = 40
PUBLISH_EVERY = 5
READS_PER_PUBLISH = 100


def entity_ids(graph) -> List[str]:
    return sorted(entity.entity_id for entity in graph.entities())


class StreamLive(Workload):
    name = "stream_live"

    def setup(self) -> None:
        tracer = self.tracer
        with tracer.span("datagen.sources"):
            self.sources = gen.stream_sources(self.seed, self.scaled(N_ENTITIES, floor=400))
        self.n_records = sum(len(source) for source in self.sources)
        # Reference: the batch build of the same sources, which finalize()
        # must reproduce exactly.
        with tracer.span("bench.reference_build"):
            pipeline, context = partitioned_pipeline(self.sources)
            pipeline.run(context, partitions=1)
        self.reference_stages = {
            row["stage"]: float(row["seconds"]) for row in pipeline.report_table()
        }
        reference = context.artifacts["kg"]
        self.reference_rows = sorted_rows(reference)
        self.reference_entities = entity_ids(reference)
        with tracer.span("stream.source.micro_batches"):
            batch_size = -(-self.n_records // N_DELTAS)
            self.deltas = micro_batches(self.sources, batch_size, order_seed=self.seed)
        self.wal_dir = os.path.join(self.workdir, f"wal-{time.monotonic_ns()}")
        self.wal = TripleWAL(self.wal_dir)
        self.ingestor = StreamIngestor(wal=self.wal)
        self.service = KGService(
            n_shards=2, admission=AdmissionController(rate=1e6), model=None
        )
        self.publisher = StreamPublisher(self.service.store, WALFollower(self.wal_dir))
        self.client = InProcessClient(self.service)

    def run(self) -> Measured:
        tracer = self.tracer
        clock = time.perf_counter
        reports = []
        publish_s: List[float] = []
        read_ms: List[float] = []
        n_read_failures = 0
        live = Meter(self.memory_weight)
        # One calibrated slice per publish cycle: five ingests, then (for a
        # full cycle) a publish and the read-your-publish lookups.
        for first in range(0, len(self.deltas), PUBLISH_EVERY):
            cycle = self.deltas[first : first + PUBLISH_EVERY]
            with live, tracer.span("bench.stream_live.cycle"):
                for delta in cycle:
                    with tracer.span("stream.ingest.ingest"):
                        reports.append(self.ingestor.ingest(delta))
                if len(cycle) < PUBLISH_EVERY:
                    continue
                before = clock()
                with tracer.span("stream.publish.publish"):
                    self.publisher.publish()
                publish_s.append(clock() - before)
                published = [
                    record
                    for delta in cycle
                    for record in delta.records
                    if record.source == "feed-a"
                ]
                stride = max(1, len(published) // READS_PER_PUBLISH)
                for record in published[::stride][:READS_PER_PUBLISH]:
                    before = clock()
                    status, body = self.client.lookup(record.record_id, "city")
                    after = clock()
                    tracer.record("stream.publish.read", before, after)
                    read_ms.append((after - before) * 1000.0)
                    if not read_ok(status, body, record.fields["city"]):
                        n_read_failures += 1
        final = Meter(self.memory_weight)
        with final, tracer.span("stream.ingest.finalize"):
            self.outcome = self.ingestor.finalize()
        finalize_s = final.ref_s
        self.final_rows = sorted_rows(self.outcome.graph)
        delta_ms = [report.wall_s * 1000.0 for report in reports]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        freshness = self.publisher.freshness()
        layers = {
            "stream.source.n_deltas": len(self.deltas),
            "stream.ingest.ingest.s": sum(delta_ms) / 1000.0,
            "stream.ingest.delta_p50_ms": stats.median(delta_ms),
            "stream.ingest.delta_max_ms": max(delta_ms),
            "stream.ingest.first_delta_ms": delta_ms[0],
            "stream.ingest.last_delta_ms": delta_ms[-1],
            "stream.ingest.n_pairs_scored": sum(report.n_pairs_scored for report in reports),
            "stream.ingest.n_relinks": self.ingestor.n_relinks,
            "stream.ingest.n_fused_groups": sum(report.n_fused_groups for report in reports),
            "stream.ingest.rss_kb_per_record": peak_kb / self.n_records,
            "stream.ingest.finalize.s": finalize_s,
            "stream.publish.publish.s": sum(publish_s),
            "stream.publish.publish_p50_ms": stats.median(publish_s) * 1000.0,
            "stream.publish.n_publishes": self.publisher.n_publishes,
            "stream.publish.staleness_p50_s": freshness["staleness_p50_s"],
            "stream.publish.catchup_p95_records": freshness["catchup_p95_records"],
            "stream.publish.read.p50_ms": stats.median(read_ms),
            "core.codec.wal_bytes_per_triple": self.wal.stats()["wal_bytes"]
            / max(1, len(self.ingestor.graph)),
            "core.codec.n_segments": self.wal.stats()["n_segments"],
        }
        return Measured(
            ops=self.n_records,
            wall_s=live.ref_s,
            raw_wall_s=live.raw_s,
            slices=live.slices,
            attempted=self.n_records + len(read_ms),
            failed=n_read_failures,
            counts={
                "n_records": self.n_records,
                "n_deltas": len(self.deltas),
                "n_publishes": self.publisher.n_publishes,
                "n_reads": len(read_ms),
                "n_triples": len(self.final_rows),
            },
            layers=layers,
            digest=digest_of(self.final_rows),
        )

    def check(self, measured: Measured) -> List[str]:
        failures = check_stream(
            self.final_rows,
            entity_ids(self.outcome.graph),
            self.reference_rows,
            self.reference_entities,
        )
        if measured.failed:
            failures.append(
                f"{measured.failed} read-your-publish lookups did not return the record's city"
            )
        return failures

    def layer_metrics(self, measured: Measured) -> Dict[str, float]:
        tracer = self.tracer
        layers = dict(measured.layers)
        layers.update(
            {
                "datagen.sources.s": tracer.total("datagen.sources"),
                "stream.source.micro_batches.s": tracer.total("stream.source.micro_batches"),
                # The reference (batch) build of the same feed, from its own
                # report_table(): exchange-bound where build_batch is
                # partition-bound.
                "core.pipeline.stage.partition.s": self.reference_stages["partition"],
                "core.pipeline.stage.build_partitions.s": self.reference_stages[
                    "build_partitions"
                ],
                "core.pipeline.stage.exchange.s": self.reference_stages["exchange"],
                "integrate.exchange.n_claims": self.outcome.stats["n_claims"],
                "integrate.exchange.n_merges": self.outcome.stats["n_merges"],
                "integrate.exchange.n_triples": self.outcome.stats["n_triples"],
            }
        )
        return layers

    def close(self) -> None:
        wal = getattr(self, "wal", None)
        if wal is not None:
            wal.close()


def read_ok(status: int, body: dict, city: object) -> bool:
    return (
        status == 200
        and body.get("degraded") is None
        and body.get("payload", {}).get("values") == [str(city)]
    )


def check_stream(final_rows, final_entities, reference_rows, reference_entities) -> List[str]:
    failures = []
    if final_rows != reference_rows or not final_rows:
        failures.append("finalize() triples differ from the batch build of the same sources")
    if final_entities != reference_entities:
        failures.append("finalize() entity ids differ from the batch build of the same sources")
    return failures
