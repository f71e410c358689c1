"""Streaming construction: sources, ingest, publishing, and equivalence.

The keystone contract (ISSUE 10): draining every delta and finalizing
must reproduce the one-shot batch build *byte-for-byte* — graph state,
provenance, lineage ledger, and ``.rkgs`` snapshot bytes — for any
micro-batch split and delta order.  Alongside it, the operational
properties: per-delta work stays sub-linear in graph size, the WAL
follower is a view of the live graph in the writer's process and a
replica that tracks it elsewhere, and the publisher records staleness /
catch-up-lag on every hot swap.
"""

import contextlib
import dataclasses
import json
import os
import subprocess
import sys
import threading

import pytest

from repro.core import codec
from repro.core.codec import TripleWAL
from repro.core.partition import fixture_sources, partitioned_pipeline
from repro.datagen.sources import SourceRecord, StructuredSource
from repro.obs import enabled_scope, get_tracer, reset_all
from repro.obs.lineage import get_ledger
from repro.serve.snapshot import SnapshotStore
from repro.stream import (
    Delta,
    DeltaQueue,
    StreamIngestor,
    StreamPublisher,
    WALFollower,
    enqueue_all,
    micro_batches,
    percentiles,
)
from tests.oracles import replay_wal_directory

SOURCES = fixture_sources(n_people=25, n_movies=15, seed=11)
N_RECORDS = sum(len(source) for source in SOURCES)


def _public_state(graph):
    return {
        "triples": graph.query(),
        "provenance": graph.provenance(),
        "entities": sorted(
            (e.entity_id, e.name, e.entity_class, tuple(sorted(e.aliases)))
            for e in graph.entities()
        ),
    }


def _snapshot_bytes(graph, tmp_path, tag):
    path = str(tmp_path / f"{tag}.rkgs")
    codec.save_graph(graph, path, include_lineage=False)
    with open(path, "rb") as handle:
        return handle.read()


def _batch_reference(sources):
    reset_all()
    with enabled_scope():
        pipeline, context = partitioned_pipeline(sources, name="stream-ref")
        context = pipeline.run(context, partitions=1)
        ledger_state = get_ledger().export_state()
    reset_all()
    return context.artifacts["kg"], ledger_state


def _stream(sources, batch_size, tmp_path, order_seed=None, tag="s"):
    """Drain the sources through the ingestor; returns (outcome, ledger,
    per-delta reports, ingestor, wal)."""
    reset_all()
    with enabled_scope():
        wal = TripleWAL(str(tmp_path / f"wal-{tag}"))
        ingestor = StreamIngestor(wal=wal)
        reports = [
            ingestor.ingest(delta)
            for delta in micro_batches(sources, batch_size, order_seed=order_seed)
        ]
    reset_all()
    with enabled_scope():
        outcome = ingestor.finalize()
        ledger_state = get_ledger().export_state()
    reset_all()
    return outcome, ledger_state, reports, ingestor, wal


_WAL_DIGEST_SCRIPT = """
import hashlib, json, os, sys
from repro.core.codec import TripleWAL
from repro.core.partition import fixture_sources
from repro.stream import StreamIngestor, micro_batches

wal_dir = sys.argv[1]
ingestor = StreamIngestor(wal=TripleWAL(wal_dir))
for delta in micro_batches(fixture_sources(n_people=120, n_movies=80, seed=11), 25):
    ingestor.ingest(delta)
digest = hashlib.sha256()
for name in sorted(os.listdir(wal_dir)):
    with open(os.path.join(wal_dir, name), "rb") as handle:
        digest.update(name.encode() + handle.read())
entities = sorted(
    (e.entity_id, e.name, sorted(e.aliases)) for e in ingestor.graph.entities()
)
print(json.dumps({"wal": digest.hexdigest(), "entities": entities}))
"""


class TestHashSeedIndependence:
    def test_live_view_and_wal_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        """A record that bridges two clusters must union them in one order
        in every process: the merge events, the surviving entity's aliases
        and the WAL bytes followers replicate come from that order."""
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        outputs = []
        for hash_seed in ("0", "3", "4"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            completed = subprocess.run(
                [sys.executable, "-c", _WAL_DIGEST_SCRIPT, str(tmp_path / f"wal-{hash_seed}")],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.append(json.loads(completed.stdout))
        assert outputs[0]["entities"]
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestDeltaSources:
    def test_micro_batches_partition_the_records(self):
        deltas = micro_batches(SOURCES, 7)
        assert [delta.seqno for delta in deltas] == list(range(len(deltas)))
        flattened = [record for delta in deltas for record in delta.records]
        original = [record for source in SOURCES for record in source.records]
        assert flattened == original
        assert all(len(delta) <= 7 for delta in deltas)

    def test_micro_batches_carry_only_present_field_maps(self):
        deltas = micro_batches(SOURCES, 3)
        for delta in deltas:
            assert set(delta.field_maps) == {r.source for r in delta.records}

    def test_micro_batches_reject_nonpositive_batch_size(self):
        with pytest.raises(ValueError, match="positive"):
            micro_batches(SOURCES, 0)

    def test_queue_fifo_close_and_pending_records(self):
        queue = DeltaQueue()
        deltas = micro_batches(SOURCES, 10)
        enqueue_all(queue, deltas)
        assert queue.depth() == len(deltas)
        assert queue.pending_records() == N_RECORDS
        with pytest.raises(ValueError, match="closed"):
            queue.put(deltas[0])
        drained = []
        while (delta := queue.get()) is not None:
            drained.append(delta)
        assert drained == deltas
        assert queue.pending_records() == 0
        assert queue.get(timeout=0.01) is None  # closed and empty

    def test_queue_get_timeout_on_open_empty_queue(self):
        queue = DeltaQueue()
        assert queue.get(timeout=0.01) is None

    def test_queue_is_thread_safe_across_producer_consumer(self):
        queue = DeltaQueue()
        deltas = micro_batches(SOURCES, 5)
        consumed = []

        def consume():
            while (delta := queue.get(timeout=5)) is not None:
                consumed.append(delta)

        consumer = threading.Thread(target=consume)
        consumer.start()
        enqueue_all(queue, deltas)
        consumer.join(timeout=10)
        assert not consumer.is_alive()
        assert [d.seqno for d in consumed] == [d.seqno for d in deltas]


class TestStreamedBatchEquivalence:
    def test_streamed_equals_batch_on_all_surfaces(self, tmp_path):
        batch_graph, batch_ledger = _batch_reference(SOURCES)
        outcome, ledger, _, _, _ = _stream(SOURCES, 9, tmp_path)
        assert _public_state(outcome.graph) == _public_state(batch_graph)
        assert ledger == batch_ledger
        assert _snapshot_bytes(outcome.graph, tmp_path, "stream") == _snapshot_bytes(
            batch_graph, tmp_path, "batch"
        )

    def test_shuffled_delta_order_is_identical(self, tmp_path):
        batch_graph, batch_ledger = _batch_reference(SOURCES)
        outcome, ledger, _, _, _ = _stream(
            SOURCES, 4, tmp_path, order_seed=99, tag="shuffled"
        )
        assert _public_state(outcome.graph) == _public_state(batch_graph)
        assert ledger == batch_ledger

    def test_single_delta_stream_is_identical(self, tmp_path):
        batch_graph, _ = _batch_reference(SOURCES)
        outcome, _, reports, _, _ = _stream(
            SOURCES, N_RECORDS, tmp_path, tag="one"
        )
        assert len(reports) == 1
        assert _public_state(outcome.graph) == _public_state(batch_graph)

    def test_changed_record_redelivery_wins(self, tmp_path):
        """A re-delivered record id replaces its earlier version, and the
        finalized stream matches a batch build over the *final* records."""
        changed = []
        for source in SOURCES:
            records = list(source.records)
            changed.append(
                StructuredSource(
                    name=source.name,
                    field_map=dict(source.field_map),
                    records=records,
                )
            )
        victim = changed[0].records[0]
        updated = SourceRecord(
            record_id=victim.record_id,
            source=victim.source,
            entity_class=victim.entity_class,
            fields={**victim.fields, "birth_year": 1999},
            world_id=victim.world_id,
        )
        changed[0].records[0] = updated
        batch_graph, batch_ledger = _batch_reference(changed)

        # Stream the ORIGINAL records, then re-deliver the updated one.
        reset_all()
        with enabled_scope():
            wal = TripleWAL(str(tmp_path / "wal-redelivery"))
            ingestor = StreamIngestor(wal=wal)
            for delta in micro_batches(SOURCES, 11):
                ingestor.ingest(delta)
            ingestor.ingest(
                Delta(
                    seqno=10_000,
                    records=[updated],
                    field_maps={changed[0].name: dict(changed[0].field_map)},
                )
            )
        reset_all()
        with enabled_scope():
            outcome = ingestor.finalize()
            ledger = get_ledger().export_state()
        reset_all()
        assert _public_state(outcome.graph) == _public_state(batch_graph)
        assert ledger == batch_ledger

    def test_non_numeric_year_is_rejected_not_fatal(self, tmp_path):
        """One dirty year costs that claim, not the build: batch at 1 and
        2 partitions and the stream all finish, agree, and log the reason."""
        # The victim is the left record of a candidate pair in which both
        # sides carry a birth year, so the dirty value is certain to meet a
        # clean one inside pair_score.
        pipeline, context = partitioned_pipeline(SOURCES, name="stream-ref-clean")
        (clean,) = pipeline.run(context, partitions=1).artifacts["partition_results"]
        dated = {
            record.record_id
            for record in clean.records
            if record.fields.get("birth_year") is not None
        }
        victim_id = next(
            left for left, right in sorted(clean.scores) if {left, right} <= dated
        )
        source_index, position, victim = next(
            (source_index, position, record)
            for source_index, source in enumerate(SOURCES)
            for position, record in enumerate(source.records)
            if record.record_id == victim_id
        )
        year_field = SOURCES[source_index].field_map.get("birth_year", "birth_year")
        dirty = [
            StructuredSource(
                name=source.name,
                field_map=dict(source.field_map),
                records=list(source.records),
            )
            for source in SOURCES
        ]
        dirty[source_index].records[position] = SourceRecord(
            record_id=victim.record_id,
            source=victim.source,
            entity_class=victim.entity_class,
            fields={**victim.fields, year_field: "n/a"},
            world_id=victim.world_id,
        )
        batch_graph, batch_ledger = _batch_reference(dirty)
        pipeline, context = partitioned_pipeline(dirty, name="stream-ref-p2")
        sharded_graph = pipeline.run(context, partitions=2).artifacts["kg"]
        outcome, ledger, _, _, _ = _stream(dirty, 9, tmp_path, tag="dirty")
        assert _public_state(sharded_graph) == _public_state(batch_graph)
        assert _public_state(outcome.graph) == _public_state(batch_graph)
        assert ledger == batch_ledger
        rejected = [
            event["key"]
            for event in ledger["events"]
            if event["detail"].get("reason") == "non-numeric year"
        ]
        assert rejected == [[victim.record_id, "birth_year", "n/a"]]

    def test_checkpoint_persists_canonical_bytes(self, tmp_path):
        batch_graph, _ = _batch_reference(SOURCES)
        outcome, _, _, _, wal = _stream(SOURCES, 8, tmp_path, tag="ckpt")
        wal.checkpoint(outcome.graph)
        recovered = TripleWAL(wal.directory).recover()
        assert _public_state(recovered) == _public_state(batch_graph)


class TestLiveEntities:
    def test_live_entities_are_the_cluster_roots_after_every_delta(self):
        """Delta 3 of this stream links ``wiki:000060`` into ``imdb:000077``
        and then ``imdb:000077`` into ``freebase:000071``: a chain, applied
        in union order so no merged-away id is re-created as an orphan."""
        ingestor = StreamIngestor()
        deltas = micro_batches(fixture_sources(120, 80, 11), 40, order_seed=11)
        for delta in deltas:
            ingestor.ingest(delta)
            live = {entity.entity_id for entity in ingestor.graph.entities()}
            assert live == set(ingestor._clusters.members), delta.seqno
            if delta.seqno == 3:
                root_of = ingestor._clusters.root_of
                assert root_of["wiki:000060"] == root_of["imdb:000077"]
                assert root_of["imdb:000077"] == "freebase:000071"
                assert not ingestor.graph.has_entity("imdb:000077")


class TestIncrementalWork:
    def test_per_delta_fused_groups_are_sublinear(self, tmp_path):
        """After warm-up, one small delta re-fuses only the ``(s, p)``
        groups it touches — a small fraction of all fused groups."""
        sources = fixture_sources(n_people=60, n_movies=40, seed=11)
        reset_all()
        with enabled_scope():
            ingestor = StreamIngestor()
            deltas = micro_batches(sources, 5)
            warm_reports = [ingestor.ingest(delta) for delta in deltas[:-1]]
            tail_report = ingestor.ingest(deltas[-1])
        reset_all()
        total_groups = tail_report.n_groups_total
        assert total_groups > 100
        assert warm_reports  # the fixture produced more than one delta
        # The last delta touches far fewer groups than exist overall.
        assert tail_report.n_fused_groups < total_groups / 4
        assert tail_report.n_fused_groups <= 6 * len(deltas[-1].records)

    def test_obs_on_and_off_do_the_same_work(self):
        """Re-fusion reads the always-on ``_fused`` index, never the
        ledger: with lineage on and off a stream does the same work per
        delta and leaves the same live view."""

        def run(obs_on):
            reset_all()
            ingestor = StreamIngestor()
            with enabled_scope() if obs_on else contextlib.nullcontext():
                reports = [
                    ingestor.ingest(delta)
                    for delta in micro_batches(SOURCES, 12, order_seed=3)
                ]
                assert bool(get_ledger().export_state()["events"]) == obs_on
            reset_all()
            work = [
                {**dataclasses.asdict(report), "wall_s": None} for report in reports
            ]
            return work, _public_state(ingestor.graph), ingestor._accuracy

        off, on = run(False), run(True)
        assert sum(report["n_cluster_merges"] for report in off[0]) > 0
        assert off == on

    def test_relink_on_block_overflow_keeps_equivalence(self, tmp_path):
        """Push one blocking key over the cap mid-stream: the ingestor
        falls back to a full re-link and equivalence still holds."""
        crowd = StructuredSource(name="crowd")
        cap = StreamIngestor().build.strategy.max_block_size
        for index in range(cap + 20):
            crowd.records.append(
                SourceRecord(
                    record_id=f"c:{index}",
                    source="crowd",
                    entity_class="Person",
                    fields={
                        "name": f"sharedtoken only{index}",
                        "birth_year": 1900 + index,
                    },
                    world_id=f"w{index}",
                )
            )
        batch_graph, batch_ledger = _batch_reference([crowd])
        outcome, ledger, reports, ingestor, _ = _stream(
            [crowd], 30, tmp_path, tag="overflow"
        )
        assert ingestor.n_relinks >= 1
        assert any(report.relinked for report in reports)
        assert _public_state(outcome.graph) == _public_state(batch_graph)
        assert ledger == batch_ledger


class TestFollowerAndPublisher:
    def test_follower_replica_tracks_live_graph(self, tmp_path):
        reset_all()
        with enabled_scope():
            wal = TripleWAL(str(tmp_path / "wal-follow"))
            ingestor = StreamIngestor(wal=wal)
            # Tail the segments as a follower in another process would.
            wal.release_writer()
            follower = WALFollower(str(tmp_path / "wal-follow"))
            assert not follower.is_view
            for delta in micro_batches(SOURCES, 10):
                ingestor.ingest(delta)
                follower.poll()
                assert _public_state(follower.graph) == _public_state(
                    ingestor.graph
                )
        reset_all()

    def test_follower_rebootstraps_after_checkpoint(self, tmp_path):
        outcome, _, _, ingestor, wal = _stream(SOURCES, 10, tmp_path, tag="boot")
        # A replica notices the checkpoint by the base signature.
        wal.release_writer()
        follower = WALFollower(wal.directory)
        assert not follower.is_view
        assert _public_state(follower.graph) == _public_state(ingestor.graph)
        bootstraps_before = follower.n_bootstraps
        wal.checkpoint(outcome.graph)
        assert follower.poll() > 0
        assert follower.n_bootstraps == bootstraps_before + 1
        assert _public_state(follower.graph) == _public_state(outcome.graph)

    def test_publisher_hot_swaps_and_records_freshness(self, tmp_path):
        reset_all()
        with enabled_scope():
            wal = TripleWAL(str(tmp_path / "wal-pub"))
            ingestor = StreamIngestor(wal=wal)
            wal.release_writer()  # publish a replica, as --follow-wal does
            store = SnapshotStore(n_shards=2)
            publisher = StreamPublisher(store, WALFollower(str(tmp_path / "wal-pub")))
            assert not publisher.follower.is_view
            versions = []
            deltas = micro_batches(SOURCES, 15)
            remaining = N_RECORDS
            for delta in deltas:
                ingestor.ingest(delta)
                remaining -= len(delta)
                info = publisher.publish(queue_records=remaining)
                versions.append(info["version"])
            from repro.obs.metrics import get_registry

            snapshot = get_registry().snapshot()
            polls = get_tracer().spans("stream.publish.poll")
        reset_all()
        assert versions == list(range(1, len(deltas) + 1))
        assert len(polls) == len(deltas)
        assert all(span_.tags["applied"] > 0 for span_ in polls)
        current = store.current()
        assert current is not None and current.version == versions[-1]
        assert _public_state(current.graph) == _public_state(ingestor.graph)
        assert publisher.n_publishes == len(deltas)
        assert len(publisher.staleness_samples) == len(deltas)
        # Catch-up lag decays to zero as the queue drains.
        assert publisher.catchup_samples[0] > publisher.catchup_samples[-1] == 0
        freshness = publisher.freshness()
        assert freshness["staleness_p95_s"] >= freshness["staleness_p50_s"] >= 0
        histograms = snapshot.get("histograms", snapshot)
        assert any("stream.staleness_seconds" in key for key in histograms)

    def test_publish_if_changed_skips_quiet_polls(self, tmp_path):
        reset_all()
        with enabled_scope():
            wal = TripleWAL(str(tmp_path / "wal-quiet"))
            ingestor = StreamIngestor(wal=wal)
            wal.release_writer()  # a replica tails segments, as --follow-wal does
            publisher = StreamPublisher(
                SnapshotStore(), WALFollower(str(tmp_path / "wal-quiet"))
            )
            assert not publisher.follower.is_view
            assert publisher.publish_if_changed() is not None  # first boot
            assert publisher.publish_if_changed() is None  # nothing new
            ingestor.ingest(micro_batches(SOURCES, N_RECORDS)[0])
            assert publisher.publish_if_changed() is not None
        reset_all()

    def test_percentiles_empty_and_single(self):
        assert percentiles([]) == {"p50": 0.0, "p95": 0.0}
        assert percentiles([3.0]) == {"p50": 3.0, "p95": 3.0}


class TestFollowerView:
    """In the writer's process the follower is a view of the writer's graph:
    what it publishes must be what a replay of the directory rebuilds."""

    def test_follower_is_a_view_of_the_writer(self, tmp_path):
        wal = TripleWAL(str(tmp_path / "wal"))
        ingestor = StreamIngestor(wal=wal)
        follower = WALFollower(wal.directory)
        assert follower.is_view and follower.graph is ingestor.graph
        assert follower.n_bootstraps == 0
        ingestor.ingest(micro_batches(SOURCES, 20)[0])
        assert follower.poll() == wal.n_appended > 0
        assert follower.poll() == 0
        assert follower.graph is ingestor.graph

    def test_view_publishes_what_a_replay_rebuilds(self, tmp_path):
        wal = TripleWAL(str(tmp_path / "wal"))
        ingestor = StreamIngestor(wal=wal)
        store = SnapshotStore(n_shards=2)
        publisher = StreamPublisher(store, WALFollower(wal.directory))
        published = []
        for delta in micro_batches(SOURCES, 12, order_seed=3):
            ingestor.ingest(delta)
            publisher.publish()
            snapshot = store.current()
            replayed = replay_wal_directory(wal.directory)
            assert _public_state(snapshot.graph) == _public_state(replayed)
            published.append((snapshot, _public_state(snapshot.graph)))
        assert publisher.follower.is_view and publisher.follower.n_bootstraps == 0
        # Snapshots are copies: later ingests never show in earlier ones.
        for snapshot, state in published:
            assert _public_state(snapshot.graph) == state

    @pytest.mark.parametrize("end", ["close", "detach", "second_handle", "checkpoint"])
    def test_replica_takes_over_when_the_view_ends(self, tmp_path, end):
        wal = TripleWAL(str(tmp_path / "wal"))
        ingestor = StreamIngestor(wal=wal)
        follower = WALFollower(wal.directory)
        deltas = micro_batches(SOURCES, 20)
        ingestor.ingest(deltas[0])
        follower.poll()
        if end == "close":
            wal.close()
        elif end == "detach":
            ingestor.graph.detach_wal()
        elif end == "second_handle":
            TripleWAL(wal.directory)
        else:
            wal.checkpoint(ingestor.finalize().graph)
        assert codec.writer_log(wal.directory) is None
        assert follower.poll() > 0
        assert not follower.is_view and follower.n_bootstraps == 1
        assert follower.graph is not ingestor.graph
        replayed = replay_wal_directory(wal.directory)
        assert _public_state(follower.graph) == _public_state(replayed)

    def test_no_view_when_the_log_holds_more_than_the_writer(self, tmp_path):
        first = StreamIngestor(wal=TripleWAL(str(tmp_path / "wal")))
        first.ingest(micro_batches(SOURCES, 20)[0])
        first.wal.close()
        reopened = TripleWAL(str(tmp_path / "wal"))
        StreamIngestor(wal=reopened)
        assert reopened.writer is None
        follower = WALFollower(reopened.directory)
        assert not follower.is_view
        assert _public_state(follower.graph) == _public_state(first.graph)

    def test_follower_opened_first_becomes_a_view(self, tmp_path):
        directory = str(tmp_path / "wal")
        os.makedirs(directory)
        follower = WALFollower(directory)
        assert not follower.is_view
        ingestor = StreamIngestor(wal=TripleWAL(directory))
        ingestor.ingest(micro_batches(SOURCES, 20)[0])
        assert follower.poll() > 0
        assert follower.is_view and follower.graph is ingestor.graph

    def test_publishing_records_no_lineage(self, tmp_path):
        """The ledger holds what ingest recorded, however often the stream
        publishes (a replayed replica used to record every event again)."""
        ledgers = []
        for publish in (False, True):
            reset_all()
            with enabled_scope():
                wal = TripleWAL(str(tmp_path / f"wal-{publish}"))
                ingestor = StreamIngestor(wal=wal)
                publisher = StreamPublisher(SnapshotStore(), WALFollower(wal.directory))
                for delta in micro_batches(SOURCES, 10):
                    ingestor.ingest(delta)
                    if publish:
                        publisher.publish()
                ledgers.append(get_ledger().export_state())
            reset_all()
        assert ledgers[0] == ledgers[1]

    def test_view_publish_if_changed_skips_quiet_polls(self, tmp_path):
        wal = TripleWAL(str(tmp_path / "wal"))
        ingestor = StreamIngestor(wal=wal)
        publisher = StreamPublisher(SnapshotStore(), WALFollower(wal.directory))
        assert publisher.follower.is_view
        assert publisher.publish_if_changed() is not None  # first publish
        assert publisher.publish_if_changed() is None  # nothing appended
        ingestor.ingest(micro_batches(SOURCES, N_RECORDS)[0])
        assert publisher.publish_if_changed() is not None
        assert publisher.publish_if_changed() is None

    def test_other_threads_get_a_replica(self, tmp_path):
        """Only the writer's thread may read its live graph: a follower
        polled elsewhere could see the graph mid-mutation."""
        wal = TripleWAL(str(tmp_path / "wal"))
        ingestor = StreamIngestor(wal=wal)
        ingestor.ingest(micro_batches(SOURCES, 20)[0])
        followers = []
        thread = threading.Thread(
            target=lambda: followers.append(WALFollower(wal.directory))
        )
        thread.start()
        thread.join()
        assert codec.writer_log(wal.directory) is wal
        assert not followers[0].is_view
        assert followers[0].graph is not ingestor.graph
        assert _public_state(followers[0].graph) == _public_state(ingestor.graph)
