"""Property: streamed construction is invariant in split AND delta order.

The strong form of the streaming keystone: for ANY micro-batch size and
ANY shuffle of the record stream, draining the deltas and finalizing
produces exactly the batch build over the same source union — graph
state with provenance, the lineage ledger, and the ``.rkgs`` snapshot
bytes.  Nothing about how the records trickled in can change a single
observable bit.  Mid-stream the live graph is, after every delta, the
batch build of the records that have arrived, also on inputs that
re-link and split; and whatever the split, order and publish cadence,
each published snapshot is what a replay of the WAL rebuilds.
"""

import functools
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec
from repro.core.codec import TripleWAL
from repro.core.partition import PartitionedBuild, fixture_sources, partitioned_pipeline
from repro.datagen.sources import StructuredSource
from repro.integrate.blocking import BlockingStrategy
from repro.obs import enabled_scope, reset_all
from repro.obs.lineage import get_ledger
from repro.serve.snapshot import SnapshotStore
from repro.stream import StreamIngestor, StreamPublisher, WALFollower, micro_batches
from tests.oracles import replay_wal_directory

_SOURCES = fixture_sources(n_people=12, n_movies=8, seed=3)
_N_RECORDS = sum(len(source) for source in _SOURCES)


def _state(graph):
    return {
        "triples": graph.query(),
        "provenance": graph.provenance(),
        "entities": sorted(
            (e.entity_id, e.name, e.entity_class, tuple(sorted(e.aliases)))
            for e in graph.entities()
        ),
    }


def _snapshot_bytes(graph):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "check.rkgs")
        codec.save_graph(graph, path, include_lineage=False)
        with open(path, "rb") as handle:
            return handle.read()


def _batch_reference():
    reset_all()
    with enabled_scope():
        pipeline, context = partitioned_pipeline(_SOURCES, name="stream-prop")
        context = pipeline.run(context, partitions=1)
        ledger_state = get_ledger().export_state()
    reset_all()
    graph = context.artifacts["kg"]
    return _state(graph), ledger_state, _snapshot_bytes(graph)


_REFERENCE = _batch_reference()


@settings(max_examples=10, deadline=None)
@given(
    batch_size=st.integers(min_value=1, max_value=_N_RECORDS + 5),
    order_seed=st.integers(min_value=0, max_value=2**16),
)
def test_any_split_any_order_finalizes_identically(batch_size, order_seed):
    with tempfile.TemporaryDirectory() as wal_dir:
        reset_all()
        with enabled_scope():
            ingestor = StreamIngestor(wal=TripleWAL(wal_dir))
            for delta in micro_batches(
                _SOURCES, batch_size, order_seed=order_seed
            ):
                ingestor.ingest(delta)
        reset_all()
        with enabled_scope():
            outcome = ingestor.finalize()
            ledger_state = get_ledger().export_state()
        reset_all()
        assert _state(outcome.graph) == _REFERENCE[0]
        assert ledger_state == _REFERENCE[1]
        assert _snapshot_bytes(outcome.graph) == _REFERENCE[2]


_CHAINED_SOURCES = fixture_sources(n_people=60, n_movies=40, seed=11)
_N_CHAINED = sum(len(source) for source in _CHAINED_SOURCES)


@settings(max_examples=10, deadline=None)
@given(
    batch_size=st.integers(min_value=1, max_value=_N_CHAINED + 5),
    order_seed=st.integers(min_value=0, max_value=2**16),
)
def test_any_split_any_order_keeps_one_live_entity_per_cluster(batch_size, order_seed):
    """The live entity set is a function of the clusters after every delta:
    one entity per cluster root, none for a merged-away record, whatever
    chain of merges a delta brings.  After the last delta every entity
    also carries the batch naming rule's name and aliases."""
    ingestor = StreamIngestor()
    for delta in micro_batches(_CHAINED_SOURCES, batch_size, order_seed=order_seed):
        ingestor.ingest(delta)
        live = {entity.entity_id for entity in ingestor.graph.entities()}
        assert live == set(ingestor._clusters.members)
    final = ingestor.finalize().graph
    for entity in ingestor.graph.entities():
        named = final.entity(entity.entity_id)
        assert (entity.name, sorted(entity.aliases)) == (
            named.name,
            sorted(named.aliases),
        )


@settings(max_examples=8, deadline=None)
@given(
    batch_size=st.integers(min_value=1, max_value=_N_RECORDS + 5),
    order_seed=st.integers(min_value=0, max_value=2**16),
    cadence=st.integers(min_value=1, max_value=4),
)
def test_any_split_publishes_what_a_replay_rebuilds(batch_size, order_seed, cadence):
    """The in-process follower is a view of the ingestor's graph; every
    snapshot it publishes is what replaying the WAL directory rebuilds, and
    stays so while the stream goes on."""
    with tempfile.TemporaryDirectory() as wal_dir:
        ingestor = StreamIngestor(wal=TripleWAL(wal_dir))
        store = SnapshotStore(n_shards=2)
        publisher = StreamPublisher(store, WALFollower(wal_dir))
        published = []
        deltas = micro_batches(_SOURCES, batch_size, order_seed=order_seed)
        for index, delta in enumerate(deltas, start=1):
            ingestor.ingest(delta)
            if index % cadence == 0 or index == len(deltas):
                publisher.publish()
                snapshot = store.current()
                state = _state(snapshot.graph)
                assert state == _state(replay_wal_directory(wal_dir))
                assert sum(snapshot.planner.shard_sizes().values()) == len(snapshot.graph)
                published.append((snapshot, state))
        assert publisher.follower.is_view
        for snapshot, state in published:
            assert _state(snapshot.graph) == state
        ingestor.wal.close()


# Inputs that re-link and split: small block caps push blocks over the cap
# as records arrive, so a re-link takes matches back and splits clusters.
_SPLITTING = st.tuples(st.integers(min_value=0, max_value=15), st.sampled_from((3, 5)))


@functools.lru_cache(maxsize=None)
def _splitting_sources(seed):
    return fixture_sources(n_people=60, n_movies=40, seed=seed)


def _batch_of(sources, arrived, cap):
    """The batch build of the records in ``arrived``."""
    prefix = [
        StructuredSource(
            name=source.name,
            field_map=dict(source.field_map),
            records=[record for record in source.records if record.record_id in arrived],
        )
        for source in sources
    ]
    pipeline, context = partitioned_pipeline(
        prefix, strategy=BlockingStrategy(max_block_size=cap)
    )
    return pipeline.run(context, partitions=1).artifacts["kg"]


@settings(max_examples=12, deadline=None)
@given(
    fixture=st.one_of(st.just(None), _SPLITTING),
    batch_size=st.integers(min_value=1, max_value=60),
    order_seed=st.integers(min_value=0, max_value=2**16),
)
def test_any_split_any_order_is_the_batch_build_of_every_prefix(
    fixture, batch_size, order_seed
):
    """After every delta the live graph's triples, provenance and entity
    rows are the batch build of the records that have arrived."""
    if fixture is None:
        sources, cap = _SOURCES, 200
    else:
        sources, cap = _splitting_sources(fixture[0]), fixture[1]
    ingestor = StreamIngestor(
        build=PartitionedBuild(strategy=BlockingStrategy(max_block_size=cap))
    )
    arrived = set()
    for delta in micro_batches(sources, batch_size, order_seed=order_seed):
        ingestor.ingest(delta)
        arrived.update(record.record_id for record in delta.records)
        assert _state(ingestor.graph) == _state(_batch_of(sources, arrived, cap)), delta.seqno


@settings(max_examples=8, deadline=None)
@given(
    fixture=_SPLITTING,
    batch_size=st.integers(min_value=1, max_value=60),
    order_seed=st.integers(min_value=0, max_value=2**16),
)
def test_splits_publish_what_a_replay_rebuilds(fixture, batch_size, order_seed):
    """A split removes aliases from the live graph: the WAL logs each
    removal, and the view publishes what a replay of the log rebuilds."""
    seed, cap = fixture
    with tempfile.TemporaryDirectory() as wal_dir:
        ingestor = StreamIngestor(
            build=PartitionedBuild(strategy=BlockingStrategy(max_block_size=cap)),
            wal=TripleWAL(wal_dir),
        )
        publisher = StreamPublisher(SnapshotStore(n_shards=2), WALFollower(wal_dir))
        for delta in micro_batches(_splitting_sources(seed), batch_size, order_seed=order_seed):
            ingestor.ingest(delta)
            publisher.publish()
            published = _state(publisher.store.current().graph)
            assert published == _state(replay_wal_directory(wal_dir))
            assert published == _state(ingestor.graph)
        assert publisher.follower.is_view
        ingestor.wal.close()


def test_a_split_removes_the_alias_it_took_away():
    """``fixture_sources(60, 40, 1)`` at block cap 3 splits clusters whose
    merged-away names the live graph must drop again."""
    removed = []
    ingestor = StreamIngestor(
        build=PartitionedBuild(strategy=BlockingStrategy(max_block_size=3))
    )
    remove_alias = ingestor.graph.remove_alias
    ingestor.graph.remove_alias = lambda *args: (removed.append(args), remove_alias(*args))
    arrived = set()
    sources = _splitting_sources(1)
    for delta in micro_batches(sources, 5, order_seed=1):
        ingestor.ingest(delta)
        arrived.update(record.record_id for record in delta.records)
    assert removed and ingestor.n_relinks
    assert _state(ingestor.graph) == _state(_batch_of(sources, arrived, 3))
