"""Property: streamed construction is invariant in split AND delta order.

The strong form of the streaming keystone: for ANY micro-batch size and
ANY shuffle of the record stream, draining the deltas and finalizing
produces exactly the batch build over the same source union — graph
state with provenance, the lineage ledger, and the ``.rkgs`` snapshot
bytes.  Nothing about how the records trickled in can change a single
observable bit.  Mid-stream, whatever the split, order and publish
cadence, each published snapshot is what a replay of the WAL rebuilds.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec
from repro.core.codec import TripleWAL
from repro.core.partition import fixture_sources, partitioned_pipeline
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
    chain of merges a delta brings."""
    ingestor = StreamIngestor()
    for delta in micro_batches(_CHAINED_SOURCES, batch_size, order_seed=order_seed):
        ingestor.ingest(delta)
        live = {entity.entity_id for entity in ingestor.graph.entities()}
        assert live == set(ingestor._clusters.members)


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
