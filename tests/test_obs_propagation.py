"""Cross-process observability propagation through pmap (DESIGN.md §10).

The contract under test: a ``pmap(mode="process")`` fan-out with tracing
enabled produces the *same* merged trace/metrics/lineage state as the
serial run — plus ``pmap.worker`` child spans — deterministically,
regardless of which worker handled which chunk.
"""

import pytest

from repro.core.parallel import WORKERS_ENV_VAR, pmap
from repro.core.partition import fixture_sources, partitioned_pipeline
from repro.obs import (
    count,
    enabled_scope,
    get_ledger,
    get_registry,
    get_tracer,
    observe,
    record_observation,
    span,
    span_tree_signature,
)
from repro.obs.tracing import TraceContext, capture_context


@pytest.fixture
def obs_on():
    with enabled_scope():
        yield


def _traced_double(x):
    """Module-level (picklable) worker body exercising all three collectors."""
    with span("item.work", item=x):
        count("items.processed")
        observe("items.size", float(x), buckets=[2.0, 8.0, 32.0])
        record_observation(f"e{x}", "value", x, source="worker", confidence=0.9)
    return 2 * x


def _collect_state():
    """The comparable observability state of the current global collectors."""
    tracer = get_tracer()
    spans = [finished.to_dict() for finished in tracer.spans()]
    snapshot = get_registry().snapshot()
    lineage = get_ledger().export_state()
    return spans, snapshot, lineage


class TestCaptureContext:
    def test_disabled_context_is_inert(self):
        context = capture_context()
        assert isinstance(context, TraceContext)
        assert not context.enabled
        assert not context.recording

    def test_enabled_context_carries_current_span(self, obs_on):
        with span("root") as root:
            context = capture_context()
            assert context.enabled and context.recording
            assert context.trace_id == root.trace_id
            assert context.parent_span_id == root.span_id

    def test_context_pickles(self, obs_on):
        import pickle

        with span("root"):
            context = capture_context()
        assert pickle.loads(pickle.dumps(context)) == context


class TestProcessShipping:
    ITEMS = list(range(12))

    def _run(self, mode):
        with span("fanout"):
            result = pmap(
                _traced_double, self.ITEMS, mode=mode, max_workers=2, chunk_size=3
            )
        assert result == [2 * x for x in self.ITEMS]
        return _collect_state()

    def test_process_state_equals_serial_state(self):
        with enabled_scope():
            serial_spans, serial_snapshot, serial_lineage = self._run("serial")
        with enabled_scope():
            process_spans, process_snapshot, process_lineage = self._run("process")

        # Same tree shape once the per-worker grouping spans are spliced out.
        assert span_tree_signature(process_spans, exclude=("pmap.worker",)) == (
            span_tree_signature(serial_spans)
        )
        # Counters/histograms identical except the mode-marker counter.
        for snapshot in (serial_snapshot, process_snapshot):
            for name in list(snapshot["counters"]):
                if name.startswith("parallel.pmap."):
                    del snapshot["counters"][name]
        assert process_snapshot == serial_snapshot
        # Lineage replays identically, sequence numbers included.
        assert process_lineage == serial_lineage

    def test_worker_spans_form_single_connected_tree(self, obs_on):
        with span("fanout") as root:
            pmap(_traced_double, self.ITEMS, mode="process", max_workers=2, chunk_size=3)
        spans = [finished.to_dict() for finished in get_tracer().spans()]
        workers = [record for record in spans if record["name"] == "pmap.worker"]
        assert len(workers) == 4  # 12 items / chunk_size 3
        assert all(record["parent_id"] == root.span_id for record in workers)
        assert len({record["trace_id"] for record in spans}) == 1
        worker_ids = {record["span_id"] for record in workers}
        leaves = [record for record in spans if record["name"] == "item.work"]
        assert len(leaves) == len(self.ITEMS)
        assert all(record["parent_id"] in worker_ids for record in leaves)

    def test_merged_span_structure_is_deterministic(self):
        def structure():
            with enabled_scope():
                spans, _, _ = self._run("process")
            # Normalize ids to record-order indices: the global tracer's id
            # counter survives reset() (fresh ids per process, not per
            # scope), so only the *relational* structure is comparable
            # across scopes — and that is the determinism contract.
            index = {record["span_id"]: i for i, record in enumerate(spans)}
            return [
                (
                    index[record["span_id"]],
                    index.get(record["parent_id"]),
                    record["name"],
                    record["tags"],
                )
                for record in spans
            ]

        assert structure() == structure()

    def test_failed_chunk_still_ships_observability(self, obs_on):
        with pytest.raises(ValueError, match="boom 5"):
            with span("fanout"):
                pmap(_fail_on_five, range(8), mode="process", max_workers=2, chunk_size=2)
        counters = get_registry().snapshot()["counters"]
        # Chunks before, around, and after the failing one all merged.
        assert counters["items.attempted"] == 8.0


def _fail_on_five(x):
    count("items.attempted")
    if x == 5:
        raise ValueError(f"boom {x}")
    return x


class TestSpanTreeSignature:
    ROOT = {"span_id": "s1", "parent_id": None, "name": "root"}
    MID = {"span_id": "s2", "parent_id": "s1", "name": "mid"}
    LEAF = {"span_id": "s3", "parent_id": "s2", "name": "leaf"}

    def test_excluded_names_splice_children_upward(self):
        full = span_tree_signature([self.ROOT, self.MID, self.LEAF], exclude=("mid",))
        flat = span_tree_signature(
            [self.ROOT, {"span_id": "s3", "parent_id": "s1", "name": "leaf"}]
        )
        assert full == flat

    def test_signature_ignores_ids_and_ordering(self):
        renamed = [
            {"span_id": "x9", "parent_id": None, "name": "root"},
            {"span_id": "x7", "parent_id": "x9", "name": "mid"},
            {"span_id": "x5", "parent_id": "x7", "name": "leaf"},
        ]
        assert span_tree_signature(renamed) == span_tree_signature(
            [self.ROOT, self.MID, self.LEAF]
        )

    def test_different_shapes_differ(self):
        sibling = [self.ROOT, self.MID, {"span_id": "s3", "parent_id": "s1", "name": "leaf"}]
        assert span_tree_signature(sibling) != span_tree_signature(
            [self.ROOT, self.MID, self.LEAF]
        )


class TestPartitionedBuildEquivalence:
    """The acceptance pin, on the path that forks: a ``partitions=2`` build
    records the same observability state with and without worker processes."""

    @staticmethod
    def _build(monkeypatch, workers):
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        with enabled_scope():
            pipeline, context = partitioned_pipeline(
                fixture_sources(120, 80, seed=3), name="build"
            )
            pipeline.run(context, partitions=2)
            return _collect_state()

    def test_process_build_equals_serial_build(self, monkeypatch):
        serial_spans, serial_snapshot, serial_lineage = self._build(monkeypatch, 1)
        spans, snapshot, lineage = self._build(monkeypatch, 2)

        assert not [r for r in serial_spans if r["name"] == "pmap.worker"]
        workers = [r for r in spans if r["name"] == "pmap.worker"]
        assert workers, "a real pool must produce pmap.worker spans"
        # One connected tree: a single trace id and a single root span.
        assert len({r["trace_id"] for r in spans}) == 1
        known = {r["span_id"] for r in spans}
        roots = [
            r for r in spans if r["parent_id"] is None or r["parent_id"] not in known
        ]
        assert len(roots) == 1

        assert span_tree_signature(spans, exclude=("pmap.worker",)) == (
            span_tree_signature(serial_spans)
        )
        for counters in (serial_snapshot["counters"], snapshot["counters"]):
            for name in [n for n in counters if n.startswith("parallel.pmap.")]:
                del counters[name]
        assert snapshot["counters"] == serial_snapshot["counters"]
        assert lineage == serial_lineage
