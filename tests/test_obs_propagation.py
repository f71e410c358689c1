"""A process-parallel build observes exactly what a serial one does (DESIGN.md §10).

The contract under test: the callables ``pmap(mode="process")`` runs record
nothing, so worker processes have nothing to ship but results, and a
``partitions=2`` build leaves the same spans, counters and lineage on the
coordinator whether or not its partitions ran in a real pool.
"""

from repro.core.parallel import WORKERS_ENV_VAR, pmap
from repro.core.partition import fixture_sources, partitioned_pipeline
from repro.obs import (
    enabled_scope,
    get_ledger,
    get_progress,
    get_registry,
    get_tracer,
    span,
)


def _square(x):
    return x * x


class TestProcessShipping:
    """A process fan-out ships back results only; the coordinator makes
    every observation of it itself."""

    ITEMS = list(range(12))

    def _run(self, mode):
        with enabled_scope():
            with span("fanout"):
                result = pmap(_square, self.ITEMS, mode=mode, max_workers=2, chunk_size=3)
            assert result == [x * x for x in self.ITEMS]
            spans = [(r.name, r.parent_id) for r in get_tracer().spans()]
            counters = get_registry().snapshot()["counters"]
            progress = get_progress().snapshot()
        return spans, counters, (progress["items_done"], progress["items_total"])

    def test_process_state_equals_serial_state(self):
        spans, counters, progress = self._run("process")
        serial_spans, serial_counters, serial_progress = self._run("serial")
        assert counters.pop("parallel.pmap.process_calls") == 1.0
        assert spans == serial_spans == [("fanout", None)]
        assert counters == serial_counters
        assert progress == serial_progress == (12, 12)


class TestPartitionedBuildEquivalence:
    """The pin, on the path that forks: a ``partitions=2`` build records the
    same observability state with and without worker processes."""

    @staticmethod
    def _build(monkeypatch, workers):
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        with enabled_scope():
            pipeline, context = partitioned_pipeline(
                fixture_sources(120, 80, seed=3), name="build"
            )
            pipeline.run(context, partitions=2)
            spans = [finished.to_dict() for finished in get_tracer().spans()]
            return spans, get_registry().snapshot()["counters"], get_ledger().export_state()

    @staticmethod
    def _roots(spans):
        known = {record["span_id"] for record in spans}
        return [record["name"] for record in spans if record["parent_id"] not in known]

    def test_process_build_equals_serial_build(self, monkeypatch):
        serial_spans, serial_counters, serial_lineage = self._build(monkeypatch, 1)
        spans, counters, lineage = self._build(monkeypatch, 2)

        # Only the coordinator's own marker tells the runs apart: a real
        # pool ran under REPRO_PMAP_WORKERS=2 and none under 1.
        assert "parallel.pmap.process_calls" not in serial_counters
        assert counters.pop("parallel.pmap.process_calls") >= 1
        assert not [name for name in counters if name.startswith("parallel.pmap.")]

        assert [r["name"] for r in spans] == [r["name"] for r in serial_spans]
        assert self._roots(spans) == self._roots(serial_spans) == ["pipeline.build"]
        assert counters == serial_counters
        assert lineage == serial_lineage
        assert lineage["events"]
