"""``graph_mutate`` — the same store used the other way: point writes
beside point reads.

A snapshot of graph G is loaded (and its deferred provenance thawed, in
set-up — ``store_cycle`` times the thaw) and a seeded stream of single
operations runs against the one graph: point reads, ``add_triple`` with
provenance, ``remove_triple``, ``merge_entities``, 3-hop path search and
membership probes, interleaved.  A read-path or bulk-path win elsewhere
that is paid for with slower point mutations shows here as a loss.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Dict, List

from repro.core.codec import load_graph, save_graph
from repro.core.query import PathQuery
from repro.core.triple import Provenance, Triple

from bench import gen, stats
from bench.model import SetModel
from bench.calib import Meter
from bench.workloads import Measured, Workload, digest_of, sorted_rows
from bench.workloads.store_cycle import graph_sizes, store_counters

#: ISSUE 11 sized this at 12,000 ops, of which one — the first write's
#: provenance thaw — took 80% of the wall.  With the thaw moved to set-up
#: the steady-state stream needs more operations to last seconds; churn
#: (adds + tombstones) stays under 60% of the base rows, well clear of the
#: store's auto-compaction threshold, so no run compacts by luck of seed.
N_OPS = 75_000
#: Operations per calibrated slice (≈250 ms).
SLICE_OPS = 2_500

LAYER_OF = {
    "read_s": "core.graph.point_read_s",
    "read_po": "core.graph.point_read_po",
    "add": "core.graph.add_triple",
    "remove": "core.graph.remove_triple",
    "merge": "core.graph.merge_entities",
    "paths": "core.query.paths",
    "probe": "core.graph.probe",
}


class GraphMutate(Workload):
    name = "graph_mutate"

    def setup(self) -> None:
        tracer = self.tracer
        n_entities, n_triples = graph_sizes(self)
        with tracer.span("datagen.graph_g"):
            self.spec = gen.graph_spec(self.seed, n_entities, n_triples)
            source = gen.build_graph(self.spec)
            self.ops = gen.mutate_ops(self.spec, self.scaled(N_OPS, floor=2000), self.seed)
        snapshot = os.path.join(self.workdir, f"mutate-{time.monotonic_ns()}.rkgs")
        with tracer.span("core.codec.save"):
            save_graph(source, snapshot)
        with tracer.span("core.codec.load"):
            self.graph = load_graph(snapshot)
        with tracer.span("core.codec.thaw_provenance"):
            self.graph.provenance(Triple(*self.spec.rows[0]))
        os.remove(snapshot)

    def run(self) -> Measured:
        graph = self.graph
        paths = PathQuery(graph, max_length=3)
        clock = time.perf_counter
        record = self.tracer.record
        meter = Meter(self.memory_weight)
        latencies: List[float] = []
        results: List[object] = []
        n_paths = 0
        with self.tracer.span("bench.graph_mutate"):
            for first in range(0, len(self.ops), SLICE_OPS):
                raw_ms: List[float] = []
                with meter, self.tracer.span("bench.graph_mutate.slice"):
                    for op in self.ops[first : first + SLICE_OPS]:
                        kind = op[0]
                        before = clock()
                        if kind == "read_s":
                            result = len(graph.query(subject=op[1]))
                        elif kind == "read_po":
                            result = len(graph.query(predicate=op[1], obj=op[2]))
                        elif kind == "add":
                            result = graph.add_triple(
                                Triple(op[1], op[2], op[3]),
                                Provenance(source=op[4], extractor="bench"),
                            )
                        elif kind == "remove":
                            result = graph.remove_triple(Triple(op[1], op[2], op[3]))
                        elif kind == "merge":
                            result = graph.merge_entities(op[1], op[2])
                        elif kind == "paths":
                            result = len(paths.paths(op[1], op[2], max_paths=5))
                            n_paths += result
                        else:
                            result = (
                                len(graph.objects(op[1], op[2])),
                                Triple(op[1], op[2], op[3]) in graph,
                            )
                        after = clock()
                        record(LAYER_OF[kind], before, after)
                        raw_ms.append((after - before) * 1000.0)
                        results.append(result)
                latencies.extend(value * meter.factor for value in raw_ms)
        by_kind: Dict[str, List[float]] = defaultdict(list)
        for op, latency in zip(self.ops, latencies):
            by_kind[op[0]].append(latency)
        self.final_rows = sorted_rows(graph)
        layers = {
            "core.graph.point_read_s.us": stats.median(by_kind["read_s"]) * 1000.0,
            "core.graph.point_read_po.us": stats.median(by_kind["read_po"]) * 1000.0,
            "core.graph.add_triple.us": stats.median(by_kind["add"]) * 1000.0,
            "core.graph.remove_triple.us": stats.median(by_kind["remove"]) * 1000.0,
            "core.graph.merge_entities.us": stats.median(by_kind["merge"]) * 1000.0,
            "core.graph.probe.us": stats.median(by_kind["probe"]) * 1000.0,
            "core.query.paths.ms": stats.median(by_kind["paths"]),
            "core.query.paths.n_paths": n_paths,
        }
        return Measured(
            ops=len(self.ops),
            wall_s=meter.ref_s,
            raw_wall_s=meter.raw_s,
            slices=meter.slices,
            attempted=len(self.ops),
            latencies_ms=latencies,
            counts={
                "n_ops": len(self.ops),
                "n_triples": len(self.final_rows),
                "n_paths": n_paths,
                **{f"n_{kind}": len(values) for kind, values in sorted(by_kind.items())},
            },
            layers=layers,
            digest=digest_of(results),
        )

    def check(self, measured: Measured) -> List[str]:
        model = SetModel((entity_id for entity_id, _, _ in self.spec.entities), self.spec.rows)
        for op in self.ops:
            model.apply(op)
        live = sorted(entity.entity_id for entity in self.graph.entities())
        return check_mutate(self.final_rows, live, model)

    def layer_metrics(self, measured: Measured) -> Dict[str, float]:
        tracer = self.tracer
        layers = dict(measured.layers)
        layers.update(
            {
                "datagen.graph_g.s": tracer.total("datagen.graph_g"),
                "core.codec.save.s": tracer.total("core.codec.save"),
                "core.codec.load.p50_ms": tracer.total("core.codec.load") * 1000.0,
                "core.codec.thaw_provenance.s": tracer.total("core.codec.thaw_provenance"),
            }
        )
        layers.update(store_counters(self.graph))
        return layers


def check_mutate(final_rows, live_entities, model: SetModel) -> List[str]:
    failures = []
    if set(final_rows) != model.rows or len(final_rows) != len(model.rows):
        failures.append("final triples differ from the set-of-tuples model's")
    if live_entities != sorted(model.entities):
        failures.append("live entity ids differ from the set-of-tuples model's")
    return failures
