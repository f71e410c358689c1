"""``store_cycle`` — codec + store, bulk and sequential.

Graph G is carried through the whole durability cycle: WAL-attached bulk
ingest, replay from segments, checkpoint, recovery from the base, save,
five loads, and the deferred thaw a booting server pays on first touch.
``core/codec.py`` and ``core/store.py`` do all the work; linkage, fusion
and the serving tier do none.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

from repro.core.codec import TripleWAL, load_graph, save_graph
from repro.core.triple import Triple

from bench import gen, stats
from bench.calib import Meter
from bench.workloads import Measured, Workload, digest_of, sorted_rows

#: ISSUE 11 sized graph G at 15,000 / 150,000 (≈13 s for the cycle here, and
#: 4-5 s of set-up for every workload that boots from it); 0.4x fits the
#: driver's per-run budget with the same shape.
N_ENTITIES = 6_000
N_TRIPLES = 60_000
N_LOADS = 5


def graph_sizes(workload: Workload):
    return workload.scaled(N_ENTITIES, floor=200), workload.scaled(N_TRIPLES, floor=2000)


class StoreCycle(Workload):
    name = "store_cycle"

    def setup(self) -> None:
        n_entities, n_triples = graph_sizes(self)
        with self.tracer.span("datagen.graph_g"):
            self.spec = gen.graph_spec(self.seed, n_entities, n_triples)
            self.items = self.spec.batch_items()
        self.root = os.path.join(self.workdir, f"store-{time.monotonic_ns()}")
        os.makedirs(self.root)

    def run(self) -> Measured:
        spec = self.spec
        wal_dir = os.path.join(self.root, "wal")
        self.snapshot = os.path.join(self.root, "g.rkgs")
        meter = Meter(self.memory_weight)
        seconds: Dict[str, float] = {}
        load_s: List[float] = []

        def phase(name: str, call):
            """One calibrated slice; ``seconds`` are reference-speed seconds."""
            with meter, self.tracer.span(name):
                result = call()
            seconds[name] = seconds.get(name, 0.0) + meter.last_s
            return result

        def ingest():
            graph = gen.new_graph(gen.graph_ontology(), name="G")
            graph.attach_wal(self.wal)
            gen.add_entities(graph, spec)
            graph.add_triples_batch(self.items)
            return graph

        with self.tracer.span("bench.store_cycle"):
            self.wal = TripleWAL(wal_dir)
            self.graph = phase("core.graph.bulk_ingest", ingest)
            wal_stats = self.wal.stats()
            self.from_segments = phase("core.codec.recover_segments", TripleWAL(wal_dir).recover)
            phase("core.codec.checkpoint", lambda: self.wal.checkpoint(self.graph))
            self.from_base = phase("core.codec.recover_base", TripleWAL(wal_dir).recover)
            n_bytes = phase("core.codec.save", lambda: save_graph(self.graph, self.snapshot))
            for _ in range(N_LOADS):
                self.loaded = phase("core.codec.load", lambda: load_graph(self.snapshot))
                load_s.append(meter.last_s)
            scanned = phase("core.codec.thaw_scan", self.loaded.query)
            first_triple = Triple(*spec.rows[0])
            phase("core.codec.thaw_provenance", lambda: self.loaded.provenance(first_triple))
        n_triples = len(spec.rows)
        layers = {f"{name}.s": value for name, value in seconds.items()}
        del layers["core.codec.load.s"]  # reported per load, below
        layers.update(
            {
                "core.codec.load.p50_ms": stats.median(load_s) * 1000.0,
                "core.codec.recover_triples_per_s": n_triples
                / seconds["core.codec.recover_segments"],
                "core.codec.save_triples_per_s": n_triples / seconds["core.codec.save"],
                "core.codec.load_triples_per_s": n_triples / stats.median(load_s),
                "core.codec.bytes_per_triple": n_bytes / n_triples,
                "core.codec.wal_bytes_per_triple": wal_stats["wal_bytes"] / n_triples,
                "core.codec.n_segments": wal_stats["n_segments"],
            }
        )
        return Measured(
            ops=n_triples,
            wall_s=meter.ref_s,
            raw_wall_s=meter.raw_s,
            slices=meter.slices,
            attempted=n_triples,
            counts={
                "n_triples": n_triples,
                "n_entities": len(spec.entities),
                "n_scanned": len(scanned),
                "snapshot_bytes": int(n_bytes),
            },
            layers=layers,
            digest=digest_of(triple.as_tuple() for triple in scanned),
        )

    def check(self, measured: Measured) -> List[str]:
        resave = self.snapshot + ".resave"
        save_graph(self.loaded, resave)
        with open(self.snapshot, "rb") as first, open(resave, "rb") as second:
            self.resave_equal = first.read() == second.read()
        source_entities = sorted(entity_id for entity_id, _, _ in self.spec.entities)
        graphs = {
            "ingested": self.graph,
            "recovered-from-segments": self.from_segments,
            "recovered-from-base": self.from_base,
            "loaded": self.loaded,
        }
        return check_store(graphs, set(self.spec.rows), source_entities, self.resave_equal)

    def layer_metrics(self, measured: Measured) -> Dict[str, float]:
        tracer = self.tracer
        # Ingest again without a WAL: the difference is what logging cost.
        graph = gen.new_graph(gen.graph_ontology(), name="G")
        with tracer.span("bench.ingest_without_wal"):
            gen.add_entities(graph, self.spec)
            graph.add_triples_batch(self.items)
        layers = dict(measured.layers)
        layers.update(
            {
                "datagen.graph_g.s": tracer.total("datagen.graph_g"),
                "core.codec.wal_append.s": max(
                    0.0,
                    layers["core.graph.bulk_ingest.s"] - tracer.total("bench.ingest_without_wal"),
                ),
                "core.codec.resave_equal": 1.0 if self.resave_equal else 0.0,
            }
        )
        layers.update(store_counters(self.loaded))
        return layers

    def close(self) -> None:
        wal = getattr(self, "wal", None)
        if wal is not None:
            wal.close()
            self.wal = None


def store_counters(graph) -> Dict[str, float]:
    """Delta-overlay counters of the graph's columnar store.

    ``KnowledgeGraph.stats()`` does not surface these yet, so this reads
    the store's own public ``stats()``; a graph without a store reports 0.
    """
    store = getattr(graph, "_store", None)
    counters = store.stats() if store is not None else {}
    return {
        "core.store.n_delta_rows": counters.get("n_delta_rows", 0),
        "core.store.n_tombstones": counters.get("n_tombstones", 0),
        "core.store.n_compactions": counters.get("n_compactions", 0),
    }


def check_store(graphs, source_rows: set, source_entities, resave_equal: bool) -> List[str]:
    """Every copy of G equals the source; save is byte-stable."""
    failures = []
    if not resave_equal:
        failures.append("save(load(snapshot)) is not byte-identical to the snapshot")
    first_rows = None
    for label, graph in graphs.items():
        rows = sorted_rows(graph)
        if set(rows) != source_rows or len(rows) != len(source_rows):
            failures.append(f"{label} graph's triples differ from the source rows")
        if first_rows is None:
            first_rows = rows
        elif rows != first_rows:
            failures.append(f"{label} graph's sorted triples are ordered unlike the first graph's")
        if sorted(entity.entity_id for entity in graph.entities()) != source_entities:
            failures.append(f"{label} graph's entity ids differ from the source")
    return failures
