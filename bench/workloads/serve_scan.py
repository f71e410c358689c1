"""``serve_scan`` — the read path with the response cache bypassed.

One closed-loop in-process client issues a plan whose working set is far
larger than the 2,048-entry cache (hit ratio ≈ 0.1), so
``serve.router -> serve.shard -> core.graph/core.store`` do the work.
Transport does nothing here.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Dict, List

from repro.core.codec import save_graph
from repro.core.query import TriplePattern
from repro.serve.admission import AdmissionController
from repro.serve.cache import ResponseCache
from repro.serve.server import InProcessClient
from repro.serve.snapshot import SnapshotStore

from bench import gen, loadgen, stats
from bench.calib import Meter
from bench.workloads import Measured, Workload, digest_of
from bench.workloads import serving
from bench.workloads.store_cycle import graph_sizes

#: ISSUE 11 sized this at 8,000 requests over 8,000 of G's 15,000 entities;
#: this G is smaller and its requests cheaper, so more requests are issued.
N_REQUESTS = 20_000
N_VOCABULARY = 6_000
#: Requests per calibrated slice (≈270 ms).
SLICE_REQUESTS = 1_500


class ServeScan(Workload):
    name = "serve_scan"
    memory_weight = 0.25

    def setup(self) -> None:
        tracer = self.tracer
        n_entities, n_triples = graph_sizes(self)
        with tracer.span("datagen.graph_g"):
            self.spec = gen.graph_spec(self.seed, n_entities, n_triples)
            self.reference = gen.build_graph(self.spec)
        self.snapshot = os.path.join(self.workdir, f"scan-{time.monotonic_ns()}.rkgs")
        with tracer.span("core.codec.save"):
            save_graph(self.reference, self.snapshot)
        self.service = serving.make_service()
        with tracer.span("serve.snapshot.publish_from_file"):
            self.service.publish_from_file(self.snapshot)
        vocabulary = serving.vocabulary(
            self.spec, self.scaled(N_VOCABULARY, floor=150), self.seed
        )
        self.plan = gen.request_plan(vocabulary, self.scaled(N_REQUESTS, floor=400), self.seed)
        self.client = InProcessClient(self.service)

    def run(self) -> Measured:
        client = self.client
        send = lambda request: serving.dispatch(client, request)  # noqa: E731
        meter = Meter(self.memory_weight)
        self.samples = []
        for first in range(0, len(self.plan), SLICE_REQUESTS):
            with meter, self.tracer.span("bench.serve_scan.slice"):
                samples, _ = loadgen.closed_loop(
                    send, self.plan[first : first + SLICE_REQUESTS], first_index=first
                )
                for sample in samples:
                    self.tracer.record(
                        f"serve.router.route.{self.plan[sample.index].route}",
                        sample.start,
                        sample.end,
                    )
            for sample in samples:
                sample.scale = meter.factor
            self.samples += samples
        latencies = [sample.latency_ms for sample in self.samples]
        self.by_route: Dict[str, List[float]] = defaultdict(list)
        for sample in self.samples:
            self.by_route[self.plan[sample.index].route].append(sample.latency_ms)
        cache = self.service.cache.stats()
        admission = self.service.admission.stats()
        layers = {
            f"serve.router.route.{route}.p50_ms": stats.median(values)
            for route, values in self.by_route.items()
        }
        layers.update(
            {
                "serve.cache.hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
                "serve.cache.evictions": cache["evictions"],
                "serve.admission.rejected": admission["rejected"],
                "serve.admission.degraded_stale": admission["degraded_stale"],
                "serve.admission.degraded_lm_shed": admission["degraded_lm_shed"],
            }
        )
        return Measured(
            ops=len(self.plan),
            wall_s=meter.ref_s,
            raw_wall_s=meter.raw_s,
            slices=meter.slices,
            attempted=len(self.plan),
            latencies_ms=latencies,
            counts={
                "n_requests": len(self.plan),
                "cache_hits": int(cache["hits"]),
                **{f"n_{route}": len(values) for route, values in sorted(self.by_route.items())},
            },
            layers=layers,
            digest=digest_of(
                serving.canonical(sample.body.get("payload")) for sample in self.samples
            ),
        )

    def check(self, measured: Measured) -> List[str]:
        expected = serving.Expected(self.reference, self.spec)
        measured.failed = serving.count_failures(self.samples, self.plan, expected)
        failures = []
        if measured.failed:
            failures.append(
                f"{measured.failed} of {len(self.samples)} responses were non-200, degraded, "
                "or differ from a direct graph.query on G"
            )
        return failures

    def layer_metrics(self, measured: Measured) -> Dict[str, float]:
        tracer = self.tracer
        clock = time.perf_counter
        layers = dict(measured.layers)
        snapshot = self.service.store.current()
        planner = snapshot.planner

        # The same requests straight onto the planner: what the shards and
        # the store cost without router, cache or admission around them.
        shard_ms: Dict[str, List[float]] = defaultdict(list)
        for request in self.plan:
            if request.route == "ask":  # KGQA is a lookup plus rendering
                continue
            kwargs = request.kwargs
            before = clock()
            if request.route == "lookup":
                planner.objects(kwargs["subject"], kwargs["predicate"])
            elif request.route == "query":
                planner.conjunctive_query([TriplePattern(*kwargs["patterns"][0])])
            else:
                planner.paths(
                    kwargs["start"], kwargs["goal"],
                    max_length=kwargs["max_length"], max_paths=kwargs["max_paths"],
                )
            after = clock()
            tracer.record(f"serve.shard.{request.route}", before, after)
            shard_ms[request.route].append((after - before) * 1000.0)

        # Cache and admission on their own, with the plan's keys.
        cache = ResponseCache(capacity=serving.CACHE_CAPACITY)
        keys = [(request.route, serving.canonical(request.kwargs)) for request in self.plan]
        before = clock()
        for route, key in keys:
            if cache.get(route, key, 1) is None:
                cache.put(route, key, 1, key)
        cache_us = (clock() - before) / len(keys) * 1e6
        admission = AdmissionController(rate=1e6)
        before = clock()
        for route, _ in keys:
            admission.admit(route)
            admission.release()
        admission_us = (clock() - before) / len(keys) * 1e6

        with tracer.span("serve.snapshot.publish_copy"):
            SnapshotStore(n_shards=serving.N_SHARDS).publish(self.reference, copy=True)

        lookup_us = stats.median(shard_ms["lookup"]) * 1000.0
        layers.update(
            {
                "datagen.graph_g.s": tracer.total("datagen.graph_g"),
                "core.codec.save.s": tracer.total("core.codec.save"),
                "serve.snapshot.publish_from_file.s": tracer.total(
                    "serve.snapshot.publish_from_file"
                ),
                "serve.snapshot.publish_copy.s": tracer.total("serve.snapshot.publish_copy"),
                "serve.shard.lookup.us": lookup_us,
                "serve.shard.query.ms": stats.median(shard_ms["query"]),
                "serve.shard.paths.ms": stats.median(shard_ms["paths"]),
                "serve.shard.fanout": planner.n_shards,
                "serve.cache.get_put.us": cache_us,
                "serve.admission.admit_release.us": admission_us,
                "serve.router.self.us": stats.median(self.by_route["lookup"]) * 1000.0
                - lookup_us
                - cache_us
                - admission_us,
                "core.query.paths.ms": stats.median(shard_ms["paths"]),
            }
        )
        return layers
