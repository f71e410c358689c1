"""``serve_http`` — the read path with the response cache doing everything.

The server runs in a child process; the client is ``HTTPClient`` over
loopback keep-alive on two connections.  The plan's distinct requests fit
in the cache and are issued once in set-up, so the hit ratio is ≥0.99 and
the time goes to ``serve.server`` transport + ``serve.admission`` +
``serve.cache``; store and shards are idle.  Phase A is an open loop at a
fixed rate (latency, timed from when each request was due); phase B is a
closed loop on both connections (capacity).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.core.codec import save_graph
from repro.serve.server import HTTPClient, InProcessClient

from bench import calib, gen, loadgen, paths, stats
from bench.calib import Meter
from bench.workloads import Measured, Workload, digest_of
from bench.workloads import serving
from bench.workloads.store_cycle import graph_sizes

#: ISSUE 11 sized phase A at 400 req/s for 10 s; 640 req/s for 6.25 s keeps
#: the 4,000 samples p95 needs and is under a quarter of what phase B
#: sustains (~2,800 req/s), so phase A reads latency without a backlog.
RATE = 640.0
N_OPEN = 4_000
N_CLOSED = 8_000  # across both connections (ISSUE: 2 x 3,000)
N_VOCABULARY = 200
N_PLAN = 1_500
#: Each phase runs as this many calibrated slices (≈1.25 s and ≈0.55 s).
PHASE_SLICES = 5
BOOT_TIMEOUT_S = 60.0


class ServeHTTP(Workload):
    name = "serve_http"
    server = None

    def setup(self) -> None:
        tracer = self.tracer
        # One core each for the load generator and the server: left to the
        # scheduler, two busy processes and their four threads migrate, and
        # identical runs' phase-B throughput spread 21% (5% pinned).  The
        # single-process workloads are steadier unpinned — the scheduler
        # moves them off a core that something else is using.
        calib.pin(0, 0)
        n_entities, n_triples = graph_sizes(self)
        with tracer.span("datagen.graph_g"):
            self.spec = gen.graph_spec(self.seed, n_entities, n_triples)
            self.reference = gen.build_graph(self.spec)
        self.snapshot = os.path.join(self.workdir, f"http-{time.monotonic_ns()}.rkgs")
        with tracer.span("core.codec.save"):
            save_graph(self.reference, self.snapshot)
        vocabulary = serving.vocabulary(self.spec, N_VOCABULARY, self.seed)
        self.plan = gen.request_plan(
            vocabulary, min(N_PLAN, serving.CACHE_CAPACITY - 1), self.seed, distinct=True
        )
        rng = random.Random(self.seed)
        n_open = self.scaled(N_OPEN, floor=200)
        n_closed = self.scaled(N_CLOSED, floor=200)
        self.open_requests = [rng.choice(self.plan) for _ in range(n_open)]
        self.closed_requests = [rng.choice(self.plan) for _ in range(n_closed)]

        with tracer.span("serve.server.boot"):
            self.server = subprocess.Popen(
                [sys.executable, "-m", "bench.serve_child", self.snapshot],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                cwd=paths.ROOT,
                env=paths.child_env(),
            )
            calib.pin(self.server.pid, 1)
            line = self.server.stdout.readline()
            if not line:
                raise RuntimeError("the HTTP server child exited before printing its port")
            hello = json.loads(line)
            self.publish_from_file_s = float(hello["publish_from_file_s"])
            self.client = HTTPClient(f"http://127.0.0.1:{hello['port']}", timeout_s=30.0)
            deadline = time.monotonic() + BOOT_TIMEOUT_S
            while self.client.stats()[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("the HTTP server child never answered /stats")
                time.sleep(0.02)
        # Warm-up: every distinct request once, so phases A and B hit.
        self.send = lambda request: serving.dispatch(self.client, request)
        with tracer.span("bench.warm_up"):
            warm, _ = loadgen.closed_loop(self.send, self.plan, connections=loadgen.MAX_CONNECTIONS)
        self.warm_failures = sum(1 for sample in warm if sample.status != 200)
        self.cache_before = self.client.stats()[1]["cache"]

    def _both_cores(self):
        """Calibration readings of the client's core and the server's, merged
        (geometric mean): phase B keeps both processes busy."""
        local = calib.calibrate()
        self.server.stdin.write(b"calibrate\n")
        self.server.stdin.flush()
        remote = json.loads(self.server.stdout.readline())
        return math.sqrt(local[0] * remote[0]), math.sqrt(local[1] * remote[1])

    def _phase(self, name: str, requests, drive, meter: Optional[Meter]):
        """One phase as PHASE_SLICES slices of ``drive``, each calibrated and
        its latencies scaled when a ``meter`` is given; returns the samples
        and the summed wall of the slices."""
        tracer = self.tracer
        collected: List[loadgen.Sample] = []
        total_wall = 0.0
        size = -(-len(requests) // PHASE_SLICES)
        size += size % loadgen.MAX_CONNECTIONS  # keep request -> connection stable
        for first in range(0, len(requests), size):
            with meter or contextlib.nullcontext(), tracer.span(name):
                samples, wall = drive(requests[first : first + size], first)
                for sample in samples:
                    tracer.record("serve.server.request", sample.start, sample.end)
                for start, end in loadgen.waits(samples, loadgen.MAX_CONNECTIONS):
                    tracer.record("loadgen.wait", start, end)
            if meter is not None:
                for sample in samples:
                    sample.scale = meter.factor
            collected += samples
            total_wall += wall
        return collected, total_wall

    def run(self) -> Measured:
        connections = loadgen.MAX_CONNECTIONS
        # Phase A's latencies stay raw: at a fifth of capacity they are wake-up
        # and transport cost, which did not track the calibration kernels —
        # scaled, their spread over identical runs doubled.
        self.open_samples, open_wall = self._phase(
            "bench.serve_http.open_loop",
            self.open_requests,
            lambda requests, first: loadgen.open_loop(
                self.send, requests, RATE, connections=connections, first_index=first
            ),
            meter=None,
        )
        closed_meter = Meter(self.memory_weight, self._both_cores)
        self.closed_samples, _ = self._phase(
            "bench.serve_http.closed_loop",
            self.closed_requests,
            lambda requests, first: loadgen.closed_loop(
                self.send, requests, connections=connections, first_index=first
            ),
            meter=closed_meter,
        )
        status, body = self.client.stats()
        cache, admission = body["cache"], body["admission"]
        hits = cache["hits"] - self.cache_before["hits"]
        misses = cache["misses"] - self.cache_before["misses"]
        latencies = [sample.latency_ms for sample in self.open_samples]
        late_ms = [sample.late_ms for sample in self.open_samples]
        achieved = len(self.open_samples) / open_wall
        p50 = stats.median(latencies)
        late_p95 = stats.percentile(late_ms, 95)
        invalid = ""
        if late_p95 > p50 / 2:
            invalid = f"open loop ran late: late_p95 {late_p95:.3f} ms > p50/2 ({p50 / 2:.3f} ms)"
        elif achieved < 0.98 * RATE:
            invalid = f"open loop achieved {achieved:.1f} req/s < 0.98 x {RATE:g}"
        layers = {
            "serve.cache.hit_ratio": hits / max(1, hits + misses),
            "serve.cache.evictions": cache["evictions"],
            "serve.admission.rejected": admission["rejected"],
            "serve.admission.degraded_stale": admission["degraded_stale"],
            "serve.admission.degraded_lm_shed": admission["degraded_lm_shed"],
            "serve.server.http.p99_ms": stats.percentile(latencies, 99)
            if len(latencies) >= 1000
            else max(latencies),
            "loadgen.late_p95_ms": late_p95,
            "loadgen.achieved_rps": achieved,
        }
        return Measured(
            ops=len(self.closed_samples),
            wall_s=closed_meter.ref_s,
            raw_wall_s=closed_meter.raw_s,
            slices=closed_meter.slices,
            attempted=len(self.open_samples) + len(self.closed_samples),
            latencies_ms=latencies,
            latency_slices=PHASE_SLICES,
            counts={
                "n_open": len(self.open_samples),
                "n_closed": len(self.closed_samples),
                "n_plan": len(self.plan),
            },
            layers=layers,
            digest=digest_of(
                serving.canonical(sample.body.get("payload"))
                for sample in self.open_samples + self.closed_samples
            ),
            invalid=invalid,
        )

    def check(self, measured: Measured) -> List[str]:
        expected = serving.Expected(self.reference, self.spec)
        measured.failed = serving.count_failures(
            self.open_samples, self.open_requests, expected
        ) + serving.count_failures(self.closed_samples, self.closed_requests, expected)
        failures = []
        if measured.failed:
            failures.append(
                f"{measured.failed} of {measured.attempted} responses were non-200, degraded, "
                "or differ from a direct graph.query on G"
            )
        if self.warm_failures:
            failures.append(f"{self.warm_failures} warm-up requests were not answered 200")
        return failures

    def layer_metrics(self, measured: Measured) -> Dict[str, float]:
        tracer = self.tracer
        # The identical plan on an identical in-process service: what is
        # left of the HTTP latency after subtracting it is transport.
        service = serving.make_service()
        service.publish_from_file(self.snapshot)
        local = InProcessClient(service)
        send = lambda request: serving.dispatch(local, request)  # noqa: E731
        loadgen.closed_loop(send, self.plan)
        with tracer.span("bench.inprocess_replay"):
            samples, _ = loadgen.closed_loop(send, self.open_requests)
        local_ms = [sample.latency_ms for sample in samples]
        http_ms = measured.latencies_ms
        layers = dict(measured.layers)
        layers.update(
            {
                "datagen.graph_g.s": tracer.total("datagen.graph_g"),
                "core.codec.save.s": tracer.total("core.codec.save"),
                "serve.snapshot.publish_from_file.s": self.publish_from_file_s,
                "serve.server.boot.s": tracer.total("serve.server.boot"),
                "serve.server.transport.p50_ms": stats.median(http_ms) - stats.median(local_ms),
                "serve.server.transport.p95_ms": stats.percentile(http_ms, 95)
                - stats.percentile(local_ms, 95),
            }
        )
        return layers

    def close(self) -> None:
        """Stop the server child and wait until it has ended."""
        server, self.server = self.server, None
        if server is None:
            return
        try:
            server.stdin.close()
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        finally:
            server.stdout.close()

    def peak_rss_kb(self) -> int:
        """Peak RSS of the server child (valid once ``close`` has reaped it)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
