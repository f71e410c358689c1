"""``repro.serve`` — the online KG serving layer (the *ubiquity* stage).

The paper's innovation cycle ends with KGs that "support a wide range of
applications, from web search to personal assistant" (Sec. 5); Sec. 4
routes user questions between KG triples and LM parameters at answer
time.  Everything before this package *builds* graphs; this package
answers queries under load:

* :mod:`repro.serve.snapshot` — versioned, immutable snapshots published
  from construction runs, swapped atomically;
* :mod:`repro.serve.shard` — the planner that answers lookups, path
  queries, and conjunctive queries from the snapshot's one frozen graph,
  and the subject-hash partition ``/stats`` reports;
* :mod:`repro.serve.cache` — a read-through LRU response cache keyed by
  snapshot version (publishing invalidates; stale entries survive for
  degraded serving);
* :mod:`repro.serve.admission` — token-bucket rate limiting, a bounded
  concurrency queue, and the degradation ladder;
* :mod:`repro.serve.router` — the request router exposing ``lookup`` /
  ``paths`` / ``query`` / ``ask``;
* :mod:`repro.serve.service` — the facade tying it together, plus the
  pipeline fixtures ``repro serve`` can publish;
* :mod:`repro.serve.server` — a stdlib ``ThreadingHTTPServer`` JSON API
  and an in-process client with identical response shapes.
"""

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.cache import ResponseCache
from repro.serve.router import RequestRouter, RouteResponse
from repro.serve.service import KGService, build_fixture_service
from repro.serve.shard import ScatterGatherPlanner, shard_of
from repro.serve.snapshot import GraphSnapshot, SnapshotStore

__all__ = [
    "AdmissionController",
    "GraphSnapshot",
    "KGService",
    "RequestRouter",
    "ResponseCache",
    "RouteResponse",
    "ScatterGatherPlanner",
    "SnapshotStore",
    "TokenBucket",
    "build_fixture_service",
    "shard_of",
]
