"""The serving facade: publish pipeline output, answer the four routes.

:class:`KGService` owns the snapshot store, response cache, admission
controller, and request router, and is what both transports (the HTTP
server and the in-process client) call into.  The module also defines
the **serving fixtures** — named recipes that build a graph (and an LM
for ``ask``) from the synthetic world or a construction pipeline — which
is what ``repro serve <ID>`` and ``repro loadgen <ID>`` publish.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.graph import KnowledgeGraph
from repro.obs import metrics as obs_metrics
from repro.obs._flags import FLAGS
from repro.obs.slo import get_slo_tracker
from repro.serve import context as serve_context
from repro.serve.admission import AdmissionController
from repro.serve.cache import ResponseCache
from repro.serve.router import RequestRouter, RouteResponse
from repro.serve.snapshot import GraphSnapshot, SnapshotStore


class KGService:
    """Snapshot store + cache + admission + router behind one object."""

    def __init__(
        self,
        n_shards: int = 1,
        cache_capacity: int = 2048,
        admission: Optional[AdmissionController] = None,
        model=None,
        name: str = "kg",
        trace_sample: Optional[float] = None,
        access_log: Optional[serve_context.AccessLog] = None,
    ):
        self.name = name
        self.store = SnapshotStore(n_shards=n_shards)
        self.cache = ResponseCache(capacity=cache_capacity)
        self.admission = admission if admission is not None else AdmissionController()
        self.router = RequestRouter(
            self.store, cache=self.cache, admission=self.admission, model=model
        )
        #: Head-sampling rate for request traces, resolved once: the
        #: explicit value, else REPRO_TRACE_SAMPLE, else 1%.
        self.trace_sample: float = (
            trace_sample if trace_sample is not None else serve_context.trace_sample_rate()
        )
        #: Structured JSONL access log; None (the default) writes nothing.
        self.access_log = access_log
        self.started_unix = time.time()

    # ------------------------------------------------------------------

    def publish(self, graph: KnowledgeGraph) -> GraphSnapshot:
        """Publish a new immutable snapshot (atomic swap; cache keys roll)."""
        return self.store.publish(graph)

    def publish_from_file(self, path: str) -> GraphSnapshot:
        """Boot the serving snapshot from a ``repro save`` file (no
        construction re-run, no defensive copy)."""
        return self.store.publish_from_file(path)

    def handle(
        self, route: str, request_id: Optional[str] = None, **params
    ) -> Tuple[RouteResponse, str]:
        """Serve one routed request inside its request bracket.

        The one entry both transports call: it opens the request's
        :class:`~repro.serve.context.request_scope` (id, sampling, access
        log), runs the router's ``route`` with ``params``, and records the
        outcome on the context.  Returns the response and the request id.
        """
        with serve_context.request_scope(
            route,
            request_id=request_id,
            sample_rate=self.trace_sample,
            access_log=self.access_log,
        ) as context:
            response = getattr(self.router, route)(**params)
            context.status = response.status
            context.http_status = response.http_status
        return response, context.request_id

    # ------------------------------------------------------------------

    def entity_sample(self, n: int = 50, seed: int = 23) -> List[Dict[str, str]]:
        """A deterministic sample of served entities (the loadgen's vocabulary)."""
        snapshot = self.store.current()
        if snapshot is None:
            return []
        entities = list(snapshot.graph.entities())
        rng = random.Random(seed)
        if len(entities) > n:
            entities = rng.sample(entities, n)
        sample = []
        for entity in entities:
            predicates = sorted(
                {triple.predicate for triple in snapshot.graph.query(subject=entity.entity_id)}
            )
            sample.append(
                {
                    "entity_id": entity.entity_id,
                    "name": entity.name,
                    "class": entity.entity_class,
                    "predicates": predicates[:6],
                }
            )
        return sample

    def stats(self) -> Dict[str, object]:
        """Serving stats: snapshot, shards, cache, admission (``/stats``)."""
        snapshot = self.store.current()
        payload: Dict[str, object] = {
            "service": self.name,
            "snapshot": snapshot.describe() if snapshot is not None else None,
            "shards": snapshot.planner.shard_sizes() if snapshot is not None else {},
            "cache": self.cache.stats(),
            "admission": self.admission.stats(),
            "entity_sample": self.entity_sample(),
        }
        obs_metrics.gauge("serve.cache.hit_ratio", self.cache.hit_ratio())
        return payload

    def statusz(self) -> Dict[str, object]:
        """The operator's one-page health view (the ``/statusz`` payload).

        Combines identity (service name, snapshot version, uptime), the
        admission ladder's *live* degradation level, and the rolling SLO
        summary — per-route RED, error-budget burn rates, and whether any
        route is currently burning faster than its objective allows.
        """
        snapshot = self.store.current()
        return {
            "service": self.name,
            "snapshot_version": snapshot.version if snapshot is not None else 0,
            "uptime_s": round(time.time() - self.started_unix, 3),
            "degradation_level": self.admission.current_level(),
            "admission": self.admission.stats(),
            "observability_enabled": FLAGS.enabled,
            "trace_sample": self.trace_sample,
            "slo": get_slo_tracker().summary(),
        }

    def buildz(self) -> Dict[str, object]:
        """Live build progress (the ``/buildz`` payload).

        Surfaces the global :class:`~repro.obs.progress.BuildProgress`
        heartbeat — what pipeline is building, which stage it is in, and
        the current throughput/ETA — so an operator can watch a rebuild
        from the serving side without shell access to the builder.
        Inactive (or obs-off) processes report ``build: {active: false}``.
        """
        from repro.obs import progress as obs_progress

        return {
            "service": self.name,
            "observability_enabled": FLAGS.enabled,
            "build": obs_progress.get_progress().snapshot(),
        }


# ---------------------------------------------------------------------------
# Serving fixtures: named graph+LM recipes for the CLI, CI, and tests.


def _fixture_world(scale: str) -> Tuple[KnowledgeGraph, object]:
    """The synthetic ground-truth world, served directly.

    The LM trains on the world's popularity-weighted corpus, so ``ask``
    reproduces the Sec. 4 regime: familiar head entities may answer
    parametrically, torso/tail route to triples.
    """
    from repro.datagen.text import generate_text_corpus
    from repro.datagen.world import WorldConfig, build_world
    from repro.neural.slm import SimulatedLM

    if scale == "quick":
        config = WorldConfig(n_people=60, n_movies=40, n_songs=20, seed=7)
        n_sentences = 1500
    else:
        config = WorldConfig(n_people=120, n_movies=80, n_songs=40, seed=7)
        n_sentences = 4000
    world = build_world(config)
    corpus = generate_text_corpus(
        world, n_sentences=n_sentences, noise_rate=0.15, popularity_weighted=True, seed=15
    )
    model = SimulatedLM(seed=16).fit(corpus)
    return world.truth, model


def _fixture_fig4a(scale: str) -> Tuple[KnowledgeGraph, object]:
    """The Fig. 4(a) entity-based construction pipeline's output graph."""
    from repro.datagen.text import generate_text_corpus
    from repro.datagen.world import WorldConfig, build_world
    from repro.evalx.architectures import build_entity_based_kg
    from repro.neural.slm import SimulatedLM

    if scale == "quick":
        config = WorldConfig(n_people=60, n_movies=40, n_songs=20, seed=7)
        label_budget, n_sites, pages = 120, 2, 8
    else:
        config = WorldConfig(n_people=120, n_movies=80, n_songs=40, seed=7)
        label_budget, n_sites, pages = 200, 2, 10
    world = build_world(config)
    context = build_entity_based_kg(
        world, label_budget=label_budget, n_sites=n_sites, pages_per_site=pages
    )
    corpus = generate_text_corpus(
        world, n_sentences=2000, noise_rate=0.15, popularity_weighted=True, seed=15
    )
    model = SimulatedLM(seed=16).fit(corpus)
    return context.require("kg"), model


#: Fixture id -> builder returning ``(graph, model)``.
SERVE_FIXTURES: Dict[str, Callable[[str], Tuple[KnowledgeGraph, object]]] = {
    "WORLD": _fixture_world,
    "FIG4A": _fixture_fig4a,
}


def build_fixture_service(
    fixture_id: str,
    n_shards: int = 1,
    scale: str = "full",
    with_lm: bool = True,
    admission: Optional[AdmissionController] = None,
    cache_capacity: int = 2048,
) -> KGService:
    """Build, publish, and return a service for a named fixture.

    ``scale`` is ``"full"`` or ``"quick"`` (CI smoke); ``with_lm=False``
    drops the LM so ``ask`` runs KG-only (cheaper, fully deterministic).
    """
    fixture_id = fixture_id.upper()
    builder = SERVE_FIXTURES.get(fixture_id)
    if builder is None:
        raise KeyError(
            f"unknown serve fixture {fixture_id!r}; "
            f"available: {', '.join(sorted(SERVE_FIXTURES))}"
        )
    graph, model = builder(scale)
    service = KGService(
        n_shards=n_shards,
        cache_capacity=cache_capacity,
        admission=admission,
        model=model if with_lm else None,
        name=f"serve.{fixture_id.lower()}",
    )
    service.publish(graph)
    return service
