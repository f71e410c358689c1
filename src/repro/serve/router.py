"""The request router: four endpoints over snapshots, cache, QA.

Routes (mirroring how Sec. 1 applications consume a KG, and Sec. 4's
answer-time routing between triples and LM parameters):

* ``lookup``  — entity attribute/relation read: ``(subject, predicate, ?)``;
* ``paths``   — bounded path search between two entities (the
  "explanation (in paths in the graph)" workload);
* ``query``   — conjunctive triple-pattern queries with variables;
* ``ask``     — natural-question answering through
  :class:`repro.neural.qa.DualRouterQA`: the LM's familiarity decides
  whether head knowledge is served parametrically, torso/tail routes to
  triples — and under load the admission ladder sheds the LM path first.

Every request: take one snapshot reference, pass admission, consult the
read-through cache (keyed by snapshot version), compute through the
snapshot's planner, record per-route latency histograms and
counters.  Requests never raise to the transport: failures become
``error`` responses and overload becomes ``shed`` (429-equivalent), so a
degrading server emits zero 5xx-equivalents by construction.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.query import TriplePattern
from repro.neural.qa import DualRouterQA, KGQA, Question
from repro.obs import metrics as obs_metrics
from repro.obs._flags import FLAGS
from repro.obs.slo import get_slo_tracker
from repro.obs.tracing import span as obs_span
from repro.serve import context as serve_context
from repro.serve.admission import AdmissionController
from repro.serve.cache import ResponseCache
from repro.serve.snapshot import GraphSnapshot, SnapshotStore

#: Routes the router serves (also the loadgen's mix vocabulary).
ROUTES = ("lookup", "paths", "query", "ask")

#: Deepest ``paths`` request served: each extra hop multiplies a search's
#: cost (3-4x per hop on the benchmark's graph G), so a deeper request
#: would hold a handler thread for seconds.  It is answered 400.
#: ``PathQuery`` and the planner stay uncapped for in-process callers.
MAX_PATH_LENGTH = 6

#: Most values a ``lookup`` returns and bindings a ``query`` returns;
#: ``query`` reports its full count and whether it was cut.
MAX_RESULTS = 200


@dataclass
class RouteResponse:
    """One endpoint's answer plus serving metadata.

    ``status`` is the transport-independent outcome: ``ok`` (200),
    ``shed`` (429 — refused under overload, *not* an error),
    ``bad_request`` (400), ``unavailable`` (503 — nothing published yet),
    ``error`` (500 — a bug; the overload tests assert zero of these).
    """

    status: str
    route: str
    payload: Dict[str, object] = field(default_factory=dict)
    snapshot_version: int = 0
    cached: bool = False
    degraded: Optional[str] = None
    elapsed_ms: float = 0.0

    HTTP_STATUS = {
        "ok": 200,
        "bad_request": 400,
        "shed": 429,
        "error": 500,
        "unavailable": 503,
    }

    @property
    def http_status(self) -> int:
        return self.HTTP_STATUS.get(self.status, 500)

    def to_dict(self) -> Dict[str, object]:
        """The JSON body the HTTP server writes (and the client parses)."""
        return {
            "status": self.status,
            "route": self.route,
            "payload": self.payload,
            "snapshot_version": self.snapshot_version,
            "cached": self.cached,
            "degraded": self.degraded,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def _canonical_key(params: Dict[str, object]) -> str:
    """A deterministic cache key for one request's parameters."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)


class RequestRouter:
    """Dispatches the four routes over the current snapshot."""

    def __init__(
        self,
        store: SnapshotStore,
        cache: Optional[ResponseCache] = None,
        admission: Optional[AdmissionController] = None,
        model=None,
    ):
        self.store = store
        self.cache = cache if cache is not None else ResponseCache()
        self.admission = admission if admission is not None else AdmissionController()
        self.model = model
        # The simulated LM draws from a seeded rng; serialize its calls so
        # concurrent ``ask`` traffic cannot interleave mid-draw.
        self._lm_lock = threading.Lock()

    # ------------------------------------------------------------------
    # public endpoints

    def lookup(self, subject: str, predicate: str) -> RouteResponse:
        """Read ``(subject, predicate, ?)``; subject may be an id or a name."""
        if not subject or not predicate:
            return self._bad_request("lookup", "subject and predicate are required")
        return self._serve(
            "lookup", {"subject": subject, "predicate": predicate}, self._compute_lookup
        )

    def paths(
        self,
        start: str,
        goal: str,
        max_length: int = 3,
        max_paths: int = 25,
    ) -> RouteResponse:
        """Bounded simple paths between two entities (ids or names);
        ``max_length`` is at most :data:`MAX_PATH_LENGTH`."""
        if not start or not goal:
            return self._bad_request("paths", "start and goal are required")
        if max_length < 1 or max_paths < 1:
            return self._bad_request("paths", "max_length and max_paths must be >= 1")
        if max_length > MAX_PATH_LENGTH:
            return self._bad_request(
                "paths", f"max_length must be <= {MAX_PATH_LENGTH}, got {max_length}"
            )
        params = {
            "start": start,
            "goal": goal,
            "max_length": int(max_length),
            "max_paths": int(max_paths),
        }
        return self._serve("paths", params, self._compute_paths)

    def query(self, patterns: Sequence[Sequence[object]]) -> RouteResponse:
        """Conjunctive query; ``patterns`` is a list of ``[s, p, o]`` terms."""
        if not patterns:
            return self._bad_request("query", "at least one pattern is required")
        normalized: List[List[object]] = []
        for pattern in patterns:
            terms = list(pattern)
            if len(terms) != 3:
                return self._bad_request(
                    "query", f"each pattern needs exactly 3 terms, got {terms!r}"
                )
            normalized.append(terms)
        return self._serve("query", {"patterns": normalized}, self._compute_query)

    def ask(self, subject: str, predicate: str) -> RouteResponse:
        """Question answering via the dual router (KG/LM by familiarity)."""
        if not subject or not predicate:
            return self._bad_request("ask", "subject and predicate are required")
        return self._serve(
            "ask", {"subject": subject, "predicate": predicate}, self._compute_ask
        )

    # ------------------------------------------------------------------
    # the shared serving spine

    def _serve(self, route: str, params: Dict[str, object], compute) -> RouteResponse:
        started = time.perf_counter()
        obs_metrics.count("serve.requests")
        obs_metrics.count(f"serve.route.{route}.requests")
        snapshot = self.store.current()
        if snapshot is None:
            return self._finish(
                RouteResponse(
                    status="unavailable",
                    route=route,
                    payload={"error": "no snapshot published"},
                ),
                started,
            )
        key = _canonical_key(params)
        decision = self.admission.admit(route)
        if not decision.admitted:
            # Refused at the door: a stale answer beats a refusal.
            stale = self.cache.get_stale(route, key)
            if stale is not None:
                obs_metrics.count("serve.shed.stale_served")
                return self._finish(
                    RouteResponse(
                        status="ok",
                        route=route,
                        payload=stale,  # type: ignore[arg-type]
                        snapshot_version=snapshot.version,
                        cached=True,
                        degraded="stale",
                    ),
                    started,
                )
            obs_metrics.count("serve.shed.rejected")
            return self._finish(
                RouteResponse(
                    status="shed",
                    route=route,
                    payload={"reason": decision.reason},
                    snapshot_version=snapshot.version,
                    degraded="rejected",
                ),
                started,
            )
        try:
            with obs_span(
                f"serve.{route}", route=route, snapshot=snapshot.version
            ):
                return self._finish(
                    self._serve_admitted(route, params, key, snapshot, decision, compute),
                    started,
                )
        except Exception as exc:  # defensive: bugs become 500s, not crashes
            obs_metrics.count("serve.errors")
            obs_metrics.count(f"serve.route.{route}.errors")
            return self._finish(
                RouteResponse(
                    status="error",
                    route=route,
                    payload={"error": f"{type(exc).__name__}: {exc}"},
                    snapshot_version=snapshot.version,
                ),
                started,
            )
        finally:
            self.admission.release()

    def _serve_admitted(
        self,
        route: str,
        params: Dict[str, object],
        key: str,
        snapshot: GraphSnapshot,
        decision,
        compute,
    ) -> RouteResponse:
        degraded = decision.level_name if decision.level > 0 else None
        # Stale tier (ladder level 2): prefer the last known answer over
        # fresh computation.
        if decision.prefer_stale:
            stale = self.cache.get_stale(route, key)
            if stale is not None:
                obs_metrics.count("serve.shed.stale_served")
                return RouteResponse(
                    status="ok",
                    route=route,
                    payload=stale,  # type: ignore[arg-type]
                    snapshot_version=snapshot.version,
                    cached=True,
                    degraded="stale",
                )
            degraded = "stale_miss"
        cached = self.cache.get(route, key, snapshot.version)
        if cached is not None:
            return RouteResponse(
                status="ok",
                route=route,
                payload=cached,  # type: ignore[arg-type]
                snapshot_version=snapshot.version,
                cached=True,
                degraded=degraded,
            )
        payload = compute(snapshot, params, decision)
        # A degraded ``ask`` (LM path shed) must not poison the cache: a
        # later un-degraded request would otherwise serve the KG-only
        # answer as if it were the dual-router one.  KG-only is only
        # cacheable when it IS the normal answer (no model configured).
        lm_degraded = (
            route == "ask"
            and self.model is not None
            and bool(payload.get("lm_shed"))
        )
        if not lm_degraded:
            self.cache.put(route, key, snapshot.version, payload)
        return RouteResponse(
            status="ok",
            route=route,
            payload=payload,
            snapshot_version=snapshot.version,
            degraded=degraded,
        )

    def _finish(self, response: RouteResponse, started: float) -> RouteResponse:
        response.elapsed_ms = (time.perf_counter() - started) * 1000.0
        obs_metrics.observe(f"serve.route.{response.route}.seconds", response.elapsed_ms / 1000.0)
        obs_metrics.count(f"serve.route.{response.route}.{response.status}")
        if FLAGS.enabled:
            get_slo_tracker().record(
                response.route, response.status, response.http_status, response.degraded
            )
        serve_context.tag_request("status", response.status)
        if response.degraded:
            serve_context.tag_request("degraded", response.degraded)
        if response.cached:
            serve_context.tag_request("cached", True)
        return response

    def _bad_request(self, route: str, message: str) -> RouteResponse:
        obs_metrics.count("serve.requests")
        obs_metrics.count(f"serve.route.{route}.requests")
        obs_metrics.count(f"serve.route.{route}.bad_request")
        if FLAGS.enabled:
            get_slo_tracker().record(route, "bad_request", 400, None)
        return RouteResponse(
            status="bad_request", route=route, payload={"error": message}
        )

    # ------------------------------------------------------------------
    # per-route computation (all run against one snapshot reference)

    def _resolve_entities(self, snapshot: GraphSnapshot, term: str):
        """Entities a surface term names: an exact id, else name matches."""
        planner = snapshot.planner
        if planner.has_entity(term):
            return [planner.entity(term)]
        return planner.find_by_name(term)

    def _render_value(self, snapshot: GraphSnapshot, value: object) -> str:
        """Entity-valued objects render as canonical names, literals as str."""
        if isinstance(value, str) and snapshot.planner.has_entity(value):
            return snapshot.planner.entity(value).name
        return str(value)

    def _compute_lookup(
        self, snapshot: GraphSnapshot, params: Dict[str, object], decision
    ) -> Dict[str, object]:
        subject = str(params["subject"])
        predicate = str(params["predicate"])
        entities = self._resolve_entities(snapshot, subject)
        values: List[str] = []
        for entity in entities:
            for value in snapshot.planner.objects(entity.entity_id, predicate):
                values.append(self._render_value(snapshot, value))
        return {
            "subject": subject,
            "predicate": predicate,
            "entities": [entity.entity_id for entity in entities],
            "values": values[:MAX_RESULTS],
        }

    def _compute_paths(
        self, snapshot: GraphSnapshot, params: Dict[str, object], decision
    ) -> Dict[str, object]:
        start_matches = self._resolve_entities(snapshot, str(params["start"]))
        goal_matches = self._resolve_entities(snapshot, str(params["goal"]))
        if not start_matches or not goal_matches:
            return {"paths": [], "n_paths": 0, "resolved": False}
        found = snapshot.planner.paths(
            start_matches[0].entity_id,
            goal_matches[0].entity_id,
            max_length=int(params["max_length"]),  # type: ignore[arg-type]
            max_paths=int(params["max_paths"]),  # type: ignore[arg-type]
        )
        return {
            "start": start_matches[0].entity_id,
            "goal": goal_matches[0].entity_id,
            "paths": [
                [[relation, direction, node] for relation, direction, node in path]
                for path in found
            ],
            "n_paths": len(found),
            "resolved": True,
        }

    def _compute_query(
        self, snapshot: GraphSnapshot, params: Dict[str, object], decision
    ) -> Dict[str, object]:
        patterns = [
            TriplePattern(str(terms[0]), str(terms[1]), terms[2])
            for terms in params["patterns"]  # type: ignore[union-attr]
        ]
        bindings = snapshot.planner.conjunctive_query(patterns)
        return {
            "bindings": [
                {variable: value for variable, value in sorted(binding.items())}
                for binding in bindings[:MAX_RESULTS]
            ],
            "n_bindings": len(bindings),
            "truncated": len(bindings) > MAX_RESULTS,
        }

    def _compute_ask(
        self, snapshot: GraphSnapshot, params: Dict[str, object], decision
    ) -> Dict[str, object]:
        subject = str(params["subject"])
        predicate = str(params["predicate"])
        matches = self._resolve_entities(snapshot, subject)
        resolved = bool(matches) and snapshot.planner.has_entity(subject)
        question = Question(
            subject_id=matches[0].entity_id if resolved else "",
            subject_name=(
                matches[0].name if resolved and matches else subject
            ),
            predicate=predicate,
            gold=(),
            band="online",
            resolved=resolved,
        )
        # Both engines only hold references, so each request builds its
        # own over its snapshot's planner.
        lm_shed = decision.shed_lm or self.model is None
        if lm_shed:
            if self.model is not None:
                obs_metrics.count("serve.shed.lm")
            with obs_span("serve.qa", engine="kg", lm_shed=True):
                answer = KGQA(snapshot.planner).answer(question)  # type: ignore[arg-type]
        else:
            dual = DualRouterQA(snapshot.planner, self.model)  # type: ignore[arg-type]
            with self._lm_lock:
                with obs_span("serve.qa", engine="dual", lm_shed=False):
                    answer = dual.answer(question)
        return {
            "subject": subject,
            "predicate": predicate,
            "answer": answer.text,
            "origin": answer.origin,
            "lm_shed": lm_shed,
        }
