"""Shared by ``serve_scan`` and ``serve_http``: the service recipe, the
vocabulary, request dispatch, and the expected answer for every request
(computed by direct ``graph.query`` on graph G, never through the serving
tier)."""

from __future__ import annotations

import json
import random
from typing import Dict, List, Sequence, Tuple

from repro.core.query import PathQuery
from repro.serve.admission import AdmissionController
from repro.serve.service import KGService

from bench import gen
from bench.loadgen import Sample

CACHE_CAPACITY = 2048
N_SHARDS = 2
MAX_RESULTS = 200  # RequestRouter's default truncation of query bindings


def make_service() -> KGService:
    """The service both serving workloads (and the HTTP child) publish into.

    The admission rate is set far above anything two connections can
    offer, so the degradation ladder never engages: a degraded or refused
    answer is a failure here, not a feature under test.
    """
    return KGService(
        n_shards=N_SHARDS,
        cache_capacity=CACHE_CAPACITY,
        admission=AdmissionController(rate=1e6),
        model=None,
    )


def vocabulary(spec: gen.GraphSpec, n: int, seed: int) -> List[Dict[str, object]]:
    """A seeded entity sample in the shape of ``KGService.entity_sample``,
    plus up to six of each entity's ``(predicate, object)`` facts."""
    facts: Dict[str, list] = {}
    for subject, predicate, obj in spec.rows:
        facts.setdefault(subject, []).append((predicate, obj))
    entities = list(spec.entities)
    if len(entities) > n:
        entities = random.Random(seed).sample(entities, n)
    return [
        {
            "entity_id": entity_id,
            "name": name,
            "class": entity_class,
            "predicates": sorted({predicate for predicate, _ in facts.get(entity_id, ())})[:6],
            "facts": sorted(facts.get(entity_id, ()), key=repr)[:6],
        }
        for entity_id, name, entity_class in entities
    ]


def dispatch(client, request: gen.Request) -> Tuple[int, dict]:
    return getattr(client, request.route)(**request.kwargs)


def canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True)


class Expected:
    """Expected payloads from the reference graph, memoized per request."""

    def __init__(self, graph, spec: gen.GraphSpec):
        self.graph = graph
        self.id_of_name = {name: entity_id for entity_id, name, _ in spec.entities}
        self._paths = PathQuery(graph, max_length=3)
        self._memo: Dict[str, str] = {}

    def _render(self, value: object) -> str:
        if isinstance(value, str) and self.graph.has_entity(value):
            return self.graph.entity(value).name
        return str(value)

    def _values(self, subject: str, predicate: str) -> List[str]:
        triples = self.graph.query(subject=subject, predicate=predicate)
        objects = [triple.object for triple in triples]
        return [self._render(obj) for obj in sorted(objects, key=str)]

    def payload(self, request: gen.Request) -> str:
        key = canonical([request.route, request.kwargs])
        if key not in self._memo:
            self._memo[key] = canonical(self._compute(request.route, request.kwargs))
        return self._memo[key]

    def _compute(self, route: str, kwargs: Dict[str, object]) -> Dict[str, object]:
        graph = self.graph
        if route == "lookup":
            subject, predicate = str(kwargs["subject"]), str(kwargs["predicate"])
            return {
                "subject": subject,
                "predicate": predicate,
                "entities": [subject],
                "values": self._values(subject, predicate),
            }
        if route == "ask":
            name, predicate = str(kwargs["subject"]), str(kwargs["predicate"])
            values = self._values(self.id_of_name[name], predicate)
            return {
                "subject": name,
                "predicate": predicate,
                "answer": values[0] if values else None,
                "origin": "kg" if values else "abstain",
                "lm_shed": True,
            }
        if route == "paths":
            start, goal = str(kwargs["start"]), str(kwargs["goal"])
            found = self._paths.paths(start, goal, max_paths=int(kwargs["max_paths"]))
            return {
                "start": start,
                "goal": goal,
                "paths": [[list(step) for step in path] for path in found],
                "n_paths": len(found),
                "resolved": True,
            }
        subject, predicate, obj = kwargs["patterns"][0]
        if subject == "?s":
            triples = graph.query(predicate=predicate, obj=obj)
            bindings = [{"?s": triple.subject} for triple in triples]
        else:
            triples = graph.query(subject=subject, predicate=predicate)
            bindings = [{"?o": triple.object} for triple in triples]
        return {
            "bindings": bindings[:MAX_RESULTS],
            "n_bindings": len(bindings),
            "truncated": len(bindings) > MAX_RESULTS,
        }


def sample_ok(sample: Sample, expected_payload: str) -> bool:
    """200, not degraded, and the payload equals the reference answer."""
    body = sample.body
    return (
        sample.status == 200
        and body.get("status") == "ok"
        and body.get("degraded") is None
        and canonical(body.get("payload")) == expected_payload
    )


def count_failures(
    samples: Sequence[Sample], requests: Sequence[gen.Request], expected: Expected
) -> int:
    return sum(
        0 if sample_ok(sample, expected.payload(requests[sample.index])) else 1
        for sample in samples
    )
