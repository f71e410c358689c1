"""Seeded inputs for every workload; the program only ever sees these.

Everything here is a pure function of ``seed`` and a size, built on
``random.Random`` — no wall clock, no global state, and no import from
``repro.evalx`` (that package is on the ROADMAP to be rebuilt).  The
helpers that create *empty* production objects pass a keyword only while
the constructor still accepts it, so the benchmark keeps running,
unedited, after the ROADMAP's "one storage backend" item deletes it.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.triple import Provenance, Triple
from repro.datagen.sources import SourceRecord, StructuredSource

CLASSES = ("Person", "Work", "Place")
N_ATTRIBUTES = 40
N_RELATIONS = 4
SOURCES = ("src0", "src1", "src2", "src3")

#: Request mix of the serving workloads (the legacy loadgen's DEFAULT_MIX).
SERVE_MIX = {"lookup": 0.45, "query": 0.20, "paths": 0.15, "ask": 0.20}

#: Operation mix of ``graph_mutate``.
MUTATE_MIX = {
    "read_s": 0.30,
    "read_po": 0.25,
    "add": 0.25,
    "remove": 0.08,
    "merge": 0.04,
    "paths": 0.03,
    "probe": 0.05,
}


def production_kwargs(callable_, **wanted) -> Dict[str, object]:
    """The subset of ``wanted`` keywords that ``callable_`` still accepts."""
    accepted = inspect.signature(callable_).parameters
    return {key: value for key, value in wanted.items() if key in accepted}


def new_graph(ontology: Optional[Ontology] = None, name: str = "kg") -> KnowledgeGraph:
    """An empty graph on the production (columnar) storage backend."""
    return KnowledgeGraph(
        ontology=ontology,
        name=name,
        **production_kwargs(KnowledgeGraph.__init__, backend="columnar"),
    )


# ---------------------------------------------------------------------------
# graph G (store_cycle, graph_mutate, serve_scan, serve_http)

Row = Tuple[str, str, object]


@dataclass
class GraphSpec:
    """Graph G as plain data: the source every loaded copy is checked against."""

    entities: List[Tuple[str, str, str]]  # (entity_id, name, class)
    rows: List[Row]  # unique (subject, predicate, object)
    provenance: List[Tuple[int, str, float]]  # (row index, source, confidence)

    def batch_items(self) -> List[Tuple[Triple, Provenance]]:
        """``add_triples_batch`` input: one item per provenance record."""
        triples = [Triple(*row) for row in self.rows]
        return [
            (triples[index], Provenance(source=source, extractor="gen", confidence=confidence))
            for index, source, confidence in self.provenance
        ]


def _literal(rng: random.Random, attribute: int) -> object:
    # Three value types, never equal across types (floats are never
    # integral), so dictionary encoding cannot conflate 1 with 1.0.
    kind = attribute % 3
    if kind == 0:
        return f"v{rng.randrange(4000)}"
    if kind == 1:
        return 1000 + rng.randrange(2000)
    return rng.randrange(4000) + rng.choice((0.25, 0.5, 0.75))


def graph_spec(seed: int, n_entities: int, n_triples: int) -> GraphSpec:
    """``n_entities`` named entities and exactly ``n_triples`` unique triples.

    Per entity: mostly literal attributes over ``N_ATTRIBUTES`` predicates
    with ~4,000 values each (so ``?s p o`` gathers a handful of subjects
    from every shard) plus two relation
    edges to other entities (so 3-hop path search has a bounded frontier).
    A fifth of the triples carry a second provenance record.
    """
    rng = random.Random(seed)
    entities = [
        (f"E{index:06d}", f"name{rng.randrange(10**6):06d} n{index}", CLASSES[index % 3])
        for index in range(n_entities)
    ]
    per_entity, remainder = divmod(n_triples, n_entities)
    rows: List[Row] = []
    for index, (entity_id, _, _) in enumerate(entities):
        wanted = per_entity + (1 if index < remainder else 0)
        seen = set()
        while len(seen) < wanted:
            if len(seen) < 2 and n_entities > 1:
                other = rng.randrange(n_entities - 1)
                other += other >= index
                pair = (f"rel_{rng.randrange(N_RELATIONS)}", entities[other][0])
            else:
                attribute = rng.randrange(N_ATTRIBUTES)
                pair = (f"attr_{attribute:02d}", _literal(rng, attribute))
            if pair not in seen:
                seen.add(pair)
                rows.append((entity_id, pair[0], pair[1]))
    provenance: List[Tuple[int, str, float]] = []
    for index in range(len(rows)):
        first = rng.randrange(len(SOURCES))
        provenance.append((index, SOURCES[first], rng.randrange(50, 101) / 100))
        if rng.random() < 0.2:
            second = (first + 1 + rng.randrange(len(SOURCES) - 1)) % len(SOURCES)
            provenance.append((index, SOURCES[second], rng.randrange(50, 101) / 100))
    return GraphSpec(entities=entities, rows=rows, provenance=provenance)


def graph_ontology() -> Ontology:
    ontology = Ontology(name="bench")
    for entity_class in CLASSES:
        ontology.add_class(entity_class)
    return ontology


def add_entities(graph: KnowledgeGraph, spec: GraphSpec) -> None:
    for entity_id, name, entity_class in spec.entities:
        graph.add_entity(entity_id, name, entity_class)


def build_graph(spec: GraphSpec) -> KnowledgeGraph:
    """Graph G on the production backend (bulk-load path)."""
    graph = new_graph(graph_ontology(), name="G")
    add_entities(graph, spec)
    graph.add_triples_batch(spec.batch_items())
    return graph


# ---------------------------------------------------------------------------
# the two-feed stream (stream_live)


def stream_sources(seed: int, n_entities: int) -> List[StructuredSource]:
    """``feed-a`` persons, every tenth repeated in ``feed-b`` with a
    conflicting ``birth_year`` — linkage, fusion conflicts and WAL-logged
    merges all have work, while per-entity unique name tokens keep
    blocking bounded (the shape of the legacy ``stream_scale`` feed)."""
    rng = random.Random(seed)
    primary = StructuredSource(name="feed-a")
    secondary = StructuredSource(name="feed-b")
    for index in range(n_entities):
        tag = rng.randrange(10**6)
        fields = {
            "name": f"stream{index} uniq{tag:06d}x{index}",
            "birth_year": 1900 + rng.randrange(120),
            "city": f"city {rng.randrange(500)}",
        }
        primary.records.append(
            SourceRecord(f"a:{index}", "feed-a", "Person", dict(fields), f"w{index}")
        )
        if index % 10 == 0:
            fields["birth_year"] += 1
            secondary.records.append(
                SourceRecord(f"b:{index}", "feed-b", "Person", fields, f"w{index}")
            )
    return [primary, secondary]


# ---------------------------------------------------------------------------
# request plans (serve_scan, serve_http)


@dataclass(frozen=True)
class Request:
    route: str
    kwargs: Dict[str, object]


def _weighted(rng: random.Random, mix: Dict[str, float]) -> str:
    names = sorted(mix)
    return rng.choices(names, weights=[mix[name] for name in names])[0]


def request_plan(
    vocabulary: Sequence[Dict[str, object]], n_requests: int, seed: int, distinct: bool = False
) -> List[Request]:
    """``n_requests`` seeded requests over an ``entity_sample`` vocabulary.

    ``distinct=True`` rejects repeats, so a plan smaller than the response
    cache can be warmed completely (``serve_http``).
    """
    usable = [entry for entry in vocabulary if entry.get("predicates") and entry.get("facts")]
    if not usable:
        raise ValueError("vocabulary has no entity with predicates")
    rng = random.Random(seed)
    plan: List[Request] = []
    seen = set()
    attempts = 0
    while len(plan) < n_requests:
        attempts += 1
        if attempts > 50 * n_requests:
            raise ValueError(f"vocabulary too small for {n_requests} distinct requests")
        route = _weighted(rng, SERVE_MIX)
        entity = rng.choice(usable)
        predicate = rng.choice(entity["predicates"])
        if route == "lookup":
            kwargs: Dict[str, object] = {"subject": entity["entity_id"], "predicate": predicate}
        elif route == "ask":
            kwargs = {"subject": entity["name"], "predicate": predicate}
        elif route == "paths":
            goal = rng.choice(usable)
            kwargs = {
                "start": entity["entity_id"],
                "goal": goal["entity_id"],
                "max_length": 3,
                "max_paths": 10,
            }
        elif rng.random() < 0.5:
            kwargs = {"patterns": [[entity["entity_id"], predicate, "?o"]]}
        else:
            # Object-bound: scatters to every shard, gathers a handful of
            # rows.  (A full ``?s p ?o`` scan has only as many distinct keys
            # as predicates: a few dozen 15 ms computations whose number —
            # set by cache evictions — swung the whole workload by seed.)
            fact_predicate, fact_object = rng.choice(entity["facts"])
            kwargs = {"patterns": [["?s", fact_predicate, fact_object]]}
        key = (route, repr(sorted(kwargs.items())))
        if distinct and key in seen:
            continue
        seen.add(key)
        plan.append(Request(route, kwargs))
    return plan


# ---------------------------------------------------------------------------
# the mutate op stream (graph_mutate)

Op = Tuple  # (kind, *args)


def mutate_ops(spec: GraphSpec, n_ops: int, seed: int) -> List[Op]:
    """A seeded stream of single operations against a copy of graph G.

    Generated against a shadow of the graph's state so that every op is
    meaningful when replayed in order: removes hit live triples, merges
    name two live entities, adds name a live subject.
    """
    rng = random.Random(seed)
    live_entities = [entity_id for entity_id, _, _ in spec.entities]
    live_rows = list(spec.rows)
    row_set = set(live_rows)
    ops: List[Op] = []
    while len(ops) < n_ops:
        kind = _weighted(rng, MUTATE_MIX)
        if kind == "read_s":
            ops.append(("read_s", rng.choice(live_entities)))
        elif kind == "read_po":
            _, predicate, obj = rng.choice(live_rows)
            ops.append(("read_po", predicate, obj))
        elif kind == "add":
            subject = rng.choice(live_entities)
            attribute = rng.randrange(N_ATTRIBUTES)
            row = (subject, f"attr_{attribute:02d}", _literal(rng, attribute))
            ops.append(("add", *row, rng.choice(SOURCES)))
            if row not in row_set:
                row_set.add(row)
                live_rows.append(row)
        elif kind == "remove":
            position = rng.randrange(len(live_rows))
            row = live_rows[position]
            live_rows[position] = live_rows[-1]
            live_rows.pop()
            row_set.discard(row)
            ops.append(("remove", *row))
        elif kind == "merge":
            keep, drop = rng.sample(live_entities, 2)
            live_entities.remove(drop)
            # The shadow row list may now name a dropped entity; such rows
            # are only ever used as read/remove targets, where a miss is a
            # legal (and modelled) outcome.
            ops.append(("merge", keep, drop))
        elif kind == "paths":
            start, goal = rng.sample(live_entities, 2)
            ops.append(("paths", start, goal))
        else:
            subject, predicate, obj = rng.choice(live_rows)
            ops.append(("probe", subject, predicate, obj))
    return ops
