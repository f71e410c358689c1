"""Tests for the pattern/path query engine."""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import load_graph, save_graph
from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.query import (
    PathQuery,
    TriplePattern,
    conjunctive_query,
    is_variable,
    match_pattern,
)
from repro.core.triple import Triple
from tests.oracles import SetGraph, paths_exhaustive


@pytest.fixture
def graph():
    ontology = Ontology()
    ontology.add_class("Person")
    ontology.add_class("Movie")
    graph = KnowledgeGraph(ontology=ontology)
    for movie in ("m1", "m2"):
        graph.add_entity(movie, movie.upper(), "Movie")
    for person in ("p1", "p2", "p3"):
        graph.add_entity(person, person.upper(), "Person")
    graph.add("m1", "directed_by", "p1")
    graph.add("m1", "stars", "p2")
    graph.add("m2", "directed_by", "p1")
    graph.add("m2", "stars", "p2")
    graph.add("m2", "stars", "p3")
    graph.add("m1", "release_year", 1999)
    return graph


class TestPatterns:
    def test_is_variable(self):
        assert is_variable("?x")
        assert not is_variable("x")
        assert not is_variable(1999)

    def test_match_single_variable(self, graph):
        bindings = list(match_pattern(graph, TriplePattern("m1", "directed_by", "?d")))
        assert bindings == [{"?d": "p1"}]

    def test_match_two_variables(self, graph):
        bindings = list(match_pattern(graph, TriplePattern("?m", "directed_by", "?d")))
        assert {frozenset(binding.items()) for binding in bindings} == {
            frozenset({("?m", "m1"), ("?d", "p1")}),
            frozenset({("?m", "m2"), ("?d", "p1")}),
        }

    def test_conjunctive_join(self, graph):
        # Movies directed by p1 that star p3.
        solutions = conjunctive_query(
            graph,
            [
                TriplePattern("?m", "directed_by", "p1"),
                TriplePattern("?m", "stars", "p3"),
            ],
        )
        assert [solution["?m"] for solution in solutions] == ["m2"]

    def test_join_respects_bindings(self, graph):
        # Co-star pattern: people starring in the same movie.
        solutions = conjunctive_query(
            graph,
            [
                TriplePattern("?m", "stars", "?a"),
                TriplePattern("?m", "stars", "?b"),
            ],
        )
        pairs = {(s["?a"], s["?b"]) for s in solutions if s["?a"] != s["?b"]}
        assert ("p2", "p3") in pairs

    def test_empty_result(self, graph):
        solutions = conjunctive_query(
            graph, [TriplePattern("?m", "directed_by", "p3")]
        )
        assert solutions == []


class TestPathQuery:
    def test_direct_path(self, graph):
        paths = PathQuery(graph, max_length=1).paths("m1", "p1")
        assert paths == [[("directed_by", 1, "p1")]]

    def test_two_hop_path(self, graph):
        paths = PathQuery(graph, max_length=2).paths("p1", "p2")
        signatures = PathQuery(graph, max_length=2).relation_paths("p1", "p2")
        assert paths  # p1 -(directed_by^-1)-> m -(stars)-> p2
        assert (("directed_by", -1), ("stars", 1)) in signatures

    def test_max_length_respected(self, graph):
        assert PathQuery(graph, max_length=1).paths("p1", "p2") == []

    def test_unknown_entity(self, graph):
        assert PathQuery(graph).paths("nope", "p1") == []

    def test_reachable_distances(self, graph):
        distances = PathQuery(graph).reachable("m1", max_hops=2)
        assert distances["p1"] == 1
        assert distances["m2"] == 2
        assert "m1" not in distances

    def test_max_paths_cap(self, graph):
        paths = PathQuery(graph, max_length=3).paths("m1", "m2", max_paths=1)
        assert len(paths) == 1


# ---------------------------------------------------------------------------
# goal-directed search == the exhaustive walk, order and cut included

_ENTITY_IDS = ("e0", "e1", "e2", "e3", "e4", "e5")
_entity = st.sampled_from(_ENTITY_IDS)
_objects = st.one_of(
    _entity,
    _entity,
    # An id-shaped string that never names an entity, a plain literal, and
    # non-str terms (0, 0.0 and False are one term).
    st.sampled_from(("e9", "x", 0, 1, 0.0, 1.0, False, True)),
)
_rows = st.lists(st.tuples(_entity, st.sampled_from(("p", "q", "r")), _objects), max_size=40)
_mutations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.tuples(_entity, st.sampled_from(("p", "q")), _objects)),
        st.tuples(st.just("remove"), st.integers(0, 99)),
        st.tuples(st.just("merge"), st.tuples(_entity, _entity)),
    ),
    max_size=15,
)
_queries = st.lists(
    st.tuples(
        st.sampled_from(_ENTITY_IDS + ("ghost",)),
        st.sampled_from(_ENTITY_IDS + ("ghost",)),
        st.integers(1, 5),
        st.integers(1, 40),
    ),
    min_size=1,
    max_size=8,
)


def _loaded_graph_and_model(rows, directory):
    """The rows as a saved-then-loaded graph (base columns only) + model."""
    ontology = Ontology()
    ontology.add_class("Thing")
    graph, model = KnowledgeGraph(ontology=ontology, name="paths"), SetGraph()
    for entity_id in _ENTITY_IDS:
        graph.add_entity(entity_id, entity_id.upper(), "Thing")
        model.add_entity(entity_id, entity_id.upper())
    for row in rows:
        graph.add_triple(Triple(*row))
        model.add(Triple(*row))
    path = os.path.join(directory, "paths.rkgs")
    save_graph(graph, path, include_lineage=False)
    return load_graph(path), model


def _mutate(graph, model, mutations):
    """Adds (delta rows), removes of present rows (tombstones over the base)
    and merges, applied to both sides."""
    for kind, payload in mutations:
        if kind == "add" and payload[0] in model.entities:
            assert graph.add_triple(Triple(*payload)) == model.add(Triple(*payload))
        elif kind == "remove" and model.rows:
            row = sorted(model.rows, key=repr)[payload % len(model.rows)]
            assert graph.remove_triple(row) == model.remove(row)
        elif kind == "merge" and payload[0] != payload[1]:
            if payload[0] in model.entities and payload[1] in model.entities:
                assert graph.merge_entities(*payload) == model.merge(*payload)


def _assert_paths_exact(graph, model, queries):
    for start, goal, max_length, max_paths in queries:
        assert PathQuery(graph, max_length).paths(start, goal, max_paths) == (
            paths_exhaustive(model, start, goal, max_length, max_paths)
        )
        assert PathQuery(graph).reachable(start, max_length) == (
            PathQuery(model).reachable(start, max_length)
        )


@given(rows=_rows, mutations=_mutations, queries=_queries)
@settings(max_examples=150, deadline=None)
def test_paths_equal_exhaustive_search(rows, mutations, queries):
    """``paths`` prunes on hop distance to the goal and reads adjacency as
    ids; its answer is the exhaustive DFS's over the set-of-rows model, by
    ``==``, on a freshly loaded graph and again after churn."""
    with tempfile.TemporaryDirectory() as directory:
        graph, model = _loaded_graph_and_model(rows, directory)
    _assert_paths_exact(graph, model, queries)
    _mutate(graph, model, mutations)
    _assert_paths_exact(graph, model, queries)
