"""The snapshot planner: its answers are ``core.query``'s on the source
graph at every shard count, and ``shard_sizes`` is the subject-hash
partition of that graph."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.query import PathQuery, TriplePattern, conjunctive_query
from repro.serve.shard import ScatterGatherPlanner, shard_of
from repro.serve.snapshot import SnapshotStore

SHARD_COUNTS = (1, 2, 4)
PREDICATES = ("related_to", "part_of", "label")


def build_test_graph(n_entities=40, n_triples=220, seed=5):
    ontology = Ontology()
    ontology.add_class("Thing")
    graph = KnowledgeGraph(ontology=ontology, name="shardtest")
    for index in range(n_entities):
        graph.add_entity(f"e{index}", f"Entity {index}", "Thing")
    rng = random.Random(seed)
    for _ in range(n_triples):
        subject = f"e{rng.randrange(n_entities)}"
        if rng.random() < 0.7:
            graph.add(subject, rng.choice(["related_to", "part_of"]), f"e{rng.randrange(n_entities)}")
        else:
            graph.add(subject, "label", f"value-{rng.randrange(30)}")
    return graph


def published_planners(graph):
    """The router's planner over a published snapshot, per shard count."""
    return {
        n_shards: SnapshotStore(n_shards=n_shards).publish(graph).planner
        for n_shards in SHARD_COUNTS
    }


@pytest.fixture(scope="module")
def graph():
    return build_test_graph()


@pytest.fixture(scope="module")
def planners(graph):
    return published_planners(graph)


class TestShardOf:
    def test_deterministic(self):
        assert shard_of("e7", 4) == shard_of("e7", 4)

    def test_single_shard_short_circuits(self):
        assert shard_of("anything", 1) == 0

    def test_spreads_subjects(self):
        owners = {shard_of(f"e{i}", 4) for i in range(200)}
        assert owners == {0, 1, 2, 3}


class TestShardSizes:
    def test_triples_partition_exactly(self, graph, planners):
        for n_shards, planner in planners.items():
            expected = Counter(
                f"shard{shard_of(triple.subject, n_shards)}" for triple in graph.triples()
            )
            sizes = planner.shard_sizes()
            assert sizes == {f"shard{i}": expected[f"shard{i}"] for i in range(n_shards)}
            assert sum(sizes.values()) == len(graph)

    def test_rejects_zero_shards(self, graph):
        with pytest.raises(ValueError):
            ScatterGatherPlanner(graph, 0)


class TestShardInvariance:
    """The planner over a published snapshot answers exactly what
    ``core.query`` answers on the source graph, at 1, 2 and 4 shards."""

    def test_lookup_invariant(self, graph, planners):
        for planner in planners.values():
            for index in range(0, 40, 3):
                subject = f"e{index}"
                for predicate in PREDICATES:
                    assert planner.objects(subject, predicate) == graph.objects(
                        subject, predicate
                    ), (subject, predicate)
                    assert planner.lookup(subject, predicate) == graph.objects(
                        subject, predicate
                    )

    def test_scatter_query_invariant(self, graph, planners):
        for planner in planners.values():
            for predicate in PREDICATES + ("missing",):
                assert planner.query(predicate=predicate) == graph.query(predicate=predicate)
            assert planner.query(obj="e3") == graph.query(obj="e3")
            assert planner.query() == graph.query()

    def test_query_matches_unsharded_graph(self, graph, planners):
        for planner in planners.values():
            assert planner.query(subject="e4") == graph.query(subject="e4")
            assert planner.query() == sorted(graph.query())

    def test_cardinality_is_exact(self, graph, planners):
        for planner in planners.values():
            for predicate in PREDICATES:
                assert planner.pattern_cardinality(
                    predicate=predicate
                ) == graph.pattern_cardinality(predicate=predicate)

    def test_neighbors_invariant(self, graph, planners):
        for planner in planners.values():
            for index in range(0, 40, 5):
                assert planner.neighbors(f"e{index}") == graph.neighbors(f"e{index}")

    def test_conjunctive_query_invariant(self, graph, planners):
        patterns = [
            TriplePattern("?x", "related_to", "?y"),
            TriplePattern("?y", "part_of", "?z"),
        ]
        for planner in planners.values():
            for reorder in (True, False):
                assert planner.conjunctive_query(patterns, reorder=reorder) == (
                    conjunctive_query(graph, patterns, reorder=reorder)
                )

    def test_conjunctive_query_matches_core(self, graph, planners):
        patterns = [
            TriplePattern("e0", "related_to", "?y"),
            TriplePattern("?y", "label", "?v"),
        ]
        for planner in planners.values():
            assert planner.conjunctive_query(patterns) == conjunctive_query(graph, patterns)

    def test_paths_invariant(self, graph, planners):
        cases = [("e0", "e9"), ("e3", "e17"), ("e5", "e5x-missing")]
        for planner in planners.values():
            for start, goal in cases:
                expected = PathQuery(graph, max_length=3).paths(start, goal, max_paths=10)
                assert planner.paths(start, goal, max_length=3, max_paths=10) == expected

    def test_paths_match_core_pathquery(self, graph, planners):
        expected = PathQuery(graph, max_length=3).paths("e0", "e9", max_paths=10)
        for planner in planners.values():
            assert planner.paths("e0", "e9", max_length=3, max_paths=10) == expected

    def test_entity_directory(self, graph, planners):
        for planner in planners.values():
            assert planner.has_entity("e1")
            assert not planner.has_entity("nope")
            assert planner.entity("e1").name == "Entity 1"
            assert [e.entity_id for e in planner.find_by_name("Entity 2")] == ["e2"]


def _graph_with_overlay(data):
    """A random graph whose store holds base columns, delta adds and
    tombstones at once, and its entity ids."""
    n_entities = data.draw(st.integers(min_value=2, max_value=10), label="n_entities")
    entities = [f"e{i}" for i in range(n_entities)]
    objects = entities + ["v0", "v1", 7, 11]
    ontology = Ontology()
    ontology.add_class("Thing")
    graph = KnowledgeGraph(ontology=ontology, name="prop")
    for index, entity_id in enumerate(entities):
        graph.add_entity(entity_id, f"Entity {index % 3}", "Thing")
    row = st.tuples(
        st.sampled_from(entities), st.sampled_from(PREDICATES), st.sampled_from(objects)
    )
    for subject, predicate, obj in data.draw(st.lists(row, max_size=40), label="base"):
        graph.add(subject, predicate, obj)
    graph._store.compact()
    for subject, predicate, obj in data.draw(st.lists(row, max_size=20), label="delta"):
        graph.add(subject, predicate, obj)
    live = sorted(graph.triples())
    if live:
        for index in data.draw(st.lists(st.integers(0, len(live) - 1), max_size=10), label="rm"):
            graph.remove_triple(live[index])
    return graph, entities


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_published_planner_equals_core_query(data):
    """Over random graphs with deltas and tombstones, every planner read
    on a published snapshot equals ``core.query`` on the source graph."""
    graph, entities = _graph_with_overlay(data)
    subject_choice = [None] + entities[:3]
    predicate_choice = [None, "related_to", "label"]
    object_choice = [None, entities[0], "v0", 7]
    patterns = [
        TriplePattern("?a", "related_to", "?b"),
        TriplePattern("?b", "?p", "?c"),
    ]
    for n_shards, planner in published_planners(graph).items():
        assert sum(planner.shard_sizes().values()) == len(graph)
        for subject in entities:
            assert planner.neighbors(subject) == graph.neighbors(subject)
            for predicate in PREDICATES:
                assert planner.objects(subject, predicate) == graph.objects(subject, predicate)
        for subject, predicate, obj in itertools.product(
            subject_choice, predicate_choice, object_choice
        ):
            pattern = dict(subject=subject, predicate=predicate, obj=obj)
            assert planner.query(**pattern) == graph.query(**pattern), (n_shards, pattern)
            assert planner.pattern_cardinality(**pattern) == len(graph.query(**pattern))
        assert planner.conjunctive_query(patterns) == conjunctive_query(graph, patterns)
        start, goal = entities[0], entities[-1]
        assert planner.paths(start, goal, max_length=3) == PathQuery(
            graph, max_length=3
        ).paths(start, goal)
