"""Tests for the entity-based KnowledgeGraph, including index invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec
from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.triple import Provenance, Triple


def _graph():
    ontology = Ontology()
    ontology.add_class("Person")
    ontology.add_class("Movie")
    ontology.add_relation("directed_by", "Movie", "Person")
    ontology.add_relation("release_year", "Movie", "number")
    graph = KnowledgeGraph(ontology=ontology)
    graph.add_entity("m1", "Silent River", "Movie")
    graph.add_entity("m2", "Silent River", "Movie", aliases={"The Silent River"})
    graph.add_entity("p1", "Jane Doe", "Person")
    return graph


class TestEntities:
    def test_add_and_lookup(self):
        graph = _graph()
        assert graph.entity("m1").name == "Silent River"

    def test_duplicate_id_rejected(self):
        graph = _graph()
        with pytest.raises(ValueError):
            graph.add_entity("m1", "X", "Movie")

    def test_unknown_class_rejected(self):
        graph = _graph()
        with pytest.raises(ValueError):
            graph.add_entity("x", "X", "Song")

    def test_find_by_name_returns_all_homonyms(self):
        graph = _graph()
        assert {entity.entity_id for entity in graph.find_by_name("silent river")} == {
            "m1",
            "m2",
        }

    def test_find_by_alias(self):
        graph = _graph()
        assert graph.find_by_name("The Silent River")[0].entity_id == "m2"

    def test_add_alias_indexes(self):
        graph = _graph()
        graph.add_alias("p1", "J. Doe")
        assert graph.find_by_name("j. doe")[0].entity_id == "p1"

    def test_entities_filtered_by_class(self):
        graph = _graph()
        assert [entity.entity_id for entity in graph.entities("Person")] == ["p1"]

    def test_unknown_entity_raises(self):
        with pytest.raises(KeyError):
            _graph().entity("nope")


class TestTriples:
    def test_add_returns_new_flag(self):
        graph = _graph()
        triple = Triple("m1", "directed_by", "p1")
        assert graph.add_triple(triple) is True
        assert graph.add_triple(triple) is False
        assert len(graph) == 1

    def test_unknown_subject_rejected(self):
        graph = _graph()
        with pytest.raises(ValueError):
            graph.add(Triple("nope", "p", "o").subject, "p", "o")

    def test_validation_mode(self):
        graph = _graph()
        with pytest.raises(ValueError):
            graph.add("p1", "directed_by", "m1", validate=True)
        graph.add("m1", "release_year", 1999, validate=True)

    def test_remove(self):
        graph = _graph()
        triple = Triple("m1", "release_year", 1999)
        graph.add_triple(triple)
        assert graph.remove_triple(triple) is True
        assert graph.remove_triple(triple) is False
        assert triple not in graph

    def test_provenance_accumulates(self):
        graph = _graph()
        triple = Triple("m1", "release_year", 1999)
        graph.add_triple(triple, provenance=Provenance(source="a"))
        graph.add_triple(triple, provenance=Provenance(source="b"))
        assert {record.source for record in graph.provenance(triple)} == {"a", "b"}

    def test_attributed_triples_default_source(self):
        graph = _graph()
        graph.add("m1", "release_year", 1999)
        attributed = list(graph.attributed_triples())
        assert attributed[0].provenance.source == graph.name


class TestQueries:
    def test_all_patterns(self):
        graph = _graph()
        graph.add("m1", "directed_by", "p1")
        graph.add("m1", "release_year", 1999)
        graph.add("m2", "directed_by", "p1")
        assert len(graph.query()) == 3
        assert len(graph.query(subject="m1")) == 2
        assert len(graph.query(predicate="directed_by")) == 2
        assert len(graph.query(obj="p1")) == 2
        assert len(graph.query(subject="m1", predicate="directed_by")) == 1
        assert len(graph.query(predicate="directed_by", obj="p1")) == 2
        assert graph.query(subject="m1", predicate="directed_by", obj="p1") == [
            Triple("m1", "directed_by", "p1")
        ]

    def test_objects_and_subjects(self):
        graph = _graph()
        graph.add("m1", "directed_by", "p1")
        assert graph.objects("m1", "directed_by") == ["p1"]
        assert graph.subjects("directed_by", "p1") == ["m1"]

    def test_one_object(self):
        graph = _graph()
        graph.add("m1", "release_year", 1999)
        assert graph.one_object("m1", "release_year") == 1999
        graph.add("m1", "release_year", 2000)
        assert graph.one_object("m1", "release_year") is None

    def test_neighbors_bidirectional(self):
        graph = _graph()
        graph.add("m1", "directed_by", "p1")
        assert ("directed_by", "p1", True) in graph.neighbors("m1")
        assert ("directed_by", "m1", False) in graph.neighbors("p1")

    def test_neighbors_exclude_literals(self):
        graph = _graph()
        graph.add("m1", "release_year", 1999)
        assert graph.neighbors("m1") == []


class TestMerge:
    def test_merge_moves_triples(self):
        graph = _graph()
        graph.add("m2", "directed_by", "p1")
        graph.merge_entities("m1", "m2")
        assert not graph.has_entity("m2")
        assert Triple("m1", "directed_by", "p1") in graph

    def test_merge_rewrites_object_references(self):
        graph = _graph()
        graph.add_entity("p2", "Jane Doe", "Person")
        graph.add("m1", "directed_by", "p2")
        graph.merge_entities("p1", "p2")
        assert Triple("m1", "directed_by", "p1") in graph

    def test_merge_moves_aliases_and_names(self):
        graph = _graph()
        graph.merge_entities("m1", "m2")
        assert "The Silent River" in graph.entity("m1").aliases
        assert graph.find_by_name("the silent river")[0].entity_id == "m1"

    def test_merge_preserves_provenance(self):
        graph = _graph()
        graph.add_triple(
            Triple("m2", "release_year", 1999), provenance=Provenance(source="imdb")
        )
        graph.merge_entities("m1", "m2")
        records = graph.provenance(Triple("m1", "release_year", 1999))
        assert records and records[0].source == "imdb"

    def test_stats(self):
        graph = _graph()
        graph.add("m1", "directed_by", "p1")
        graph.add("m1", "release_year", 1999)
        stats = graph.stats()
        assert stats["n_entities"] == 3
        assert stats["n_triples"] == 2
        assert stats["n_entity_edges"] == 1
        assert stats["n_attribute_triples"] == 1

    def test_copy_is_independent(self):
        graph = _graph()
        graph.add("m1", "release_year", 1999)
        clone = graph.copy()
        clone.add("m1", "directed_by", "p1")
        assert len(graph) == 1
        assert len(clone) == 2

    def test_copy_saves_identical_bytes(self, tmp_path):
        """A copy shares base columns and provenance lists; its snapshot
        file is byte-for-byte the original's, base rows and delta alike."""
        graph = _graph()
        graph.add_triple(Triple("m1", "directed_by", "p1"), provenance=Provenance(source="a"))
        graph.add_triple(Triple("m1", "directed_by", "p1"), provenance=Provenance(source="b"))
        graph._store.compact()
        graph.add_triple(Triple("m2", "release_year", 1999), provenance=Provenance(source="c"))
        graph.add_alias("p1", "J. Doe")
        clone = graph.copy()
        codec.save_graph(clone, str(tmp_path / "clone.rkgs"), include_lineage=False)
        codec.save_graph(graph, str(tmp_path / "graph.rkgs"), include_lineage=False)
        assert (tmp_path / "clone.rkgs").read_bytes() == (tmp_path / "graph.rkgs").read_bytes()

    def test_copy_shares_entities_until_replaced(self):
        """A copy shares entity objects and name-index sets; an alias or a
        merge on either side installs replacements instead of writing them."""
        graph = _graph()
        graph.add_alias("p1", "J. Doe")
        clone = graph.copy()
        assert clone.entity("p1") is graph.entity("p1")
        assert clone._name_index["j. doe"] is graph._name_index["j. doe"]
        graph.add_alias("p1", "Johnny")
        graph.merge_entities("m1", "m2")
        assert sorted(graph.entity("p1").aliases) == ["J. Doe", "Johnny"]
        assert [e.entity_id for e in graph.find_by_name("the silent river")] == ["m1"]
        assert sorted(clone.entity("p1").aliases) == ["J. Doe"]
        assert clone.find_by_name("johnny") == []
        assert [e.entity_id for e in clone.find_by_name("the silent river")] == ["m2"]
        assert clone.entity("m1").aliases == set()
        assert sorted(e.entity_id for e in clone.entities()) == ["m1", "m2", "p1"]

    def test_shared_name_is_copied_once_per_copy(self):
        """A name many entities share is updated in place until a copy
        shares its id set; then it is replaced once and owned again."""
        graph = _graph()  # p1 is a "Jane Doe"
        ids = graph._name_index["jane doe"]
        for i in range(2, 50):
            graph.add_entity(f"p{i}", "Jane Doe", "Person")
        assert graph._name_index["jane doe"] is ids and len(ids) == 49
        clone = graph.copy()
        graph.add_entity("p50", "Jane Doe", "Person")
        replaced = graph._name_index["jane doe"]
        graph.add_alias("p50", "jane DOE")
        assert replaced is not ids and graph._name_index["jane doe"] is replaced
        assert len(graph.find_by_name("Jane Doe")) == 50
        assert len(clone.find_by_name("Jane Doe")) == 49


# ----------------------------------------------------------------------
# property-based index invariant: every query answer agrees with a scan.

_subjects = st.sampled_from(["e0", "e1", "e2"])
_predicates = st.sampled_from(["p", "q"])
_objects = st.sampled_from(["e0", "e1", "v1", "v2", 7])


@given(
    st.lists(st.tuples(_subjects, _predicates, _objects), max_size=25),
    _subjects | st.none(),
    _predicates | st.none(),
    _objects | st.none(),
)
@settings(max_examples=80)
def test_query_matches_full_scan(triples, subject, predicate, obj):
    ontology = Ontology()
    ontology.add_class("Thing")
    graph = KnowledgeGraph(ontology=ontology)
    for entity_id in ("e0", "e1", "e2"):
        graph.add_entity(entity_id, entity_id.upper(), "Thing")
    inserted = set()
    for s, p, o in triples:
        graph.add(s, p, o)
        inserted.add(Triple(s, p, o))
    expected = sorted(
        triple
        for triple in inserted
        if (subject is None or triple.subject == subject)
        and (predicate is None or triple.predicate == predicate)
        and (obj is None or triple.object == obj)
    )
    assert graph.query(subject=subject, predicate=predicate, obj=obj) == expected
