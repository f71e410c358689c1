"""Persistence through the package-level names: ``repro.core.save_graph`` /
``load_graph`` are the ``.rkgs`` codec's (the JSONL pair they used to be is
gone), so the same behaviours are checked through the same import path."""

import os

import pytest

from repro.core import load_graph, save_graph
from repro.core.codec import CodecError, TripleWAL
from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.triple import Provenance, Triple


def _graph():
    ontology = Ontology()
    ontology.add_class("Person")
    ontology.add_class("Movie")
    ontology.add_relation("directed_by", "Movie", "Person", functional=True)
    ontology.add_relation("release_year", "Movie", "number")
    graph = KnowledgeGraph(ontology=ontology, name="demo")
    graph.add_entity("m1", "Silent River", "Movie", aliases={"The Silent River"})
    graph.add_entity("p1", "Jane Doe", "Person")
    graph.add_triple(
        Triple("m1", "directed_by", "p1"),
        provenance=Provenance(source="imdb", extractor="infobox", confidence=0.95),
    )
    graph.add_triple(Triple("m1", "release_year", 1999))
    return graph


class TestGraphRoundtrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        graph = _graph()
        path = str(tmp_path / "kg.rkgs")
        n_bytes = save_graph(graph, path)
        assert n_bytes == os.path.getsize(path)
        loaded = load_graph(path)
        assert loaded.name == "demo"
        assert loaded.stats() == graph.stats()
        assert list(loaded.triples()) == list(graph.triples())
        assert loaded.entity("m1").aliases == {"The Silent River"}
        provenance = loaded.provenance(Triple("m1", "directed_by", "p1"))
        assert provenance[0].source == "imdb"
        assert provenance[0].confidence == 0.95

    def test_ontology_roundtrip(self, tmp_path):
        graph = _graph()
        path = str(tmp_path / "kg.rkgs")
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded.ontology.relation("directed_by").functional
        assert loaded.ontology.has_class("Person")

    def test_numeric_objects_survive(self, tmp_path):
        graph = _graph()
        path = str(tmp_path / "kg.rkgs")
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded.one_object("m1", "release_year") == 1999
        assert isinstance(loaded.one_object("m1", "release_year"), int)

    def test_wrong_kind_rejected(self, tmp_path):
        """A WAL segment is the codec's other file kind, not a snapshot."""
        graph = _graph()
        graph.attach_wal(TripleWAL(str(tmp_path / "wal")))
        graph.add_triple(Triple("m1", "release_year", 2001))
        segment = sorted(
            name for name in os.listdir(tmp_path / "wal") if name.endswith(".log")
        )[0]
        with pytest.raises(CodecError):
            load_graph(str(tmp_path / "wal" / segment))

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.rkgs"
        path.write_text("not json\n")
        with pytest.raises(CodecError):
            load_graph(str(path))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.rkgs"
        path.write_text("")
        with pytest.raises(CodecError):
            load_graph(str(path))

    def test_world_scale_roundtrip(self, tmp_path, small_world):
        path = str(tmp_path / "world.rkgs")
        save_graph(small_world.truth, path)
        loaded = load_graph(path)
        assert loaded.stats() == small_world.truth.stats()
