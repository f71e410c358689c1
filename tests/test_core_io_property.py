"""Property-based serialization tests: random graphs round-trip exactly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import KnowledgeGraph
from repro.core import load_graph, save_graph
from repro.core.ontology import Ontology

_entity_ids = st.sampled_from(["e0", "e1", "e2", "e3"])
_predicates = st.sampled_from(["p", "q", "r"])
_objects = st.one_of(
    _entity_ids,
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x17F),
        min_size=1,
        max_size=8,
    ),
    st.integers(-1000, 3000),
)


@given(
    st.lists(st.tuples(_entity_ids, _predicates, _objects), max_size=30),
    st.lists(st.sampled_from(["Alias One", "alias-two", "ALIAS"]), max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_random_graph_roundtrip(tmp_path_factory, triples, aliases):
    ontology = Ontology()
    ontology.add_class("Thing")
    graph = KnowledgeGraph(ontology=ontology, name="prop")
    for entity_id in ("e0", "e1", "e2", "e3"):
        graph.add_entity(entity_id, entity_id.upper(), "Thing", aliases=aliases)
    for subject, predicate, obj in triples:
        graph.add(subject, predicate, obj)
    path = str(tmp_path_factory.mktemp("io") / "graph.rkgs")
    save_graph(graph, path)
    loaded = load_graph(path)
    assert list(loaded.triples()) == list(graph.triples())
    assert loaded.stats() == graph.stats()
    for entity_id in ("e0", "e1", "e2", "e3"):
        assert loaded.entity(entity_id).aliases == graph.entity(entity_id).aliases


def test_results_dir_persistence(tmp_path, monkeypatch):
    """ResultTable.show() writes a file when REPRO_RESULTS_DIR is set."""
    from repro.evalx.tables import ResultTable

    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    table = ResultTable(title="A Tiny Table!", columns=["x"])
    table.add_row(1)
    table.show()
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    assert "a_tiny_table" in files[0].name
    assert "A Tiny Table" in files[0].read_text()


def test_no_results_dir_no_file(tmp_path, monkeypatch, capsys):
    from repro.evalx.tables import ResultTable

    monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
    table = ResultTable(title="T", columns=["x"])
    table.add_row(1)
    table.show()
    assert "== T ==" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
