"""Property-based tests for the binary snapshot codec and the WAL.

Random graphs — arbitrary term types, unicode strings, float/int/bool
objects, random provenance — must round-trip byte-exactly through the
snapshot format and replay exactly through the WAL, and the loaded graph
must answer every read as the set-of-rows model in ``tests/oracles.py``.
Random corruption (truncation at any byte, any single flipped byte) must
never produce a wrong graph: it either raises :class:`CodecError` or, for
byte flips that only touch a not-yet-read section, is caught by that
section's checksum when it is read.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec
from repro.core.codec import CodecError, TripleWAL
from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.triple import Provenance, Triple
from tests.oracles import SetGraph, assert_graph_matches, public_state

_ENTITY_IDS = ["e0", "e1", "e2", "e3"]

_entity_ids = st.sampled_from(_ENTITY_IDS)
_predicates = st.sampled_from(["p", "q", "rel-r", "label"])
_objects = st.one_of(
    _entity_ids,
    st.text(min_size=1, max_size=12),  # full unicode (empty strings are not valid objects)
    st.integers(-(10**25), 10**25),  # exercises the bigint term tag
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
)
_provenances = st.one_of(
    st.none(),
    st.builds(
        Provenance,
        source=st.sampled_from(["web", "kb", "extract"]),
        extractor=st.one_of(st.none(), st.sampled_from(["ex1", "ex2"])),
        confidence=st.floats(min_value=0.0, max_value=1.0, width=32).map(float),
    ),
)
_items = st.lists(
    st.tuples(_entity_ids, _predicates, _objects, _provenances), max_size=40
)


def _build(items):
    ontology = Ontology()
    ontology.add_class("Thing")
    graph = KnowledgeGraph(ontology=ontology, name="prop")
    for entity_id in _ENTITY_IDS:
        graph.add_entity(entity_id, entity_id.upper(), "Thing")
    graph.add_triples_batch(
        (Triple(s, p, o), prov) for s, p, o, prov in items
    )
    return graph


def _model(items):
    model = SetGraph()
    for entity_id in _ENTITY_IDS:
        model.add_entity(entity_id, entity_id.upper())
    model.add_batch((Triple(s, p, o), prov) for s, p, o, prov in items)
    return model


@given(items=_items)
@settings(max_examples=50, deadline=None)
def test_snapshot_roundtrip(tmp_path_factory, items):
    graph = _build(items)
    path = str(tmp_path_factory.mktemp("codec") / "graph.rkgs")
    codec.save_graph(graph, path, include_lineage=False)
    loaded = codec.load_graph(path)
    assert public_state(loaded) == public_state(graph)
    assert_graph_matches(loaded, _model(items))


@given(items=_items)
@settings(max_examples=30, deadline=None)
def test_wal_replay_roundtrip(tmp_path_factory, items):
    wal_dir = str(tmp_path_factory.mktemp("wal"))
    wal = TripleWAL(wal_dir, segment_bytes=4096)
    ontology = Ontology()
    ontology.add_class("Thing")
    graph = KnowledgeGraph(ontology=ontology, name="prop")
    for entity_id in _ENTITY_IDS:
        graph.add_entity(entity_id, entity_id.upper(), "Thing")
        wal.append(
            {
                "op": "entity",
                "id": entity_id,
                "name": entity_id.upper(),
                "class": "Thing",
                "aliases": [],
            }
        )
    graph.attach_wal(wal)
    graph.add_triples_batch((Triple(s, p, o), prov) for s, p, o, prov in items)
    # A few per-call mutations so add/remove records interleave the batch.
    if items:
        s, p, o, _prov = items[0]
        graph.remove_triple(Triple(s, p, o))
        graph.add_triple(Triple(s, "readd", o))
    wal.close()
    recovered = TripleWAL(wal_dir).recover()
    assert public_state(recovered) == public_state(graph)


@given(
    items=_items,
    cut=st.floats(min_value=0.0, max_value=0.999),
)
@settings(max_examples=30, deadline=None)
def test_truncated_snapshot_never_loads_wrong(tmp_path_factory, items, cut):
    graph = _build(items)
    path = str(tmp_path_factory.mktemp("codec") / "graph.rkgs")
    codec.save_graph(graph, path, include_lineage=False)
    size = os.path.getsize(path)
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(blob[: int(size * cut)])
    with pytest.raises(CodecError):
        codec.load_graph(path)


@given(
    items=_items,
    position=st.floats(min_value=0.0, max_value=0.999),
    flip=st.integers(min_value=1, max_value=255),
)
@settings(max_examples=50, deadline=None)
def test_flipped_byte_never_loads_wrong(tmp_path_factory, items, position, flip):
    graph = _build(items)
    path = str(tmp_path_factory.mktemp("codec") / "graph.rkgs")
    codec.save_graph(graph, path, include_lineage=False)
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    index = int(len(blob) * position)
    blob[index] ^= flip
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    try:
        loaded = codec.load_graph(path)
    except CodecError:
        return  # rejected at load: the expected outcome
    # A flip inside the (lazily thawed) provenance payload surfaces when
    # provenance is first read; everything else was checksum-verified, so
    # the loaded triples must already be correct.
    try:
        assert public_state(loaded)["triples"] == public_state(graph)["triples"]
    except CodecError:
        return


@given(items=_items, cut_bytes=st.integers(min_value=1, max_value=64))
@settings(max_examples=25, deadline=None)
def test_truncated_wal_tail_keeps_prefix(tmp_path_factory, items, cut_bytes):
    wal_dir = str(tmp_path_factory.mktemp("wal"))
    wal = TripleWAL(wal_dir)
    wal.append(
        {"op": "entity", "id": "e0", "name": "E0", "class": "Thing", "aliases": []}
    )
    for s, p, o, _prov in items:
        wal.append({"op": "add", "s": "e0", "p": p, "o": o})
    wal.close()
    last = wal.segment_paths()[-1]
    size = os.path.getsize(last)
    with open(last, "rb") as handle:
        blob = handle.read()
    with open(last, "wb") as handle:
        handle.write(blob[: max(8, size - cut_bytes)])
    # Truncation of the final segment is the crash-mid-append case: the
    # surviving prefix replays — never an error, never garbage rows.  The
    # cut may even swallow the entity record, leaving an empty graph.
    recovered = TripleWAL(wal_dir).recover()
    assert len(recovered) <= len(items)
    for triple in recovered.query():
        assert triple.subject == "e0"
        assert recovered.has_entity("e0")
