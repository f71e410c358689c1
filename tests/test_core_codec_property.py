"""Property-based tests for the binary snapshot codec and the WAL.

Random graphs — arbitrary term types, unicode strings, float/int/bool
objects, random provenance — must round-trip byte-exactly through the
snapshot format and replay exactly through the WAL, and the loaded graph
must answer every read as the set-of-rows model in ``tests/oracles.py``.
Random snapshot corruption (truncation at any byte, any single flipped
byte) must never produce a wrong graph: the load raises
:class:`CodecError`, or the graph it returns equals the saved one.
Save → load → mutate cycles keep provenance equal to the model's across
the base columns and the delta.  A damaged WAL replays to a prefix of
its records, never to a log with a gap.
"""

import json
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


_records = st.builds(
    Provenance,
    source=st.sampled_from(["web", "kb"]),
    extractor=st.one_of(st.none(), st.just("ex1")),
    confidence=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)
#: Equal-valued terms of different types, and entity ids.
_mixed_objects = st.sampled_from([0, 0.0, False, -0.0, 1, 1.0, True, "x", "e1"])
_steps = st.one_of(
    st.tuples(
        st.just("add"),
        st.integers(0, 9),
        _predicates,
        _mixed_objects,
        st.one_of(st.none(), _records),
    ),
    st.tuples(st.just("again"), st.integers(0, 99), _records),
    st.tuples(st.just("remove"), st.integers(0, 99)),
    st.tuples(st.just("readd"), st.integers(0, 99), st.one_of(st.none(), _records)),
    st.tuples(st.just("merge"), st.integers(0, 9), st.integers(0, 9)),
)


def _apply_step(graph, model, step, removed):
    """One mutation of both; ``again`` adds provenance to a present row
    (after a load, a base row), ``readd`` brings a removed row back."""
    kind, ids = step[0], sorted(model.entities)
    rows = sorted(model.rows, key=repr)
    if kind == "add":
        _, pick, predicate, obj, record = step
        triple = Triple(ids[pick % len(ids)], predicate, obj)
        assert graph.add_triple(triple, provenance=record) == model.add(triple, record)
    elif kind == "again" and rows:
        triple = Triple(*rows[step[1] % len(rows)])
        assert graph.add_triple(triple, provenance=step[2]) == model.add(triple, step[2])
    elif kind == "remove" and rows:
        triple = Triple(*rows[step[1] % len(rows)])
        assert graph.remove_triple(triple) == model.remove(triple)
        removed.append(triple)
    elif kind == "readd" and removed:
        triple = removed[step[1] % len(removed)]
        if triple.subject in model.entities:
            items = [(triple, step[2])]
            assert graph.add_triples_batch(items) == model.add_batch(items)
    elif kind == "merge":
        keep, drop = ids[step[1] % len(ids)], ids[step[2] % len(ids)]
        if keep != drop:
            assert graph.merge_entities(keep, drop) == model.merge(keep, drop)


@given(items=_items, rounds=st.lists(st.lists(_steps, max_size=12), max_size=3))
@settings(max_examples=40, deadline=None)
def test_save_load_mutate_cycle(tmp_path_factory, items, rounds):
    """save -> load -> mutate, repeated: every load's provenance is the
    model's, whether it came from the base columns or the delta."""
    graph, model, removed = _build(items), _model(items), []
    path = str(tmp_path_factory.mktemp("cycle") / "graph.rkgs")
    for steps in rounds + [[]]:
        codec.save_graph(graph, path, include_lineage=False)
        graph = codec.load_graph(path)
        assert graph.provenance() == model.state()["provenance"]
        assert_graph_matches(graph, model)
        for step in steps:
            _apply_step(graph, model, step, removed)


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
    # Every section, provenance included, was checksum-verified and
    # decoded at load, so a graph that loaded is the right one.
    assert public_state(loaded) == public_state(graph)


def _logged_records(items):
    """One entity, then one padded ``add`` per item: 20+ items span several
    4096-byte segments."""
    records = [
        {"op": "entity", "id": "e0", "name": "E0", "class": "Thing", "aliases": []}
    ]
    for index, (_s, p, o, prov) in enumerate(items):
        record = {"op": "add", "s": "e0", "p": f"{p}-{index:03d}-{'x' * 200}", "o": o}
        if prov is not None:
            record["prov"] = [prov.source, prov.extractor, prov.confidence]
        records.append(record)
    return records


def _frame_layout(records):
    """``(segment index, frame end)`` of each record, as the writer lays
    them out in 4096-byte segments."""
    layout, segment, offset = [], 0, 8
    for record in records:
        offset += 8 + len(json.dumps(record, sort_keys=True).encode("utf-8"))
        layout.append((segment, offset))
        if offset >= 4096:  # the writer rotates after this record
            segment, offset = segment + 1, 8
    return layout


def _replayed(records):
    graph = KnowledgeGraph(ontology=Ontology(), name="wal")
    codec.apply_wal_records(graph, records)
    return public_state(graph)


@given(
    items=st.lists(
        st.tuples(_entity_ids, _predicates, _objects, _provenances), min_size=20, max_size=40
    ),
    kind=st.sampled_from(["truncate", "delete", "flip"]),
    segment=st.floats(min_value=0.0, max_value=0.999),
    position=st.floats(min_value=0.0, max_value=0.999),
    flip=st.integers(min_value=1, max_value=255),
)
@settings(max_examples=60, deadline=None)
def test_truncated_wal_tail_keeps_prefix(
    tmp_path_factory, items, kind, segment, position, flip
):
    """Damage one byte of a multi-segment log — truncate the last segment
    there (a crash mid-append), delete it, or flip it, in any segment.
    ``allow_partial`` recovery is exactly the first k intact records;
    strict recovery is that too or raises."""
    wal_dir = str(tmp_path_factory.mktemp("wal"))
    wal = TripleWAL(wal_dir, segment_bytes=4096)
    records = _logged_records(items)
    for record in records:
        wal.append(record)
    wal.close()
    segments = wal.segment_paths()
    assert len(segments) > 1
    target = len(segments) - 1 if kind == "truncate" else int(len(segments) * segment)
    path = segments[target]
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    at = int(len(blob) * position)
    if kind == "truncate":
        del blob[at:]
    elif kind == "delete":
        del blob[at]
    else:
        blob[at] ^= flip
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    # The records whose frames end before the damaged byte.  Bytes 6-7 are
    # the header's reserved flags: a flip there damages nothing.
    k = sum(seg < target or (seg == target and end <= at) for seg, end in _frame_layout(records))
    if kind == "flip" and 6 <= at < 8:
        k = len(records)

    expected = _replayed(records[:k])
    reopened = TripleWAL(wal_dir, segment_bytes=4096)
    try:
        strict = public_state(reopened.recover())
    except CodecError:
        assert kind != "truncate"  # a torn tail is the crash case, never an error
    else:
        assert strict == expected
    assert public_state(reopened.recover(allow_partial=True)) == expected
    reopened.close()


@given(items=_items, cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8))
@settings(max_examples=30, deadline=None)
def test_split_reads_equal_one_whole_read(tmp_path_factory, items, cuts):
    """Reading a growing segment at whatever offsets the previous reads
    returned yields exactly one whole read's records."""
    tmp = tmp_path_factory.mktemp("wal")
    wal = TripleWAL(str(tmp / "wal"))
    for record in _logged_records(items):
        wal.append(record)
    wal.close()
    (segment,) = wal.segment_paths()
    with open(segment, "rb") as handle:
        blob = handle.read()
    whole, end = codec.read_segment_records(segment)
    assert end == len(blob)
    growing = str(tmp / "growing.log")
    records, offset = [], 0
    for cut in sorted(cuts) + [1.0]:
        with open(growing, "wb") as handle:
            handle.write(blob[: int(len(blob) * cut)])
        more, offset = codec.read_segment_records(growing, offset)
        records.extend(more)
    assert records == whole and offset == len(blob)
