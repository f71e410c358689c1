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
from repro.obs import enabled_scope
from repro.obs.lineage import get_ledger
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
        triple = rows[step[1] % len(rows)]
        assert graph.add_triple(triple, provenance=step[2]) == model.add(triple, step[2])
    elif kind == "remove" and rows:
        triple = rows[step[1] % len(rows)]
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


#: One batch: its items, records the first item's triple gets again within
#: the batch, and where (if anywhere) an item with an unknown subject
#: makes it raise.
_parity_batches = st.lists(
    st.tuples(
        st.lists(
            st.tuples(_entity_ids, st.sampled_from(["p", "q"]), _mixed_objects, _provenances),
            max_size=12,
        ),
        st.lists(_records, max_size=3),
        st.one_of(st.none(), st.integers(0, 12)),
    ),
    min_size=1,
    max_size=5,
)


def _ledger():
    ledger = get_ledger()
    return ledger._sequence, {
        key: [event.to_dict() for event in events] for key, events in ledger._events.items()
    }


@given(batches=_parity_batches, pad=st.booleans())
@settings(max_examples=60, deadline=None)
def test_recovery_parity(tmp_path_factory, batches, pad):
    """Batches logged through the graph API recover byte for byte:
    ``save(recover())`` equals ``save(writer)``, and with lineage on the
    recovery records the writer's ledger events.  The batches hold
    typed-equal terms (0 / 0.0 / False / -0.0, 1 / 1.0 / True) and
    ``None`` extractors, repeat a triple with several records, land on a
    non-empty graph, and may raise mid-way on an unknown subject (the
    rows before it stay logged).  ``pad`` adds a long point write after
    each batch, so batches also land in fresh segments whose term tables
    start empty."""
    tmp = tmp_path_factory.mktemp("parity")
    wal_dir = str(tmp / "wal")
    with enabled_scope():
        ontology = Ontology()
        ontology.add_class("Thing")
        graph = KnowledgeGraph(ontology=ontology, name="wal")
        wal = TripleWAL(wal_dir, segment_bytes=4096)
        graph.attach_wal(wal)
        for entity_id in _ENTITY_IDS:
            graph.add_entity(entity_id, entity_id.upper(), "Thing")
        for index, (items, again, fail_at) in enumerate(batches):
            batch = [(Triple(s, p, o), prov) for s, p, o, prov in items]
            if batch:
                batch.extend((batch[0][0], record) for record in again)
            if fail_at is not None:
                batch.insert(min(fail_at, len(batch)), Triple("nobody", "p", 1))
            try:
                graph.add_triples_batch(batch)
            except ValueError:
                assert fail_at is not None
            if pad:
                graph.add_triple(Triple("e0", f"pad-{index}-{'x' * 1500}", index))
        wal.close()
        written = _ledger()
        get_ledger().reset()
        recovered = TripleWAL(wal_dir).recover()
        replayed = _ledger()
    assert replayed == written
    assert public_state(recovered) == public_state(graph)
    blobs = []
    for name, kg in (("writer", graph), ("recovered", recovered)):
        path = str(tmp / f"{name}.rkgs")
        codec.save_graph(kg, path, include_lineage=False)
        with open(path, "rb") as handle:
            blobs.append(handle.read())
    assert blobs[0] == blobs[1]


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
    """``(segment index, frame start, frame end)`` of each record, as the
    writer lays them out in 4096-byte segments: a 16-byte segment header,
    then per record an 8-byte frame head, its 9-byte sequence number and
    kind, and its JSON."""
    layout, segment, offset = [], 0, 16
    for record in records:
        start = offset
        offset += 8 + 9 + len(json.dumps(record, sort_keys=True).encode("utf-8"))
        layout.append((segment, start, offset))
        if offset >= 4096:  # the writer rotates after this record
            segment, offset = segment + 1, 16
    return layout


def _replayed(records):
    graph = KnowledgeGraph(ontology=Ontology(), name="wal")
    codec.apply_wal_records(graph, records)
    return public_state(graph)


@given(
    items=st.lists(
        st.tuples(_entity_ids, _predicates, _objects, _provenances), min_size=20, max_size=40
    ),
    kind=st.sampled_from(["truncate", "delete", "flip", "drop_frame", "drop_segment"]),
    segment=st.floats(min_value=0.0, max_value=0.999),
    position=st.floats(min_value=0.0, max_value=0.999),
    flip=st.integers(min_value=1, max_value=255),
)
@settings(max_examples=80, deadline=None)
def test_truncated_wal_tail_keeps_prefix(
    tmp_path_factory, items, kind, segment, position, flip
):
    """Damage a multi-segment log: truncate the last segment at a byte (a
    crash mid-append), delete or flip one byte in any segment, remove one
    whole record, or remove one whole segment.  ``allow_partial``
    recovery is exactly the records before the damage; strict recovery is
    that too or raises."""
    wal_dir = str(tmp_path_factory.mktemp("wal"))
    wal = TripleWAL(wal_dir, segment_bytes=4096)
    records = _logged_records(items)
    for record in records:
        wal.append(record)
    wal.close()
    segments = wal.segment_paths()
    layout = _frame_layout(records)
    # The writer may have rotated after the last record: one more, empty.
    assert len(segments) - layout[-1][0] in (1, 2) and len(segments) > 1
    if kind == "drop_frame":
        # One whole record, anywhere — the last of a non-final segment too.
        k = int(len(records) * position)
        target, start, end = layout[k]
        with open(segments[target], "rb") as handle:
            blob = handle.read()
        with open(segments[target], "wb") as handle:
            handle.write(blob[:start] + blob[end:])
    elif kind == "drop_segment":
        target = int(len(segments) * segment)
        os.remove(segments[target])
        k = sum(seg < target for seg, _, _ in layout)
    else:
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
        # The records whose frames end before the damaged byte.  Bytes 6-7
        # are the header's reserved flags: a flip there damages nothing.
        k = sum(seg < target or (seg == target and end <= at) for seg, _, end in layout)
        if kind == "flip" and 6 <= at < 8:
            k = len(records)
    # Only a cut at the very end of the log can pass for a clean one.
    last = target == len(segments) - 1
    clean_end = (
        kind == "truncate"
        or (kind == "drop_segment" and last)
        or (kind == "drop_frame" and last and k == len(records) - 1)
    )

    expected = _replayed(records[:k])
    reopened = TripleWAL(wal_dir, segment_bytes=4096)
    try:
        strict = public_state(reopened.recover())
    except CodecError:
        assert not clean_end  # a torn tail is the crash case, never an error
    else:
        assert strict == expected
    assert public_state(reopened.recover(allow_partial=True)) == expected
    reopened.close()


def _log_items(wal, items):
    """``_logged_records(items)``, then the items once more as one batch."""
    for record in _logged_records(items):
        wal.append(record)
    if items:
        wal.append_batch([(Triple("e0", p, o), prov) for _s, p, o, prov in items])


@given(items=_items, cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8))
@settings(max_examples=30, deadline=None)
def test_split_reads_equal_one_whole_read(tmp_path_factory, items, cuts):
    """Reading a growing segment at whatever offsets (and sequence
    numbers) the previous reads returned yields exactly one whole read's
    records."""
    tmp = tmp_path_factory.mktemp("wal")
    wal = TripleWAL(str(tmp / "wal"))
    _log_items(wal, items)
    wal.close()
    (segment,) = wal.segment_paths()
    with open(segment, "rb") as handle:
        blob = handle.read()
    whole = codec.read_segment_records(segment)
    assert whole.end == len(blob)
    growing = str(tmp / "growing.log")
    records, offset, seq = [], 0, None
    for cut in sorted(cuts) + [1.0]:
        with open(growing, "wb") as handle:
            handle.write(blob[: int(len(blob) * cut)])
        read = codec.read_segment_records(growing, offset, seq)
        records.extend(read.records)
        offset, seq = read.end, read.seq
    assert records == whole.records and offset == len(blob)
