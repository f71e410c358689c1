"""Unit tests for binary snapshots and the append-only WAL."""

import json
import math
import os
import struct
import zlib

import pytest

from repro.core import codec
from repro.core.codec import CodecError, TripleWAL
from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.triple import Provenance, Triple
from repro.obs import enabled_scope, get_registry
from repro.obs.lineage import get_ledger
from tests.oracles import SetGraph, assert_graph_matches, public_state

TYPED_TERMS_FIXTURE = os.path.join(
    os.path.dirname(__file__), "data", "typed_terms_v1.rkgs"
)
V2_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "graph_v2.rkgs")

_SAMPLE_ENTITIES = (
    ("p1", "Ada", "Person", ["A. Lovelace"]),
    ("p2", "Alan", "Person", []),
    ("t1", "Thing One", "Thing", []),
)
_SAMPLE_TRIPLES = (
    (Triple("p1", "knows", "p2"), Provenance(source="web", extractor="ex1", confidence=0.9)),
    (Triple("p1", "born", 1815), None),
    (Triple("p2", "score", 0.75), None),
    (Triple("t1", "flag", True), None),
    (Triple("p2", "knows", "p1"), Provenance(source="kb", extractor=None, confidence=0.5)),
)


def _sample_graph():
    ontology = Ontology(name="sample")
    ontology.add_class("Thing")
    ontology.add_class("Person", "Thing")
    ontology.add_relation("knows", "Person", "Person")
    graph = KnowledgeGraph(ontology=ontology, name="sample")
    for entity_id, name, entity_class, aliases in _SAMPLE_ENTITIES:
        graph.add_entity(entity_id, name, entity_class, aliases=aliases)
    for triple, provenance in _SAMPLE_TRIPLES:
        graph.add_triple(triple, provenance=provenance)
    return graph


def _sample_model():
    model = SetGraph()
    for entity_id, name, _, aliases in _SAMPLE_ENTITIES:
        model.add_entity(entity_id, name, aliases)
    model.add_batch(_SAMPLE_TRIPLES)
    return model


def _triples(graph):
    return sorted(graph.query())


def _provenance_map(graph):
    return {
        triple: [(p.source, p.extractor, p.confidence) for p in records]
        for triple, records in graph.provenance().items()
    }


class TestSnapshotRoundTrip:
    def test_state_survives_round_trip(self, tmp_path):
        graph = _sample_graph()
        path = str(tmp_path / "g.rkgs")
        n_bytes = codec.save_graph(graph, path, include_lineage=False)
        assert n_bytes == os.path.getsize(path)
        loaded = codec.load_graph(path)
        assert loaded.name == "sample"
        assert_graph_matches(loaded, _sample_model())
        assert _triples(loaded) == _triples(graph)
        assert _provenance_map(loaded) == _provenance_map(graph)
        assert sorted(e.entity_id for e in loaded.entities()) == ["p1", "p2", "t1"]
        assert loaded.entity("p1").aliases == {"A. Lovelace"}
        assert loaded.ontology.parent("Person") == "Thing"
        assert [e.entity_id for e in loaded.find_by_name("A. Lovelace")] == ["p1"]

    def test_load_builds_no_provenance_objects(self, tmp_path):
        graph = _sample_graph()
        path = str(tmp_path / "g.rkgs")
        codec.save_graph(graph, path)
        loaded = codec.load_graph(path)
        assert not loaded._provenance  # the delta is empty after a load
        assert len(loaded._provenance_base) == len(graph.provenance())
        records = loaded.provenance(Triple("p1", "knows", "p2"))
        assert records == [Provenance(source="web", extractor="ex1", confidence=0.9)]
        assert not loaded._provenance  # answered from the columns

    def test_loaded_graph_resaves_identically(self, tmp_path):
        graph = _sample_graph()
        first = str(tmp_path / "a.rkgs")
        second = str(tmp_path / "b.rkgs")
        codec.save_graph(graph, first, include_lineage=False)
        codec.save_graph(codec.load_graph(first), second, include_lineage=False)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()

    def test_empty_graph_round_trip(self, tmp_path):
        ontology = Ontology()
        ontology.add_class("Thing")
        graph = KnowledgeGraph(ontology=ontology)
        path = str(tmp_path / "empty.rkgs")
        codec.save_graph(graph, path)
        loaded = codec.load_graph(path)
        assert len(loaded) == 0
        assert list(loaded.entities()) == []

    def test_path_objects_are_accepted(self, tmp_path):
        path = tmp_path / "g.rkgs"
        n_bytes = codec.save_graph(_sample_graph(), path, include_lineage=False)
        assert n_bytes == path.stat().st_size
        assert not (tmp_path / "g.rkgs.tmp").exists()
        assert _triples(codec.load_graph(path)) == _triples(_sample_graph())

    def test_lineage_section_round_trip(self, tmp_path):
        path = str(tmp_path / "g.rkgs")
        with enabled_scope():
            graph = _sample_graph()
            codec.save_graph(graph, path, include_lineage=True)
            saved_events = dict(get_ledger()._events)
            assert saved_events
        with enabled_scope():
            codec.load_graph(path, restore_lineage=True)
            restored = get_ledger()._events
            assert set(restored) == set(saved_events)


class TestOneOnDiskFormat:
    """``.rkgs`` is the only format; the JSONL codec stays gone."""

    def test_jsonl_module_is_gone(self):
        with pytest.raises(ImportError):
            import repro.core.io  # noqa: F401

    def test_package_exports_are_the_codec(self):
        import repro.core

        assert repro.core.save_graph is codec.save_graph
        assert repro.core.load_graph is codec.load_graph
        assert not hasattr(repro.core, "save_text_rich")
        assert not hasattr(repro.core, "load_text_rich")


class TestMmapLoad:
    """Snapshot loads map the file and slice columns zero-copy."""

    def test_mmap_path_counts_and_matches(self, tmp_path):
        from repro.obs import get_registry

        graph = _sample_graph()
        file_path = str(tmp_path / "g.rkgs")
        codec.save_graph(graph, file_path, include_lineage=False)
        with enabled_scope():
            loaded = codec.load_graph(file_path)
            counters = get_registry().snapshot()["counters"]
        assert counters.get("store.snapshot.loads") == 1.0
        assert counters.get("store.snapshot.mmap_loads") == 1.0
        assert _triples(loaded) == _triples(graph)
        assert _provenance_map(loaded) == _provenance_map(graph)

    def test_read_fallback_matches_mmap(self, tmp_path, monkeypatch):
        """With mmap unavailable the plain-read path loads identically."""
        import mmap as mmap_module

        graph = _sample_graph()
        file_path = str(tmp_path / "g.rkgs")
        codec.save_graph(graph, file_path, include_lineage=False)
        mapped = codec.load_graph(file_path)

        def refuse(*_args, **_kwargs):
            raise OSError("mmap unavailable")

        monkeypatch.setattr(mmap_module, "mmap", refuse)
        with enabled_scope():
            from repro.obs import get_registry

            fallback = codec.load_graph(file_path)
            counters = get_registry().snapshot()["counters"]
        assert "store.snapshot.mmap_loads" not in counters
        assert counters.get("store.snapshot.loads") == 1.0
        assert _triples(fallback) == _triples(mapped)
        assert _provenance_map(fallback) == _provenance_map(mapped)

    def test_file_handle_released_after_load(self, tmp_path):
        """The mapping is closed on load; the file can be replaced in place."""
        graph = _sample_graph()
        file_path = str(tmp_path / "g.rkgs")
        codec.save_graph(graph, file_path, include_lineage=False)
        loaded = codec.load_graph(file_path)
        os.remove(file_path)  # would fail on Windows with a live handle
        codec.save_graph(loaded, file_path, include_lineage=False)
        assert _triples(codec.load_graph(file_path)) == _triples(graph)


def _format_fixture_graph():
    """The graph ``tests/data/graph_v2.rkgs`` holds, built in memory: a
    snapshot v2 file of ``str``, ``int``, non-integral ``float`` and
    ``bool`` objects with multi-record provenance."""
    ontology = Ontology()
    ontology.add_class("Thing")
    ontology.add_class("Person", "Thing")
    graph = KnowledgeGraph(ontology=ontology, name="format-v2")
    graph.add_entity("e1", "Ada Lovelace", "Person", aliases=["Ada"])
    graph.add_entity("e2", "Charles Babbage", "Person")
    graph.add_entity("e3", "Analytical Engine", "Thing")
    s1, s2 = Provenance("s1", confidence=0.9), Provenance("s2", "infobox", 0.7)
    graph.add_triples_batch(
        [
            (Triple("e1", "knows", "e2"), s1),
            (Triple("e1", "knows", "e2"), s2),
            (Triple("e1", "born", 1815), s1),
            (Triple("e1", "height_m", 1.65), s2),
            Triple("e2", "born", 1791),
            Triple("e2", "alive", False),
        ]
    )
    graph.add_triple(Triple("e3", "designed_by", "e2"), Provenance("s3", "wrapper", 0.5))
    graph.add_triple(Triple("e3", "designed_by", "e2"), s1)
    graph.add_triple(Triple("e3", "operational", True))
    graph.add_triple(Triple("e3", "weight_t", 2.5), s2)
    return graph


def _resave_twice(graph, tmp_path, tag):
    """Save ``graph``, load it and save it again; the first file's bytes,
    asserted equal to the second's."""
    first = str(tmp_path / f"{tag}-first.rkgs")
    second = str(tmp_path / f"{tag}-second.rkgs")
    codec.save_graph(graph, first, include_lineage=False)
    codec.save_graph(codec.load_graph(first), second, include_lineage=False)
    with open(first, "rb") as a, open(second, "rb") as b:
        blob = a.read()
        assert blob == b.read()
    return blob


class TestTypedTermRoundTrip:
    """Numerically equal terms of different types, through a snapshot.

    A term is its type plus its value: ``0``, ``0.0`` and ``False`` are
    three terms, and every read returns each as it was added.  Files
    written before the dict/set storage was retired kept one term id per
    typed value too (``tests/data/typed_terms_v1.rkgs`` is one), so they
    load exactly as written."""

    _MIXED = (
        Triple("e1", "p", 0),
        Triple("e2", "p", 0.0),
        Triple("e3", "p", False),
        Triple("e4", "p", True),
        Triple("e5", "p", 1),
    )

    def _mixed_pair(self):
        ontology = Ontology()
        ontology.add_class("Thing")
        graph, model = KnowledgeGraph(ontology=ontology, name="mixed"), SetGraph()
        for entity_id in ("e1", "e2", "e3", "e4", "e5"):
            graph.add_entity(entity_id, entity_id.upper(), "Thing")
            model.add_entity(entity_id, entity_id.upper())
        for triple in self._MIXED:
            graph.add_triple(triple)
            model.add(triple)
        return graph, model

    def test_typed_terms_stay_distinct(self, tmp_path):
        graph, model = self._mixed_pair()
        file_path = str(tmp_path / "mixed.rkgs")
        codec.save_graph(graph, file_path, include_lineage=False)
        loaded = codec.load_graph(file_path)
        for candidate in (graph, loaded):
            assert_graph_matches(candidate, model)
            assert [(t.subject, t.object, type(t.object)) for t in candidate.query()] == [
                ("e1", 0, int),
                ("e2", 0.0, float),
                ("e3", False, bool),
                ("e4", True, bool),
                ("e5", 1, int),
            ]
            assert candidate.subjects("p", 0) == ["e1"]
            assert candidate.subjects("p", 1.0) == []
            assert candidate.stats()["n_id_terms"] == 11

    def test_legacy_typed_terms_load_consistently(self):
        """The committed file holds (e1,p,0), (e2,p,0.0), (e3,p,False)
        under three term ids, and every read path sees three terms."""
        loaded = codec.load_graph(TYPED_TERMS_FIXTURE)
        assert loaded.query(subject="e2", predicate="p") == [Triple("e2", "p", 0.0)]
        assert type(loaded.query(subject="e2", predicate="p")[0].object) is float
        assert Triple("e2", "p", 0.0) in loaded
        assert Triple("e2", "p", 0) not in loaded
        assert loaded.subjects("p", 0) == ["e1"]
        assert loaded.subjects("p", 0.0) == ["e2"]
        assert loaded.subjects("p", False) == ["e3"]
        assert loaded.pattern_cardinality(predicate="p", obj=0) == 1
        assert loaded.subjects("q", True) == ["e2"]
        model = SetGraph()
        for entity_id in ("e1", "e2", "e3"):
            model.add_entity(entity_id, entity_id.upper())
        model.add(Triple("e1", "p", 0), Provenance(source="s1", confidence=0.9))
        model.add(Triple("e2", "p", 0.0), Provenance(source="s2", confidence=0.8))
        model.add_batch(
            [
                Triple("e3", "p", False),
                Triple("e1", "q", 1),
                Triple("e2", "q", True),
                Triple("e3", "knows", "e1"),
            ]
        )
        assert_graph_matches(loaded, model)
        assert loaded.remove_triple(Triple("e2", "p", 0.0))
        assert model.remove(Triple("e2", "p", 0.0))
        assert_graph_matches(loaded, model)

    def test_v1_provenance_converts_and_resaves_as_v3(self, tmp_path):
        """A v1 file's JSON provenance loads into the delta, intact; saving
        it writes v3, and saving that again writes the same bytes."""
        legacy = codec.load_graph(TYPED_TERMS_FIXTURE)
        assert legacy._provenance_base is None
        assert legacy.provenance() == {
            Triple("e1", "p", 0): [Provenance(source="s1", confidence=0.9)],
            Triple("e2", "p", 0.0): [Provenance(source="s2", confidence=0.8)],
        }
        first = str(tmp_path / "first.rkgs")
        codec.save_graph(legacy, first, include_lineage=False)
        converted = codec.load_graph(first)
        assert not converted._provenance
        assert converted.provenance() == legacy.provenance()
        blob = _resave_twice(converted, tmp_path, "converted")
        assert blob[:6] == codec.SNAPSHOT_MAGIC + bytes([codec.SNAPSHOT_VERSION, 0])
        assert codec.SNAPSHOT_VERSION == 3

    def test_resave_is_byte_stable(self, tmp_path):
        legacy = codec.load_graph(TYPED_TERMS_FIXTURE)
        for tag, graph in (("mixed", self._mixed_pair()[0]), ("legacy", legacy)):
            _resave_twice(graph, tmp_path, tag)


class TestFormatV2Fixture:
    """``tests/data/graph_v2.rkgs`` was written by the snapshot v2 codec."""

    def test_loads_equal_to_the_graph_built_in_memory(self):
        loaded = codec.load_graph(V2_FIXTURE)
        built = _format_fixture_graph()
        assert public_state(loaded) == public_state(built)
        assert loaded.stats() == built.stats()
        assert loaded.name == built.name
        assert [type(t.object) for t in loaded.query(predicate="born")] == [int, int]
        assert loaded.objects("e1", "height_m") == [1.65]
        assert len(loaded.provenance(Triple("e1", "knows", "e2"))) == 2

    def test_resave_writes_v3_and_is_byte_stable(self, tmp_path):
        with open(V2_FIXTURE, "rb") as handle:
            assert handle.read(6) == codec.SNAPSHOT_MAGIC + bytes([2, 0])
        blob = _resave_twice(codec.load_graph(V2_FIXTURE), tmp_path, "v2")
        assert blob[:6] == codec.SNAPSHOT_MAGIC + bytes([3, 0])
        built = str(tmp_path / "built.rkgs")
        codec.save_graph(_format_fixture_graph(), built, include_lineage=False)
        with open(built, "rb") as handle:
            assert handle.read() == blob


class TestSnapshotCorruption:
    def test_terms_section_refuses_nan_and_reads_negative_zero_as_zero(self):
        """Files written before triples refused NaN can hold one, which no
        graph can hold, so the load refuses it; a -0.0 term loads as 0.0."""
        with pytest.raises(CodecError, match="NaN"):
            codec._decode_terms(codec._encode_terms(["x", math.nan]), "old.rkgs")
        (zero,) = codec._decode_terms(codec._encode_terms([-0.0]), "old.rkgs")
        assert math.copysign(1.0, zero) == 1.0

    def _saved(self, tmp_path):
        path = str(tmp_path / "g.rkgs")
        codec.save_graph(_sample_graph(), path, include_lineage=False)
        with open(path, "rb") as handle:
            return path, bytearray(handle.read())

    def test_missing_file(self, tmp_path):
        with pytest.raises(CodecError, match="not found"):
            codec.load_graph(str(tmp_path / "nope.rkgs"))

    def test_bad_magic(self, tmp_path):
        path, blob = self._saved(tmp_path)
        blob[0:4] = b"NOPE"
        with open(path, "wb") as handle:
            handle.write(blob)
        with pytest.raises(CodecError, match="not a repro snapshot"):
            codec.load_graph(path)

    def test_future_version(self, tmp_path):
        path, blob = self._saved(tmp_path)
        blob[4] = 99
        with open(path, "wb") as handle:
            handle.write(blob)
        with pytest.raises(CodecError, match="format v99"):
            codec.load_graph(path)

    def test_truncation(self, tmp_path):
        path, blob = self._saved(tmp_path)
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        with pytest.raises(CodecError, match="truncated"):
            codec.load_graph(path)

    def test_checksum_mismatch_names_section(self, tmp_path):
        path, blob = self._saved(tmp_path)
        blob[-3] ^= 0xFF  # flip a byte inside the final section's payload
        with open(path, "wb") as handle:
            handle.write(blob)
        with pytest.raises(CodecError, match="checksum mismatch"):
            codec.load_graph(path)

    def test_error_messages_are_one_line_and_actionable(self, tmp_path):
        path, blob = self._saved(tmp_path)
        blob[-3] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(blob)
        with pytest.raises(CodecError) as excinfo:
            codec.load_graph(path)
        message = str(excinfo.value)
        assert "\n" not in message
        assert "repro save" in message


class TestTripleWAL:
    def _entity_records(self, graph):
        return [
            {
                "op": "entity",
                "id": entity.entity_id,
                "name": entity.name,
                "class": entity.entity_class,
                "aliases": sorted(entity.aliases),
            }
            for entity in sorted(graph.entities(), key=lambda e: e.entity_id)
        ]

    def _logged_graph(self, wal_dir, segment_bytes=4096):
        """An empty sample graph with the WAL attached before any triples,
        then the sample triples added *through* the log."""
        wal = TripleWAL(str(wal_dir), segment_bytes=segment_bytes)
        reference = _sample_graph()
        ontology = Ontology(name="sample")
        ontology.add_class("Thing")
        ontology.add_class("Person", "Thing")
        ontology.add_relation("knows", "Person", "Person")
        graph = KnowledgeGraph(ontology=ontology, name="sample")
        for entity in sorted(reference.entities(), key=lambda e: e.entity_id):
            graph.add_entity(
                entity.entity_id, entity.name, entity.entity_class, entity.aliases
            )
        for record in self._entity_records(graph):
            wal.append(record)
        graph.attach_wal(wal)
        for triple, records in sorted(
            _provenance_map(reference).items(), key=lambda kv: kv[0]
        ):
            for source, extractor, confidence in records:
                graph.add_triple(
                    triple,
                    provenance=Provenance(
                        source=source, extractor=extractor, confidence=confidence
                    ),
                )
        for triple in _triples(reference):
            graph.add_triple(triple)
        return graph, wal

    def test_recover_replays_all_ops(self, tmp_path):
        graph, wal = self._logged_graph(tmp_path / "wal")
        graph.add_triple(Triple("t1", "linked", "p1"))
        graph.add_alias("p2", "A. Turing")
        graph.remove_triple(Triple("p1", "born", 1815))
        graph.merge_entities("p1", "p2")
        wal.close()

        recovered = TripleWAL(str(tmp_path / "wal")).recover()
        assert _triples(recovered) == _triples(graph)
        assert _provenance_map(recovered) == _provenance_map(graph)
        assert not recovered.has_entity("p2")
        assert "A. Turing" in recovered.entity("p1").aliases

    def test_batch_ingest_logs_one_record_and_replays(self, tmp_path):
        wal = TripleWAL(str(tmp_path / "wal"))
        ontology = Ontology()
        ontology.add_class("Thing")
        graph = KnowledgeGraph(ontology=ontology)
        for index in range(5):
            graph.add_entity(f"e{index}", f"E{index}", "Thing")
        for record in self._entity_records(graph):
            wal.append(record)
        graph.attach_wal(wal)
        items = [
            (Triple("e0", "p", "x"), Provenance(source="s", confidence=0.7)),
            Triple("e1", "p", "y"),
            Triple("e1", "p", "y"),  # duplicate: replay must not resurrect it twice
            (Triple("e2", "q", 5), None),
        ]
        graph.add_triples_batch(items)
        wal.close()
        recovered = TripleWAL(str(tmp_path / "wal")).recover()
        assert _triples(recovered) == _triples(graph)
        assert _provenance_map(recovered) == _provenance_map(graph)

    def test_segment_rotation(self, tmp_path):
        graph, wal = self._logged_graph(tmp_path / "wal", segment_bytes=4096)
        for index in range(300):
            graph.add_triple(Triple("p1", f"attr{index}", f"value-{index:04d}"))
        wal.close()
        segments = wal.segment_paths()
        assert len(segments) > 1
        recovered = TripleWAL(str(tmp_path / "wal")).recover()
        assert _triples(recovered) == _triples(graph)

    def test_truncated_tail_tolerated_on_last_segment(self, tmp_path):
        graph, wal = self._logged_graph(tmp_path / "wal")
        graph.add_triple(Triple("t1", "linked", "p1"))
        graph.add_triple(Triple("t1", "linked2", "p2"))
        wal.close()
        last = wal.segment_paths()[-1]
        with open(last, "rb") as handle:
            blob = handle.read()
        with open(last, "wb") as handle:
            handle.write(blob[:-3])  # crash mid-append
        recovered = TripleWAL(str(tmp_path / "wal")).recover()
        assert Triple("t1", "linked", "p1") in recovered
        assert Triple("t1", "linked2", "p2") not in recovered

    def test_corrupt_record_raises_unless_allow_partial(self, tmp_path):
        graph, wal = self._logged_graph(tmp_path / "wal")
        graph.add_triple(Triple("t1", "linked", "p1"))
        wal.close()
        last = wal.segment_paths()[-1]
        with open(last, "rb") as handle:
            blob = bytearray(handle.read())
        blob[-2] ^= 0xFF
        with open(last, "wb") as handle:
            handle.write(bytes(blob))
        reopened = TripleWAL(str(tmp_path / "wal"))
        with pytest.raises(CodecError, match="checksum mismatch"):
            reopened.recover()
        partial = reopened.recover(allow_partial=True)
        assert partial.has_entity("p1")

    def test_compact_folds_segments_into_base(self, tmp_path):
        graph, wal = self._logged_graph(tmp_path / "wal", segment_bytes=4096)
        for index in range(300):
            graph.add_triple(Triple("p1", f"attr{index}", index))
        before = len(wal.segment_paths())
        assert before > 1
        compacted, stats = wal.compact()
        assert stats["n_segments_folded"] == before
        assert os.path.exists(wal.base_path)
        assert len(wal.segment_paths()) == 1  # one fresh empty segment
        assert _triples(compacted) == _triples(graph)
        # Recovery after compaction = base + empty segment.
        wal.close()
        recovered = TripleWAL(str(tmp_path / "wal")).recover()
        assert _triples(recovered) == _triples(graph)
        assert wal.stats()["base_bytes"] == stats["base_bytes"]
        # A handle reopened on a segment holding frames appends to a new
        # one, but after its own compaction to the fresh segment.
        reopened = TripleWAL(str(tmp_path / "wal"), segment_bytes=4096)
        reopened.append({"op": "add", "s": "p1", "p": "late", "o": 1})
        reopened.close()
        again = TripleWAL(str(tmp_path / "wal"), segment_bytes=4096)
        again.compact()
        again.append({"op": "add", "s": "p1", "p": "later", "o": 2})
        again.close()
        assert len(again.segment_paths()) == 1
        assert len(TripleWAL(str(tmp_path / "wal")).recover()) == len(graph) + 2

    def test_append_after_close_raises(self, tmp_path):
        wal = TripleWAL(str(tmp_path / "wal"))
        wal.close()
        with pytest.raises(ValueError, match="closed"):
            wal.append({"op": "add", "s": "a", "p": "b", "o": "c"})

    def test_rejects_tiny_segment_limit(self, tmp_path):
        with pytest.raises(ValueError, match="4096"):
            TripleWAL(str(tmp_path / "wal"), segment_bytes=10)

    def test_unknown_op_raises(self, tmp_path):
        wal = TripleWAL(str(tmp_path / "wal"))
        wal.append({"op": "timewarp"})
        wal.close()
        with pytest.raises(CodecError, match="unknown WAL op"):
            TripleWAL(str(tmp_path / "wal")).recover()

    @staticmethod
    def _refuses_old_segment(wal_dir, header, frame_head):
        """A segment of an older format (``header``, then one JSON add
        behind ``frame_head``) is not read, converted or appended to:
        recovery names the version it found and the one it reads."""
        wal_dir.mkdir()
        payload = frame_head + json.dumps({"op": "add", "s": "e0", "p": "v", "o": 1}).encode(
            "utf-8"
        )
        with open(wal_dir / "wal-00000001.log", "wb") as handle:
            handle.write(header)
            handle.write(struct.pack("<II", len(payload), zlib.crc32(payload)) + payload)
        size = os.path.getsize(wal_dir / "wal-00000001.log")
        reopened = TripleWAL(str(wal_dir))
        version = struct.unpack_from("<H", header, 4)[0]
        with pytest.raises(
            CodecError,
            match=f"not a v{codec.WAL_VERSION} repro WAL segment .*version {version}",
        ):
            reopened.recover()
        reopened.append({"op": "add", "s": "e0", "p": "v", "o": 2})
        # The old file is left as it was; the append went to a new segment.
        assert os.path.getsize(wal_dir / "wal-00000001.log") == size
        assert len(reopened.segment_paths()) == 2
        with pytest.raises(CodecError, match="compact it with the checkout that wrote it"):
            reopened.compact()
        assert codec.WAL_VERSION == 3

    def test_v1_segment_is_refused_with_versions_named(self, tmp_path):
        """A segment written before WAL v2 (unnumbered JSON frames)."""
        self._refuses_old_segment(
            tmp_path / "wal", struct.pack("<4sHH", codec.WAL_MAGIC, 1, 0), b""
        )

    def test_v2_segment_is_refused_with_versions_named(self, tmp_path):
        """A segment written before terms were typed: its writer held
        ``1`` and ``1.0`` as one term, so replay could not rebuild it."""
        self._refuses_old_segment(
            tmp_path / "wal",
            struct.pack("<4sHHQ", codec.WAL_MAGIC, 2, 0, 0),
            struct.pack("<QB", 0, 0),
        )

    def test_batch_frame_carries_only_new_terms(self, tmp_path):
        """A batch is one frame of segment-local ids; a later batch in the
        same segment carries only the terms the segment has not seen, and
        typed-equal terms stay apart."""
        wal = TripleWAL(str(tmp_path / "wal"))
        ontology = Ontology()
        ontology.add_class("Thing")
        graph = KnowledgeGraph(ontology=ontology)
        graph.attach_wal(wal)
        graph.add_entity("e0", "E0", "Thing")
        graph.add_triples_batch([Triple("e0", "v", 1), Triple("e0", "w", True)])
        graph.add_triples_batch(
            [(Triple("e0", "v", 1.0), Provenance(source="s", confidence=0.5))]
        )
        wal.close()
        (segment,) = wal.segment_paths()
        entity, first, second = codec.read_segment_records(segment).records
        assert entity["op"] == "entity"
        assert first.terms == ["e0", "v", 1, "w", True]
        assert [type(term) for term in first.terms[2::2]] == [int, bool]
        assert list(first.s) == [0, 0] and list(first.o) == [2, 4]
        assert list(first.label) == [-1, -1]
        assert second.terms == [1.0] and type(second.terms[0]) is float
        assert (list(second.s), list(second.p), list(second.o)) == ([0], [1], [5])
        assert second.labels == [("s", None)] and list(second.conf) == [0.5]

    def test_wal_suspended_during_merge_logs_single_record(self, tmp_path):
        graph, wal = self._logged_graph(tmp_path / "wal")
        graph.merge_entities("p1", "p2")
        wal.close()
        records = []
        for path in codec.segment_paths(str(tmp_path / "wal")):
            records.extend(codec.read_segment_records(path)[0])
        merges = [record for record in records if record["op"] == "merge"]
        assert merges == [{"op": "merge", "keep": "p1", "drop": "p2"}]

    @staticmethod
    def _logged_adds(wal_dir, values, segment_bytes=4096):
        """A closed log of one entity then one ``add`` per value."""
        wal = TripleWAL(str(wal_dir), segment_bytes=segment_bytes)
        wal.append(
            {"op": "entity", "id": "e0", "name": "E0", "class": "Thing", "aliases": []}
        )
        for value in values:
            wal.append({"op": "add", "s": "e0", "p": "v", "o": value})
        wal.close()
        return wal

    def test_allow_partial_recovery_stops_at_first_damage(self, tmp_path):
        wal = self._logged_adds(tmp_path / "wal", range(300))
        segments = wal.segment_paths()
        assert len(segments) >= 3
        with open(segments[1], "r+b") as handle:
            handle.seek(os.path.getsize(segments[1]) // 2)
            byte = handle.read(1)[0]
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte ^ 0xFF]))
        reopened = TripleWAL(wal.directory, segment_bytes=4096)
        with pytest.raises(CodecError):
            reopened.recover()
        partial = reopened.recover(allow_partial=True)
        compacted, _stats = reopened.compact(allow_partial=True)
        reopened.close()
        folded = TripleWAL(wal.directory).recover()
        for graph in (partial, compacted, folded):
            values = sorted(triple.object for triple in graph.query())
            # The records before the damaged one, and none after it.
            assert 0 < len(values) < 300
            assert values == list(range(len(values)))

    @pytest.mark.parametrize("damage", ["drop_last_record", "drop_segment"])
    def test_missing_record_or_segment_stops_replay(self, tmp_path, damage):
        """A non-final segment that lost its last whole record, or a
        missing middle segment, reads as whole frame by frame; the
        sequence numbers show the gap."""
        wal = self._logged_adds(tmp_path / "wal", range(300))
        segments = wal.segment_paths()
        assert len(segments) >= 3
        kept = len(codec.read_segment_records(segments[0]).records) - 1  # minus the entity
        if damage == "drop_segment":
            os.remove(segments[1])
        else:
            with open(segments[0], "rb") as handle:
                blob = handle.read()
            offset = 16
            while offset < len(blob):
                last = offset
                offset += 8 + struct.unpack_from("<I", blob, offset)[0]
            os.truncate(segments[0], last)
            kept -= 1
        reopened = TripleWAL(wal.directory, segment_bytes=4096)
        with pytest.raises(CodecError, match=f"{os.path.basename(segments[0])}: ends before"):
            reopened.recover()
        partial = reopened.recover(allow_partial=True)
        assert sorted(triple.object for triple in partial.query()) == list(range(kept))
        reopened.close()

    def test_reopen_after_torn_tail_appends_after_last_whole_record(self, tmp_path):
        wal = self._logged_adds(tmp_path / "wal", [1, 2])
        segment = wal.segment_paths()[-1]
        whole = os.path.getsize(segment)
        os.truncate(segment, whole - 3)  # crash mid-append of the second add
        with enabled_scope():
            reopened = TripleWAL(wal.directory)
            counters = get_registry().snapshot()["counters"]
        reopened.append({"op": "add", "s": "e0", "p": "v", "o": 3})
        reopened.close()
        for allow_partial in (False, True):
            recovered = TripleWAL(wal.directory).recover(allow_partial=allow_partial)
            assert sorted(triple.object for triple in recovered.query()) == [1, 3]
        assert counters.get("store.wal.truncated_tail") == 1

    def test_stats_reports_sizes(self, tmp_path):
        graph, wal = self._logged_graph(tmp_path / "wal")
        graph.add_triple(Triple("t1", "linked", "p1"))
        stats = wal.stats()
        assert stats["n_segments"] >= 1
        assert stats["wal_bytes"] > 0
        assert stats["base_exists"] is False


class TestWALConcurrency:
    """compact()/checkpoint() vs concurrent appenders and readers.

    Before the WAL lock, a compact could delete segment files while an
    appender held the old handle (lost writes) or while recover() was
    mid-replay (FileNotFoundError) — the satellite fix this class pins.
    """

    def _wal_with_entity(self, wal_dir):
        wal = TripleWAL(str(wal_dir), segment_bytes=4096)
        wal.append(
            {"op": "entity", "id": "e0", "name": "E0", "class": "Thing", "aliases": []}
        )
        return wal

    def test_append_during_compact_is_never_lost(self, tmp_path):
        import threading

        wal = self._wal_with_entity(tmp_path / "wal")
        n_writers, n_per_writer = 4, 50
        errors = []
        start = threading.Barrier(n_writers + 2)

        def write(writer):
            start.wait()
            try:
                for index in range(n_per_writer):
                    wal.append(
                        {"op": "add", "s": "e0", "p": f"w{writer}", "o": index}
                    )
            except Exception as exc:  # pragma: no cover - failure capture
                errors.append(exc)

        def fold():
            start.wait()
            try:
                for _ in range(5):
                    wal.compact()
            except Exception as exc:  # pragma: no cover - failure capture
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(writer,))
            for writer in range(n_writers)
        ] + [threading.Thread(target=fold)]
        for thread in threads:
            thread.start()
        start.wait()
        for thread in threads:
            thread.join()
        assert errors == []
        recovered = wal.recover()
        triples = sorted(recovered.query(), key=lambda t: t._sort_key())
        assert len(triples) == n_writers * n_per_writer
        for writer in range(n_writers):
            row = [t for t in triples if t.predicate == f"w{writer}"]
            assert sorted(t.object for t in row) == list(range(n_per_writer))

    def test_recover_during_compact_sees_consistent_state(self, tmp_path):
        import threading

        wal = self._wal_with_entity(tmp_path / "wal")
        for index in range(200):
            wal.append({"op": "add", "s": "e0", "p": "attr", "o": index})
        errors = []
        sizes = []
        done = threading.Event()

        def read():
            try:
                while not done.is_set():
                    sizes.append(len(wal.recover()))
            except Exception as exc:  # pragma: no cover - failure capture
                errors.append(exc)

        reader = threading.Thread(target=read)
        reader.start()
        try:
            for _ in range(5):
                wal.compact()
        finally:
            done.set()
            reader.join()
        assert errors == []
        # Every concurrent recovery saw the full, settled triple count —
        # never a half-folded base or a vanished segment.
        assert set(sizes) == {200}

    def test_checkpoint_installs_caller_graph_as_base(self, tmp_path):
        wal = self._wal_with_entity(tmp_path / "wal")
        for index in range(10):
            wal.append({"op": "add", "s": "e0", "p": "attr", "o": index})
        ontology = Ontology(name="canon")
        ontology.add_class("Thing")
        canonical = KnowledgeGraph(ontology=ontology, name="canon")
        canonical.add_entity("e0", "E0", "Thing")
        canonical.add_triple(Triple("e0", "only", "this"))
        stats = wal.checkpoint(canonical)
        assert stats["n_segments_folded"] >= 1
        assert os.path.exists(wal.base_path)
        assert len(wal.segment_paths()) == 1  # fresh empty segment
        recovered = TripleWAL(str(tmp_path / "wal")).recover()
        assert sorted(recovered.query(), key=lambda t: t._sort_key()) == [
            Triple("e0", "only", "this")
        ]


class TestSegmentTailReads:
    def test_read_segment_records_resumes_at_offset(self, tmp_path):
        wal = TripleWAL(str(tmp_path / "wal"), segment_bytes=1 << 20)
        wal.append({"op": "add", "s": "a", "p": "b", "o": 1})
        segment = wal.segment_paths()[0]
        read = codec.read_segment_records(segment)
        assert [record["op"] for record in read.records] == ["add"]
        assert (read.first, read.seq) == (0, 1)
        # No new frames: same offset, no records.
        again = codec.read_segment_records(segment, read.end, read.seq)
        assert again.records == [] and again.end == read.end
        wal.append({"op": "add", "s": "a", "p": "b", "o": 2})
        fresh = codec.read_segment_records(segment, read.end, read.seq)
        assert [record["o"] for record in fresh.records] == [2]
        assert fresh.first is None and fresh.seq == 2

    def test_read_segment_records_tolerates_torn_tail(self, tmp_path):
        wal = TripleWAL(str(tmp_path / "wal"), segment_bytes=1 << 20)
        wal.append({"op": "add", "s": "a", "p": "b", "o": 1})
        wal.append({"op": "add", "s": "a", "p": "b", "o": 2})
        wal.close()
        segment = wal.segment_paths()[0]
        whole = os.path.getsize(segment)
        with open(segment, "rb") as handle:
            data = handle.read()
        torn = str(tmp_path / "torn.log")
        with open(torn, "wb") as handle:
            handle.write(data[: whole - 3])  # truncate inside the last frame
        read = codec.read_segment_records(torn)
        assert [record["o"] for record in read.records] == [1]
        # Completing the tail makes the second record visible at the
        # returned offset.
        with open(torn, "ab") as handle:
            handle.write(data[whole - 3 :])
        rest = codec.read_segment_records(torn, read.end, read.seq)
        assert [record["o"] for record in rest.records] == [2]
