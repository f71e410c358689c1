"""Binary snapshot codec + append-only WAL for knowledge graphs.

Two durability surfaces on top of :mod:`repro.core.store`:

**Snapshots** (``.rkgs``, format v3) — a versioned binary format
holding the term dictionary (one entry per term, a term being its type
plus its value: :func:`~repro.core.store.term_key`), all three sorted
SPO/POS/OSP permutation columns (stored raw, so loading is
``array.frombytes`` — no re-sort, no re-index), entities, ontology,
provenance, and optionally the lineage ledger.  Every section is
crc32-checksummed, and every failure mode (bad magic, unknown version,
truncation, checksum mismatch) raises :class:`CodecError` with a
one-line actionable message.  ``repro serve
--snapshot`` boots from one of these instead of re-running construction.

Provenance is stored as the graph's id-keyed
:class:`~repro.core.store.ProvenanceColumns`, raw behind one zlib
level-1 frame: a save folds the graph's provenance delta into new
columns (and installs them as the graph's base), a load installs them
with ``array.frombytes``.  No JSON is written or read for provenance,
and a loaded graph answers provenance reads from the columns.  v1 and v2
files still load, each term exactly as written; a v1 file's JSON
provenance is decoded into the graph's delta.  Saving either writes v3,
whose terms section may hold ``1`` beside ``1.0`` — which v2 readers
would call corrupt, so they refuse v3 by its version.

**WAL** (:class:`TripleWAL`, format v3) — an append-only log of graph
mutations in size-rotated segments, with :meth:`TripleWAL.compact`
folding replayed segments into a ``base.rkgs`` snapshot.  A segment is a
16-byte header (magic, version, flags, the number of its first record)
then length+crc32 frames, each holding one record: its sequence number
(counted across the whole log), its kind, and its body.  A point
mutation (entity/alias/unalias/add/remove/merge) is one JSON record.  A batch
ingest is one binary record: the terms its segment has not carried yet
(in the snapshot's term encoding), its rows as ``s`` / ``p`` / ``o``
arrays of segment-local ids (id ``k`` is the ``k``-th term the
segment carried; the table is a :class:`~repro.core.store.TermDict`, so
``1``, ``1.0`` and ``True`` stay three terms), and each row's provenance
as an index into the record's ``(source, extractor)`` table plus a
confidence.  Replay interns each new term once and installs a batch on
an empty graph as its columns and provenance base directly; anywhere
else its rows are added by id.  v1 and v2 segments are refused: a v2
writer held ``1`` and ``1.0`` as one term, so replaying its log by
today's rule could rebuild a graph its writer never held.

Every append is flushed, so it survives a process crash; a segment is
fsync-ed when it is sealed (rotation or close), and a compaction's new
base and its directory before the segments it folds are deleted.  The
log has one reader: :func:`segment_paths` lists the segments,
:func:`read_segment_records` scans frames, and :class:`WALReplay`
applies them to a graph — recovery and live followers alike.  Replay
always yields a prefix of the log: it stops at the first frame that is
not whole, or whose sequence number is not the next one (a record or a
whole segment went missing).  On the last segment a frame that is not
whole is a torn tail (a crash mid-append); anything else raises
:class:`CodecError` — or, with ``allow_partial``, ends the replay
there.  Opening a log cuts a torn tail off its last segment, so new
appends follow the last whole record.

A :class:`~repro.core.graph.KnowledgeGraph` with an attached WAL
(:meth:`~repro.core.graph.KnowledgeGraph.attach_wal`) logs every
mutation, and replay reproduces state, provenance, and (when
observability is on) lineage events exactly: ``save(recover())`` is
byte-identical to ``save(writer)`` for a writer named and typed like
the replayed graph (``"wal"``, the classes its entities use).  While a
log holds nothing but one empty-at-attach graph's mutations, that
graph is its :attr:`TripleWAL.writer`, and :func:`writer_log` finds it
by directory: the state a replay would rebuild already exists in this
process.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import threading
import weakref
import zlib
from array import array
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.graph import Entity, KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.store import ColumnarTripleStore, ProvenanceColumns, TermDict
from repro.core.triple import Provenance, Triple, Value
from repro.obs import lineage as obs_lineage
from repro.obs import metrics as obs_metrics

SNAPSHOT_MAGIC = b"RKGS"
WAL_MAGIC = b"RKGW"
#: Snapshot format: v3 keys terms by type plus value (v2 by ``==``), and
#: v2 onwards stores provenance as id-keyed columns; v1 and v2 files
#: still load.
SNAPSHOT_VERSION = 3
#: WAL format: frames are sequenced, a batch is one id-encoded frame, and
#: v3 logs graphs whose terms are typed; v1 and v2 segments are refused.
WAL_VERSION = 3

#: File header: magic, format version, reserved flags.
_HEADER = struct.Struct("<4sHH")
#: Section frame: section id, payload length, payload crc32.
_SECTION = struct.Struct("<BQI")
#: WAL segment header: the file header, then its first record's number.
_WAL_HEADER = struct.Struct("<4sHHQ")
#: WAL record frame: payload length, payload crc32.
_WAL_FRAME = struct.Struct("<II")
#: Head of a WAL record's payload: sequence number, kind.
_WAL_ENTRY = struct.Struct("<QB")
#: Head of a batch record: rows, new-term bytes, label-table bytes.
_BATCH_HEAD = struct.Struct("<III")
_KIND_RECORD = 0  # one point mutation, JSON
_KIND_BATCH = 1  # one batch ingest, id-encoded
#: Provenance section head (v2 onwards): keyed triples, records, label-table bytes.
_PROVENANCE_HEAD = struct.Struct("<QQQ")

# Section ids.
SEC_META = 1
SEC_ONTOLOGY = 2
SEC_ENTITIES = 3
SEC_TERMS = 4
SEC_COLUMNS = 5
SEC_PROVENANCE = 6
SEC_LINEAGE = 7

_SECTION_NAMES = {
    SEC_META: "meta",
    SEC_ONTOLOGY: "ontology",
    SEC_ENTITIES: "entities",
    SEC_TERMS: "terms",
    SEC_COLUMNS: "columns",
    SEC_PROVENANCE: "provenance",
    SEC_LINEAGE: "lineage",
}

# Term tags in the TERMS section.
_TAG_STR = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_BOOL = 3
_TAG_BIGINT = 4  # ints outside i64, as a decimal string
_TAG_NONE = 5  # a provenance label's missing extractor; never a triple term

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class CodecError(ValueError):
    """A snapshot or WAL file could not be read; the message says why
    and what to do about it (always one line)."""


# ---------------------------------------------------------------------------
# term encoding


def _encode_terms(terms: List[Value]) -> bytes:
    chunks = [struct.pack("<I", len(terms))]
    append = chunks.append
    for term in terms:
        kind = type(term)
        if kind is str:
            payload = term.encode("utf-8", "surrogatepass")
            append(struct.pack("<BI", _TAG_STR, len(payload)))
            append(payload)
        elif kind is bool:
            # Checked before int: bool is an int subclass.
            append(struct.pack("<BB", _TAG_BOOL, 1 if term else 0))
        elif kind is int:
            if _I64_MIN <= term <= _I64_MAX:
                append(struct.pack("<Bq", _TAG_INT, term))
            else:
                payload = str(term).encode("ascii")
                append(struct.pack("<BI", _TAG_BIGINT, len(payload)))
                append(payload)
        elif kind is float:
            append(struct.pack("<Bd", _TAG_FLOAT, term))
        elif term is None:
            append(struct.pack("<B", _TAG_NONE))
        else:  # pragma: no cover - Value is closed over these four types
            raise CodecError(f"cannot encode term of type {kind.__name__}")
    return b"".join(chunks)


def _decode_terms(payload: bytes, path: str) -> List[Value]:
    view = memoryview(payload)
    offset = 4
    try:
        (count,) = struct.unpack_from("<I", view, 0)
        terms: List[Value] = []
        for _ in range(count):
            (tag,) = struct.unpack_from("<B", view, offset)
            offset += 1
            if tag == _TAG_STR:
                (length,) = struct.unpack_from("<I", view, offset)
                offset += 4
                terms.append(
                    bytes(view[offset : offset + length]).decode("utf-8", "surrogatepass")
                )
                offset += length
            elif tag == _TAG_INT:
                (value,) = struct.unpack_from("<q", view, offset)
                offset += 8
                terms.append(value)
            elif tag == _TAG_FLOAT:
                (value,) = struct.unpack_from("<d", view, offset)
                offset += 8
                if value != value:
                    raise CodecError(
                        f"{path}: terms section holds a NaN, which no triple "
                        f"can hold; file is corrupt — re-create it with `repro save`"
                    )
                terms.append(value + 0.0)  # -0.0 is 0.0, as in a Triple
            elif tag == _TAG_BOOL:
                (value,) = struct.unpack_from("<B", view, offset)
                offset += 1
                terms.append(bool(value))
            elif tag == _TAG_BIGINT:
                (length,) = struct.unpack_from("<I", view, offset)
                offset += 4
                terms.append(int(bytes(view[offset : offset + length]).decode("ascii")))
                offset += length
            elif tag == _TAG_NONE:
                terms.append(None)  # type: ignore[arg-type]
            else:
                raise CodecError(
                    f"{path}: unknown term tag {tag} in the terms section; "
                    f"file is corrupt — re-create it with `repro save`"
                )
    except struct.error as exc:
        raise CodecError(
            f"{path}: terms section ended mid-term; file is corrupt — "
            f"re-create it with `repro save`"
        ) from exc
    if len(terms) != count:  # pragma: no cover - loop guarantees this
        raise CodecError(f"{path}: terms section count mismatch")
    return terms


# ---------------------------------------------------------------------------
# section plumbing


def _json_section(document: object) -> bytes:
    return zlib.compress(json.dumps(document, sort_keys=True).encode("utf-8"), 6)


def _load_json_section(payload: bytes, name: str, path: str) -> object:
    try:
        return json.loads(zlib.decompress(payload).decode("utf-8"))
    except (zlib.error, ValueError) as exc:
        raise CodecError(
            f"{path}: {name} section does not decode (passed its checksum but "
            f"not its parser); re-create the file with `repro save`"
        ) from exc


def _pack_section(section_id: int, payload: bytes) -> bytes:
    return _SECTION.pack(section_id, len(payload), zlib.crc32(payload)) + payload


def _ontology_document(ontology: Ontology) -> Dict[str, object]:
    # Classes parents-first so one load pass can re-add them.
    classes: List[List[Optional[str]]] = []
    emitted = set()
    pending = list(ontology.classes())
    while pending:
        remaining = []
        for class_name in pending:
            parent = ontology.parent(class_name)
            if parent is None or parent in emitted:
                classes.append([class_name, parent])
                emitted.add(class_name)
            else:
                remaining.append(class_name)
        if len(remaining) == len(pending):  # pragma: no cover - defensive
            raise CodecError("cycle detected while serializing the ontology")
        pending = remaining
    return {
        "name": ontology.name,
        "classes": classes,
        "relations": [
            [r.name, r.domain, r.range_class, r.functional] for r in ontology.relations()
        ],
    }


def _load_ontology(document: Dict[str, object]) -> Ontology:
    ontology = Ontology(name=str(document.get("name", "ontology")))
    for class_name, parent in document.get("classes", []):  # type: ignore[union-attr]
        ontology.add_class(class_name, parent)
    for name, domain, range_class, functional in document.get("relations", []):  # type: ignore[union-attr]
        ontology.add_relation(name, domain, range_class, functional=functional)
    return ontology


def _encode_provenance(columns: Optional[ProvenanceColumns]) -> bytes:
    """The provenance section: the columns raw, behind zlib level 1."""
    if columns is None:
        columns = ProvenanceColumns.empty()
    labels = _encode_terms([term for pair in columns.labels for term in pair])
    head = _PROVENANCE_HEAD.pack(len(columns), len(columns.conf), len(labels))
    cols = (columns.s, columns.p, columns.o, columns.start, columns.label, columns.conf)
    return zlib.compress(b"".join([head, labels, *(col.tobytes() for col in cols)]), 1)


def _decode_provenance(
    payload: memoryview, n_terms: int, path: str
) -> Optional[ProvenanceColumns]:
    """Install a v2+ provenance section's columns (None when it is empty)."""
    body = memoryview(zlib.decompress(payload))
    n_keys, n_records, n_label_bytes = _PROVENANCE_HEAD.unpack_from(body, 0)
    offset = _PROVENANCE_HEAD.size + n_label_bytes
    if len(body) != offset + 8 * (4 * n_keys + 1 + 2 * n_records):
        raise CodecError(
            f"{path}: provenance section holds {len(body)} bytes, not what "
            f"{n_keys} triples and {n_records} records need; file is corrupt "
            f"— re-create it with `repro save`"
        )
    flat = _decode_terms(body[_PROVENANCE_HEAD.size : offset], path)
    columns: List[array] = []
    for typecode, length in (
        ("q", n_keys),
        ("q", n_keys),
        ("q", n_keys),
        ("q", n_keys + 1),
        ("q", n_records),
        ("d", n_records),
    ):
        col = array(typecode)
        col.frombytes(body[offset : offset + 8 * length])
        columns.append(col)
        offset += 8 * length
    s_col, p_col, o_col, start, label, _conf = columns
    if (
        len(flat) % 2
        or start[0] != 0
        or start[-1] != n_records
        or max(label, default=-1) >= len(flat) // 2
        or max(max(s_col, default=-1), max(p_col, default=-1), max(o_col, default=-1))
        >= n_terms
    ):
        raise CodecError(
            f"{path}: provenance section references labels, records or terms "
            f"it does not hold; file is corrupt — re-create it with `repro save`"
        )
    if not n_keys:
        return None
    return ProvenanceColumns(*columns, list(zip(flat[0::2], flat[1::2])))


def _provenance_v1(
    payload: memoryview, graph: KnowledgeGraph, path: str
) -> Dict[Triple, List[Provenance]]:
    """A v1 (JSON) provenance section, decoded as a provenance delta."""
    rows = _load_json_section(payload, "provenance", path)
    delta: Dict[Triple, List[Provenance]] = {}
    try:
        for subject, predicate, obj, records in rows:  # type: ignore[union-attr]
            triple = Triple(subject, predicate, obj)
            if triple not in graph:
                raise ValueError(f"provenance for absent triple {triple}")
            delta[triple] = [
                Provenance(source=source, extractor=extractor, confidence=confidence)
                for source, extractor, confidence in records
            ]
    except (AttributeError, TypeError, ValueError) as exc:
        raise CodecError(
            f"{path}: malformed provenance section ({exc!r}); file is "
            f"corrupt — re-create it with `repro save`"
        ) from exc
    return delta


# ---------------------------------------------------------------------------
# snapshot save


def save_graph(
    graph: KnowledgeGraph,
    path: Union[str, "os.PathLike[str]"],
    include_lineage: Optional[bool] = None,
) -> int:
    """Write ``graph`` to ``path`` in the binary snapshot format.

    The graph's store is compacted and its columns written as-is; its
    provenance delta is folded into new base columns the same way.
    ``include_lineage=None`` snapshots the global
    lineage ledger exactly when lineage recording is enabled.  The write
    is atomic (temp file + rename).  Returns bytes written.
    """
    path = os.fspath(path)
    if include_lineage is None:
        include_lineage = obs_lineage.lineage_enabled()

    terms, spo, pos, osp = graph._store.sorted_columns()
    n_rows = len(spo[0])
    columns_payload = struct.pack("<Q", n_rows) + b"".join(
        col.tobytes() for perm in (spo, pos, osp) for col in perm
    )

    entities_document = [
        [e.entity_id, e.name, e.entity_class, sorted(e.aliases)]
        for e in sorted(graph._entities.values(), key=lambda e: e.entity_id)
    ]
    meta = {
        "graph_name": graph.name,
        # A constant (older files may say "dict"); kept so snapshot bytes
        # do not change.  Loads ignore it.
        "backend": "columnar",
        "n_triples": len(graph),
        "n_entities": len(graph._entities),
        "n_terms": len(terms),
    }

    sections = [
        _pack_section(SEC_META, _json_section(meta)),
        _pack_section(SEC_ONTOLOGY, _json_section(_ontology_document(graph.ontology))),
        _pack_section(SEC_ENTITIES, _json_section(entities_document)),
        _pack_section(SEC_TERMS, _encode_terms(terms)),
        _pack_section(SEC_COLUMNS, columns_payload),
        _pack_section(SEC_PROVENANCE, _encode_provenance(graph._fold_provenance())),
    ]
    if include_lineage:
        ledger_state = obs_lineage.get_ledger().export_state()
        sections.append(_pack_section(SEC_LINEAGE, _json_section(ledger_state)))

    blob = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0) + b"".join(sections)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(blob)
    os.replace(tmp_path, path)
    obs_metrics.count("store.snapshot.saves")
    obs_metrics.gauge("store.snapshot.bytes", len(blob))
    return len(blob)


# ---------------------------------------------------------------------------
# snapshot load


def _read_blob(path: str) -> Tuple[object, Optional[mmap.mmap]]:
    """Open a snapshot as a buffer: ``(buffer, mapping)``.

    Prefers a read-only ``mmap`` so section parsing and column loads run
    zero-copy over the page cache (``memoryview`` slices of the mapping
    feed ``zlib.crc32``/``array.frombytes`` directly, no intermediate
    ``bytes`` blob of the whole file).  Falls back to ``handle.read()``
    when the file cannot be mapped (empty file, exotic filesystem), in
    which case ``mapping`` is ``None`` and the buffer is plain bytes.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        raise CodecError(
            f"{path}: snapshot file not found; create it with `repro save`"
        ) from None
    with handle:
        try:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            return handle.read(), None
    return mapping, mapping


def _read_sections(blob, path: str) -> Tuple[int, Dict[int, memoryview]]:
    """The file's format version and its checksum-verified sections."""
    blob = memoryview(blob)  # zero-copy slicing whether bytes or mmap
    if len(blob) < _HEADER.size:
        raise CodecError(
            f"{path}: truncated at byte {len(blob)} (needed an {_HEADER.size}-byte "
            f"header); re-create the file with `repro save`"
        )
    magic, version, _flags = _HEADER.unpack_from(blob, 0)
    if magic != SNAPSHOT_MAGIC:
        raise CodecError(
            f"{path}: not a repro snapshot (magic {magic!r}, expected "
            f"{SNAPSHOT_MAGIC!r}); point --snapshot at a file written by `repro save`"
        )
    if version not in (1, 2, SNAPSHOT_VERSION):
        raise CodecError(
            f"{path}: snapshot format v{version} is not v1, v2 or the current v"
            f"{SNAPSHOT_VERSION}; re-save it with this checkout's `repro save`"
        )
    sections: Dict[int, bytes] = {}
    offset = _HEADER.size
    total = len(blob)
    while offset < total:
        if offset + _SECTION.size > total:
            raise CodecError(
                f"{path}: truncated at byte {offset} (needed a {_SECTION.size}-byte "
                f"section frame); re-create the file with `repro save`"
            )
        section_id, length, crc = _SECTION.unpack_from(blob, offset)
        offset += _SECTION.size
        if offset + length > total:
            name = _SECTION_NAMES.get(section_id, f"#{section_id}")
            raise CodecError(
                f"{path}: truncated at byte {offset} (the {name} section claims "
                f"{length} bytes, {total - offset} remain); re-create the file "
                f"with `repro save`"
            )
        payload = blob[offset : offset + length]
        offset += length
        actual = zlib.crc32(payload)
        if actual != crc:
            name = _SECTION_NAMES.get(section_id, f"#{section_id}")
            raise CodecError(
                f"{path}: {name} section checksum mismatch (stored {crc:#010x}, "
                f"computed {actual:#010x}); file is corrupt — re-create it with "
                f"`repro save`"
            )
        if section_id not in _SECTION_NAMES:
            raise CodecError(
                f"{path}: unknown section id {section_id}; file is corrupt — "
                f"re-create it with `repro save`"
            )
        sections[section_id] = payload
    return version, sections


def _require(
    sections: Dict[int, memoryview], section_id: int, path: str
) -> memoryview:
    payload = sections.get(section_id)
    if payload is None:
        raise CodecError(
            f"{path}: missing {_SECTION_NAMES[section_id]} section; "
            f"re-create the file with `repro save`"
        )
    return payload


def load_graph(path: str, restore_lineage: bool = False) -> KnowledgeGraph:
    """Read a snapshot written by :func:`save_graph` into a fresh graph.

    The file's sorted columns are installed directly (no re-sort, no
    re-index).  ``restore_lineage=True`` merges the snapshot's
    lineage section (if present) into the process-global ledger.
    Provenance columns become the graph's provenance base; a v1 file's
    JSON provenance is decoded into its delta.

    The file is read through a read-only ``mmap`` when possible: column
    bytes flow straight from the page cache into the ``array('q')``
    columns via ``memoryview`` slices, with no intermediate whole-file
    ``bytes`` copy (``store.snapshot.mmap_loads`` counts the mapped
    boots).  The mapping is closed before returning; nothing the graph
    keeps refers to it.
    """
    blob, mapping = _read_blob(path)
    try:
        graph = _load_snapshot(blob, path, restore_lineage)
    except CodecError:
        raise
    except (
        AttributeError,
        IndexError,
        KeyError,
        TypeError,
        ValueError,
        struct.error,
        zlib.error,
        UnicodeDecodeError,
    ) as exc:
        # Checksums catch bit flips inside a section payload, but a flip
        # in a section-id byte can hand structurally wrong (yet valid)
        # JSON to a parser — surface that as corruption, never as a
        # bare crash or a wrong graph.
        raise CodecError(
            f"{path}: malformed snapshot content ({exc!r}); file is "
            f"corrupt — re-create it with `repro save`"
        ) from exc
    finally:
        if mapping is not None:
            try:
                mapping.close()
            except BufferError:  # pragma: no cover - exception path only
                # A raised traceback still references a view of the
                # mapping; dropping the close lets GC unmap it instead.
                pass
    obs_metrics.count("store.snapshot.loads")
    if mapping is not None:
        obs_metrics.count("store.snapshot.mmap_loads")
    return graph


def _load_snapshot(blob, path: str, restore_lineage: bool) -> KnowledgeGraph:
    """Parse one snapshot buffer (bytes or mmap) into a fresh graph.

    Split out of :func:`load_graph` so every ``memoryview`` of the buffer
    is a local that dies when this frame returns, letting the caller
    close the mapping immediately afterwards.
    """
    version, sections = _read_sections(blob, path)

    meta = _load_json_section(_require(sections, SEC_META, path), "meta", path)
    ontology = _load_ontology(
        _load_json_section(_require(sections, SEC_ONTOLOGY, path), "ontology", path)  # type: ignore[arg-type]
    )
    graph = KnowledgeGraph(
        ontology=ontology, name=str(meta.get("graph_name", "kg"))  # type: ignore[union-attr]
    )

    # Entities: constructed directly (the snapshot was validated at save
    # time), so a boot does not re-pay per-entity ontology checks.
    entities_document = _load_json_section(
        _require(sections, SEC_ENTITIES, path), "entities", path
    )
    graph_entities = graph._entities
    name_index = graph._name_index
    for entity_id, name, entity_class, aliases in entities_document:  # type: ignore[union-attr]
        if not ontology.has_class(entity_class):
            raise CodecError(
                f"{path}: entity {entity_id!r} names unknown class "
                f"{entity_class!r}; file is corrupt — re-create it with `repro save`"
            )
        entity = Entity(
            entity_id=entity_id,
            name=name,
            entity_class=entity_class,
            aliases=set(aliases),
        )
        graph_entities[entity_id] = entity
        for alias in entity.all_names():
            name_index[alias.lower()].add(entity_id)

    terms = _decode_terms(_require(sections, SEC_TERMS, path), path)
    columns_payload = _require(sections, SEC_COLUMNS, path)
    if len(columns_payload) < 8:
        raise CodecError(
            f"{path}: columns section shorter than its row-count header; "
            f"file is corrupt — re-create it with `repro save`"
        )
    (n_rows,) = struct.unpack_from("<Q", columns_payload, 0)
    expected = 8 + 9 * 8 * n_rows
    if len(columns_payload) != expected:
        raise CodecError(
            f"{path}: columns section holds {len(columns_payload)} bytes but "
            f"{n_rows} rows need {expected}; file is corrupt — re-create it "
            f"with `repro save`"
        )
    columns: List[array] = []
    columns_view = memoryview(columns_payload)
    offset = 8
    for _ in range(9):
        col = array("q")
        col.frombytes(columns_view[offset : offset + 8 * n_rows])
        columns.append(col)
        offset += 8 * n_rows
    for term_id in (
        max(columns[0], default=-1),
        max(columns[1], default=-1),
        max(columns[2], default=-1),
    ):
        if term_id >= len(terms):
            raise CodecError(
                f"{path}: columns reference term id {term_id} but the dictionary "
                f"holds {len(terms)} terms; file is corrupt — re-create it with "
                f"`repro save`"
            )

    graph._store = ColumnarTripleStore.from_sorted_columns(
        terms, tuple(columns[0:3]), tuple(columns[3:6]), tuple(columns[6:9])
    )
    if n_rows:
        graph._generation += 1

    provenance = _require(sections, SEC_PROVENANCE, path)
    if version == 1:
        graph._provenance = _provenance_v1(provenance, graph, path)
    else:
        graph._provenance_base = _decode_provenance(provenance, len(terms), path)

    if restore_lineage and SEC_LINEAGE in sections:
        state = _load_json_section(sections[SEC_LINEAGE], "lineage", path)
        obs_lineage.get_ledger().merge_state(state)  # type: ignore[arg-type]

    return graph


# ---------------------------------------------------------------------------
# the append-only WAL

#: Open logs that have a :attr:`TripleWAL.writer`, by real directory path.
#: Process-wide on purpose: a follower is given only a directory, and the
#: directory is what identifies the log.  Weak, so a dropped log leaves.
_WRITER_LOGS: "weakref.WeakValueDictionary[str, TripleWAL]" = (
    weakref.WeakValueDictionary()
)


def writer_log(directory: str) -> Optional["TripleWAL"]:
    """The open log of ``directory`` whose writer graph this thread may read.

    None when no such log is open, when the directory may hold more than
    its writer's mutations, or when the caller is not on the thread that
    attached the writer (another thread could read the graph mid-mutation).
    """
    log = _WRITER_LOGS.get(os.path.realpath(directory))
    if log is None or log._writer_thread != threading.get_ident():
        return None
    return log


def segment_paths(directory: str) -> List[str]:
    """The ``wal-<n>.log`` segments of ``directory``, oldest first."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    # Zero-padded indexes sort lexicographically in index order.
    return [
        os.path.join(directory, name)
        for name in sorted(names)
        if name.startswith("wal-") and name.endswith(".log")
    ]


def _fsync_directory(directory: str) -> None:
    """Make the directory's entries (created, renamed files) durable."""
    handle = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(handle)
    finally:
        os.close(handle)


class TripleWAL:
    """Append-only triple log: size-rotated segments + base compaction.

    A directory of ``wal-<n>.log`` segments (sequenced, length+crc32
    framed records behind a magic header) plus an optional ``base.rkgs``
    snapshot that :meth:`compact` folds replayed segments into.  Attach
    to a graph with :meth:`KnowledgeGraph.attach_wal`; recover with
    :meth:`recover`.

    Every frame is flushed before an append returns, so it survives a
    crash of the process.  A segment is ``fsync``-ed when it is sealed
    (rotation or :meth:`close`), and a new ``base.rkgs`` and its
    directory are ``fsync``-ed before the segments it folds are deleted.

    :attr:`writer` is the attached graph when the directory holds nothing
    else: the directory was empty when this handle opened it, and the
    graph was empty when attached.  Replaying the directory then rebuilds
    exactly that graph.  :func:`writer_log` hands it out only on the thread
    that attached it.  The binding ends for good at :meth:`close` (and so
    at :meth:`compact` / :meth:`checkpoint`), at
    :meth:`KnowledgeGraph.detach_wal`, or when another handle opens the
    same directory.
    """

    BASE_BASENAME = "base.rkgs"
    _SEGMENT_FORMAT = "wal-{:08d}.log"

    def __init__(self, directory: str, segment_bytes: int = 1 << 20):
        if segment_bytes < 4096:
            raise ValueError(f"segment_bytes must be >= 4096, got {segment_bytes}")
        self.directory = directory
        self.segment_bytes = segment_bytes
        os.makedirs(directory, exist_ok=True)
        self._handle = None
        # One reentrant lock serializes appends, rotation, recovery, and
        # compaction/checkpointing: a compact that deletes segments while
        # another thread appends (or replays) would otherwise race the
        # segment list against the files on disk.
        self._lock = threading.RLock()
        self.writer: Optional[KnowledgeGraph] = None
        self._writer_thread: Optional[int] = None
        self.n_appended = 0
        # The sequence number of the next frame, and the open segment's
        # term table (its ids are the segment-local ids).
        self._seq = 0
        self._carried = TermDict()
        # Set when the open segment holds another handle's frames (this
        # handle does not know their terms): the next append rotates.
        self._rotate_due = False
        # True while the open segment holds writes not yet fsync-ed.
        self._dirty = False
        self._key = os.path.realpath(directory)
        # This handle may append or fold: another one's writer stops being
        # the whole directory.
        other = _WRITER_LOGS.get(self._key)
        if other is not None:
            other.release_writer()
        existing = self.segment_paths()
        self._fresh = not existing and not os.path.exists(self.base_path)
        if existing:
            self._segment_index = self._index_of(existing[-1])
            self._reopen(existing)
        else:
            self._segment_index = 1
            self._open_segment(self._segment_path(1), create=True)

    # ------------------------------------------------------------------
    # paths

    @property
    def base_path(self) -> str:
        return os.path.join(self.directory, self.BASE_BASENAME)

    def _segment_path(self, index: int) -> str:
        return os.path.join(self.directory, self._SEGMENT_FORMAT.format(index))

    @staticmethod
    def _index_of(path: str) -> int:
        basename = os.path.basename(path)
        return int(basename[len("wal-") : -len(".log")])

    def segment_paths(self) -> List[str]:
        """Existing segment files, oldest first."""
        return segment_paths(self.directory)

    # ------------------------------------------------------------------
    # writing

    def _reopen(self, existing: List[str]) -> None:
        """Open the last segment, cutting a torn tail off it first.

        Appending after a torn frame (a crash mid-append) would bury every
        later record behind bytes no reader gets past.  Only frame lengths
        are walked: a checksum mismatch, or a header that is not this
        format's, stays in place for recovery to report.  A segment that
        already holds frames is not appended to (its term table is not
        this handle's): the first append opens the next one.
        """
        last = existing[-1]
        try:
            read = read_segment_records(last, verify=False)
        except CodecError:
            self._open_segment(last, create=False)
            self._rotate_due = True
            return
        if not read.end:
            # The header itself is torn: rewrite it, numbering on from the
            # segment before.
            if len(existing) > 1:
                try:
                    self._seq = read_segment_records(existing[-2], verify=False).seq or 0
                except CodecError:
                    pass
            self._open_segment(last, create=True)
            return
        if read.end < os.path.getsize(last):
            os.truncate(last, read.end)
            obs_metrics.count("store.wal.truncated_tail")
        self._seq = read.seq
        self._open_segment(last, create=False)
        self._rotate_due = read.end > _WAL_HEADER.size

    def _open_segment(self, path: str, create: bool) -> None:
        if create:
            with open(path, "wb") as handle:
                handle.write(_WAL_HEADER.pack(WAL_MAGIC, WAL_VERSION, 0, self._seq))
        self._handle = open(path, "ab")
        self._carried = TermDict()
        self._rotate_due = False

    def append(self, record: Dict[str, object]) -> None:
        """Append one mutation record (flushed before returning)."""
        body = json.dumps(record, sort_keys=True).encode("utf-8")
        with self._lock:
            self._writable()
            self._write(_KIND_RECORD, body)

    def append_batch(self, rows: Sequence[Tuple[Triple, Optional[Provenance]]]) -> None:
        """Append one batch ingest's ``(triple, provenance)`` rows as one
        frame (flushed before returning).

        The frame carries the terms this segment has not carried yet, then
        the rows as segment-local ids and each row's provenance as an
        index into the frame's ``(source, extractor)`` table (-1: none)
        plus a confidence.
        """
        with self._lock:
            self._writable()
            carried = self._carried
            n_carried = len(carried)
            number = carried.add
            label_of: Dict[Tuple[str, Optional[str]], int] = {}
            label = label_of.setdefault
            try:
                # Local ids in row order (each row's s, p, o in turn): the
                # new terms are listed in the order the writer's store met them.
                ids = [
                    number(term)
                    for triple, _ in rows
                    for term in (triple.subject, triple.predicate, triple.object)
                ]
                labels = [
                    -1
                    if provenance is None
                    else label((provenance.source, provenance.extractor), len(label_of))
                    for _, provenance in rows
                ]
                confs = array(
                    "d",
                    [0.0 if provenance is None else provenance.confidence for _, provenance in rows],
                )
                terms = _encode_terms(carried._terms[n_carried:])
                label_table = _encode_terms([term for pair in label_of for term in pair])
            except BaseException:
                # Not written, so this segment's table now holds terms the
                # segment never carried: appends go on in a new segment.
                self._rotate_due = True
                raise
            body = b"".join(
                [
                    _BATCH_HEAD.pack(len(rows), len(terms), len(label_table)),
                    terms,
                    label_table,
                    array("i", ids[0::3]).tobytes(),
                    array("i", ids[1::3]).tobytes(),
                    array("i", ids[2::3]).tobytes(),
                    array("i", labels).tobytes(),
                    confs.tobytes(),
                ]
            )
            self._write(_KIND_BATCH, body)

    def _writable(self) -> None:
        if self._handle is None:
            raise ValueError("WAL is closed")
        if self._rotate_due:
            self._rotate()

    def _write(self, kind: int, body: bytes) -> None:
        """Frame ``body`` under the next sequence number and append it."""
        payload = _WAL_ENTRY.pack(self._seq, kind) + body
        handle = self._handle
        handle.write(_WAL_FRAME.pack(len(payload), zlib.crc32(payload)))
        handle.write(payload)
        handle.flush()
        self._seq += 1
        self._dirty = True
        self.n_appended += 1
        obs_metrics.count("store.wal.records")
        if handle.tell() >= self.segment_bytes:
            self._rotate()

    def _seal(self) -> None:
        """fsync the open segment if it was written to, and close it."""
        handle = self._handle
        if self._dirty:
            handle.flush()
            os.fsync(handle.fileno())
            self._dirty = False
        handle.close()
        self._handle = None

    def _rotate(self) -> None:
        self._seal()
        self._segment_index += 1
        self._open_segment(self._segment_path(self._segment_index), create=True)
        obs_metrics.count("store.wal.rotations")
        obs_metrics.gauge("store.wal.segments", len(self.segment_paths()))

    def bind_writer(self, graph: KnowledgeGraph) -> None:
        """Make ``graph`` the :attr:`writer` if the log holds nothing else."""
        with self._lock:
            if self._fresh and not self.n_appended and not len(graph) and not graph._entities:
                self.writer = graph
                self._writer_thread = threading.get_ident()
                _WRITER_LOGS[self._key] = self

    def release_writer(self) -> None:
        """End the :attr:`writer` binding (idempotent)."""
        with self._lock:
            self.writer = None
            self._fresh = False
            if _WRITER_LOGS.get(self._key) is self:
                del _WRITER_LOGS[self._key]

    def close(self) -> None:
        """Seal the open segment and close it (the WAL can be reopened by
        constructing a new :class:`TripleWAL` on the same directory)."""
        with self._lock:
            self.release_writer()
            if self._handle is not None:
                self._seal()

    # ------------------------------------------------------------------
    # recovery

    def recover(self, allow_partial: bool = False) -> KnowledgeGraph:
        """Rebuild the graph: load ``base.rkgs`` (if any), replay segments.

        A :class:`WALReplay` under the log's lock, so the result is a
        prefix of the log: a torn tail of the last segment is left out,
        and damage anywhere else raises :class:`CodecError` — or, with
        ``allow_partial``, ends the replay just before it.
        """
        with self._lock:
            replay = WALReplay(self.directory)
            n_records = replay.catch_up(allow_partial)
        obs_metrics.count("store.wal.replayed_records", n_records)
        return replay.graph

    # ------------------------------------------------------------------
    # compaction

    def compact(
        self, allow_partial: bool = False
    ) -> Tuple[KnowledgeGraph, Dict[str, object]]:
        """Fold all segments into ``base.rkgs``; returns (graph, stats).

        Recovery runs first; the new base is written atomically and made
        durable; only then are the folded segments deleted (a crash in
        between replays idempotently).  A fresh empty segment is opened
        for new appends.  The whole fold happens under the WAL lock, so
        concurrent appends and in-process replays serialize against it
        instead of racing the segment deletions.
        """
        with self._lock:
            self.close()
            segments = self.segment_paths()
            graph = self.recover(allow_partial=allow_partial)
            stats = self._install_base(graph, segments)
        return graph, stats

    def checkpoint(self, graph: KnowledgeGraph) -> Dict[str, object]:
        """Install ``graph`` as the new ``base.rkgs`` and drop all segments.

        Like :meth:`compact`, but the caller supplies the authoritative
        graph instead of replaying the log — the streaming finalize path
        uses this to persist the canonical (batch-equivalent) graph after
        a drain, discarding the incremental mutation history the segments
        hold.  Only correct when ``graph`` already reflects (or
        supersedes) every logged mutation.
        """
        with self._lock:
            self.close()
            segments = self.segment_paths()
            stats = self._install_base(graph, segments)
        return stats

    def _install_base(
        self, graph: KnowledgeGraph, segments: List[str]
    ) -> Dict[str, object]:
        """Write ``base.rkgs`` durably, drop ``segments``, reopen fresh.

        The new base is fsync-ed under a staging name, renamed over the
        old one, and the rename fsync-ed with the directory, all before
        any segment it folds is deleted.
        """
        staged = self.base_path + ".new"
        n_bytes = save_graph(graph, staged)
        with open(staged, "rb") as handle:
            os.fsync(handle.fileno())
        os.replace(staged, self.base_path)
        _fsync_directory(self.directory)
        for path in segments:
            os.remove(path)
        self._segment_index += 1
        self._open_segment(self._segment_path(self._segment_index), create=True)
        obs_metrics.count("store.wal.compactions")
        obs_metrics.gauge("store.wal.segments", 1)
        return {
            "n_segments_folded": len(segments),
            "base_path": self.base_path,
            "base_bytes": n_bytes,
            "n_triples": len(graph),
            "n_entities": len(graph._entities),
        }

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Operational counters (sizes in bytes, segment count, base)."""
        segments = self.segment_paths()
        return {
            "n_segments": len(segments),
            "segment_bytes_limit": self.segment_bytes,
            "wal_bytes": sum(os.path.getsize(path) for path in segments),
            "base_exists": os.path.exists(self.base_path),
            "base_bytes": (
                os.path.getsize(self.base_path) if os.path.exists(self.base_path) else 0
            ),
        }


# ---------------------------------------------------------------------------
# the one WAL reader (recovery, followers, open-time repair)


class WALBatch(NamedTuple):
    """One batch frame as read: rows of ids local to its segment.

    ``terms`` are the terms the segment carries from this frame on: id
    ``k`` of a segment is the ``k``-th term its frames carried.  Row
    ``i`` is ``(s[i], p[i], o[i])``; its provenance is
    ``labels[label[i]]`` with confidence ``conf[i]``, or none when
    ``label[i]`` is -1.
    """

    terms: List[Value]
    s: array
    p: array
    o: array
    label: array
    conf: array
    labels: List[Tuple[str, Optional[str]]]


class SegmentRead(NamedTuple):
    """What one :func:`read_segment_records` call found."""

    #: The whole records read: a dict per point mutation, a
    #: :class:`WALBatch` per batch ingest.
    records: List[Union[Dict[str, object], WALBatch]]
    #: Offset after the last whole record (0 while the header is torn).
    end: int
    #: The header's first sequence number, when the read began at byte 0.
    first: Optional[int]
    #: The sequence number the next record must carry.
    seq: Optional[int]


def _wal_damage(path: str, allow_partial: bool, message: str) -> None:
    """Raise for damage at ``path`` unless the caller stops before it."""
    if not allow_partial:
        raise CodecError(f"{path}: {message}")


def _decode_batch(body: memoryview, path: str) -> WALBatch:
    n_rows, n_term_bytes, n_label_bytes = _BATCH_HEAD.unpack_from(body, 0)
    offset = _BATCH_HEAD.size + n_term_bytes + n_label_bytes
    if len(body) != offset + 24 * n_rows:
        raise ValueError(f"{len(body)} bytes cannot hold {n_rows} rows")
    terms = _decode_terms(body[_BATCH_HEAD.size : _BATCH_HEAD.size + n_term_bytes], path)
    flat = _decode_terms(body[_BATCH_HEAD.size + n_term_bytes : offset], path)
    columns: List[array] = []
    for typecode in "iiiid":
        column = array(typecode)
        column.frombytes(body[offset : offset + column.itemsize * n_rows])
        columns.append(column)
        offset += column.itemsize * n_rows
    return WALBatch(terms, *columns, list(zip(flat[0::2], flat[1::2])))


def read_segment_records(
    path: str,
    offset: int = 0,
    seq: Optional[int] = None,
    allow_partial: bool = False,
    verify: bool = True,
) -> SegmentRead:
    """The whole records of one WAL segment from ``offset``.

    ``offset`` 0 starts at the header, whose first sequence number the
    first record must carry; a read resuming at a later offset passes
    the ``seq`` the previous read returned.  The scan stops before a
    torn frame (fewer bytes than its length claims) and leaves it to the
    caller to tell a writer mid-append from damage.  A foreign header
    (a v1 or v2 segment included), a checksum mismatch, a record whose
    sequence number is not the next one, or a checksummed record that
    does not decode raises :class:`CodecError`; with ``allow_partial``
    the scan stops before it instead.  ``verify=False`` walks frame
    lengths and sequence numbers only and returns no records.
    """
    first: Optional[int] = None
    with open(path, "rb") as handle:
        if offset <= _WAL_HEADER.size:
            header = handle.read(_WAL_HEADER.size)
            if len(header) >= _HEADER.size:
                magic, version, _flags = _HEADER.unpack_from(header)
                if (magic, version) != (WAL_MAGIC, WAL_VERSION):
                    _wal_damage(
                        path,
                        allow_partial,
                        f"not a v{WAL_VERSION} repro WAL segment (magic {magic!r}, "
                        f"version {version}); remove foreign files from the WAL "
                        f"directory, or compact it with the checkout that wrote it",
                    )
                    return SegmentRead([], 0, None, seq)
            if len(header) < _WAL_HEADER.size:
                return SegmentRead([], 0, None, seq)
            first = seq = _WAL_HEADER.unpack(header)[3]
            offset = _WAL_HEADER.size
        else:
            handle.seek(offset)
        blob = handle.read()
    records: List[Union[Dict[str, object], WALBatch]] = []
    view = memoryview(blob)
    position = 0
    total = len(blob)
    while position + _WAL_FRAME.size <= total:
        length, crc = _WAL_FRAME.unpack_from(blob, position)
        start = position + _WAL_FRAME.size
        end = start + length
        if end > total:
            break
        at = offset + position
        if verify:
            actual = zlib.crc32(view[start:end])
            if actual != crc:
                _wal_damage(
                    path,
                    allow_partial,
                    f"record checksum mismatch at byte {at} (stored "
                    f"{crc:#010x}, computed {actual:#010x}); the WAL is corrupt — "
                    f"replay with allow_partial=True to keep the prefix",
                )
                break
        if length < _WAL_ENTRY.size:
            if verify:
                _wal_damage(
                    path,
                    allow_partial,
                    f"record at byte {at} is too short to hold its sequence "
                    f"number; the WAL is corrupt",
                )
                break
            position = end
            continue
        number, kind = _WAL_ENTRY.unpack_from(blob, start)
        if verify:
            if seq is not None and number != seq:
                _wal_damage(
                    path,
                    allow_partial,
                    f"record at byte {at} is number {number}, not {seq}: a record "
                    f"before it is missing — restore it or replay with "
                    f"allow_partial=True to keep the prefix",
                )
                break
            body = view[start + _WAL_ENTRY.size : end]
            try:
                if kind == _KIND_RECORD:
                    records.append(json.loads(bytes(body)))
                elif kind == _KIND_BATCH:
                    records.append(_decode_batch(body, path))
                else:
                    raise ValueError(f"unknown record kind {kind}")
            except (ValueError, CodecError, struct.error) as exc:
                _wal_damage(
                    path,
                    allow_partial,
                    f"record at byte {at} passed its checksum but does not decode "
                    f"({exc}); the WAL is corrupt",
                )
                break
        seq = number + 1
        position = end
    return SegmentRead(records, offset + position, first, seq)


class _SegmentTerms:
    """The term table of the segment a replay is reading: each local
    id's term, and its id in the replayed graph's store."""

    __slots__ = ("terms", "ids")

    def __init__(self) -> None:
        self.terms: List[Value] = []
        self.ids: List[int] = []


def _apply_batch(
    graph: KnowledgeGraph, batch: WALBatch, table: _SegmentTerms, path: str
) -> None:
    """Replay one batch frame: what its ``add_triples_batch`` did.

    Each new term is interned once, in the order the writer first met
    it, so the store assigns the writer's ids.  On an empty graph the
    rows become the store's columns and the records its provenance base
    directly; otherwise each row is added by id into the delta.
    """
    terms, ids = table.terms, table.ids
    store = graph._store
    terms.extend(batch.terms)
    ids.extend(map(store._terms.add, batch.terms))
    s_local, p_local, o_local, label, conf = batch.s, batch.p, batch.o, batch.label, batch.conf
    labels = batch.labels
    if s_local and not (
        0 <= min(min(s_local), min(p_local), min(o_local))
        and max(max(s_local), max(p_local), max(o_local)) < len(ids)
        and -1 <= min(label)
        and max(label) < len(labels)
    ):
        raise CodecError(
            f"{path}: a batch record references terms or labels its segment "
            f"does not carry; the WAL is corrupt"
        )
    s_ids = [ids[term] for term in s_local]
    p_ids = [ids[term] for term in p_local]
    o_ids = [ids[term] for term in o_local]
    if not (
        store.n_base_rows
        or store.n_delta_rows
        or graph._provenance_base is not None
        or graph._provenance
    ):
        n = store.n_terms
        keys = [(s * n + p) * n + o for s, p, o in zip(s_ids, p_ids, o_ids)]
        store.install_keys(list(set(keys)))
        graph._provenance_base = ProvenanceColumns.from_rows(keys, label, conf, labels, n)
        if keys:
            graph._generation += 1
    else:
        add_row = store.add_row
        add_records = graph._add_records
        n_new = 0
        for row, id_row in enumerate(zip(s_ids, p_ids, o_ids)):
            is_new = add_row(id_row)
            n_new += is_new
            if label[row] >= 0:
                triple = Triple(terms[s_local[row]], terms[p_local[row]], terms[o_local[row]])
                add_records(triple, [Provenance(*labels[label[row]], conf[row])], is_new)
        if n_new:
            graph._generation += 1
    if obs_lineage.lineage_enabled():
        obs_lineage.record_observation_batch(
            (
                (terms[s], terms[p], terms[o], *labels[index], confidence)
                for s, p, o, index, confidence in zip(s_local, p_local, o_local, label, conf)
                if index >= 0
            ),
            stage="graph.add_triple",
        )


def apply_wal_records(
    graph: KnowledgeGraph,
    records: Iterable[Union[Dict[str, object], WALBatch]],
    path: str = "<wal>",
    table: Optional[_SegmentTerms] = None,
) -> int:
    """Apply decoded WAL records to ``graph``; returns how many.

    ``table`` is the term table of the segment the records come from,
    extended by its batch frames (a fresh one: the records start a
    segment).  Batch frames replay by id (:func:`_apply_batch`); point
    records go through the public API, consecutive ``add`` records as
    one ``add_triples_batch`` call.  Entity/merge application is
    idempotent, so re-replaying a prefix after a partially-complete
    compaction — or a follower restarting mid-stream — converges on the
    same state.
    """
    if table is None:
        table = _SegmentTerms()
    n_records = 0
    pending_adds: List[Tuple[Triple, Optional[Provenance]]] = []

    def flush_adds() -> None:
        if pending_adds:
            graph.add_triples_batch(pending_adds)
            pending_adds.clear()

    for record in records:
        n_records += 1
        if type(record) is WALBatch:
            flush_adds()
            _apply_batch(graph, record, table, path)
            continue
        op = record.get("op")
        if op == "add":
            prov = record.get("prov")
            pending_adds.append(
                (
                    Triple(record["s"], record["p"], record["o"]),
                    None if prov is None else Provenance(*prov),
                )
            )
            continue
        flush_adds()
        if op == "entity":
            entity_class = record["class"]
            if not graph.ontology.has_class(entity_class):
                graph.ontology.add_class(entity_class)
            # Idempotent: re-replay after a partially-complete
            # compaction may revisit entities already in the base.
            if not graph.has_entity(record["id"]):
                graph.add_entity(
                    record["id"],
                    record["name"],
                    entity_class,
                    aliases=record.get("aliases", ()),
                )
        elif op == "alias":
            if graph.has_entity(record["id"]):
                graph.add_alias(record["id"], record["alias"])
        elif op == "unalias":
            if graph.has_entity(record["id"]):
                graph.remove_alias(record["id"], record["alias"])
        elif op == "remove":
            graph.remove_triple(Triple(record["s"], record["p"], record["o"]))
        elif op == "merge":
            if graph.has_entity(record["drop"]):
                graph.merge_entities(record["keep"], record["drop"])
        else:
            raise CodecError(
                f"{path}: unknown WAL op {op!r}; the log was written by "
                f"a newer layout — compact with the checkout that wrote it"
            )
    flush_adds()
    return n_records


class WALReplay:
    """The graph a WAL directory holds, replayed from its files.

    ``base.rkgs`` (or an empty graph) plus the segments' records, applied
    in order by :meth:`catch_up`; ``segment``, ``offset`` and ``seq`` say
    how far it has read, and ``table`` holds the segment's term table, so
    the next call applies only what was appended since.  Records are
    numbered across the whole log, so a missing record or segment stops
    the replay like damage does.  It reads files only, taking no lock:
    :meth:`TripleWAL.recover` runs one under the log's lock, and a
    :class:`~repro.stream.publish.WALFollower` replica keeps one and
    catches it up on every poll.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.base_signature = self._stat_base()
        if self.base_signature is None:
            self.graph = KnowledgeGraph(ontology=Ontology(), name="wal")
        else:
            self.graph = load_graph(os.path.join(directory, TripleWAL.BASE_BASENAME))
        self.segment: Optional[str] = None
        self.previous: Optional[str] = None
        self.offset = 0
        # A log without a base starts at record 0; after a base, at
        # whatever its first segment says.
        self.seq: Optional[int] = 0 if self.base_signature is None else None
        self.table = _SegmentTerms()

    def _stat_base(self) -> Optional[Tuple[int, int]]:
        try:
            stat = os.stat(os.path.join(self.directory, TripleWAL.BASE_BASENAME))
        except FileNotFoundError:
            return None
        return (stat.st_size, stat.st_mtime_ns)

    def base_changed(self) -> bool:
        """True once ``base.rkgs`` was replaced (checkpoint or compaction)."""
        return self._stat_base() != self.base_signature

    def catch_up(self, allow_partial: bool = False) -> int:
        """Apply the records appended since the last call; returns how many.

        Reading stops at the first frame that is not whole.  On the newest
        segment that is a torn tail (a writer mid-append, or a crash) and
        the next call resumes there.  On an older segment it is damage:
        :class:`CodecError`, or with ``allow_partial`` the end of the
        replay.  So is a segment that does not start with the record
        after the last one read.  Raises FileNotFoundError when the
        segment being read was folded away.
        """
        applied = 0
        while True:
            # Listed before the read: a segment with a successor was
            # whole by then, so a short read of it is damage, not a race.
            segments = segment_paths(self.directory)
            if self.segment is None:
                if not segments:
                    return applied
                self.segment = segments[0]
            if self.segment not in segments:
                raise FileNotFoundError(self.segment)
            read = read_segment_records(self.segment, self.offset, self.seq, allow_partial)
            if read.first is not None and self.seq is not None and read.first != self.seq:
                if self.previous is None:
                    damaged = self.segment
                    gap = f"the log starts at record {read.first}, not {self.seq}"
                else:
                    damaged = self.previous
                    gap = (
                        f"ends before record {self.seq}, but {self.segment} "
                        f"starts at record {read.first}"
                    )
                _wal_damage(
                    damaged,
                    allow_partial,
                    f"{gap}: a record or segment is missing — restore it or "
                    f"replay with allow_partial=True to keep the prefix",
                )
                return applied
            applied += apply_wal_records(self.graph, read.records, self.segment, self.table)
            self.offset, self.seq = read.end, read.seq
            following = segments.index(self.segment) + 1
            if following == len(segments):
                return applied
            if not 0 < self.offset == os.path.getsize(self.segment):
                _wal_damage(
                    self.segment,
                    allow_partial,
                    f"non-final segment ends mid-record at byte {self.offset}; "
                    f"restore the segment or replay with allow_partial=True",
                )
                return applied
            self.previous = self.segment
            self.segment, self.offset = segments[following], 0
            self.table = _SegmentTerms()
