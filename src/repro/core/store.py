"""Columnar, dictionary-encoded triple storage (the web-scale layout).

The paper's trajectory from entity-based KGs to Knowledge Vault-style
web-scale construction (Sec. 2-3) assumes graphs far larger than a
Python ``Set[Triple]`` of string tuples can hold.  Production triple
stores answer that with two ideas (Hogan et al., *Knowledge Graphs*):

* **dictionary encoding** — every distinct term (entity id, predicate,
  literal value) maps to one small integer; triples become ``(int, int,
  int)`` rows and every string is stored exactly once;
* **index-per-permutation** — the rows are kept sorted in SPO, POS, and
  OSP orders as plain int columns, so any pattern with a bound prefix is
  a binary search plus a contiguous slice instead of a hash-table walk.

:class:`ColumnarTripleStore` implements both on ``array('q')`` columns
(8 bytes per component, no per-row object headers), with an LSM-flavored
**delta overlay** on top: mutations land in small dict-backed adds plus
a tombstone set over the sorted base, and :meth:`compact` merges them
back into the columns.  Reads merge base and delta, so the store
supports the full read/write API of
:class:`~repro.core.graph.KnowledgeGraph`, whose only triple storage it
is (pinned against a plain set-of-rows model,
``tests/oracles.py::SetGraph``, by ``tests/test_perf_equivalence.py``).

A term is its type plus its value (a literal is its lexical form plus
its datatype): ``1``, ``1.0`` and ``True`` are three terms with three
ids, and decoding returns each exactly as it was added.  :func:`term_key`
is that rule, and the one place it is decided.

:class:`ProvenanceColumns` extends the layout to per-(triple, source)
provenance: sorted id columns of the keyed triples, CSR offsets into
(label, confidence) record columns, and a small ``(source, extractor)``
label table — what a snapshot writes and loads without parsing.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.triple import Provenance, Value
from repro.obs import metrics as obs_metrics

#: Delta rows + tombstones tolerated before :meth:`ColumnarTripleStore.add`
#: / :meth:`~ColumnarTripleStore.remove` triggers an automatic compaction.
#: The threshold scales with the base so steady bulk loads compact
#: O(log n) times, not O(n).
AUTO_COMPACT_MIN = 4096

_intern = sys.intern


def term_key(term: Value) -> object:
    """The dictionary key of a term: what makes two terms one.

    ``str`` and ``int`` terms are their own key (no ``str`` equals an
    ``int``); ``float`` and ``bool`` terms are keyed with their type, so
    ``1``, ``1.0`` and ``True`` stay apart.  Subjects and predicates are
    strings, so lookups of those skip this and probe with the term.
    """
    kind = type(term)
    if kind is str or kind is int:
        return term
    return (kind, term)


class TermDict:
    """Bidirectional term <-> int-id dictionary, keyed by :func:`term_key`.

    Ids are dense, assigned in order of first sight, and never recycled (a
    removed triple's terms keep their ids — standard dictionary-encoding
    practice, and what keeps snapshot/WAL references stable).  String
    terms are passed through :func:`sys.intern` so every graph in the
    process shares one canonical object per distinct string.
    """

    __slots__ = ("_id_of", "_terms")

    def __init__(self) -> None:
        self._id_of: Dict[object, int] = {}
        self._terms: List[Value] = []

    def add(self, term: Value) -> int:
        """The term's id, allocating one on first sight."""
        # Most terms are strings, which are their own key: skip the call.
        key = term if type(term) is str else term_key(term)
        term_id = self._id_of.get(key)
        if term_id is None:
            if type(term) is str:
                term = key = _intern(term)
            term_id = len(self._terms)
            self._id_of[key] = term_id
            self._terms.append(term)
        return term_id

    def get(self, term: Value) -> Optional[int]:
        """The term's id, or None when it was never seen."""
        return self._id_of.get(term_key(term))

    def decode(self, term_id: int) -> Value:
        """The term an id stands for."""
        return self._terms[term_id]

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: Value) -> bool:
        return term_key(term) in self._id_of

    def terms(self) -> List[Value]:
        """All terms in id order (the snapshot dictionary section)."""
        return list(self._terms)

    def clone(self) -> "TermDict":
        clone = TermDict()
        clone._id_of = dict(self._id_of)
        clone._terms = list(self._terms)
        return clone

    @classmethod
    def _from_terms(cls, terms: List[Value]) -> "TermDict":
        """Trusted bulk construction from an id-ordered term list.

        Built with C-level ``dict(zip(...))`` instead of per-term adds —
        the snapshot-load path.  Raises on a duplicate term, which a
        well-formed snapshot can never contain.
        """
        interned = [_intern(term) if type(term) is str else term for term in terms]
        term_dict = cls()
        term_dict._terms = interned
        term_dict._id_of = dict(zip(map(term_key, interned), range(len(interned))))
        if len(term_dict._id_of) != len(interned):
            raise ValueError("term dictionary holds a duplicate term")
        return term_dict

    def memory_bytes(self) -> int:
        """Approximate heap bytes: maps plus the term payloads themselves."""
        total = sys.getsizeof(self._id_of) + sys.getsizeof(self._terms)
        for term in self._terms:
            total += sys.getsizeof(term)
        return total


def _split_keys(keys: List[int], n: int) -> Tuple[array, array, array]:
    """The three id columns of packed ``(a * n + b) * n + c`` row keys."""
    n_squared = n * n
    return (
        array("q", [key // n_squared for key in keys]),
        array("q", [key // n % n for key in keys]),
        array("q", [key % n for key in keys]),
    )


class BulkLoader:
    """Accumulates rows for an empty store, installing columns once.

    Obtained from :meth:`ColumnarTripleStore.bulk_loader`; ``add`` returns
    the same newness bool as :meth:`ColumnarTripleStore.add`, and
    :meth:`finish` must be called (even after a partial batch) to land
    the accumulated rows — callers do it in a ``finally`` block so an
    interrupted batch keeps exactly the rows it processed.
    """

    __slots__ = ("_store", "_known", "_encode", "_rows", "_finished")

    def __init__(self, store: ColumnarTripleStore) -> None:
        self._store = store
        self._known = store._terms._id_of.get
        self._encode = store._terms.add
        self._rows: Set[Tuple[int, int, int]] = set()
        self._finished = False

    def add(self, subject: str, predicate: str, obj: Value) -> bool:
        """Stage a triple; True when not already staged (i.e. new)."""
        # TermDict.add, with its lookup inlined: most terms repeat.
        known, encode = self._known, self._encode
        s = known(subject)
        if s is None:
            s = encode(subject)
        p = known(predicate)
        if p is None:
            p = encode(predicate)
        o = known(term_key(obj))
        if o is None:
            o = encode(obj)
        rows = self._rows
        n_rows = len(rows)
        rows.add((s, p, o))
        return len(rows) != n_rows

    def finish(self) -> None:
        """Sort the staged rows and install them as the store's base."""
        if self._finished:
            return
        self._finished = True
        n = self._store.n_terms
        self._store.install_keys([(s * n + p) * n + o for s, p, o in self._rows])
        self._rows = set()


class ColumnarTripleStore:
    """Sorted int columns per permutation + a mutable delta overlay.

    Base storage is nine ``array('q')`` columns — three per permutation,
    each permutation's rows sorted by its own (first, second, third)
    component order — holding one entry per triple.  Mutations never
    touch the sorted arrays: adds land in nested int-keyed delta dicts
    (one per permutation) and deletes of base rows land in a tombstone
    set; :meth:`compact` folds both back into fresh
    columns.  All read methods merge base − tombstones + delta.
    """

    def __init__(self) -> None:
        self._terms = TermDict()
        # Base permutations: column tuples in each permutation's own order.
        self._spo = (array("q"), array("q"), array("q"))  # (s, p, o)
        self._pos = (array("q"), array("q"), array("q"))  # (p, o, s)
        self._osp = (array("q"), array("q"), array("q"))  # (o, s, p)
        self._n_base = 0
        # Delta overlay: adds not yet merged into the columns.
        self._delta_spo: Dict[int, Dict[int, Set[int]]] = {}
        self._delta_pos: Dict[int, Dict[int, Set[int]]] = {}
        self._delta_osp: Dict[int, Dict[int, Set[int]]] = {}
        self._n_delta = 0
        # Base rows logically deleted, as (s, p, o) id tuples.
        self._tombstones: Set[Tuple[int, int, int]] = set()
        self.n_compactions = 0

    # ------------------------------------------------------------------
    # identity / size

    @property
    def n_terms(self) -> int:
        """Distinct dictionary-encoded terms (the id-table size)."""
        return len(self._terms)

    @property
    def n_base_rows(self) -> int:
        return self._n_base

    @property
    def n_delta_rows(self) -> int:
        return self._n_delta

    def __len__(self) -> int:
        return self._n_base - len(self._tombstones) + self._n_delta

    # ------------------------------------------------------------------
    # encoding helpers

    def row_ids(
        self, subject: Value, predicate: Value, obj: Value
    ) -> Optional[Tuple[int, int, int]]:
        """Id triple when every term is known, else None (triple absent)."""
        get = self._terms._id_of.get
        s = get(subject)
        if s is None:
            return None
        p = get(predicate)
        if p is None:
            return None
        o = get(term_key(obj))
        if o is None:
            return None
        return (s, p, o)

    def _base_contains(self, row: Tuple[int, int, int]) -> bool:
        s_col, p_col, o_col = self._spo
        lo = bisect_left(s_col, row[0])
        hi = bisect_right(s_col, row[0], lo)
        lo = bisect_left(p_col, row[1], lo, hi)
        hi = bisect_right(p_col, row[1], lo, hi)
        lo = bisect_left(o_col, row[2], lo, hi)
        return lo < hi and o_col[lo] == row[2]

    def _delta_contains(self, row: Tuple[int, int, int]) -> bool:
        by_predicate = self._delta_spo.get(row[0])
        if not by_predicate:
            return False
        objects = by_predicate.get(row[1])
        return bool(objects) and row[2] in objects

    # ------------------------------------------------------------------
    # mutation

    def add(self, subject: str, predicate: str, obj: Value) -> bool:
        """Insert a triple; True when it was not already present."""
        encode = self._terms.add
        return self.add_row((encode(subject), encode(predicate), encode(obj)))

    def add_row(self, row: Tuple[int, int, int]) -> bool:
        """:meth:`add` for a triple already encoded as dictionary ids."""
        if self._delta_contains(row):
            return False
        if self._base_contains(row):
            # Resurrecting a tombstoned base row just clears the tombstone.
            if row in self._tombstones:
                self._tombstones.discard(row)
                return True
            return False
        s, p, o = row
        self._delta_spo.setdefault(s, {}).setdefault(p, set()).add(o)
        self._delta_pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self._delta_osp.setdefault(o, {}).setdefault(s, set()).add(p)
        self._n_delta += 1
        self._maybe_compact()
        return True

    def remove(self, subject: str, predicate: str, obj: Value) -> bool:
        """Delete a triple; True when it existed."""
        row = self.row_ids(subject, predicate, obj)
        if row is None:
            return False
        if self._delta_contains(row):
            s, p, o = row
            self._prune_delta(self._delta_spo, s, p, o)
            self._prune_delta(self._delta_pos, p, o, s)
            self._prune_delta(self._delta_osp, o, s, p)
            self._n_delta -= 1
            return True
        if self._base_contains(row) and row not in self._tombstones:
            self._tombstones.add(row)
            self._maybe_compact()
            return True
        return False

    @staticmethod
    def _prune_delta(
        index: Dict[int, Dict[int, Set[int]]], a: int, b: int, c: int
    ) -> None:
        by_b = index[a]
        values = by_b[b]
        values.discard(c)
        if not values:
            del by_b[b]
            if not by_b:
                del index[a]

    def contains(self, subject: str, predicate: str, obj: Value) -> bool:
        row = self.row_ids(subject, predicate, obj)
        if row is None:
            return False
        if self._delta_contains(row):
            return True
        return self._base_contains(row) and row not in self._tombstones

    def bulk_loader(self) -> "BulkLoader":
        """A fast row loader for an **empty** store.

        Per-row work collapses to encode + one set probe — no delta
        maintenance, no base bisects, no progressive auto-compactions —
        and :meth:`BulkLoader.finish` sorts and installs the columns once.
        Newness semantics match per-row :meth:`add` exactly (on an empty
        store every first occurrence is new).
        """
        if self._n_base or self._n_delta or self._tombstones:
            raise ValueError("bulk_loader requires an empty store")
        return BulkLoader(self)

    # ------------------------------------------------------------------
    # compaction

    def _maybe_compact(self) -> None:
        churn = self._n_delta + len(self._tombstones)
        if churn >= AUTO_COMPACT_MIN and churn >= self._n_base:
            self.compact()

    def compact(self) -> None:
        """Fold delta adds and tombstones into fresh sorted base columns."""
        if not self._n_delta and not self._tombstones:
            return
        n = self.n_terms
        self.install_keys([(s * n + p) * n + o for s, p, o in self.iter_rows()])
        self._delta_spo = {}
        self._delta_pos = {}
        self._delta_osp = {}
        self._n_delta = 0
        self._tombstones = set()
        self.n_compactions += 1
        obs_metrics.count("store.columnar.compactions")
        obs_metrics.gauge("store.columnar.base_rows", self._n_base)
        obs_metrics.gauge("store.columnar.terms", self.n_terms)

    def install_keys(self, keys: List[int]) -> None:
        """Install the rows ``keys`` encode as the base (sorts ``keys``).

        A row ``(s, p, o)`` is one int, ``(s * n + p) * n + o`` with ``n``
        the dictionary size; ``keys`` are unique and not tombstoned.  Each
        permutation is one sort of such ints, which, unlike tuples, the
        garbage collector does not track, and each column is one list
        comprehension over its sorted keys.
        """
        n = self.n_terms
        n_squared = n * n
        keys.sort()
        self._spo = _split_keys(keys, n)
        # (p * n + o) * n + s and (o * n + s) * n + p, from (s * n + p) * n + o.
        pos = [key % n_squared * n + key // n_squared for key in keys]
        pos.sort()
        self._pos = _split_keys(pos, n)
        osp = [key % n * n_squared + key // n for key in keys]
        osp.sort()
        self._osp = _split_keys(osp, n)
        self._n_base = len(keys)

    # ------------------------------------------------------------------
    # iteration

    def iter_rows(self) -> Iterator[Tuple[int, int, int]]:
        """All live rows as ``(s, p, o)`` ids: base in SPO order, then delta."""
        yield from self._iter_base_rows()
        for s, by_predicate in self._delta_spo.items():
            for p, objects in by_predicate.items():
                for o in objects:
                    yield (s, p, o)

    def _iter_base_rows(self) -> Iterator[Tuple[int, int, int]]:
        """Live base rows (tombstones skipped), in SPO order."""
        s_col, p_col, o_col = self._spo
        tombstones = self._tombstones
        if tombstones:
            for i in range(self._n_base):
                row = (s_col[i], p_col[i], o_col[i])
                if row not in tombstones:
                    yield row
        else:
            for i in range(self._n_base):
                yield (s_col[i], p_col[i], o_col[i])

    def iter_triples(self) -> Iterator[Tuple[str, str, Value]]:
        """All live triples as decoded terms (order unspecified)."""
        decode = self._terms.decode
        for s, p, o in self.iter_rows():
            yield (decode(s), decode(p), decode(o))

    # ------------------------------------------------------------------
    # base range scans (binary search on the permutation columns)

    @staticmethod
    def _prefix_range(
        cols: Tuple[array, array, array], a: int, b: Optional[int] = None
    ) -> Tuple[int, int]:
        """The contiguous [lo, hi) row range matching a 1- or 2-term prefix."""
        c0, c1, _ = cols
        lo = bisect_left(c0, a)
        hi = bisect_right(c0, a, lo)
        if b is not None:
            lo = bisect_left(c1, b, lo, hi)
            hi = bisect_right(c1, b, lo, hi)
        return lo, hi

    def _scan(
        self,
        perm: str,
        cols: Tuple[array, array, array],
        a: int,
        b: Optional[int] = None,
    ) -> Iterator[Tuple[int, int, int]]:
        """Live base rows under a prefix, yielded in permutation order.

        ``perm`` names the column order so tombstones (stored as SPO
        tuples) can be checked.
        """
        lo, hi = self._prefix_range(cols, a, b)
        if lo >= hi:
            return
        c0, c1, c2 = cols
        tombstones = self._tombstones
        for i in range(lo, hi):
            row = (c0[i], c1[i], c2[i])
            if tombstones:
                if perm == "spo":
                    key = row
                elif perm == "pos":
                    key = (row[2], row[0], row[1])
                else:  # osp: (o, s, p) -> (s, p, o)
                    key = (row[1], row[2], row[0])
                if key in tombstones:
                    continue
            yield row

    # ------------------------------------------------------------------
    # merged row reads (what the graph's query paths consume)

    def _thirds(
        self,
        perm: str,
        cols: Tuple[array, array, array],
        delta: Dict[int, Dict[int, Set[int]]],
        a: Optional[int],
        b: Optional[int],
    ) -> List[Value]:
        """The third terms of the live rows under the id prefix ``(a, b)``,
        decoded (none when either id is None: its term was never seen)."""
        if a is None or b is None:
            return []
        decode = self._terms._terms.__getitem__
        result = [decode(row[2]) for row in self._scan(perm, cols, a, b)]
        by_b = delta.get(a)
        if by_b:
            result.extend(map(decode, by_b.get(b, ())))
        return result

    def _pairs(
        self,
        perm: str,
        cols: Tuple[array, array, array],
        delta: Dict[int, Dict[int, Set[int]]],
        a: Optional[int],
    ) -> List[Tuple[Value, Value]]:
        """The (second, third) terms of the live rows under the id ``a``,
        decoded: base rows in permutation order, then the delta."""
        if a is None:
            return []
        decode = self._terms._terms.__getitem__
        result = [(decode(b), decode(c)) for _, b, c in self._scan(perm, cols, a)]
        for b, values in delta.get(a, {}).items():
            second = decode(b)
            result.extend([(second, decode(c)) for c in values])
        return result

    def objects(self, subject: str, predicate: str) -> List[Value]:
        """All objects of (subject, predicate, ?)."""
        get = self._terms._id_of.get
        return self._thirds("spo", self._spo, self._delta_spo, get(subject), get(predicate))

    def subjects(self, predicate: str, obj: Value) -> List[str]:
        """All subjects of (?, predicate, object)."""
        get = self._terms._id_of.get
        return self._thirds(
            "pos", self._pos, self._delta_pos, get(predicate), get(term_key(obj))
        )

    def predicates(self, subject: str, obj: Value) -> List[str]:
        """All predicates of (subject, ?, object)."""
        get = self._terms._id_of.get
        return self._thirds("osp", self._osp, self._delta_osp, get(term_key(obj)), get(subject))

    def spo_row(self, subject: str) -> List[Tuple[str, Value]]:
        """(predicate, object) of every row with this subject."""
        return self._pairs("spo", self._spo, self._delta_spo, self._terms._id_of.get(subject))

    def pos_row(self, predicate: str) -> List[Tuple[Value, str]]:
        """(object, subject) of every row with this predicate."""
        return self._pairs("pos", self._pos, self._delta_pos, self._terms._id_of.get(predicate))

    def osp_row(self, obj: Value) -> List[Tuple[str, str]]:
        """(subject, predicate) of every row with this object."""
        return self._pairs("osp", self._osp, self._delta_osp, self._terms.get(obj))

    def edges(self, term: Value) -> List[Tuple[int, int, bool]]:
        """Every row touching ``term`` as ``(p_id, other_id, outgoing)`` ids.

        Rows with ``term`` as subject (``outgoing``, other = the object)
        come from the SPO range and the delta, then rows with ``term`` as
        object (other = the subject) from the OSP range and the delta;
        tombstoned rows are skipped and nothing is decoded.  A
        ``(term, p, term)`` loop appears once each way.
        """
        t = self._terms.get(term)
        if t is None:
            return []
        tombstones = self._tombstones
        _, p_col, o_col = self._spo
        lo, hi = self._prefix_range(self._spo, t)
        result = [
            (p, o, True)
            for p, o in zip(p_col[lo:hi], o_col[lo:hi])
            if not tombstones or (t, p, o) not in tombstones
        ]
        for p, objects in self._delta_spo.get(t, {}).items():
            result.extend([(p, o, True) for o in objects])
        _, s_col, p_col = self._osp
        lo, hi = self._prefix_range(self._osp, t)
        result.extend(
            [
                (p, s, False)
                for s, p in zip(s_col[lo:hi], p_col[lo:hi])
                if not tombstones or (s, p, t) not in tombstones
            ]
        )
        for s, predicates in self._delta_osp.get(t, {}).items():
            result.extend([(p, s, False) for p in predicates])
        return result

    def decoder(self) -> Callable[[int], Value]:
        """id -> term as one bound lookup, for loops that decode many ids;
        ids are never recycled, so it stays valid while the store lives."""
        return self._terms._terms.__getitem__

    # ------------------------------------------------------------------
    # cardinalities (index row sizes without materializing triples)

    def _count(
        self,
        perm: str,
        cols: Tuple[array, array, array],
        delta: Dict[int, Dict[int, Set[int]]],
        a: Optional[int],
        b: Optional[int] = None,
    ) -> int:
        if a is None:
            return 0
        lo, hi = self._prefix_range(cols, a, b)
        count = hi - lo
        if count and self._tombstones:
            count = sum(1 for _ in self._scan(perm, cols, a, b))
        by_b = delta.get(a)
        if by_b:
            if b is None:
                count += sum(len(values) for values in by_b.values())
            else:
                count += len(by_b.get(b, ()))
        return count

    def count_sp(self, subject: str, predicate: str) -> int:
        get = self._terms._id_of.get
        s, p = get(subject), get(predicate)
        return 0 if s is None or p is None else self._count("spo", self._spo, self._delta_spo, s, p)

    def count_s(self, subject: str) -> int:
        return self._count("spo", self._spo, self._delta_spo, self._terms._id_of.get(subject))

    def count_po(self, predicate: str, obj: Value) -> int:
        get = self._terms._id_of.get
        p, o = get(predicate), get(term_key(obj))
        return 0 if p is None or o is None else self._count("pos", self._pos, self._delta_pos, p, o)

    def count_p(self, predicate: str) -> int:
        return self._count("pos", self._pos, self._delta_pos, self._terms._id_of.get(predicate))

    def count_os(self, obj: Value, subject: str) -> int:
        get = self._terms._id_of.get
        o, s = get(term_key(obj)), get(subject)
        return 0 if o is None or s is None else self._count("osp", self._osp, self._delta_osp, o, s)

    def count_o(self, obj: Value) -> int:
        return self._count("osp", self._osp, self._delta_osp, self._terms.get(obj))

    # ------------------------------------------------------------------
    # bulk load / clone / accounting

    @classmethod
    def from_columns(
        cls,
        terms: List[Value],
        s_col: Iterable[int],
        p_col: Iterable[int],
        o_col: Iterable[int],
    ) -> "ColumnarTripleStore":
        """Rebuild a store from a snapshot's dictionary and SPO columns.

        The term list is trusted to be in id order; rows are re-sorted, so
        column order in the file does not matter.
        """
        store = cls()
        store._terms = TermDict._from_terms(terms)
        n = len(terms)
        store.install_keys(list({(s * n + p) * n + o for s, p, o in zip(s_col, p_col, o_col)}))
        return store

    def columns(self) -> Tuple[List[Value], array, array, array]:
        """(terms, s, p, o) with every live row folded in (for snapshots)."""
        self.compact()
        return (self._terms.terms(), self._spo[0], self._spo[1], self._spo[2])

    def sorted_columns(
        self,
    ) -> Tuple[
        List[Value],
        Tuple[array, array, array],
        Tuple[array, array, array],
        Tuple[array, array, array],
    ]:
        """(terms, spo, pos, osp) fully compacted — all nine base columns.

        Snapshots persist every permutation so loading is a straight
        ``array.frombytes`` with no re-sorting or re-indexing.
        """
        self.compact()
        return (self._terms.terms(), self._spo, self._pos, self._osp)

    @classmethod
    def from_sorted_columns(
        cls,
        terms: List[Value],
        spo: Tuple[array, array, array],
        pos: Tuple[array, array, array],
        osp: Tuple[array, array, array],
    ) -> "ColumnarTripleStore":
        """Install snapshot columns directly, trusting their sort order.

        The columns come from :meth:`sorted_columns` via the checksummed
        snapshot codec, so they are sorted, unique, and untombstoned by
        construction; only cheap shape invariants are re-checked here.
        """
        n_rows = len(spo[0])
        for perm in (spo, pos, osp):
            if len(perm) != 3 or any(len(col) != n_rows for col in perm):
                raise ValueError("permutation columns disagree on row count")
        store = cls()
        store._terms = TermDict._from_terms(terms)
        store._spo = spo
        store._pos = pos
        store._osp = osp
        store._n_base = n_rows
        return store

    def clone(self) -> "ColumnarTripleStore":
        """An independent store that shares the nine base columns.

        Invariant: a base ``array('q')`` column is never written in place
        — :meth:`install_keys` always installs fresh arrays — so
        sharing them by reference is safe.  Only the delta overlay, the
        tombstones and the term dictionary are copied.
        """
        clone = ColumnarTripleStore()
        clone._terms = self._terms.clone()
        clone._spo, clone._pos, clone._osp = self._spo, self._pos, self._osp
        clone._n_base = self._n_base
        clone._delta_spo = {
            a: {b: set(c) for b, c in row.items()} for a, row in self._delta_spo.items()
        }
        clone._delta_pos = {
            a: {b: set(c) for b, c in row.items()} for a, row in self._delta_pos.items()
        }
        clone._delta_osp = {
            a: {b: set(c) for b, c in row.items()} for a, row in self._delta_osp.items()
        }
        clone._n_delta = self._n_delta
        clone._tombstones = set(self._tombstones)
        return clone

    def memory_bytes(self) -> int:
        """Approximate heap bytes of the triple storage (columns + delta +
        tombstones + term dictionary)."""
        total = self._terms.memory_bytes()
        for perm in (self._spo, self._pos, self._osp):
            for col in perm:
                total += sys.getsizeof(col)
        for delta in (self._delta_spo, self._delta_pos, self._delta_osp):
            total += sys.getsizeof(delta)
            for by_b in delta.values():
                total += sys.getsizeof(by_b)
                for values in by_b.values():
                    total += sys.getsizeof(values)
        total += sys.getsizeof(self._tombstones) + 64 * len(self._tombstones)
        return total

    def stats(self) -> Dict[str, int]:
        """Operational counters (surfaced through ``kg.stats()`` and obs)."""
        return {
            "n_terms": self.n_terms,
            "n_base_rows": self._n_base,
            "n_delta_rows": self._n_delta,
            "n_tombstones": len(self._tombstones),
            "n_compactions": self.n_compactions,
        }


class ProvenanceColumns:
    """Per-triple provenance as immutable columns keyed by term ids.

    The keyed triples are the ``s`` / ``p`` / ``o`` id columns, sorted by
    id; triple ``i`` owns records ``start[i]`` up to ``start[i + 1]``
    (CSR offsets), each a ``label`` — an index into ``labels``, the
    distinct ``(source, extractor)`` pairs numbered in order of first
    appearance — and a confidence in ``conf``.  Like the store's base
    columns it is never written in place (only its cache of built
    records grows), so graph copies share it by reference;
    :class:`~repro.core.graph.KnowledgeGraph` keeps changes in a
    triple-keyed delta that overrides it.
    """

    __slots__ = ("s", "p", "o", "start", "label", "conf", "labels", "_shared")

    def __init__(
        self,
        s: array,
        p: array,
        o: array,
        start: array,
        label: array,
        conf: array,
        labels: List[Tuple[str, Optional[str]]],
    ) -> None:
        self.s, self.p, self.o = s, p, o
        self.start = start
        self.label = label
        self.conf = conf
        self.labels = labels
        self._shared: Dict[Tuple[int, float], Provenance] = {}

    @classmethod
    def empty(cls) -> "ProvenanceColumns":
        """Columns keying no triple (what a graph without provenance saves)."""
        return cls(
            array("q"), array("q"), array("q"), array("q", [0]), array("q"), array("d"), []
        )

    @classmethod
    def fold(
        cls,
        base: Optional["ProvenanceColumns"],
        overrides: Iterable[Tuple[Tuple[int, int, int], Sequence[Provenance]]],
        n_terms: int,
    ) -> Optional["ProvenanceColumns"]:
        """New columns: ``base`` (if any) with ``overrides`` applied.

        ``overrides`` are ``(id triple, records)`` pairs; an entry replaces
        the base's records for its triple, and an empty one removes them.
        None when no triple is left with records.  Triples are sorted
        under one int each, ``(s * n + p) * n + o`` with every id below
        ``n``, which orders like the id triple but, unlike a tuple, is not
        an object the garbage collector tracks: a 60k-triple fold keeps
        no per-triple container alive to trigger a full collection.
        """
        n = n_terms
        by_key = {(s * n + p) * n + o: records for (s, p, o), records in overrides}
        if base is not None:
            s_col, p_col, o_col = base.s, base.p, base.o
            for index, (s, p, o) in enumerate(zip(s_col, p_col, o_col)):
                key = (s * n + p) * n + o
                if key not in by_key:
                    by_key[key] = base._records_at(index)
        keys = sorted(key for key, records in by_key.items() if records)
        if not keys:
            return None
        groups = [by_key[key] for key in keys]
        flat = [record for records in groups for record in records]
        # Labels are numbered in order of first appearance.
        label_of: Dict[Tuple[str, Optional[str]], int] = {}
        number = label_of.setdefault
        return cls(
            *_split_keys(keys, n),
            array("q", accumulate(map(len, groups), initial=0)),
            array("q", [number((r.source, r.extractor), len(label_of)) for r in flat]),
            array("d", [r.confidence for r in flat]),
            list(label_of),
        )

    @classmethod
    def from_rows(
        cls,
        keys: Sequence[int],
        label: array,
        conf: array,
        labels: List[Tuple[str, Optional[str]]],
        n_terms: int,
    ) -> Optional["ProvenanceColumns"]:
        """Columns of one record per row, where ``label[row]`` is not -1.

        Row ``row`` is the id triple packed as ``keys[row]`` (as in
        :meth:`fold`), its record the pair ``labels[label[row]]`` with
        confidence ``conf[row]``.  A triple's records keep row order, and
        the result is the one :meth:`fold` makes of the same records.
        """
        rows = [row for row in range(len(keys)) if label[row] >= 0]
        if not rows:
            return None
        # A stable sort: each triple's records stay in row order.
        rows.sort(key=keys.__getitem__)
        counts = Counter([keys[row] for row in rows])
        # Labels are renumbered in order of first appearance, as fold does.
        label_of: Dict[int, int] = {}
        number = label_of.setdefault
        return cls(
            *_split_keys(list(counts), n_terms),
            array("q", accumulate(counts.values(), initial=0)),
            array("q", [number(label[row], len(label_of)) for row in rows]),
            array("d", [conf[row] for row in rows]),
            [labels[index] for index in label_of],
        )

    def __len__(self) -> int:
        return len(self.s)

    def lookup(self, row: Tuple[int, int, int]) -> Sequence[Provenance]:
        """A fresh list of the records of the keyed id triple ``row``
        (the empty tuple when it has none).

        Three bisects find it: ``s``, then ``p`` and ``o`` inside the
        range.  Records are built once per (label, confidence) value and
        then shared, which is safe because a :class:`Provenance` is
        immutable (graph G's 72k records hold about 200 distinct values).
        """
        s_col = self.s
        lo = bisect_left(s_col, row[0])
        hi = bisect_right(s_col, row[0], lo)
        if lo == hi:
            return ()
        p_col = self.p
        lo = bisect_left(p_col, row[1], lo, hi)
        hi = bisect_right(p_col, row[1], lo, hi)
        o_col = self.o
        lo = bisect_left(o_col, row[2], lo, hi)
        if lo == hi or o_col[lo] != row[2]:
            return ()
        return self._records_at(lo)

    def _records_at(self, index: int) -> List[Provenance]:
        start, label, conf, shared = self.start, self.label, self.conf, self._shared
        records = []
        for position in range(start[index], start[index + 1]):
            key = (label[position], conf[position])
            record = shared.get(key)
            if record is None:
                record = shared[key] = Provenance(*self.labels[key[0]], key[1])
            records.append(record)
        return records
