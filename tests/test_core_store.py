"""Unit tests for the columnar triple store and its term dictionary."""

import pytest

from repro.core.store import (
    AUTO_COMPACT_MIN,
    BulkLoader,
    ColumnarTripleStore,
    TermDict,
)


class TestTermDict:
    def test_dense_first_seen_ids(self):
        terms = TermDict()
        assert terms.add("a") == 0
        assert terms.add("b") == 1
        assert terms.add("a") == 0
        assert len(terms) == 2
        assert terms.decode(1) == "b"

    def test_typed_terms_get_distinct_ids(self):
        # 1 == True == 1.0 in Python, but a term is its type plus its
        # value: three terms, three ids, each decoded as it was added.
        terms = TermDict()
        ids = [terms.add(1), terms.add(True), terms.add(1.0)]
        assert ids == [0, 1, 2]
        assert [terms.add(1.0), terms.add(True), terms.add(1)] == [2, 1, 0]
        assert [terms.get(1), terms.get(True), terms.get(1.0)] == ids
        assert [type(terms.decode(term_id)) for term_id in ids] == [int, bool, float]
        assert terms.get(-0.0) == terms.get(0.0) is None
        assert 1.0 in terms and 2.0 not in terms

    def test_get_returns_none_for_unknown(self):
        terms = TermDict()
        terms.add("known")
        assert terms.get("known") == 0
        assert terms.get("unknown") is None
        assert "known" in terms
        assert "unknown" not in terms

    def test_terms_returns_id_order_copy(self):
        terms = TermDict()
        for value in ("x", 7, 2.5, False):
            terms.add(value)
        listed = terms.terms()
        assert listed == ["x", 7, 2.5, False]
        listed.append("mutated")
        assert len(terms) == 4

    def test_clone_is_independent(self):
        terms = TermDict()
        terms.add("a")
        clone = terms.clone()
        clone.add("b")
        assert len(terms) == 1
        assert len(clone) == 2

    def test_from_terms_round_trip(self):
        original = TermDict()
        for value in ("s", "p", 42, 3.5, True, "o"):
            original.add(value)
        rebuilt = TermDict._from_terms(original.terms())
        assert rebuilt.terms() == original.terms()
        assert rebuilt.get("p") == original.get("p")
        assert rebuilt.get(42) == original.get(42)

    def test_from_terms_rejects_exact_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            TermDict._from_terms(["a", "b", "a"])

    def test_from_terms_keeps_typed_equality_duplicates(self):
        # Equal terms of different types are different terms: each keeps
        # its own id, for lookups and decoding alike.
        terms = TermDict._from_terms([1, True, 0.0, 0, 1.0, False])
        assert [terms.get(term) for term in (1, True, 0.0, 0, 1.0, False)] == list(range(6))
        assert [type(terms.decode(term_id)) for term_id in range(6)] == [
            int, bool, float, int, float, bool
        ]
        with pytest.raises(ValueError, match="duplicate"):
            TermDict._from_terms([0.0, -0.0])

    def test_memory_bytes_positive_and_grows(self):
        terms = TermDict()
        empty = terms.memory_bytes()
        for index in range(100):
            terms.add(f"term-{index}")
        assert terms.memory_bytes() > empty


def _store_with(rows):
    store = ColumnarTripleStore()
    for s, p, o in rows:
        store.add(s, p, o)
    return store


class TestColumnarStoreMutation:
    def test_add_is_idempotent(self):
        store = ColumnarTripleStore()
        assert store.add("s", "p", "o")
        assert not store.add("s", "p", "o")
        assert len(store) == 1
        assert store.contains("s", "p", "o")

    def test_remove_from_delta_and_base(self):
        store = _store_with([("a", "p", "x"), ("a", "p", "y")])
        assert store.remove("a", "p", "x")  # still in the delta
        assert not store.contains("a", "p", "x")
        store.compact()
        assert store.remove("a", "p", "y")  # now a base tombstone
        assert not store.contains("a", "p", "y")
        assert len(store) == 0
        assert not store.remove("a", "p", "y")
        assert not store.remove("never", "seen", "row")

    def test_tombstone_resurrection(self):
        store = _store_with([("a", "p", "x")])
        store.compact()
        assert store.remove("a", "p", "x")
        assert store.add("a", "p", "x")  # clears the tombstone
        assert store.contains("a", "p", "x")
        assert len(store) == 1
        store.compact()
        assert store.contains("a", "p", "x")

    def test_auto_compaction_folds_large_deltas(self):
        store = ColumnarTripleStore()
        for index in range(AUTO_COMPACT_MIN + 10):
            store.add(f"s{index}", "p", index)
        assert store.n_compactions >= 1
        assert store.n_delta_rows < AUTO_COMPACT_MIN
        assert len(store) == AUTO_COMPACT_MIN + 10

    def test_compact_noop_when_clean(self):
        store = _store_with([("a", "p", "x")])
        store.compact()
        before = store.n_compactions
        store.compact()
        assert store.n_compactions == before


class TestColumnarStoreReads:
    def setup_method(self):
        self.store = _store_with(
            [
                ("a", "knows", "b"),
                ("a", "knows", "c"),
                ("a", "label", "Ada"),
                ("b", "knows", "c"),
                ("b", "born", 1815),
            ]
        )

    def test_objects_subjects(self):
        assert sorted(self.store.objects("a", "knows")) == ["b", "c"]
        assert sorted(self.store.subjects("knows", "c")) == ["a", "b"]
        assert self.store.predicates("a", "c") == ["knows"]
        assert self.store.objects("ghost", "knows") == []
        assert self.store.subjects("knows", "ghost") == []

    def test_rows_merge_base_and_delta(self):
        self.store.compact()
        self.store.add("a", "knows", "d")  # lands in the delta
        assert self.store.spo_row("a") == [
            ("knows", "b"),
            ("knows", "c"),
            ("label", "Ada"),
            ("knows", "d"),
        ]
        assert sorted(self.store.pos_row("knows")) == [
            ("b", "a"),
            ("c", "a"),
            ("c", "b"),
            ("d", "a"),
        ]
        assert sorted(self.store.osp_row("c")) == [("a", "knows"), ("b", "knows")]

    def test_scans_skip_tombstones(self):
        self.store.compact()
        self.store.remove("a", "knows", "b")
        assert self.store.objects("a", "knows") == ["c"]
        assert self.store.subjects("knows", "b") == []
        assert sorted(self.store.spo_row("a")) == [("knows", "c"), ("label", "Ada")]
        assert self.store.osp_row("b") == []

    def test_counts(self):
        store = self.store
        assert store.count_sp("a", "knows") == 2
        assert store.count_s("a") == 3
        assert store.count_po("knows", "c") == 2
        assert store.count_p("knows") == 3
        assert store.count_os("c", "b") == 1
        assert store.count_o(1815) == 1
        assert store.count_sp("ghost", "knows") == 0
        store.compact()
        store.remove("a", "knows", "b")
        assert store.count_sp("a", "knows") == 1
        assert store.count_p("knows") == 2

    def test_iter_triples_covers_base_and_delta(self):
        self.store.compact()
        self.store.add("c", "knows", "a")
        triples = set(self.store.iter_triples())
        assert ("a", "knows", "b") in triples
        assert ("c", "knows", "a") in triples
        assert len(triples) == len(self.store)


class TestColumnarStoreBulkAndSnapshot:
    def test_bulk_loader_matches_per_add(self):
        rows = [("a", "p", "x"), ("b", "p", "y"), ("a", "p", "x"), ("a", "q", 3)]
        slow = _store_with(rows)
        fast = ColumnarTripleStore()
        loader = fast.bulk_loader()
        assert isinstance(loader, BulkLoader)
        flags = [loader.add(*row) for row in rows]
        loader.finish()
        assert flags == [True, True, False, True]
        assert set(fast.iter_triples()) == set(slow.iter_triples())
        assert len(fast) == len(slow) == 3
        assert fast.objects("a", "p") == ["x"]

    def test_bulk_loader_requires_empty_store(self):
        store = _store_with([("a", "p", "x")])
        with pytest.raises(ValueError, match="empty store"):
            store.bulk_loader()

    def test_bulk_loader_finish_is_idempotent(self):
        store = ColumnarTripleStore()
        loader = store.bulk_loader()
        loader.add("a", "p", "x")
        loader.finish()
        loader.finish()
        assert len(store) == 1

    def test_sorted_columns_round_trip(self):
        store = _store_with(
            [("a", "p", "x"), ("b", "p", 2), ("a", "q", 1.5), ("c", "r", True)]
        )
        terms, spo, pos, osp = store.sorted_columns()
        rebuilt = ColumnarTripleStore.from_sorted_columns(terms, spo, pos, osp)
        assert set(rebuilt.iter_triples()) == set(store.iter_triples())
        assert rebuilt.objects("a", "p") == ["x"]
        assert rebuilt.subjects("p", 2) == ["b"]

    def test_from_sorted_columns_rejects_ragged_columns(self):
        store = _store_with([("a", "p", "x"), ("b", "p", "y")])
        terms, spo, pos, osp = store.sorted_columns()
        with pytest.raises(ValueError, match="row count"):
            ColumnarTripleStore.from_sorted_columns(
                terms, (spo[0], spo[1], spo[2][:1]), pos, osp
            )

    def test_from_columns_resorts_rows(self):
        store = _store_with([("b", "p", "y"), ("a", "p", "x")])
        terms, s_col, p_col, o_col = store.columns()
        rebuilt = ColumnarTripleStore.from_columns(
            terms, list(reversed(s_col)), list(reversed(p_col)), list(reversed(o_col))
        )
        assert set(rebuilt.iter_triples()) == set(store.iter_triples())

    def test_clone_is_independent(self):
        store = _store_with([("a", "p", "x")])
        clone = store.clone()
        clone.add("b", "p", "y")
        store.remove("a", "p", "x")
        assert len(store) == 0
        assert len(clone) == 2
        assert clone.contains("a", "p", "x")

    def test_stats_and_memory(self):
        store = _store_with([("a", "p", "x"), ("b", "p", "y")])
        stats = store.stats()
        assert stats["n_terms"] == store.n_terms
        assert stats["n_delta_rows"] == 2
        assert store.memory_bytes() > 0
        store.compact()
        assert store.stats()["n_base_rows"] == 2
        assert store.stats()["n_delta_rows"] == 0
