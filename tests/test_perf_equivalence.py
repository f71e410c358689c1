"""Fast paths must be byte-identical to the naive reference algorithms.

Every optimization in the performance layer (batch ingestion through the
bulk loader, index-walk merges, join reordering, pmap fan-out) claims to
change *speed only*.  These tests pin that claim: graph state, provenance,
lineage ledgers, and query answers are compared structure-for-structure
against the naive implementations the fast paths replaced, and the
columnar store against the set-of-rows model in ``tests/oracles.py``.
Only public reads are compared.
"""

import pytest

from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.query import PathQuery, TriplePattern, conjunctive_query
from repro.core.triple import Provenance, Triple
from repro.obs import enabled_scope
from repro.obs.lineage import get_ledger
from tests import oracles
from tests.oracles import SetGraph, assert_graph_matches
from tests.oracles import public_state as _public_state


def _ledger_events():
    """The global ledger's event structure as plain comparable data."""
    ledger = get_ledger()
    return {
        key: [event.to_dict() for event in events]
        for key, events in ledger._events.items()
    }


def _graph_state(graph):
    """Public state plus the size statistics."""
    return {**_public_state(graph), "stats": graph.stats()}


def _oracle(n_entities):
    """The ``SetGraph`` twin of ``oracles.empty_graph``."""
    oracle = SetGraph()
    for index in range(n_entities):
        oracle.add_entity(f"e{index}", f"Entity {index}")
    return oracle


@pytest.fixture
def items():
    return oracles.make_triples(n_entities=60, n_triples=700, seed=11)


def test_make_triples_deterministic():
    first = oracles.make_triples(30, 200, seed=9)
    assert first == oracles.make_triples(30, 200, seed=9)
    assert len(first) == 200


class TestBatchIngestEquivalence:
    def test_state_identical_to_per_call_loop(self, items):
        fast = oracles.empty_graph(60)
        fast.add_triples_batch(items)
        slow = oracles.empty_graph(60)
        for triple, provenance in items:
            slow.add_triple(triple, provenance=provenance)
        assert _graph_state(fast) == _graph_state(slow)

    def test_lineage_ledger_identical(self, items):
        with enabled_scope():
            fast = oracles.empty_graph(60)
            fast.add_triples_batch(items)
            fast_events = _ledger_events()
            fast_sequence = get_ledger()._sequence
        with enabled_scope():
            slow = oracles.empty_graph(60)
            for triple, provenance in items:
                slow.add_triple(triple, provenance=provenance)
            slow_events = _ledger_events()
            slow_sequence = get_ledger()._sequence
        assert fast_events == slow_events
        assert fast_sequence == slow_sequence

    def test_returns_new_triple_count(self, items):
        graph = oracles.empty_graph(60)
        n_new = graph.add_triples_batch(items)
        assert n_new == len(graph)
        assert graph.add_triples_batch(items) == 0  # all duplicates now

    def test_mixed_bare_and_provenanced_items(self):
        graph = oracles.empty_graph(4)
        mixed = [
            Triple("e0", "p", "x"),
            (Triple("e1", "p", "y"), Provenance(source="s1")),
            (Triple("e2", "p", "z"), None),
        ]
        assert graph.add_triples_batch(mixed) == 3
        assert graph.provenance(Triple("e1", "p", "y")) == [Provenance(source="s1")]
        assert graph.provenance(Triple("e0", "p", "x")) == []

    def test_unknown_subject_raises_and_keeps_partial_state(self):
        graph = oracles.empty_graph(2)
        batch = [
            (Triple("e0", "p", "x"), None),
            (Triple("ghost", "p", "y"), None),
            (Triple("e1", "p", "z"), None),
        ]
        with pytest.raises(ValueError, match="unknown subject"):
            graph.add_triples_batch(batch)
        # Items before the bad one landed, exactly like the per-call loop.
        assert Triple("e0", "p", "x") in graph
        assert Triple("e1", "p", "z") not in graph
        assert graph.query(subject="e0") == [Triple("e0", "p", "x")]


class TestMergeEquivalence:
    def _linked_graph(self):
        graph = oracles.build_graph(40, 400)
        return graph

    def test_fast_merge_matches_naive_scan(self):
        pairs = oracles.merge_pairs(40, 12)
        with enabled_scope():
            fast = self._linked_graph()
            fast_rewrites = [
                fast.merge_entities(keep, drop) for keep, drop in pairs
            ]
            fast_state = _graph_state(fast)
            fast_events = _ledger_events()
        oracle = _oracle(40)
        oracle.add_batch(oracles.make_triples(40, 400))
        assert [oracle.merge(keep, drop) for keep, drop in pairs] == fast_rewrites
        assert_graph_matches(fast, oracle)
        with enabled_scope():
            slow = self._linked_graph()
            slow_rewrites = [
                oracles.naive_merge_entities(slow, keep, drop) for keep, drop in pairs
            ]
            slow_state = _graph_state(slow)
            slow_events = _ledger_events()
        assert fast_rewrites == slow_rewrites
        assert fast_state == slow_state
        assert fast_events == slow_events

    def test_merge_after_batch_ingest(self, items):
        fast = oracles.empty_graph(60)
        fast.add_triples_batch(items)
        slow = oracles.empty_graph(60)
        for triple, provenance in items:
            slow.add_triple(triple, provenance=provenance)
        fast.merge_entities("e0", "e1")
        oracles.naive_merge_entities(slow, "e0", "e1")
        assert _graph_state(fast) == _graph_state(slow)

    def test_self_merge_rejected_by_both_paths(self):
        graph = self._linked_graph()
        with pytest.raises(ValueError, match="into itself"):
            graph.merge_entities("e0", "e0")
        with pytest.raises(ValueError, match="into itself"):
            oracles.naive_merge_entities(graph, "e0", "e0")

    def test_self_loop_triple_rewrites_like_scan(self):
        for merge in (
            KnowledgeGraph.merge_entities,
            oracles.naive_merge_entities,
        ):
            ontology = Ontology()
            ontology.add_class("Thing")
            graph = KnowledgeGraph(ontology=ontology)
            graph.add_entity("keep", "Keep", "Thing")
            graph.add_entity("drop", "Drop", "Thing")
            graph.add("drop", "knows", "drop")
            merge(graph, "keep", "drop")
            assert list(graph.triples()) == [Triple("keep", "knows", "keep")]


class TestRemoveTriplePruning:
    def test_empty_rows_are_pruned(self):
        """A removed row leaves nothing behind on any read path."""
        graph, oracle = oracles.empty_graph(3), _oracle(3)
        for triple in (Triple("e0", "p", "x"), Triple("e0", "q", "e1")):
            graph.add_triple(triple)
            oracle.add(triple)
        assert graph.remove_triple(Triple("e0", "p", "x"))
        assert oracle.remove(Triple("e0", "p", "x"))
        assert graph.query(subject="e0", predicate="p") == []
        assert graph.query(predicate="p") == graph.query(obj="x") == []
        assert graph.pattern_cardinality(predicate="p") == 0
        assert graph.pattern_cardinality(obj="x") == 0
        assert graph.objects("e0", "p") == []
        assert_graph_matches(graph, oracle)
        assert graph.remove_triple(Triple("e0", "q", "e1"))
        assert oracle.remove(Triple("e0", "q", "e1"))
        assert graph.query(subject="e0") == graph.query(obj="e1") == []
        assert graph.neighbors("e0") == graph.neighbors("e1") == []
        assert len(graph) == 0
        assert_graph_matches(graph, oracle)

    def test_remove_missing_is_false(self):
        graph = oracles.empty_graph(2)
        assert not graph.remove_triple(Triple("e0", "p", "x"))


class TestQueryEquivalence:
    def test_conjunctive_reorder_same_solutions(self):
        graph = oracles.build_graph(50, 600)
        patterns = [
            TriplePattern("?a", "related_to", "?b"),
            TriplePattern("?b", "part_of", "?c"),
            TriplePattern("?a", "label", "?name"),
        ]
        reordered = conjunctive_query(graph, patterns, reorder=True)
        in_order = conjunctive_query(graph, patterns, reorder=False)

        def canonical(solutions):
            return sorted(sorted(binding.items()) for binding in solutions)

        assert canonical(reordered) == canonical(in_order)
        assert reordered  # non-degenerate join

    def test_paths_match_recursive_reference(self):
        graph = oracles.build_graph(25, 200)
        query = PathQuery(graph, max_length=3)

        def reference_paths(start, goal, max_paths):
            results = []

            def walk(node, path, visited):
                if len(results) >= max_paths:
                    return
                if node == goal and path:
                    results.append(path)
                    return
                if len(path) >= query.max_length:
                    return
                for relation, neighbor, outgoing in graph.neighbors(node):
                    if neighbor in visited and neighbor != goal:
                        continue
                    walk(
                        neighbor,
                        path + [(relation, 1 if outgoing else -1, neighbor)],
                        visited | {neighbor},
                    )

            walk(start, [], frozenset((start,)))
            return results

        checked = 0
        for start, goal in [("e0", "e5"), ("e3", "e9"), ("e1", "e2")]:
            fast = query.paths(start, goal, max_paths=10_000)
            slow = reference_paths(start, goal, max_paths=10_000)
            assert sorted(map(tuple, (map(tuple, p) for p in fast))) == sorted(
                map(tuple, (map(tuple, p) for p in slow))
            )
            checked += len(fast)
        assert checked > 0


class TestColumnarBackendEquivalence:
    """The columnar store must be observably identical to the set model."""

    def _pair(self, items):
        graph, oracle = oracles.empty_graph(60), _oracle(60)
        assert graph.add_triples_batch(items) == oracle.add_batch(items)
        return graph, oracle

    def test_batch_ingest_state_identical(self, items):
        assert_graph_matches(*self._pair(items))

    def test_lineage_ledger_identical(self, items):
        states = []
        for ingest in (
            lambda: oracles.empty_graph(60).add_triples_batch(items),
            lambda: _oracle(60).add_batch(items),
        ):
            with enabled_scope():
                ingest()
                states.append((_ledger_events(), get_ledger()._sequence))
        assert states[0] == states[1]
        assert states[0][0]  # the ledger actually recorded something

    def test_per_call_ingest_state_identical(self, items):
        graph, oracle = oracles.empty_graph(60), _oracle(60)
        for triple, provenance in items:
            assert graph.add_triple(triple, provenance=provenance) == oracle.add(
                triple, provenance
            )
        assert_graph_matches(graph, oracle)

    def test_merge_and_remove_state_identical(self, items):
        graph, oracle = self._pair(items)
        victims = [items[3][0], items[11][0], items[40][0]]
        merges = [("e0", "e1"), ("e2", "e3")]
        with enabled_scope():
            removed = [graph.remove_triple(t) for t in victims]
            rewritten = [graph.merge_entities(k, d) for k, d in merges]
            graph_events = _ledger_events()
        with enabled_scope():
            assert [oracle.remove(t) for t in victims] == removed
            assert [oracle.merge(k, d) for k, d in merges] == rewritten
            assert _ledger_events() == graph_events
        assert_graph_matches(graph, oracle)

    def test_query_answers_identical(self, items):
        graph, oracle = self._pair(items)
        probes = [
            {"subject": "e0"},
            {"predicate": "related_to"},
            {"obj": "e1"},
            {"subject": "e0", "predicate": "related_to"},
            {"predicate": "related_to", "obj": "e1"},
            {"subject": "e0", "obj": "e1"},
            {"subject": "ghost"},
            {},
        ]
        for probe in probes:
            answer = graph.query(**probe)
            assert answer == sorted(oracle.query(**probe))
            assert graph.pattern_cardinality(**probe) == len(answer)

    def test_copy_preserves_backend_and_state(self, items):
        """The clone owns its own store and holds the same state."""
        graph, oracle = self._pair(items)
        clone = graph.copy()
        assert_graph_matches(clone, oracle.copy())
        # Mutating the clone must not leak into the original.
        sample = items[0][0]
        clone.remove_triple(sample)
        assert sample in graph
        assert_graph_matches(graph, oracle)

    def test_stats_report_id_table(self, items):
        graph, oracle = self._pair(items)
        stats = graph.stats()
        assert stats["n_id_terms"] == oracle.stats()["n_id_terms"] > 0
        assert stats["n_triples"] == len(graph)
        # Ids are never recycled: removing rows keeps their terms counted.
        for triple, _ in items[:50]:
            graph.remove_triple(triple)
            oracle.remove(triple)
        assert graph.stats()["n_id_terms"] == stats["n_id_terms"]
        assert_graph_matches(graph, oracle)


class TestMutationBeforeFirstIndexRead:
    """Mutations issued right after a bulk load, before any read.

    A batch landing in an empty graph installs sorted columns in one go.
    A ``remove_triple`` or ``merge_entities`` issued *before* the first
    index-backed read must neither resurrect removed rows nor leave
    orphaned drop-id rows.
    """

    def test_remove_before_first_read_stays_removed(self, items):
        graph = oracles.empty_graph(60)
        graph.add_triples_batch(items)
        victim = items[0][0]
        assert graph.remove_triple(victim)  # no read has happened yet
        assert victim not in graph
        assert victim not in graph.query(subject=victim.subject)
        assert victim.object not in graph.objects(victim.subject, victim.predicate)

    def test_merge_before_first_read_leaves_no_orphans(self):
        graph = oracles.empty_graph(4)
        graph.add_triples_batch(
            [
                Triple("e0", "p", "e1"),
                Triple("e1", "q", "x"),
                Triple("e2", "r", "e1"),
            ]
        )
        graph.merge_entities("e0", "e1")  # before any index-backed read
        assert not graph.has_entity("e1")
        assert graph.query(subject="e1") == []
        assert graph.query(obj="e1") == []
        assert graph.pattern_cardinality(subject="e1") == 0
        assert graph.pattern_cardinality(obj="e1") == 0
        assert set(graph.query()) == {
            Triple("e0", "p", "e0"),
            Triple("e0", "q", "x"),
            Triple("e2", "r", "e0"),
        }

    def test_remove_then_readd_before_first_read(self, items):
        graph = oracles.empty_graph(60)
        graph.add_triples_batch(items)
        victim = items[5][0]
        assert graph.remove_triple(victim)
        assert graph.add_triple(victim)
        assert victim in graph
        assert victim in graph.query(subject=victim.subject)
        assert len(graph.query(subject=victim.subject)) == len(
            set(graph.query(subject=victim.subject))
        )

    def test_interleaved_mutations_match_per_call_reference(self, items):
        fast, oracle = oracles.empty_graph(60), _oracle(60)
        fast.add_triples_batch(items)
        oracle.add_batch(items)
        fast.remove_triple(items[2][0])
        oracle.remove(items[2][0])
        fast.merge_entities("e4", "e5")
        oracle.merge("e4", "e5")

        slow = oracles.empty_graph(60)
        for triple, provenance in items:
            slow.add_triple(triple, provenance=provenance)
        slow.query()  # a read between the load and the mutations
        slow.remove_triple(items[2][0])
        slow.merge_entities("e4", "e5")

        assert _graph_state(fast) == _graph_state(slow)
        assert_graph_matches(fast, oracle)


class TestPartitionedBuildEquivalence:
    """The tentpole contract: ``partitions=N`` is byte-identical to ``=1``.

    Graph state, provenance, lineage ledger, quality snapshot, and the
    ``.rkgs`` snapshot bytes must all be invariant in the partition count
    — sharding the build may only change speed, never output.
    """

    @staticmethod
    def _build(partitions):
        from repro.core.partition import fixture_sources, partitioned_pipeline
        from repro.obs import reset_all

        sources = fixture_sources(n_people=40, n_movies=30, seed=11)
        reset_all()
        with enabled_scope():
            pipeline, context = partitioned_pipeline(sources, name="equiv")
            context = pipeline.run(context, partitions=partitions)
            ledger_state = get_ledger().export_state()
            snapshot = context.artifacts["quality_snapshot"].to_dict()
        reset_all()
        return context.artifacts["kg"], ledger_state, snapshot

    @staticmethod
    def _snapshot_bytes(graph, tmp_path, tag):
        from repro.core import codec

        path = str(tmp_path / f"{tag}.rkgs")
        codec.save_graph(graph, path, include_lineage=False)
        with open(path, "rb") as handle:
            return handle.read()

    def test_state_and_provenance_identical(self):
        reference, _, _ = self._build(1)
        sharded, _, _ = self._build(4)
        assert _public_state(sharded) == _public_state(reference)

    def test_lineage_ledger_identical(self):
        _, reference_ledger, _ = self._build(1)
        _, sharded_ledger, _ = self._build(4)
        assert sharded_ledger == reference_ledger

    def test_quality_snapshot_identical(self):
        _, _, reference_snapshot = self._build(1)
        _, _, sharded_snapshot = self._build(4)
        # Timing fields differ run to run; everything observable must not.
        for snapshot in (reference_snapshot, sharded_snapshot):
            snapshot.pop("captured_unix", None)
            snapshot.pop("capture_seconds", None)
        assert sharded_snapshot == reference_snapshot

    def test_snapshot_bytes_identical_across_counts(self, tmp_path):
        blobs = [
            self._snapshot_bytes(self._build(n)[0], tmp_path, f"p{n}")
            for n in (1, 4, 8)
        ]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_process_mode_workers_identical(self, monkeypatch, tmp_path):
        """Real multiprocess fan-out must not change a byte either."""
        reference, reference_ledger, _ = self._build(1)
        monkeypatch.setenv("REPRO_PMAP_WORKERS", "2")
        sharded, sharded_ledger, _ = self._build(4)
        monkeypatch.delenv("REPRO_PMAP_WORKERS")
        assert _public_state(sharded) == _public_state(reference)
        assert sharded_ledger == reference_ledger
        assert self._snapshot_bytes(sharded, tmp_path, "proc") == (
            self._snapshot_bytes(reference, tmp_path, "ref")
        )
