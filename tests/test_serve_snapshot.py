"""Snapshot publishing: atomic swap, versioning, construction isolation."""

import gc
import weakref

import pytest

from repro.core import store as store_module
from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.query import TriplePattern
from repro.core.triple import Provenance, Triple
from repro.obs import enabled_scope, get_tracer, reset_all
from repro.serve.server import InProcessClient
from repro.serve.service import KGService
from repro.serve.snapshot import SnapshotStore


class FamiliarLM:
    """A fully familiar LM, so ``ask`` takes the dual-router path."""

    def familiarity(self, name, predicate):
        return 100.0

    def answer(self, name, predicate):
        class _Reply:
            abstained = False
            text = "lm-answer"

        return _Reply()


def small_graph(n=12):
    ontology = Ontology()
    ontology.add_class("Thing")
    graph = KnowledgeGraph(ontology=ontology, name="t")
    for index in range(n):
        graph.add_entity(f"e{index}", f"Entity {index}", "Thing")
    for index in range(n):
        graph.add(f"e{index}", "related_to", f"e{(index + 1) % n}")
        graph.add(f"e{index}", "label", f"value-{index}")
    return graph


class TestSnapshotStore:
    def test_empty_store_has_no_snapshot(self):
        store = SnapshotStore()
        assert store.current() is None
        assert store.current_version() == 0

    def test_publish_installs_versioned_snapshot(self):
        store = SnapshotStore()
        graph = small_graph()
        snapshot = store.publish(graph)
        assert snapshot.version == 1
        assert store.current() is snapshot
        assert snapshot.source_generation == graph.generation
        assert len(snapshot.graph) == len(graph)

    def test_versions_are_monotonic(self):
        store = SnapshotStore()
        graph = small_graph()
        versions = [store.publish(graph).version for _ in range(4)]
        assert versions == [1, 2, 3, 4]
        assert store.current_version() == 4

    def test_publish_copies_construction_mutations_never_leak(self):
        """Post-publish merge_entities must not appear in the served graph."""
        store = SnapshotStore()
        graph = small_graph()
        snapshot = store.publish(graph)

        graph.merge_entities("e0", "e1")
        graph.add("e0", "label", "added-after-publish")

        served = snapshot.graph
        assert served.has_entity("e1")
        assert "added-after-publish" not in served.objects("e0", "label")
        # And the planner (what the router actually queries) agrees.
        assert snapshot.planner.has_entity("e1")

    def test_merge_during_construction_before_publish_is_served(self):
        store = SnapshotStore()
        graph = small_graph()
        graph.merge_entities("e0", "e1")
        snapshot = store.publish(graph)
        assert not snapshot.graph.has_entity("e1")

    def test_in_flight_reference_survives_republish(self):
        """A request holding the old snapshot finishes against it unchanged."""
        store = SnapshotStore()
        graph = small_graph()
        old = store.publish(graph)
        old_values = old.planner.objects("e3", "label")

        graph.merge_entities("e2", "e3")
        new = store.publish(graph)

        assert store.current() is new
        # The retired snapshot still answers exactly as before the swap.
        assert old.planner.objects("e3", "label") == old_values
        assert old.planner.has_entity("e3")
        assert not new.planner.has_entity("e3")

    @pytest.mark.parametrize("with_lm", [False, True])
    def test_retired_snapshot_is_freed(self, with_lm):
        """Nothing in the service keeps a retired graph copy alive: not the
        store and not ``ask``'s QA engines, only a request's own reference."""
        service = KGService(model=FamiliarLM() if with_lm else None)
        client = InProcessClient(service)
        graph = small_graph()
        service.publish(graph)
        held = service.store.current()  # an in-flight request's reference
        retired = weakref.ref(held.graph)
        code, body = client.ask("Entity 3", "label")
        assert code == 200 and body["snapshot_version"] == 1
        assert body["payload"]["lm_shed"] is not with_lm

        service.publish(graph)
        gc.collect()
        assert retired() is not None
        del held
        gc.collect()
        assert retired() is None

    def test_sharded_publish(self):
        store = SnapshotStore(n_shards=3)
        snapshot = store.publish(small_graph())
        assert snapshot.n_shards == 3
        sizes = snapshot.planner.shard_sizes()
        assert sum(sizes.values()) == len(snapshot.graph)

    def test_describe_is_json_shaped(self):
        import json

        store = SnapshotStore(n_shards=2)
        snapshot = store.publish(small_graph())
        description = snapshot.describe()
        json.dumps(description)
        assert description["version"] == 1
        assert description["n_shards"] == 2
        assert description["n_triples"] == len(snapshot.graph)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            SnapshotStore(n_shards=0)


def _answers(snapshot):
    """Every planner read a request can make, plus ``describe()``."""
    planner = snapshot.planner
    description = dict(snapshot.describe())
    description.pop("published_unix")
    return {
        "describe": description,
        "lookup": [planner.lookup(f"e{i}", "label") for i in range(12)],
        "query": planner.query(predicate="related_to"),
        "all": planner.query(),
        "names": [
            [entity.entity_id for entity in planner.find_by_name(f"Entity {i}")]
            for i in range(12)
        ],
        "aliases": [sorted(planner.entity(f"e{i}").aliases) for i in range(12)],
        "neighbors": [planner.neighbors(f"e{i}") for i in range(12)],
        "join": planner.conjunctive_query(
            [
                TriplePattern("?a", "related_to", "?b"),
                TriplePattern("?b", "label", "?v"),
            ]
        ),
        "paths": planner.paths("e0", "e5", max_length=6),
        "cardinality": planner.pattern_cardinality(predicate="label"),
        "shards": planner.shard_sizes(),
    }


class TestPublishIsolation:
    def test_old_snapshot_unchanged_while_source_ingests(self):
        """A snapshot shares base columns and provenance lists with its
        source; deltas ingested into the source afterwards — adds with
        provenance, removes, merges, aliases, and enough churn to compact
        the source's columns — never show in it."""
        service = KGService(n_shards=2)
        graph = small_graph()
        shared = Triple("e1", "label", "value-1")
        graph.add_triple(shared, provenance=Provenance(source="a"))
        graph.add_triple(Triple("e5", "label", "value-1"), provenance=Provenance(source="m"))
        graph._store.compact()  # so the copy has base columns to share
        graph.add("e4", "label", "in-delta")
        old = service.publish(graph)
        before = _answers(old)
        old_provenance = old.graph.provenance(shared)

        # Each provenance-writing path touches the shared list of ``shared``.
        graph.add_triple(shared, provenance=Provenance(source="b"))
        graph.add_triples_batch(
            [(shared, Provenance(source="c"))]
            + [(Triple("e2", "label", f"bulk-{i}"), Provenance(source="c")) for i in range(4200)]
        )
        graph.merge_entities("e1", "e5")
        graph.remove_triple(Triple("e3", "related_to", "e4"))
        graph.add_alias("e6", "Entity 7")
        graph.add_entity("e99", "Entity 0", "Thing")
        assert graph._store.n_compactions >= 1
        new = service.publish(graph)

        assert _answers(old) == before
        assert [record.source for record in old_provenance] == ["a"]
        assert old.graph.provenance(shared) == old_provenance
        assert [record.source for record in graph.provenance(shared)] == ["a", "b", "c", "m"]
        assert new.describe()["n_triples"] == len(graph)
        assert sum(new.planner.shard_sizes().values()) == len(graph)


class TestPublishBuildsNoSecondStore:
    def test_planner_reads_the_frozen_copy(self, monkeypatch):
        """A sharded publish is a copy and a swap: the planner reads the
        snapshot's graph, whose base columns are the source's, and no
        store is built from rows or re-sorted on the way."""
        graph = small_graph()
        graph._store.compact()  # so there are base columns to share
        built = []
        real_build = store_module.ColumnarTripleStore.from_columns
        real_install = store_module.ColumnarTripleStore.install_keys
        monkeypatch.setattr(
            store_module.ColumnarTripleStore,
            "from_columns",
            lambda *args: built.append("from_columns") or real_build(*args),
        )
        monkeypatch.setattr(
            store_module.ColumnarTripleStore,
            "install_keys",
            lambda *args: built.append("install_keys") or real_install(*args),
        )
        snapshot = SnapshotStore(n_shards=2).publish(graph)
        assert built == []
        assert snapshot.planner.graph is snapshot.graph
        for served, source in zip(
            (snapshot.graph._store._spo, snapshot.graph._store._pos, snapshot.graph._store._osp),
            (graph._store._spo, graph._store._pos, graph._store._osp),
        ):
            assert served is source
        assert snapshot.n_shards == 2


class TestPublishSpans:
    def test_publish_is_attributed_to_copy(self):
        """The publish span has one child, the copy: no shard build."""
        reset_all()
        with enabled_scope():
            SnapshotStore(n_shards=2).publish(small_graph())
            spans = get_tracer().spans("serve.snapshot.")
        reset_all()
        (publish,) = [span_ for span_ in spans if span_.name == "serve.snapshot.publish"]
        children = [span_.name for span_ in spans if span_.parent_id == publish.span_id]
        assert children == ["serve.snapshot.copy"]
