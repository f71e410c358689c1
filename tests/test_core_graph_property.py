"""Property tests: the graph against its set-of-rows model, under churn.

Random interleavings of ``add_triple`` / ``add_triples_batch`` /
``remove_triple`` / ``merge_entities`` are applied to a graph and to
``tests.oracles.SetGraph``; every index-backed read must be exactly the
model's projection.  The same interleavings run through the fast paths
(batch ingestion, index-walk merges) and the naive reference paths
(per-call adds, the full-scan merge in ``tests.oracles``) must end
in identical public state and identical lineage ledgers.  A stateful
machine adds and removes aliases, copies, snapshot round trips (byte-stable on
resave; later steps then read and write provenance over the loaded
base columns) and WAL replays (the graph is logged from its first
step), and checks
``graph == model`` after every step; it also keeps up to three frozen
copies aside and checks that none of them moves while the live graph goes
on — copies share base columns, provenance lists, entities and name-index
id sets by reference, so a write into any of them in place would show up
there.
"""

import os
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import codec
from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.parallel import pmap
from repro.core.triple import Provenance, Triple
from repro.obs import enabled_scope
from repro.obs.lineage import get_ledger
from tests.oracles import SetGraph, assert_graph_matches, naive_merge_entities, public_state

_ENTITY_IDS = ("e0", "e1", "e2", "e3", "e4")
_subjects = st.sampled_from(_ENTITY_IDS)
_predicates = st.sampled_from(("p", "q", "r"))
_objects = st.one_of(
    st.sampled_from(_ENTITY_IDS),
    st.sampled_from(("x", "y", "z")),
    st.integers(0, 9),
    # Equal to some of the ints above without being the same term type;
    # -0.0 is 0.0 once in a triple.
    st.sampled_from((0.0, -0.0, 1.0, 2.5, False, True)),
)
_prov_index = st.one_of(st.none(), st.integers(0, 2))
_spec = st.tuples(_subjects, _predicates, _objects, _prov_index)
_picks = st.tuples(st.integers(0, 9), st.integers(0, 9))

_add_op = st.tuples(st.just("add"), _spec)
_batch_op = st.tuples(st.just("batch"), st.lists(_spec, max_size=8))
_remove_op = st.tuples(
    st.just("remove"), st.tuples(_subjects, _predicates, _objects)
)
_merge_op = st.tuples(st.just("merge"), _picks)

_op_lists = st.lists(
    st.one_of(_add_op, _batch_op, _remove_op, _merge_op), max_size=25
)


def _provenance(index):
    if index is None:
        return None
    return Provenance(source=f"s{index}", confidence=0.5 + index / 10.0)


def _fresh_graph(wal=None):
    ontology = Ontology()
    ontology.add_class("Thing")
    graph = KnowledgeGraph(ontology=ontology, name="prop")
    if wal is not None:
        graph.attach_wal(wal)
    for entity_id in _ENTITY_IDS:
        graph.add_entity(entity_id, entity_id.upper(), "Thing")
    return graph


def _fresh_model():
    model = SetGraph()
    for entity_id in _ENTITY_IDS:
        model.add_entity(entity_id, entity_id.upper())
    return model


def _items(specs, entity_ids):
    return [
        (Triple(subject, predicate, obj), _provenance(prov))
        for subject, predicate, obj, prov in specs
        if subject in entity_ids
    ]


def _merge_pair(entity_ids, picks):
    """Two of the remaining entities, or None when the picks coincide."""
    ids = sorted(entity_ids)
    keep, drop = ids[picks[0] % len(ids)], ids[picks[1] % len(ids)]
    return None if keep == drop else (keep, drop)


def _apply_ops(graph, ops, fast):
    """Run one op sequence; ``fast`` picks batch/index-walk vs naive paths."""
    for kind, payload in ops:
        entity_ids = {entity.entity_id for entity in graph.entities()}
        if kind == "add":
            for triple, provenance in _items([payload], entity_ids):
                graph.add_triple(triple, provenance=provenance)
        elif kind == "batch":
            items = _items(payload, entity_ids)
            if fast:
                graph.add_triples_batch(items)
            else:
                for triple, provenance in items:
                    graph.add_triple(triple, provenance=provenance)
        elif kind == "remove":
            graph.remove_triple(Triple(*payload))
        else:
            pair = _merge_pair(entity_ids, payload)
            if pair is not None and fast:
                graph.merge_entities(*pair)
            elif pair is not None:
                naive_merge_entities(graph, *pair)


def _apply_ops_to_model(model, ops):
    for kind, payload in ops:
        if kind == "add":
            for triple, provenance in _items([payload], model.entities):
                model.add(triple, provenance)
        elif kind == "batch":
            model.add_batch(_items(payload, model.entities))
        elif kind == "remove":
            model.remove(Triple(*payload))
        else:
            pair = _merge_pair(model.entities, payload)
            if pair is not None:
                model.merge(*pair)


def _ledger_events():
    return {
        key: [event.to_dict() for event in events]
        for key, events in get_ledger()._events.items()
    }


@given(_op_lists)
@settings(max_examples=30, deadline=None)
def test_indexes_always_exact_projection(ops):
    """Every index-backed read equals the model rows' projection — no stale
    rows, no resurrected ones, and the same lineage events on the way."""
    with enabled_scope():
        graph = _fresh_graph()
        _apply_ops(graph, ops, fast=True)
        graph_events = _ledger_events()
    with enabled_scope():
        model = _fresh_model()
        _apply_ops_to_model(model, ops)
        model_events = _ledger_events()
    assert_graph_matches(graph, model)
    assert graph_events == model_events


@given(_op_lists)
@settings(max_examples=30, deadline=None)
def test_fast_and_naive_paths_equivalent(ops):
    """Fast batch/merge paths leave the same state and lineage as naive ones."""
    with enabled_scope():
        fast = _fresh_graph()
        _apply_ops(fast, ops, fast=True)
        fast_state = public_state(fast)
        fast_events = _ledger_events()
        fast_sequence = get_ledger()._sequence
    with enabled_scope():
        naive = _fresh_graph()
        _apply_ops(naive, ops, fast=False)
        naive_state = public_state(naive)
        naive_events = _ledger_events()
        naive_sequence = get_ledger()._sequence
    assert fast_state == naive_state
    assert fast_events == naive_events
    assert fast_sequence == naive_sequence


class GraphMachine(RuleBasedStateMachine):
    """``KnowledgeGraph`` and ``SetGraph`` driven through the same steps."""

    def __init__(self):
        super().__init__()
        # Logged from the first step: the log must replay to the model too.
        self.wal_dir = tempfile.mkdtemp(prefix="graph-machine-wal-")
        self.wal = codec.TripleWAL(self.wal_dir, segment_bytes=4096)
        self.graph = _fresh_graph(self.wal)
        self.model = _fresh_model()
        self.frozen = []

    def _log_new_graph(self):
        """The live graph was replaced: it becomes the log's base."""
        self.wal.checkpoint(self.graph)
        self.graph.attach_wal(self.wal)

    @rule(spec=_spec)
    def add(self, spec):
        for triple, provenance in _items([spec], self.model.entities):
            assert self.graph.add_triple(triple, provenance=provenance) == (
                self.model.add(triple, provenance)
            )

    @rule(specs=st.lists(_spec, max_size=8))
    def add_batch(self, specs):
        items = _items(specs, self.model.entities)
        assert self.graph.add_triples_batch(items) == self.model.add_batch(items)

    @rule(
        pick=st.integers(0, 99),
        other=st.one_of(st.none(), st.integers(0, 9)),
        prov=st.integers(0, 2),
        batch=st.booleans(),
    )
    def add_again(self, pick, other, prov, batch):
        """Re-add a present row with provenance, as is or under another
        subject — so provenance lists grow and later merges collide."""
        if not self.model.rows:
            return
        subject, predicate, obj = sorted(self.model.rows, key=repr)[
            pick % len(self.model.rows)
        ].as_tuple()
        if other is not None:
            ids = sorted(self.model.entities)
            subject = ids[other % len(ids)]
        triple, provenance = Triple(subject, predicate, obj), _provenance(prov)
        if batch:
            items = [(triple, provenance)]
            assert self.graph.add_triples_batch(items) == self.model.add_batch(items)
        else:
            assert self.graph.add_triple(triple, provenance=provenance) == (
                self.model.add(triple, provenance)
            )

    @rule(row=st.tuples(_subjects, _predicates, _objects))
    def remove(self, row):
        triple = Triple(*row)
        assert self.graph.remove_triple(triple) == self.model.remove(triple)

    @rule(pick=st.integers(0, 99))
    def remove_present(self, pick):
        """Remove a row that is there: after a compaction or a load, a
        tombstone over the base columns."""
        if self.model.rows:
            triple = sorted(self.model.rows, key=repr)[pick % len(self.model.rows)]
            assert self.graph.remove_triple(triple) and self.model.remove(triple)

    @rule(picks=_picks)
    def merge(self, picks):
        pair = _merge_pair(self.model.entities, picks)
        if pair is not None:
            assert self.graph.merge_entities(*pair) == self.model.merge(*pair)

    @rule(pick=st.integers(0, 9), alias=st.sampled_from(("Ann", "ann", "Bo", "E0")))
    def add_alias(self, pick, alias):
        ids = sorted(self.model.entities)
        entity_id = ids[pick % len(ids)]
        self.graph.add_alias(entity_id, alias)
        self.model.add_alias(entity_id, alias)

    @rule(pick=st.integers(0, 9), alias=st.sampled_from(("Ann", "ann", "Bo", "E0")))
    def remove_alias(self, pick, alias):
        """Forget an alias, present or not: a name the entity still has in
        another case, or as its own name, keeps it in the name index."""
        ids = sorted(self.model.entities)
        entity_id = ids[pick % len(ids)]
        self.graph.remove_alias(entity_id, alias)
        self.model.remove_alias(entity_id, alias)
        assert [entity.entity_id for entity in self.graph.find_by_name(alias)] == (
            self.model.find_by_name(alias)
        )

    @rule()
    def copy(self):
        self.graph = self.graph.copy()
        self.model = self.model.copy()
        self._log_new_graph()

    @rule()
    def freeze(self):
        """Set a copy aside (at most three); later rules mutate only the
        live graph."""
        self.frozen = self.frozen[-2:] + [(self.graph.copy(), self.model.copy())]

    @rule()
    def compact(self):
        """Fold the delta into new base columns — the one place columns
        are (re)built, far below the auto-compaction threshold here."""
        self.graph._store.compact()

    @rule()
    def save_and_load(self):
        """The live graph becomes its snapshot's load, whose provenance is
        base columns; saving that load writes the same bytes again."""
        with tempfile.TemporaryDirectory() as tmp_dir:
            path = os.path.join(tmp_dir, "machine.rkgs")
            resaved = os.path.join(tmp_dir, "resaved.rkgs")
            codec.save_graph(self.graph, path, include_lineage=False)
            self.graph = codec.load_graph(path)
            codec.save_graph(codec.load_graph(path), resaved, include_lineage=False)
            with open(path, "rb") as first, open(resaved, "rb") as second:
                assert first.read() == second.read()
        self._log_new_graph()

    @rule()
    def recover(self):
        """Replaying the log (base + segments) rebuilds the model."""
        assert_graph_matches(self.wal.recover(), self.model)

    def teardown(self):
        self.wal.close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)

    @invariant()
    def graph_equals_model(self):
        assert_graph_matches(self.graph, self.model)

    @invariant()
    def frozen_copies_unchanged(self):
        for graph, model in self.frozen:
            assert_graph_matches(graph, model)


TestGraphMachine = GraphMachine.TestCase
TestGraphMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


def _double(x):
    return 2 * x


def test_pmap_process_agrees_once():
    """Process mode checked outside hypothesis (pool startup is slow)."""
    values = list(range(64))
    assert pmap(_double, values, mode="process", chunk_size=7) == [
        2 * value for value in values
    ]
