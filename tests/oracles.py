"""Reference implementations the production kernels are tested against.

Slow, obvious, and memo-free on purpose: the row-by-row Levenshtein DP that
``repro.ml.similarity.levenshtein`` used to be, ``pair_score`` composed
from it with every name re-tokenized and every token pair re-scored,
``accu_fuse``, the textbook Accu EM that ``AccuFusion.fuse`` (the only EM
loop in ``src/``) is compared with, ``accu_fuse_stepwise``, the same loop
over every data item that ``fuse`` must equal bit for bit, ``SetGraph``,
the set-of-rows model of ``repro.core.graph.KnowledgeGraph``, and the
full-scan ``merge_entities`` the index walk replaced.  The seeded
generators at the bottom give the equivalence suites identical work.
"""

import copy
import math
import random
from itertools import product

from repro.core import codec
from repro.core.graph import Entity, KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.triple import Provenance, Triple
from repro.integrate.fusion import ValueClaim
from repro.ml.similarity import jaro_winkler, numeric_similarity, tokenize
from repro.obs import lineage as obs_lineage

_jaro_winkler = jaro_winkler.__wrapped__  # the function under the memo


def levenshtein(left: str, right: str) -> int:
    """Classic edit distance, one DP cell per character pair."""
    previous = list(range(len(left) + 1))
    for row, right_char in enumerate(right, start=1):
        current = [row]
        for col, left_char in enumerate(left, start=1):
            substitution_cost = 0 if left_char == right_char else 1
            current.append(
                min(
                    previous[col] + 1,  # deletion
                    current[col - 1] + 1,  # insertion
                    previous[col - 1] + substitution_cost,
                )
            )
        previous = current
    return previous[-1]


def token_sort_similarity(left: str, right: str) -> float:
    left_sorted = " ".join(sorted(tokenize(left)))
    right_sorted = " ".join(sorted(tokenize(right)))
    if not left_sorted and not right_sorted:
        return 1.0
    longest = max(len(left_sorted), len(right_sorted))
    return 1.0 - levenshtein(left_sorted, right_sorted) / longest


def monge_elkan(left: str, right: str) -> float:
    left_tokens, right_tokens = tokenize(left), tokenize(right)
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    total = 0.0
    for left_token in left_tokens:
        total += max(_jaro_winkler(left_token, right_token) for right_token in right_tokens)
    return total / len(left_tokens)


def pair_score(left, right) -> float:
    """``repro.core.partition.pair_score`` from the oracles above."""
    if left.entity_class != right.entity_class:
        return 0.0
    name_sim = 0.5 * token_sort_similarity(left.name, right.name) + 0.5 * monge_elkan(
        left.name, right.name
    )
    for attribute in ("release_year", "birth_year"):
        left_year, right_year = left.fields.get(attribute), right.fields.get(attribute)
        if left_year is not None and right_year is not None:
            return 0.75 * name_sim + 0.25 * numeric_similarity(left_year, right_year)
    return name_sim


def accu_fuse(
    claims,
    n_distractors=10,
    n_iterations=10,
    initial_accuracy=0.8,
    min_accuracy=0.05,
    max_accuracy=0.99,
):
    """Textbook Accu EM over ``claims`` as given: no sort, no shards, plain
    ``sum``.  Returns ``(posterior per (subject, attribute), accuracy per
    source)`` — what ``AccuFusion.fuse`` must agree with to rounding."""
    grouped = {}
    for claim in claims:
        grouped.setdefault((claim.subject, claim.attribute), []).append(claim)
    accuracy = {claim.source: initial_accuracy for claim in claims}
    posteriors = {}
    for _ in range(n_iterations):
        mass = dict.fromkeys(accuracy, 0.0)
        count = dict.fromkeys(accuracy, 0)
        for item, item_claims in grouped.items():
            likelihood = {
                candidate: math.prod(
                    accuracy[claim.source]
                    if claim.value == candidate
                    else (1.0 - accuracy[claim.source]) / n_distractors
                    for claim in item_claims
                )
                for candidate in {claim.value for claim in item_claims}
            }
            total = sum(likelihood.values())
            posteriors[item] = {value: p / total for value, p in likelihood.items()}
            for claim in item_claims:
                mass[claim.source] += posteriors[item][claim.value]
                count[claim.source] += 1
        accuracy = {
            source: min(max_accuracy, max(min_accuracy, mass[source] / count[source]))
            for source in accuracy
        }
    return posteriors, accuracy


def accu_fuse_stepwise(fusion, claims):
    """``fusion.fuse(claims)`` as it ran before uncontested items were
    folded: the four kernel steps over *every* item in every iteration and
    one ``math.fsum`` per source over every item's mass.  Returns
    ``(results, accuracy)``; with lineage on it records the verdicts
    ``fuse`` records, in the same order."""
    claims = sorted(
        claims,
        key=lambda claim: (
            claim.subject,
            claim.attribute,
            claim.source,
            type(claim.value).__name__,
            str(claim.value),
        ),
    )
    grouped = {}
    for claim in claims:
        grouped.setdefault((claim.subject, claim.attribute), []).append(claim)
    sources = sorted({claim.source for claim in claims})
    accuracy = dict.fromkeys(sources, fusion.initial_accuracy)
    posteriors = {}
    for _ in range(fusion.n_iterations):
        rows = {source: [] for source in sources}
        counts = dict.fromkeys(sources, 0)
        for item_key in sorted(grouped):
            posterior = fusion.posterior(grouped[item_key], accuracy)
            posteriors[item_key] = posterior
            mass, item_counts = fusion.item_statistics(posterior, grouped[item_key])
            for source in mass:
                rows[source].append(mass[source])
                counts[source] += item_counts[source]
        accuracy = {
            source: fusion.estimate(math.fsum(rows[source]), counts[source])
            for source in sources
        }
    results = [
        fusion.decide(key, posteriors[key], grouped[key], accuracy, "fusion.accu")
        for key in sorted(posteriors)
    ]
    return results, accuracy


# ---------------------------------------------------------------------------
# the graph model


class SetGraph:
    """The set-of-rows model ``KnowledgeGraph`` is specified against.

    Entities with aliases, one ``set`` of ``(s, p, o)`` rows and a dict of
    provenance lists: no ids, no indexes, every read a scan.  What it pins:

    * term identity is Python equality and the first-seen representative
      wins for good (``0``, ``0.0`` and ``False`` are one term; a term is
      never forgotten, which is also what ``n_id_terms`` counts);
    * provenance accumulates per row, dies with a removed row, and moves
      with a row that a merge rewrites;
    * a merge rewrites the dropped entity's outgoing rows and then, reading
      again, its incoming ones — a ``(drop, p, drop)`` loop counts twice;
      merging an entity into itself is rejected;
    * lineage is one observation per provenance-carrying add and one merge
      record per merge.
    """

    def __init__(self):
        self.entities = {}  # id -> (name, set of aliases)
        self.rows = set()
        self.provenance = {}  # row -> [Provenance, ...]
        self._representative = {}

    def add_entity(self, entity_id, name, aliases=()):
        self.entities[entity_id] = (name, set(aliases))

    def add_alias(self, entity_id, alias):
        self.entities[entity_id][1].add(alias)

    def _row(self, triple):
        first_seen = self._representative.setdefault
        return tuple(first_seen(term, term) for term in triple.as_tuple())

    def add(self, triple, provenance=None):
        if triple.subject not in self.entities:
            raise ValueError(f"unknown subject entity: {triple.subject!r}")
        row = self._row(triple)
        is_new = row not in self.rows
        self.rows.add(row)
        if provenance is not None:
            self.provenance.setdefault(row, []).append(provenance)
            obs_lineage.record_observation(
                *triple.as_tuple(),
                source=provenance.source,
                extractor=provenance.extractor,
                confidence=provenance.confidence,
                stage="graph.add_triple",
            )
        return is_new

    def add_batch(self, items):
        """Per-item adds; an unknown subject raises with the earlier items kept."""
        n_new = 0
        for item in items:
            triple, provenance = item if type(item) is tuple else (item, None)
            n_new += self.add(triple, provenance)
        return n_new

    def remove(self, triple):
        row = triple.as_tuple()
        if row not in self.rows:
            return False
        self.rows.discard(row)
        self.provenance.pop(row, None)
        return True

    def merge(self, keep_id, drop_id):
        keep_name, keep_aliases = self.entities[keep_id]
        drop_name, drop_aliases = self.entities[drop_id]
        if keep_id == drop_id:
            raise ValueError(f"cannot merge entity {keep_id!r} into itself")
        rewritten = 0
        for position in (0, 2):  # outgoing rows, then incoming
            for row in [row for row in self.rows if row[position] == drop_id]:
                records = self.provenance.get(row, [])
                self.remove(Triple(*row))
                new = Triple(*(row[:position] + (keep_id,) + row[position + 1 :]))
                self.add(new)
                if records:
                    self.provenance.setdefault(self._row(new), []).extend(records)
                rewritten += 1
        keep_aliases |= drop_aliases | {drop_name}
        keep_aliases.discard(keep_name)
        del self.entities[drop_id]
        obs_lineage.record_merge(
            keep_id, drop_id, n_rewritten=rewritten, stage="graph.merge_entities"
        )
        return rewritten

    def copy(self):
        return copy.deepcopy(self)

    def query(self, subject=None, predicate=None, obj=None):
        pattern = (subject, predicate, obj)
        return {
            Triple(*row)
            for row in self.rows
            if all(want is None or want == term for want, term in zip(pattern, row))
        }

    def find_by_name(self, name):
        return sorted(
            entity_id
            for entity_id, (own, aliases) in self.entities.items()
            if name.lower() in {alias.lower() for alias in aliases | {own}}
        )

    def stats(self):
        n_edges = sum(
            1 for _, _, obj in self.rows if isinstance(obj, str) and obj in self.entities
        )
        return {
            "n_entities": len(self.entities),
            "n_triples": len(self.rows),
            "n_entity_edges": n_edges,
            "n_attribute_triples": len(self.rows) - n_edges,
            "n_id_terms": len(self._representative),
        }

    def state(self):
        """What :func:`public_state` reads off a ``KnowledgeGraph``."""
        triples = sorted(Triple(*row) for row in self.rows)
        return {
            "triples": triples,
            "provenance": {
                triple: records
                for triple in triples
                if (records := self.provenance.get(triple.as_tuple()))
            },
            "entities": sorted(self.entities),
            "aliases": {
                entity_id: sorted(aliases)
                for entity_id, (_, aliases) in self.entities.items()
            },
            "names": {
                name: self.find_by_name(name)
                for own, aliases in self.entities.values()
                for name in aliases | {own}
            },
        }


def public_state(graph):
    """A ``KnowledgeGraph``'s observable state, from public reads only."""
    triples = sorted(graph.query(), key=lambda t: t._sort_key())
    entities = list(graph.entities())
    return {
        "triples": triples,
        "provenance": {
            triple: records
            for triple in triples
            if (records := graph.provenance(triple))
        },
        "entities": sorted(e.entity_id for e in entities),
        "aliases": {e.entity_id: sorted(e.aliases) for e in entities},
        "names": {
            name: sorted(m.entity_id for m in graph.find_by_name(name))
            for e in entities
            for name in e.all_names()
        },
    }


def assert_graph_matches(graph, model):
    """Every public read of ``graph`` answers as the ``SetGraph`` does.

    State, size statistics, and — through a sample of present rows plus
    one absent row — all eight binding shapes of ``query`` with their
    ``pattern_cardinality``, membership, and the row helpers.
    """
    assert public_state(graph) == model.state()
    assert len(graph) == len(model.rows)
    stats = graph.stats()
    assert {key: stats[key] for key in model.stats()} == model.stats()
    probes = sorted(model.rows, key=repr)[:10] + [("ghost", "nope", -1)]
    for subject, predicate, obj in probes:
        for pattern in product((None, subject), (None, predicate), (None, obj)):
            answer = graph.query(*pattern)
            assert set(answer) == model.query(*pattern)
            assert len(answer) == len(set(answer)) == graph.pattern_cardinality(*pattern)
        triple = Triple(subject, predicate, obj)
        assert (triple in graph) == (triple.as_tuple() in model.rows)
        objects = {t.object for t in model.query(subject, predicate)}
        assert set(graph.objects(subject, predicate)) == objects
        assert graph.one_object(subject, predicate) == (
            next(iter(objects)) if len(objects) == 1 else None
        )
        assert graph.subjects(predicate, obj) == sorted(
            t.subject for t in model.query(None, predicate, obj)
        )
        assert graph.neighbors(subject) == sorted(
            [
                (t.predicate, t.object, True)
                for t in model.query(subject)
                if isinstance(t.object, str) and t.object in model.entities
            ]
            + [
                (t.predicate, t.subject, False)
                for t in model.query(obj=subject)
                if t.subject in model.entities
            ]
        )


# ---------------------------------------------------------------------------
# the full-scan merge (the pre-optimization algorithm, on a real graph)


def naive_merge_entities(graph, keep_id, drop_id):
    """Full-scan entity merge: the O(|T|) algorithm the index walk replaced.

    Scans ``graph.triples()`` twice per merge.  Its final graph state,
    provenance, and lineage records must match ``merge_entities`` exactly.
    """
    keep = graph.entity(keep_id)
    drop = graph.entity(drop_id)
    if keep_id == drop_id:
        raise ValueError(f"cannot merge entity {keep_id!r} into itself")
    rewritten = 0
    for triple in [t for t in graph.triples() if t.subject == drop_id]:
        _naive_rewrite(graph, triple, triple.replace_subject(keep_id))
        rewritten += 1
    for triple in [t for t in graph.triples() if t.object == drop_id]:
        _naive_rewrite(graph, triple, triple.replace_object(keep_id))
        rewritten += 1
    # Installed entities and name-index sets are replaced, never mutated:
    # graph copies share them.
    for alias in drop.all_names():
        key = alias.lower()
        graph._name_index[key] = (graph._name_index.get(key, set()) - {drop_id}) | {keep_id}
    graph._entities[keep_id] = Entity(
        keep.entity_id,
        keep.name,
        keep.entity_class,
        (keep.aliases | drop.all_names()) - {keep.name},
    )
    del graph._entities[drop_id]
    graph._generation += 1
    obs_lineage.record_merge(
        keep_id, drop_id, n_rewritten=rewritten, stage="graph.merge_entities"
    )
    return rewritten


def _naive_rewrite(graph, old, new):
    """Replace ``old`` with ``new``; provenance moves without re-observing it."""
    records = graph.provenance(old)
    graph.remove_triple(old)
    graph.add_triple(new)
    if records:
        # A delta entry replaces the triple's base records.
        graph._provenance[new] = graph.provenance(new) + records


# ---------------------------------------------------------------------------
# the replayed WAL replica (what an in-process follower's view must equal)


def replay_wal_directory(directory):
    """A WAL directory's graph rebuilt from ``base.rkgs`` plus every segment.

    Reads the files directly: opening a ``TripleWAL`` handle would end the
    writer's view it is compared with.
    """
    replay = codec.WALReplay(directory)
    replay.catch_up()
    return replay.graph


# ---------------------------------------------------------------------------
# synthetic data (seeded, so both sides of a comparison get identical work)


def build_graph(n_entities, n_triples):
    """A seeded scale-free-ish KG: entity edges plus attribute triples."""
    graph = empty_graph(n_entities)
    for triple, provenance in make_triples(n_entities, n_triples):
        graph.add_triple(triple, provenance=provenance)
    return graph


def empty_graph(n_entities):
    ontology = Ontology()
    ontology.add_class("Thing")
    graph = KnowledgeGraph(ontology=ontology, name="equiv")
    for index in range(n_entities):
        graph.add_entity(f"e{index}", f"Entity {index}", "Thing")
    return graph


#: Predicates mix entity-valued relations and literal attributes.
_RELATIONS = ("related_to", "part_of", "derived_from")
_ATTRIBUTES = ("label", "score", "year")


def make_triples(n_entities, n_triples, seed=7):
    """Deterministic (triple, provenance) pairs over ``e0..e{n-1}``."""
    rng = random.Random(seed)
    sources = [f"src{j}" for j in range(5)]
    items = []
    for _ in range(n_triples):
        subject = f"e{rng.randrange(n_entities)}"
        if rng.random() < 0.6:
            predicate = rng.choice(_RELATIONS)
            obj = f"e{rng.randrange(n_entities)}"
        else:
            predicate = rng.choice(_ATTRIBUTES)
            obj = (
                rng.randrange(1900, 2030)
                if predicate == "year"
                else f"value-{rng.randrange(2000)}"
            )
        provenance = Provenance(
            source=rng.choice(sources), confidence=round(rng.random(), 3)
        )
        items.append((Triple(subject, predicate, obj), provenance))
    return items


def make_claims(n_items, n_sources=4, seed=11):
    """Conflicting per-item claims for the fusion equivalence tests."""
    rng = random.Random(seed)
    claims = []
    for index in range(n_items):
        truth = f"v{rng.randrange(50)}"
        for source_index in range(n_sources):
            value = truth if rng.random() < 0.7 else f"v{rng.randrange(50)}"
            claims.append(
                ValueClaim(
                    subject=f"item{index}",
                    attribute="attr",
                    value=value,
                    source=f"s{source_index}",
                )
            )
    return claims


def merge_pairs(n_entities, n_merges, seed=13):
    """Disjoint (keep, drop) pairs: every entity appears at most once."""
    rng = random.Random(seed)
    ids = [f"e{i}" for i in range(n_entities)]
    rng.shuffle(ids)
    return [(ids[2 * k], ids[2 * k + 1]) for k in range(min(n_merges, len(ids) // 2))]
