"""Reference implementations the production kernels are tested against.

Slow, obvious, and memo-free on purpose: the row-by-row Levenshtein DP that
``repro.ml.similarity.levenshtein`` used to be, ``pair_score`` composed
from it with every name re-tokenized and every token pair re-scored,
``accu_fuse``, the textbook Accu EM that ``AccuFusion.fuse`` (the only EM
loop in ``src/``) is compared with, ``accu_fuse_stepwise``, the same loop
over every data item that ``fuse`` must equal bit for bit, ``SetGraph``,
the set-of-rows model of ``repro.core.graph.KnowledgeGraph``,
``paths_exhaustive``, the path search before it pruned toward the goal,
the full-scan ``merge_entities`` the index walk replaced, and
``stitch_fragments``, the per-partition id-remap decode that assembly
did before partitions shipped their claims.  The seeded
generators at the bottom give the equivalence suites identical work.
"""

import copy
import math
import random
from itertools import product

from repro.core import codec
from repro.core.graph import Entity, KnowledgeGraph
from repro.core.ontology import Ontology
from repro.core.query import PathQuery
from repro.core.store import ColumnarTripleStore, term_key
from repro.core.triple import Provenance, Triple
from repro.integrate.fusion import FusionResult, ValueClaim
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
    """``fusion.fuse(claims)`` as a loop over *every* item in every
    iteration: no uncontested fold, no patterns, one posterior per item
    and one ``math.fsum`` per source over every item's mass.  Candidates
    are an item's distinct terms (``1``, ``1.0``, ``True`` and ``"1"`` are
    four) in ``(str, type name)`` order; of equally probable candidates the
    last wins.  Returns ``(results, accuracy)``; with lineage on it records
    the verdicts ``fuse`` records, in the same order."""
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
    candidates = {}
    for item_key, item_claims in grouped.items():
        distinct = {}
        for claim in item_claims:
            distinct.setdefault(term_key(claim.value), claim.value)
        candidates[item_key] = sorted(
            distinct.values(), key=lambda value: (str(value), type(value).__name__)
        )
    sources = sorted({claim.source for claim in claims})
    accuracy = dict.fromkeys(sources, fusion.initial_accuracy)
    posteriors = {}
    for _ in range(fusion.n_iterations):
        rows = {source: [] for source in sources}
        counts = dict.fromkeys(sources, 0)
        for item_key in sorted(grouped):
            item_claims = grouped[item_key]
            log_scores = {}
            for candidate in candidates[item_key]:
                log_score = 0.0
                for claim in item_claims:
                    trust = accuracy[claim.source]
                    if term_key(claim.value) == term_key(candidate):
                        log_score += math.log(trust)
                    else:
                        log_score += math.log((1.0 - trust) / fusion.n_distractors)
                log_scores[term_key(candidate)] = log_score
            peak = max(log_scores.values())
            unnormalized = {key: math.exp(score - peak) for key, score in log_scores.items()}
            total = sum(unnormalized.values())
            posterior = {key: score / total for key, score in unnormalized.items()}
            posteriors[item_key] = posterior
            mass = {}
            for claim in item_claims:
                mass[claim.source] = mass.get(claim.source, 0.0) + posterior[term_key(claim.value)]
                counts[claim.source] += 1
            for source, value in mass.items():
                rows[source].append(value)
        accuracy = {
            source: fusion.estimate(math.fsum(rows[source]), counts[source])
            for source in sources
        }
    results = []
    for item_key in sorted(posteriors):
        posterior = posteriors[item_key]
        probabilities = [posterior[term_key(value)] for value in candidates[item_key]]
        winner = max(range(len(probabilities)), key=lambda index: (probabilities[index], index))
        item_claims = grouped[item_key]
        if obs_lineage.lineage_enabled():
            trust = {claim.source: accuracy[claim.source] for claim in item_claims}
            for index, candidate in enumerate(candidates[item_key]):
                obs_lineage.record_fusion(
                    *item_key,
                    candidate,
                    verdict="accepted" if index == winner else "rejected",
                    confidence=probabilities[index],
                    source_trust=trust,
                    stage="fusion.accu",
                )
        results.append(
            FusionResult(
                *item_key,
                candidates[item_key][winner],
                probabilities[winner],
                len(item_claims),
            )
        )
    return results, accuracy


# ---------------------------------------------------------------------------
# the graph model


class SetGraph:
    """The set-of-rows model ``KnowledgeGraph`` is specified against.

    Entities with aliases, one ``set`` of rows (``Triple`` objects) and a
    dict of provenance lists: no ids, no indexes, every read a scan.  What
    it pins:

    * a term is its type plus its value (``0``, ``0.0`` and ``False`` are
      three terms, as ``Triple`` equality says); a term is never
      forgotten, which is what ``n_id_terms`` counts;
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
        self.terms = set()  # (type, value) of every term ever added

    def add_entity(self, entity_id, name, aliases=()):
        self.entities[entity_id] = (name, set(aliases))

    def add_alias(self, entity_id, alias):
        self.entities[entity_id][1].add(alias)

    def remove_alias(self, entity_id, alias):
        self.entities[entity_id][1].discard(alias)

    def add(self, triple, provenance=None):
        if triple.subject not in self.entities:
            raise ValueError(f"unknown subject entity: {triple.subject!r}")
        self.terms.update((type(term), term) for term in triple.as_tuple())
        is_new = triple not in self.rows
        self.rows.add(triple)
        if provenance is not None:
            self.provenance.setdefault(triple, []).append(provenance)
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
        if triple not in self.rows:
            return False
        self.rows.discard(triple)
        self.provenance.pop(triple, None)
        return True

    def merge(self, keep_id, drop_id):
        keep_name, keep_aliases = self.entities[keep_id]
        drop_name, drop_aliases = self.entities[drop_id]
        if keep_id == drop_id:
            raise ValueError(f"cannot merge entity {keep_id!r} into itself")
        rewritten = 0
        for position in (0, 2):  # outgoing rows, then incoming
            for row in [row for row in self.rows if row.as_tuple()[position] == drop_id]:
                records = self.provenance.get(row, [])
                self.remove(row)
                new = row.replace_subject(keep_id) if position == 0 else row.replace_object(keep_id)
                self.add(new)
                if records:
                    self.provenance.setdefault(new, []).extend(records)
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
            row
            for row in self.rows
            if all(
                want is None or (want == term and type(want) is type(term))
                for want, term in zip(pattern, row.as_tuple())
            )
        }

    def has_entity(self, entity_id):
        return entity_id in self.entities

    def neighbors(self, entity_id):
        """``KnowledgeGraph.neighbors`` by scan: edges to entities, sorted."""
        return sorted(
            [
                (t.predicate, t.object, True)
                for t in self.query(entity_id)
                if isinstance(t.object, str) and t.object in self.entities
            ]
            + [
                (t.predicate, t.subject, False)
                for t in self.query(obj=entity_id)
                if t.subject in self.entities
            ]
        )

    def find_by_name(self, name):
        return sorted(
            entity_id
            for entity_id, (own, aliases) in self.entities.items()
            if name.lower() in {alias.lower() for alias in aliases | {own}}
        )

    def stats(self):
        n_edges = sum(
            1 for row in self.rows if isinstance(row.object, str) and row.object in self.entities
        )
        return {
            "n_entities": len(self.entities),
            "n_triples": len(self.rows),
            "n_entity_edges": n_edges,
            "n_attribute_triples": len(self.rows) - n_edges,
            "n_id_terms": len(self.terms),
        }

    def state(self):
        """What :func:`public_state` reads off a ``KnowledgeGraph``."""
        triples = sorted(self.rows)
        return {
            "triples": triples,
            "provenance": {
                triple: records
                for triple in triples
                if (records := self.provenance.get(triple))
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
    probes = [row.as_tuple() for row in sorted(model.rows, key=repr)[:10]]
    probes.append(("ghost", "nope", -1))
    for subject, predicate, obj in probes:
        for pattern in product((None, subject), (None, predicate), (None, obj)):
            answer = graph.query(*pattern)
            assert set(answer) == model.query(*pattern)
            assert len(answer) == len(set(answer)) == graph.pattern_cardinality(*pattern)
        triple = Triple(subject, predicate, obj)
        assert (triple in graph) == (triple in model.rows)
        # As reprs, which tell 0, 0.0 and False apart.
        objects = sorted(repr(t.object) for t in model.query(subject, predicate))
        assert sorted(map(repr, graph.objects(subject, predicate))) == objects
        assert repr(graph.one_object(subject, predicate)) == (
            objects[0] if len(objects) == 1 else "None"
        )
        assert graph.subjects(predicate, obj) == sorted(
            t.subject for t in model.query(None, predicate, obj)
        )
        assert graph.neighbors(subject) == model.neighbors(subject)
        # Paths out of the row's subject: to its object when that is an
        # entity, round a cycle back to itself, and to the first entity.
        goals = {subject, min(model.entities, default=subject)}
        if obj in model.entities:
            goals.add(obj)
        for goal in sorted(goals, key=repr):
            assert PathQuery(graph, 3).paths(subject, goal, 5) == paths_exhaustive(
                model, subject, goal, 3, 5
            )


# ---------------------------------------------------------------------------
# the exhaustive path search (what PathQuery.paths must equal)


def paths_exhaustive(graph, start, goal, max_length=3, max_paths=100):
    """Every simple path of length <= ``max_length`` out of ``start``, in
    depth-first order, cut after ``max_paths`` goal hits: the search
    ``PathQuery.paths`` ran before it pruned on hop distance to the goal.
    ``graph`` is anything with ``has_entity`` and ``neighbors`` (a
    ``KnowledgeGraph`` or a ``SetGraph``)."""
    if not graph.has_entity(start) or not graph.has_entity(goal):
        return []
    results = []
    # Each frame carries its own visited set (start + path nodes), so
    # it is extended incrementally on push instead of being rebuilt
    # from the path on every pop; neighbor lists are fetched from the
    # graph once per node within one search.
    stack = [(start, [], frozenset((start,)))]
    neighbor_cache = {}
    while stack and len(results) < max_paths:
        node, path, visited = stack.pop()
        if node == goal and path:
            results.append(path)
            continue
        if len(path) >= max_length:
            continue
        neighbors = neighbor_cache.get(node)
        if neighbors is None:
            neighbors = neighbor_cache[node] = graph.neighbors(node)
        for relation, neighbor, outgoing in neighbors:
            if neighbor in visited and neighbor != goal:
                continue
            direction = 1 if outgoing else -1
            stack.append(
                (
                    neighbor,
                    path + [(relation, direction, neighbor)],
                    visited | {neighbor},
                )
            )
    return results


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
# the id-remap stitch (what exchange.stitch_fragments must equal)


def stitch_fragments(results, root_of):
    """Every partition's claims as ``(cluster root, attribute, value)`` rows,
    the long way round: each partition bulk-loads its claims into its own
    columnar store (its own term dictionary), and the sorted SPO id
    columns are decoded back through that dictionary, subjects rewritten
    to their roots."""
    rows = set()
    for result in results:
        store = ColumnarTripleStore()
        loader = store.bulk_loader()
        for claim in result.claims:
            loader.add(claim.subject, claim.attribute, claim.value)
        loader.finish()
        terms, (subjects, predicates, objects), _, _ = store.sorted_columns()
        for s_id, p_id, o_id in zip(subjects, predicates, objects):
            subject = terms[s_id]
            rows.add((root_of.get(subject, subject), terms[p_id], terms[o_id]))
    return rows


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
