"""Pattern and path queries over a :class:`KnowledgeGraph`.

The paper motivates KGs as "suitable to facilitate understanding in search,
question answering, and dialogs, to power recommendation through the graph
structure, and to display ... explanation (in paths in the graph)" (Sec. 1).
This module supplies the query layer those applications sit on: conjunctive
triple-pattern matching with variables, and bounded path search between
entities.  The Sec. 2.4 Path Ranking Algorithm also reuses the path
enumeration implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.graph import KnowledgeGraph
from repro.core.triple import Value

Binding = Dict[str, Value]


def is_variable(term: object) -> bool:
    """Variables are strings starting with ``?`` (e.g. ``"?movie"``)."""
    return isinstance(term, str) and term.startswith("?")


@dataclass(frozen=True)
class TriplePattern:
    """One pattern in a conjunctive query; any term may be a ``?variable``."""

    subject: str
    predicate: str
    object: Value

    def variables(self) -> List[str]:
        """Variables appearing in this pattern."""
        return [term for term in (self.subject, self.predicate, self.object) if is_variable(term)]

    def bind(self, binding: Binding) -> "TriplePattern":
        """Substitute bound variables with their values."""

        def resolve(term):
            if is_variable(term) and term in binding:
                return binding[term]
            return term

        return TriplePattern(resolve(self.subject), resolve(self.predicate), resolve(self.object))


def match_pattern(graph: KnowledgeGraph, pattern: TriplePattern) -> Iterator[Binding]:
    """Yield one binding per graph triple matching the pattern."""
    subject = None if is_variable(pattern.subject) else pattern.subject
    predicate = None if is_variable(pattern.predicate) else pattern.predicate
    obj = None if is_variable(pattern.object) else pattern.object
    for triple in graph.query(subject=subject, predicate=predicate, obj=obj):
        binding: Binding = {}
        if subject is None:
            binding[pattern.subject] = triple.subject
        if predicate is None:
            binding[pattern.predicate] = triple.predicate
        if obj is None:
            binding[pattern.object] = triple.object
        yield binding


def pattern_selectivity(graph: KnowledgeGraph, pattern: TriplePattern) -> int:
    """Estimated matches for one pattern (variables as wildcards).

    Exact for the pattern in isolation — it reads index row sizes via
    :meth:`KnowledgeGraph.pattern_cardinality` without materializing
    triples — and an upper bound once earlier join steps bind variables.
    """
    return graph.pattern_cardinality(
        subject=None if is_variable(pattern.subject) else pattern.subject,
        predicate=None if is_variable(pattern.predicate) else pattern.predicate,
        obj=None if is_variable(pattern.object) else pattern.object,
    )


def conjunctive_query(
    graph: KnowledgeGraph, patterns: Sequence[TriplePattern], reorder: bool = True
) -> List[Binding]:
    """Join a sequence of patterns; returns all consistent variable bindings.

    Patterns are evaluated left-to-right with bindings threaded through.
    By default they are first reordered most-selective-first (smallest
    index-estimated match count leads, ties keeping caller order), so the
    join frontier stays small regardless of how the caller wrote the
    query; ``reorder=False`` restores strict caller ordering.  The
    solution *set* is order-independent either way.
    """
    ordered = list(patterns)
    if reorder and len(ordered) > 1 and hasattr(graph, "pattern_cardinality"):
        ordered.sort(key=lambda pattern: pattern_selectivity(graph, pattern))
    solutions: List[Binding] = [{}]
    for pattern in ordered:
        next_solutions: List[Binding] = []
        for binding in solutions:
            bound = pattern.bind(binding)
            for new_binding in match_pattern(graph, bound):
                merged = dict(binding)
                conflict = False
                for variable, value in new_binding.items():
                    if variable in merged and merged[variable] != value:
                        conflict = True
                        break
                    merged[variable] = value
                if not conflict:
                    next_solutions.append(merged)
        solutions = next_solutions
        if not solutions:
            break
    return solutions


@dataclass
class PathQuery:
    """Bounded-length path search between two entities.

    A path is a sequence of ``(relation, direction, node)`` steps;
    ``direction`` is ``+1`` for an outgoing edge and ``-1`` for incoming.
    """

    graph: KnowledgeGraph
    max_length: int = 3

    def paths(
        self, start: str, goal: str, max_paths: int = 100
    ) -> List[List[Tuple[str, int, str]]]:
        """All simple paths from ``start`` to ``goal`` up to ``max_length``.

        A path never revisits a node, and the goal only ends one (with
        ``start == goal`` the paths are cycles through it).  The search is
        a depth-first walk that pushes a node's neighbors in
        :meth:`KnowledgeGraph.neighbors` order, cut after ``max_paths``
        paths; the list is ``==`` that exhaustive walk's, order included
        (``tests/oracles.py::paths_exhaustive``).  It walks only toward
        the goal: a breadth-first pass out from ``goal`` first records each
        node's hop distance to it, up to ``max_length - 1`` hops, and a
        neighbor is pushed only when that distance fits in the hops left
        after stepping to it.  The distance is a lower bound on any simple
        path's length, so a pruned branch holds no path, and the pushes
        that survive keep their order.  Both passes share one neighbor
        cache.
        """
        if not self.graph.has_entity(start) or not self.graph.has_entity(goal):
            return []
        neighbor_cache: Dict[str, List[Tuple[str, str, bool]]] = {}

        def neighbors_of(node: str) -> List[Tuple[str, str, bool]]:
            neighbors = neighbor_cache.get(node)
            if neighbors is None:
                neighbors = neighbor_cache[node] = self.graph.neighbors(node)
            return neighbors

        hops_to_goal = _hop_distances(neighbors_of, goal, self.max_length - 1)
        results: List[List[Tuple[str, int, str]]] = []
        # Each frame carries its own visited set (start + path nodes),
        # extended on push instead of rebuilt from the path on every pop.
        stack: List[Tuple[str, List[Tuple[str, int, str]], frozenset]] = [
            (start, [], frozenset((start,)))
        ]
        while stack and len(results) < max_paths:
            node, path, visited = stack.pop()
            if node == goal and path:
                results.append(path)
                continue
            # Hops left once this frame takes one more step.
            budget = self.max_length - len(path) - 1
            if budget < 0:
                continue
            for relation, neighbor, outgoing in neighbors_of(node):
                if neighbor in visited and neighbor != goal:
                    continue
                hops = hops_to_goal.get(neighbor)
                if hops is None or hops > budget:
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

    def relation_paths(self, start: str, goal: str, max_paths: int = 100) -> List[Tuple]:
        """Paths reduced to their relation signatures, e.g.
        ``(("acted_in", 1), ("acted_in", -1))`` — the feature space of PRA."""
        signatures = []
        for path in self.paths(start, goal, max_paths=max_paths):
            signatures.append(tuple((relation, direction) for relation, direction, _ in path))
        return signatures

    def reachable(self, start: str, max_hops: int = 2) -> Dict[str, int]:
        """Entities reachable from ``start`` with their hop distance."""
        if not self.graph.has_entity(start):
            return {}
        distances = _hop_distances(self.graph.neighbors, start, max_hops)
        distances.pop(start)
        return distances


def _hop_distances(
    neighbors_of: Callable[[str], List[Tuple[str, str, bool]]], source: str, max_hops: int
) -> Dict[str, int]:
    """Breadth-first hop distance from ``source`` (0) to every node within
    ``max_hops`` over the undirected entity adjacency."""
    distances = {source: 0}
    frontier = [source]
    for hop in range(1, max_hops + 1):
        next_frontier = []
        for node in frontier:
            for _relation, neighbor, _outgoing in neighbors_of(node):
                if neighbor not in distances:
                    distances[neighbor] = hop
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return distances
