"""Product search and comparison over a text-rich KG.

The paper motivates text-rich KGs by the features they feed: "information
display, product comparison, search, recommendation" (Sec. 3.2) and
conversational shopping [48].  This module implements the first three on
top of the :class:`~repro.core.graph.KnowledgeGraph` AutoKnow builds
(products are entities typed by the taxonomy, attribute values are
triples):

* :meth:`ProductSearch.search` — parse a free-text query with the KG's own
  vocabulary (attribute values become filters, type words become taxonomy
  filters), then intersect the products carrying each value;
* :meth:`ProductSearch.display` — the attribute-value panel for one product
  ("display information for human understanding (in attribute-value
  pairs)", Sec. 1);
* :meth:`ProductSearch.compare` — the side-by-side table ("comparison (in
  tables)", Sec. 1).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.graph import KnowledgeGraph


@dataclass(frozen=True)
class ParsedQuery:
    """What the query understander extracted from the text."""

    type_filter: Optional[str]
    value_filters: Tuple[Tuple[str, str], ...]  # (attribute, value)
    residual_terms: Tuple[str, ...]


@dataclass(frozen=True)
class SearchHit:
    """One ranked result."""

    topic_id: str
    title: str
    score: float
    matched: Tuple[str, ...]


@dataclass
class ProductSearch:
    """Attribute-aware search over the bipartite KG."""

    kg: KnowledgeGraph

    def _value_index(self) -> Dict[Tuple[str, str], Set[str]]:
        """(attribute, lower-cased value) -> the products carrying it: the
        value side of the bipartite graph, read off the triples."""
        index: Dict[Tuple[str, str], Set[str]] = defaultdict(set)
        for triple in self.kg.triples():
            index[(triple.predicate, str(triple.object).lower())].add(triple.subject)
        return index

    def parse(self, query: str) -> ParsedQuery:
        """Understand a query with KG vocabulary (no model needed: the KG
        itself is the gazetteer of types and attribute values)."""
        lowered = query.lower()
        tokens = lowered.split()
        # Type filter: longest taxonomy class name appearing in the query.
        type_filter = None
        for class_name in sorted(self.kg.ontology.classes(), key=len, reverse=True):
            if class_name.lower() in lowered:
                type_filter = class_name
                break
        # Value filters: known attribute values appearing in the query,
        # longest-first so "dark roast" beats "dark".
        value_filters: List[Tuple[str, str]] = []
        consumed: Set[str] = set()
        candidates = sorted(self._value_index(), key=lambda av: (-len(av[1]), av))
        for attribute, value in candidates:
            if value in lowered and not any(value in other for other in consumed):
                value_filters.append((attribute, value))
                consumed.add(value)
        residual = tuple(
            token
            for token in tokens
            if not any(token in value for _a, value in value_filters)
            and (type_filter is None or token not in type_filter.lower())
        )
        return ParsedQuery(
            type_filter=type_filter,
            value_filters=tuple(sorted(value_filters)),
            residual_terms=residual,
        )

    def search(self, query: str, top_k: int = 10) -> List[SearchHit]:
        """Rank topics by filter satisfaction + title term overlap."""
        parsed = self.parse(query)
        scores: Dict[str, float] = {}
        matched: Dict[str, List[str]] = {}
        candidate_ids = {entity.entity_id for entity in self.kg.entities(parsed.type_filter)}
        index = self._value_index()
        for attribute, value in parsed.value_filters:
            for topic_id in index[(attribute, value)] & candidate_ids:
                scores[topic_id] = scores.get(topic_id, 0.0) + 1.0
                matched.setdefault(topic_id, []).append(f"{attribute}={value}")
        if not parsed.value_filters:
            for topic_id in candidate_ids:
                scores.setdefault(topic_id, 0.0)
        # Residual terms match against titles (weak signal).
        for topic_id in list(scores):
            title = self.kg.entity(topic_id).name.lower()
            bonus = sum(0.1 for term in parsed.residual_terms if term in title)
            scores[topic_id] += bonus
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        hits = []
        for topic_id, score in ranked[:top_k]:
            hits.append(
                SearchHit(
                    topic_id=topic_id,
                    title=self.kg.entity(topic_id).name,
                    score=score,
                    matched=tuple(sorted(matched.get(topic_id, ()))),
                )
            )
        return hits

    def display(self, topic_id: str) -> Dict[str, str]:
        """The attribute-value panel for one product: per attribute, the
        value with the highest provenance confidence (ties go to the first
        in the graph's object order)."""
        best: Dict[str, Tuple[float, str]] = {}
        for triple in self.kg.query(subject=topic_id):
            confidence = max(
                (record.confidence for record in self.kg.provenance(triple)), default=0.0
            )
            current = best.get(triple.predicate)
            if current is None or confidence > current[0]:
                best[triple.predicate] = (confidence, triple.object)
        return {attribute: value for attribute, (_confidence, value) in best.items()}

    def compare(self, topic_ids: Sequence[str]) -> List[List[str]]:
        """A side-by-side comparison table: header row then one row per
        attribute any of the topics carries."""
        header = ["attribute"] + [self.kg.entity(topic_id).name for topic_id in topic_ids]
        attributes: Set[str] = set()
        panels = {}
        for topic_id in topic_ids:
            panels[topic_id] = self.display(topic_id)
            attributes.update(panels[topic_id])
        rows = [header]
        for attribute in sorted(attributes):
            rows.append(
                [attribute]
                + [panels[topic_id].get(attribute, "-") for topic_id in topic_ids]
            )
        return rows
