"""Distantly supervised ClosedIE from semi-structured pages (Ceres-style).

"Distantly supervised extraction compares knowledge in existing KGs and
data on the semi-structured websites, and generates training data according
to the overlaps. ... This class of methods trains a model per website, but
the whole process is automatic and thus can scale up to a large number of
websites." (Sec. 2.3)

Pipeline here, mirroring Ceres [32]:

1. **Topic identification** — match the page's heading against seed-KG
   entity names;
2. **Distant annotation** — text nodes equal to a seed fact's value become
   positives for that attribute, everything else negatives (noisy on
   purpose: coincidental matches produce label noise, as in the original);
3. **Per-site model** — multinomial logistic regression over structural +
   local-context features of each text node, one-hot encoded by
   :class:`~repro.ml.logistic.FeatureVocabulary`;
4. **Extraction** — classify nodes of unseen pages, emit the best node per
   attribute above a confidence threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.graph import KnowledgeGraph
from repro.core.parallel import pmap
from repro.core.triple import AttributedTriple, Provenance, Triple
from repro.extract.dom import DomNode, preceding_text
from repro.ml.logistic import FeatureVocabulary, LogisticRegression
from repro.obs import metrics as obs_metrics
from repro.obs.profiling import profiled

NONE_LABEL = "none"


@dataclass
class SeedKnowledge:
    """Seed facts keyed by topic surface name (the 'existing KG' side)."""

    facts: Dict[str, Dict[str, str]] = field(default_factory=dict)

    @staticmethod
    def from_graph(graph: KnowledgeGraph, attributes: Sequence[str]) -> "SeedKnowledge":
        """Project a KG into name-keyed string facts for page matching."""
        seed = SeedKnowledge()
        for entity in graph.entities():
            record: Dict[str, str] = {}
            for attribute in attributes:
                objects = graph.objects(entity.entity_id, attribute)
                if not objects:
                    continue
                value = objects[0]
                if isinstance(value, str) and graph.has_entity(value):
                    value = graph.entity(value).name
                record[attribute] = str(value)
            if record:
                seed.facts[entity.name.lower()] = record
        return seed

    def lookup(self, topic_name: str) -> Optional[Dict[str, str]]:
        """Facts for a topic name (case-insensitive exact match)."""
        return self.facts.get(topic_name.lower())


def page_topic(page_root: DomNode) -> Optional[str]:
    """The page's topic string: first h1 text (falling back to <title>)."""
    for tag in ("h1", "title"):
        headings = page_root.find_by_tag(tag)
        if headings:
            text = headings[0].text_content()
            if text:
                # Site titles often suffix the site name: "Topic - site".
                return text.split(" - ")[0].strip()
    return None


def node_feature_strings(node: DomNode) -> List[str]:
    """Context features of a candidate value node.

    Deliberately label-text centric: the strongest signal on templated
    pages is the preceding key cell ("Director:"), exactly the commonality
    Ceres exploits.
    """
    features: List[str] = []
    parent = node.parent
    features.append(f"parent={parent.tag if parent is not None else 'none'}")
    grandparent = parent.parent if parent is not None else None
    features.append(f"grand={grandparent.tag if grandparent is not None else 'none'}")
    # Tag path without positional indexes: the template signature.
    steps = []
    walker = node if not node.is_text else parent
    while walker is not None:
        steps.append(walker.tag or "#text")
        walker = walker.parent
    features.append("tagpath=" + "/".join(reversed(steps)))
    features.append(f"depth={min(node.depth(), 10)}")
    previous = preceding_text(node)
    if previous is not None:
        features.append(f"prev={previous.lower().rstrip(':').strip()}")
    text = node.text if node.is_text else node.text_content()
    features.append(f"numeric={any(char.isdigit() for char in text)}")
    features.append(f"nwords={min(len(text.split()), 6)}")
    return features


@dataclass
class DistantSupervisor:
    """Generates (features, label) training data by KG/page overlap."""

    seed: SeedKnowledge

    def annotate_page(
        self, page_root: DomNode
    ) -> Optional[List[Tuple[DomNode, str]]]:
        """Label every text node of one page, or None if the topic is unknown.

        Only pages whose topic matches the seed KG contribute training data
        (the overlap requirement of distant supervision).
        """
        topic = page_topic(page_root)
        if topic is None:
            return None
        facts = self.seed.lookup(topic)
        if facts is None:
            return None
        value_to_attribute = {value.lower(): attribute for attribute, value in facts.items()}
        labeled: List[Tuple[DomNode, str]] = []
        for node in page_root.text_nodes():
            label = value_to_attribute.get(node.text.lower(), NONE_LABEL)
            if node.text.lower() == topic.lower():
                label = NONE_LABEL  # topic string is not an attribute value
            labeled.append((node, label))
        return labeled

    def training_data(
        self, pages: Sequence[DomNode]
    ) -> Tuple[List[List[str]], List[str], int]:
        """Features and labels over all matchable pages.

        Returns ``(feature_lists, labels, n_annotated_pages)``.
        """
        # Pages are labeled independently, so distant annotation fans out
        # through pmap; pmap preserves page order, keeping the training
        # rows (and hence the fitted model) identical in every mode.
        annotated_pages = pmap(self.annotate_page, pages)
        feature_lists: List[List[str]] = []
        labels: List[str] = []
        n_annotated = 0
        for annotated in annotated_pages:
            if annotated is None:
                continue
            n_annotated += 1
            for node, label in annotated:
                feature_lists.append(node_feature_strings(node))
                labels.append(label)
        return feature_lists, labels, n_annotated


@dataclass
class CeresExtractor:
    """A per-site ClosedIE extractor trained by distant supervision."""

    site_name: str
    confidence_threshold: float = 0.5
    seed: int = 0
    _vocabulary: FeatureVocabulary = field(default_factory=FeatureVocabulary, init=False)
    _model: Optional[LogisticRegression] = field(default=None, init=False, repr=False)
    _labels: List[str] = field(default_factory=list, init=False)
    n_training_pages_: int = field(default=0, init=False)

    @profiled("extract.distant.fit")
    def fit(self, pages: Sequence[DomNode], supervisor: DistantSupervisor) -> "CeresExtractor":
        """Train the per-site model from distant labels."""
        feature_lists, labels, n_annotated = supervisor.training_data(pages)
        obs_metrics.count("extract.distant.pages_annotated", n_annotated)
        obs_metrics.count("extract.distant.training_nodes", len(labels))
        if n_annotated == 0:
            raise ValueError(
                f"no page of {self.site_name!r} overlaps the seed KG; "
                "distant supervision is impossible"
            )
        self.n_training_pages_ = n_annotated
        self._labels = sorted(set(labels) | {NONE_LABEL})
        label_index = {label: index for index, label in enumerate(self._labels)}
        matrix = self._vocabulary.fit(feature_lists).transform(feature_lists)
        targets = np.array([label_index[label] for label in labels])
        self._model = LogisticRegression(
            learning_rate=0.8, n_iterations=250, l2=1e-4, seed=self.seed
        )
        self._model.fit(matrix, targets)
        return self

    @profiled("extract.distant.extract")
    def extract(self, page_root: DomNode) -> Dict[str, Tuple[str, float]]:
        """Extract attribute -> (value_text, confidence) from one page."""
        if self._model is None:
            raise RuntimeError("extractor is not fitted")
        nodes = list(page_root.text_nodes())
        if not nodes:
            return {}
        feature_lists = pmap(node_feature_strings, nodes)
        probabilities = self._model.predict_proba(self._vocabulary.transform(feature_lists))
        best: Dict[str, Tuple[str, float]] = {}
        for node, row in zip(nodes, probabilities):
            for label_position, label in enumerate(self._labels):
                if label == NONE_LABEL:
                    continue
                confidence = float(row[label_position])
                if confidence < self.confidence_threshold:
                    continue
                current = best.get(label)
                if current is None or confidence > current[1]:
                    best[label] = (node.text, confidence)
        return best

    def extract_triples(self, page_root: DomNode) -> List[AttributedTriple]:
        """Extraction as provenance-carrying triples for downstream fusion."""
        topic = page_topic(page_root)
        if topic is None:
            return []
        triples = []
        extracted = self.extract(page_root)
        obs_metrics.count("extract.distant.values", len(extracted))
        for attribute, (value, confidence) in sorted(extracted.items()):
            triples.append(
                AttributedTriple(
                    Triple(topic, attribute, value),
                    Provenance(source=self.site_name, extractor="ceres", confidence=confidence),
                )
            )
        return triples
