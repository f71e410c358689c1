"""Core knowledge-graph data model.

This subpackage realizes the paper's two structural generations in one
:class:`~repro.core.graph.KnowledgeGraph`, a directed, edge-labelled graph
over a class taxonomy (the ontology):

* the entity-based KG of Sec. 2 (nodes are identified entities, edges are
  ontology relations);
* the text-rich, mostly bipartite KG of Sec. 3 (products typed by the
  taxonomy, connected by attributes to free-text values), which
  :mod:`repro.products.autoknow` builds.

Both use the triple/ontology/provenance vocabulary defined here, plus a
pattern/path query engine and the construction-pipeline framework that the
Fig. 4 architectures are assembled from.  ``save_graph`` / ``load_graph``
are :mod:`repro.core.codec`'s — ``.rkgs`` is the one on-disk format.
"""

from repro.core.triple import Provenance, Triple
from repro.core.ontology import Ontology, OntologyError, Relation
from repro.core.graph import Entity, KnowledgeGraph
from repro.core.query import PathQuery, TriplePattern, match_pattern
from repro.core.pipeline import ConstructionPipeline, PipelineContext, PipelineStage, StageReport
from repro.core.lifecycle import CycleStage
from repro.core.codec import load_graph, save_graph
from repro.core.panel import KnowledgePanel, render_panel

__all__ = [
    "Provenance",
    "Triple",
    "Ontology",
    "OntologyError",
    "Relation",
    "Entity",
    "KnowledgeGraph",
    "PathQuery",
    "TriplePattern",
    "match_pattern",
    "ConstructionPipeline",
    "PipelineContext",
    "PipelineStage",
    "StageReport",
    "CycleStage",
    "load_graph",
    "save_graph",
    "KnowledgePanel",
    "render_panel",
]
