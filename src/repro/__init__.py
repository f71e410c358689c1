"""repro - an executable reproduction of "Generations of Knowledge Graphs:
The Crazy Ideas and the Business Impact" (Xin Luna Dong, VLDB 2023).

The library implements all three KG generations end-to-end:

* **entity-based KGs** (Sec. 2): :mod:`repro.core`, :mod:`repro.transform`,
  :mod:`repro.integrate`, :mod:`repro.extract`, :mod:`repro.fuse`;
* **text-rich KGs** (Sec. 3): :mod:`repro.products`, whose AutoKnow
  builds the same :class:`~repro.core.graph.KnowledgeGraph`;
* **dual neural KGs** (Sec. 4): :mod:`repro.neural`;

plus the synthetic data substrate (:mod:`repro.datagen`), the from-scratch
ML layer (:mod:`repro.ml`), and the experiment registry
(:mod:`repro.evalx`).  See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro.datagen import build_world, WorldConfig
    from repro.core import KnowledgeGraph

    world = build_world(WorldConfig(n_movies=100))
    print(world.truth.stats())
"""

__version__ = "1.0.0"

from repro.core import (
    ConstructionPipeline,
    Entity,
    KnowledgeGraph,
    Ontology,
    Triple,
)

__all__ = [
    "__version__",
    "ConstructionPipeline",
    "Entity",
    "KnowledgeGraph",
    "Ontology",
    "Triple",
]
