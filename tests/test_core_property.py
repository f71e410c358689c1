"""Property-based invariants for core data structures.

Complements the example-based tests: random operation sequences must keep
the taxonomy acyclic and consistent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ontology import Ontology, OntologyError

_class_names = st.sampled_from([f"C{i}" for i in range(8)])


@given(
    st.lists(
        st.tuples(st.sampled_from(["add", "move"]), _class_names, _class_names | st.none()),
        max_size=30,
    )
)
@settings(max_examples=80)
def test_ontology_random_ops_stay_consistent(operations):
    ontology = Ontology()
    for operation, class_name, parent in operations:
        try:
            if operation == "add":
                ontology.add_class(class_name, parent=parent)
            else:
                ontology.move_class(class_name, parent)
        except OntologyError:
            continue  # rejected operations must leave the taxonomy intact
    # Invariant 1: ancestor chains terminate (no cycles).
    for class_name in ontology.classes():
        chain = ontology.ancestors(class_name)
        assert class_name not in chain
        assert len(chain) == len(set(chain))
    # Invariant 2: parent/children agree.
    for class_name in ontology.classes():
        parent = ontology.parent(class_name)
        if parent is not None:
            assert class_name in ontology.children(parent)
        for child in ontology.children(class_name):
            assert ontology.parent(child) == class_name
    # Invariant 3: descendants is the transitive closure of children.
    for class_name in ontology.classes():
        descendants = set(ontology.descendants(class_name))
        direct = set(ontology.children(class_name))
        assert direct <= descendants
        for child in direct:
            assert set(ontology.descendants(child)) <= descendants
    # Invariant 4: depth equals ancestor count.
    for class_name in ontology.classes():
        assert ontology.depth(class_name) == len(ontology.ancestors(class_name))

