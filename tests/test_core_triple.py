"""Tests for triples and provenance."""

import math

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.triple import AttributedTriple, Provenance, Triple

_objects = st.one_of(
    st.sampled_from([0, 0.0, -0.0, False, True, 1, 1.0, "0", "x", "x"]),
    st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(min_size=1, max_size=3),
)
_triples = st.builds(
    Triple, st.sampled_from(["a", "b"]), st.sampled_from(["p", "q"]), _objects
)


class TestTriple:
    def test_tuple_roundtrip(self):
        triple = Triple("s", "p", "o")
        assert triple.as_tuple() == ("s", "p", "o")

    def test_rejects_empty_components(self):
        with pytest.raises(ValueError):
            Triple("", "p", "o")
        with pytest.raises(ValueError):
            Triple("s", "", "o")
        with pytest.raises(ValueError):
            Triple("s", "p", "")

    def test_numeric_object_allowed(self):
        assert Triple("s", "year", 1999).object == 1999

    def test_immutability(self):
        triple = Triple("s", "p", "o")
        with pytest.raises(AttributeError):
            triple.subject = "x"

    def test_replace_subject(self):
        assert Triple("a", "p", "o").replace_subject("b") == Triple("b", "p", "o")

    def test_replace_object(self):
        assert Triple("a", "p", "o").replace_object("q") == Triple("a", "p", "q")

    def test_hashable_and_equal(self):
        assert len({Triple("s", "p", "o"), Triple("s", "p", "o")}) == 1
        # A term is its type plus its value.
        assert Triple("s", "p", 1) != Triple("s", "p", 1.0) != Triple("s", "p", True)
        assert Triple("s", "p", 1) != Triple("s", "p", True)
        assert len({Triple("s", "p", 1), Triple("s", "p", 1.0), Triple("s", "p", True)}) == 3
        assert Triple("s", "p", 2.0) == Triple("s", "p", 2.0)

    def test_negative_zero_object_is_zero(self):
        triple = Triple("s", "p", -0.0)
        assert triple.object == 0.0 and math.copysign(1.0, triple.object) == 1.0
        assert triple == Triple("s", "p", 0.0)
        assert hash(triple) == hash(Triple("s", "p", 0.0))

    @pytest.mark.parametrize(
        "obj", [math.nan, numpy.int64(5), numpy.float64(1.5), None, b"x", (1,), [1]]
    )
    def test_rejects_objects_outside_the_term_domain(self, obj):
        """An object is a str, int, float or bool (what a snapshot can
        store), and never NaN, which would never equal itself."""
        with pytest.raises(ValueError, match="triple object"):
            Triple("s", "p", obj)

    def test_ordering_is_lexicographic(self):
        assert Triple("a", "p", "o") < Triple("b", "a", "a")

    @given(st.lists(_triples, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_key_order_is_lt_order(self, triples):
        """Graph reads sort by ``_sort_key``; that is ``__lt__``'s order,
        ties (equal keys) included, over mixed-type objects."""
        assert sorted(triples, key=Triple._sort_key) == sorted(triples)
        by_key = [id(triple) for triple in sorted(triples, key=Triple._sort_key)]
        assert by_key == [id(triple) for triple in sorted(triples)]

    def test_str(self):
        assert str(Triple("s", "p", "o")) == "(s, p, o)"


class TestProvenance:
    def test_defaults(self):
        provenance = Provenance(source="imdb")
        assert provenance.confidence == 1.0
        assert provenance.extractor is None

    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            Provenance(source="x", confidence=1.5)
        with pytest.raises(ValueError):
            Provenance(source="x", confidence=-0.1)


class TestAttributedTriple:
    def test_confidence_shortcut(self):
        attributed = AttributedTriple(
            Triple("s", "p", "o"), Provenance(source="x", confidence=0.7)
        )
        assert attributed.confidence == 0.7

    def test_default_provenance(self):
        attributed = AttributedTriple(Triple("s", "p", "o"))
        assert attributed.provenance.source == "unknown"
