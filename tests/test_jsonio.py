"""Encoders re-parse to the value they encoded: parse(to_doc(v)) == v."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechtower import jsonio
from cechtower.abelian import Homomorphism
from cechtower.errors import SchemaError

from .oracles import reference_parse_complex
from .test_les_properties import sequences
from .test_liftgerbe import d4_extension, split_extension, z4_extension
from .test_uct import coefficient_groups


def _step(d: int, o: int) -> int:
    """Entries from a source coordinate of order d to a target coordinate of
    order o are well defined exactly on the multiples of this step."""
    if d == 0:
        return 1
    return o // gcd(d, o) if o else 0


@st.composite
def homomorphisms(draw):
    source, target = draw(coefficient_groups()), draw(coefficient_groups())
    entry = st.integers(-20, 20)
    matrix = tuple(tuple(draw(entry) * _step(d, o) for d in source.orders)
                   for o in target.orders)
    return Homomorphism(source, target, matrix)


@settings(max_examples=50)
@given(homomorphisms())
def test_homomorphism_round_trip(h):
    assert jsonio.parse_homomorphism(jsonio.homomorphism_to_doc(h), "h") == h


@settings(max_examples=50)
@given(sequences())
def test_ses_round_trip(ses):
    assert jsonio.parse_ses(jsonio.ses_to_doc(ses), "ses") == ses


@pytest.mark.parametrize("build", [z4_extension, d4_extension, split_extension])
def test_extension_round_trip(build):
    ext = build()
    assert jsonio.parse_extension(jsonio.extension_to_doc(ext), "ext") == ext


# Facet arrays of a 3-vertex complex, each with one bad node.
MALFORMED_FACETS = {
    "bool": [[0, 1], [1, True]],
    "float": [[0, 1.0]],
    "string": [[0, "1"]],
    "null": [[0, None]],
    "nested-list": [[0, [1]]],
    "not-an-array": [[0, 1], 2],
    "negative": [[0, -1]],
    "out-of-range": [[0, 3]],
    "repeated": [[0, 1, 0]],
    "empty": [[0, 1], []],
}


def _parse_outcome(parse, doc):
    try:
        return parse(doc, "payload.complex")
    except SchemaError as e:
        return str(e)


@pytest.mark.parametrize("facets", MALFORMED_FACETS.values(), ids=MALFORMED_FACETS.keys())
def test_malformed_facets_named_as_entry_by_entry(facets):
    # One type check over every entry, and the closure's checks over every
    # facet at once, must name the node the entry-by-entry path names.
    doc = {"vertex_count": 3, "facets": facets}
    message = _parse_outcome(jsonio.parse_complex, doc)
    assert isinstance(message, str) and message.startswith("payload.complex.facets")
    assert message == _parse_outcome(reference_parse_complex, doc)


_ENTRIES = st.one_of(st.integers(-1, 4), st.booleans(), st.floats(allow_nan=False),
                     st.text(max_size=2), st.none(), st.lists(st.integers(0, 3), max_size=2))


@settings(max_examples=200)
@given(st.integers(-1, 4), st.lists(st.one_of(st.lists(_ENTRIES, max_size=4), _ENTRIES),
                                    max_size=4))
def test_random_facet_documents_parse_as_entry_by_entry(vertex_count, facets):
    doc = {"vertex_count": vertex_count, "facets": facets}
    fast, ref = _parse_outcome(jsonio.parse_complex, doc), _parse_outcome(
        reference_parse_complex, doc)
    assert (fast if isinstance(fast, str) else fast.simplices) == (
        ref if isinstance(ref, str) else ref[0])
