"""Encoders re-parse to the value they encoded: parse(to_doc(v)) == v."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechtower import jsonio
from cechtower.abelian import Homomorphism
from cechtower.cli import Request, execute
from cechtower.cochain import SimplicialComplex, cech_complex
from cechtower.errors import SchemaError
from cechtower.liftgerbe import cyclic_table

from .oracles import reference_parse_complex
from .test_les_properties import sequences
from .test_liftgerbe import Z2, d4_extension, split_extension, z4_extension
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


Z2_DOC = {"free_rank": 0, "torsion": [2]}
Z4_DOC = {"free_rank": 0, "torsion": [4]}
TRIANGLE = SimplicialComplex(3, [(0, 1, 2)])
ILL_DEFINED = ("ill-defined homomorphism: column 0: source order 2 does not annihilate "
               "the image (target coordinate 0)")


def ses_doc(**changes):
    """0 -> Z/2 -> Z/4 -> Z/2 -> 0, with ``changes`` to its entries."""
    return {"A": Z2_DOC, "B": Z4_DOC, "C": Z2_DOC, "iota": [[2]], "pi": [[1]], **changes}


def short_projection_doc():
    doc = jsonio.extension_to_doc(z4_extension())
    return {**doc, "pi": doc["pi"][:-1]}


# Per site where a constructor's ValidationError becomes a SchemaError, a
# document it refuses and the whole message: the path, then the reason.
REFUSALS = {
    "group": (lambda: jsonio.parse_group({"free_rank": 0, "torsion": [2, 3]}, "g"),
              "g: torsion entries 2, 3 break the divisibility chain"),
    "homomorphism": (lambda: jsonio.parse_homomorphism(
        {"source": Z2_DOC, "target": Z4_DOC, "matrix": [[1]]}, "h"),
        f"h.matrix: {ILL_DEFINED}"),
    "cochain": (lambda: jsonio.parse_cochain({"degree": 1, "values": {"0,3": [1]}},
                                             cech_complex(TRIANGLE, Z2), "c"),
                "c.values: (0, 3) is not a cell of degree 1"),
    "ses-iota": (lambda: jsonio.parse_ses(ses_doc(iota=[[1]]), "s"), f"s.iota: {ILL_DEFINED}"),
    "ses-pi": (lambda: jsonio.parse_ses(ses_doc(B=Z2_DOC, C=Z4_DOC, iota=[[1]]), "s"),
               f"s.pi: {ILL_DEFINED}"),
    "ses": (lambda: jsonio.parse_ses(ses_doc(pi=[[0]]), "s"),
            "s: pi is not surjective (kernel_not_in_image): witness (1,)"),
    "tower": (lambda: jsonio.parse_tower_spec(
        {"complex": {"vertex_count": 4, "facets": [[0, 1, 2, 3]]}, "sequences": [],
         "band": Z2_DOC, "c2": {"degree": 2, "values": {"0,1,2": [1]}}}, "t"),
        "t: base cochain is not a cocycle"),
    "finite-group": (lambda: jsonio.parse_finite_group(
        {"order": 2, "table": [[0, 1], [1, 1]], "identity": 0}, "q"),
        "q: element 1 has no inverse"),
    "extension": (lambda: jsonio.parse_extension(short_projection_doc(), "e"),
                  "e: projection must assign a quotient element to every group element"),
    "transition": (lambda: jsonio.parse_transition({"0,1": 0}, TRIANGLE, cyclic_table(2), "t"),
                   "t: missing label for edge (0, 2)"),
    "connecting": (lambda: execute(Request("connecting", {
        "complex": jsonio.complex_to_doc(TRIANGLE), "ses": ses_doc(),
        "cochain": {"degree": 0, "values": {"0": [1]}}})),
        "payload.cochain: connecting morphism needs a cocycle input"),
}


@pytest.mark.parametrize("parse,message", REFUSALS.values(), ids=REFUSALS.keys())
def test_constructor_refusals_are_named_at_their_path(parse, message):
    with pytest.raises(SchemaError) as refused:
        parse()
    assert str(refused.value) == message
