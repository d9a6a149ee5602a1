"""Encoders re-parse to the value they encoded: parse(to_doc(v)) == v."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechtower import jsonio
from cechtower.abelian import Homomorphism

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
