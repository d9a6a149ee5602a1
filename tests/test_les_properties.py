"""Long exact sequences of random coefficient sequences on random sites.

Short exact sequences are drawn from Z/a -> Z/ab -> Z/b, Z -(x m)-> Z ->
Z/m, split A -> A (+) C -> C, and direct sums of two of these, which mix
free and torsion groups of several orders.  On random sites from
``test_uct.sites`` the tests check exactness of the long exact sequence at
every position, that a connecting class does not depend on the lift
(``twist``), and, where enumeration is small enough, the connecting map
against a Bockstein computed by search (``oracles.brute_connecting``)
modulo the enumerated coboundaries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechtower.abelian import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    cyclic_group,
    direct_sum_with_maps,
    free_group,
)
from cechtower.cochain import cech_complex, class_of, cohomology
from cechtower.exactseq import connecting, long_exact_sequence, validate_ses

from .oracles import brute_cohomology, brute_connecting, coboundary_set
from .test_uct import sites

Z = free_group(1)
BRUTE_BUDGET = 1 << 12
SMALL_GROUPS = (Z, cyclic_group(2), cyclic_group(3), cyclic_group(4),
                FgAbGroup(0, (2, 2)))


def _cyclic_extension(a: int, b: int):
    """Z/a -(x b)-> Z/ab -> Z/b."""
    za, zab, zb = cyclic_group(a), cyclic_group(a * b), cyclic_group(b)
    return validate_ses(za, zab, zb, Homomorphism(za, zab, ((b,),)),
                        Homomorphism(zab, zb, ((1,),)))


@st.composite
def cyclic_extensions(draw):
    return _cyclic_extension(draw(st.sampled_from((2, 3, 4))),
                             draw(st.sampled_from((2, 3, 4))))


@st.composite
def integral_extensions(draw):
    """Z -(x m)-> Z -> Z/m."""
    m = draw(st.sampled_from((2, 3, 4, 6)))
    zm = cyclic_group(m)
    return validate_ses(Z, Z, zm, Homomorphism(Z, Z, ((m,),)),
                        Homomorphism(Z, zm, ((1,),)))


@st.composite
def split_extensions(draw):
    """A -> A (+) C -> C with the summand maps."""
    a, c = draw(st.sampled_from(SMALL_GROUPS)), draw(st.sampled_from(SMALL_GROUPS))
    total, emb, proj = direct_sum_with_maps([a, c])
    return validate_ses(a, total, c, emb[0], proj[1])


def _sum_of(out_maps, maps, in_maps, source, target) -> Homomorphism:
    """sum_i out_maps[i] . maps[i] . in_maps[i]: source -> target."""
    mats = [e.compose(m).compose(q).matrix for e, m, q in zip(out_maps, maps, in_maps)]
    return Homomorphism(source, target, tuple(
        tuple(sum(m[i][j] for m in mats) for j in range(source.ngens))
        for i in range(target.ngens)))


def direct_sum_of(s1, s2):
    """The direct sum of two short exact sequences, in invariant-factor form."""
    a, _, pa = direct_sum_with_maps([s1.a, s2.a])
    b, eb, pb = direct_sum_with_maps([s1.b, s2.b])
    c, ec, _ = direct_sum_with_maps([s1.c, s2.c])
    return validate_ses(a, b, c, _sum_of(eb, (s1.iota, s2.iota), pa, a, b),
                        _sum_of(ec, (s1.pi, s2.pi), pb, b, c))


simple_sequences = st.one_of(cyclic_extensions(), integral_extensions(),
                             split_extensions())


@st.composite
def sequences(draw):
    """One simple sequence, or the direct sum of two (mixed groups)."""
    s1 = draw(simple_sequences)
    if not draw(st.booleans()):
        return s1
    return direct_sum_of(s1, draw(simple_sequences))


def _random_element(rng, group) -> GroupElement:
    return GroupElement(group, tuple(
        rng.randrange(o) if o else rng.randint(-3, 3) for o in group.orders))


def _finite_and_small(group: FgAbGroup, count: int) -> bool:
    return not group.free_rank and (group.order() or 1) ** count <= BRUTE_BUDGET


@settings(max_examples=30)
@given(sites(), sequences())
def test_long_exact_sequence_is_exact(x, ses):
    report = long_exact_sequence(x, ses, x.dim + 1)
    assert report.ok, [e.label for e in report.exact_at if not e.ok]
    # Where both ends are finite, compare image and kernel by enumeration.
    incoming = None
    for outgoing in report.maps:
        group = outgoing.source
        if group.free_rank or (incoming is not None and incoming.source.free_rank):
            incoming = outgoing
            continue
        if incoming is None:
            image = {group.zero().coords}
        else:
            image = {incoming.apply(el).coords for el in incoming.source.elements()}
        kernel = {el.coords for el in group.elements() if outgoing.apply(el).is_zero}
        assert image == kernel
        incoming = outgoing


@settings(max_examples=30)
@given(sites(), sequences(), st.randoms(use_true_random=False))
def test_connecting_class_is_independent_of_the_lift(x, ses, rng):
    comp_c, comp_a = cech_complex(x, ses.c), cech_complex(x, ses.a)
    for p in range(x.dim + 1):
        h = cohomology(comp_c, p)
        k = comp_c.ncells(p)
        for rep in h.representatives:
            base = class_of(comp_a, connecting(x, ses, rep)).coords
            for _ in range(3):
                twist = [_random_element(rng, ses.a) for _ in range(k)]
                assert class_of(comp_a, connecting(x, ses, rep, twist=twist)).coords == base


@settings(max_examples=40)
@given(sites(), sequences())
def test_connecting_agrees_with_brute_force_bockstein(x, ses):
    comps = [cech_complex(x, g) for g in (ses.a, ses.b, ses.c)]
    comp_a, comp_b, comp_c = comps
    if any(g.free_rank for g in (ses.a, ses.b, ses.c)):
        return
    for p in range(x.dim + 1):
        if not _finite_and_small(ses.a, comp_a.ncells(p)):
            continue
        target = cohomology(comp_a, p + 1)
        if _finite_and_small(ses.a, comp_a.ncells(p + 1)):
            assert target.group == brute_cohomology(comp_a, p + 1, BRUTE_BUDGET)
        boundaries = coboundary_set(comp_a, p + 1, BRUTE_BUDGET)
        amb = comp_a.group(p + 1)
        for rep in cohomology(comp_c, p).representatives:
            fast = connecting(x, ses, rep).coords
            brute = brute_connecting(comp_a, comp_b, comp_c, ses.iota, ses.pi,
                                     rep.coords, p)
            assert amb.normalize([u - v for u, v in zip(fast, brute)]) in boundaries


# Random sites small enough to enumerate rarely carry torsion, so the
# Bockstein above is mostly zero there; on the projective plane it is not.
@pytest.mark.parametrize("extension", [(2, 2), (2, 4), (2, 3), (2, 6)])
def test_projective_plane_bockstein_against_brute_force(rp2, extension):
    ses = _cyclic_extension(*extension)
    comp_a, comp_b, comp_c = (cech_complex(rp2, g) for g in (ses.a, ses.b, ses.c))
    boundaries = coboundary_set(comp_a, 2, 1 << 15)
    amb = comp_a.group(2)
    nonzero = 0
    for rep in cohomology(comp_c, 1).representatives:
        fast = connecting(rp2, ses, rep).coords
        brute = brute_connecting(comp_a, comp_b, comp_c, ses.iota, ses.pi, rep.coords, 1)
        assert amb.normalize([u - v for u, v in zip(fast, brute)]) in boundaries
        nonzero += brute not in boundaries
    # Z/2 -> Z/4 -> Z/2, Z/2 -> Z/8 -> Z/4 and Z/2 -> Z/12 -> Z/6 (the
    # first plus 0 -> Z/3 -> Z/3, a mixed group) have a nonzero Bockstein
    # on H^1(RP^2); with Z/3 coefficients there is no class in degree 1.
    assert nonzero == (0 if extension == (2, 3) else 1)
