"""Cohomology by universal coefficients, against the oracles.

``cohomology`` of an untwisted complex, a Cech complex or the bar complex
of a trivial action, is assembled from the integral SNF of its base (a
site or a group nerve) one cyclic coefficient factor at a time.  These
tests compare it with exhaustive enumeration (``oracles.brute_cohomology``)
and with the lattice path that presents ker/im of the whole coefficient
complex in one piece, and check that representatives and the projection
agree with each other.
The integral data the assembly reads (the V'-coordinates of one SNF of
each coreduced Morse coboundary, pulled back to the cochains) is checked
against dense matrices and against ``oracles.reference_integral_degree``,
one SNF of the whole integral coboundary.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechtower import _intlin, cochain, jsonio
from cechtower.abelian import (
    FgAbGroup,
    Homomorphism,
    _summed_presentation,
    cyclic_group,
    free_group,
    is_exact_at,
    trivial_group,
    zero_hom,
)
from cechtower.cochain import (
    Cochain,
    CochainComplex,
    GroupNerve,
    SimplicialComplex,
    _integral_degree,
    _lattice_presentation,
    _reduction,
    _site_presentation,
    bar_complex,
    cech_complex,
    coboundary,
    coboundary_diagonal,
    cohomology,
    suspension,
    trivial_action,
)
from cechtower.errors import BudgetExceededError, ValidationError
from cechtower.liftgerbe import cyclic_table, direct_product, symmetric_group

from .conftest import RP2_FACETS, grid_torus_facets
from .oracles import (
    ReferenceReduction,
    UnnormalizedNerve,
    brute_cohomology,
    coboundary_rows,
    reference_differential,
    reference_integral_degree,
    reference_facets,
    reference_site,
)

ORDERS = (2, 3, 4, 6, 8, 9, 12)
BRUTE_BUDGET = 1 << 12


@st.composite
def facet_lists(draw):
    """(vertex count, facets): up to 7 vertices, 1-6 random facets of 1-4
    vertices.

    Half the draws add the facets to the projective plane on vertices 0-5,
    since small random complexes almost never have torsion in integral
    cohomology and so never reach the Tor part.
    """
    base = draw(st.sampled_from([[], RP2_FACETS]))
    n = draw(st.integers(6 if base else 1, 7))
    facet = st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
    return n, base + draw(st.lists(facet, min_size=1, max_size=6))


@st.composite
def sites(draw):
    """The site of a draw of ``facet_lists``."""
    return SimplicialComplex(*draw(facet_lists()))


@st.composite
def coefficient_groups(draw):
    """A divisor chain over ORDERS of length 0-2, with 0 or 1 free factors;
    never the trivial group."""
    free = draw(st.integers(0, 1))
    chain = []
    for _ in range(draw(st.integers(1 - free, 2))):
        options = [d for d in ORDERS if not chain or d % chain[-1] == 0]
        if not options:
            break
        chain.append(draw(st.sampled_from(options)))
    return FgAbGroup(free, tuple(chain))


def _enumerable(comp, p) -> bool:
    groups = [comp.group(p)] + ([comp.group(p - 1)] if p else [])
    return all(not g.free_rank and g.order() <= BRUTE_BUDGET for g in groups)


def _random_coords(rng, group):
    return tuple(rng.randrange(o) if o else rng.randint(-3, 3) for o in group.orders)


def check_degree(comp, p, rng):
    h = cohomology(comp, p)
    lattice = _lattice_presentation(comp, p)
    assert h.group == FgAbGroup(lattice.free_rank, lattice.torsion)
    if _enumerable(comp, p):
        assert h.group == brute_cohomology(comp, p, BRUTE_BUDGET)

    ngens = h.group.ngens
    for k, rep in enumerate(h.representatives):
        assert coboundary(rep).is_zero
        assert h.coords_of(rep) == tuple(int(i == k) for i in range(ngens))

    for _ in range(3):
        a = _random_coords(rng, h.group)
        c = Cochain(comp, p, (0,) * comp.group(p).ngens)
        for ak, rep in zip(a, h.representatives):
            c = c + rep.scale(ak)
        if p:
            c = c + coboundary(Cochain(comp, p - 1,
                                       _random_coords(rng, comp.group(p - 1))))
        assert h.coords_of(c) == h.group.normalize(a)


@settings(max_examples=100)
@given(sites(), coefficient_groups(), st.randoms(use_true_random=False))
def test_random_sites_and_coefficients(x, coeff, rng):
    comp = cech_complex(x, coeff)
    for p in range(x.dim + 2):
        check_degree(comp, p, rng)


# Finite groups, each with the top degree its bar complexes are checked to.
BAR_GROUPS = [(cyclic_table(1), 3), (cyclic_table(2), 4), (cyclic_table(3), 2),
              (cyclic_table(4), 2), (symmetric_group(3), 1)]


@settings(max_examples=40)
@given(st.sampled_from(BAR_GROUPS), coefficient_groups(), st.randoms(use_true_random=False))
def test_trivial_action_bar_complexes(group_degree, coeff, rng):
    # A trivial action is not stored, so cohomology takes the universal-
    # coefficient path over the group's nerve; it must match the lattice
    # path on the columns of the coboundaries and, where it can enumerate,
    # the brute-force oracle.
    group, degree = group_degree
    comp = bar_complex(trivial_action(group, coeff), degree)
    assert comp.action is None
    for p in range(degree + 1):
        check_degree(comp, p, rng)


@settings(max_examples=100)
@given(sites())
def test_integral_degree_in_v_coordinates(x):
    # The integral data against dense matrices: (V'^-1 R)(E V') = I, the
    # image of d_{p-1} in those coordinates vanishes in the rows below the
    # rank, the columns E V' past the rank lie in ker d_p, and H^p(X; Z) is
    # the group the lattice path presents.
    z = cech_complex(x, free_group(1))
    for p in range(x.dim + 2):
        h = _integral_degree(x, p)
        m, rank = len(h.vinv_rows), len(h.diag)
        assert _intlin.mat_mul(h.vinv_rows, _intlin.columns_to_matrix(h.v_cols, z.ncells(p))) \
            == _intlin.identity_matrix(m)
        image = _intlin.mat_mul(h.vinv_rows, reference_differential(z, p - 1).matrix)
        assert not any(any(row) for row in image[:rank])
        d = reference_differential(z, p).matrix
        assert all(not any(_intlin.mat_vec(d, v)) for v in h.v_cols[rank:])
        lattice = _lattice_presentation(z, p)
        assert (h.pres.torsion, h.pres.free_rank) == (lattice.torsion, lattice.free_rank)


@settings(max_examples=100)
@given(st.lists(st.sampled_from((0, 1, 2, 3, 4, 6, 8, 9, 12)), max_size=6),
       st.randoms(use_true_random=False))
def test_summed_presentation_equals_a_fresh_one(orders, rng):
    # The invariant-factor presentation of the cyclic summands is memoized
    # on their orders: an entry, cold or warm, equals a presentation built
    # afresh in torsion, lift columns and projection.
    orders = tuple(orders)
    fresh = _intlin.present_cokernel(len(orders), _intlin.relation_columns(orders))
    _summed_presentation.cache_clear()
    cold = _summed_presentation(orders)
    warm = _summed_presentation(orders)
    assert warm is cold
    assert (cold.torsion, cold.free_rank) == (fresh.torsion, fresh.free_rank)
    assert cold.lift_cols == fresh.lift_cols
    for _ in range(5):
        v = [rng.randint(-20, 20) for _ in orders]
        assert cold.project(v) == fresh.project(v)


def _dense(sparse_rows, width):
    """Sparse {column: entry} rows as dense rows of ``width`` ints."""
    return [[row.get(j, 0) for j in range(width)] for row in sparse_rows]


def _is_automorphism(group, matrix) -> bool:
    h = Homomorphism(group, group, matrix)
    return (is_exact_at(zero_hom(trivial_group(), group), h).ok
            and is_exact_at(h, zero_hom(group, trivial_group())).ok)


def _reference_presentation(comp, p):
    """H^p(X; L) assembled, as the package does, from the reference's
    integral data: one SNF of the whole integral coboundary."""
    with mock.patch.object(cochain, "_integral_degree", reference_integral_degree):
        return _site_presentation(comp, p)


def _mul(a, b, n):
    """a b for a with len(b) columns and b with n columns, any of them 0."""
    return [[sum(row[t] * b[t][j] for t in range(len(b))) for j in range(n)] for row in a]


def check_reduction(x, p):
    """The coreduction of x in degree p against the dense integral complex:
    R E = id, d E = E dM and R d = dM R, and the groups and the SNF
    diagonal of the reference."""
    red = _reduction(x)
    m, m1 = len(red.critical(p)), len(red.critical(p + 1))
    restrict = _intlin.columns_to_matrix(_dense(red.restrict(p), m), m)
    restrict1 = _intlin.columns_to_matrix(_dense(red.restrict(p + 1), m1), m1)
    extend, extend1 = _dense(red.extend(p), m), _dense(red.extend(p + 1), m1)
    d = coboundary_rows(x, p, len(x.cells(p)))
    morse = red.morse(p)
    assert _mul(restrict, extend, m) == _intlin.identity_matrix(m)
    assert _mul(d, extend, m) == _mul(extend1, morse, m)
    assert _mul(restrict1, d, len(x.cells(p))) == _mul(morse, restrict, len(x.cells(p)))
    h, ref = _integral_degree(x, p), reference_integral_degree(x, p)
    assert (h.pres.torsion, h.pres.free_rank) == (ref.pres.torsion, ref.pres.free_rank)
    assert coboundary_diagonal(x, p) == (ref.diag if 0 <= p <= x.dim else ())


def check_coordinates(comp, p, rng):
    """``coords_of`` against the reference presentation: the reference's
    representatives map to a basis, and a cocycle built from them plus a
    coboundary has coordinates zero exactly when the reference says it is
    a coboundary."""
    h, ref = cohomology(comp, p), _reference_presentation(comp, p)
    group = FgAbGroup(ref.free_rank, ref.torsion)
    assert h.group == group
    reps = [Cochain(comp, p, tuple(col)) for col in ref.lift_cols]
    images = [h.coords_of(rep) for rep in reps]
    assert _is_automorphism(group, [list(row) for row in zip(*images)] if images else [])
    for _ in range(3):
        a = _random_coords(rng, group)
        c = Cochain(comp, p, (0,) * comp.group(p).ngens)
        for ak, rep in zip(a, reps):
            c = c + rep.scale(ak)
        if p:
            c = c + coboundary(Cochain(comp, p - 1, _random_coords(rng, comp.group(p - 1))))
        assert tuple(ref.project(list(c.coords))) == group.normalize(a)
        assert (not any(h.coords_of(c))) == (not any(group.normalize(a)))


# Groups of order at most 4, with the normalized nerve and the unnormalized
# reference nerve of each to top degree 4.  Faces of a word coincide in
# both, and their incidences sum to 0 or 2.
NERVE_GROUPS = [cyclic_table(1), cyclic_table(2), cyclic_table(3), cyclic_table(4),
                direct_product(cyclic_table(2), cyclic_table(2))]
NERVES = ([GroupNerve(h, 4) for h in NERVE_GROUPS]
          + [UnnormalizedNerve(h, 4) for h in NERVE_GROUPS])
SUSPENDED_TORUS5 = suspension(SimplicialComplex(25, grid_torus_facets(5)))


@settings(max_examples=100)
@given(st.one_of(sites(), st.sampled_from(NERVES)))
def test_face_rows_are_signed_and_distinct(x):
    # Every reader takes a row's incidences as given: positions in a row
    # are distinct and incidences nonzero, and on a site entry j is
    # (face j, (-1)^j), which the triangle reads of liftgerbe rely on.
    for p in range(x.dim + 1):
        for cell, row in zip(x.cells(p), x.faces(p)):
            assert len({f for f, _ in row}) == len(row)
            assert all(v for _, v in row)
            if not isinstance(x, GroupNerve):
                below = x.cell_indices(p - 1)
                assert row == tuple((below[cell[:j] + cell[j + 1:]], (-1) ** j)
                                    for j in range(p + 1) if p)


@settings(max_examples=100)
@given(st.one_of(facet_lists(),
                 st.just((SUSPENDED_TORUS5.vertex_count, SUSPENDED_TORUS5.facets))))
def test_sites_match_the_cell_by_cell_reference(site):
    # The closure, the checks, the facets and the face rows run over whole
    # levels at once; the reference builds them cell by cell.  A site is
    # identified by its facets.
    n, facets = site
    x = SimplicialComplex(n, facets)
    simplices, index, faces = reference_site(n, facets)
    assert x.simplices == simplices
    assert x.facets == reference_facets(simplices)
    assert tuple(x.cell_indices(p) for p in range(x.dim + 1)) == index
    assert tuple(x.faces(p) for p in range(x.dim + 1)) == faces
    assert hash(x) == hash((n, x.facets))


@settings(max_examples=100)
@given(sites())
def test_sites_round_trip_through_their_documents(x):
    # The document lists the facets, which determine the site.
    y = jsonio.parse_complex(jsonio.complex_to_doc(x), "payload.complex")
    assert y == x and hash(y) == hash(x)


def _outcome(build, *args):
    """What ``build(*args)`` raises, as (class name, message), or None."""
    try:
        build(*args)
    except (ValidationError, BudgetExceededError) as e:
        return type(e).__name__, str(e)
    return None


@settings(max_examples=200)
@given(st.integers(-1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.integers(-2, max(n, 0) + 1), max_size=5), min_size=1, max_size=5))))
def test_malformed_facets_fail_as_the_reference_does(site):
    # Empty facets, vertices out of range and repeated vertices: the check
    # of every facet at once must name the same first bad facet and vertex.
    n, facets = site
    outcome = _outcome(SimplicialComplex, n, facets)
    assert outcome == _outcome(reference_site, n, facets)
    if outcome is None:
        assert SimplicialComplex(n, facets).simplices == reference_site(n, facets)[0]


# Nerves in which some path sum of E cancels to zero in an entry.
CANCELLING_NERVES = [GroupNerve(symmetric_group(3), 4), GroupNerve(cyclic_table(5), 3)]


@settings(max_examples=100, deadline=None)
@given(st.one_of(sites(), st.sampled_from(NERVES + CANCELLING_NERVES + [SUSPENDED_TORUS5])))
def test_coreduction_matches_the_reference(x):
    # The coreduction with its queue updates and path sums inline against
    # the one with a helper call for each: the same matching, in the same
    # order, so the same critical cells, Morse coboundaries, R and E, with
    # no zero entry in a path sum.
    red, ref = cochain._Reduction(x), ReferenceReduction(x)
    for p in range(-1, x.dim + 2):
        assert red.critical(p) == ref.critical(p)
        assert red.pairs(p) == ref.pairs(p)
        assert red.morse(p) == ref.morse(p)
        assert red.restrict(p) == ref.restrict(p)
        assert red.extend(p) == ref.extend(p)


@settings(max_examples=60, deadline=None)
@given(st.one_of(sites(), st.sampled_from(NERVES + [SUSPENDED_TORUS5])),
       coefficient_groups(), st.randoms(use_true_random=False))
def test_coreduction_against_the_whole_coboundary(x, coeff, rng):
    # A nerve's top degree is the cut-off of its bar complex, whose
    # cohomology there is a large quotient that no bar complex reports.
    comp = CochainComplex(x, coeff)
    for p in range(x.dim + 2):
        check_reduction(x, p)
        if p < x.dim or not isinstance(x, GroupNerve):
            check_coordinates(comp, p, rng)


@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("suspended", [False, True])
def test_projective_plane_tor_part(m, suspended, rp2, srp2):
    # H^2(RP^2; Z) = Z/2 and H^1(RP^2; Z) = 0, so H^1(RP^2; Z/m) is all Tor
    # part, Tor(Z/2, Z/m) = Z/2; suspension shifts it up by one degree.
    x = srp2 if suspended else rp2
    labels = [f"Z/{m}"] + ["0"] * suspended + ["Z/2", "Z/2"]
    tor_degree = 1 + suspended
    assert cohomology(cech_complex(x, free_group(1)), tor_degree).group.is_trivial
    comp = cech_complex(x, cyclic_group(m))
    assert [cohomology(comp, p).group.label() for p in range(x.dim + 1)] == labels
    rng = random.Random(m)
    for p in range(x.dim + 2):
        check_degree(comp, p, rng)


def _grid_torus(n):
    return SimplicialComplex(n * n, grid_torus_facets(n))


@pytest.mark.parametrize("x, betti", [
    (_grid_torus(10), (1, 2, 1)),
    (suspension(_grid_torus(6)), (1, 0, 2, 1)),
    (_grid_torus(30), (1, 2, 1)),
    (suspension(_grid_torus(20)), (1, 0, 2, 1)),
], ids=["torus10", "suspended_torus6", "torus30", "suspended_torus20"])
@pytest.mark.parametrize("coeff", [free_group(1), FgAbGroup(0, (2, 4)), FgAbGroup(1, (2, 4))],
                         ids=["Z", "Z2xZ4", "ZxZ2xZ4"])
def test_grid_tori_at_scale(x, betti, coeff):
    # Integral cohomology of these sites is free (Betti numbers as given),
    # so universal coefficients give H^p(X; L) = L^b_p, with no Tor part.
    comp = cech_complex(x, coeff)
    expected = [FgAbGroup(coeff.free_rank * b, tuple(d for d in coeff.torsion for _ in range(b)))
                for b in betti]
    assert [cohomology(comp, p).group for p in range(x.dim + 1)] == expected
