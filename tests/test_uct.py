"""Cohomology by universal coefficients, against the oracles.

``cohomology`` of an untwisted complex, a Cech complex or the bar complex
of a trivial action, is assembled from the integral SNF of its base (a
site or a group nerve) one cyclic coefficient factor at a time.  These
tests compare it with exhaustive enumeration (``oracles.brute_cohomology``)
and with the lattice path that presents ker/im of the whole coefficient
complex in one piece, and check that representatives and the projection
agree with each other.
The integral data the assembly reads (the V-coordinates of one SNF of
each coboundary) is checked against dense matrices.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechtower import _intlin
from cechtower.abelian import FgAbGroup, cyclic_group, free_group
from cechtower.cochain import (
    Cochain,
    _integral_degree,
    _lattice_presentation,
    _pull_back,
    bar_complex,
    build_complex_from_facets,
    cech_complex,
    coboundary,
    cohomology,
    suspension,
    trivial_action,
)
from cechtower.liftgerbe import cyclic_table, symmetric_group

from .conftest import RP2_FACETS, grid_torus_facets
from .oracles import brute_cohomology

ORDERS = (2, 3, 4, 6, 8, 9, 12)
BRUTE_BUDGET = 1 << 12


@st.composite
def sites(draw):
    """Up to 7 vertices, 1-6 random facets of 1-4 vertices.

    Half the draws add the facets to the projective plane on vertices 0-5,
    since small random complexes almost never have torsion in integral
    cohomology and so never reach the Tor part.
    """
    base = draw(st.sampled_from([[], RP2_FACETS]))
    n = draw(st.integers(6 if base else 1, 7))
    facet = st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
    return build_complex_from_facets(
        n, base + draw(st.lists(facet, min_size=1, max_size=6)))


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
    # path on the dense differentials and, where it can enumerate, the
    # brute-force oracle.
    group, degree = group_degree
    comp = bar_complex(group, trivial_action(group, coeff), degree)
    assert comp.action is None
    for p in range(degree + 1):
        check_degree(comp, p, rng)


@settings(max_examples=100)
@given(sites())
def test_integral_degree_in_v_coordinates(x):
    # The integral data against dense matrices: V V^-1 = I, the face table
    # read backwards gives V^-1 d_{p-1} with the rows below the rank zero,
    # V's columns past the rank lie in ker d_p, and H^p(X; Z) is the group
    # the lattice path presents.
    z = cech_complex(x, free_group(1))
    for p in range(x.dim + 2):
        h = _integral_degree(x, p)
        k, rank = len(h.v_cols), len(h.diag)
        assert _intlin.mat_mul(_intlin.columns_to_matrix(h.v_cols, k), h.vinv_rows) == \
            _intlin.identity_matrix(k)
        image = _intlin.mat_mul(h.vinv_rows, z.differential(p - 1).matrix)
        assert [_pull_back(x, p, row) for row in h.vinv_rows] == image
        assert not any(any(row) for row in image[:rank])
        d = z.differential(p).matrix
        assert all(not any(_intlin.mat_vec(d, v)) for v in h.v_cols[rank:])
        lattice = _lattice_presentation(z, p)
        assert (h.pres.torsion, h.pres.free_rank) == (lattice.torsion, lattice.free_rank)


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
    return build_complex_from_facets(n * n, grid_torus_facets(n))


@pytest.mark.parametrize("x, betti", [
    (_grid_torus(10), (1, 2, 1)),
    (suspension(_grid_torus(6)), (1, 0, 2, 1)),
], ids=["torus10", "suspended_torus6"])
@pytest.mark.parametrize("coeff", [free_group(1), FgAbGroup(0, (2, 4))], ids=["Z", "Z2xZ4"])
def test_grid_tori_at_scale(x, betti, coeff):
    # Integral cohomology of these sites is free (Betti numbers as given),
    # so universal coefficients give H^p(X; L) = L^b_p, with no Tor part.
    comp = cech_complex(x, coeff)
    expected = [FgAbGroup(coeff.free_rank * b, tuple(d for d in coeff.torsion for _ in range(b)))
                for b in betti]
    assert [cohomology(comp, p).group for p in range(x.dim + 1)] == expected
