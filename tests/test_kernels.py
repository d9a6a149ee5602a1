"""The SNF kernel's transform subsets, lattice coordinates read off it, and
kernels built as preimages of a relation lattice."""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cechtower
from cechtower import _intlin, _kernels
from cechtower.abelian import free_group
from cechtower.cochain import SimplicialComplex, cech_complex, suspension

from .conftest import grid_torus_facets
from .oracles import reference_differential, reference_smith
from .test_uct import sites

NAMES = ("U", "D", "V", "Vinv")
TRANSFORMS = ("U", "V", "Vinv")
TRANSFORM_SUBSETS = [subset for k in range(len(TRANSFORMS) + 1)
                     for subset in itertools.combinations(TRANSFORMS, k)]
HUGE = st.sampled_from([10 ** 30 + 7, -(10 ** 31), 3 ** 70, -(2 ** 101) + 1])


@st.composite
def matrices(draw):
    """Integer matrices up to 7 x 7 with entries in [-99, 99], a few huge."""
    m = draw(st.integers(0, 7))
    n = draw(st.integers(0, 7)) if m else 0
    mat = [[draw(st.integers(-99, 99)) for _ in range(n)] for _ in range(m)]
    if m and n:
        for _ in range(draw(st.integers(0, 2))):
            mat[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = draw(HUGE)
    return mat


def test_backend_is_reported():
    assert _kernels.BACKEND == cechtower.KERNEL_BACKEND == "python"


def test_pure_backend_selfcheck():
    u, d, v_cols, vinv = _kernels.smith_with_transforms([[6, 4], [2, 8]])
    assert [d[0][0], d[1][1]] == [2, 20]


@settings(max_examples=120)
@given(matrices())
def test_tracked_transforms_match_the_full_call(mat):
    full = dict(zip(NAMES, _kernels.smith_with_transforms(mat)))
    for subset in TRANSFORM_SUBSETS:
        part = dict(zip(NAMES, _kernels.smith_with_transforms(mat, subset)))
        for name in NAMES:
            tracked = name == "D" or name in subset
            assert part[name] == (full[name] if tracked else []), (subset, name)


@st.composite
def sparse_matrices(draw):
    """Matrices up to 30 x 30 with entries in [-3, 3] at density <= 0.15."""
    m = draw(st.integers(1, 30))
    n = draw(st.integers(1, 30))
    cells = draw(st.integers(0, int(0.15 * m * n)))
    mat = [[0] * n for _ in range(m)]
    for _ in range(cells):
        mat[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = draw(
            st.integers(-3, 3))
    return mat


@st.composite
def site_coboundaries(draw):
    """The integral coboundary d_p of a random site, p = 0..dim."""
    x = draw(sites())
    return reference_differential(cech_complex(x, free_group(1)),
                                  draw(st.integers(0, x.dim))).matrix


_TORUS = suspension(SimplicialComplex(25, grid_torus_facets(5)))
TORUS_COBOUNDARIES = [reference_differential(cech_complex(_TORUS, free_group(1)), p).matrix
                      for p in range(_TORUS.dim + 1)]


@settings(max_examples=300)
@given(st.one_of(matrices(), sparse_matrices(), site_coboundaries(),
                 st.sampled_from(TORUS_COBOUNDARIES)),
       st.sampled_from(TRANSFORM_SUBSETS))
@example([[2, 3]], TRANSFORMS)  # re-pick: the remainder moves to column 0
@example([[2, 0], [0, 3]], TRANSFORMS)  # divisor-chain fix
@example([[4, 6], [6, 9]], TRANSFORMS)
def test_kernel_output_equals_the_dense_reference(mat, subset):
    # Work that follows the nonzeros must not change a single entry of the
    # output: every memo and class coordinate downstream is read off it.
    # The kernel returns V as its columns; the reference returns V.
    u, uinv, d, v, vinv = reference_smith(mat, subset)
    assert uinv == []
    v_cols = [list(col) for col in zip(*v)]
    assert _kernels.smith_with_transforms(mat, subset) == (u, d, v_cols, vinv)


@st.composite
def lattices_and_vectors(draw):
    n = draw(st.integers(1, 6))
    entry = st.integers(-9, 9)
    gens = [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(0, 6)))]
    combos = [[draw(st.integers(-5, 5)) for _ in gens] for _ in range(3)]
    inside = [_intlin.lin_comb(gens, c, n) for c in combos]
    outside = [[draw(entry) for _ in range(n)] for _ in range(3)]
    return n, gens, inside, outside


@settings(max_examples=150)
@given(lattices_and_vectors())
def test_coords_of_agrees_with_a_fresh_snf_of_the_basis(case):
    n, gens, inside, outside = case
    lat = _intlin.Lattice(n, gens)
    basis_snf = _intlin.snf(lat.basis, lat.rank, n, _intlin.SOLVE)
    for v in inside + outside:
        got = lat.coords_of(v)
        if lat.rank:
            assert got == _intlin.solve_linear(basis_snf, v)
        else:
            assert got == ([] if not any(v) else None)
        if got is not None:
            assert _intlin.lin_comb(lat.basis, got, n) == v
    for v in inside:
        assert v in lat


@st.composite
def cokernel_cases(draw):
    """Column lists in Z^n, n = 0..6, possibly empty, with vectors to project."""
    n = draw(st.integers(0, 6))
    entry = st.integers(-9, 9)
    cols = [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(0, 6)))]
    vectors = [[draw(st.integers(-20, 20)) for _ in range(n)] for _ in range(3)]
    return n, cols, vectors


@settings(max_examples=150)
@given(cokernel_cases())
@example((0, [], [[]]))
@example((0, [[], []], [[]]))
@example((3, [], [[1, -2, 5]]))
def test_present_cokernel_matches_the_whole_lattice_quotient(case):
    n, cols, vectors = case
    got = _intlin.present_cokernel(n, cols)
    ref = _intlin.present_quotient(_intlin.Lattice(n, _intlin.identity_matrix(n)), cols)
    assert (got.n, got.torsion, got.free_rank) == (ref.n, ref.torsion, ref.free_rank)
    assert got.lift_cols == ref.lift_cols
    for v in vectors + cols:
        assert got.project(v) == ref.project(v)
    for col in cols:
        assert not any(got.project(col))
    units = _intlin.identity_matrix(len(got.lift_cols))
    assert [got.project(lift) for lift in got.lift_cols] == units


@settings(max_examples=200)
@given(st.one_of(cokernel_cases(), lattices_and_vectors()))
def test_present_cokernel_has_the_invariant_factors_of_the_dense_reference(case):
    # The reference reduces the vectors as the columns of its input, the
    # lattice layer as rows: the invariant factors do not depend on it.
    n, vecs = case[:2]
    got = _intlin.present_cokernel(n, vecs)
    mat = _intlin.columns_to_matrix(vecs, n)
    d = reference_smith(mat, ())[2]
    diag = [d[i][i] for i in range(min(n, len(vecs)))]
    assert got.torsion == tuple(a for a in diag if a > 1)
    assert got.free_rank == n - sum(1 for a in diag if a)


@st.composite
def preimage_cases(draw):
    """M up to 4 x 4 with entries in [-9, 9], target orders from
    {0, 2, 3, 4, 6}, and vectors x to test against the kernel."""
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 4))
    entry = st.integers(-9, 9)
    cols = [[draw(entry) for _ in range(m)] for _ in range(n)]
    orders = [draw(st.sampled_from((0, 2, 3, 4, 6))) for _ in range(m)]
    vectors = [[draw(st.integers(-12, 12)) for _ in range(n)] for _ in range(4)]
    return cols, m, orders, vectors


def maps_to_zero(cols, orders, x) -> bool:
    """M x == 0 modulo the orders, exactly 0 where the order is 0."""
    image = _intlin.lin_comb(cols, x, len(orders))
    return all((y % o if o else y) == 0 for y, o in zip(image, orders))


@settings(max_examples=200)
@given(preimage_cases())
@example(([[], []], 0, [], [[1, -1], [0, 0]]))
@example(([], 3, [0, 2, 6], [[]]))
@example(([], 0, [], [[]]))
@example(([[4, 9], [2, 0]], 2, [0, 6], [[3, -6], [1, 1]]))
def test_kernel_is_the_preimage_of_the_relation_lattice(case):
    # The kernel of M into a group with these coordinate orders is the
    # preimage of its relation lattice: x lies in it exactly when M x
    # vanishes in the target.
    cols, m, orders, vectors = case
    n = len(cols)
    kernel = _intlin.Lattice(n, _intlin.lattice_preimage_gens(
        cols, m, _intlin.relation_columns(orders)))
    period = math.lcm(*(o for o in orders if o))
    inside = [[period * v for v in x] for x in vectors] if all(orders) else []
    for x in vectors + inside + kernel.basis:
        assert (x in kernel) == maps_to_zero(cols, orders, x), x


@pytest.mark.parametrize("n", range(5))
def test_lattice_without_generators_holds_only_zero(n):
    lat = _intlin.Lattice(n, [])
    assert lat.basis == [] and lat.rank == 0
    assert lat.coords_of([0] * n) == []
    for e in _intlin.identity_matrix(n):
        assert e not in lat
        assert [-3 * v for v in e] not in lat
