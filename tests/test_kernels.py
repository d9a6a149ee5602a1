"""The SNF kernel's transform subsets, and lattice coordinates read off it."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import cechtower
from cechtower import _intlin, _kernels

NAMES = ("U", "Uinv", "D", "V", "Vinv")
TRANSFORMS = ("U", "Uinv", "V", "Vinv")
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
    u, uinv, d, v, vinv = _kernels.smith_with_transforms([[6, 4], [2, 8]])
    assert [d[0][0], d[1][1]] == [2, 20]


@settings(max_examples=120)
@given(matrices())
def test_tracked_transforms_match_the_full_call(mat):
    full = dict(zip(NAMES, _kernels.smith_with_transforms(mat)))
    for k in range(len(TRANSFORMS) + 1):
        for subset in itertools.combinations(TRANSFORMS, k):
            part = dict(zip(NAMES, _kernels.smith_with_transforms(mat, subset)))
            for name in NAMES:
                tracked = name == "D" or name in subset
                assert part[name] == (full[name] if tracked else []), (subset, name)


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
    basis_snf = _intlin.snf(_intlin.columns_to_matrix(lat.basis, n), n, lat.rank,
                            _intlin.SOLVE)
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
