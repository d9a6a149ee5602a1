import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cechtower import _intlin
from cechtower.abelian import cyclic_group, direct_sum_with_maps, free_group
from cechtower.cochain import apply_cellwise, cech_complex, cech_induced, cohomology
from cechtower.errors import ValidationError
from cechtower.spectral import (
    FilteredComplex,
    check_degeneration,
    filtered_terms,
    les_direct_sum,
)

from .test_uct import sites

Z = free_group(1)
Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)

MEMO_EXAMPLES = 25
MEMO_WORK = 48


def lattices_equal(n, gens_a, gens_b) -> bool:
    la = _intlin.Lattice(n, gens_a)
    lb = _intlin.Lattice(n, gens_b)
    return la.contains_lattice(lb) and lb.contains_lattice(la)


def embedded_cocycle_gens(f: FilteredComplex, summand_index: int, n: int):
    """Cocycles of one summand's complex, pushed into the total complex."""
    comp = cech_complex(f.site, f.summands[summand_index])
    d = comp.differential(n)
    kernel = _intlin.kernel_lattice_gens(d.matrix, d.target.orders,
                                         comp.group(n).ngens)
    emb = cech_induced(f.site, f.embeddings[summand_index], n)
    return [_intlin.mat_vec(emb.matrix, g) for g in kernel]


class TestFilteredTerms:
    def test_circle_first_page(self, circle):
        f = FilteredComplex(circle, (Z2, Z3))
        terms = filtered_terms(f, 1, 1, 0)
        assert terms.e_group == cohomology(cech_complex(circle, Z2), 1).group
        assert terms.e_group == Z2

    def test_past_the_filtration_is_zero(self, circle):
        f = FilteredComplex(circle, (Z2, Z3))
        terms = filtered_terms(f, 1, 3, 0)
        assert terms.z_group.is_trivial
        assert terms.e_group.is_trivial

    def test_rp2_second_page_integral_summand(self, rp2):
        f = FilteredComplex(rp2, (Z2, Z))
        terms = filtered_terms(f, 2, 2, 0)
        assert terms.e_group == Z2  # H^2(RP2, Z)

    def test_index_errors(self, circle):
        f = FilteredComplex(circle, (Z2,))
        with pytest.raises(ValidationError):
            filtered_terms(f, 0, 1, 0)
        with pytest.raises(ValidationError):
            filtered_terms(f, 1, 0, 0)
        with pytest.raises(ValidationError):
            filtered_terms(f, 1, 1, -5)

    def test_b_contained_in_z_reported_groups(self, rp2):
        f = FilteredComplex(rp2, (Z2, Z4))
        for r in (1, 2, None):
            for p in (1, 2):
                for q in range(-2, 4):
                    if p + q < 0:
                        continue
                    terms = filtered_terms(f, r, p, q)
                    zo, bo = terms.z_group.order(), terms.b_group.order()
                    if zo is not None and bo is not None:
                        assert zo % bo == 0


def boundary_closed_form_holds(f: FilteredComplex, r, p: int, n: int) -> bool:
    # B_r^{pq} = d(C^{p+q-1}(X, V_p)) for every r >= 1 and the limit page
    amb = f.total.group(n)
    rel = _intlin.relation_columns(amb.orders)
    definitional = f._b_lattice(r, p, n - p).basis
    if n - 1 >= 0:
        d = f.total.differential(n - 1)
        vp = f._v_basis(p, n - 1)
        closed = [_intlin.mat_vec(d.matrix, g) for g in vp] + rel
    else:
        closed = rel
    return lattices_equal(amb.ngens, definitional, closed)


def cycle_recursion_holds(f: FilteredComplex, r, p: int, n: int) -> bool:
    # Z_r^{pq} = Z_{r-1}^{p+1,q-1} + (cocycles concentrated in summand p)
    amb = f.total.group(n)
    rel = _intlin.relation_columns(amb.orders)
    definitional = f._z_lattice(r, p, n - p).basis
    prev_r = None if r is None else r - 1
    recursion = (f._z_lattice(prev_r, p + 1, n - p - 1).basis
                 + embedded_cocycle_gens(f, p - 1, n) + rel)
    return lattices_equal(amb.ngens, definitional, recursion)


def cycle_direct_determination_holds(f: FilteredComplex, r, p: int, n: int) -> bool:
    # Z_r^{pq} = C^{p+q}(X, V_{p+r}) + Z^{p+q}(X, middle summands); the
    # limit page has no V term and every summand from p on in the middle
    top = f.depth + 1 if r is None else p + r
    amb = f.total.group(n)
    rel = _intlin.relation_columns(amb.orders)
    definitional = f._z_lattice(r, p, n - p).basis
    closed = list(f._v_basis(top, n)) + rel
    for i in range(p - 1, min(top - 1, f.depth)):
        closed = closed + embedded_cocycle_gens(f, i, n)
    return lattices_equal(amb.ngens, definitional, closed)


class TestClosedForms:
    """The membership definitions must reproduce the closed-form
    determinations; these are lattice equalities, not just group
    isomorphisms."""

    FIXTURES = [
        ("circle", (Z2, Z3)),
        ("full_triangle", (Z2, Z4)),
        ("rp2", (Z2, Z)),
        ("rp2", (Z2, Z4, Z)),
    ]

    @pytest.mark.parametrize("name,summands", FIXTURES)
    def test_boundary_closed_form(self, name, summands, request):
        x = request.getfixturevalue(name)
        f = FilteredComplex(x, summands)
        for r in (1, 2, 3):
            for p in range(1, f.depth + 1):
                for n in range(0, x.dim + 2):
                    assert boundary_closed_form_holds(f, r, p, n)

    @pytest.mark.parametrize("name,summands", FIXTURES)
    def test_cycle_recursion(self, name, summands, request):
        x = request.getfixturevalue(name)
        f = FilteredComplex(x, summands)
        for r in (1, 2, 3):
            for p in range(1, f.depth + 1):
                for n in range(0, x.dim + 2):
                    assert cycle_recursion_holds(f, r, p, n)

    @pytest.mark.parametrize("name,summands", FIXTURES)
    def test_cycle_direct_determination(self, name, summands, request):
        x = request.getfixturevalue(name)
        f = FilteredComplex(x, summands)
        for r in (1, 2):
            for p in range(1, f.depth + 1):
                for n in range(0, x.dim + 2):
                    assert cycle_direct_determination_holds(f, r, p, n)


@st.composite
def filtered_complexes(draw):
    """A site from ``sites()`` with 1-3 summands from {Z, Z/2, Z/3, Z/4}.

    Cells times summands stays within MEMO_WORK, since one example past
    that costs seconds: the fresh instances recompute every term.
    """
    x = draw(sites())
    depth = draw(st.sampled_from((1, 2, 3)))
    assume(depth * sum(len(x.cells(p)) for p in range(x.dim + 1)) <= MEMO_WORK)
    summands = draw(st.lists(st.sampled_from([Z, Z2, Z3, Z4]),
                             min_size=depth, max_size=depth))
    return FilteredComplex(x, tuple(summands))


@settings(max_examples=MEMO_EXAMPLES)
@given(filtered_complexes())
def test_memo_against_fresh_instances(f):
    # Terms are memoized under keys free of r, so pages past stabilization
    # share the limit page's lattices.  Every page up to depth+2 and the
    # limit page must still satisfy the closed forms, and each term must
    # equal the one a fresh instance computes for that point alone.
    x = f.site
    for r in [*range(1, f.depth + 3), None]:
        for p in range(1, f.depth + 1):
            for n in range(x.dim + 2):
                assert boundary_closed_form_holds(f, r, p, n)
                assert cycle_recursion_holds(f, r, p, n)
                assert cycle_direct_determination_holds(f, r, p, n)
                fresh = FilteredComplex(x, f.summands)
                assert filtered_terms(f, r, p, n - p) == filtered_terms(fresh, r, p, n - p)
    assert check_degeneration(f, f.depth + 2).ok


def induced_v_gens(f: FilteredComplex, p: int, n: int):
    """V_p in C^n as the cochain-level images of summands max(p, 1).. under
    ``cech_induced``, plus the relations."""
    gens = [col for emb in f.embeddings[max(p, 1) - 1:]
            for col in cech_induced(f.site, emb, n).columns()]
    return gens + _intlin.relation_columns(f.total.group(n).orders)


@settings(max_examples=MEMO_EXAMPLES)
@given(filtered_complexes())
def test_v_basis_spans_the_induced_lattice(f):
    # The basis built from the coefficient lattice W_p on each cell spans
    # the lattice the cochain-level embeddings generate (all of C^n for
    # p <= 1), and it is independent.  The dense embeddings agree with the
    # cell-by-cell map of cochains.
    for n in range(f.site.dim + 2):
        ngens, k = f.total.group(n).ngens, len(f.site.cells(n))
        for emb in f.embeddings:
            g = emb.source.ngens
            units = _intlin.identity_matrix(g * k)
            assert cech_induced(f.site, emb, n).columns() == \
                [apply_cellwise(emb.matrix, e, g, k) for e in units]
        for p in range(f.depth + 3):
            basis = f._v_basis(p, n)
            assert lattices_equal(ngens, basis, induced_v_gens(f, p, n))
            if p <= 1:
                assert lattices_equal(ngens, basis, _intlin.identity_matrix(ngens))
            assert _intlin.Lattice(ngens, basis).rank == len(basis)


class TestDegeneration:
    def test_circle_two_summands(self, circle):
        f = FilteredComplex(circle, (Z2, Z3))
        report = check_degeneration(f, 3)
        assert report.ok
        by_key = {(e.r, e.p, e.q): e for e in report.entries}
        assert by_key[(2, 2, -1)].got == Z3  # H^1(circle, Z/3) on every page

    def test_single_summand_is_plain_cohomology(self, rp2):
        f = FilteredComplex(rp2, (Z4,))
        report = check_degeneration(f, 2)
        assert report.ok
        comp = cech_complex(rp2, Z4)
        for e in report.entries:
            assert e.got == cohomology(comp, e.p + e.q).group

    def test_rp2_three_summands_full_grid(self, rp2):
        f = FilteredComplex(rp2, (Z2, Z4, Z))
        report = check_degeneration(f, 2)
        assert report.ok

    def test_page_stability(self, rp2):
        f = FilteredComplex(rp2, (Z2, Z))
        for p in (1, 2):
            for q in range(-1, 3):
                if p + q < 0:
                    continue
                groups = {filtered_terms(f, r, p, q).e_group
                          for r in (1, 2, 3, 4, None)}
                assert len(groups) == 1

    def test_limit_page_matches_summand_cohomology(self, torus):
        f = FilteredComplex(torus, (Z2, Z3))
        for p in (1, 2):
            comp = cech_complex(torus, f.summands[p - 1])
            for n in range(0, 3):
                assert filtered_terms(f, None, p, n - p).e_group == \
                    cohomology(comp, n).group


class TestLesDirectSum:
    def test_circle(self, circle):
        report = les_direct_sum(circle, Z2, Z3, 2, 2)
        assert report.ok
        assert report.connecting_all_zero
        assert "indices 1 and 2" in report.header

    def test_contractible(self, full_triangle):
        report = les_direct_sum(full_triangle, Z2, Z4, 3, 2)
        assert report.ok
        # only degree 0 is nonzero: 0 -> L_n -> L -> L_1 -> 0
        groups = [n.group for n in report.les.nodes]
        assert [g.label() for g in groups[:3]] == ["Z/4", "Z/2 x Z/4", "Z/2"]
        assert all(g.is_trivial for g in groups[3:])

    def test_rp2_decomposition(self, rp2):
        report = les_direct_sum(rp2, Z, Z2, 2, 3)
        assert report.ok
        assert report.decomposition_ok
        total, _, _ = direct_sum_with_maps([Z, Z2])
        h2 = cohomology(cech_complex(rp2, total), 2).group
        assert h2.label() == "Z/2 x Z/2"

    def test_bad_index(self, circle):
        with pytest.raises(ValidationError):
            les_direct_sum(circle, Z2, Z3, 1, 2)
