import json
import sys
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cechtower import _intlin, jsonio, spectral
from cechtower.abelian import cyclic_group, direct_sum_with_maps, free_group
from cechtower.cochain import (
    SimplicialComplex,
    apply_cellwise,
    cech_coboundary,
    cech_complex,
    cohomology,
    suspension,
)
from cechtower.cli import main
from cechtower.errors import ValidationError, VerificationError
from cechtower.spectral import (
    FilteredComplex,
    check_degeneration,
    filtered_terms,
    les_direct_sum,
    spectral_grid,
)

from .conftest import RP2_FACETS, TORUS_FACETS, grid_torus_facets
from .oracles import MembershipTerms, cech_induced, reference_differential
from .test_memo import clear_memos
from .test_uct import sites

Z = free_group(1)
Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)

EXAMPLES = 25
WORK = 48


def lattices_equal(n, gens_a, gens_b) -> bool:
    la = _intlin.Lattice(n, gens_a)
    lb = _intlin.Lattice(n, gens_b)
    return la.contains_lattice(lb) and lb.contains_lattice(la)


def embedded_cocycle_gens(f: MembershipTerms, summand_index: int, n: int):
    """Cocycles of one summand's complex, pushed into the total complex."""
    comp = cech_complex(f.site, f.embeddings[summand_index].source)
    d = reference_differential(comp, n)
    kernel = _intlin.lattice_preimage_gens(d.columns(), d.target.ngens,
                                           _intlin.relation_columns(d.target.orders))
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


def boundary_closed_form_holds(f: MembershipTerms, r, p: int, n: int) -> bool:
    # B_r^{pq} = d(C^{p+q-1}(X, V_p)) for every r >= 1 and the limit page
    amb = f.total.group(n)
    rel = _intlin.relation_columns(amb.orders)
    definitional = f.b_lattice(r, p, n - p).basis
    if n - 1 >= 0:
        d = reference_differential(f.total, n - 1)
        vp = f.v_basis(p, n - 1)
        closed = [_intlin.mat_vec(d.matrix, g) for g in vp] + rel
    else:
        closed = rel
    return lattices_equal(amb.ngens, definitional, closed)


def cycle_recursion_holds(f: MembershipTerms, r, p: int, n: int) -> bool:
    # Z_r^{pq} = Z_{r-1}^{p+1,q-1} + (cocycles concentrated in summand p)
    amb = f.total.group(n)
    rel = _intlin.relation_columns(amb.orders)
    definitional = f.z_lattice(r, p, n - p).basis
    prev_r = None if r is None else r - 1
    recursion = (f.z_lattice(prev_r, p + 1, n - p - 1).basis
                 + embedded_cocycle_gens(f, p - 1, n) + rel)
    return lattices_equal(amb.ngens, definitional, recursion)


def cycle_direct_determination_holds(f: MembershipTerms, r, p: int, n: int) -> bool:
    # Z_r^{pq} = C^{p+q}(X, V_{p+r}) + Z^{p+q}(X, middle summands); the
    # limit page has no V term and every summand from p on in the middle
    top = f.depth + 1 if r is None else p + r
    amb = f.total.group(n)
    rel = _intlin.relation_columns(amb.orders)
    definitional = f.z_lattice(r, p, n - p).basis
    closed = list(f.v_basis(top, n)) + rel
    for i in range(p - 1, min(top - 1, f.depth)):
        closed = closed + embedded_cocycle_gens(f, i, n)
    return lattices_equal(amb.ngens, definitional, closed)


class TestClosedForms:
    """The membership definitions (the reference ``MembershipTerms``) must
    reproduce the closed-form determinations; these are lattice equalities,
    not just group isomorphisms."""

    FIXTURES = [
        ("circle", (Z2, Z3)),
        ("full_triangle", (Z2, Z4)),
        ("rp2", (Z2, Z)),
        ("rp2", (Z2, Z4, Z)),
    ]

    @pytest.mark.parametrize("name,summands", FIXTURES)
    def test_boundary_closed_form(self, name, summands, request):
        x = request.getfixturevalue(name)
        f = MembershipTerms(FilteredComplex(x, summands))
        for r in (1, 2, 3):
            for p in range(1, f.depth + 1):
                for n in range(0, x.dim + 2):
                    assert boundary_closed_form_holds(f, r, p, n)

    @pytest.mark.parametrize("name,summands", FIXTURES)
    def test_cycle_recursion(self, name, summands, request):
        x = request.getfixturevalue(name)
        f = MembershipTerms(FilteredComplex(x, summands))
        for r in (1, 2, 3):
            for p in range(1, f.depth + 1):
                for n in range(0, x.dim + 2):
                    assert cycle_recursion_holds(f, r, p, n)

    @pytest.mark.parametrize("name,summands", FIXTURES)
    def test_cycle_direct_determination(self, name, summands, request):
        x = request.getfixturevalue(name)
        f = MembershipTerms(FilteredComplex(x, summands))
        for r in (1, 2):
            for p in range(1, f.depth + 1):
                for n in range(0, x.dim + 2):
                    assert cycle_direct_determination_holds(f, r, p, n)


@st.composite
def filtered_complexes(draw):
    """A site from ``sites()`` with 1-3 summands from {Z, Z/2, Z/3, Z/4}.

    Cells times summands stays within WORK, since one example past that
    costs seconds: the reference solves every term in the total cochain
    group.
    """
    x = draw(sites())
    depth = draw(st.sampled_from((1, 2, 3)))
    assume(depth * sum(len(x.cells(p)) for p in range(x.dim + 1)) <= WORK)
    summands = draw(st.lists(st.sampled_from([Z, Z2, Z3, Z4]),
                             min_size=depth, max_size=depth))
    return FilteredComplex(x, tuple(summands))


_RP2 = SimplicialComplex(6, RP2_FACETS)


@settings(max_examples=2 * EXAMPLES)
@given(filtered_complexes())
@example(FilteredComplex(_RP2, (Z2, Z4, Z)))
@example(FilteredComplex(SimplicialComplex(16, grid_torus_facets(4)), (Z2, Z3)))
@example(FilteredComplex(suspension(_RP2), (Z2, Z)))
def test_terms_equal_the_membership_reference(f):
    # The sums over the elementary pieces of C*(X; Z) give the groups the
    # membership definitions give in the total cochain group, at every page
    # up to depth+2 and the limit page.  On the drawn sites the reference
    # also satisfies the closed forms there; the fixed examples are past
    # WORK, where those lattice equalities cost seconds.
    ref = MembershipTerms(f)
    x = f.site
    drawn = f.depth * sum(len(x.cells(p)) for p in range(x.dim + 1)) <= WORK
    for r in [*range(1, f.depth + 3), None]:
        for p in range(1, f.depth + 1):
            for n in range(x.dim + 2):
                assert filtered_terms(f, r, p, n - p) == ref.terms(r, p, n - p)
                if not drawn:
                    continue
                assert boundary_closed_form_holds(ref, r, p, n)
                assert cycle_recursion_holds(ref, r, p, n)
                assert cycle_direct_determination_holds(ref, r, p, n)
    assert check_degeneration(f, spectral_grid(f, f.depth + 2)).ok


_TORUS7 = SimplicialComplex(7, TORUS_FACETS)


@settings(max_examples=EXAMPLES)
@given(filtered_complexes(), sites())
@example(FilteredComplex(_RP2, (Z2, Z3)), _TORUS7)
@example(FilteredComplex(_RP2, (Z2, Z4, Z)), suspension(_RP2))
def test_memo_is_keyed_by_value(f, other):
    # A piece's groups depend on the summands and clamped indices alone:
    # the grid read through entries another site with the same summands
    # left equals the cold grid and the membership reference, at every
    # page up to depth+2 and the limit page.
    assume(other != f.site)
    r_max = f.depth + 2
    clear_memos()
    cold = spectral_grid(f, r_max)
    clear_memos()
    spectral_grid(FilteredComplex(other, f.summands), r_max)
    warm = spectral_grid(f, r_max)
    ref = MembershipTerms(f)
    assert warm == cold == [ref.terms(t.r, t.p, t.q) for t in cold]


def test_rp2_and_torus_share_piece_entries():
    # With (Z/2, Z/3) the two sites reach common pieces, so the torus grid
    # computes fewer pieces after RP^2's than cold; each grid still gives
    # its own E_r^{pq} = H^{p+q}(X; L_p), and the zero group in degree 3.
    closed_forms = {
        _RP2: {1: ["Z/2", "Z/2", "Z/2"], 2: ["Z/3", "0", "0"]},
        _TORUS7: {1: ["Z/2", "Z/2 x Z/2", "Z/2"], 2: ["Z/3", "Z/3 x Z/3", "Z/3"]},
    }
    memo = spectral._piece_groups
    clear_memos()
    spectral_grid(FilteredComplex(_TORUS7, (Z2, Z3)), 3)
    cold_misses = memo.cache_info().misses
    clear_memos()
    grids = {}
    for x in (_RP2, _TORUS7):
        before = memo.cache_info()
        grids[x] = spectral_grid(FilteredComplex(x, (Z2, Z3)), 3)
    after = memo.cache_info()
    assert after.hits > before.hits
    assert after.misses - before.misses < cold_misses
    for x, grid in grids.items():
        for t in grid:
            labels = closed_forms[x][t.p] + ["0"]
            assert t.e_group.label() == labels[t.p + t.q]


@settings(max_examples=2 * EXAMPLES)
@given(filtered_complexes())
@example(FilteredComplex(_RP2, (Z2, Z3, Z)))
@example(FilteredComplex(_TORUS7, (Z2, Z3)))
def test_grid_equals_the_one_point_terms(f):
    # The grid sums each distinct (p, t, s, s_prev, n) once and gives the
    # other pages' points the same groups; each point equals the one-point
    # terms of a fresh instance of a rebuilt site, with cold memos.
    r_max = f.depth + 2
    clear_memos()
    grid = spectral_grid(f, r_max)
    clear_memos()
    x = SimplicialComplex(f.site.vertex_count, f.site.facets)
    fresh = FilteredComplex(x, f.summands)
    points = [(r, p, n - p) for r in [*range(1, r_max + 1), None]
              for p in range(1, f.depth + 1) for n in range(x.dim + 2)]
    assert [(t.r, t.p, t.q) for t in grid] == points
    assert grid == [filtered_terms(fresh, r, p, q) for r, p, q in points]


def test_cold_grid_repeats_no_spectral_snf_input(monkeypatch):
    # Each distinct lattice, preimage and quotient is reduced once: a cold
    # grid and its degeneration check send no SNF input twice on behalf of
    # the spectral module, directly or through ``_intlin``.  The cochain
    # layer's own SNFs (the site's integral data) are not counted.
    inputs = []
    snf = _intlin.snf

    def recording(A, m, n, transforms):
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == _intlin.__name__:
            frame = frame.f_back
        if frame.f_globals["__name__"] == spectral.__name__:
            inputs.append((tuple(map(tuple, A)), m, n))
        return snf(A, m, n, transforms)

    monkeypatch.setattr(_intlin, "snf", recording)
    clear_memos()
    f = FilteredComplex(_RP2, (Z2, Z3, Z))
    assert check_degeneration(f, spectral_grid(f, 3)).ok
    assert inputs
    assert [a for a, count in Counter(inputs).items() if count > 1] == []


def test_boundary_outside_the_cycles_is_refused(monkeypatch, tmp_path, capsys):
    # A target piece whose B is all of Z^g escapes its Z = W_p for p = 2: a
    # verification failure from the grid and exit code 3 from the CLI.
    monkeypatch.setattr(spectral, "_image", lambda summands, a, s, p: spectral._w(summands, 1))
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"complex": jsonio.complex_to_doc(_RP2),
                                "summands": [jsonio.group_to_doc(Z2),
                                             jsonio.group_to_doc(Z3)]}))
    try:
        clear_memos()
        with pytest.raises(VerificationError, match="boundary term escaped the cycle term"):
            spectral_grid(FilteredComplex(_RP2, (Z2, Z3)), 1)
        clear_memos()
        assert main(["spectral", "--input", str(path)]) == 3
        assert capsys.readouterr().err == (
            "internal verification failure: boundary term escaped the cycle term\n")
    finally:
        clear_memos()


def induced_v_gens(f: MembershipTerms, p: int, n: int):
    """V_p in C^n as the cochain-level images of summands max(p, 1).. under
    ``cech_induced``, plus the relations."""
    gens = [col for emb in f.embeddings[max(p, 1) - 1:]
            for col in cech_induced(f.site, emb, n).columns()]
    return gens + _intlin.relation_columns(f.total.group(n).orders)


@settings(max_examples=EXAMPLES)
@given(filtered_complexes())
def test_v_basis_spans_the_induced_lattice(f):
    # The basis built from the coefficient lattice W_p on each cell spans
    # the lattice the cochain-level embeddings generate (all of C^n for
    # p <= 1), and it is independent.  The dense embeddings agree with the
    # cell-by-cell map of cochains.
    f = MembershipTerms(f)
    for n in range(f.site.dim + 2):
        ngens, k = f.total.group(n).ngens, len(f.site.cells(n))
        for emb in f.embeddings:
            g = emb.source.ngens
            units = _intlin.identity_matrix(g * k)
            assert cech_induced(f.site, emb, n).columns() == \
                [apply_cellwise(emb.matrix, e, g, k) for e in units]
        for p in range(f.depth + 3):
            basis = f.v_basis(p, n)
            assert lattices_equal(ngens, basis, induced_v_gens(f, p, n))
            if p <= 1:
                assert lattices_equal(ngens, basis, _intlin.identity_matrix(ngens))
            assert _intlin.Lattice(ngens, basis).rank == len(basis)


def preimage_z_gens(f: MembershipTerms, t: int, p: int, n: int):
    """{x in V_p ∩ C^n : dx in V_t}, solved as a preimage over V_p's basis."""
    vp = f.v_basis(p, n)
    g, ngens = f.total_group.ngens, f.total.group(n).ngens
    image_cols = [cech_coboundary(f.site, n, b, g) for b in vp]
    coeffs = _intlin.lattice_preimage_gens(
        image_cols, f.total.group(n + 1).ngens, f.v_basis(t, n + 1))
    return [_intlin.lin_comb(vp, c, ngens) for c in coeffs]


@settings(max_examples=EXAMPLES)
@given(filtered_complexes())
def test_cycles_with_target_at_most_p_are_v_p(f):
    # Z with target index t <= p is V_p itself (d(V_p) lies in V_p, which
    # lies in V_t): the term equals the preimage solved in full.
    f = MembershipTerms(f)
    for p in range(1, f.depth + 2):
        for t in range(1, p + 1):
            for n in range(f.site.dim + 2):
                term = f.z_lattice(t - p, p, n - p)
                assert lattices_equal(f.total.group(n).ngens, term.basis,
                                      preimage_z_gens(f, t, p, n))


class TestDegeneration:
    def test_circle_two_summands(self, circle):
        f = FilteredComplex(circle, (Z2, Z3))
        report = check_degeneration(f, spectral_grid(f, 3))
        assert report.ok
        by_key = {(e.r, e.p, e.q): e for e in report.entries}
        assert by_key[(2, 2, -1)].got == Z3  # H^1(circle, Z/3) on every page

    def test_single_summand_is_plain_cohomology(self, rp2):
        f = FilteredComplex(rp2, (Z4,))
        report = check_degeneration(f, spectral_grid(f, 2))
        assert report.ok
        comp = cech_complex(rp2, Z4)
        for e in report.entries:
            assert e.got == cohomology(comp, e.p + e.q).group

    def test_rp2_three_summands_full_grid(self, rp2):
        f = FilteredComplex(rp2, (Z2, Z4, Z))
        report = check_degeneration(f, spectral_grid(f, 2))
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
