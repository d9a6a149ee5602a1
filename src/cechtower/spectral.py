"""The filtered Cech complex of a direct sum of coefficient groups.

Filtration index p keeps the summands with index >= p (1-based).  All
terms are computed from the membership definitions

    Z_r^{pq} = {x in V_p ∩ C^{p+q} : dx in V_{p+r}},
    B_r^{pq} = d(V_{p-r}) ∩ V_p ∩ C^{p+q},
    E_r^{pq} = Z_r^{pq} / (B_{r-1}^{pq} + Z_{r-1}^{p+1,q-1}),

solved exactly by lattice arithmetic in the total cochain group, with no
intersection: B_r^{pq} is d(Z_r^{p-r,q+r-1}) plus the relations.  The
closed forms (E_r^{pq} equals the summand cohomology, page stability) are
what ``check_degeneration`` verifies, never a shortcut taken here.
``r=None`` means the limiting page (dx = 0 / global boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from cechtower import _intlin
from cechtower.abelian import (
    FgAbGroup,
    direct_sum_with_maps,
)
from cechtower.cochain import (
    COBOUNDARY_ENTRY_BUDGET,
    GENERATOR_BUDGET,
    SimplicialComplex,
    cech_coboundary,
    cech_complex,
    cellwise,
    cohomology,
)
from cechtower.errors import BudgetExceededError, ValidationError, VerificationError
from cechtower.exactseq import LesReport, long_exact_sequence, validate_ses


@dataclass(frozen=True, eq=False)
class FilteredComplex:
    """Total complex of the direct sum with the summand-index filtration.

    Every term is one ``Lattice`` memoized under a key free of r: Z_r^{pq}
    reads r only through its target index min(p+r, depth+1) and B_r^{pq}
    only through its source index max(p-r, 1), so a page past
    stabilization shares the limit page's lattices (r=None uses depth+1
    and 1).  New lattices are generated from the bases of memoized ones.
    """

    site: SimplicialComplex
    summands: tuple[FgAbGroup, ...]

    def __post_init__(self):
        if not self.summands:
            raise ValidationError("need at least one summand")
        g = sum(s.ngens for s in self.summands)
        if g * g > COBOUNDARY_ENTRY_BUDGET:
            raise BudgetExceededError(
                f"direct sum of {g} generators would need a {g} x {g} matrix, "
                f"budget is {COBOUNDARY_ENTRY_BUDGET} entries")
        total, embeddings, _ = direct_sum_with_maps(self.summands)
        object.__setattr__(self, "total_group", total)
        object.__setattr__(self, "embeddings", tuple(embeddings))
        object.__setattr__(self, "total", cech_complex(self.site, total))
        object.__setattr__(self, "_memo", {})

    @property
    def depth(self) -> int:
        return len(self.summands)

    def _memoized(self, key: tuple, compute):
        """compute(), once per key on this instance; results are shared, so
        callers must not mutate them."""
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = compute()
        return hit

    def _z_target(self, r: Optional[int], p: int) -> int:
        return self.depth + 1 if r is None else min(p + r, self.depth + 1)

    def _b_source(self, r: Optional[int], p: int) -> int:
        return 1 if r is None else max(p - r, 1)

    def _v_basis(self, p: int, n: int) -> list[list[int]]:
        """A basis of V_p = C^n(X, W_p), W_p in Z^g spanned by summands p..
        and the relations, as a basis of W_p on each cell (1-based
        filtration index; p <= 1 is everything, p > depth the relations)."""
        p = min(max(p, 1), self.depth + 1)
        return self._memoized(("V", p, n), lambda: self._compute_v(p, n))

    def _compute_v(self, p: int, n: int) -> list[list[int]]:
        total = self.total_group
        gens = [col for emb in self.embeddings[p - 1:] for col in emb.columns()]
        w = _intlin.Lattice(total.ngens, gens + _intlin.relation_columns(total.orders))
        return cellwise(w.basis, len(self.site.cells(n)))

    def _z_lattice(self, r: Optional[int], p: int, q: int) -> _intlin.Lattice:
        """{x in V_p ∩ C^{p+q} : dx in V_{p+r}} (r=None: dx = 0)."""
        t = self._z_target(r, p)
        return self._memoized(("Z", t, p, q), lambda: self._compute_z(t, p, q))

    def _compute_z(self, t: int, p: int, q: int) -> _intlin.Lattice:
        n = p + q
        amb = self.total.group(n)
        vp = self._v_basis(p, n)
        g = self.total_group.ngens
        image_cols = [cech_coboundary(self.site, n, b, g) for b in vp]
        coeffs = _intlin.lattice_preimage_gens(
            image_cols, self.total.group(n + 1).ngens, self._v_basis(t, n + 1))
        return _intlin.Lattice(
            amb.ngens, [_intlin.lin_comb(vp, c, amb.ngens) for c in coeffs])

    def _b_lattice(self, r: Optional[int], p: int, q: int) -> _intlin.Lattice:
        """d(V_{p-r}) ∩ V_p in degree p+q (r=None: d of all of V_1)."""
        s = self._b_source(r, p)
        return self._memoized(("B", s, p, q), lambda: self._compute_b(s, p, q))

    def _compute_b(self, s: int, p: int, q: int) -> _intlin.Lattice:
        """d(V_s) ∩ V_p = d{y in V_s ∩ C^{n-1} : dy in V_p} + relations,
        n = p+q: dy + rho lies in V_p exactly when dy does."""
        n = p + q
        amb = self.total.group(n)
        rel = _intlin.relation_columns(amb.orders)
        if n - 1 < 0:
            return _intlin.Lattice(amb.ngens, rel)
        g = self.total_group.ngens
        image = [cech_coboundary(self.site, n - 1, y, g)
                 for y in self._z_lattice(p - s, s, n - 1 - s).basis]
        return _intlin.Lattice(amb.ngens, image + rel)


@dataclass(frozen=True)
class SpectralTerms:
    """Presentations of Z, B, E at one grid point (r=None is the limit page)."""

    r: Optional[int]
    p: int
    q: int
    z_group: FgAbGroup
    b_group: FgAbGroup
    e_group: FgAbGroup


def _group_of(lattice: _intlin.Lattice, rel) -> FgAbGroup:
    pres = _intlin.present_quotient(lattice, rel)
    return FgAbGroup(pres.free_rank, pres.torsion)


def filtered_terms(f: FilteredComplex, r: Optional[int], p: int, q: int) -> SpectralTerms:
    """Z, B, E from the defining membership conditions (memoized on f)."""
    if r is not None and r < 1:
        raise ValidationError("page index must be >= 1")
    if p < 1:
        raise ValidationError("filtration index must be >= 1")
    n = p + q
    if n < 0:
        raise ValidationError(f"degree p+q = {n} is out of range")
    # E_r's denominator is B_{r-1}^{pq} + Z_{r-1}^{p+1,q-1}, and the latter
    # has the same target index as Z_r^{pq}.
    prev_r = None if r is None else r - 1
    key = ("terms", p, q, f._z_target(r, p), f._b_source(r, p), f._b_source(prev_r, p))
    groups = f._memoized(key, lambda: _compute_terms(f, r, prev_r, p, q))
    return SpectralTerms(r, p, q, *groups)


def _compute_terms(f: FilteredComplex, r: Optional[int], prev_r: Optional[int],
                   p: int, q: int) -> tuple[FgAbGroup, FgAbGroup, FgAbGroup]:
    rel = _intlin.relation_columns(f.total.group(p + q).orders)
    z_lat = f._z_lattice(r, p, q)
    b_lat = f._b_lattice(r, p, q)
    if not z_lat.contains_lattice(b_lat):
        raise VerificationError("boundary term escaped the cycle term")
    e_rel = f._b_lattice(prev_r, p, q).basis + f._z_lattice(prev_r, p + 1, q - 1).basis
    return _group_of(z_lat, rel), _group_of(b_lat, rel), _group_of(z_lat, e_rel)


@dataclass(frozen=True)
class DegenerationEntry:
    r: Optional[int]
    p: int
    q: int
    expected: FgAbGroup
    got: FgAbGroup

    @property
    def ok(self) -> bool:
        return self.expected == self.got


@dataclass(frozen=True)
class DegenerationReport:
    entries: tuple[DegenerationEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


def grid_points(f: FilteredComplex, r_max: int) -> list[tuple[Optional[int], int, int]]:
    """(r, p, q) for pages 1..r_max and then the limit page, p over the
    filtration and p+q over 0..dim+1.  A grid of more than
    ``GENERATOR_BUDGET`` points is refused before any is listed."""
    size = (r_max + 1) * f.depth * (f.site.dim + 2)
    if size > GENERATOR_BUDGET:
        raise BudgetExceededError(
            f"spectral grid up to page {r_max} has {size} points, budget is "
            f"{GENERATOR_BUDGET}")
    pages: list[Optional[int]] = [*range(1, r_max + 1), None]
    return [(r, p, n - p) for r in pages for p in range(1, f.depth + 1)
            for n in range(f.site.dim + 2)]


def check_degeneration(f: FilteredComplex, r_max: int) -> DegenerationReport:
    """Assert E_r^{pq} is the summand cohomology H^{p+q}(X, L_p) for every
    page r <= r_max and for the limit page."""
    entries = []
    complexes = [cech_complex(f.site, s) for s in f.summands]
    for r, p, q in grid_points(f, r_max):
        expected = cohomology(complexes[p - 1], p + q).group
        got = filtered_terms(f, r, p, q).e_group
        entries.append(DegenerationEntry(r, p, q, expected, got))
    return DegenerationReport(tuple(entries))


@dataclass(frozen=True)
class DirectSumLesReport:
    """Two-summand special case of the filtration's exact sequence.

    The hypothesis is read as: all summands vanish except the first (index
    1) and the last (index n) -- the source text is ambiguous about its
    index origin, so the chosen reading is recorded in the header.
    """

    header: str
    les: LesReport
    connecting_all_zero: bool
    decomposition_ok: bool

    @property
    def ok(self) -> bool:
        return self.les.ok and self.connecting_all_zero and self.decomposition_ok


def les_direct_sum(x: SimplicialComplex, l_first: FgAbGroup, l_last: FgAbGroup,
                   n_index: int, max_degree: int) -> DirectSumLesReport:
    """...-> H^i(X,L_n) -> H^i(X,L) -> H^i(X,L_1) -> H^{i+1}(X,L_n) -> ...

    for L = L_1 ⊕ L_n.  The splitting forces every connecting map to be
    zero; the report verifies that instead of assuming it, and also checks
    the cohomology of L against the sum of the summand cohomologies.
    """
    if n_index < 2:
        raise ValidationError("the nonzero summand indices 1 and n must differ")
    total, embeddings, projections = direct_sum_with_maps([l_first, l_last])
    ses = validate_ses(l_last, total, l_first, embeddings[1], projections[0])
    les = long_exact_sequence(x, ses, max_degree)

    zero_connectings = all(
        les.maps[3 * p + 2].is_zero for p in range(max_degree + 1))

    decomposition_ok = True
    for i in range(max_degree + 1):
        h_total = cohomology(cech_complex(x, total), i).group
        h_first = cohomology(cech_complex(x, l_first), i).group
        h_last = cohomology(cech_complex(x, l_last), i).group
        merged, _, _ = direct_sum_with_maps([h_first, h_last])
        if merged != h_total:
            decomposition_ok = False

    header = (f"direct-sum filtration with nonzero summands at indices 1 and "
              f"{n_index} (summands indexed from 1)")
    return DirectSumLesReport(header, les, zero_connectings, decomposition_ok)
