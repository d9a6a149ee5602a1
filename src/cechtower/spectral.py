"""The filtered Cech complex of a direct sum of coefficient groups.

L = L_1 + ... + L_D is Z^g modulo its relations R, and filtration index p
keeps the summands with index >= p: W_p in Z^g is spanned by summands p..
and R, so W_1 = Z^g and W_{D+1} = R.  The terms are defined by membership
in the cochains C^n(X; W_p),

    Z_r^{pq} = {x in C^{p+q}(X; W_p) : dx in C^{p+q+1}(X; W_{p+r})},
    B_r^{pq} = d C^{p+q-1}(X; W_{p-r}) ∩ C^{p+q}(X; W_p),
    E_r^{pq} = Z_r^{pq} / (B_{r-1}^{pq} + Z_{r-1}^{p+1,q-1}),

with Z and B presented modulo the relations.  They are not solved in
C^n(X; Z^g).  By the standard-basis theorem C*(X; Z) is a direct sum of
elementary pieces: in degree n, one source piece Z --a--> Z per nonzero SNF
diagonal entry a of the integral d_n, one target piece per entry of
d_{n-1}, and k_n - r_n - r_{n-1} free pieces Z.  Tensoring with the
filtered lattices keeps the sum, so every term is a sum of the pieces'
terms, quotients of lattices in Z^g:

    piece         Z_r                       B_r
    free          W_p                       R
    source of a   {x in W_p : ax in W_t}    R
    target of a   W_p                       a{y in W_s : ay in W_p} + R

with t = min(p+r, D+1) and s = max(p-r, 1); ``r=None`` is the limit page,
t = D+1 and s = 1.  E_r divides a piece's Z_r by that piece's B_{r-1} +
Z_{r-1}^{p+1,q-1}.  The page r enters only through t and s.  The closed
forms (E_r^{pq} equals the summand cohomology, page stability) are what
``check_degeneration`` verifies, never a shortcut taken here.

A piece's Z, B and E groups depend on the summands, its kind, a, p and the
clamped indices alone, never on a site, degree or page beyond those, so
they are presented once per process in an LRU cache of 256 entries keyed
by those values (``_piece_groups``), next to the W bases keyed by the
summands (``_filtration``).  Every page r >= max(p, D+1-p) reads the limit
page's entries, and sites with the same summands share entries.  A term
sums its pieces' cached groups with ``cyclic_sum``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from cechtower import _intlin
from cechtower.abelian import (
    FgAbGroup,
    cyclic_sum,
    direct_sum_with_maps,
    presentation_group,
)
from cechtower.cochain import (
    GENERATOR_BUDGET,
    SimplicialComplex,
    cech_complex,
    check_dense_budget,
    coboundary_diagonal,
    cohomology,
)
from cechtower.errors import BudgetExceededError, ValidationError, VerificationError
from cechtower.exactseq import LesReport, long_exact_sequence, validate_ses


@dataclass(frozen=True, eq=False)
class FilteredComplex:
    """A site and a direct sum of coefficient groups with the summand-index
    filtration.  It keeps the summands and their embeddings into the sum.
    The embeddings and a basis of each coefficient lattice W_1 ⊃ ... ⊃
    W_{D+1} = R in Z^g are memoized per process on the summands alone
    (``_filtration``).  The terms are computed on request from the site's
    integral data and the pieces' memo, whose keys hold the summands but
    never this object, which compares by identity, or its site.  No
    cochain group of the sum is built.
    """

    site: SimplicialComplex
    summands: tuple[FgAbGroup, ...]

    def __post_init__(self):
        if not self.summands:
            raise ValidationError("need at least one summand")
        object.__setattr__(self, "summands", tuple(self.summands))
        object.__setattr__(self, "embeddings", _filtration(self.summands)[0])

    @property
    def depth(self) -> int:
        return len(self.summands)


@lru_cache(maxsize=256)
def _filtration(summands: tuple[FgAbGroup, ...]) -> tuple[tuple, tuple]:
    """The embeddings of the summands into their direct sum Z^g/R, and a
    basis of W_p for p = 1..D+1, memoized on the summands."""
    g = sum(s.ngens for s in summands)
    check_dense_budget(f"direct sum of {g} generators", g, g)
    total, embeddings, _ = direct_sum_with_maps(summands)
    rel = _intlin.relation_columns(total.orders)
    w_bases = tuple(
        _intlin.Lattice(total.ngens, [col for emb in embeddings[i:]
                                      for col in emb.columns()] + rel).basis
        for i in range(len(embeddings) + 1))
    return tuple(embeddings), w_bases


def _w_basis(w_bases: tuple, p: int) -> list[list[int]]:
    """A basis of W_p (1-based; p <= 1 is Z^g, p > depth is R)."""
    return w_bases[min(max(p, 1), len(w_bases)) - 1]


@dataclass(frozen=True)
class SpectralTerms:
    """Presentations of Z, B, E at one grid point (r=None is the limit page)."""

    r: Optional[int]
    p: int
    q: int
    z_group: FgAbGroup
    b_group: FgAbGroup
    e_group: FgAbGroup


def filtered_terms(f: FilteredComplex, r: Optional[int], p: int, q: int) -> SpectralTerms:
    """Z, B, E in degree p+q as the sums of the elementary pieces' terms."""
    if r is not None and r < 1:
        raise ValidationError("page index must be >= 1")
    if p < 1:
        raise ValidationError("filtration index must be >= 1")
    n = p + q
    if n < 0:
        raise ValidationError(f"degree p+q = {n} is out of range")
    top = f.depth + 1
    # E_r's denominator reads page r-1: Z_{r-1}^{p+1,q-1} has the same
    # target index t as Z_r^{pq}, and B_{r-1}^{pq} the source index s_prev.
    t = top if r is None else min(p + r, top)
    s, s_prev = (1, 1) if r is None else (max(p - r, 1), max(p - r + 1, 1))
    sources = Counter(coboundary_diagonal(f.site, n))
    targets = Counter(coboundary_diagonal(f.site, n - 1))
    free = len(f.site.cells(n)) - sum(sources.values()) - sum(targets.values())
    pieces = ([(("free", 0, p, 0, 0), free)]
              + [(("source", a, p, t, 0), count) for a, count in sources.items()]
              + [(("target", a, p, s, s_prev), count) for a, count in targets.items()])
    groups = [(_piece_groups(f.summands, *key), count) for key, count in pieces if count]
    z, b, e = (cyclic_sum((o, count) for piece, count in groups
                          for o in piece[i].orders) for i in range(3))
    return SpectralTerms(r, p, q, z, b, e)


@lru_cache(maxsize=256)
def _piece_groups(summands: tuple[FgAbGroup, ...], kind: str, a: int, p: int,
                  i: int, j: int) -> tuple[FgAbGroup, FgAbGroup, FgAbGroup]:
    """Z/R, B/R and E = Z/(E's denominator) of one elementary piece of the
    filtration of ``summands``: a free piece, or a source or target piece
    of the diagonal entry a, at filtration index p.  i is the clamped
    target index t of a source piece, and (i, j) the clamped source
    indices (s, s_prev) of a target piece.  A pure function of its values,
    so every site, degree and page that reaches the same key shares one
    entry."""
    w_bases = _filtration(summands)[1]
    w_p, w_next = _w_basis(w_bases, p), _w_basis(w_bases, p + 1)
    if kind == "free":
        z_gens, b_gens, e_gens = w_p, [], w_next
    elif kind == "source":
        z_gens, b_gens = _preimage(w_bases, a, p, i), []
        e_gens = _preimage(w_bases, a, p + 1, i)
    else:
        z_gens = w_p
        b_gens, e_gens = (_scaled(a, _preimage(w_bases, a, s, p)) for s in (i, j))
        e_gens = e_gens + w_next
    g, rel = len(w_bases[0]), w_bases[-1]
    z_lat = _intlin.Lattice(g, z_gens)
    b_lat = _intlin.Lattice(g, b_gens + rel)
    if not z_lat.contains_lattice(b_lat):
        raise VerificationError("boundary term escaped the cycle term")
    return tuple(presentation_group(_intlin.present_quotient(num, den))
                 for num, den in ((z_lat, rel), (b_lat, rel), (z_lat, e_gens + rel)))


def _scaled(a: int, vectors: list[list[int]]) -> list[list[int]]:
    return [[a * v for v in vec] for vec in vectors]


def _preimage(w_bases: tuple, a: int, i: int, j: int) -> list[list[int]]:
    """Generators of {x in W_i : ax in W_j}."""
    w_i = _w_basis(w_bases, i)
    g = len(w_bases[0])
    coeffs = _intlin.lattice_preimage_gens(_scaled(a, w_i), g, _w_basis(w_bases, j))
    return [_intlin.lin_comb(w_i, c, g) for c in coeffs]


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


def spectral_grid(f: FilteredComplex, r_max: int) -> list[SpectralTerms]:
    """The terms at (r, p, q) for pages 1..r_max and then the limit page, p
    over the filtration and p+q over 0..dim+1.  A grid of more than
    ``GENERATOR_BUDGET`` points is refused before any term is computed."""
    size = (r_max + 1) * f.depth * (f.site.dim + 2)
    if size > GENERATOR_BUDGET:
        raise BudgetExceededError(
            f"spectral grid up to page {r_max} has {size} points, budget is "
            f"{GENERATOR_BUDGET}")
    pages: list[Optional[int]] = [*range(1, r_max + 1), None]
    return [filtered_terms(f, r, p, n - p) for r in pages for p in range(1, f.depth + 1)
            for n in range(f.site.dim + 2)]


def check_degeneration(f: FilteredComplex, grid: list[SpectralTerms]) -> DegenerationReport:
    """Assert each E_r^{pq} of ``grid`` is the summand cohomology
    H^{p+q}(X, L_p)."""
    complexes = [cech_complex(f.site, s) for s in f.summands]
    return DegenerationReport(tuple(
        DegenerationEntry(t.r, t.p, t.q, cohomology(complexes[t.p - 1], t.p + t.q).group,
                          t.e_group)
        for t in grid))


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
