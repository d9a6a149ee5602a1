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
by those values (``_piece_groups``), which looks up its lattices and
quotients in bounded memos keyed by value, never by a site:

- the W_p, with the embeddings, per summands (``_filtration``, 256);
- the preimages {x in W_i : ax in W_j} per (summands, a, i, j)
  (``_preimage``, 256);
- every lattice, W_p and preimages and scaled images aP + R alike, reduced
  once per distinct generator list (``_lattice``, 1024);
- the quotients, by their invariant factors alone: one SNF without
  transforms of the denominator's coordinates in the numerator's basis,
  keyed by those coordinates (``_cokernel_group``, 1024).

The check that a piece's B lies in its Z runs once per distinct piece.
A term sums its pieces' cached groups with ``cyclic_sum``.  The grid sums
each distinct (p, t, s, s_prev, n) once: every page r >= max(p, D+1-p)
takes the limit page's sums, and each degree's pieces are counted once per
site (``_degree_pieces``, 256).  Sites with the same summands share every
lattice and piece.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from cechtower import _intlin
from cechtower._record import Record
from cechtower.abelian import (
    FgAbGroup,
    cyclic_sum,
    direct_sum_with_maps,
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
from cechtower.exactseq import long_exact_sequence, validate_ses


class FilteredComplex(Record):
    """A site and a direct sum of coefficient groups with the summand-index
    filtration.  It keeps the summands and their embeddings into the sum.
    The embeddings and the coefficient lattices W_1 ⊃ ... ⊃ W_{D+1} = R
    in Z^g are memoized per process on the summands alone
    (``_filtration``).  The terms are computed on request from the site's
    integral data and the pieces' memo, whose keys hold the summands but
    never this object, which compares by identity, or its site.  No
    cochain group of the sum is built.
    """

    _fields = ("site", "summands")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, site: SimplicialComplex, summands: tuple[FgAbGroup, ...]):
        if not summands:
            raise ValidationError("need at least one summand")
        summands = tuple(summands)
        object.__setattr__(self, "embeddings", _filtration(summands)[0])
        Record.__init__(self, site, summands)

    @property
    def depth(self) -> int:
        return len(self.summands)


@lru_cache(maxsize=256)
def _filtration(summands: tuple[FgAbGroup, ...]) -> tuple[tuple, tuple]:
    """The embeddings of the summands into their direct sum Z^g/R, and the
    lattices W_p for p = 1..D+1, memoized on the summands."""
    g = sum(s.ngens for s in summands)
    check_dense_budget(f"direct sum of {g} generators", g, g)
    total, embeddings, _ = direct_sum_with_maps(summands)
    rel = _intlin.relation_columns(total.orders)
    w = tuple(
        _lattice(total.ngens, tuple(tuple(col) for emb in embeddings[i:]
                                    for col in emb.columns()) + tuple(map(tuple, rel)))
        for i in range(len(embeddings) + 1))
    return tuple(embeddings), w


def _w(summands: tuple[FgAbGroup, ...], p: int) -> _intlin.Lattice:
    """W_p (1-based; p <= 1 is Z^g, p > depth is R)."""
    w = _filtration(summands)[1]
    return w[min(max(p, 1), len(w)) - 1]


class SpectralTerms(Record):
    """Presentations of Z, B, E at one grid point (r=None is the limit page)."""

    _fields = ("r", "p", "q", "z_group", "b_group", "e_group")


def filtered_terms(f: FilteredComplex, r: int | None, p: int, q: int) -> SpectralTerms:
    """Z, B, E in degree p+q as the sums of the elementary pieces' terms."""
    if r is not None and r < 1:
        raise ValidationError("page index must be >= 1")
    if p < 1:
        raise ValidationError("filtration index must be >= 1")
    n = p + q
    if n < 0:
        raise ValidationError(f"degree p+q = {n} is out of range")
    t, s, s_prev = _page_indices(f.depth, r, p)
    free, sources, targets = _degree_pieces(f.site, n)
    pieces = ([(("free", 0, p, 0, 0), free)]
              + [(("source", a, p, t, 0), count) for a, count in sources]
              + [(("target", a, p, s, s_prev), count) for a, count in targets])
    groups = [(_piece_groups(f.summands, *key), count) for key, count in pieces if count]
    z, b, e = (cyclic_sum((o, count) for piece, count in groups
                          for o in piece[i].orders) for i in range(3))
    return SpectralTerms(r, p, q, z, b, e)


def _page_indices(depth: int, r: int | None, p: int) -> tuple[int, int, int]:
    """The clamped indices (t, s, s_prev) through which page r enters at
    filtration index p.  E_r's denominator reads page r-1:
    Z_{r-1}^{p+1,q-1} has the same target index t as Z_r^{pq}, and
    B_{r-1}^{pq} the source index s_prev."""
    if r is None:
        return depth + 1, 1, 1
    return min(p + r, depth + 1), max(p - r, 1), max(p - r + 1, 1)


@lru_cache(maxsize=256)
def _degree_pieces(x: SimplicialComplex, n: int) -> tuple[int, tuple, tuple]:
    """The elementary pieces of degree n of C*(X; Z): the number of free
    pieces, and the (a, count) pairs of the source pieces (diagonal of d_n)
    and of the target pieces (diagonal of d_{n-1})."""
    sources = Counter(coboundary_diagonal(x, n))
    targets = Counter(coboundary_diagonal(x, n - 1))
    free = len(x.cells(n)) - sum(sources.values()) - sum(targets.values())
    return free, tuple(sources.items()), tuple(targets.items())


@lru_cache(maxsize=256)
def _piece_groups(summands: tuple[FgAbGroup, ...], kind: str, a: int, p: int,
                  i: int, j: int) -> tuple[FgAbGroup, FgAbGroup, FgAbGroup]:
    """Z/R, B/R and E = Z/(E's denominator) of one elementary piece of the
    filtration of ``summands``: a free piece, or a source or target piece
    of the diagonal entry a, at filtration index p.  i is the clamped
    target index t of a source piece, and (i, j) the clamped source
    indices (s, s_prev) of a target piece.  A pure function of its values,
    so every site, degree and page that reaches the same key shares one
    entry; its lattices come from the lattice memos and its groups from
    ``_quotient_group``."""
    rel = _w(summands, len(summands) + 1)
    w_next = _w(summands, p + 1)
    if kind == "free":
        z_lat, b_lat, e_den = _w(summands, p), rel, w_next.basis
    elif kind == "source":
        z_lat, b_lat = _preimage(summands, a, p, i), rel
        e_den = _preimage(summands, a, p + 1, i).basis
    else:
        z_lat, b_lat = _w(summands, p), _image(summands, a, i, p)
        e_den = _image(summands, a, j, p).basis + w_next.basis
    if not z_lat.contains_lattice(b_lat):
        raise VerificationError("boundary term escaped the cycle term")
    return (_quotient_group(z_lat, rel.basis), _quotient_group(b_lat, rel.basis),
            _quotient_group(z_lat, e_den))


@lru_cache(maxsize=256)
def _preimage(summands: tuple[FgAbGroup, ...], a: int, i: int, j: int) -> _intlin.Lattice:
    """{x in W_i : ax in W_j}, which contains R."""
    w_i = _w(summands, i).basis
    g = _w(summands, 1).n
    coeffs = _intlin.lattice_preimage_gens([[a * v for v in b] for b in w_i], g,
                                           _w(summands, j).basis)
    return _lattice(g, tuple(tuple(_intlin.lin_comb(w_i, c, g)) for c in coeffs))


def _image(summands: tuple[FgAbGroup, ...], a: int, s: int, p: int) -> _intlin.Lattice:
    """a{y in W_s : ay in W_p} + R, built once through ``_lattice``."""
    rel = _w(summands, len(summands) + 1)
    return _lattice(rel.n, tuple(tuple(a * v for v in b)
                                 for b in _preimage(summands, a, s, p).basis)
                    + tuple(map(tuple, rel.basis)))


@lru_cache(maxsize=1024)
def _lattice(n: int, gens: tuple[tuple[int, ...], ...]) -> _intlin.Lattice:
    """The lattice ``gens`` span in Z^n, reduced once per distinct list:
    preimages of different keys often share their generators."""
    return _intlin.Lattice(n, gens)


def _quotient_group(num: _intlin.Lattice, den_gens: list[list[int]]) -> FgAbGroup:
    """num / lattice(den_gens), which must lie inside num."""
    rows = _intlin.quotient_relations(num, den_gens)
    return _cokernel_group(num.rank, tuple(map(tuple, rows)))


@lru_cache(maxsize=1024)
def _cokernel_group(n: int, rows: tuple[tuple[int, ...], ...]) -> FgAbGroup:
    """Z^n modulo the span of ``rows``, from one SNF without transforms."""
    res = _intlin.snf(rows, len(rows), n, ())
    return FgAbGroup(n - res.rank, tuple(d for d in res.diag[:res.rank] if d > 1))


class DegenerationEntry(Record):
    _fields = ("r", "p", "q", "expected", "got")

    @property
    def ok(self) -> bool:
        return self.expected == self.got


class DegenerationReport(Record):
    _fields = ("entries",)

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
    pages: list[int | None] = [*range(1, r_max + 1), None]
    # Points that agree in (p, t, s, s_prev, n) have equal terms, so each
    # is summed once: the limit page shares the sums of every page past
    # stabilization.
    sums: dict[tuple, SpectralTerms] = {}
    grid = []
    for r in pages:
        for p in range(1, f.depth + 1):
            indices = _page_indices(f.depth, r, p)
            for n in range(f.site.dim + 2):
                key = (p, *indices, n)
                if key not in sums:
                    sums[key] = filtered_terms(f, r, p, n - p)
                terms = sums[key]
                grid.append(SpectralTerms(r, p, n - p, terms.z_group, terms.b_group,
                                          terms.e_group))
    return grid


def check_degeneration(f: FilteredComplex, grid: list[SpectralTerms]) -> DegenerationReport:
    """Assert each E_r^{pq} of ``grid`` is the summand cohomology
    H^{p+q}(X, L_p)."""
    complexes = [cech_complex(f.site, s) for s in f.summands]
    return DegenerationReport(tuple(
        DegenerationEntry(t.r, t.p, t.q, cohomology(complexes[t.p - 1], t.p + t.q).group,
                          t.e_group)
        for t in grid))


class DirectSumLesReport(Record):
    """Two-summand special case of the filtration's exact sequence.

    The hypothesis is read as: all summands vanish except the first (index
    1) and the last (index n) -- the source text is ambiguous about its
    index origin, so the chosen reading is recorded in the header.
    """

    _fields = ("header", "les", "connecting_all_zero", "decomposition_ok")

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
        merged = cyclic_sum((o, 1) for o in h_first.orders + h_last.orders)
        if merged != h_total:
            decomposition_ok = False

    header = (f"direct-sum filtration with nonzero summands at indices 1 and "
              f"{n_index} (summands indexed from 1)")
    return DirectSumLesReport(header, les, zero_connectings, decomposition_ok)
