"""Finite simplicial sites and their cochain complexes.

A site is the nerve of a covering family: vertices are cover indices and a
p-simplex records a nonempty (p+1)-fold intersection.  Cochains live on
strictly increasing vertex tuples with the alternating-sign coboundary;
coefficients are constant (one finitely generated abelian group).

Coordinate layout of a cochain group C^p = L^k (k cells in degree p):
generator-major, i.e. coordinate g*k + s holds the g-th L-coordinate of
the value on cell number s.  This keeps C^p in invariant-factor form with
no reshuffling, because repeating each invariant factor k times preserves
the divisor chain.

The site's face table (``SimplicialComplex.faces``) is the only Cech
coboundary data: (df)(tau) = sum_j (-1)^j f(tau without vertex j), applied
to the block of each coefficient generator by ``cech_coboundary``.  A Cech
complex stores no coboundary matrix; ``differential(p)`` builds a dense
view from the table when a caller needs one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence

from cechtower import _intlin
from cechtower.abelian import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    free_group,
    hom_invariants,
    hom_validate,
    trivial_group,
    zero_hom,
)
from cechtower.errors import BudgetExceededError, ValidationError, VerificationError

# Cap on the cells of a site and on the bar complex's generators in its top
# degree, checked before either is enumerated.
GENERATOR_BUDGET = 1 << 16
# Cap on the entries of one dense Cech coboundary (g*k_{p+1} x g*k_p),
# checked when the complex is built; work at L^k size (spectral lattices,
# cochain-level maps) relies on it.
COBOUNDARY_ENTRY_BUDGET = 1 << 22

# Cap on the degrees of one cohomology or long exact sequence request: a
# degree past the dimension still costs about 0.4 ms and 10 kB of memo.
DEGREE_BUDGET = 1 << 12

@dataclass(frozen=True)
class SimplicialComplex:
    """Simplices grouped by dimension, each a strictly increasing tuple.

    Hashed once, on construction: every memo lookup on a site hashes it."""

    vertex_count: int
    simplices: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if self.vertex_count <= 0:
            raise ValidationError("vertex_count must be positive")
        for p, level in enumerate(self.simplices):
            if tuple(sorted(level)) != tuple(level):
                raise ValidationError(f"dimension {p} is not lexicographically sorted")
            for s in level:
                if len(s) != p + 1:
                    raise ValidationError(f"simplex {s} listed in dimension {p}")
                if any(a >= b for a, b in zip(s, s[1:])):
                    raise ValidationError(f"simplex {s} is not strictly increasing")
                if s[0] < 0 or s[-1] >= self.vertex_count:
                    raise ValidationError(f"simplex {s} has a vertex out of range")
        index = tuple({s: i for i, s in enumerate(level)} for level in self.simplices)
        for v in range(self.vertex_count):
            if (v,) not in (index[0] if index else {}):
                raise ValidationError(f"vertex {v} is missing from the 0-simplices")
        faces = [((),) * len(index[0])]
        for p in range(1, len(index)):
            rows = []
            for s in self.simplices[p]:
                row = []
                for j in range(p + 1):
                    face = s[:j] + s[j + 1:]
                    if face not in index[p - 1]:
                        raise ValidationError(
                            f"complex is not downward closed: face {face} of {s} missing")
                    row.append(index[p - 1][face])
                rows.append(tuple(row))
            faces.append(tuple(rows))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_faces", tuple(faces))
        object.__setattr__(self, "_hash", hash((self.vertex_count, self.simplices)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def cells(self, p: int) -> tuple[tuple[int, ...], ...]:
        if 0 <= p <= self.dim:
            return self.simplices[p]
        return ()

    def cell_index(self, p: int, s: tuple[int, ...]) -> int:
        return self._index[p][s]

    def cell_indices(self, p: int) -> Mapping[tuple[int, ...], int]:
        """Cell -> position among the degree-p cells (empty outside 0..dim)."""
        return self._index[p] if 0 <= p <= self.dim else {}

    def faces(self, p: int) -> tuple[tuple[int, ...], ...]:
        """Per degree-p cell, the positions among the (p-1)-cells of its
        faces; face j leaves out vertex j and has sign (-1)^j.  A vertex
        has no faces, and degrees outside 0..dim have no cells."""
        return self._faces[p] if 0 <= p <= self.dim else ()

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * len(level) for p, level in enumerate(self.simplices))

    def facets(self) -> tuple[tuple[int, ...], ...]:
        """Maximal simplices, ordered by dimension then lexicographically."""
        out = []
        for p, level in enumerate(self.simplices):
            covered = {i for row in self.faces(p + 1) for i in row}
            out.extend(s for i, s in enumerate(level) if i not in covered)
        return tuple(out)


def build_complex_from_facets(vertex_count: int,
                              facets: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Downward closure of the given facets; isolated vertices are allowed.

    Every vertex 0..vertex_count-1 becomes a 0-simplex whether or not a
    facet mentions it.
    """
    facets = [tuple(f) for f in facets]
    for fi, f in enumerate(facets):
        if len(f) == 0:
            raise ValidationError(f"facet {fi} is empty")
        for v in f:
            if not 0 <= v < vertex_count:
                raise ValidationError(f"facet {fi}: vertex {v} out of range")
        if len(set(f)) != len(f):
            dup = next(v for v in f if f.count(v) > 1)
            raise ValidationError(f"facet {fi}: repeated vertex {dup}")
    cells = vertex_count + sum((1 << len(f)) - 1 for f in facets)
    if cells > GENERATOR_BUDGET:
        raise BudgetExceededError(
            f"complex may have up to {cells} cells, budget is {GENERATOR_BUDGET}")
    levels: dict[int, set] = {0: {(v,) for v in range(vertex_count)}}
    for f in facets:
        s = tuple(sorted(f))
        for size in range(1, len(s) + 1):
            for face in itertools.combinations(s, size):
                levels.setdefault(size - 1, set()).add(face)
    top = max(levels)
    simplices = tuple(tuple(sorted(levels.get(p, ()))) for p in range(top + 1))
    return SimplicialComplex(vertex_count, simplices)


def suspension(x: SimplicialComplex) -> SimplicialComplex:
    """Join with two new apex vertices (placed after the existing ones)."""
    a = x.vertex_count
    b = x.vertex_count + 1
    new_facets = []
    for f in x.facets():
        new_facets.append(f + (a,))
        new_facets.append(f + (b,))
    return build_complex_from_facets(x.vertex_count + 2, new_facets)


def check_degree_bound(top: int) -> None:
    """Refuse degrees 0..top when top is negative or they are more than
    ``DEGREE_BUDGET``, before any degree is listed."""
    if top < 0:
        raise ValidationError(f"degree bound {top} is negative")
    if top + 1 > DEGREE_BUDGET:
        raise BudgetExceededError(
            f"degrees 0..{top} are {top + 1} degrees, budget is {DEGREE_BUDGET}")


def power_group(coefficients: FgAbGroup, k: int) -> FgAbGroup:
    """L^k in generator-major coordinates (still invariant-factor form)."""
    return FgAbGroup(coefficients.free_rank * k,
                     tuple(d for d in coefficients.torsion for _ in range(k)))


@dataclass(frozen=True, eq=False)
class CochainComplex:
    """Graded groups with differentials composing to zero.

    ``cells``/``coefficients`` carry the per-cell structure for complexes
    built from a site or a bar construction; plain graded complexes may
    leave them unset.  Degrees outside the stored range behave as zero
    groups with zero maps.  A Cech complex (``base`` set) stores no
    differentials: they come from the site's face table, and d∘d = 0
    holds by the simplicial identity.  Other complexes store one matrix per
    adjacent degree pair, checked to compose to zero.

    A Cech complex is a value: it compares and hashes by (site,
    coefficients), which determine everything else it holds, so complexes
    built from equal inputs share cochains, memo entries and class
    coordinates.  Complexes without a site compare by identity.
    """

    groups: tuple[FgAbGroup, ...]
    diffs: tuple[Homomorphism, ...]
    coefficients: Optional[FgAbGroup] = None
    cells: Optional[tuple[tuple, ...]] = None
    base: Optional[SimplicialComplex] = None

    def __post_init__(self):
        if self.base is not None and self.diffs:
            raise ValidationError("a Cech complex takes its differentials from the site")
        if self.base is None and len(self.diffs) != max(len(self.groups) - 1, 0):
            raise ValidationError("need exactly one differential per adjacent degree pair")
        for p, d in enumerate(self.diffs):
            if d.source != self.groups[p] or d.target != self.groups[p + 1]:
                raise ValidationError(f"differential {p} does not match the graded groups")
        for p in range(len(self.diffs) - 1):
            if not self.diffs[p + 1].compose(self.diffs[p]).is_zero:
                raise ValidationError(f"d∘d != 0 between degrees {p} and {p + 2}")
        if self.cells is not None and len(self.cells) != len(self.groups):
            raise ValidationError("cell table must cover every stored degree")
        object.__setattr__(self, "_cell_index", {})
        object.__setattr__(self, "_hash", object.__hash__(self) if self.base is None
                           else hash((self.base, self.coefficients)))

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, CochainComplex) and self.base is not None
            and self._hash == other._hash
            and (self.base, self.coefficients) == (other.base, other.coefficients))

    def __hash__(self) -> int:
        return self._hash

    @property
    def max_degree(self) -> int:
        return len(self.groups) - 1

    def group(self, p: int) -> FgAbGroup:
        if 0 <= p <= self.max_degree:
            return self.groups[p]
        return trivial_group()

    def differential(self, p: int) -> Homomorphism:
        """d_p as a matrix.  On a Cech complex this is a dense view of the
        face table, built on each call and never stored; code that only
        applies d_p uses ``coboundary``/``cech_coboundary`` instead."""
        if self.base is None:
            if 0 <= p < self.max_degree:
                return self.diffs[p]
            return zero_hom(self.group(p), self.group(p + 1))
        src, k = self.group(p), len(self.base.cells(p))
        rows = []
        for g in range(self.coefficients.ngens):
            for faces in self.base.faces(p + 1):
                row = [0] * src.ngens
                for j, f in enumerate(faces):
                    row[g * k + f] = -1 if j % 2 else 1
                rows.append(row)
        return Homomorphism(src, self.group(p + 1), rows)

    def ncells(self, p: int) -> int:
        if self.cells is None:
            raise ValidationError("complex carries no cell structure")
        return len(self.cells[p]) if 0 <= p <= self.max_degree else 0

    def cell_list(self, p: int) -> tuple:
        if self.cells is None:
            raise ValidationError("complex carries no cell structure")
        return self.cells[p] if 0 <= p <= self.max_degree else ()

    def cell_position(self, p: int, cell: tuple) -> int:
        """Position of ``cell`` among the degree-p cells, by dict lookup: the
        site's index for a Cech complex, one dict per degree otherwise."""
        if self.base is not None:
            index = self.base.cell_indices(p)
        else:
            index = self._cell_index.get(p)
            if index is None:
                index = {c: i for i, c in enumerate(self.cell_list(p))}
                self._cell_index[p] = index
        try:
            return index[cell]
        except KeyError:
            raise ValidationError(f"{cell} is not a cell of degree {p}") from None


@dataclass(frozen=True, eq=False)
class Cochain:
    complex: CochainComplex
    degree: int
    coords: tuple[int, ...]

    def __post_init__(self):
        group = self.complex.group(self.degree)
        object.__setattr__(self, "coords", group.normalize(self.coords))

    @property
    def group(self) -> FgAbGroup:
        return self.complex.group(self.degree)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cochain)
                and self.complex == other.complex
                and self.degree == other.degree
                and self.coords == other.coords)

    def __add__(self, other: "Cochain") -> "Cochain":
        if other.complex != self.complex or other.degree != self.degree:
            raise ValidationError("cochains live in different groups")
        return Cochain(self.complex, self.degree,
                       tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Cochain":
        return Cochain(self.complex, self.degree, tuple(-a for a in self.coords))

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def scale(self, k: int) -> "Cochain":
        return Cochain(self.complex, self.degree, tuple(k * a for a in self.coords))

    def value_at(self, cell) -> GroupElement:
        """The coefficient-group value on one cell (generator-major strides)."""
        coeff = self.complex.coefficients
        if coeff is None:
            raise ValidationError("complex carries no cell structure")
        k = self.complex.ncells(self.degree)
        s = self.complex.cell_position(self.degree, tuple(cell))
        return GroupElement(coeff, self.coords[s::k])


def zero_cochain(complex_: CochainComplex, degree: int) -> Cochain:
    return Cochain(complex_, degree, (0,) * complex_.group(degree).ngens)


def cochain_from_values(complex_: CochainComplex, degree: int,
                        values: Mapping[tuple[int, ...], Sequence[int]]) -> Cochain:
    """Assemble a cochain from per-cell coefficient coordinates."""
    coeff = complex_.coefficients
    if coeff is None:
        raise ValidationError("complex carries no cell structure")
    k = complex_.ncells(degree)
    coords = [0] * (coeff.ngens * k)
    for cell, val in values.items():
        cell = tuple(cell)
        s = complex_.cell_position(degree, cell)
        if len(val) != coeff.ngens:
            raise ValidationError(
                f"value on {cell} has {len(val)} coordinates, expected {coeff.ngens}")
        coords[s::k] = val
    return Cochain(complex_, degree, tuple(coords))


@lru_cache(maxsize=256)
def cech_complex(x: SimplicialComplex, coefficients: FgAbGroup) -> CochainComplex:
    """The Cech complex of the site with constant coefficients.

    Stored degrees run to dim+1 (the top group is trivial) so that the top
    nontrivial degree still has an outgoing differential.  The complex
    keeps only groups and cells; its coboundary is the site's face table
    (``cech_coboundary``).  A complex whose dense coboundary would have more
    than ``COBOUNDARY_ENTRY_BUDGET`` entries is refused.  The complex
    equals every other one built from an equal (site, coefficients) pair,
    so the bounded memo only saves rebuilding it: a cochain of an evicted
    instance still belongs to the rebuilt one.
    """
    g = coefficients.ngens
    cells = tuple(x.cells(p) for p in range(x.dim + 1)) + ((),)
    for p in range(x.dim + 1):
        rows, cols = g * len(cells[p + 1]), g * len(cells[p])
        if rows * cols > COBOUNDARY_ENTRY_BUDGET:
            raise BudgetExceededError(
                f"coboundary {p} would have {rows} x {cols} entries, budget is "
                f"{COBOUNDARY_ENTRY_BUDGET}")
    groups = tuple(power_group(coefficients, len(c)) for c in cells)
    return CochainComplex(groups, (), coefficients, cells, x)


def cech_coboundary(x: SimplicialComplex, p: int, coords: Sequence[int],
                    ngens: int) -> list[int]:
    """delta_p of a vector of C^p(X; L), L with ``ngens`` generators: the
    face table applied to the block of each coefficient generator
    (generator-major coordinates).  Entries are not reduced."""
    k = len(x.cells(p))
    out = []
    for g in range(ngens):
        block = coords[g * k:(g + 1) * k]
        out += [sum(block[f] for f in faces[::2]) - sum(block[f] for f in faces[1::2])
                for faces in x.faces(p + 1)]
    return out


def coboundary(c: Cochain) -> Cochain:
    """Apply the differential; degrees past the top land in the zero group."""
    comp = c.complex
    if comp.base is not None:
        image = cech_coboundary(comp.base, c.degree, c.coords, comp.coefficients.ngens)
    else:
        image = _intlin.mat_vec(comp.differential(c.degree).matrix, c.coords)
    return Cochain(comp, c.degree + 1, tuple(image))


def _violated_cell(c: Cochain, image_coords: Sequence[int]):
    k = None
    if c.complex.cells is not None:
        k = c.complex.ncells(c.degree + 1)
    for idx, v in enumerate(image_coords):
        if v != 0:
            if k:
                return c.complex.cell_list(c.degree + 1)[idx % k]
            return idx
    return None


@dataclass(frozen=True)
class Cohomology:
    """H^p with chosen representatives and the fixed projection.

    The projection is deterministic for the complex it was computed on;
    for a Cech complex that is its (site, coefficients) pair, so
    coordinates are comparable across equal complexes.
    """

    degree: int
    group: FgAbGroup
    representatives: tuple[Cochain, ...]
    _presentation: _intlin.Presentation = field(repr=False)

    def coords_of(self, c: Cochain) -> tuple[int, ...]:
        image = coboundary(c)
        if not image.is_zero:
            raise ValidationError(
                f"not a cocycle: coboundary does not vanish on "
                f"{_violated_cell(c, image.coords)}")
        return tuple(self._presentation.project(list(c.coords)))


@lru_cache(maxsize=256)
def cohomology(complex_: CochainComplex, p: int) -> Cohomology:
    """Kernel/image quotient at degree p in invariant-factor form.

    A Cech complex is computed from its site's integral data, one cyclic
    factor of the coefficients at a time (``_site_presentation``); other
    complexes present ker/im as one lattice quotient.  Memoized on
    (complex, p): Cech complexes by value, others by identity.
    """
    if complex_.base is not None:
        pres = _site_presentation(complex_, p)
    else:
        pres = _lattice_presentation(complex_, p)
    group = FgAbGroup(pres.free_rank, pres.torsion)
    reps = tuple(Cochain(complex_, p, tuple(col)) for col in pres.lift_cols)
    return Cohomology(p, group, reps, pres)


def _lattice_presentation(complex_: CochainComplex, p: int) -> _intlin.Presentation:
    """ker d_p / (im d_{p-1} + relations) as one lattice quotient: the path
    for complexes without a site, and the reference for the tests."""
    amb, d = complex_.group(p), complex_.differential(p)
    ker_gens = _intlin.kernel_lattice_gens(d.matrix, d.target.orders, amb.ngens)
    img_gens = (complex_.differential(p - 1).columns()
                + _intlin.relation_columns(amb.orders))
    return _intlin.present_quotient(_intlin.Lattice(amb.ngens, ker_gens), img_gens)


@dataclass(frozen=True)
class _IntegralDegree:
    """The SNF U d_p V = D of the integral coboundary: the nonzero diagonal
    a_i, the columns of V and the rows of V^-1.  In the V-coordinates
    y = V^-1 c, ker d_p is y[:rank] = 0, and ``pres`` presents H^p(X; Z) on
    y[rank:] (lift columns and ``project`` live there, not in C^p)."""

    diag: tuple[int, ...]
    v_cols: list
    vinv_rows: list
    pres: _intlin.Presentation


def _pull_back(x: SimplicialComplex, p: int, w: Sequence[int]) -> list[int]:
    """The row w d_{p-1}, for a row w on C^p(X; Z), from the face table."""
    out = [0] * len(x.cells(p - 1))
    for wt, faces in zip(w, x.faces(p)):
        for j, f in enumerate(faces):
            out[f] += -wt if j % 2 else wt
    return out


@lru_cache(maxsize=256)
def _integral_degree(x: SimplicialComplex, p: int) -> _IntegralDegree:
    """Degree-p integral data of the site, memoized on (site, p): one SNF of
    d_p.  im d_{p-1} in V-coordinates is V^-1 d_{p-1}; its rows below the
    rank vanish, and the columns of the others present H^p(X; Z)."""
    d = cech_complex(x, free_group(1)).differential(p)
    res = _intlin.snf(d.matrix, d.target.ngens, d.source.ngens, _intlin.COBOUNDARY)
    free = res.n - res.rank
    image_rows = [_pull_back(x, p, row) for row in res.Vinv[res.rank:]]
    pres = _intlin.present_cokernel(free, [list(col) for col in zip(*image_rows)])
    return _IntegralDegree(res.diag[:res.rank], [list(col) for col in zip(*res.V)],
                           res.Vinv, pres)


def _cyclic_factor(h: _IntegralDegree, m: int, k: int):
    """H^p(X; Z/m) (m == 0: Z) as cyclic summands, by universal coefficients.

    Returns (orders, representatives in Z^k, coords) where ``coords`` maps
    a cocycle of the factor to its coordinates in the summands, read off
    y = V^-1 c.  The summands are H^p(Z) (x) Z/m, the integral
    representatives of order gcd(t_j, m), projected from y[rank:]; then
    Tor(H^{p+1}(Z), Z/m), the cochains (m/g_i) V e_i of order
    g_i = gcd(a_i, m) (none for m == 0), read from y_i.  Summands of order
    1 are left out.  c is a cocycle mod m exactly when m | a_i y_i.
    """
    pres, rank = h.pres, len(h.diag)
    h_orders = pres.torsion + (0,) * pres.free_rank
    tensor = [(j, gcd(t, m)) for j, t in enumerate(h_orders) if gcd(t, m) != 1]
    steps = [m // gcd(a, m) for a in h.diag]  # m / g_i
    tor = [i for i, step in enumerate(steps) if step < m]
    orders = [o for _, o in tensor] + [m // steps[i] for i in tor]
    reps = ([_intlin.lin_comb(h.v_cols[rank:], pres.lift_cols[j], k) for j, _ in tensor]
            + [[steps[i] * v for v in h.v_cols[i]] for i in tor])

    def coords(c: Sequence[int]) -> list[int]:
        y = _intlin.mat_vec(h.vinv_rows, c)
        if any(a * yi % m if m else yi for a, yi in zip(h.diag, y)):
            raise VerificationError("cochain is not a cocycle modulo its order")
        hc = pres.project(y[rank:])
        return ([hc[j] % o if o else hc[j] for j, o in tensor]
                + [y[i] // steps[i] % (m // steps[i]) for i in tor])

    return orders, reps, coords


def _site_presentation(complex_: CochainComplex, p: int) -> _intlin.Presentation:
    """H^p(X; L) from the site's integral data, L = sum of cyclic factors.

    Each generator-major block of C^p(X; L) is C^p(X; Z/o) for one
    coefficient order o (o = 0: Z).  The factors' cyclic summands are
    brought into invariant-factor form by one small ``present_cokernel``.
    """
    h = _integral_degree(complex_.base, p)
    k = complex_.ncells(p)
    n = complex_.coefficients.ngens * k
    orders, reps, coord_fns = [], [], []
    for b, o in enumerate(complex_.coefficients.orders):
        f_orders, f_reps, f_coords = _cyclic_factor(h, o, k)
        orders += f_orders
        reps += [[0] * (b * k) + list(r) + [0] * (n - (b + 1) * k) for r in f_reps]
        coord_fns.append(f_coords)
    summed = _intlin.present_cokernel(len(orders), _intlin.relation_columns(orders))

    def project(v: Sequence[int]) -> list[int]:
        coords = []
        for b, f in enumerate(coord_fns):
            coords += f(v[b * k:(b + 1) * k])
        return summed.project(coords)

    return _intlin.Presentation(
        n, summed.torsion, summed.free_rank,
        [_intlin.lin_comb(reps, col, n) for col in summed.lift_cols], project)


@dataclass(frozen=True)
class CohomologyClass:
    """Class equality is coordinate equality under the fixed projection."""

    degree: int
    group: FgAbGroup
    coords: tuple[int, ...]
    representative: Cochain = field(compare=False)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def class_of(complex_: CochainComplex, c: Cochain) -> CohomologyClass:
    if c.complex != complex_:
        raise ValidationError("cochain does not belong to this complex")
    h = cohomology(complex_, c.degree)
    coords = h.coords_of(c)
    return CohomologyClass(c.degree, h.group, coords, c)


@dataclass(frozen=True)
class GroupAction:
    """A finite group acting on a module by validated automorphisms.

    ``action[i]`` is the automorphism matrix attached to element i of the
    acting group; the assignment must respect every Cayley-table product.
    """

    group: object  # liftgerbe.FiniteGroup (duck-typed to avoid an import cycle)
    module: FgAbGroup
    action: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        m = self.group.order
        if len(self.action) != m:
            raise ValidationError("need exactly one matrix per group element")
        homs = []
        for i, mat in enumerate(self.action):
            report = hom_validate(self.module, self.module, mat)
            if not report.ok:
                raise ValidationError(f"action of element {i}: {report.message}")
            homs.append(Homomorphism(self.module, self.module, mat))
        object.__setattr__(self, "action", tuple(h.matrix for h in homs))
        for i, h in enumerate(homs):
            inv = hom_invariants(h)
            if not inv.kernel.is_trivial or not inv.cokernel.is_trivial:
                raise ValidationError(f"action of element {i} is not an automorphism")
        table = self.group.table
        for a in range(m):
            for b in range(m):
                if homs[a].compose(homs[b]).matrix != homs[table[a][b]].matrix:
                    raise ValidationError(
                        f"action is not a homomorphism at the pair ({a}, {b})")

    def matrix_of(self, i: int) -> tuple[tuple[int, ...], ...]:
        return self.action[i]


def trivial_action(group, module: FgAbGroup) -> GroupAction:
    ident = tuple(map(tuple, _intlin.identity_matrix(module.ngens)))
    return GroupAction(group, module, (ident,) * group.order)


def bar_complex(group, action: GroupAction, max_degree: int,
                budget: int = GENERATOR_BUDGET) -> CochainComplex:
    """Unnormalized inhomogeneous bar complex of a finite group.

    C^p = Maps(H^p, M) with the action twisting the leading face:
    (df)(h_1,..,h_{p+1}) = h_1·f(h_2,..) + sum_i (-1)^i f(..,h_i h_{i+1},..)
    + (-1)^{p+1} f(h_1,..,h_p).  One extra degree beyond ``max_degree`` is
    stored so cohomology at ``max_degree`` is computed against the true
    outgoing differential.
    """
    if action.group is not group and action.group != group:
        raise ValidationError("action does not belong to the given group")
    m = group.order
    module = action.module
    ng = module.ngens
    top = max_degree + 1
    if m ** top * max(ng, 1) > budget:
        raise BudgetExceededError(
            f"bar complex needs {m ** top * max(ng, 1)} generators at degree "
            f"{top}, budget is {budget}")

    cells = tuple(tuple(itertools.product(range(m), repeat=p))
                  for p in range(top + 1))
    groups = tuple(power_group(module, len(c)) for c in cells)
    index = [{cell: i for i, cell in enumerate(level)} for level in cells]
    table = group.table

    diffs = []
    for p in range(top):
        src, tgt = cells[p], cells[p + 1]
        k0, k1 = len(src), len(tgt)
        rows = [[0] * (ng * k0) for _ in range(ng * k1)]
        for ti, w in enumerate(tgt):
            rho = action.matrix_of(w[0])
            si = index[p][w[1:]]
            for gt in range(ng):
                row = rows[gt * k1 + ti]
                for gs in range(ng):
                    row[gs * k0 + si] += rho[gt][gs]
            for i in range(1, p + 1):
                merged = w[:i - 1] + (table[w[i - 1]][w[i]],) + w[i + 1:]
                si = index[p][merged]
                sign = -1 if i % 2 else 1
                for g in range(ng):
                    rows[g * k1 + ti][g * k0 + si] += sign
            si = index[p][w[:p]]
            sign = -1 if (p + 1) % 2 else 1
            for g in range(ng):
                rows[g * k1 + ti][g * k0 + si] += sign
        diffs.append(Homomorphism(groups[p], groups[p + 1],
                                  tuple(tuple(r) for r in rows)))
    return CochainComplex(groups, tuple(diffs), module, cells, None)


def cellwise(cols: Sequence[Sequence[int]], k: int) -> list[list[int]]:
    """Each coefficient vector of ``cols`` on each of k cells, in generator-
    major coordinates of L^k: entry j*k + s is cols[j] on cell s."""
    return [[col[i // k] if i % k == s else 0 for i in range(len(col) * k)]
            for col in cols for s in range(k)]


def cech_induced(x: SimplicialComplex, h: Homomorphism, p: int) -> Homomorphism:
    """The dense cochain-level map I_k (x) h: C^p(X, source) -> C^p(X, target)
    of a coefficient homomorphism h, its columns placed on each cell."""
    src, tgt = cech_complex(x, h.source).group(p), cech_complex(x, h.target).group(p)
    cols = cellwise(h.columns(), len(x.cells(p)))
    return Homomorphism(src, tgt, _intlin.columns_to_matrix(cols, tgt.ngens))


def apply_cellwise(matrix: Sequence[Sequence[int]], coords: Sequence[int],
                   ngens: int, k: int) -> list[int]:
    """A coefficient matrix applied to the value on each of k cells: in
    generator-major coordinates, block i of the result is sum_j
    matrix[i][j] times block j of ``coords`` (``ngens`` blocks)."""
    blocks = [coords[j * k:(j + 1) * k] for j in range(ngens)]
    return [v for row in matrix for v in _intlin.lin_comb(blocks, row, k)]


def map_coefficients(x: SimplicialComplex, h: Homomorphism, c: Cochain) -> Cochain:
    """Push a cochain through a coefficient homomorphism, cell by cell."""
    image = apply_cellwise(h.matrix, c.coords, h.source.ngens, len(x.cells(c.degree)))
    return Cochain(cech_complex(x, h.target), c.degree, tuple(image))
