"""Finite simplicial sites, nerves of finite groups, and their cochain
complexes.

A site is the nerve of a covering family: vertices are cover indices and a
p-simplex records a nonempty (p+1)-fold intersection.  Its facets, the
maximal intersections, determine it, and ``SimplicialComplex(vertex_count,
facets)`` is the one way to build one.  Cochains live on strictly
increasing vertex tuples with the alternating-sign coboundary; coefficients
are constant (one finitely generated abelian group).  The bar complex of a
finite group is the cochain complex of the group's nerve, whose face 0 an
action may twist.

Coordinate layout of a cochain group C^p = L^k (k cells in degree p):
generator-major, i.e. coordinate g*k + s holds the g-th L-coordinate of
the value on cell number s.  This keeps C^p in invariant-factor form with
no reshuffling, because repeating each invariant factor k times preserves
the divisor chain.

The base's face table is the only coboundary data: (df)(tau) = sum of
v f(s) over the signed face row (s, v) of tau, applied to the block of each
coefficient generator by ``cech_coboundary``.  No complex stores or builds
a coboundary matrix; ``coboundary`` is the one implementation of d.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache
from math import gcd

from cechtower import _intlin
from cechtower._record import Record
from cechtower.abelian import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    _summed_presentation,
    presentation_group,
    trivial_group,
)
from cechtower.errors import BudgetExceededError, ValidationError, VerificationError

# Cap on the cells of a site, on the words of a group nerve in its top
# degree and on the generators of each cochain group (g*k_p), checked
# before any of them is enumerated.
GENERATOR_BUDGET = 1 << 16
# Cap on the entries of one dense matrix, checked where it is built: the
# Morse coboundaries and their SNF transforms, the reduction maps, the
# representatives and lift columns of a degree's s cyclic summands (s x
# g*k_p, which bounds the s x s SNF that sums them), and the kernel SNF and
# the coboundary generators (g*k_{p+1} x g*k_p) of a twisted bar complex.
COBOUNDARY_ENTRY_BUDGET = 1 << 22

# Cap on the degrees of one cohomology or long exact sequence request: a
# degree past the dimension still costs about 0.4 ms and 10 kB of memo.
DEGREE_BUDGET = 1 << 12

class _FaceTable(Record):
    """Cells by degree, their positions and their face table, read the same
    way on a site and on the nerve of a group.  Degrees outside 0..dim have
    no cells.  Hashed once, on construction: every memo lookup on a site or
    nerve hashes it."""

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        return len(self._cells) - 1

    def cells(self, p: int) -> tuple[tuple[int, ...], ...]:
        return self._cells[p] if 0 <= p <= self.dim else ()

    def cell_indices(self, p: int) -> Mapping[tuple[int, ...], int]:
        """Cell -> position among the degree-p cells (empty outside 0..dim)."""
        return self._index[p] if 0 <= p <= self.dim else {}

    def faces(self, p: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per degree-p cell, its signed face row: (position among the
        (p-1)-cells, nonzero incidence) pairs at distinct positions."""
        return self._faces[p] if 0 <= p <= self.dim else ()


class SimplicialComplex(_FaceTable):
    """The downward closure of ``facets`` on the vertices
    0..vertex_count-1, each of which is a 0-simplex whether or not a facet
    mentions it.  Cells are strictly increasing tuples, grouped by dimension
    in ``simplices``; entry j of a face row is (the face without vertex j,
    (-1)^j).

    The facets are checked all at once; only when that fails are they
    walked one by one, to name the first bad facet and, in it, the first bad
    vertex.  The cell budget is checked before any face is listed.  Each
    level of the closure is the sorted set of the facets' vertex
    combinations of one size, so it is sorted, free of repeats and downward
    closed as built, and every face is found with one dictionary lookup.

    A site is its facets: the ``facets`` field holds the maximal simplices,
    ordered by dimension then lexicographically, so facet lists with the
    same closure give equal sites with equal hashes."""

    _fields = ("vertex_count", "facets")

    def __init__(self, vertex_count: int, facets: Iterable[Sequence[int]]):
        facets = list(map(tuple, facets))
        sizes = list(map(len, facets))
        vertices = list(itertools.chain.from_iterable(facets))
        if not (all(sizes) and list(map(len, map(set, facets))) == sizes
                and (not vertices or (min(vertices) >= 0 and max(vertices) < vertex_count))):
            for fi, f in enumerate(facets):
                if len(f) == 0:
                    raise ValidationError(f"facet {fi} is empty")
                for v in f:
                    if not 0 <= v < vertex_count:
                        raise ValidationError(f"facet {fi}: vertex {v} out of range")
                if len(set(f)) != len(f):
                    counts = Counter(f)
                    dup = next(v for v in f if counts[v] > 1)
                    raise ValidationError(f"facet {fi}: repeated vertex {dup}")
        if vertex_count <= 0:
            raise ValidationError("vertex_count must be positive")
        cells = vertex_count + sum((1 << n) - 1 for n in sizes)
        if cells > GENERATOR_BUDGET:
            raise BudgetExceededError(
                f"complex may have up to {cells} cells, budget is {GENERATOR_BUDGET}")
        facets = list(map(tuple, map(sorted, facets)))
        simplices = [tuple(zip(range(vertex_count)))]
        for size in range(2, max(sizes, default=1) + 1):
            combos = itertools.chain.from_iterable(
                map(itertools.combinations, facets, itertools.repeat(size)))
            simplices.append(tuple(sorted(set(combos))))
        index = tuple(dict(zip(level, range(len(level)))) for level in simplices)
        faces, maximal = [((),) * vertex_count], []
        for p in range(1, len(simplices)):
            # Column j of ``found``: the position of face j of each p-cell;
            # the (p-1)-cells at no position are maximal.
            cols, find = list(zip(*simplices[p])), index[p - 1].__getitem__
            found = [list(map(find, zip(*cols[:j], *cols[j + 1:]))) for j in range(p + 1)]
            below, covered = simplices[p - 1], set().union(*found)
            maximal += map(below.__getitem__,
                           itertools.filterfalse(covered.__contains__, range(len(below))))
            faces.append(tuple(zip(*(zip(col, itertools.repeat(-1 if j & 1 else 1))
                                     for j, col in enumerate(found)))))
        maximal = (*maximal, *simplices[-1])
        object.__setattr__(self, "simplices", tuple(simplices))
        object.__setattr__(self, "_cells", self.simplices)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_faces", tuple(faces))
        object.__setattr__(self, "_hash", hash((vertex_count, maximal)))
        Record.__init__(self, vertex_count, maximal)

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * len(level) for p, level in enumerate(self.simplices))


class GroupNerve(_FaceTable):
    """The normalized nerve of a finite group H up to degree ``top``, the
    base of its bar complex (Brown, Cohomology of Groups, I.5).

    The p-cells are the (|H|-1)^p words w in H^p with no identity letter,
    in lexicographic order.  Face 0 of w drops w[0], face j (0 < j < p)
    multiplies w[j-1]·w[j] (none if that is the identity) and face p drops
    w[p-1], with incidence (-1)^j; coinciding faces are summed.  A
    negative ``top``, degrees 0..top past ``DEGREE_BUDGET``, and more than
    ``GENERATOR_BUDGET`` words in the top degree are refused before any
    word is listed."""

    _fields = ("group", "top")

    # group is a liftgerbe.FiniteGroup (duck-typed to avoid an import cycle)
    def __init__(self, group: object, top: int):
        check_degree_bound(top)
        table, e = group.table, group.identity
        letters = [h for h in range(group.order) if h != e]
        if len(letters) ** top > GENERATOR_BUDGET:
            raise BudgetExceededError(
                f"the nerve of a group of order {group.order} has "
                f"{len(letters) ** top} words in degree {top}, budget is {GENERATOR_BUDGET}")
        cells = tuple(tuple(itertools.product(letters, repeat=p))
                      for p in range(top + 1))
        index = tuple({w: i for i, w in enumerate(level)} for level in cells)
        faces = [((),)]
        for p in range(1, len(cells)):
            below, rows = index[p - 1], []
            for w in cells[p]:
                row = {below[w[1:]]: 1}
                for j in range(1, p):
                    h = table[w[j - 1]][w[j]]
                    if h != e:
                        f = below[w[:j - 1] + (h,) + w[j + 1:]]
                        row[f] = row.get(f, 0) + (-1 if j & 1 else 1)
                f = below[w[:-1]]
                row[f] = row.get(f, 0) + (-1 if p & 1 else 1)
                rows.append(tuple((f, v) for f, v in row.items() if v))
            faces.append(tuple(rows))
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_faces", tuple(faces))
        object.__setattr__(self, "_hash", hash((group, top)))
        Record.__init__(self, group, top)


def suspension(x: SimplicialComplex) -> SimplicialComplex:
    """Join with two new apex vertices (placed after the existing ones)."""
    a = x.vertex_count
    b = x.vertex_count + 1
    new_facets = []
    for f in x.facets:
        new_facets.append(f + (a,))
        new_facets.append(f + (b,))
    return SimplicialComplex(x.vertex_count + 2, new_facets)


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


class CochainComplex(Record):
    """The cochains of a face table with coefficients in one finitely
    generated abelian group L: C^p = L^k, k the p-cells of ``base``, which is
    a site (the Cech complex) or the nerve of a finite group (the bar
    complex).  Degrees outside 0..dim are zero groups.

    No complex stores a coboundary matrix: ``coboundary`` applies the
    base's face table to the block of each coefficient generator, and d∘d =
    0 holds by the simplicial identities.  ``action`` is None or a
    ``GroupAction`` of the nerve's group on L, anything else is refused;
    face 0 of a word w then carries rho(w[0]) = ``action.action[w[0]]``
    instead of the identity, which ``coboundary`` adds on top of the face
    table.  A cochain group of more than ``GENERATOR_BUDGET`` generators
    (g*k_p) is refused before any group is built.

    A complex is a value: it compares and hashes by (base, coefficients,
    action), which determine everything else it holds, so complexes built
    from equal inputs share cochains, memo entries and class coordinates.
    """

    _fields = ("base", "coefficients", "action")

    def __init__(self, base: _FaceTable, coefficients: FgAbGroup,
                 action: GroupAction | None = None):
        if action is not None and not (
                isinstance(action, GroupAction) and isinstance(base, GroupNerve)
                and action.group == base.group and action.module == coefficients):
            raise ValidationError(
                "an action must be a GroupAction of the nerve's group on the coefficients")
        sizes = [len(base.cells(p)) for p in range(base.dim + 1)]
        for p, k in enumerate(sizes):
            n = coefficients.ngens * k
            if n > GENERATOR_BUDGET:
                raise BudgetExceededError(
                    f"cochain group {p} would have {n} generators, budget is "
                    f"{GENERATOR_BUDGET}")
        object.__setattr__(self, "_groups", tuple(power_group(coefficients, k) for k in sizes))
        object.__setattr__(self, "_hash", hash((base, coefficients, action)))
        Record.__init__(self, base, coefficients, action)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, CochainComplex) and self._hash == other._hash
            and (self.base, self.coefficients, self.action)
            == (other.base, other.coefficients, other.action))

    def __hash__(self) -> int:
        return self._hash

    def group(self, p: int) -> FgAbGroup:
        return self._groups[p] if 0 <= p < len(self._groups) else trivial_group()

    def ncells(self, p: int) -> int:
        return len(self.base.cells(p))

    def cell_position(self, p: int, cell: tuple) -> int:
        """Position of ``cell`` among the degree-p cells, by the base's index."""
        try:
            return self.base.cell_indices(p)[cell]
        except KeyError:
            raise ValidationError(f"{cell} is not a cell of degree {p}") from None


class Cochain(Record):
    """A cochain of a complex in one degree; compares by value, unhashable."""

    _fields = ("complex", "degree", "coords")

    def __init__(self, complex: CochainComplex, degree: int, coords: tuple[int, ...]):
        Record.__init__(self, complex, degree, complex.group(degree).normalize(coords))

    @property
    def group(self) -> FgAbGroup:
        return self.complex.group(self.degree)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

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
        k = self.complex.ncells(self.degree)
        s = self.complex.cell_position(self.degree, tuple(cell))
        return GroupElement(self.complex.coefficients, self.coords[s::k])


def zero_cochain(complex_: CochainComplex, degree: int) -> Cochain:
    return Cochain(complex_, degree, (0,) * complex_.group(degree).ngens)


def cochain_from_values(complex_: CochainComplex, degree: int,
                        values: Mapping[tuple[int, ...], Sequence[int]]) -> Cochain:
    """Assemble a cochain from per-cell coefficient coordinates."""
    coeff = complex_.coefficients
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

    The complex keeps only its groups; its coboundary is the site's face
    table (``cech_coboundary``).  It equals every other one built from an
    equal (site, coefficients) pair, so the bounded memo only saves
    rebuilding it: a cochain of an evicted instance still belongs to the
    rebuilt one.
    """
    return CochainComplex(x, coefficients)


def check_dense_budget(what: str, rows: int, cols: int) -> None:
    """Refuse a dense rows x cols matrix of more than
    ``COBOUNDARY_ENTRY_BUDGET`` entries, before it is built."""
    if rows * cols > COBOUNDARY_ENTRY_BUDGET:
        raise BudgetExceededError(
            f"{what} would need a {rows} x {cols} matrix, budget is "
            f"{COBOUNDARY_ENTRY_BUDGET} entries")


def _check_coboundary_budget(critical: Sequence[int]) -> None:
    """Refuse a reduced complex with m_p critical cells in degree p
    (``critical``, from degree 0 to the top) whose dense Morse coboundaries
    (m_{p+1} x m_p) would pass the budget."""
    for p, (m, above) in enumerate(itertools.pairwise([*critical, 0])):
        check_dense_budget(f"reduced coboundary {p}", above, m)


def cech_coboundary(x: SimplicialComplex, p: int, coords: Sequence[int],
                    ngens: int) -> list[int]:
    """delta_p of a vector of C^p(X; L), L with ``ngens`` generators: the
    face table applied to the block of each coefficient generator
    (generator-major coordinates).  Entries are not reduced."""
    k = len(x.cells(p))
    rows = x.faces(p + 1)
    out = []
    for g in range(ngens):
        block = coords[g * k:(g + 1) * k]
        for faces in rows:
            acc = 0
            for f, v in faces:
                acc += block[f] * v
            out.append(acc)
    return out


def coboundary(c: Cochain) -> Cochain:
    """Apply d, the one implementation for every complex: the base's face
    table on each coefficient block, and under an action rho(w[0]) - I at
    the word w[1:] for each (p+1)-word w.  Degrees past the top land in the
    zero group."""
    comp, p, coords = c.complex, c.degree, c.coords
    image = cech_coboundary(comp.base, p, coords, comp.coefficients.ngens)
    if comp.action is not None and p >= 0:
        k, k1, below = comp.ncells(p), comp.ncells(p + 1), comp.base.cell_indices(p)
        rho = comp.action.action
        for t, w in enumerate(comp.base.cells(p + 1)):
            value = coords[below[w[1:]]::k]
            if any(value):
                for i, row in enumerate(rho[w[0]]):
                    image[i * k1 + t] += sum(a * b for a, b in zip(row, value)) - value[i]
    return Cochain(comp, p + 1, tuple(image))


def _violated_cell(c: Cochain, image_coords: Sequence[int]):
    cells = c.complex.base.cells(c.degree + 1)
    return next((cells[i % len(cells)] for i, v in enumerate(image_coords) if v), None)


class Cohomology(Record):
    """H^p with chosen representatives and the fixed projection.

    The projection is deterministic for the complex it was computed on,
    that is for its (base, coefficients, action), so coordinates are
    comparable across equal complexes.
    """

    _fields = ("degree", "group", "representatives", "_presentation")
    _hidden = ("_presentation",)

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

    An untwisted complex (a Cech complex, or a bar complex under a trivial
    action) is computed from its base's integral data, one cyclic factor of
    the coefficients at a time (``_site_presentation``); a twisted bar
    complex presents ker/im of its coboundary as one lattice quotient
    (``_lattice_presentation``).  Memoized on (complex, p), by value.
    """
    if complex_.action is None:
        pres = _site_presentation(complex_, p)
    else:
        pres = _lattice_presentation(complex_, p)
    group = presentation_group(pres)
    reps = tuple(Cochain(complex_, p, tuple(col)) for col in pres.lift_cols)
    return Cohomology(p, group, reps, pres)


def _lattice_presentation(complex_: CochainComplex, p: int) -> _intlin.Presentation:
    """ker d_p / (im d_{p-1} + relations) as one lattice quotient: the path
    for twisted complexes, and the reference for the tests.  Its generators
    are the columns of d_p and d_{p-1}, the ``coboundary`` images of the
    unit cochains of degrees p and p-1: the only dense build left in the
    package.  The kernel SNF transform and both sets of columns are checked
    against the budget before any image is taken."""
    amb, tgt = complex_.group(p), complex_.group(p + 1)
    rel = _intlin.relation_columns(tgt.orders)
    size = amb.ngens + len(rel)
    check_dense_budget(f"the kernel SNF transform of differential {p}", size, size)
    check_dense_budget(f"coboundary {p}", tgt.ngens, amb.ngens)
    check_dense_budget(f"coboundary {p - 1}", amb.ngens, complex_.group(p - 1).ngens)
    ker_gens = _intlin.lattice_preimage_gens(_unit_images(complex_, p), tgt.ngens, rel)
    img_gens = _unit_images(complex_, p - 1) + _intlin.relation_columns(amb.orders)
    return _intlin.present_quotient(_intlin.Lattice(amb.ngens, ker_gens), img_gens)


def _unit_images(complex_: CochainComplex, p: int) -> list[list[int]]:
    """The columns of d_p: the coboundaries of the unit cochains of degree p."""
    n = complex_.group(p).ngens
    return [list(coboundary(Cochain(complex_, p, (0,) * j + (1,) + (0,) * (n - j - 1))).coords)
            for j in range(n)]


class _Reduction:
    """A coreduction of the integral cochain complex of a site or nerve and
    its Morse complex (Mrozek & Batko, "Coreduction homology algorithm",
    DCG 2009; Harker, Mischaikow, Mrozek & Nanda, FoCM 2014).

    A p-cell s is matched with a (p+1)-cell t when s is the only face of t
    left and their incidence [t : s] in the face row of t is +-1.  The cells
    left over are critical.  The matching is acyclic, so the path sums of
    its gradient graph give the Morse coboundaries dM_p between critical
    cells and two integral cochain maps R: C^p -> M^p and E: M^p -> C^p
    with R E = id, R d = dM R and d E = E dM, which induce inverse
    isomorphisms on cohomology, with any coefficients.

    Per degree p in 0..dim: ``critical(p)`` lists the positions of the
    critical p-cells, ``pairs(p)`` counts the pairs matched between degrees
    p and p+1, ``morse(p)`` is dM_p as dense rows (critical (p+1)-cells x
    critical p-cells), and ``restrict(p)`` and ``extend(p)`` give, per
    p-cell x, column x of R_p and row x of E_p as {critical index: entry}.

    The matching, the count updates it queues and each path sum run inline,
    with no call per cell; the order of the matching, on which the Morse
    complex and so the class coordinates depend, is that of
    ``tests/oracles.ReferenceReduction``, which calls a helper for each.
    """

    def __init__(self, x: _FaceTable):
        dim = x.dim
        counts = [len(x.cells(p)) for p in range(dim + 1)]
        # faces[p][t]: the face row of the p-cell t;
        # cofaces[p][s]: (t, [t : s]) over the (p+1)-cells t, t ascending.
        faces = [x.faces(p) for p in range(dim + 1)]
        cofaces = [[[] for _ in range(k)] for k in counts]
        for p in range(1, dim + 1):
            below = cofaces[p - 1]
            for t, row in enumerate(faces[p]):
                for f, v in row:
                    below[f].append((t, v))

        # Coreduction: a cell whose faces are all gone but one, s, with a
        # unit incidence is matched with s.  When none is left, the first
        # remaining cell of lowest degree, which has no face left, becomes
        # critical.  Each removal lowers the face count of the cofaces of
        # the removed cells, in the order they were removed, and queues a
        # coface left with one face.  ``pairs`` lists (p, s, t, [t : s]) in
        # the order of removal.
        left = [list(map(len, level)) for level in faces]
        gone = [bytearray(k) for k in counts]
        queue = deque((p, t) for p in range(1, dim + 1)
                      for t, n in enumerate(left[p]) if n == 1)
        pairs = []
        npairs = [0] * (dim + 1)
        critical = [[] for _ in counts]
        removed = []
        scan = pos = 0  # every cell before (scan, pos) is gone
        while True:
            for q, c in removed:
                if q < dim:
                    above = left[q + 1]
                    for u, _ in cofaces[q][c]:
                        above[u] -= 1
                        if above[u] == 1:
                            queue.append((q + 1, u))
            removed.clear()
            if queue:
                p, t = queue.popleft()
                if gone[p][t] or left[p][t] != 1:
                    continue
                lower = gone[p - 1]
                for s, v in faces[p][t]:
                    if not lower[s]:
                        break
                if v == 1 or v == -1:
                    lower[s] = gone[p][t] = 1
                    pairs.append((p - 1, s, t, v))
                    npairs[p - 1] += 1
                    removed += (p - 1, s), (p, t)
                continue
            while scan <= dim:
                pos = gone[scan].find(0, pos)
                if pos >= 0:
                    break
                scan, pos = scan + 1, 0
            else:
                break
            gone[scan][pos] = 1
            critical[scan].append(pos)
            removed.append((scan, pos))
        _check_coboundary_budget([len(c) for c in critical])

        # Path sums.  Column x of R is x for a critical x, 0 for a cell
        # matched upward, and for t matched down with s: -[t:s] times the
        # sum of [t':s] R(t') over the other cofaces t' of s, all removed
        # after t.  Row x of E is x for a critical x, 0 for a cell matched
        # down, and for s matched up with t: -[t:s] times the sum of
        # [t:s'] E(s') over the other faces s' of t, all removed before s.
        # Each sum is sparse, {critical index: entry} with no zero entry,
        # and skips the neighbours with an empty sum; the cells whose sum is
        # empty, among them all cells matched the other way, share one
        # empty dict.
        restrict = [[{}] * k for k in counts]
        extend = [[{}] * k for k in counts]
        for p, crit in enumerate(critical):
            for i, s in enumerate(crit):
                restrict[p][s] = extend[p][s] = {i: 1}
        for p, s, t, v in pairs:
            sums, acc = extend[p], {}
            for n, w in faces[p + 1][t]:
                b = sums[n]
                if b and n != s:
                    w *= -v
                    for i, a in b.items():
                        acc[i] = acc.get(i, 0) + w * a
            if acc:
                sums[s] = {i: a for i, a in acc.items() if a} if 0 in acc.values() else acc
        for p, s, t, v in reversed(pairs):
            sums, acc = restrict[p + 1], {}
            for n, w in cofaces[p][s]:
                b = sums[n]
                if b and n != t:
                    w *= -v
                    for i, a in b.items():
                        acc[i] = acc.get(i, 0) + w * a
            if acc:
                sums[t] = {i: a for i, a in acc.items() if a} if 0 in acc.values() else acc
        morse = []
        for p, crit in enumerate(critical):
            rows = [[0] * len(crit) for _ in critical[p + 1]] if p < dim else []
            for i, s in enumerate(crit):
                for t, w in cofaces[p][s]:
                    for j, a in restrict[p + 1][t].items():
                        rows[j][i] += w * a
            morse.append(rows)
        self._critical = tuple(tuple(c) for c in critical)
        self._pairs = tuple(npairs)
        self._morse = tuple(morse)
        self._restrict = tuple(restrict)
        self._extend = tuple(extend)

    def critical(self, p: int) -> tuple[int, ...]:
        return self._critical[p] if 0 <= p < len(self._critical) else ()

    def pairs(self, p: int) -> int:
        return self._pairs[p] if 0 <= p < len(self._pairs) else 0

    def morse(self, p: int) -> list:
        if 0 <= p < len(self._morse):
            return self._morse[p]
        return [[] for _ in self.critical(p + 1)]

    def restrict(self, p: int) -> list:
        return self._restrict[p] if 0 <= p < len(self._restrict) else []

    def extend(self, p: int) -> list:
        return self._extend[p] if 0 <= p < len(self._extend) else []


@lru_cache(maxsize=256)
def _reduction(x: _FaceTable) -> _Reduction:
    """The coreduction of a site or nerve, memoized on x.  Its dense Morse
    coboundaries are checked against the budget once the critical cells
    are counted, before any is built."""
    return _Reduction(x)


class _IntegralDegree(Record):
    """The SNF U' dM_p V' = D' of the Morse coboundary, pulled back to C^p:
    the nonzero diagonal a_i of D', the columns of E V' and the rows of
    V'^-1 R.  In the coordinates y = V'^-1 R c, a cocycle c has
    y[:rank] = 0, and ``pres`` presents H^p(X; Z) on y[rank:] (lift columns
    and ``project`` live there, not in C^p)."""

    _fields = ("diag", "v_cols", "vinv_rows", "pres")


def coboundary_diagonal(x: _FaceTable, p: int) -> tuple[int, ...]:
    """The nonzero SNF diagonal of the integral d_p: a 1 per pair matched
    between degrees p and p+1, then the nonzero diagonal of D'.  Each pair
    splits a unit off d_p, so this is the invariant-factor chain of d_p.
    Empty outside degrees 0..dim."""
    if not 0 <= p <= x.dim:
        return ()
    return (1,) * _reduction(x).pairs(p) + _integral_degree(x, p).diag


def _through(maps: Sequence[Mapping[int, int]], vectors: Sequence[Sequence[int]],
             k: int) -> list[list[int]]:
    """For each vector v over the critical cells, the k entries
    sum_c maps[x][c] * v[c], one per cell x: a row of V'^-1 R from a row
    of V'^-1, or a column of E V' from a column of V'."""
    by_index = [[(i, v[c]) for i, v in enumerate(vectors) if v[c]]
                for c in range(len(vectors))]
    out = [[0] * k for _ in vectors]
    # Only the cells with a nonzero row, picked out without a step per cell.
    for x, row in zip(itertools.compress(itertools.count(), maps), filter(None, maps)):
        for c, a in row.items():
            for i, b in by_index[c]:
                out[i][x] += a * b
    return out


@lru_cache(maxsize=256)
def _integral_degree(x: _FaceTable, p: int) -> _IntegralDegree:
    """Degree-p integral data of a site or nerve, memoized on (x, p): one
    SNF of the Morse coboundary dM_p.  im dM_{p-1} in V'-coordinates is
    V'^-1 dM_{p-1}; its rows below the rank vanish, and the columns of the
    others present H^p(X; Z)."""
    red = _reduction(x)
    m, k = len(red.critical(p)), len(x.cells(p))
    check_dense_budget(f"the SNF transforms of reduced coboundary {p}", m, m)
    check_dense_budget(f"the reduction maps of degree {p}", m, k)
    res = _intlin.snf(red.morse(p), len(red.critical(p + 1)), m, _intlin.LATTICE)
    image_rows = _intlin.mat_mul(res.Vinv[res.rank:], red.morse(p - 1))
    pres = _intlin.present_cokernel(m - res.rank, [list(col) for col in zip(*image_rows)])
    return _IntegralDegree(res.diag[:res.rank], _through(red.extend(p), res.V_cols, k),
                           _through(red.restrict(p), res.Vinv, k), pres)


def _cyclic_factor(h: _IntegralDegree, m: int, k: int):
    """H^p(X; Z/m) (m == 0: Z) as cyclic summands, by universal coefficients.

    Returns (orders, reps, coords): ``reps()`` builds the representatives
    in Z^k, so a caller can size them from ``orders`` first, and ``coords``
    maps a cocycle of the factor to its coordinates in the summands, read
    off y = V'^-1 R c.  The summands are H^p(Z) (x) Z/m, the integral
    representatives of order gcd(t_j, m), projected from y[rank:]; then
    Tor(H^{p+1}(Z), Z/m), the cochains (m/g_i) E V' e_i of order
    g_i = gcd(a_i, m) (none for m == 0), read from y_i.  Summands of order
    1 are left out.  A cocycle mod m has m | a_i y_i, since R commutes
    with the coboundaries.
    """
    pres, rank = h.pres, len(h.diag)
    h_orders = pres.torsion + (0,) * pres.free_rank
    tensor = [(j, gcd(t, m)) for j, t in enumerate(h_orders) if gcd(t, m) != 1]
    steps = [m // gcd(a, m) for a in h.diag]  # m / g_i
    tor = [i for i, step in enumerate(steps) if step < m]
    orders = [o for _, o in tensor] + [m // steps[i] for i in tor]

    def reps() -> list[list[int]]:
        return ([_intlin.lin_comb(h.v_cols[rank:], pres.lift_cols[j], k) for j, _ in tensor]
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
    """H^p(X; L) from the base's integral data, L = sum of cyclic factors.

    Each generator-major block of C^p(X; L) is C^p(X; Z/o) for one
    coefficient order o (o = 0: Z).  The factors' cyclic summands are
    brought into invariant-factor form by one small ``present_cokernel``,
    memoized on their orders (``abelian._summed_presentation``).  The s summands
    are counted before any representative is built, and s x n
    (representatives and lift columns in C^p, n = g*k_p) is refused past
    the budget; s <= n, so that also bounds the s x s summing SNF.
    """
    h = _integral_degree(complex_.base, p)
    k = complex_.ncells(p)
    n = complex_.coefficients.ngens * k
    factors = [_cyclic_factor(h, o, k) for o in complex_.coefficients.orders]
    orders = [o for f_orders, _, _ in factors for o in f_orders]
    check_dense_budget(f"{len(orders)} cyclic summands of degree {p}", len(orders), n)
    reps = [[0] * (b * k) + list(r) + [0] * (n - (b + 1) * k)
            for b, (_, f_reps, _) in enumerate(factors) for r in f_reps()]
    coord_fns = [f_coords for _, _, f_coords in factors]
    summed = _summed_presentation(tuple(orders))

    def project(v: Sequence[int]) -> list[int]:
        coords = []
        for b, f in enumerate(coord_fns):
            coords += f(v[b * k:(b + 1) * k])
        return summed.project(coords)

    return _intlin.Presentation(
        n, summed.torsion, summed.free_rank,
        [_intlin.lin_comb(reps, col, n) for col in summed.lift_cols], project)


class CohomologyClass(Record):
    """Class equality is coordinate equality under the fixed projection:
    the representative is neither compared nor hashed."""

    _fields = ("degree", "group", "coords", "representative")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return ((self.degree, self.group, self.coords)
                    == (other.degree, other.group, other.coords))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.degree, self.group, self.coords))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def class_of(complex_: CochainComplex, c: Cochain) -> CohomologyClass:
    if c.complex != complex_:
        raise ValidationError("cochain does not belong to this complex")
    h = cohomology(complex_, c.degree)
    coords = h.coords_of(c)
    return CohomologyClass(c.degree, h.group, coords, c)


class GroupAction(Record):
    """A finite group acting on a module by validated automorphisms.

    ``action[i]`` is the automorphism matrix attached to element i of the
    acting group.  Each matrix is checked once, as the ``Homomorphism`` it
    builds, then the law rho(a) rho(b) == rho(ab) on the Cayley table and
    rho(e) == I: these make rho(a^-1) the inverse of rho(a), and an action
    by automorphisms meets them (rho(e) is then an invertible idempotent).
    A twisted ``CochainComplex`` holds the action it was checked as.
    """

    _fields = ("group", "module", "action")

    # group is a liftgerbe.FiniteGroup (duck-typed to avoid an import cycle)
    def __init__(self, group: object, module: FgAbGroup,
                 action: tuple[tuple[tuple[int, ...], ...], ...]):
        m = group.order
        if len(action) != m:
            raise ValidationError("need exactly one matrix per group element")
        mats, ident = [], tuple(map(tuple, _intlin.identity_matrix(module.ngens)))
        for i, mat in enumerate(action):
            try:
                mats.append(Homomorphism(module, module, mat).matrix)
            except ValidationError as err:
                raise ValidationError(f"action of element {i}: {err}") from None
        table = group.table
        for a in range(m):
            for b in range(m):
                if module.reduce_rows(_intlin.mat_mul(mats[a], mats[b])) != mats[table[a][b]]:
                    raise ValidationError(
                        f"action is not a homomorphism at the pair ({a}, {b})")
        if mats[group.identity] != ident:
            raise ValidationError(
                f"the identity element {group.identity} does not act as the identity")
        Record.__init__(self, group, module, tuple(mats))


def trivial_action(group, module: FgAbGroup) -> GroupAction:
    ident = tuple(map(tuple, _intlin.identity_matrix(module.ngens)))
    return GroupAction(group, module, (ident,) * group.order)


def bar_complex(action: GroupAction, max_degree: int) -> CochainComplex:
    """Normalized inhomogeneous bar complex of ``action.group`` on ``action.module``.

    C^p, the maps H^p -> M vanishing on words with an identity letter, is
    the cochain complex of the normalized nerve of H (``GroupNerve``), with
    the action twisting face 0:
    (df)(h_1,..,h_{p+1}) = h_1·f(h_2,..) + sum_i (-1)^i f(..,h_i h_{i+1},..)
    + (-1)^{p+1} f(h_1,..,h_p); its inclusion in the unnormalized complex is
    a chain homotopy equivalence (Mac Lane, Homology, IV.5).  The nerve runs
    one degree beyond ``max_degree`` so that cohomology at ``max_degree`` is
    computed against the true outgoing differential.  An action whose every
    matrix is the identity is not stored, so the complex takes the
    face-table path of a Cech complex; any other is its ``action``.  The
    words of the top degree, and then the generators of each cochain group,
    are checked against their budgets.
    """
    ident = tuple(map(tuple, _intlin.identity_matrix(action.module.ngens)))
    twist = None if all(rho == ident for rho in action.action) else action
    return CochainComplex(GroupNerve(action.group, max_degree + 1), action.module, twist)


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
