"""Finite groups by Cayley table, central extensions, and the obstruction
to lifting transition data through them.

A transition cocycle assigns quotient-group elements to the edges of a
site, multiplicatively compatible on triangles.  Lifting it edge by edge
through a central extension and measuring the failure on each triangle
yields a 2-cochain with values in the (abelian) kernel; centrality makes
it a Cech 2-cocycle, and its class is the obstruction to finding a lift
that is itself a transition cocycle.  ``brute_force_lift`` is the
independent oracle for that claim: it searches every kernel twist of the
canonical lift.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence

from cechtower._record import Record
from cechtower.abelian import FgAbGroup, GroupElement
from cechtower.cochain import (
    Cochain,
    CohomologyClass,
    SimplicialComplex,
    cech_complex,
    class_of,
    coboundary,
    cochain_from_values,
)
from cechtower.errors import BudgetExceededError, ValidationError, VerificationError

ASSOCIATIVITY_BUDGET = 1 << 21  # caps order**3 in the table check
LIFT_SEARCH_BUDGET = 1 << 20


class FiniteGroup(Record):
    """Multiplication table over element indices 0..order-1.

    All group laws are checked exhaustively at construction; the
    associativity scan is cubic in the order and budget-guarded.
    """

    _fields = ("order", "table", "identity")

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...], identity: int):
        m = order
        if m <= 0:
            raise ValidationError("group order must be positive")
        if m ** 3 > ASSOCIATIVITY_BUDGET:
            raise BudgetExceededError(
                f"refusing to check associativity for order {m} "
                f"({m ** 3} triples)")
        if len(table) != m or any(len(r) != m for r in table):
            raise ValidationError("multiplication table must be order x order")
        for i, row in enumerate(table):
            for j, v in enumerate(row):
                if not 0 <= v < m:
                    raise ValidationError(f"table entry ({i},{j}) out of range")
        if not 0 <= identity < m:
            raise ValidationError("identity index out of range")
        e = identity
        for g in range(m):
            if table[e][g] != g or table[g][e] != g:
                raise ValidationError(f"identity law fails at element {g}")
        inverse = [None] * m
        for g in range(m):
            for h in range(m):
                if table[g][h] == e and table[h][g] == e:
                    inverse[g] = h
                    break
            if inverse[g] is None:
                raise ValidationError(f"element {g} has no inverse")
        for a in range(m):
            for b in range(m):
                ab = table[a][b]
                for c in range(m):
                    if table[ab][c] != table[a][table[b][c]]:
                        raise ValidationError(
                            f"associativity fails at triple ({a},{b},{c})")
        object.__setattr__(self, "inverse", tuple(inverse))
        Record.__init__(self, order, table, identity)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def is_abelian(self) -> bool:
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(self.order) for b in range(self.order))


def cyclic_table(m: int) -> FiniteGroup:
    return FiniteGroup(m, tuple(tuple((a + b) % m for b in range(m))
                                for a in range(m)), 0)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Pair (a, b) gets index a * h.order + b."""
    m, n = g.order, h.order
    table = [[0] * (m * n) for _ in range(m * n)]
    for a1 in range(m):
        for b1 in range(n):
            for a2 in range(m):
                for b2 in range(n):
                    table[a1 * n + b1][a2 * n + b2] = (
                        g.table[a1][a2] * n + h.table[b1][b2])
    return FiniteGroup(m * n, tuple(tuple(r) for r in table),
                       g.identity * n + h.identity)


def dihedral_group(n: int) -> FiniteGroup:
    """Order 2n: indices 0..n-1 are rotations r^i, n..2n-1 are r^i s."""
    if n < 1:
        raise ValidationError("dihedral parameter must be >= 1")
    m = 2 * n

    def mul(x, y):
        i, a = x % n, x // n
        j, b = y % n, y // n
        if a == 0:
            return ((i + j) % n) + n * b
        # reflections conjugate rotations: (r^i s)(r^j ...) = r^{i-j} s ...
        return ((i - j) % n) + n * (1 - b)

    table = tuple(tuple(mul(x, y) for y in range(m)) for x in range(m))
    return FiniteGroup(m, table, 0)


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of {0..n-1} in lexicographic order, composed left-first:
    (p*q)(i) = p[q[i]]."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms)
        for p in perms)
    return FiniteGroup(len(perms), table, index[tuple(range(n))])


def abelian_element_index(g: FgAbGroup, el: GroupElement) -> int:
    """Position of an element in the mixed-radix enumeration order of
    FgAbGroup.elements() (last coordinate varies fastest)."""
    idx = 0
    for c, d in zip(el.coords, g.torsion):
        idx = idx * d + c
    return idx


def group_from_abelian(g: FgAbGroup) -> FiniteGroup:
    """Cayley-table form of a finite abelian group, element order matching
    ``FgAbGroup.elements()``."""
    if g.free_rank:
        raise ValidationError("only finite groups have Cayley tables")
    els = list(g.elements())
    table = tuple(
        tuple(abelian_element_index(g, a + b) for b in els) for a in els)
    return FiniteGroup(len(els), table, 0)


class CentralExtension(Record):
    """kernel_elements[k] is the image in G of the k-th element of the
    abelian kernel group (enumeration order of FgAbGroup.elements()).  The
    checks tabulate ``fibers[q]``, the G-indices over q in ascending order,
    and ``kernel_coords``, the kernel-group coordinates of each G-index in
    the kernel."""

    _fields = ("group", "kernel_group", "kernel_elements", "quotient", "projection")

    def __init__(self, group: FiniteGroup, kernel_group: FgAbGroup,
                 kernel_elements: tuple[int, ...], quotient: FiniteGroup,
                 projection: tuple[int, ...]):
        g, q = group, quotient
        lab = kernel_group
        ke = kernel_elements
        if lab.free_rank:
            raise ValidationError("the kernel must be a finite group")
        size = lab.order()
        if len(ke) != size:
            raise ValidationError(
                f"kernel enumeration has {len(ke)} entries for a group of order {size}")
        if len(set(ke)) != size:
            raise ValidationError("kernel elements are not distinct in G")
        for v in ke:
            if not 0 <= v < g.order:
                raise ValidationError(f"kernel element index {v} out of range")
        els = list(lab.elements())
        index = {el.coords: i for i, el in enumerate(els)}
        if ke[index[lab.zero().coords]] != g.identity:
            raise ValidationError("the kernel's zero must map to the identity of G")
        for i, a in enumerate(els):
            for j, b in enumerate(els):
                if g.table[ke[i]][ke[j]] != ke[index[(a + b).coords]]:
                    raise ValidationError(
                        f"kernel embedding is not a homomorphism at pair ({i},{j})")
        for v in ke:
            for x in range(g.order):
                if g.table[v][x] != g.table[x][v]:
                    raise ValidationError(
                        f"kernel is not central: elements {v} and {x} do not commute")
        if len(projection) != g.order:
            raise ValidationError("projection must assign a quotient element to "
                                  "every group element")
        fibers = [[] for _ in range(q.order)]
        for x, v in enumerate(projection):
            if not 0 <= v < q.order:
                raise ValidationError(f"projection of element {x} out of range")
            fibers[v].append(x)
        for a in range(g.order):
            for b in range(g.order):
                if projection[g.table[a][b]] != q.table[projection[a]][projection[b]]:
                    raise ValidationError(
                        f"projection is not a homomorphism at pair ({a},{b})")
        if not all(fibers):
            raise ValidationError("projection is not surjective")
        if fibers[q.identity] != sorted(ke):
            raise ValidationError(
                "kernel of the projection differs from the embedded kernel group")
        section = tuple(g.identity if v == q.identity else f[0] for v, f in enumerate(fibers))
        object.__setattr__(self, "fibers", tuple(map(tuple, fibers)))
        object.__setattr__(self, "kernel_coords", {v: el.coords for v, el in zip(ke, els)})
        object.__setattr__(self, "_section", section)
        Record.__init__(self, group, kernel_group, kernel_elements, quotient, projection)

    def section(self) -> tuple[int, ...]:
        """Canonical set-section of the projection: the lowest G-index in
        each fiber, except that the identity lifts to the identity."""
        return self._section


def validate_extension(g: FiniteGroup, kernel_group: FgAbGroup,
                       kernel_elements: Sequence[int], projection: Sequence[int],
                       q: FiniteGroup) -> CentralExtension:
    return CentralExtension(g, kernel_group, tuple(kernel_elements),
                            q, tuple(projection))


class TransitionCocycle(Record):
    """Quotient-valued edge labels with the triangle law g_ij g_jk = g_ik.

    ``values[e]`` is the label of the e-th edge in the site's lexicographic
    edge order (the i<j orientation; the reverse orientation is the
    inverse and is never stored).
    """

    _fields = ("site", "quotient", "values")

    def __init__(self, site: SimplicialComplex, quotient: FiniteGroup,
                 values: tuple[int, ...]):
        edges = site.cells(1)
        if len(values) != len(edges):
            raise ValidationError(
                f"need one label per edge: got {len(values)}, "
                f"site has {len(edges)}")
        for e, v in enumerate(values):
            if not 0 <= v < quotient.order:
                raise ValidationError(f"label on edge {edges[e]} out of range")
        for tri, (jk, ik, ij) in zip(site.cells(2), _triangle_edges(site)):
            if quotient.table[values[ij]][values[jk]] != values[ik]:
                raise ValidationError(f"cocycle law fails on triangle {tri}")
        Record.__init__(self, site, quotient, values)

    def value_on(self, i: int, j: int) -> int:
        e = self.site.cell_indices(1).get((min(i, j), max(i, j)))
        if e is None:
            raise ValidationError(f"({i}, {j}) is not an edge of the site")
        return self.values[e] if i < j else self.quotient.inv(self.values[e])


def _triangle_edges(site: SimplicialComplex) -> list[tuple[int, int, int]]:
    """The edges (jk, ik, ij) of each triangle (i, j, k), from its face row."""
    return [(jk, ik, ij) for (jk, _), (ik, _), (ij, _) in site.faces(2)]


def transition_from_values(site: SimplicialComplex, quotient: FiniteGroup,
                           labels: Mapping[tuple[int, int], int]) -> TransitionCocycle:
    edges = site.cells(1)
    vals = []
    for e in edges:
        if e not in labels:
            raise ValidationError(f"missing label for edge {e}")
        vals.append(labels[e])
    extra = set(map(tuple, labels)) - set(edges)
    if extra:
        raise ValidationError(f"labels on non-edges: {sorted(extra)}")
    return TransitionCocycle(site, quotient, tuple(vals))


def lifting_obstruction(t: TransitionCocycle, ext: CentralExtension,
                        section: Sequence[int] | None = None
                        ) -> tuple[Cochain, CohomologyClass]:
    """Kernel-valued triangle defect of the lifted transition data.

    Lifts each edge label through the chosen set-section (canonical by
    default) and measures c_ijk = lift(ik)^{-1} lift(ij) lift(jk) on every
    triangle.  The result is checked to be a 2-cocycle and returned with
    its class in H^2 of the site with kernel coefficients.
    """
    if t.quotient != ext.quotient:
        raise ValidationError("transition cocycle and extension have different "
                              "quotient groups")
    g = ext.group
    sec = ext.section() if section is None else tuple(section)
    if len(sec) != ext.quotient.order:
        raise ValidationError("section must assign a lift to every quotient element")
    for qi, x in enumerate(sec):
        if not 0 <= x < g.order:
            raise ValidationError(f"section entry {qi} out of range")
        if ext.projection[x] != qi:
            raise ValidationError(f"section does not lift quotient element {qi}")

    site = t.site
    comp = cech_complex(site, ext.kernel_group)
    values = {}
    for tri, edges in zip(site.cells(2), _triangle_edges(site)):
        lifted_jk, lifted_ik, lifted_ij = (sec[t.values[e]] for e in edges)
        defect = g.mul(g.mul(g.inv(lifted_ik), lifted_ij), lifted_jk)
        values[tri] = ext.kernel_coords.get(defect)
        if values[tri] is None:
            raise VerificationError(f"triangle defect on {tri} escapes the kernel")
    cochain = cochain_from_values(comp, 2, values)
    if not coboundary(cochain).is_zero:
        raise VerificationError("lifting defect is not a 2-cocycle")
    return cochain, class_of(comp, cochain)


def brute_force_lift(t: TransitionCocycle, ext: CentralExtension,
                     budget: int = LIFT_SEARCH_BUDGET
                     ) -> dict[tuple[int, int], int] | None:
    """Exhaustive search for a G-valued transition cocycle lifting t.

    Tries every per-edge kernel twist of the canonical lift, in the
    deterministic enumeration order of the kernel group.  Returns the
    first valid lift as an edge -> G-index mapping, or None when the
    search space is exhausted.
    """
    if t.quotient != ext.quotient:
        raise ValidationError("transition cocycle and extension have different "
                              "quotient groups")
    site = t.site
    edges = site.cells(1)
    n_edges = len(edges)
    ksize = len(ext.kernel_elements)
    states = ksize ** n_edges
    if states > budget:
        raise BudgetExceededError(
            f"lift search needs {states} states, budget is {budget}")

    g = ext.group
    sec = ext.section()
    base = [sec[t.values[e]] for e in range(n_edges)]
    # candidate lift of edge e under twist l, twists commute with everything
    cand = [[g.mul(base[e], ke) for ke in ext.kernel_elements]
            for e in range(n_edges)]
    triangles = _triangle_edges(site)

    for choice in itertools.product(range(ksize), repeat=n_edges):
        ok = True
        for ejk, eik, eij in triangles:
            if g.table[cand[eij][choice[eij]]][cand[ejk][choice[ejk]]] != \
                    cand[eik][choice[eik]]:
                ok = False
                break
        if ok:
            return {edges[e]: cand[e][choice[e]] for e in range(n_edges)}
    return None
