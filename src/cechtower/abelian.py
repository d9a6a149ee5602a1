"""Finitely generated abelian groups, elements, homomorphisms.

Groups are always kept in invariant-factor form: torsion coefficients
d_1 | d_2 | ... | d_t (each >= 2) followed by a free part.  Coordinates of
elements and homomorphism matrices list the torsion generators first (in
chain order) and the free generators last; torsion coordinates are
normalized into [0, d_i).

Everything is exact (arbitrary-precision ints) and immutable, hence safe
to share between threads.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from math import gcd, lcm

from cechtower import _intlin
from cechtower._intlin import (
    Lattice,
    present_cokernel,
    present_quotient,
    relation_columns,
)
from cechtower._record import Record
from cechtower.errors import ValidationError


class FgAbGroup(Record):
    """Z^free_rank plus one cyclic factor Z/d per torsion entry."""

    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        torsion = tuple(int(d) for d in torsion)
        if free_rank < 0:
            raise ValidationError("free_rank must be non-negative")
        prev = None
        for d in torsion:
            if d < 2:
                raise ValidationError(f"torsion entry {d} is not >= 2")
            if prev is not None and d % prev != 0:
                raise ValidationError(
                    f"torsion entries {prev}, {d} break the divisibility chain")
            prev = d
        Record.__init__(self, free_rank, torsion)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self.free_rank == other.free_rank and self.torsion == other.torsion
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.free_rank, self.torsion))

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def orders(self) -> tuple[int, ...]:
        """Per-coordinate orders; 0 marks a free coordinate."""
        return self.torsion + (0,) * self.free_rank

    @property
    def is_trivial(self) -> bool:
        return self.ngens == 0

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def normalize(self, coords: Sequence[int]) -> tuple[int, ...]:
        if len(coords) != self.ngens:
            raise ValidationError(
                f"coordinate vector of length {len(coords)} for a group with "
                f"{self.ngens} generators")
        return tuple(
            c % o if o else c for c, o in zip(coords, self.orders))

    def reduce_rows(self, matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
        """Row i of a matrix into this group reduced by the i-th order."""
        return tuple(
            tuple(v % o if o else v for v in row) for row, o in zip(matrix, self.orders))

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.ngens)

    def generator(self, i: int) -> "GroupElement":
        if not 0 <= i < self.ngens:
            raise ValidationError(
                f"generator index {i} out of range for {self.ngens} generators")
        coords = [0] * self.ngens
        coords[i] = 1
        return GroupElement(self, tuple(coords))

    def elements(self) -> Iterator["GroupElement"]:
        """All elements in mixed-radix order (finite groups only)."""
        if self.free_rank:
            raise ValidationError("cannot enumerate an infinite group")
        for coords in itertools.product(*(range(d) for d in self.torsion)):
            yield GroupElement(self, coords)

    def label(self) -> str:
        """Display string, e.g. 'Z^2 x Z/2' (free part shown first)."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.label()


def trivial_group() -> FgAbGroup:
    return FgAbGroup(0, ())


def free_group(rank: int) -> FgAbGroup:
    return FgAbGroup(rank, ())


def cyclic_group(m: int) -> FgAbGroup:
    if m < 0:
        raise ValidationError("cyclic order must be non-negative")
    if m == 0:
        return FgAbGroup(1, ())
    if m == 1:
        return FgAbGroup(0, ())
    return FgAbGroup(0, (m,))


def cyclic_sum(pairs: Iterable[tuple[int, int]]) -> FgAbGroup:
    """The direct sum of ``count`` copies of Z/order over the (order, count)
    pairs (order 0 is Z, order 1 the trivial group), in invariant-factor
    form.  Each distinct order is merged into the chain by gcd and lcm
    alone: no SNF, and no factoring, so orders may be large primes."""
    free, counts = 0, {}
    for order, count in pairs:
        if order == 0:
            free += count
        elif order > 1 and count:
            counts[order] = counts.get(order, 0) + count
    chain: list[tuple[int, int]] = []
    for order, count in counts.items():
        chain = _merge_copies(chain, order, count)
    return FgAbGroup(free, tuple(d for d, m in chain for _ in range(m)))


def _merge_copies(chain: list[tuple[int, int]], order: int,
                  count: int) -> list[tuple[int, int]]:
    """Merge ``count`` copies of Z/order into the invariant factors A_1 | A_2
    | ... held as runs (factor, multiplicity).

    Prime by prime the exponents of the result are those of A and of the
    copies, sorted, so its k-th factor is gcd(A_k, lcm(A_{k-count}, order))
    with A_i = 1 for i <= 0, and lcm(A_{k-count}, order) past the end of A.
    That is constant between the run starts of A and those starts shifted
    by ``count``, so the result is computed once per such stretch."""
    starts, length = [], 0
    for _, m in chain:
        starts.append(length + 1)
        length += m
    end = length + count + 1

    def factor(i: int) -> int:
        return chain[bisect_right(starts, i) - 1][0] if i > 0 else 1

    cuts = sorted({1, length + 1, *starts, *(s + count for s in starts)})
    out: list[tuple[int, int]] = []
    for k, nxt in zip(cuts, cuts[1:] + [end]):
        d = lcm(factor(k - count), order)
        if k <= length:
            d = gcd(factor(k), d)
        if d == 1:
            continue
        if out and out[-1][0] == d:
            out[-1] = (d, out[-1][1] + nxt - k)
        else:
            out.append((d, nxt - k))
    return out


class GroupElement(Record):
    _fields = ("group", "coords")

    def __init__(self, group: FgAbGroup, coords: tuple[int, ...]):
        Record.__init__(self, group, group.normalize(coords))

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if other.group != self.group:
            raise ValidationError("cannot add elements of different groups")
        return GroupElement(
            self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-a for a in self.coords))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scale(self, k: int) -> "GroupElement":
        return GroupElement(self.group, tuple(k * a for a in self.coords))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


class Homomorphism(Record):
    """Matrix columns are images of source generators in target coordinates.

    The package's one well-definedness check: the shape must match, and
    d_j * col_j == 0 in the target for each source order d_j.
    """

    _fields = ("source", "target", "matrix")

    def __init__(self, source: FgAbGroup, target: FgAbGroup,
                 matrix: tuple[tuple[int, ...], ...]):
        matrix = tuple(tuple(int(v) for v in row) for row in matrix)
        if len(matrix) != target.ngens:
            raise ValidationError(
                f"ill-defined homomorphism: matrix has {len(matrix)} rows, "
                f"target has {target.ngens} generators")
        for i, row in enumerate(matrix):
            if len(row) != source.ngens:
                raise ValidationError(
                    f"ill-defined homomorphism: row {i} has {len(row)} entries, "
                    f"source has {source.ngens} generators")
        for j, d in enumerate(source.orders):
            for i, o in enumerate(target.orders):
                v = d * matrix[i][j]
                if v % o if o else v:
                    raise ValidationError(
                        f"ill-defined homomorphism: column {j}: source order {d} "
                        f"does not annihilate the image (target coordinate {i})")
        Record.__init__(self, source, target, target.reduce_rows(matrix))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return (self.source == other.source and self.target == other.target
                    and self.matrix == other.matrix)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.matrix))

    def apply(self, x: GroupElement) -> GroupElement:
        if x.group != self.source:
            raise ValidationError("element does not belong to the source group")
        return GroupElement(self.target,
                            tuple(_intlin.mat_vec(self.matrix, x.coords)))

    def columns(self) -> list[list[int]]:
        return [[row[j] for row in self.matrix] for j in range(self.source.ngens)]

    def compose(self, first: "Homomorphism") -> "Homomorphism":
        """self after first."""
        if first.target != self.source:
            raise ValidationError("homomorphisms are not composable")
        if first.target.is_trivial:  # no rows to read the column count from
            return zero_hom(first.source, self.target)
        prod = _intlin.mat_mul(self.matrix, first.matrix)
        return Homomorphism(first.source, self.target,
                            tuple(tuple(r) for r in prod))

    @property
    def is_zero(self) -> bool:
        return all(all(v == 0 for v in row) for row in self.matrix)


def zero_hom(source: FgAbGroup, target: FgAbGroup) -> Homomorphism:
    return Homomorphism(source, target,
                        tuple((0,) * source.ngens for _ in range(target.ngens)))


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """(U, D, V) with U*M*V = D, non-negative divisor-chain diagonal.

    U and V are unimodular; total on every integer matrix.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    res = _intlin.snf(matrix, m, n, _intlin.SOLVE)
    to_t = lambda rows: tuple(tuple(r) for r in rows)
    return to_t(res.U), to_t(res.D), tuple(zip(*res.V_cols))


def presentation_group(p: _intlin.Presentation) -> FgAbGroup:
    """The group a presentation presents."""
    return FgAbGroup(p.free_rank, p.torsion)


def _inclusion_from_lifts(sub: FgAbGroup, ambient: FgAbGroup,
                          lift_cols: Sequence[Sequence[int]]) -> Homomorphism:
    return Homomorphism(sub, ambient, _intlin.columns_to_matrix(lift_cols, ambient.ngens))


class HomInvariants(Record):
    _fields = ("kernel", "kernel_inclusion", "image", "image_inclusion", "cokernel",
               "cokernel_projection")


def hom_invariants(h: Homomorphism) -> HomInvariants:
    """Kernel (read from ``_hom_solver``), image, cokernel with their
    inclusion/projection maps."""
    na, nb = h.source.ngens, h.target.ngens
    rel_a = relation_columns(h.source.orders)
    rel_b = relation_columns(h.target.orders)

    ker_p = present_quotient(Lattice(na, _kernel_gens(h)), rel_a)
    kernel = presentation_group(ker_p)
    ker_inc = _inclusion_from_lifts(kernel, h.source, ker_p.lift_cols)

    im_gens = h.columns() + rel_b
    im_p = present_quotient(Lattice(nb, im_gens), rel_b)
    image = presentation_group(im_p)
    im_inc = _inclusion_from_lifts(image, h.target, im_p.lift_cols)

    cok_p = present_cokernel(nb, im_gens)
    cokernel = presentation_group(cok_p)
    proj_cols = [cok_p.project(e) for e in _intlin.identity_matrix(nb)]
    cok_proj = Homomorphism(h.target, cokernel,
                            _intlin.columns_to_matrix(proj_cols, cokernel.ngens))
    return HomInvariants(kernel, ker_inc, image, im_inc, cokernel, cok_proj)


@lru_cache(maxsize=256)
def _hom_solver(h: Homomorphism) -> _intlin.SnfResult:
    """The one SNF of h: A -> B, of the rows [cols; -R_B] with U and V: its
    solver, and through the rows of U past the rank its kernel."""
    return _intlin.preimage_snf(h.columns(), h.target.ngens,
                                relation_columns(h.target.orders), _intlin.SOLVE)


def _kernel_gens(h: Homomorphism) -> list[list[int]]:
    """Generators of ker h in Z^A: U's rows past the rank, cut to A."""
    res = _hom_solver(h)
    return [row[:h.source.ngens] for row in res.U[res.rank:]]


def solve_in_group(h: Homomorphism, y: GroupElement) -> GroupElement | None:
    """Canonical x with h(x) == y, or None when y is outside the image.

    The solution is the SNF back-substitution with zero homogeneous part,
    then normalized; it is deterministic for a fixed homomorphism.
    """
    if y.group != h.target:
        raise ValidationError("right-hand side does not belong to the target")
    w = _intlin.solve_linear(_hom_solver(h), y.coords)
    if w is None:
        return None
    return GroupElement(h.source, tuple(w[:h.source.ngens]))


class ExactnessResult(Record):
    _fields = ("ok", "witness", "side")
    _defaults = {"witness": None, "side": ""}

    def __bool__(self) -> bool:
        return self.ok


def is_exact_at(f: Homomorphism, g: Homomorphism) -> ExactnessResult:
    """Whether image(f) == kernel(g) inside f.target (== g.source).

    ker g comes from ``_hom_solver(g)``.  On failure the witness is an
    element of one subgroup missing from the other; ``side`` says which
    inclusion broke.
    """
    if f.target != g.source:
        raise ValidationError("maps are not composable: f.target != g.source")
    nb = f.target.ngens
    im = Lattice(nb, f.columns() + relation_columns(f.target.orders))
    ker = Lattice(nb, _kernel_gens(g))
    for b in im.basis:
        if b not in ker:
            return ExactnessResult(False, GroupElement(f.target, tuple(b)),
                                   "image_not_in_kernel")
    for b in ker.basis:
        if b not in im:
            return ExactnessResult(False, GroupElement(f.target, tuple(b)),
                                   "kernel_not_in_image")
    return ExactnessResult(True)


@lru_cache(maxsize=256)
def _summed_presentation(orders: tuple[int, ...]) -> _intlin.Presentation:
    """The invariant-factor presentation of the sum of the cyclic groups
    Z/o (o = 0: Z), memoized on the orders: direct sums, sites and
    coefficient groups that reach the same summands share one entry.  An
    entry holds s x s entries for s summands; the cohomology of a site
    checks the budget of its s x g*k_p lift columns first."""
    return present_cokernel(len(orders), relation_columns(orders))


def direct_sum_with_maps(summands: Sequence[FgAbGroup]):
    """Canonical invariant-factor form of a direct sum, with the block maps.

    Returns (L, embeddings, projections) where embedding[i]: summand -> L
    and projection[i]: L -> summand satisfy proj_i ∘ emb_i = id and
    sum_i emb_i ∘ proj_i = id.
    """
    offsets = []
    total = 0
    for g in summands:
        offsets.append(total)
        total += g.ngens
    full = _intlin.identity_matrix(total)
    pres = _summed_presentation(tuple(o for g in summands for o in g.orders))
    L = presentation_group(pres)

    embeddings = []
    projections = []
    for idx, g in enumerate(summands):
        off = offsets[idx]
        cols = [pres.project(full[off + j]) for j in range(g.ngens)]
        emb = Homomorphism(g, L, _intlin.columns_to_matrix(cols, L.ngens))
        proj_cols = [lift[off:off + g.ngens] for lift in pres.lift_cols]
        proj = Homomorphism(L, g, _intlin.columns_to_matrix(proj_cols, g.ngens))
        embeddings.append(emb)
        projections.append(proj)
    return L, embeddings, projections
