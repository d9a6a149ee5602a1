"""Exact integer linear algebra on top of the SNF kernel.

Everything here works with plain Python ints: matrices are lists of rows,
lattices are handled through generator/basis column vectors in some Z^n.
Subgroups of a finitely generated abelian group with coordinate orders
``o`` are represented by integer lattices containing the relation lattice
spanned by ``o_i * e_i``; quotients of such lattices are turned into
invariant-factor presentations by ``present_quotient``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Optional, Sequence

from cechtower._kernels import smith_with_transforms
from cechtower.errors import VerificationError

Vec = list[int]
Mat = list[list[int]]


def identity_matrix(n: int) -> Mat:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> Mat:
    m = len(A)
    k = len(A[0]) if m else 0
    n = len(B[0]) if B else 0
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(n):
                    Oi[j] += a * Bt[j]
    return out


def mat_vec(A: Sequence[Sequence[int]], x: Sequence[int]) -> Vec:
    """A x, summing over the nonzero entries of x only."""
    nz = [(j, b) for j, b in enumerate(x) if b]
    return [sum(row[j] * b for j, b in nz) for row in A]


def lin_comb(vectors: Sequence[Sequence[int]], coeffs: Sequence[int], n: int) -> Vec:
    """sum_j coeffs[j] * vectors[j] in Z^n."""
    out = [0] * n
    for c, vec in zip(coeffs, vectors):
        if c:
            for i in range(n):
                out[i] += c * vec[i]
    return out


def columns_to_matrix(cols: Sequence[Sequence[int]], n: int) -> Mat:
    return [[col[i] for col in cols] for i in range(n)]


# Transforms each kind of caller reads; the kernel skips the others.
LATTICE = ("U", "Uinv")  # basis from Uinv, coordinates from U
NULLSPACE = ("V",)
SOLVE = ("U", "V")
COBOUNDARY = ("V", "Vinv")  # kernel from V, V-coordinates of cochains from Vinv


@dataclass(frozen=True)
class SnfResult:
    """U*A*V == D; diag is the diagonal of D.  Transforms that were not
    asked for are empty lists."""

    U: Mat
    Uinv: Mat
    D: Mat
    V: Mat
    Vinv: Mat
    m: int
    n: int
    diag: tuple[int, ...]
    rank: int


def snf(A: Sequence[Sequence[int]], m: int, n: int,
        transforms: Collection[str]) -> SnfResult:
    """SNF of the m x n matrix A, computing only ``transforms``."""
    U, Uinv, D, V, Vinv = smith_with_transforms(A if m else [], transforms)
    if not m:
        D = []
        V = identity_matrix(n) if "V" in transforms else []
        Vinv = identity_matrix(n) if "Vinv" in transforms else []
    diag = tuple(D[i][i] for i in range(min(m, n)))
    rank = sum(1 for d in diag if d != 0)
    return SnfResult(U, Uinv, D, V, Vinv, m, n, diag, rank)


def solve_linear(res: SnfResult, y: Sequence[int]) -> Optional[Vec]:
    """One solution of A x = y over Z (zero homogeneous part), or None.

    Needs U and V in ``res``.
    """
    u = mat_vec(res.U, y)
    z = [0] * res.n
    for i in range(res.m):
        if i < res.rank:
            d = res.diag[i]
            if u[i] % d != 0:
                return None
            z[i] = u[i] // d
        elif u[i] != 0:
            return None
    return mat_vec(res.V, z)


def kernel_columns(res: SnfResult) -> list[Vec]:
    """Basis of {x : A x = 0}: the V-columns past the rank."""
    return [[res.V[i][j] for i in range(res.n)] for j in range(res.rank, res.n)]


def relation_columns(orders: Sequence[int]) -> list[Vec]:
    """Generators o_i * e_i of the relation lattice (finite-order coords only)."""
    n = len(orders)
    cols = []
    for i, o in enumerate(orders):
        if o:
            col = [0] * n
            col[i] = o
            cols.append(col)
    return cols


class Lattice:
    """A sublattice of Z^n, reduced to a canonical basis via SNF.

    The basis is the deterministic function of the generator list produced
    by the SNF transforms, so equal generator lists give equal bases.  With
    U * G * V == D for the generator matrix G, the basis vectors are
    b_i = d_i * Uinv e_i, so U b_i == d_i e_i: coordinates come from U and
    the diagonal, and no second SNF is needed.
    """

    def __init__(self, n: int, gens: Sequence[Sequence[int]]):
        self.n = n
        if gens:
            res = snf(columns_to_matrix(gens, n), n, len(gens), LATTICE)
            self._diag = res.diag[:res.rank]
            self._U = res.U
            self.basis = [[d * row[i] for row in res.Uinv]
                          for i, d in enumerate(self._diag)]
        else:
            self._diag = ()
            self._U = []
            self.basis = []

    @property
    def rank(self) -> int:
        return len(self.basis)

    def coords_of(self, v: Sequence[int]) -> Optional[Vec]:
        """Coefficients of v in the basis, or None when v is outside.

        v = sum c_i b_i exactly when u = U v has u_i == c_i * d_i below the
        rank and u_i == 0 from the rank on.
        """
        u = mat_vec(self._U, v) if self.basis else v  # no basis: only 0 is inside
        coords = []
        for ui, d in zip(u, self._diag):
            if ui % d:
                return None
            coords.append(ui // d)
        if any(u[self.rank:]):
            return None
        return coords

    def __contains__(self, v: Sequence[int]) -> bool:
        return self.coords_of(v) is not None

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(b in self for b in other.basis)


def augmented_snf(matrix: Sequence[Sequence[int]], target_orders: Sequence[int],
                  n: int, transforms: Collection[str]) -> SnfResult:
    """SNF of [M | -R], R the relation generators o_i e_i of the target.

    A solution w of [M | -R] w == y gives M w[:n] == y modulo the target
    relations; the kernel projects onto {x in Z^n : M x in lattice(R)}.
    """
    rel = [i for i, o in enumerate(target_orders) if o]
    W = [list(row) + [-target_orders[i] if i == j else 0 for j in rel]
         for i, row in enumerate(matrix)]
    return snf(W, len(target_orders), n + len(rel), transforms)


def kernel_lattice_gens(matrix: Sequence[Sequence[int]], target_orders: Sequence[int],
                        n: int) -> list[Vec]:
    """Generators of {x in Z^n : M x lies in the relation lattice of target}."""
    res = augmented_snf(matrix, target_orders, n, NULLSPACE)
    return [col[:n] for col in kernel_columns(res)]


def lattice_preimage_gens(map_cols: Sequence[Sequence[int]], m: int,
                          w_gens: Sequence[Sequence[int]]) -> list[Vec]:
    """Generators of {y in Z^g : sum_j y_j * col_j lies in lattice(w_gens)}.

    ``map_cols`` are g column vectors in Z^m.  Computed as the projection
    of the kernel of the block matrix [cols | -W].
    """
    g = len(map_cols)
    cols = [*map_cols, *([-x for x in w] for w in w_gens)]
    res = snf(columns_to_matrix(cols, m), m, len(cols), NULLSPACE)
    return [col[:g] for col in kernel_columns(res)]


@dataclass
class Presentation:
    """Invariant-factor presentation of S/T for lattices T <= S <= Z^n.

    torsion/free_rank describe the quotient; ``lift_cols[k]`` is an ambient
    vector mapping onto the k-th generator (torsion generators first, then
    free ones); ``project`` sends any ambient vector inside S to normalized
    quotient coordinates.
    """

    n: int
    torsion: tuple[int, ...]
    free_rank: int
    lift_cols: list[Vec]
    project: Callable[[Sequence[int]], Vec] = field(repr=False)


def present_cokernel(n: int, cols: Sequence[Sequence[int]]) -> Presentation:
    """Present Z^n modulo the span of ``cols`` with one SNF U*C*V == D of
    the column matrix: rows of U project, columns of Uinv lift."""
    res = snf(columns_to_matrix(cols, n), n, len(cols), LATTICE)
    kept_torsion = [i for i in range(res.rank) if res.diag[i] > 1]
    free_idx = list(range(res.rank, n))
    kept = kept_torsion + free_idx
    orders = [res.diag[i] for i in kept_torsion] + [0] * len(free_idx)
    lift_cols = [[row[i] for row in res.Uinv] for i in kept]
    rows = [res.U[i] for i in kept]

    def project(v: Sequence[int]) -> Vec:
        return [y % o if o else y for y, o in zip(mat_vec(rows, v), orders)]

    return Presentation(n, tuple(orders[:len(kept_torsion)]), len(free_idx),
                        lift_cols, project)


def present_quotient(S: Lattice, t_gens: Sequence[Sequence[int]]) -> Presentation:
    """Present S modulo lattice(t_gens), which must lie inside S: the
    cokernel of t_gens in S's basis coordinates, lifted through the basis."""
    cols = []
    for t in t_gens:
        c = S.coords_of(t)
        if c is None:
            raise VerificationError("denominator lattice is not contained in the numerator")
        cols.append(c)
    pres = present_cokernel(S.rank, cols)

    def project(v: Sequence[int]) -> Vec:
        c = S.coords_of(v)
        if c is None:
            raise VerificationError("vector outside the presented subgroup")
        return pres.project(c)

    return Presentation(S.n, pres.torsion, pres.free_rank,
                        [lin_comb(S.basis, col, S.n) for col in pres.lift_cols], project)
