"""Exact integer linear algebra on top of the SNF kernel.

Everything here works with plain Python ints: matrices are lists of rows,
lattices are handled through generator/basis vectors in some Z^n.  A list
of vectors goes to the kernel as the rows of its input G; with U G V == D,
the span of the rows is that of d_i times the rows of V^-1, coordinates are
read off V's columns, and the rows of U past the rank span {z : z G = 0}.
Subgroups of a finitely generated abelian group with coordinate orders
``o`` are represented by integer lattices containing the relation lattice
spanned by ``o_i * e_i``; quotients of such lattices are turned into
invariant-factor presentations by ``present_quotient``.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Sequence

from cechtower._kernels import identity_matrix, smith_with_transforms
from cechtower._record import Record
from cechtower.errors import VerificationError

Vec = list[int]
Mat = list[list[int]]


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
LATTICE = ("V", "Vinv")  # basis from the rows of Vinv, coordinates from V's columns
NULLSPACE = ("U",)  # the rows of U past the rank: z G = 0
SOLVE = ("U", "V")  # z G = y through y V and the rows of U


class SnfResult(Record):
    """U*A*V == D; diag is the diagonal of D and ``V_cols`` the columns of
    V.  Transforms that were not asked for are empty lists."""

    _fields = ("U", "D", "V_cols", "Vinv", "m", "n", "diag", "rank")

    def __init__(self, U: Mat, D: Mat, V_cols: Mat, Vinv: Mat, m: int, n: int,
                 diag: tuple[int, ...], rank: int):
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "V_cols", V_cols)
        object.__setattr__(self, "Vinv", Vinv)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "rank", rank)


def snf(A: Sequence[Sequence[int]], m: int, n: int,
        transforms: Collection[str]) -> SnfResult:
    """SNF of the m x n matrix A, computing only ``transforms``."""
    U, D, V_cols, Vinv = smith_with_transforms(A if m else [], transforms)
    if not m:
        D = []
        V_cols = identity_matrix(n) if "V" in transforms else []
        Vinv = identity_matrix(n) if "Vinv" in transforms else []
    diag = tuple(D[i][i] for i in range(min(m, n)))
    rank = sum(1 for d in diag if d != 0)
    return SnfResult(U, D, V_cols, Vinv, m, n, diag, rank)


def solve_linear(res: SnfResult, y: Sequence[int]) -> Vec | None:
    """One solution z of z A = y over Z (zero homogeneous part), or None.

    With u = y V, w_i = u_i / d_i below the rank and z = sum w_i U[i]; u
    must vanish from the rank on.  Needs U and V in ``res``.
    """
    u = mat_vec(res.V_cols, y)
    if any(u[res.rank:]):
        return None
    w = []
    for ui, d in zip(u, res.diag[:res.rank]):
        if ui % d:
            return None
        w.append(ui // d)
    return lin_comb(res.U, w, res.m)


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
    U * G * V == D for the generators as the rows of G, the basis vectors
    are the rows b_i = d_i * Vinv[i], so b_i V == d_i e_i: coordinates come
    from V's columns and the diagonal, and no second SNF is needed.
    """

    def __init__(self, n: int, gens: Sequence[Sequence[int]]):
        self.n = n
        res = snf(gens, len(gens), n, LATTICE)
        self._diag = res.diag[:res.rank]
        self._V_cols = res.V_cols
        self.basis = [[d * v for v in row] for d, row in zip(self._diag, res.Vinv)]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def coords_of(self, v: Sequence[int]) -> Vec | None:
        """Coefficients of v in the basis, or None when v is outside.

        v = sum c_i b_i exactly when u = v V has u_i == c_i * d_i below the
        rank and u_i == 0 from the rank on.
        """
        u = mat_vec(self._V_cols, v)
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


def preimage_snf(map_cols: Sequence[Sequence[int]], m: int, w_gens: Sequence[Sequence[int]],
                 transforms: Collection[str]) -> SnfResult:
    """SNF of the rows [cols; -W]: ``map_cols`` and ``w_gens`` are vectors
    in Z^m.  A solution z of z [cols; -W] == y gives sum_j z_j * col_j == y
    modulo lattice(w_gens)."""
    rows = [*map_cols, *([-x for x in w] for w in w_gens)]
    return snf(rows, len(rows), m, transforms)


def lattice_preimage_gens(map_cols: Sequence[Sequence[int]], m: int,
                          w_gens: Sequence[Sequence[int]]) -> list[Vec]:
    """Generators of {y in Z^g : sum_j y_j * col_j lies in lattice(w_gens)}.

    ``map_cols`` are g vectors in Z^m.  Computed as the projection of the
    left kernel of [cols; -W], the rows of U past the rank; with W the
    relation columns of a target group this is the kernel of a homomorphism.
    """
    res = preimage_snf(map_cols, m, w_gens, NULLSPACE)
    return [row[:len(map_cols)] for row in res.U[res.rank:]]


class Presentation(Record):
    """Invariant-factor presentation of S/T for lattices T <= S <= Z^n.

    torsion/free_rank describe the quotient; ``lift_cols[k]`` is an ambient
    vector mapping onto the k-th generator (torsion generators first, then
    free ones); ``project`` sends any ambient vector inside S to normalized
    quotient coordinates.  Unlike other records it is unhashable.
    """

    _fields = ("n", "torsion", "free_rank", "lift_cols", "project")
    _hidden = ("project",)
    __hash__ = None

    def __init__(self, n: int, torsion: tuple[int, ...], free_rank: int,
                 lift_cols: list[Vec], project: Callable[[Sequence[int]], Vec]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "lift_cols", lift_cols)
        object.__setattr__(self, "project", project)


def present_cokernel(n: int, vecs: Sequence[Sequence[int]]) -> Presentation:
    """Present Z^n modulo the span of ``vecs`` with one SNF U*G*V == D of
    the vectors as the rows of G: V's columns project, rows of Vinv lift."""
    res = snf(vecs, len(vecs), n, LATTICE)
    kept_torsion = [i for i in range(res.rank) if res.diag[i] > 1]
    free_idx = list(range(res.rank, n))
    kept = kept_torsion + free_idx
    orders = [res.diag[i] for i in kept_torsion] + [0] * len(free_idx)
    lift_cols = [res.Vinv[i] for i in kept]
    rows = [res.V_cols[i] for i in kept]

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
