"""The Smith normal form kernel, pure Python and the only one.

This is the hot loop of the whole package: every kernel/image/quotient
computation reduces to a call into ``smith_with_transforms``.  It operates
on plain Python ints, so intermediate entries may grow without bound
(arbitrary precision is required, not optional).

Algorithm: classic row/column reduction.  The pivot is always the
smallest-absolute-value nonzero entry of the working submatrix, ties broken
by row-major position; this bounds intermediate growth and makes the output
deterministic.  Divisibility of later diagonal entries is enforced by the
usual row-addition trick, so the diagonal comes out as an invariant-factor
chain in a single pass.

Only the transforms a caller asks for are updated.  The pivot sequence
depends on the working matrix alone, so D and every tracked transform are
the same whichever subset is tracked.  Column operations on Uinv and V are
applied to their transposes, so every transform update is a row operation.

BACKEND names the implementation (reported as ``cechtower.KERNEL_BACKEND``).
"""

BACKEND = "python"

ALL_TRANSFORMS = frozenset(("U", "Uinv", "V", "Vinv"))


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def smith_with_transforms(mat, transforms=ALL_TRANSFORMS):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Takes a list of m rows (each a list of n ints) and returns
    ``(U, Uinv, D, V, Vinv)`` as lists of lists with

        U * mat * V == D,    U * Uinv == I_m,    V * Vinv == I_n,

    where D is diagonal, non-negative, and each diagonal entry divides the
    next.  U and V are unimodular (|det| == 1).  Total on every matrix,
    including ones with zero rows or columns.

    ``transforms`` names the transforms to compute (any container of
    "U", "Uinv", "V", "Vinv"); the others come back as ``[]``.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [list(row) for row in mat]

    track_u = "U" in transforms
    track_ui = "Uinv" in transforms
    track_v = "V" in transforms
    track_vi = "Vinv" in transforms
    U = identity_matrix(m) if track_u else []
    UiT = identity_matrix(m) if track_ui else []  # Uinv transposed: rows are columns
    VT = identity_matrix(n) if track_v else []  # V transposed
    Vinv = identity_matrix(n) if track_vi else []

    r = min(m, n)
    k = 0
    while k < r:
        # Pivot: smallest |nonzero| in A[k:, k:], row-major ties.
        pi = -1
        pj = -1
        best = 0
        for i in range(k, m):
            row = A[i]
            for j in range(k, n):
                a = row[j]
                if a != 0:
                    if a < 0:
                        a = -a
                    if best == 0 or a < best:
                        best = a
                        pi = i
                        pj = j
            if best == 1:
                break
        if pi < 0:
            break  # remaining submatrix is zero

        if pi != k:
            A[k], A[pi] = A[pi], A[k]
            if track_u:
                U[k], U[pi] = U[pi], U[k]
            if track_ui:
                UiT[k], UiT[pi] = UiT[pi], UiT[k]
        if pj != k:
            for t in range(m):
                rowt = A[t]
                rowt[k], rowt[pj] = rowt[pj], rowt[k]
            if track_v:
                VT[k], VT[pj] = VT[pj], VT[k]
            if track_vi:
                Vinv[k], Vinv[pj] = Vinv[pj], Vinv[k]
        if A[k][k] < 0:
            A[k] = [-x for x in A[k]]
            if track_u:
                U[k] = [-x for x in U[k]]
            if track_ui:
                UiT[k] = [-x for x in UiT[k]]

        a = A[k][k]
        dirty = False

        # Clear column k below the pivot (floor quotients leave remainders
        # in [0, a), so min |nonzero| strictly decreases when not clean).
        # Rows k.. are zero left of column k, so whole-row updates are safe.
        for i in range(k + 1, m):
            b = A[i][k]
            if b != 0:
                q = b // a
                if q != 0:
                    A[i] = [x - q * y for x, y in zip(A[i], A[k])]
                    if track_u:
                        U[i] = [x - q * y for x, y in zip(U[i], U[k])]
                    if track_ui:
                        UiT[k] = [x + q * y for x, y in zip(UiT[k], UiT[i])]
                if A[i][k] != 0:
                    dirty = True

        # Clear row k right of the pivot.
        for j in range(k + 1, n):
            b = A[k][j]
            if b != 0:
                q = b // a
                if q != 0:
                    for t in range(k, m):
                        rowt = A[t]
                        rowt[j] -= q * rowt[k]
                    if track_v:
                        VT[j] = [x - q * y for x, y in zip(VT[j], VT[k])]
                    if track_vi:
                        Vinv[k] = [x + q * y for x, y in zip(Vinv[k], Vinv[j])]
                if A[k][j] != 0:
                    dirty = True

        if dirty:
            continue  # re-pick the pivot among the smaller remainders

        # Pivot row/column clean.  Enforce the divisor chain: the pivot must
        # divide every entry of the remaining submatrix.
        fix = -1
        for i in range(k + 1, m):
            row = A[i]
            for j in range(k + 1, n):
                if row[j] % a != 0:
                    fix = i
                    break
            if fix >= 0:
                break
        if fix >= 0:
            # Row addition exposes the non-divisible entry in row k; the
            # next pass shrinks the pivot to a proper divisor of a.
            A[k] = [x + y for x, y in zip(A[k], A[fix])]
            if track_u:
                U[k] = [x + y for x, y in zip(U[k], U[fix])]
            if track_ui:
                UiT[fix] = [x - y for x, y in zip(UiT[fix], UiT[k])]
            continue

        k += 1

    return U, _transpose(UiT), A, _transpose(VT), Vinv
