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

The work of a pivot step follows the supports of its pivot row and column,
not the size of the matrix (Dumas, Saunders & Villard, J. Symb. Comput. 32,
2001); a Cech coboundary has p+2 entries of +-1 per row.  The pivot search
scans row tails with builtins, stops at a row whose minimum is 1 and skips
rows already found zero.  Clearing the column touches only the rows with a
nonzero in it, each at the support of the pivot row (and U's pivot row);
clearing the row touches only the nonzero column entries, and the columns
of V at the support of its pivot column.  Vinv accumulates as sparse rows
during the elimination, where rows past k are still mostly unit rows, and
is dense only on return.  A unit pivot skips the divisor-chain scan.  The
operations and their order are those of the dense kernel kept as
``tests/oracles.reference_smith``, and the output equals its output entry
for entry, V read as its columns.

Only the transforms a caller asks for are updated.  The pivot sequence
depends on the working matrix alone, so D and every tracked transform are
the same whichever subset is tracked.  V is kept as its list of columns,
so every transform update is a row operation, and it is returned so.

BACKEND names the implementation (reported as ``cechtower.KERNEL_BACKEND``).
"""

from itertools import compress

BACKEND = "python"

ALL_TRANSFORMS = frozenset(("U", "V", "Vinv"))


def identity_matrix(n):
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _dense(rows, n):
    """Sparse rows (column -> value) as lists of n ints."""
    out = []
    for sparse in rows:
        row = [0] * n
        for j, v in sparse.items():
            row[j] = v
        out.append(row)
    return out


def _add_sparse(acc, q, row):
    """acc += q * row, both sparse."""
    for j, v in row.items():
        acc[j] = acc.get(j, 0) + q * v


def _entries(row, start):
    """(column, value) of the nonzero entries of a dense row from ``start``."""
    return [(j, row[j]) for j in compress(range(start, len(row)), row[start:])]


def smith_with_transforms(mat, transforms=ALL_TRANSFORMS):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Takes a list of m rows (each a list of n ints) and returns
    ``(U, D, V_cols, Vinv)`` as lists of lists with

        U * mat * V == D,    V * Vinv == I_n,

    where D is diagonal, non-negative, and each diagonal entry divides the
    next, and ``V_cols`` lists the n columns of V.  U and V are unimodular
    (|det| == 1).  Total on every matrix, including ones with zero rows or
    columns.

    ``transforms`` names the transforms to compute (any container of
    "U", "V", "Vinv"); the others come back as ``[]``.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [list(row) for row in mat]

    track_u = "U" in transforms
    track_v = "V" in transforms
    track_vi = "Vinv" in transforms
    U = identity_matrix(m) if track_u else []
    V_cols = identity_matrix(n) if track_v else []
    Vinv = [{j: 1} for j in range(n)] if track_vi else []  # sparse until the return

    # Rows found zero from column k on: no row operation ever touches them
    # again, so they stay zero and the pivot search skips them.
    zero_rows = set()
    r = min(m, n)
    k = 0
    while k < r:
        # Pivot: smallest |nonzero| in A[k:, k:], row-major ties.
        pi = -1
        best = 0
        for i in range(k, m):
            if i in zero_rows:
                continue
            low = min(map(abs, filter(None, A[i][k:])), default=0)
            if not low:
                zero_rows.add(i)
            elif best == 0 or low < best:
                best = low
                pi = i
                if low == 1:
                    break
        if pi < 0:
            break  # remaining submatrix is zero
        pj = k + list(map(abs, A[pi][k:])).index(best)

        if pi != k:
            if k in zero_rows:
                zero_rows.remove(k)
                zero_rows.add(pi)
            A[k], A[pi] = A[pi], A[k]
            if track_u:
                U[k], U[pi] = U[pi], U[k]
        if pj != k:
            for t in range(k, m):  # rows above k are zero from column k on
                rowt = A[t]
                rowt[k], rowt[pj] = rowt[pj], rowt[k]
            if track_v:
                V_cols[k], V_cols[pj] = V_cols[pj], V_cols[k]
            if track_vi:
                Vinv[k], Vinv[pj] = Vinv[pj], Vinv[k]
        Ak = A[k]
        if Ak[k] < 0:
            Ak = A[k] = [-x for x in Ak]
            if track_u:
                U[k] = [-x for x in U[k]]

        a = Ak[k]
        dirty = False

        # Clear column k below the pivot (floor quotients leave remainders
        # in [0, a), so min |nonzero| strictly decreases when not clean).
        # Rows k.. are zero left of column k, and A[k] and U[k] stay fixed
        # here, so each row update runs over their supports only.
        below = list(compress(range(k + 1, m), [row[k] for row in A[k + 1:]]))
        if below:
            pivot_row = _entries(Ak, k)
            pivot_u = _entries(U[k], 0) if track_u else ()
            for i in below:
                Ai = A[i]
                q = Ai[k] // a
                if q != 0:
                    for j, y in pivot_row:
                        Ai[j] -= q * y
                    if track_u:
                        Ui = U[i]
                        for j, y in pivot_u:
                            Ui[j] -= q * y
                if Ai[k] != 0:
                    dirty = True

        # Clear row k right of the pivot.  Column k of A and of V stay fixed
        # here, so each column update runs over their supports only.
        right = list(compress(range(k + 1, n), Ak[k + 1:]))
        if right:
            pivot_col = [(A[t], A[t][k]) for t in [k] + below if A[t][k] != 0]
            pivot_v = _entries(V_cols[k], 0) if track_v else ()
            for j in right:
                q = Ak[j] // a
                if q != 0:
                    for rowt, y in pivot_col:
                        rowt[j] -= q * y
                    if track_v:
                        Vj = V_cols[j]
                        for c, y in pivot_v:
                            Vj[c] -= q * y
                    if track_vi:
                        _add_sparse(Vinv[k], q, Vinv[j])
                if Ak[j] != 0:
                    dirty = True

        if dirty:
            continue  # re-pick the pivot among the smaller remainders

        # Pivot row/column clean.  Enforce the divisor chain: the pivot must
        # divide every entry of the remaining submatrix (always, for a = 1).
        if a != 1:
            remainder = a.__rmod__  # x -> x % a
            fix = next((i for i in range(k + 1, m)
                        if any(map(remainder, A[i][k + 1:]))), -1)
            if fix >= 0:
                # Row addition exposes the non-divisible entry in row k; the
                # next pass shrinks the pivot to a proper divisor of a.
                A[k] = [x + y for x, y in zip(Ak, A[fix])]
                if track_u:
                    U[k] = [x + y for x, y in zip(U[k], U[fix])]
                continue

        k += 1

    return U, A, V_cols, _dense(Vinv, n)
