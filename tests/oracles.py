"""Independent oracles for the test suite.

Nothing here touches the package's SNF/lattice path: determinants come
from fraction-free elimination, cohomology from exhaustive enumeration
with the group structure reconstructed by order counting, solves from
brute-force search.  These are the second route of every dual-route check.
Thirteen exceptions are earlier versions kept as references for the ones the
package uses now: ``reference_differential``, the dense d_p the package once
built from the face table on every call, and under an action with
rho(w[0]) - I added at the word w[1:], which ``coboundary`` must reproduce
on every cochain; ``reference_site``, ``reference_simplices``,
``reference_facets`` and ``reference_parse_complex``, a site built, checked
and parsed cell by cell and entry by entry, and ``ReferenceReduction``, the
coreduction with a helper call per queue update and per path sum, which
the passes over whole levels must reproduce in cells, facets, face rows,
error messages, matching and path sums; ``reference_bar_differential``,
the dense unnormalized bar differential the bar complex once stored, which
the face table of the group's nerve and its twisted face 0 must reproduce
entry for entry on the words with no identity letter;
``UnnormalizedNerve``, the nerve with every word, whose bar complex the
normalized one must match in groups and in cocycles extended by zero;
``ses_failure``, the earlier criterion for a short exact
sequence; ``degreewise_failure``, the same criterion applied to the dense
cochain-level maps I_k (x) h (``cech_induced``), which ``connecting`` once
re-checked in every degree and which must reach the coefficient-level
verdict; ``reference_smith``, the dense SNF kernel whose output the sparse
one must reproduce bit for bit; ``reference_integral_degree``, one SNF of
the whole integral coboundary of a site or nerve, which the SNF of its
coreduced Morse complex must reproduce in groups, diagonal and class
coordinates up to an automorphism; and ``MembershipTerms``, the spectral terms
solved as lattices in the total cochain group, which the sums over
elementary pieces must match group for group.
"""

from __future__ import annotations

import itertools
from collections import deque
from math import gcd

from cechtower import _intlin
from cechtower.abelian import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    hom_invariants,
    is_exact_at,
    presentation_group,
)
from cechtower.cochain import (
    GENERATOR_BUDGET,
    CochainComplex,
    GroupNerve,
    _check_coboundary_budget,
    _IntegralDegree,
    bar_complex,
    cech_coboundary,
    cech_complex,
    check_dense_budget,
)
from cechtower.errors import BudgetExceededError, SchemaError, ValidationError, VerificationError
from cechtower.spectral import SpectralTerms


def coboundary_rows(x, p: int, width: int, offset: int = 0) -> list:
    """The integral d_p as dense rows of ``width`` ints, one per (p+1)-cell,
    with the p-cell f at column offset + f."""
    rows = []
    for faces in x.faces(p + 1):
        row = [0] * width
        for f, v in faces:
            row[offset + f] = v
        rows.append(row)
    return rows


def reference_differential(complex_, p: int) -> Homomorphism:
    """d_p of a cochain complex as a dense matrix, built from the face table
    and refused before any row is built when it would pass
    ``COBOUNDARY_ENTRY_BUDGET``.  Under an action, face 0 of each word w
    adds rho(w[0]) - I at the word w[1:], on top of the face table."""
    src, tgt = complex_.group(p), complex_.group(p + 1)
    check_dense_budget(f"coboundary {p}", tgt.ngens, src.ngens)
    ng, k, k1 = complex_.coefficients.ngens, complex_.ncells(p), complex_.ncells(p + 1)
    rows = [row for g in range(ng)
            for row in coboundary_rows(complex_.base, p, src.ngens, g * k)]
    if complex_.action is not None and p >= 0:
        below = complex_.base.cell_indices(p)
        for t, w in enumerate(complex_.base.cells(p + 1)):
            rho, f = complex_.action.action[w[0]], below[w[1:]]
            for i in range(ng):
                for j in range(ng):
                    rows[i * k1 + t][j * k + f] += rho[i][j] - (i == j)
    return Homomorphism(src, tgt, rows)


def bareiss_det(mat) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(mat)
    if n == 0:
        return 1
    m = [list(r) for r in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def is_divisor_chain(diag) -> bool:
    vals = [d for d in diag]
    for a, b in zip(vals, vals[1:]):
        if a < 0 or b < 0:
            return False
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a != 0:
            return False
    return True


def _sparse_rows(matrix):
    return [[(j, v) for j, v in enumerate(row) if v] for row in matrix]


def _apply_sparse(sparse, orders, vec):
    out = []
    for row, o in zip(sparse, orders):
        s = 0
        for j, v in row:
            if vec[j]:
                s += v * vec[j]
        out.append(s % o if o else s)
    return tuple(out)


def _enumerate_coords(group: FgAbGroup):
    if group.free_rank:
        raise ValueError("cannot enumerate an infinite group")
    return itertools.product(*(range(d) for d in group.torsion))


def _divisors(n: int):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _factorize(n: int) -> dict[int, int]:
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def group_from_torsion_counts(total: int, torsion_count) -> FgAbGroup:
    """Reconstruct a finite abelian group from |G| and m -> |G[m]| counts.

    For the p-part of type (p^{e_1},...,p^{e_t}) the count of elements
    killed by p^k has p-logarithm n_k = sum_i min(k, e_i), so n_k - n_{k-1}
    is the number of factors with exponent >= k; that pins the partition,
    and the per-prime partitions merge into invariant factors.
    """
    if total == 1:
        return FgAbGroup(0, ())
    per_prime: dict[int, list[int]] = {}
    for p, vmax in _factorize(total).items():
        logs = [0]
        for k in range(1, vmax + 1):
            c = torsion_count(p ** k)
            e = 0
            while c % p == 0:
                c //= p
                e += 1
            assert c == 1, "subgroup count must be a power of p"
            logs.append(e)
        geq = [logs[k] - logs[k - 1] for k in range(1, len(logs))]
        exps = []
        for k in range(len(geq), 0, -1):
            exact = geq[k - 1] - (geq[k] if k < len(geq) else 0)
            exps.extend([k] * exact)
        per_prime[p] = exps  # descending exponents
    width = max(len(v) for v in per_prime.values())
    factors = []
    for j in range(width):
        d = 1
        for p, exps in per_prime.items():
            if j < len(exps):
                d *= p ** exps[j]
        factors.append(d)
    return FgAbGroup(0, tuple(sorted(factors)))


def brute_cohomology(complex_, p: int, budget: int = 1 << 16) -> FgAbGroup:
    """Cohomology at degree p by full enumeration (no SNF anywhere).

    Scans all cochains for cocycles, materializes the coboundary set, and
    reconstructs the quotient's invariant factors from element-order
    counts.  Requires finite cochain groups within the budget.
    """
    amb = complex_.group(p)
    if amb.free_rank or (amb.order() or 1) > budget:
        raise ValueError("degree-p cochain group too large to enumerate")
    below = complex_.group(p - 1) if p > 0 else None
    if below is not None and (below.free_rank or (below.order() or 1) > budget):
        raise ValueError("degree-(p-1) cochain group too large to enumerate")

    out_diff = reference_differential(complex_, p)
    out_sparse = _sparse_rows(out_diff.matrix)
    out_orders = out_diff.target.orders
    cocycles = [v for v in _enumerate_coords(amb)
                if all(c == 0 for c in _apply_sparse(out_sparse, out_orders, v))]

    if p > 0:
        in_diff = reference_differential(complex_, p - 1)
        in_sparse = _sparse_rows(in_diff.matrix)
        bset = {_apply_sparse(in_sparse, amb.orders, w)
                for w in _enumerate_coords(below)}
    else:
        bset = {tuple([0] * amb.ngens)}

    assert len(cocycles) % len(bset) == 0
    total = len(cocycles) // len(bset)
    exponent = amb.torsion[-1] if amb.torsion else 1

    def torsion_count(m: int) -> int:
        hits = 0
        for z in cocycles:
            scaled = tuple((m * c) % o for c, o in zip(z, amb.orders))
            if scaled in bset:
                hits += 1
        assert hits % len(bset) == 0
        return hits // len(bset)

    if total == 1:
        return FgAbGroup(0, ())
    count_cache = {m: torsion_count(m) for m in _divisors(exponent)}
    return group_from_torsion_counts(total, lambda m: count_cache[gcd(m, exponent)])


def coboundary_set(complex_, p: int, budget: int = 1 << 16):
    """All normalized coboundaries in degree p, as a set of coord tuples."""
    if p == 0:
        return {tuple([0] * complex_.group(0).ngens)}
    below = complex_.group(p - 1)
    if below.free_rank or (below.order() or 1) > budget:
        raise ValueError("degree-(p-1) cochain group too large to enumerate")
    amb = complex_.group(p)
    sparse = _sparse_rows(reference_differential(complex_, p - 1).matrix)
    return {_apply_sparse(sparse, amb.orders, w) for w in _enumerate_coords(below)}


def exhaustive_solve(h: Homomorphism, y: GroupElement, budget: int = 1 << 16):
    """First solution of h(x) = y in enumeration order, by full search."""
    src = h.source
    if src.free_rank or (src.order() or 1) > budget:
        raise ValueError("source too large to enumerate")
    for coords in _enumerate_coords(src):
        x = GroupElement(src, coords)
        if h.apply(x) == y:
            return x
    return None


def subgroup_elements(gens, add, zero):
    """Closure of a generating set under a binary operation (small sets)."""
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = add(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def brute_connecting(comp_a, comp_b, comp_c, iota: Homomorphism,
                     pi: Homomorphism, c_coords, p: int) -> tuple[int, ...]:
    """A connecting cocycle of the degree-p cocycle ``c_coords`` by search.

    Each cell value is lifted through pi by ``exhaustive_solve`` (a
    section unrelated to the package's canonical one), the lift is sent
    through the dense coboundary of the middle complex, and each cell value
    of the image is pulled back through iota by search.  Finite groups only.
    """
    k, k1 = comp_c.ncells(p), comp_c.ncells(p + 1)
    na, nb, nc = iota.source.ngens, pi.source.ngens, pi.target.ngens
    lift = [0] * (nb * k)
    for s in range(k):
        value = GroupElement(pi.target, tuple(c_coords[g * k + s] for g in range(nc)))
        pre = exhaustive_solve(pi, value)
        for g in range(nb):
            lift[g * k + s] = pre.coords[g]
    image = _apply_sparse(_sparse_rows(reference_differential(comp_b, p).matrix),
                          comp_b.group(p + 1).orders, lift)
    out = [0] * (na * k1)
    for s in range(k1):
        value = GroupElement(iota.target, tuple(image[g * k1 + s] for g in range(nb)))
        back = exhaustive_solve(iota, value)
        if back is None:
            raise AssertionError("coboundary of the lift left the image of iota")
        for g in range(na):
            out[g * k1 + s] = back.coords[g]
    return comp_a.group(p + 1).normalize(out)


class UnnormalizedNerve(GroupNerve):
    """The nerve of a finite group H with every word of H^p as a p-cell,
    identity letters included, in lexicographic order: the base of the
    unnormalized bar complex, which the normalized nerve is held to.
    Face 0 of w drops w[0], face j (0 < j < p) multiplies w[j-1]·w[j] and
    face p drops w[p-1], with incidence (-1)^j; coinciding faces are summed
    into one entry of the row, and one whose incidences cancel is left out.
    A subclass of ``GroupNerve`` so that a complex over it accepts an
    action; it never compares equal to a normalized nerve."""

    def __init__(self, group, top: int):
        table = group.table
        cells = tuple(tuple(itertools.product(range(group.order), repeat=p))
                      for p in range(top + 1))
        index = tuple({w: i for i, w in enumerate(level)} for level in cells)
        faces = [((),)]
        for p in range(1, top + 1):
            rows = []
            for w in cells[p]:
                words = ([w[1:]] + [w[:j - 1] + (table[w[j - 1]][w[j]],) + w[j + 1:]
                                    for j in range(1, p)] + [w[:-1]])
                row = {}
                for j, face in enumerate(words):
                    f = index[p - 1][face]
                    row[f] = row.get(f, 0) + (-1) ** j
                rows.append(tuple((f, v) for f, v in row.items() if v))
            faces.append(tuple(rows))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_faces", tuple(faces))
        object.__setattr__(self, "_hash", hash(("unnormalized", group, top)))


def unnormalized_bar_complex(action, max_degree: int) -> CochainComplex:
    """``bar_complex(action, max_degree)`` with the unnormalized nerve as its base."""
    c = bar_complex(action, max_degree)
    return CochainComplex(UnnormalizedNerve(action.group, max_degree + 1), c.coefficients, c.action)


def normalized_rows(action, p: int, rows) -> list[list[int]]:
    """A dense d_p of the unnormalized bar complex of ``action`` (as from
    ``reference_bar_differential``) restricted to the rows and columns of
    the words with no identity letter, in the same order."""
    m, e, ng = action.group.order, action.group.identity, action.module.ngens

    def kept(n: int) -> list[int]:
        words = [i for i, w in enumerate(itertools.product(range(m), repeat=n)) if e not in w]
        return [g * m ** n + i for g in range(ng) for i in words]

    cols = kept(p)
    return [[rows[r][c] for c in cols] for r in kept(p + 1)]


def reference_bar_differential(action, p: int) -> list[list[int]]:
    """The dense d_p of the unnormalized bar complex of ``action``, built
    word by word: rho(w[0]) on the word w[1:], (-1)^i on w with letters i
    and i+1 (counted from 1) multiplied, and (-1)^(p+1) on w[:p].  Rows run
    over the words of length p+1 and columns over those of length p, both
    in lexicographic order and generator-major."""
    table, ng = action.group.table, action.module.ngens
    src, tgt = (list(itertools.product(range(action.group.order), repeat=n))
                for n in (p, p + 1))
    index = {w: i for i, w in enumerate(src)}
    k0, k1 = len(src), len(tgt)
    rows = [[0] * (ng * k0) for _ in range(ng * k1)]
    for ti, w in enumerate(tgt):
        rho = action.action[w[0]]
        si = index[w[1:]]
        for gt in range(ng):
            for gs in range(ng):
                rows[gt * k1 + ti][gs * k0 + si] += rho[gt][gs]
        for i in range(1, p + 1):
            si = index[w[:i - 1] + (table[w[i - 1]][w[i]],) + w[i + 1:]]
            for g in range(ng):
                rows[g * k1 + ti][g * k0 + si] += -1 if i % 2 else 1
        si = index[w[:p]]
        for g in range(ng):
            rows[g * k1 + ti][g * k0 + si] += -1 if (p + 1) % 2 else 1
    return rows


def ses_failure(iota: Homomorphism, pi: Homomorphism):
    """The first node at which 0 -> A -> B -> C -> 0 fails to be exact, as
    the prefix of its refusal message, or None for an exact sequence: the
    kernel of iota and the cokernel of pi by ``hom_invariants``, then
    ``is_exact_at(iota, pi)``."""
    if not hom_invariants(iota).kernel.is_trivial:
        return "iota is not injective"
    if not hom_invariants(pi).cokernel.is_trivial:
        return "pi is not surjective"
    if not is_exact_at(iota, pi).ok:
        return "not exact at the middle group"
    return None


def cellwise(cols, k: int) -> list[list[int]]:
    """Each coefficient vector of ``cols`` on each of k cells, in generator-
    major coordinates of L^k: entry j*k + s is cols[j] on cell s."""
    return [[col[i // k] if i % k == s else 0 for i in range(len(col) * k)]
            for col in cols for s in range(k)]


def cech_induced(x, h: Homomorphism, p: int) -> Homomorphism:
    """The dense cochain-level map I_k (x) h: C^p(X, source) -> C^p(X, target)
    of a coefficient homomorphism h, its columns placed on each cell."""
    src, tgt = cech_complex(x, h.source).group(p), cech_complex(x, h.target).group(p)
    cols = cellwise(h.columns(), len(x.cells(p)))
    return Homomorphism(src, tgt, _intlin.columns_to_matrix(cols, tgt.ngens))


def degreewise_failure(x, iota: Homomorphism, pi: Homomorphism, p: int):
    """The first node at which 0 -> C^p(X; A) -> C^p(X; B) -> C^p(X; C) -> 0
    fails to be exact, named as by ``ses_failure``, or None: the kernel of
    I_k (x) iota and the cokernel of I_k (x) pi by ``hom_invariants``, then
    ``is_exact_at`` of the pair, all on the dense cochain-level maps."""
    iota_p = cech_induced(x, iota, p)
    pi_p = cech_induced(x, pi, p)
    if not hom_invariants(iota_p).kernel.is_trivial:
        return "iota is not injective"
    if not hom_invariants(pi_p).cokernel.is_trivial:
        return "pi is not surjective"
    if not is_exact_at(iota_p, pi_p).ok:
        return "not exact at the middle group"
    return None


# The dense SNF kernel: the reference whose row and column operations
# `cechtower._kernels.smith_with_transforms` repeats, over the nonzeros only.

ALL_TRANSFORMS = frozenset(("U", "Uinv", "V", "Vinv"))


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def reference_smith(mat, transforms=ALL_TRANSFORMS):
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


# The integral data of one degree from one SNF of the whole integral
# coboundary: the reference `cechtower.cochain._integral_degree`, which runs
# its SNF on the critical cells of a coreduction, must agree with.

def reference_pull_back(x, p: int, w) -> list[int]:
    """The row w d_{p-1}, for a row w on C^p(X; Z), from the face table."""
    out = [0] * len(x.cells(p - 1))
    for wt, faces in zip(w, x.faces(p)):
        if wt:
            for f, v in faces:
                out[f] += v * wt
    return out


def reference_integral_degree(x, p: int) -> _IntegralDegree:
    """Degree-p integral data of a site or nerve: one SNF U d_p V = D of
    the integral coboundary, with every dense integral coboundary
    (k_{p+1} x k_p) and SNF transform (k_p x k_p) of the site within the
    entry budget.  im d_{p-1} in V-coordinates is V^-1 d_{p-1}; its rows
    below the rank vanish, and the columns of the others present H^p(X; Z)."""
    counts = [len(x.cells(d)) for d in range(x.dim + 1)]
    for d, (k, above) in enumerate(itertools.pairwise(counts + [0])):
        check_dense_budget(f"coboundary {d}", above, k)
        check_dense_budget(f"the SNF transforms of integral coboundary {d}", k, k)
    k = len(x.cells(p))
    res = _intlin.snf(coboundary_rows(x, p, k), len(x.cells(p + 1)), k,
                      _intlin.LATTICE)
    free = res.n - res.rank
    image_rows = [reference_pull_back(x, p, row) for row in res.Vinv[res.rank:]]
    pres = _intlin.present_cokernel(free, [list(col) for col in zip(*image_rows)])
    return _IntegralDegree(res.diag[:res.rank], res.V_cols, res.Vinv, pres)


# Sites and their coreduction cell by cell, as the package built them before
# each pass ran over whole levels at once: the references
# `cechtower.cochain.SimplicialComplex` and `_Reduction` must agree with, in
# cells, facets, face rows, error messages, the matching and its path sums.

def reference_simplices(vertex_count: int, simplices) -> tuple:
    """The face table of a closure, cell by cell: (index, faces), one dict
    and one tuple of signed face rows per degree."""
    if vertex_count <= 0:
        raise ValidationError("vertex_count must be positive")
    index = tuple({s: i for i, s in enumerate(level)} for level in simplices)
    faces = [((),) * len(index[0])]
    for p in range(1, len(index)):
        rows = []
        for s in simplices[p]:
            rows.append(tuple((index[p - 1][s[:j] + s[j + 1:]], -1 if j & 1 else 1)
                              for j in range(p + 1)))
        faces.append(tuple(rows))
    return index, tuple(faces)


def reference_facets(simplices) -> tuple:
    """The maximal simplices of a closure, by dimension then
    lexicographically: the cells that no cell one dimension up contains."""
    above = (*simplices[1:], ())
    return tuple(s for level, up in zip(simplices, above) for s in level
                 if not any(set(s) < set(t) for t in up))


def reference_site(vertex_count: int, facets) -> tuple:
    """``SimplicialComplex`` facet by facet and face by face, with the same
    checks and messages: (simplices, index, faces)."""
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
    return (simplices, *reference_simplices(vertex_count, simplices))


def reference_parse_complex(doc: dict, path: str) -> tuple:
    """``jsonio.parse_complex`` on a document with both fields, checking
    each facet entry on its own path: ``reference_site`` of the result."""
    vc = doc["vertex_count"]
    facets = []
    for i, f in enumerate(doc["facets"]):
        if not isinstance(f, list):
            raise SchemaError(f"{path}.facets[{i}]", "expected an array")
        for j, v in enumerate(f):
            if not isinstance(v, int) or isinstance(v, bool):
                raise SchemaError(f"{path}.facets[{i}][{j}]", "expected an integer")
        facets.append(list(f))
    if vc <= 0:
        raise SchemaError(f"{path}.vertex_count", "vertex_count must be positive")
    try:
        return reference_site(vc, facets)
    except ValidationError as e:
        raise SchemaError(f"{path}.facets", str(e)) from None


class ReferenceReduction:
    """``cechtower.cochain._Reduction`` with a helper per queue update and
    per path sum: the same matching in the same order, the same critical
    cells, Morse coboundaries and maps R and E."""

    def __init__(self, x):
        dim = x.dim
        counts = [len(x.cells(p)) for p in range(dim + 1)]
        faces = [x.faces(p) for p in range(dim + 1)]
        cofaces = [[[] for _ in range(k)] for k in counts]
        for p in range(1, dim + 1):
            below = cofaces[p - 1]
            for t, row in enumerate(faces[p]):
                for f, v in row:
                    below[f].append((t, v))

        left = [[len(row) for row in level] for level in faces]
        gone = [bytearray(k) for k in counts]
        queue = deque((p, t) for p in range(1, dim + 1)
                      for t, n in enumerate(left[p]) if n == 1)
        pairs = []
        critical = [[] for _ in counts]
        restrict = [[{} for _ in range(k)] for k in counts]
        extend = [[{} for _ in range(k)] for k in counts]

        def remove(p: int, s: int) -> None:
            if p < dim:
                above = left[p + 1]
                for t, _ in cofaces[p][s]:
                    above[t] -= 1
                    if above[t] == 1:
                        queue.append((p + 1, t))

        def drain() -> None:
            while queue:
                p, t = queue.popleft()
                if gone[p][t] or left[p][t] != 1:
                    continue
                s, v = next((f, v) for f, v in faces[p][t] if not gone[p - 1][f])
                if v in (1, -1):
                    gone[p - 1][s] = gone[p][t] = 1
                    pairs.append((p - 1, s, t, v))
                    remove(p - 1, s)
                    remove(p, t)

        drain()
        for p, k in enumerate(counts):
            for s in range(k):
                if not gone[p][s]:
                    gone[p][s] = 1
                    restrict[p][s] = extend[p][s] = {len(critical[p]): 1}
                    critical[p].append(s)
                    remove(p, s)
                    drain()
        _check_coboundary_budget([len(c) for c in critical])

        for p, s, t, v in pairs:
            extend[p][s] = _path_sum(faces[p + 1][t], s, -v, extend[p])
        for p, s, t, v in reversed(pairs):
            restrict[p + 1][t] = _path_sum(cofaces[p][s], t, -v, restrict[p + 1])
        morse = []
        for p, crit in enumerate(critical):
            rows = [[0] * len(crit) for _ in critical[p + 1]] if p < dim else []
            for i, s in enumerate(crit):
                for t, w in cofaces[p][s]:
                    for j, a in restrict[p + 1][t].items():
                        rows[j][i] += w * a
            morse.append(rows)
        self._critical = tuple(tuple(c) for c in critical)
        self._pairs = tuple(sum(1 for q, *_ in pairs if q == p) for p in range(dim + 1))
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


def _path_sum(neighbours, skip: int, scale: int, sums: list) -> dict:
    """scale * sum of w * sums[n] over the (n, w) in ``neighbours`` with
    n != skip, as a sparse {critical index: entry} with no zero entry."""
    acc = {}
    for n, w in neighbours:
        if n != skip:
            for i, a in sums[n].items():
                acc[i] = acc.get(i, 0) + scale * w * a
    return {i: a for i, a in acc.items() if a}


# The spectral terms from their membership definitions, solved in the total
# cochain group L^k: the reference `cechtower.spectral.filtered_terms`, which
# sums the elementary pieces of C*(X; Z), must agree with.

class MembershipTerms:
    """The terms of a ``FilteredComplex`` from the defining conditions

        Z_r^{pq} = {x in V_p ∩ C^{p+q} : dx in V_{p+r}},
        B_r^{pq} = d(V_{p-r}) ∩ V_p ∩ C^{p+q},
        E_r^{pq} = Z_r^{pq} / (B_{r-1}^{pq} + Z_{r-1}^{p+1,q-1}),

    solved exactly by lattice arithmetic in C^n(X; L), L the direct sum,
    with no intersection: B_r^{pq} is d(Z_r^{p-r,q+r-1}) plus the
    relations.  ``r=None`` is the limit page (dx = 0 / global boundaries).

    Every term is one ``Lattice`` memoized under a key free of r: Z_r^{pq}
    reads r only through its target index min(p+r, depth+1) and B_r^{pq}
    only through its source index max(p-r, 1).  New lattices are generated
    from the bases of memoized ones.
    """

    def __init__(self, f):
        self.site = f.site
        self.depth = f.depth
        self.embeddings = f.embeddings
        self.total_group = f.embeddings[0].target
        self.total = cech_complex(self.site, self.total_group)
        self._memo = {}

    def _memoized(self, key: tuple, compute):
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = compute()
        return hit

    def z_target(self, r, p: int) -> int:
        return self.depth + 1 if r is None else min(p + r, self.depth + 1)

    def b_source(self, r, p: int) -> int:
        return 1 if r is None else max(p - r, 1)

    def v_basis(self, p: int, n: int) -> list[list[int]]:
        """A basis of V_p = C^n(X, W_p), W_p in Z^g spanned by summands p..
        and the relations, as a basis of W_p on each cell (1-based
        filtration index; p <= 1 is everything, p > depth the relations)."""
        p = min(max(p, 1), self.depth + 1)
        return self._memoized(("V", p, n), lambda: self._compute_v(p, n))

    def _compute_v(self, p: int, n: int) -> list[list[int]]:
        total = self.total_group
        gens = [col for emb in self.embeddings[p - 1:] for col in emb.columns()]
        w = _intlin.Lattice(total.ngens, gens + _intlin.relation_columns(total.orders))
        return cellwise(w.basis, len(self.site.cells(n)))

    def z_lattice(self, r, p: int, q: int) -> _intlin.Lattice:
        """{x in V_p ∩ C^{p+q} : dx in V_{p+r}} (r=None: dx = 0)."""
        t = self.z_target(r, p)
        return self._memoized(("Z", t, p, q), lambda: self._compute_z(t, p, q))

    def _compute_z(self, t: int, p: int, q: int) -> _intlin.Lattice:
        """The preimage of V_t under d on V_p; V_p itself when t <= p,
        since d(V_p) lies in V_p, which lies in V_t."""
        n = p + q
        amb = self.total.group(n)
        vp = self.v_basis(p, n)
        if t <= p:
            return _intlin.Lattice(amb.ngens, vp)
        g = self.total_group.ngens
        image_cols = [cech_coboundary(self.site, n, b, g) for b in vp]
        coeffs = _intlin.lattice_preimage_gens(
            image_cols, self.total.group(n + 1).ngens, self.v_basis(t, n + 1))
        return _intlin.Lattice(
            amb.ngens, [_intlin.lin_comb(vp, c, amb.ngens) for c in coeffs])

    def b_lattice(self, r, p: int, q: int) -> _intlin.Lattice:
        """d(V_{p-r}) ∩ V_p in degree p+q (r=None: d of all of V_1)."""
        s = self.b_source(r, p)
        return self._memoized(("B", s, p, q), lambda: self._compute_b(s, p, q))

    def _compute_b(self, s: int, p: int, q: int) -> _intlin.Lattice:
        """d(V_s) ∩ V_p = d{y in V_s ∩ C^{n-1} : dy in V_p} + relations,
        n = p+q: dy + rho lies in V_p exactly when dy does."""
        n = p + q
        amb = self.total.group(n)
        rel = _intlin.relation_columns(amb.orders)
        if n - 1 < 0:
            return _intlin.Lattice(amb.ngens, rel)
        g = self.total_group.ngens
        image = [cech_coboundary(self.site, n - 1, y, g)
                 for y in self.z_lattice(p - s, s, n - 1 - s).basis]
        return _intlin.Lattice(amb.ngens, image + rel)

    def terms(self, r, p: int, q: int) -> SpectralTerms:
        """Z, B, E at one grid point, each presented over its lattice."""
        prev_r = None if r is None else r - 1
        rel = _intlin.relation_columns(self.total.group(p + q).orders)
        z_lat = self.z_lattice(r, p, q)
        b_lat = self.b_lattice(r, p, q)
        if not z_lat.contains_lattice(b_lat):
            raise VerificationError("boundary term escaped the cycle term")
        e_rel = self.b_lattice(prev_r, p, q).basis + self.z_lattice(prev_r, p + 1, q - 1).basis
        return SpectralTerms(r, p, q, *(
            presentation_group(_intlin.present_quotient(num, den))
            for num, den in ((z_lat, rel), (b_lat, rel), (z_lat, e_rel))))
