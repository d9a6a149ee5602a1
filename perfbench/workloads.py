"""Seeded request generation for the three benchmark workloads.

Every request is a CLI invocation (command, flags, JSON payload) plus the
answer the benchmark expects.  Expectations come from topology known in
closed form (integral homology of the torus, RP^2 and their suspensions,
pushed through the universal coefficient theorem) and from linear algebra
over GF(p) written here, never from the engine under test.

The seed (and the draw, one per benchmark round) only relabels vertices,
picks cocycles and shuffles the request order; the set of (complex,
coefficients, command) shapes, and therefore the cell counts and the count
of each request kind, is the same for every seed and draw.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd

WORKLOADS = ("cech_torus", "spectral_grid", "class_stream")

RP2_FACETS = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
              (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5)]
TORUS7_FACETS = sorted(
    {tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)}
    | {tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)})

# Integral homology H_0, H_1, H_2 as (free rank, torsion orders).
TORUS_HOMOLOGY = ((1, ()), (2, ()), (1, ()))
RP2_HOMOLOGY = ((1, ()), (0, (2,)), (0, ()))

Z = {"free_rank": 1, "torsion": []}
Z2 = {"free_rank": 0, "torsion": [2]}
Z3 = {"free_rank": 0, "torsion": [3]}
Z4 = {"free_rank": 0, "torsion": [4]}
Z9 = {"free_rank": 0, "torsion": [9]}
Z2_Z4 = {"free_rank": 0, "torsion": [2, 4]}
Z_Z2_Z4 = {"free_rank": 1, "torsion": [2, 4]}

# Short exact coefficient sequences 0 -> A -> B -> C -> 0.
SES = {
    "Z2>Z4>Z2": {"A": Z2, "B": Z4, "C": Z2, "iota": [[2]], "pi": [[1]]},
    "Z>Z>Z2": {"A": Z, "B": Z, "C": Z2, "iota": [[2]], "pi": [[1]]},
    "Z3>Z9>Z3": {"A": Z3, "B": Z9, "C": Z3, "iota": [[3]], "pi": [[1]]},
}

_Z2_TABLE = {"order": 2, "table": [[0, 1], [1, 0]], "identity": 0}
# Central extensions 1 -> Z/2 -> G -> Z/2 -> 1.  In Z/2 x Z/2 the element
# with index 2a+b is (a, b), so the table is XOR of indices.
EXTENSIONS = {
    "Z4": {"G": {"order": 4, "table": [[(a + b) % 4 for b in range(4)]
                                       for a in range(4)], "identity": 0},
           "L": Z2, "L_elements": [0, 2], "pi": [0, 1, 0, 1], "Q": _Z2_TABLE},
    "Z2xZ2": {"G": {"order": 4, "table": [[a ^ b for b in range(4)]
                                          for a in range(4)], "identity": 0},
              "L": Z2, "L_elements": [0, 2], "pi": [0, 1, 0, 1], "Q": _Z2_TABLE},
}


# ---------------------------------------------------------------- complexes

class Site:
    """A relabelled complex with its closed-form integral homology."""

    def __init__(self, name: str, vertex_count: int, facets, homology):
        self.name = name
        self.vertex_count = vertex_count
        self.facets = sorted(tuple(sorted(f)) for f in facets)
        self.homology = homology
        self.cells = closure(self.facets, vertex_count)
        self.cocycle_spaces: dict[tuple[int, int], CocycleSpace] = {}

    @property
    def dim(self) -> int:
        return len(self.cells) - 1

    def doc(self) -> dict:
        return {"vertex_count": self.vertex_count,
                "facets": [list(f) for f in self.facets]}


def grid_torus_facets(n: int) -> list[tuple[int, ...]]:
    """The n x n grid torus: n^2 vertices, 3n^2 edges, 2n^2 triangles."""
    def v(i, j):
        return (i % n) * n + (j % n)
    facets = []
    for i in range(n):
        for j in range(n):
            facets.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            facets.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return facets


def closure(facets, vertex_count: int) -> list[list[tuple[int, ...]]]:
    levels: dict[int, set] = {0: {(v,) for v in range(vertex_count)}}
    for f in facets:
        for size in range(1, len(f) + 1):
            for face in combinations(f, size):
                levels.setdefault(size - 1, set()).add(face)
    return [sorted(levels[p]) for p in range(max(levels) + 1)]


def relabel(rng: random.Random, name: str, vertex_count: int, facets,
            homology) -> Site:
    perm = list(range(vertex_count))
    rng.shuffle(perm)
    return Site(name, vertex_count, [tuple(perm[v] for v in f) for f in facets],
                homology)


def suspend(x: Site) -> Site:
    """Join with two apex vertices; reduced homology moves up one degree."""
    a, b = x.vertex_count, x.vertex_count + 1
    maximal = [f for f in x.facets
               if not any(set(f) < set(g) for g in x.facets)]
    facets = [f + (a,) for f in maximal] + [f + (b,) for f in maximal]
    reduced = [(x.homology[0][0] - 1, x.homology[0][1])] + list(x.homology[1:])
    return Site("S" + x.name, x.vertex_count + 2, facets,
                ((1, ()),) + tuple(reduced))


# ---------------------------------------------- universal coefficient oracle

def _prime_powers(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def invariant_form(cyclic_orders) -> dict:
    """Group doc of a direct sum of cyclic groups (order 0 means Z)."""
    free = sum(1 for o in cyclic_orders if o == 0)
    by_prime: dict[int, list[int]] = {}
    for o in cyclic_orders:
        if o > 1:
            for p, e in _prime_powers(o):
                by_prime.setdefault(p, []).append(p ** e)
    chain_len = max((len(v) for v in by_prime.values()), default=0)
    torsion = [1] * chain_len
    for powers in by_prime.values():
        powers.sort()
        for k, q in enumerate(powers):
            torsion[chain_len - len(powers) + k] *= q
    return {"free_rank": free, "torsion": torsion}


def _cyclic(group: dict) -> list[int]:
    return [0] * group["free_rank"] + list(group["torsion"])


def _hom(a: int, m: int) -> int:
    if a == 0:
        return m
    return 1 if m == 0 else gcd(a, m)


def _ext(a: int, m: int) -> int:
    if a == 0:
        return 1
    return a if m == 0 else gcd(a, m)


def cohomology_doc(homology, p: int, coeff: dict) -> dict:
    """H^p(X; G) = Hom(H_p, G) + Ext(H_{p-1}, G)."""
    def h(k):
        if 0 <= k < len(homology):
            free, tors = homology[k]
            return [0] * free + list(tors)
        return []
    parts = [_hom(a, m) for a in h(p) for m in _cyclic(coeff)]
    parts += [_ext(a, m) for a in h(p - 1) for m in _cyclic(coeff)]
    return invariant_form(parts)


def label(group: dict) -> str:
    """The CLI's display string for a group doc."""
    parts = []
    if group["free_rank"] == 1:
        parts.append("Z")
    elif group["free_rank"] > 1:
        parts.append(f"Z^{group['free_rank']}")
    parts.extend(f"Z/{d}" for d in group["torsion"])
    return " x ".join(parts) if parts else "0"


# ------------------------------------------------------ GF(p) linear algebra

def coboundary_rows(x: Site, q: int, p: int) -> list[list[int]]:
    """delta^q mod p: one row per (q+1)-cell, one column per q-cell."""
    src = x.cells[q]
    index = {s: i for i, s in enumerate(src)}
    rows = []
    for tau in (x.cells[q + 1] if q + 1 < len(x.cells) else []):
        row = [0] * len(src)
        for j in range(len(tau)):
            row[index[tau[:j] + tau[j + 1:]]] = (-1) ** j % p
        rows.append(row)
    return rows


def _rref(rows: list[list[int]], ncols: int, p: int):
    rows = [r[:] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def nullspace(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    red, pivots = _rref(rows, ncols, p)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for row, c in zip(red, pivots):
            v[c] = -row[free] % p
        basis.append(v)
    return basis


def _in_span(red: list[list[int]], pivots: list[int], v: list[int], p: int) -> bool:
    v = v[:]
    for row, c in zip(red, pivots):
        if v[c]:
            f = v[c]
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return not any(v)


class CocycleSpace:
    """Z^q(X; Z/p) with the coboundaries B^q, both over GF(p)."""

    def __init__(self, x: Site, q: int, p: int):
        n = self.n = len(x.cells[q])
        self.p = p
        self.basis = nullspace(coboundary_rows(x, q, p), n, p)
        d = coboundary_rows(x, q - 1, p) if q > 0 else []
        self._image = _rref([list(c) for c in zip(*d)], n, p)
        self.nonzero_cohomology = not all(self.is_coboundary(b) for b in self.basis)

    def is_coboundary(self, v: list[int]) -> bool:
        return _in_span(*self._image, v, self.p)

    def sample(self, rng: random.Random) -> list[int]:
        """A seeded cocycle, outside the coboundaries when H^q is nonzero."""
        while True:
            v = [0] * self.n
            for b in self.basis:
                k = rng.randrange(self.p)
                v = [(a + k * c) % self.p for a, c in zip(v, b)]
            if not self.nonzero_cohomology or not self.is_coboundary(v):
                return v


def cocycle(rng: random.Random, x: Site, q: int, p: int) -> list[int]:
    key = (q, p)
    if key not in x.cocycle_spaces:
        x.cocycle_spaces[key] = CocycleSpace(x, q, p)
    return x.cocycle_spaces[key].sample(rng)


def cochain_doc(x: Site, q: int, values: list[int]) -> dict:
    return {"degree": q,
            "values": {",".join(map(str, s)): [v]
                       for s, v in zip(x.cells[q], values)}}


# ----------------------------------------------------------------- requests

def _request(command: str, payload: dict, expect: dict, flags=()) -> dict:
    expect["verify"] = "--verify" in flags
    return {"command": command, "flags": list(flags), "payload": payload,
            "expect": expect}


def cohomology_request(x: Site, coeff: dict) -> dict:
    expect = {f"H{p}": label(cohomology_doc(x.homology, p, coeff))
              for p in range(x.dim + 1)}
    return _request("cohomology",
                    {"complex": x.doc(), "group": coeff, "degree": "all"},
                    {"kind": "cohomology", "groups": expect},
                    ["--verify"])


def spectral_request(x: Site, summands: list[dict], pages: int) -> dict:
    grid = {}
    for r in [str(k) for k in range(1, pages + 1)] + ["inf"]:
        for p, summand in enumerate(summands, start=1):
            for n in range(x.dim + 2):
                grid[f"{r}/{p}/{n - p}"] = cohomology_doc(x.homology, n, summand)
    return _request("spectral", {"complex": x.doc(), "summands": summands},
                    {"kind": "spectral", "E": grid},
                    ["--verify", "--max-degree", str(pages)])


def _modulus(ses: dict) -> int:
    return ses["C"]["torsion"][0]


def _bockstein_nonzero(x: Site, ses_name: str, q: int) -> bool | None:
    """Known values of the Bockstein on a nonzero class of H^q(X; Z/2):
    Sq^1 is an isomorphism H^1(RP^2) -> H^2(RP^2) (and after suspension),
    and vanishes on the torus (and after suspension)."""
    if ses_name not in ("Z2>Z4>Z2", "Z>Z>Z2"):
        return None
    if x.name.endswith("rp2") and q == x.dim - 1:
        return True
    if x.name.endswith("torus7") and q == x.dim - 1:
        return False
    return None


def connecting_request(rng, x: Site, ses_name: str) -> dict:
    ses = SES[ses_name]
    q = x.dim - 1
    c = cocycle(rng, x, q, _modulus(ses))
    return _request("connecting",
                    {"complex": x.doc(), "ses": ses,
                     "cochain": cochain_doc(x, q, c)},
                    {"kind": "connecting", "degree": q + 1,
                     "group": cohomology_doc(x.homology, q + 1, ses["A"]),
                     "class_nonzero": _bockstein_nonzero(x, ses_name, q)},
                    ["--verify"])


def les_request(x: Site, ses_name: str) -> dict:
    ses = SES[ses_name]
    top = x.dim + 1
    nodes = []
    for p in range(top + 1):
        for term in "ABC":
            nodes.append({"label": f"H^{p}({term})",
                          "group": cohomology_doc(x.homology, p, ses[term])})
    nodes.append({"label": f"H^{top + 1}(A)",
                  "group": cohomology_doc(x.homology, top + 1, ses["A"])})
    return _request("les", {"complex": x.doc(), "ses": ses},
                    {"kind": "les", "nodes": nodes})


def tower_request(rng, x: Site, chain: list[str]) -> dict:
    seqs = [SES[name] for name in chain]
    c2 = cocycle(rng, x, 2, _modulus(seqs[0]))
    bands = [seqs[0]["C"]] + [s["A"] for s in seqs]
    groups = [cohomology_doc(x.homology, 2 + k, band)
              for k, band in enumerate(bands)]
    return _request("tower",
                    {"complex": x.doc(), "c2": cochain_doc(x, 2, c2),
                     "sequences": seqs},
                    {"kind": "tower", "groups": groups},
                    ["--verify"])


def gerbe_request(rng, x: Site, ext_name: str) -> dict:
    """Transition data from a nontrivial class of H^1(X; Z/2).

    For Z/4 on RP^2 the obstruction is its Bockstein, which is nonzero;
    the split extension Z/2 x Z/2 is never obstructed.
    """
    t = cocycle(rng, x, 1, 2)
    transition = {",".join(map(str, e)): v for e, v in zip(x.cells[1], t)}
    return _request("gerbe-lift",
                    {"complex": x.doc(), "extension": EXTENSIONS[ext_name],
                     "transition": transition},
                    {"kind": "gerbe-lift",
                     "obstruction_zero": ext_name == "Z2xZ2"},
                    ["--verify"])


def validate_request(kind: str, value: dict) -> dict:
    return _request("validate", {"kind": kind, "value": value},
                    {"kind": "validate", "result": {"valid": True, "kind": kind}})


# -------------------------------------------------------------- workloads

# (grid size n, coefficients); the suspended 4 x 4 torus is added below.
# Nine shapes in all, so the median request is one shape (7 x 7 over Z)
# and not the boundary between two.
TORUS_ITEMS = [(4, Z_Z2_Z4), (4, Z2), (5, Z), (5, Z2), (6, Z), (6, Z2),
               (7, Z), (4, Z2_Z4)]
SUSPENDED_TORUS_ITEMS = [(4, Z2)]

# (base complex, summands, page bound).  Six mid-sized grids rather than
# two or three large ones, so that one round averages over several inputs.
SPECTRAL_ITEMS = [("rp2", [Z2, Z3], 1), ("rp2", [Z2, Z3], 2), ("rp2", [Z2, Z], 1),
                  ("rp2", [Z2, Z], 3), ("torus7", [Z2, Z3], 1),
                  ("rp2", [Z2, Z3, Z], 1)]


def _cech_torus(rng: random.Random) -> list[dict]:
    out = []
    for n, coeff in TORUS_ITEMS:
        x = relabel(rng, f"torus{n}", n * n, grid_torus_facets(n), TORUS_HOMOLOGY)
        out.append(cohomology_request(x, coeff))
    for n, coeff in SUSPENDED_TORUS_ITEMS:
        x = relabel(rng, f"torus{n}", n * n, grid_torus_facets(n), TORUS_HOMOLOGY)
        out.append(cohomology_request(suspend(x), coeff))
    return out


def _spectral_grid(rng: random.Random) -> list[dict]:
    bases = {"rp2": (6, RP2_FACETS, RP2_HOMOLOGY),
             "torus7": (7, TORUS7_FACETS, TORUS_HOMOLOGY)}
    out = []
    for name, summands, pages in SPECTRAL_ITEMS:
        vc, facets, hom = bases[name]
        out.append(spectral_request(relabel(rng, name, vc, facets, hom),
                                    summands, pages))
    return out


# Requests per kind in one class_stream round.  The first request on each
# (complex, sequence) pair fills the caches and is far slower than the rest;
# there are about a dozen such per round, so the round is long enough that
# they stay well under 5% and the 95th percentile falls among the warm
# connecting requests.  The median falls among gerbe-lift, les and tower.
CLASS_STREAM_COUNTS = {"connecting": 80, "les": 40, "tower": 40,
                       "gerbe-lift": 80, "validate": 160}


def _class_stream(rng: random.Random) -> list[dict]:
    rp2 = relabel(rng, "rp2", 6, RP2_FACETS, RP2_HOMOLOGY)
    torus = relabel(rng, "torus7", 7, TORUS7_FACETS, TORUS_HOMOLOGY)
    sites = [rp2, torus, suspend(rp2), suspend(torus)]
    ses_names = list(SES)
    towers = [["Z2>Z4>Z2", "Z2>Z4>Z2"], ["Z2>Z4>Z2", "Z>Z>Z2"],
              ["Z3>Z9>Z3", "Z3>Z9>Z3"]]
    n = CLASS_STREAM_COUNTS
    out = []
    for i in range(n["connecting"]):
        out.append(connecting_request(rng, sites[i % 4], ses_names[i // 4 % 3]))
    for i in range(n["les"]):
        out.append(les_request(sites[i % 4], ses_names[i // 4 % 3]))
    for i in range(n["tower"]):
        out.append(tower_request(rng, sites[i % 4], towers[i // 4 % 3]))
    for i in range(n["gerbe-lift"]):
        out.append(gerbe_request(rng, rp2, ("Z4", "Z2xZ2")[i % 2]))
    values = [("complex", rp2.doc()), ("complex", sites[3].doc()),
              ("ses", SES["Z3>Z9>Z3"]), ("extension", EXTENSIONS["Z4"]),
              ("group", Z_Z2_Z4)]
    for i in range(n["validate"]):
        out.append(validate_request(*values[i % len(values)]))
    rng.shuffle(out)
    return out


def generate(workload: str, seed: int, draw: int = 0) -> list[dict]:
    """The requests of one round of ``workload``, determined by ``seed``
    and ``draw``."""
    builders = {"cech_torus": _cech_torus, "spectral_grid": _spectral_grid,
                "class_stream": _class_stream}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; expected one of "
                         f"{', '.join(WORKLOADS)}")
    return builders[workload](random.Random(f"{workload}:{seed}:{draw}"))
