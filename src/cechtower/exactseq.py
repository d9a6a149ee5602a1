"""Short exact coefficient sequences and the connecting morphism.

The connecting map lifts a cocycle through the quotient map cellwise,
takes its coboundary in the middle coefficients, and pulls the result back
through the injection.  The lift uses the canonical solution for each
coefficient generator, extended linearly per cell, so outputs are
reproducible; independence of the section is a theorem the test suite
re-proves on every fixture rather than an assumption.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache

from cechtower.abelian import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    is_exact_at,
    solve_in_group,
    trivial_group,
    zero_hom,
)
from cechtower._intlin import columns_to_matrix
from cechtower._record import Record
from cechtower.cochain import (
    Cochain,
    Cohomology,
    SimplicialComplex,
    apply_cellwise,
    cech_coboundary,
    cech_complex,
    check_degree_bound,
    class_of,
    coboundary,
    cohomology,
    map_coefficients,
)
from cechtower.errors import ValidationError, VerificationError


class ShortExactSequence(Record):
    """0 -> a -(iota)-> b -(pi)-> c -> 0, fully verified at construction:
    ``is_exact_at`` judges a, b and c in turn, the zero maps at the ends."""

    _fields = ("a", "b", "c", "iota", "pi")

    def __init__(self, a: FgAbGroup, b: FgAbGroup, c: FgAbGroup,
                 iota: Homomorphism, pi: Homomorphism):
        if iota.source != a or iota.target != b:
            raise ValidationError("iota must map the first group into the middle one")
        if pi.source != b or pi.target != c:
            raise ValidationError("pi must map the middle group onto the last one")
        nodes = (("iota is not injective", zero_hom(trivial_group(), a), iota),
                 ("pi is not surjective", pi, zero_hom(c, trivial_group())),
                 ("not exact at the middle group", iota, pi))
        for refusal, f, g in nodes:
            verdict = is_exact_at(f, g)
            if not verdict.ok:
                raise ValidationError(
                    f"{refusal} ({verdict.side}): witness {verdict.witness.coords}")
        Record.__init__(self, a, b, c, iota, pi)


def validate_ses(a: FgAbGroup, b: FgAbGroup, c: FgAbGroup,
                 iota: Homomorphism, pi: Homomorphism) -> ShortExactSequence:
    return ShortExactSequence(a, b, c, iota, pi)


@lru_cache(maxsize=256)
def _section_matrix(ses: ShortExactSequence) -> tuple[tuple[int, ...], ...]:
    """Canonical set-section of pi, one solve per generator of c.

    Linear extension of the generator images; this is a genuine section
    (pi is linear) but usually not a homomorphism, so it stays a raw
    matrix rather than a Homomorphism.
    """
    cols = []
    for g in range(ses.c.ngens):
        sol = solve_in_group(ses.pi, ses.c.generator(g))
        if sol is None:
            raise VerificationError("pi lost surjectivity after validation")
        cols.append(sol.coords)
    return tuple(map(tuple, columns_to_matrix(cols, ses.b.ngens)))


def connecting(x: SimplicialComplex, ses: ShortExactSequence, c: Cochain,
               twist: Sequence[GroupElement] | None = None) -> Cochain:
    """The degree-raising image of a cocycle under the exact sequence.

    ``twist`` optionally perturbs the lift by one kernel element per cell
    (used to verify section independence); the default lift is canonical.
    Output is a (p+1)-cocycle with coefficients in ses.a, living in the
    Cech complex of (x, ses.a).

    C^p(X; A) -> C^p(X; B) -> C^p(X; C) is a direct sum of one copy of the
    coefficient sequence per cell, so it is exact because ``ses`` was
    checked exact when it was built; nothing here re-checks it.  Every step
    works on cochain vectors cell by cell, and no matrix whose size grows
    with the cell count is built.  The image's escape from ker pi, a
    missing preimage under iota and a non-cocycle output are verification
    failures.
    """
    comp_c = cech_complex(x, ses.c)
    if c.complex != comp_c:
        raise ValidationError("cochain does not live in the C-coefficient complex of x")
    p = c.degree
    if not coboundary(c).is_zero:
        raise ValidationError("connecting morphism needs a cocycle input")

    k, k1 = comp_c.ncells(p), comp_c.ncells(p + 1)
    na, nb = ses.a.ngens, ses.b.ngens
    lift = apply_cellwise(_section_matrix(ses), c.coords, ses.c.ngens, k)
    if twist is not None:
        if len(twist) != k:
            raise ValidationError("need one twist element per cell")
        if any(t.group != ses.a for t in twist):
            raise ValidationError("twist elements must come from the kernel group")
        shift = [t.coords[g] for g in range(na) for t in twist]
        lift = [u + v for u, v in zip(lift, apply_cellwise(ses.iota.matrix, shift, na, k))]

    image = cech_coboundary(x, p, lift, nb)
    backs = []
    for s in range(k1):
        w = GroupElement(ses.b, tuple(image[s::k1]))
        if not ses.pi.apply(w).is_zero:
            raise VerificationError("coboundary of the lift escapes the kernel of pi")
        back = solve_in_group(ses.iota, w)
        if back is None:
            raise VerificationError("kernel element has no preimage under iota")
        backs.append(back.coords)

    result = Cochain(cech_complex(x, ses.a), p + 1,
                     tuple(b[g] for g in range(na) for b in backs))
    if not coboundary(result).is_zero:
        raise VerificationError("connecting morphism produced a non-cocycle")
    return result


class LesNode(Record):
    _fields = ("label", "group")


class LesExactness(Record):
    _fields = ("label", "ok", "witness")
    _defaults = {"witness": None}


class LesReport(Record):
    """The materialized sequence ...-> H^p(A) -> H^p(B) -> H^p(C) -> ...

    ``maps[i]`` goes from ``nodes[i]`` to ``nodes[i+1]``; ``exact_at`` has
    one verdict per node that has maps on both sides (every node except
    the final one, because a zero map leads in from the left).
    """

    _fields = ("nodes", "maps", "exact_at")

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.exact_at)


def _on_cohomology(source: Cohomology, target: Cohomology,
                   cochain_map: Callable[[Cochain], Cochain]) -> Homomorphism:
    """The map of cohomology groups a cochain map induces, by mapping the
    source's representatives."""
    cols = [target.coords_of(cochain_map(rep)) for rep in source.representatives]
    return Homomorphism(source.group, target.group,
                        columns_to_matrix(cols, target.group.ngens))


def long_exact_sequence(x: SimplicialComplex, ses: ShortExactSequence,
                        max_degree: int) -> LesReport:
    """Materialize the cohomology sequence of the coefficient sequence and
    check exactness at every position.  A negative ``max_degree`` and more
    than ``DEGREE_BUDGET`` degrees are refused before any is computed."""
    check_degree_bound(max_degree)
    nodes: list[LesNode] = []
    maps: list[Homomorphism] = []
    for p in range(max_degree + 1):
        ha, hb, hc = (cohomology(cech_complex(x, g), p) for g in (ses.a, ses.b, ses.c))
        nodes.append(LesNode(f"H^{p}(A)", ha.group))
        maps.append(_on_cohomology(ha, hb, lambda c: map_coefficients(x, ses.iota, c)))
        nodes.append(LesNode(f"H^{p}(B)", hb.group))
        maps.append(_on_cohomology(hb, hc, lambda c: map_coefficients(x, ses.pi, c)))
        nodes.append(LesNode(f"H^{p}(C)", hc.group))
        maps.append(_on_cohomology(hc, cohomology(cech_complex(x, ses.a), p + 1),
                                   lambda c: connecting(x, ses, c)))
    tail = cohomology(cech_complex(x, ses.a), max_degree + 1).group
    nodes.append(LesNode(f"H^{max_degree + 1}(A)", tail))

    exact = []
    incoming = zero_hom(trivial_group(), nodes[0].group)
    for i, outgoing in enumerate(maps):
        verdict = is_exact_at(incoming, outgoing)
        exact.append(LesExactness(
            nodes[i].label, verdict.ok,
            verdict.witness.coords if verdict.witness else None))
        incoming = outgoing
    return LesReport(tuple(nodes), tuple(maps), tuple(exact))


def connecting_class(x: SimplicialComplex, ses: ShortExactSequence, c: Cochain):
    """Connecting morphism followed by class projection (convenience)."""
    out = connecting(x, ses, c)
    return class_of(cech_complex(x, ses.a), out)
