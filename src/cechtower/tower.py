"""Iterated connecting morphisms along a chain of exact coefficient
sequences: the class family [c_2], [c_3], ..., [c_{n+2}].

A tower starts from a 2-cocycle and pushes its class up one degree per
chained sequence.  Stage vanishing propagates (the connecting map is a
homomorphism on classes), classes are stable under perturbing the starting
representative by a coboundary, and stages above the site dimension land
in zero groups; the verifier re-checks all of this per instance instead of
assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from cechtower.abelian import FgAbGroup
from cechtower.cochain import (
    Cochain,
    SimplicialComplex,
    cech_complex,
    class_of,
    coboundary,
    CohomologyClass,
)
from cechtower.errors import ValidationError
from cechtower.exactseq import ShortExactSequence, connecting

@dataclass(frozen=True)
class TowerSpec:
    """Base 2-cocycle plus the chain of coefficient sequences.

    Chain compatibility: the quotient term of sequence k must equal the
    kernel term of sequence k-1 (and the first quotient term must be the
    coefficient group of the base cocycle).
    """

    complex: SimplicialComplex
    c2: Cochain
    sequences: tuple[ShortExactSequence, ...]

    def __post_init__(self):
        if self.c2.complex.base != self.complex:
            raise ValidationError(
                "base cocycle must live in the Cech complex of the given site")
        if self.c2.degree != 2:
            raise ValidationError("base cocycle must have degree 2")
        if not coboundary(self.c2).is_zero:
            raise ValidationError("base cochain is not a cocycle")
        expected = self.c2.complex.coefficients
        for k, ses in enumerate(self.sequences):
            if ses.c != expected:
                raise ValidationError(
                    f"sequence {k}: quotient term {ses.c} does not continue the "
                    f"band chain (expected {expected})")
            expected = ses.a

    @property
    def bands(self) -> tuple[FgAbGroup, ...]:
        """Coefficient group of each stage: stage k+2 lives over bands[k]."""
        return (self.c2.complex.coefficients,) + tuple(s.a for s in self.sequences)


@dataclass(frozen=True)
class TowerClasses:
    """Stage k (degree k) of ``stages`` is the class [c_k] in H^k(X, band)."""

    complex: SimplicialComplex
    bands: tuple[FgAbGroup, ...]
    stages: tuple[CohomologyClass, ...]

    @property
    def representatives(self) -> tuple[Cochain, ...]:
        return tuple(s.representative for s in self.stages)

    def stage(self, degree: int) -> CohomologyClass:
        return self.stages[degree - 2]


def tower_classes(spec: TowerSpec) -> TowerClasses:
    """Run the tower: [c_2] is the class of the base cocycle and every
    chained sequence sends the previous representative through its
    connecting morphism."""
    x = spec.complex
    stages = [class_of(spec.c2.complex, spec.c2)]
    rep = spec.c2
    for ses in spec.sequences:
        rep = connecting(x, ses, rep)
        stages.append(class_of(cech_complex(x, ses.a), rep))
    return TowerClasses(x, spec.bands, tuple(stages))


@dataclass(frozen=True)
class TowerCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class TowerReport:
    classes: TowerClasses
    checks: tuple[TowerCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_tower(result: TowerClasses) -> TowerReport:
    """Re-check the cocycle condition of every stage representative of a
    computed tower and that vanishing propagates up the tower."""
    checks = []
    for cls in result.stages:
        d = coboundary(cls.representative)
        checks.append(TowerCheck(
            f"stage {cls.degree} representative is a cocycle", d.is_zero,
            f"degree {cls.degree}, coefficient group {cls.group}"))
    first_zero: Optional[int] = None
    propagation_ok = True
    for cls in result.stages:
        if first_zero is None:
            if cls.is_zero:
                first_zero = cls.degree
        elif not cls.is_zero:
            propagation_ok = False
    detail = ("no stage vanishes" if first_zero is None
              else f"first vanishing stage has degree {first_zero}")
    checks.append(TowerCheck("vanishing propagates to every later stage",
                             propagation_ok, detail))
    return TowerReport(result, tuple(checks))


@dataclass(frozen=True)
class TowerComparison:
    equal: bool
    first_differing_stage: Optional[int] = None


def compare_towers(t1: TowerClasses, t2: TowerClasses) -> TowerComparison:
    """Stagewise class-coordinate comparison over one complex and band chain."""
    if t1.complex != t2.complex:
        raise ValidationError("towers live over different complexes")
    if t1.bands != t2.bands:
        raise ValidationError("towers have different band chains")
    for s1, s2 in zip(t1.stages, t2.stages):
        if s1.coords != s2.coords:
            return TowerComparison(False, s1.degree)
    return TowerComparison(True)
