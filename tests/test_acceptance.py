"""Acceptance suite: one test per exit criterion, exact tolerances.

Every criterion prints a single PASS/FAIL line to the real stdout so the
verdicts are visible regardless of pytest's capture settings.
"""

import contextlib
import json
import random
import subprocess
import sys
import time

import pytest

from cechtower.abelian import Homomorphism, cyclic_group, free_group
from cechtower.cochain import (
    SimplicialComplex,
    cech_complex,
    class_of,
    coboundary,
    cohomology,
    suspension,
    zero_cochain,
)
from cechtower.exactseq import connecting, long_exact_sequence, validate_ses
from cechtower.liftgerbe import (
    brute_force_lift,
    cyclic_table,
    lifting_obstruction,
    transition_from_values,
    validate_extension,
)
from cechtower.spectral import (
    FilteredComplex,
    check_degeneration,
    les_direct_sum,
    spectral_grid,
)
from cechtower.tower import TowerSpec, compare_towers, tower_classes, verify_tower

from .conftest import RP2_FACETS, TORUS_FACETS
from .oracles import brute_cohomology
from .test_memo import clear_memos

Z = free_group(1)
Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        sys.__stdout__.write(f"ACCEPTANCE {number} FAIL: {description}\n")
        sys.__stdout__.flush()
        raise
    sys.__stdout__.write(f"ACCEPTANCE {number} PASS: {description}\n")
    sys.__stdout__.flush()


def fresh(name):
    if name == "circle":
        return SimplicialComplex(3, [(0, 1), (0, 2), (1, 2)])
    if name == "triangle":
        return SimplicialComplex(3, [(0, 1, 2)])
    if name == "rp2":
        return SimplicialComplex(6, RP2_FACETS)
    if name == "torus":
        return SimplicialComplex(7, TORUS_FACETS)
    raise KeyError(name)


def bockstein_222():
    return validate_ses(Z2, Z4, Z2, Homomorphism(Z2, Z4, ((2,),)),
                        Homomorphism(Z4, Z2, ((1,),)))


def rp2_transition_and_extension():
    rp2 = fresh("rp2")
    comp = cech_complex(rp2, Z2)
    rep = cohomology(comp, 1).representatives[0]
    labels = {e: rep.coords[i] for i, e in enumerate(rp2.cells(1))}
    t = transition_from_values(rp2, cyclic_table(2), labels)
    ext = validate_extension(cyclic_table(4), Z2, [0, 2], [0, 1, 0, 1],
                             cyclic_table(2))
    return rp2, rep, t, ext


def test_criterion_1_fixture_cohomology():
    with criterion(1, "fixture cohomology exact, each fixture under 1 s"):
        # Cohomology is memoized by value, so equal fixtures built by an
        # earlier test would be timed warm unless every memo starts empty.
        clear_memos()
        expectations = [
            ("circle", Z, ["Z", "Z"]),
            ("triangle", Z, ["Z", "0", "0"]),
            ("rp2", Z, ["Z", "0", "Z/2"]),
            ("rp2", Z2, ["Z/2", "Z/2", "Z/2"]),
            ("torus", Z, ["Z", "Z^2", "Z"]),
        ]
        for name, coeff, labels in expectations:
            start = time.perf_counter()
            comp = cech_complex(fresh(name), coeff)
            got = [cohomology(comp, p).group.label() for p in range(len(labels))]
            elapsed = time.perf_counter() - start
            assert got == labels, (name, coeff, got)
            assert elapsed < 1.0, (name, elapsed)


def test_criterion_2_enumeration_oracle_equivalence():
    with criterion(2, "SNF cohomology equals exhaustive enumeration on all "
                      "pairs within 2^16"):
        pairs = [
            ("circle", Z2), ("circle", cyclic_group(6)),
            ("triangle", Z2), ("rp2", Z2),
        ]
        extra = [
            (SimplicialComplex(2, [(0,), (1,)]), cyclic_group(12)),
            (SimplicialComplex(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), Z4),
        ]
        cases = [(fresh(n), g) for n, g in pairs] + extra
        for x, coeff in cases:
            comp = cech_complex(x, coeff)
            for p in range(x.dim + 2):
                size = comp.group(p).order()
                assert size is not None and size <= 2 ** 16
                assert cohomology(comp, p).group == brute_cohomology(comp, p)


def test_criterion_3_connecting_suite():
    with criterion(3, "connecting morphism: 20-relift section independence, "
                      "coboundary functoriality, nonzero RP2 Bockstein"):
        ses = bockstein_222()
        rng = random.Random(99)
        for name in ("circle", "rp2", "torus"):
            x = fresh(name)
            comp = cech_complex(x, Z2)
            h1 = cohomology(comp, 1)
            reps = h1.representatives or (zero_cochain(comp, 1),)
            for rep in reps:
                base = class_of(cech_complex(x, Z2),
                                connecting(x, ses, rep)).coords
                k = comp.ncells(1)
                for _ in range(20):
                    twist = [Z2.element([rng.randrange(2)]) for _ in range(k)]
                    alt = connecting(x, ses, rep, twist=twist)
                    assert class_of(cech_complex(x, Z2), alt).coords == base
            for _ in range(5):
                b = zero_cochain(comp, 0)
                b = type(b)(comp, 0,
                            tuple(rng.randrange(2) for _ in b.coords))
                image = connecting(x, ses, coboundary(b))
                assert class_of(cech_complex(x, Z2), image).is_zero
        rp2 = fresh("rp2")
        gen = cohomology(cech_complex(rp2, Z2), 1).representatives[0]
        out = connecting(rp2, ses, gen)
        assert not class_of(cech_complex(rp2, Z2), out).is_zero


def test_criterion_4_long_exact_sequences():
    with criterion(4, "long exact sequence exact at every position on 5+ "
                      "(complex, SES) fixtures"):
        integral2 = validate_ses(Z, Z, Z2, Homomorphism(Z, Z, ((2,),)),
                                 Homomorphism(Z, Z2, ((1,),)))
        integral3 = validate_ses(Z, Z, Z3, Homomorphism(Z, Z, ((3,),)),
                                 Homomorphism(Z, Z3, ((1,),)))
        fixtures = [
            (fresh("circle"), integral2),
            (fresh("circle"), bockstein_222()),
            (fresh("rp2"), bockstein_222()),
            (fresh("rp2"), integral2),
            (fresh("torus"), integral3),
            (suspension(fresh("rp2")), bockstein_222()),
        ]
        assert len(fixtures) >= 5
        for x, ses in fixtures:
            report = long_exact_sequence(x, ses, x.dim + 1)
            assert report.ok, [e.label for e in report.exact_at if not e.ok]


def test_criterion_5_tower_suite():
    with criterion(5, "tower: stage cocycles, perturbation stability, "
                      "vanishing propagation, suspended-RP2 signature, "
                      "under 30 s"):
        start = time.perf_counter()
        ses = bockstein_222()
        srp2 = suspension(fresh("rp2"))
        comp = cech_complex(srp2, Z2)
        base = cohomology(comp, 2).representatives[0]
        spec = TowerSpec(srp2, base, (ses, ses))
        result = tower_classes(spec)
        assert not result.stage(2).is_zero
        assert not result.stage(3).is_zero
        assert result.stage(4).is_zero
        for cls in result.stages:
            assert coboundary(cls.representative).is_zero
        report = verify_tower(result)
        assert report.ok
        rng = random.Random(12)
        for _ in range(3):
            b = zero_cochain(comp, 1)
            b = type(b)(comp, 1, tuple(rng.randrange(2) for _ in b.coords))
            alt = TowerSpec(srp2, base + coboundary(b), (ses, ses))
            assert compare_towers(result, tower_classes(alt)).equal
        rp2 = fresh("rp2")
        low = TowerSpec(rp2, cohomology(cech_complex(rp2, Z2),
                                        2).representatives[0],
                        (ses, ses, ses))
        low_report = verify_tower(tower_classes(low))
        assert low_report.ok
        assert all(cls.is_zero for cls in low_report.classes.stages[1:])
        assert time.perf_counter() - start < 30.0


def test_criterion_6_spectral_suite():
    with criterion(6, "spectral terms match closed forms on 3+ filtered "
                      "fixtures; direct-sum sequence exact"):
        fixtures = [
            FilteredComplex(fresh("circle"), (Z2, Z3)),
            FilteredComplex(fresh("rp2"), (Z4,)),
            FilteredComplex(fresh("rp2"), (Z2, Z4, Z)),
            FilteredComplex(fresh("torus"), (Z2, Z3)),
        ]
        assert len(fixtures) >= 3
        for f in fixtures:
            assert check_degeneration(f, spectral_grid(f, 3)).ok
        assert les_direct_sum(fresh("circle"), Z2, Z3, 2, 2).ok
        assert les_direct_sum(fresh("rp2"), Z, Z2, 2, 3).ok


def test_criterion_7_lifting_gerbe_suite():
    with criterion(7, "lifting obstruction: cocycle, section-independent, "
                      "oracle-equivalent incl. the 2^15 RP2/Z4 search under "
                      "60 s, agrees with connecting"):
        start = time.perf_counter()
        rp2, rep, t, ext = rp2_transition_and_extension()
        cochain, cls = lifting_obstruction(t, ext)
        assert coboundary(cochain).is_zero
        assert not cls.is_zero
        rng = random.Random(4)
        fibers = [[g for g in range(4) if ext.projection[g] == q]
                  for q in range(2)]
        for _ in range(20):
            section = tuple(rng.choice(f) for f in fibers)
            assert lifting_obstruction(t, ext, section=section)[1].coords == \
                cls.coords
        assert brute_force_lift(t, ext) is None  # all 2^15 states
        trivial_t = transition_from_values(rp2, ext.quotient,
                                           {e: 0 for e in rp2.cells(1)})
        _, cls0 = lifting_obstruction(trivial_t, ext)
        assert cls0.is_zero
        assert brute_force_lift(trivial_t, ext) is not None
        ses = bockstein_222()
        from cechtower.exactseq import connecting_class
        assert connecting_class(rp2, ses, rep).coords == cls.coords
        assert time.perf_counter() - start < 60.0


def test_criterion_8_cli_determinism():
    with criterion(8, "repeated CLI runs produce byte-identical output"):
        payload = json.dumps({
            "complex": {"vertex_count": 6,
                        "facets": [list(f) for f in RP2_FACETS]},
            "group": {"free_rank": 0, "torsion": [2]},
            "degree": "all"}).encode()
        runs = []
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-m", "cechtower.cli", "cohomology"],
                input=payload, capture_output=True)
            assert proc.returncode == 0
            runs.append(proc.stdout)
        assert len(set(runs)) == 1
        assert runs[0] == b'{"H0":"Z/2","H1":"Z/2","H2":"Z/2"}\n'
