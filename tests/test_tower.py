import random

import pytest

from cechtower.abelian import Homomorphism, cyclic_group, free_group
from cechtower.cochain import (
    cech_complex,
    coboundary,
    cochain_from_values,
    cohomology,
    zero_cochain,
)
from cechtower.errors import ValidationError
from cechtower.exactseq import validate_ses
from cechtower.tower import (
    TowerSpec,
    compare_towers,
    tower_classes,
    verify_tower,
)

Z2 = cyclic_group(2)
Z4 = cyclic_group(4)


def bockstein():
    return validate_ses(Z2, Z4, Z2,
                        Homomorphism(Z2, Z4, ((2,),)),
                        Homomorphism(Z4, Z2, ((1,),)))


def h2_generator(x):
    comp = cech_complex(x, Z2)
    return cohomology(comp, 2).representatives[0]


class TestTowerSpec:
    def test_chain_compatibility_enforced(self, srp2):
        z3 = cyclic_group(3)
        z9 = cyclic_group(9)
        wrong = validate_ses(z3, z9, z3,
                             Homomorphism(z3, z9, ((3,),)),
                             Homomorphism(z9, z3, ((1,),)))
        with pytest.raises(ValidationError, match="band chain"):
            TowerSpec(srp2, h2_generator(srp2), (wrong,))

    def test_non_cocycle_rejected(self, srp2):
        comp = cech_complex(srp2, Z2)
        bad = cochain_from_values(comp, 2, {srp2.cells(2)[0]: [1]})
        with pytest.raises(ValidationError, match="cocycle"):
            TowerSpec(srp2, bad, (bockstein(),))

    def test_wrong_degree_rejected(self, srp2):
        comp = cech_complex(srp2, Z2)
        with pytest.raises(ValidationError, match="degree 2"):
            TowerSpec(srp2, zero_cochain(comp, 1), (bockstein(),))

    def test_bands(self, srp2):
        spec = TowerSpec(srp2, h2_generator(srp2), (bockstein(), bockstein()))
        assert spec.bands == (Z2, Z2, Z2)


class TestTowerClasses:
    def test_zero_base_gives_zero_tower(self, srp2):
        comp = cech_complex(srp2, Z2)
        spec = TowerSpec(srp2, zero_cochain(comp, 2),
                         (bockstein(), bockstein(), bockstein()))
        result = tower_classes(spec)
        assert all(cls.is_zero for cls in result.stages)

    def test_single_bockstein_on_suspended_rp2(self, srp2):
        spec = TowerSpec(srp2, h2_generator(srp2), (bockstein(),))
        result = tower_classes(spec)
        assert [cls.degree for cls in result.stages] == [2, 3]
        assert result.stage(2).coords == (1,)
        assert result.stage(3).group == Z2
        assert result.stage(3).coords == (1,)

    def test_double_bockstein_signature(self, srp2):
        spec = TowerSpec(srp2, h2_generator(srp2), (bockstein(), bockstein()))
        result = tower_classes(spec)
        assert not result.stage(2).is_zero
        assert not result.stage(3).is_zero
        assert result.stage(4).is_zero
        assert result.stage(4).group.is_trivial  # degree 4 > dim 3

    def test_degree_bound_returns_zero_groups(self, rp2):
        # the base is 2-dimensional: stages past degree 2 must be zero
        # groups, not errors, for any chain length
        spec = TowerSpec(rp2, h2_generator(rp2),
                         (bockstein(), bockstein(), bockstein()))
        result = tower_classes(spec)
        assert [cls.degree for cls in result.stages] == [2, 3, 4, 5]
        for cls in result.stages[1:]:
            assert cls.group.is_trivial and cls.is_zero

    def test_stage_representatives_are_cocycles(self, srp2):
        spec = TowerSpec(srp2, h2_generator(srp2), (bockstein(), bockstein()))
        for cls in tower_classes(spec).stages:
            assert coboundary(cls.representative).is_zero

    def test_bockstein_nilpotence_on_fixtures(self, srp2, octahedron, torus):
        # with the constant (Z/2, Z/4, Z/2) chain, the stage after next
        # always vanishes
        for x in (srp2, octahedron, torus):
            comp = cech_complex(x, Z2)
            if cohomology(comp, 2).group.is_trivial:
                continue
            spec = TowerSpec(x, cohomology(comp, 2).representatives[0],
                             (bockstein(), bockstein()))
            result = tower_classes(spec)
            assert result.stage(4).is_zero


class TestStageFunctoriality:
    def test_perturbed_base_gives_identical_coords(self, srp2):
        rng = random.Random(42)
        comp = cech_complex(srp2, Z2)
        base = h2_generator(srp2)
        spec = TowerSpec(srp2, base, (bockstein(), bockstein()))
        reference = tower_classes(spec)
        for _ in range(5):
            b = zero_cochain(comp, 1)
            b = type(b)(comp, 1, tuple(rng.randrange(2) for _ in b.coords))
            alt = TowerSpec(srp2, base + coboundary(b),
                            (bockstein(), bockstein()))
            outcome = compare_towers(reference, tower_classes(alt))
            assert outcome.equal


class TestVerifyTower:
    def test_valid_spec_passes_all_checks(self, srp2):
        spec = TowerSpec(srp2, h2_generator(srp2), (bockstein(), bockstein()))
        report = verify_tower(tower_classes(spec))
        assert report.ok
        assert len(report.checks) == 4  # 3 cocycle checks + propagation

    def test_vanishing_propagation_on_low_dimensional_base(self, rp2):
        spec = TowerSpec(rp2, h2_generator(rp2), (bockstein(), bockstein()))
        report = verify_tower(tower_classes(spec))
        assert report.ok
        assert report.classes.stage(3).is_zero
        assert report.classes.stage(4).is_zero

    def test_report_consistent_with_tower_classes(self, octahedron):
        comp = cech_complex(octahedron, Z2)
        spec = TowerSpec(octahedron, cohomology(comp, 2).representatives[0],
                         (bockstein(),))
        report = verify_tower(tower_classes(spec))
        direct = tower_classes(spec)
        assert compare_towers(report.classes, direct).equal


class TestCompareTowers:
    def test_self_comparison(self, srp2):
        spec = TowerSpec(srp2, h2_generator(srp2), (bockstein(),))
        t = tower_classes(spec)
        assert compare_towers(t, t).equal

    def test_zero_vs_generator_differ_at_stage_two(self, srp2):
        comp = cech_complex(srp2, Z2)
        t1 = tower_classes(TowerSpec(srp2, zero_cochain(comp, 2),
                                     (bockstein(),)))
        t2 = tower_classes(TowerSpec(srp2, h2_generator(srp2), (bockstein(),)))
        outcome = compare_towers(t1, t2)
        assert not outcome.equal
        assert outcome.first_differing_stage == 2

    def test_mismatched_complexes_rejected(self, srp2, rp2):
        t1 = tower_classes(TowerSpec(srp2, h2_generator(srp2), (bockstein(),)))
        t2 = tower_classes(TowerSpec(rp2, h2_generator(rp2), (bockstein(),)))
        with pytest.raises(ValidationError, match="different complexes"):
            compare_towers(t1, t2)

    def test_mismatched_bands_rejected(self, srp2):
        z = free_group(1)
        integral = validate_ses(z, z, Z2,
                                Homomorphism(z, z, ((2,),)),
                                Homomorphism(z, Z2, ((1,),)))
        t1 = tower_classes(TowerSpec(srp2, h2_generator(srp2), (bockstein(),)))
        t2 = tower_classes(TowerSpec(srp2, h2_generator(srp2), (integral,)))
        with pytest.raises(ValidationError, match="band"):
            compare_towers(t1, t2)
