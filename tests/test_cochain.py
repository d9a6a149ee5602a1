import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechtower import _intlin, cochain
from cechtower.abelian import FgAbGroup, Homomorphism, cyclic_group, free_group
from cechtower.cochain import (
    Cochain,
    CochainComplex,
    GroupAction,
    GroupNerve,
    SimplicialComplex,
    bar_complex,
    cech_complex,
    class_of,
    coboundary,
    cochain_from_values,
    cohomology,
    suspension,
    trivial_action,
    zero_cochain,
)
from cechtower.errors import BudgetExceededError, ValidationError
from cechtower.liftgerbe import cyclic_table, dihedral_group, direct_product, symmetric_group

from .oracles import (
    brute_cohomology,
    coboundary_set,
    normalized_rows,
    reference_bar_differential,
    reference_differential,
    unnormalized_bar_complex,
)
from .test_cli import _cap_address_space
from .test_uct import coefficient_groups, sites

Z = free_group(1)
Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
Z6 = cyclic_group(6)

# Prints the cohomology in degree argv[1] of the bar complex of the action
# named argv[2], or "refused", then the seconds taken by the call that
# computed or refused it.
BAR_RUN = """
import sys, time
from cechtower.abelian import cyclic_group, free_group
from cechtower.cochain import GroupAction, bar_complex, cohomology, trivial_action
from cechtower.errors import BudgetExceededError
from cechtower.liftgerbe import cyclic_table, symmetric_group
z2, z3 = cyclic_table(2), cyclic_table(3)
action = {
    "Z2-trivial-on-Z2": lambda: trivial_action(z2, cyclic_group(2)),
    "Z3-trivial-on-Z2": lambda: trivial_action(z3, cyclic_group(2)),
    "trivial-group-on-Z2": lambda: trivial_action(cyclic_table(1), cyclic_group(2)),
    "S3-trivial-on-Z": lambda: trivial_action(symmetric_group(3), free_group(1)),
    "Z2-sign-on-Z3": lambda: GroupAction(z2, cyclic_group(3), (((1,),), ((2,),))),
    "Z3-doubling-on-Z7": lambda: GroupAction(z3, cyclic_group(7), (((1,),), ((2,),), ((4,),))),
}[sys.argv[2]]()
degree = int(sys.argv[1])
start = time.perf_counter()
try:
    c = bar_complex(action, degree)
    start = time.perf_counter()
    out = cohomology(c, degree).group.label()
except BudgetExceededError:
    out = "refused"
print(out, time.perf_counter() - start)
"""

# Actions of finite groups, each with the degree of its bar complex.
BAR_ACTIONS = [
    pytest.param(GroupAction(cyclic_table(2), Z3, (((1,),), ((2,),))), 4,
                 id="Z2-sign-on-Z3"),
    pytest.param(GroupAction(cyclic_table(2), Z, (((1,),), ((-1,),))), 4,
                 id="Z2-sign-on-Z"),
    pytest.param(GroupAction(cyclic_table(3), cyclic_group(7), (((1,),), ((2,),), ((4,),))),
                 3, id="Z3-doubling-on-Z7"),
    pytest.param(GroupAction(cyclic_table(2), free_group(2), (((1, 0), (0, 1)), ((0, 1), (1, 0)))),
                 3, id="Z2-swap-on-Z2"),
    pytest.param(trivial_action(symmetric_group(3), Z), 2, id="S3-trivial-on-Z"),
    pytest.param(trivial_action(cyclic_table(2), FgAbGroup(0, (2, 4))), 4,
                 id="Z2-trivial-on-Z2xZ4"),
]


def run_bar(degree, action):
    """``BAR_RUN`` in a subprocess under the memory cap: (output, seconds)."""
    proc = subprocess.run(
        [sys.executable, "-c", BAR_RUN, str(degree), action],
        capture_output=True, timeout=60, preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stderr
    out, seconds = proc.stdout.decode().split()
    return out, float(seconds)


class TestBuildComplex:
    def test_closure_of_triangle(self, full_triangle):
        assert full_triangle.simplices == (
            ((0,), (1,), (2,)), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),))

    def test_boundary_has_no_top_cell(self, circle):
        assert circle.dim == 1
        assert len(circle.cells(1)) == 3

    def test_rp2_counts(self, rp2):
        assert [len(level) for level in rp2.simplices] == [6, 15, 10]
        assert rp2.euler_characteristic() == 1

    def test_isolated_vertices_kept(self):
        x = SimplicialComplex(4, [(0, 1)])
        assert len(x.cells(0)) == 4

    def test_empty_facet_rejected(self):
        with pytest.raises(ValidationError):
            SimplicialComplex(3, [()])

    def test_vertex_out_of_range(self):
        with pytest.raises(ValidationError):
            SimplicialComplex(3, [(0, 3)])

    def test_repeated_vertex(self):
        with pytest.raises(ValidationError, match="repeated vertex"):
            SimplicialComplex(3, [(0, 0, 1)])

    def test_facets_recovered(self, rp2):
        from .conftest import RP2_FACETS
        assert set(rp2.facets) == set(RP2_FACETS)

    def test_vertex_listed_twice_counts_once(self):
        x = SimplicialComplex(2, [(0,), (1,), (1,)])
        assert x.cells(0) == ((0,), (1,))
        assert cohomology(cech_complex(x, Z), 0).group == FgAbGroup(2, ())

    def test_a_site_is_its_facets(self, rp2):
        # A repeated facet, a permuted facet and faces of facets build the
        # same closure, so the same site, hashed alike.
        from .conftest import RP2_FACETS
        x = SimplicialComplex(6, [(4, 1, 0), *RP2_FACETS[1:], RP2_FACETS[3],
                                  (0, 1), (2, 5), (3,)])
        assert x == rp2 and hash(x) == hash(rp2)
        assert x.facets == tuple(sorted(RP2_FACETS))
        assert x.simplices == rp2.simplices


class TestCechComplex:
    def test_circle_groups(self, circle):
        c = cech_complex(circle, Z)
        assert c.group(0) == FgAbGroup(3)
        assert c.group(1) == FgAbGroup(3)
        assert c.group(2).is_trivial

    def test_one_top_cell(self, full_triangle):
        c = cech_complex(full_triangle, Z2)
        assert c.group(2) == Z2

    def test_rp2_cochain_sizes(self, rp2):
        c = cech_complex(rp2, Z2)
        assert c.group(0) == FgAbGroup(0, (2,) * 6)
        assert c.group(1) == FgAbGroup(0, (2,) * 15)
        assert c.group(2) == FgAbGroup(0, (2,) * 10)

    def test_memoized_instance(self, rp2):
        assert cech_complex(rp2, Z2) is cech_complex(rp2, Z2)

    def test_oversized_dense_view_refused_before_building(self, monkeypatch):
        # The lattice path of a twisted bar complex is the only dense build
        # left.  Z/3 acting by doubling on Z/7 has 2,048 cochain generators
        # in degree 11 and 4,096 in degree 12, within the cap, but its d_11
        # as a dense matrix would be 4096 x 2048 (and the kernel SNF
        # transform 6144 x 6144): refused before one coboundary is taken.
        h = cyclic_table(3)
        comp = bar_complex(GroupAction(h, cyclic_group(7), (((1,),), ((2,),), ((4,),))), 11)

        def no_coboundary(*args):
            raise AssertionError("a coboundary was taken")

        monkeypatch.setattr(cochain, "coboundary", no_coboundary)
        with pytest.raises(BudgetExceededError, match="differential 11 .* 6144 x 6144"):
            cohomology(comp, 11)


class TestCoboundary:
    def test_vertex_indicator_on_circle(self, circle):
        c = cech_complex(circle, Z)
        f = cochain_from_values(c, 0, {(0,): [1]})
        df = coboundary(f)
        assert df.value_at((0, 1)).coords == (-1,)
        assert df.value_at((0, 2)).coords == (-1,)
        assert df.value_at((1, 2)).coords == (0,)

    def test_dd_zero_random(self, rp2):
        rng = random.Random(7)
        for coeff in (Z, Z6):
            c = cech_complex(rp2, coeff)
            for _ in range(10):
                f = zero_cochain(c, 0)
                coords = tuple(rng.randint(-9, 9) for _ in f.coords)
                f = type(f)(c, 0, coords)
                assert coboundary(coboundary(f)).is_zero

    def test_vertex_star_mod_two(self, rp2):
        c = cech_complex(rp2, Z2)
        f = cochain_from_values(c, 0, {(1,): [1]})
        df = coboundary(f)
        touching = [e for e in rp2.cells(1) if 1 in e]
        assert len(touching) == 5
        for e in rp2.cells(1):
            expected = (1,) if 1 in e else (0,)
            assert df.value_at(e).coords == expected

    def test_top_degree_lands_in_zero_group(self, circle):
        c = cech_complex(circle, Z)
        f = cochain_from_values(c, 1, {(0, 1): [1]})
        assert coboundary(f).is_zero

    def test_unknown_cell_message(self, circle):
        c = cech_complex(circle, Z)
        with pytest.raises(ValidationError,
                           match=r"^\(0, 1, 2\) is not a cell of degree 2$"):
            cochain_from_values(c, 2, {(0, 1, 2): [1]})
        with pytest.raises(ValidationError,
                           match=r"^\(0, 3\) is not a cell of degree 1$"):
            zero_cochain(c, 1).value_at((0, 3))
        bar = bar_complex(trivial_action(cyclic_table(2), Z2), 1)
        assert zero_cochain(bar, 1).value_at((1,)).coords == (0,)
        with pytest.raises(ValidationError,
                           match=r"^\(2,\) is not a cell of degree 1$"):
            zero_cochain(bar, 1).value_at((2,))


FIXTURE_EXPECTATIONS = [
    ("circle", Z, ["Z", "Z", "0"]),
    ("circle", Z2, ["Z/2", "Z/2", "0"]),
    ("full_triangle", Z, ["Z", "0", "0"]),
    ("rp2", Z, ["Z", "0", "Z/2"]),
    ("rp2", Z2, ["Z/2", "Z/2", "Z/2"]),
    ("torus", Z, ["Z", "Z^2", "Z"]),
    ("torus", Z2, ["Z/2", "Z/2 x Z/2", "Z/2"]),
]


class TestCohomology:
    @pytest.mark.parametrize("name,coeff,expected", FIXTURE_EXPECTATIONS)
    def test_fixture_values(self, name, coeff, expected, request):
        x = request.getfixturevalue(name)
        c = cech_complex(x, coeff)
        got = [cohomology(c, p).group.label() for p in range(len(expected))]
        assert got == expected

    # every complex/coefficient pair whose cochain groups stay within 2^16
    ENUMERABLE = [
        ("circle", Z2), ("circle", Z6), ("full_triangle", Z2),
        ("two_points", cyclic_group(12)), ("square", Z4), ("rp2", Z2),
    ]

    @pytest.mark.parametrize("name,coeff", ENUMERABLE)
    def test_agrees_with_enumeration_oracle(self, name, coeff, request):
        x = request.getfixturevalue(name)
        c = cech_complex(x, coeff)
        for p in range(x.dim + 2):
            assert cohomology(c, p).group == brute_cohomology(c, p)

    def test_euler_characteristic_over_prime_fields(self, rp2, torus, circle):
        for x in (rp2, torus, circle):
            for q in (2, 3, 5):
                c = cech_complex(x, cyclic_group(q))
                chain_sum = sum((-1) ** p * len(x.cells(p))
                                for p in range(x.dim + 1))
                cohom_sum = sum(
                    (-1) ** p * len(cohomology(c, p).group.torsion)
                    for p in range(x.dim + 2))
                assert chain_sum == cohom_sum == x.euler_characteristic()

    def test_degrees_beyond_dimension_are_trivial(self, circle):
        c = cech_complex(circle, Z)
        assert cohomology(c, 5).group.is_trivial


class TestClassOf:
    def test_winding_generator(self, circle):
        c = cech_complex(circle, Z)
        f = cochain_from_values(c, 1, {(0, 1): [1]})
        cl = class_of(c, f)
        assert cl.group == Z
        assert cl.coords in ((1,), (-1,))

    def test_coboundary_maps_to_zero(self, circle):
        c = cech_complex(circle, Z)
        rng = random.Random(3)
        for _ in range(5):
            b = type(zero_cochain(c, 0))(
                c, 0, tuple(rng.randint(-4, 4) for _ in range(3)))
            assert class_of(c, coboundary(b)).is_zero

    def test_rp2_top_class_detected_without_snf(self, rp2):
        # A single triangle's indicator pairs to 1 with the fundamental
        # cycle, so it represents the nonzero class; the sum of all ten
        # triangles pairs to 10 = 0 mod 2 and must be a coboundary.
        c = cech_complex(rp2, Z2)
        bset = coboundary_set(c, 2)
        one = cochain_from_values(c, 2, {rp2.cells(2)[0]: [1]})
        assert not class_of(c, one).is_zero
        assert one.coords not in bset
        total = cochain_from_values(c, 2, {t: [1] for t in rp2.cells(2)})
        assert class_of(c, total).is_zero
        assert total.coords in bset

    def test_projection_is_coboundary_invariant(self, rp2):
        c = cech_complex(rp2, Z2)
        rng = random.Random(11)
        z = cohomology(c, 1).representatives[0]
        base = class_of(c, z).coords
        for _ in range(10):
            b = type(z)(c, 0, tuple(rng.randrange(2) for _ in range(6)))
            assert class_of(c, z + coboundary(b)).coords == base

    def test_non_cocycle_rejected_with_cell(self, rp2):
        c = cech_complex(rp2, Z2)
        f = cochain_from_values(c, 1, {(0, 1): [1]})
        with pytest.raises(ValidationError, match="not a cocycle"):
            class_of(c, f)


class TestBarComplex:
    def test_z2_mod_two_line(self):
        h = cyclic_table(2)
        c = bar_complex(trivial_action(h, Z2), 4)
        assert [cohomology(c, p).group for p in range(5)] == [Z2] * 5

    def test_z2_integral(self):
        h = cyclic_table(2)
        c = bar_complex(trivial_action(h, Z), 2)
        assert [cohomology(c, p).group.label() for p in range(3)] == \
            ["Z", "0", "Z/2"]

    def test_trivial_group(self):
        h = cyclic_table(1)
        c = bar_complex(trivial_action(h, Z6), 3)
        assert cohomology(c, 0).group == Z6
        assert all(cohomology(c, p).group.is_trivial for p in (1, 2, 3))

    def test_agrees_with_enumeration(self):
        h = cyclic_table(2)
        c = bar_complex(trivial_action(h, Z2), 3)
        for p in range(4):
            assert cohomology(c, p).group == brute_cohomology(c, p)

    def test_sign_action_kills_cohomology(self):
        h = cyclic_table(2)
        act = GroupAction(h, Z3, (((1,),), ((2,),)))
        c = bar_complex(act, 3)
        assert all(cohomology(c, p).group.is_trivial for p in range(4))
        for p in range(4):
            assert cohomology(c, p).group == brute_cohomology(c, p)

    def test_budget_guard(self):
        # The normalized nerve of Z/3 has 2^17 words in its top degree 17.
        h = cyclic_table(3)
        with pytest.raises(BudgetExceededError, match="131072 words"):
            bar_complex(trivial_action(h, Z2), 16)

    def test_negative_degree_refused_before_the_nerve(self):
        # max_degree -2 asks for a nerve of top degree -1, which has no
        # degree 0 for cohomology to read.
        h = cyclic_table(2)
        with pytest.raises(ValidationError, match="degree bound -1 is negative"):
            bar_complex(trivial_action(h, Z2), -2)

    def test_trivial_group_refused_past_the_degree_budget(self):
        # The trivial group has one word in every degree, so the word
        # budget never refuses its nerve; the degree budget does, before
        # any word is listed.
        h = cyclic_table(1)
        with pytest.raises(BudgetExceededError, match="degrees 0..4097"):
            bar_complex(trivial_action(h, Z2), cochain.DEGREE_BUDGET)

    @pytest.mark.parametrize("degree, action", [
        # The nerve of Z/3 would have 131,072 words in its top degree 17,
        # past the word budget, and is refused before it lists a word.
        (16, "Z3-trivial-on-Z2"),
        # The twisted differential 10 is 2,048 x 1,024, but the kernel SNF
        # of it has a 3,072 x 3,072 transform.
        (10, "Z3-doubling-on-Z7"),
    ], ids=["nerve-words", "kernel-snf"])
    def test_oversized_matrices_refused_before_allocation(self, degree, action):
        # Within the memory cap, a refusal in under 5 s shows that no row
        # of the matrix was built and no elimination ran first.
        out, seconds = run_bar(degree, action)
        assert out == "refused" and seconds < 5.0

    def test_trivial_action_in_degree_nine_within_seconds(self):
        # A trivial action takes the integral nerve's SNF and universal
        # coefficients; the normalized nerve of Z/2 has one word in each
        # degree, so differential 9 is 1 x 1 (1,024 x 512 unnormalized).
        out, seconds = run_bar(9, "Z2-trivial-on-Z2")
        assert out == "Z/2" and seconds < 5.0

    def test_trivial_action_in_degree_fourteen_within_seconds(self):
        # One word in each degree: the integral coboundaries are 1 x 1
        # (4,096 x 2,048 for differential 11 of the unnormalized nerve).
        out, seconds = run_bar(14, "Z2-trivial-on-Z2")
        assert out == "Z/2" and seconds < 5.0

    @pytest.mark.parametrize("degree, action", [
        # One word in each degree of the nerve of Z/2.
        (40, "Z2-sign-on-Z3"),
        # No word past degree 0 of the nerve of the trivial group, which
        # reaches the degree budget.
        (cochain.DEGREE_BUDGET - 2, "trivial-group-on-Z2"),
        # 64 words in the top degree 6 on the twisted lattice path.
        (5, "Z3-doubling-on-Z7"),
    ], ids=["sign-40", "trivial-group-top", "doubling-5"])
    def test_normalized_nerve_within_seconds(self, degree, action):
        out, seconds = run_bar(degree, action)
        assert out == "0" and seconds < 5.0

    def test_symmetric_group_integral(self):
        h = symmetric_group(3)
        c = bar_complex(trivial_action(h, Z), 2)
        assert [cohomology(c, p).group.label() for p in range(3)] == ["Z", "0", "Z/2"]

    @pytest.mark.parametrize("action, degree", BAR_ACTIONS)
    def test_face_table_matches_the_reference_differential(self, action, degree):
        # The normalized complex on the words with no identity letter, and
        # the unnormalized reference nerve on every word.
        c = bar_complex(action, degree)
        ref = unnormalized_bar_complex(action, degree)
        assert (c.action is None) == (action == trivial_action(action.group, action.module))
        for p in range(degree + 1):
            dense = reference_bar_differential(action, p)
            assert reference_differential(c, p) == Homomorphism(
                c.group(p), c.group(p + 1), normalized_rows(action, p, dense))
            assert reference_differential(ref, p) == Homomorphism(
                ref.group(p), ref.group(p + 1), dense)

    @pytest.mark.parametrize("action, degree", BAR_ACTIONS + [
        pytest.param(trivial_action(direct_product(cyclic_table(2), cyclic_table(2)), Z), 3,
                     id="V4-trivial-on-Z"),
        pytest.param(trivial_action(dihedral_group(4), Z), 2, id="D4-trivial-on-Z"),
        pytest.param(trivial_action(cyclic_table(4), Z), 3, id="Z4-trivial-on-Z"),
    ])
    def test_groups_match_the_unnormalized_complex(self, action, degree):
        # Normalized cochains form a subcomplex whose inclusion is a chain
        # homotopy equivalence: equal groups, and each representative,
        # extended by zero to the words with an identity letter, is a
        # cocycle of the unnormalized complex.
        c = bar_complex(action, degree)
        ref = unnormalized_bar_complex(action, degree)
        for p in range(degree + 1):
            h = cohomology(c, p)
            assert h.group == cohomology(ref, p).group
            for rep in h.representatives:
                extended = cochain_from_values(
                    ref, p, {w: rep.value_at(w).coords for w in c.base.cells(p)})
                assert coboundary(extended).is_zero

    def test_words_with_the_identity_are_not_cells(self):
        h = cyclic_table(3)
        c = bar_complex(trivial_action(h, Z2), 2)
        assert c.base.cells(2) == ((1, 1), (1, 2), (2, 1), (2, 2))
        with pytest.raises(ValidationError, match=r"^\(0, 1\) is not a cell of degree 2$"):
            cochain_from_values(c, 2, {(0, 1): [1]})
        with pytest.raises(ValidationError, match=r"^\(1, 0\) is not a cell of degree 2$"):
            zero_cochain(c, 2).value_at((1, 0))

    @pytest.mark.parametrize("action, degree", BAR_ACTIONS)
    def test_coboundary_matches_the_dense_view(self, action, degree):
        check_coboundary_against_dense_view(
            bar_complex(action, degree), random.Random(degree))

    @pytest.mark.parametrize("action, degree", BAR_ACTIONS)
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_coboundary_matches_the_reference_bar_differential(self, action, degree, data):
        # The one coboundary, twisted on face 0 under an action, against the
        # unnormalized bar differential built word by word and restricted to
        # the words with no identity letter; and d∘d = 0 on the same cochain.
        c = bar_complex(action, degree)
        p = data.draw(st.integers(0, degree), label="degree")
        coords = tuple(data.draw(st.integers(0, o - 1) if o else st.integers(-9, 9))
                       for o in c.group(p).orders)
        dense = normalized_rows(action, p, reference_bar_differential(action, p))
        image = coboundary(Cochain(c, p, coords))
        assert image.coords == c.group(p + 1).normalize(_intlin.mat_vec(dense, coords))
        assert coboundary(image).is_zero

    def test_action_must_be_automorphisms(self):
        h = cyclic_table(2)
        refusal = r"element 1 is not an automorphism \(kernel_not_in_image\): witness"
        with pytest.raises(ValidationError, match=refusal + r" \(2,\)"):
            GroupAction(h, Z4, (((1,),), ((2,),)))  # doubling is not invertible
        with pytest.raises(ValidationError, match=refusal + r" \(1,\)"):
            GroupAction(h, Z, (((1,),), ((2,),)))  # injective, not onto

    def test_action_must_respect_table(self):
        h = cyclic_table(2)
        with pytest.raises(ValidationError, match="not a homomorphism"):
            GroupAction(h, Z3, (((2,),), ((1,),)))  # rho(e) != id

    def test_action_of_element_names_its_matrix(self):
        with pytest.raises(ValidationError, match=r"^action of element 1: ill-defined "
                                                  r"homomorphism: matrix has 1 rows"):
            GroupAction(cyclic_table(2), FgAbGroup(0, (2, 4)), (((1, 0), (0, 1)), ((1, 0),)))

    def test_complex_refuses_what_is_not_its_action(self):
        # A twisted complex is built only from the GroupAction of its
        # nerve's group on its coefficients, and refuses anything else
        # before any cohomology is computed.
        h, z7 = cyclic_table(3), cyclic_group(7)
        refusal = r"^an action must be a GroupAction of the nerve's group on the coefficients$"
        doubling = GroupAction(h, z7, (((1,),), ((2,),), ((4,),)))
        assert CochainComplex(GroupNerve(h, 3), z7, doubling).action is doubling
        for base, coefficients, action in [
                (GroupNerve(h, 3), z7, (((1,),), ((3,),), ((5,),))),  # not an action
                (GroupNerve(h, 3), z7, (((1, 0),),) * 3),  # not even the right shape
                (GroupNerve(h, 3), z7, GroupAction(cyclic_table(2), z7, (((1,),), ((6,),)))),
                (GroupNerve(h, 3), z7, trivial_action(h, Z2)),
                (SimplicialComplex(3, [(0, 1, 2)]), z7, doubling)]:
            with pytest.raises(ValidationError, match=refusal):
                CochainComplex(base, coefficients, action)


class TestSuspension:
    def test_two_points_give_circle(self, two_points):
        s = suspension(two_points)
        assert [len(level) for level in s.simplices] == [4, 4]
        c = cech_complex(s, Z)
        assert cohomology(c, 1).group == Z

    def test_circle_gives_sphere(self, circle):
        s = suspension(circle)
        assert s.vertex_count == 5
        c = cech_complex(s, Z)
        assert cohomology(c, 1).group.is_trivial
        assert cohomology(c, 2).group == Z

    def test_rp2_shifts_mod_two(self, rp2, srp2):
        assert srp2.vertex_count == 8
        assert len(srp2.facets) == 20
        c = cech_complex(srp2, Z2)
        assert cohomology(c, 3).group == Z2

    @pytest.mark.parametrize("name,coeff", [
        ("circle", Z), ("circle", Z6), ("rp2", Z), ("rp2", Z2),
        ("torus", Z), ("two_points", Z3),
    ])
    def test_shift_of_reduced_cohomology(self, name, coeff, request):
        x = request.getfixturevalue(name)
        s = suspension(x)
        cx = cech_complex(x, coeff)
        cs = cech_complex(s, coeff)
        for p in range(1, x.dim + 2):
            assert cohomology(cs, p + 1).group == cohomology(cx, p).group


def check_coboundary_against_dense_view(comp, rng):
    # No complex stores or builds a coboundary matrix: coboundary() applies
    # the face table per coefficient generator, and rho(w[0]) - I on face 0
    # under an action.  It must agree with the dense reference d_p, and
    # d∘d = 0, which no construction checks, must hold for that reference.
    for p in range(comp.base.dim + 2):
        d = reference_differential(comp, p)
        assert (d.source, d.target) == (comp.group(p), comp.group(p + 1))
        assert reference_differential(comp, p + 1).compose(d).is_zero
        coords = tuple(rng.randrange(o) if o else rng.randint(-5, 5)
                       for o in comp.group(p).orders)
        dense = _intlin.mat_vec(d.matrix, coords)
        assert coboundary(Cochain(comp, p, coords)).coords == d.target.normalize(dense)


@settings(max_examples=100)
@given(sites(), coefficient_groups(), st.randoms(use_true_random=False))
def test_face_table_coboundary_matches_the_dense_view(x, coeff, rng):
    check_coboundary_against_dense_view(cech_complex(x, coeff), rng)
