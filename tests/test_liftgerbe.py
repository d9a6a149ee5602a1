import random
import time

import pytest

from cechtower.abelian import FgAbGroup, Homomorphism, cyclic_group
from cechtower.cochain import cech_complex, class_of, coboundary, cohomology
from cechtower.errors import BudgetExceededError, ValidationError
from cechtower.exactseq import connecting_class, validate_ses
from cechtower.liftgerbe import (
    FiniteGroup,
    TransitionCocycle,
    abelian_element_index,
    brute_force_lift,
    cyclic_table,
    dihedral_group,
    direct_product,
    group_from_abelian,
    lifting_obstruction,
    symmetric_group,
    transition_from_values,
    validate_extension,
)

Z2 = cyclic_group(2)
Z4 = cyclic_group(4)


def z4_extension():
    """0 -> Z/2 -> Z/4 -> Z/2 -> 0 in Cayley-table form."""
    return validate_extension(cyclic_table(4), Z2, [0, 2], [0, 1, 0, 1],
                              cyclic_table(2))


def d4_extension():
    """Center of the dihedral group of order 8 over the Klein four group."""
    d4 = dihedral_group(4)
    v4 = direct_product(cyclic_table(2), cyclic_table(2))
    pi = [(x % 4 % 2) * 2 + (x // 4) for x in range(8)]
    return validate_extension(d4, Z2, [0, 2], pi, v4)


def split_extension():
    """Z/2 x Z/2 -> Z/2, the direct-product extension."""
    g = direct_product(cyclic_table(2), cyclic_table(2))
    # pairs (a, b) indexed a*2+b; kernel = {(0,0), (1,0)}, pi = second factor
    return validate_extension(g, Z2, [0, 2], [0, 1, 0, 1], cyclic_table(2))


def h1_transition(x, quotient=None):
    """The H^1(X, Z/2) generator as a transition cocycle."""
    comp = cech_complex(x, Z2)
    rep = cohomology(comp, 1).representatives[0]
    k = comp.ncells(1)
    labels = {e: rep.coords[i] for i, e in enumerate(x.cells(1))}
    return transition_from_values(x, quotient or cyclic_table(2), labels), rep


def coboundary_transition(x, quotient, rng):
    """h_i^{-1} h_j edge labels from random vertex values (always a cocycle)."""
    h = [rng.randrange(quotient.order) for _ in range(x.vertex_count)]
    labels = {(i, j): quotient.mul(quotient.inv(h[i]), h[j])
              for (i, j) in x.cells(1)}
    return transition_from_values(x, quotient, labels)


class TestFiniteGroup:
    def test_cyclic_and_product(self):
        g = direct_product(cyclic_table(2), cyclic_table(3))
        assert g.order == 6 and g.is_abelian()

    def test_dihedral_not_abelian(self):
        d4 = dihedral_group(4)
        assert d4.order == 8 and not d4.is_abelian()
        # r^2 is central
        assert all(d4.mul(2, x) == d4.mul(x, 2) for x in range(8))

    def test_symmetric_three(self):
        s3 = symmetric_group(3)
        assert s3.order == 6 and not s3.is_abelian()

    def test_bad_table_rejected(self):
        # a loop: identity and two-sided inverses hold, associativity fails
        loop = ((0, 1, 2, 3, 4),
                (1, 0, 3, 4, 2),
                (2, 4, 0, 1, 3),
                (3, 2, 4, 0, 1),
                (4, 3, 1, 2, 0))
        with pytest.raises(ValidationError, match="associativity"):
            FiniteGroup(5, loop, 0)
        with pytest.raises(ValidationError, match="no inverse"):
            FiniteGroup(3, ((0, 1, 2), (1, 2, 0), (2, 1, 0)), 0)
        with pytest.raises(ValidationError, match="identity"):
            FiniteGroup(2, ((1, 0), (0, 1)), 0)

    def test_associativity_budget(self):
        with pytest.raises(BudgetExceededError):
            cyclic_table(200)

    def test_abelian_round_trip(self):
        g = FgAbGroup(0, (2, 4))
        fg = group_from_abelian(g)
        assert fg.order == 8 and fg.is_abelian()
        for i, el in enumerate(g.elements()):
            assert abelian_element_index(g, el) == i


class TestValidateExtension:
    def test_z4(self):
        ext = z4_extension()
        assert ext.section() == (0, 1)

    def test_d4_center(self):
        ext = d4_extension()
        assert set(ext.kernel_elements) == {0, 2}

    def test_s3_kernel_not_central(self):
        s3 = symmetric_group(3)
        z3 = cyclic_group(3)
        # lexicographic perms of (0,1,2): the 3-cycles sit at indices 3, 4
        three_cycles = [0, 3, 4]
        if s3.mul(3, 3) != 4:
            three_cycles = [0, 4, 3]
        pi = [0 if x in three_cycles else 1 for x in range(6)]
        with pytest.raises(ValidationError, match="not central"):
            validate_extension(s3, z3, three_cycles, pi, cyclic_table(2))

    def test_kernel_embedding_not_hom_rejected(self):
        # element 1 of Z/4 has order 4, so it cannot carry the generator of Z/2
        with pytest.raises(ValidationError,
                           match=r"^kernel embedding is not a homomorphism at pair \(1,1\)$"):
            validate_extension(cyclic_table(4), Z2, [0, 1], [0, 1, 0, 1],
                               cyclic_table(2))

    def test_kernel_mismatch_rejected(self):
        # in Z/2 x Z/2 the projection onto the second factor has kernel
        # {0, 2}, but the embedded kernel is {0, 1}
        with pytest.raises(ValidationError, match="^kernel of the projection differs "
                                                  "from the embedded kernel group$"):
            validate_extension(direct_product(cyclic_table(2), cyclic_table(2)), Z2,
                               [0, 1], [0, 1, 0, 1], cyclic_table(2))

    def test_non_surjective_projection_rejected(self):
        # doubling Z/4 -> Z/4 is a homomorphism that misses 1 and 3
        with pytest.raises(ValidationError, match="^projection is not surjective$"):
            validate_extension(cyclic_table(4), Z2, [0, 2], [0, 2, 0, 2], cyclic_table(4))

    def test_fibers_and_kernel_coordinates_are_tabulated(self):
        ext = d4_extension()
        assert ext.fibers == tuple(
            tuple(x for x in range(8) if ext.projection[x] == q)
            for q in range(ext.quotient.order))
        assert ext.kernel_coords == {
            v: el.coords for v, el in zip(ext.kernel_elements, ext.kernel_group.elements())}
        assert ext.section() == tuple(f[0] for f in ext.fibers)

    def test_non_hom_projection_rejected(self):
        with pytest.raises(ValidationError):
            validate_extension(cyclic_table(4), Z2, [0, 2], [0, 1, 1, 0],
                               cyclic_table(2))


class TestTransitionCocycle:
    def test_law_enforced(self, rp2):
        labels = {e: 0 for e in rp2.cells(1)}
        labels[(0, 1)] = 1
        with pytest.raises(ValidationError, match="cocycle law"):
            transition_from_values(rp2, cyclic_table(2), labels)

    def test_missing_edge(self, circle):
        with pytest.raises(ValidationError, match="missing label"):
            transition_from_values(circle, cyclic_table(2), {(0, 1): 1})

    def test_reverse_orientation_is_inverse(self, rp2):
        rng = random.Random(1)
        t = coboundary_transition(rp2, symmetric_group(3), rng)
        q = t.quotient
        for (i, j) in rp2.cells(1):
            assert t.value_on(j, i) == q.inv(t.value_on(i, j))


class TestLiftingObstruction:
    def test_identity_cocycle_gives_zero(self, rp2):
        ext = z4_extension()
        t = transition_from_values(rp2, ext.quotient,
                                   {e: 0 for e in rp2.cells(1)})
        cochain, cls = lifting_obstruction(t, ext)
        assert cochain.is_zero and cls.is_zero

    def test_circle_has_no_triangles(self, circle):
        ext = z4_extension()
        t = transition_from_values(circle, ext.quotient,
                                   {e: 1 for e in circle.cells(1)})
        cochain, cls = lifting_obstruction(t, ext)
        assert cochain.group.is_trivial and cls.is_zero

    def test_rp2_obstruction_nonzero_and_matches_connecting(self, rp2):
        ext = z4_extension()
        t, rep = h1_transition(rp2)
        cochain, cls = lifting_obstruction(t, ext)
        assert not cls.is_zero
        ses = validate_ses(Z2, Z4, Z2,
                           Homomorphism(Z2, Z4, ((2,),)),
                           Homomorphism(Z4, Z2, ((1,),)))
        assert connecting_class(rp2, ses, rep).coords == cls.coords

    def test_always_a_cocycle(self, rp2, torus):
        rng = random.Random(9)
        cases = [(z4_extension(), rp2), (d4_extension(), rp2),
                 (z4_extension(), torus)]
        for ext, x in cases:
            for _ in range(5):
                t = coboundary_transition(x, ext.quotient, rng)
                cochain, _ = lifting_obstruction(t, ext)
                assert coboundary(cochain).is_zero

    def test_nonabelian_quotient(self, rp2):
        # Z/2 x S3 -> S3 is central with kernel Z/2
        s3 = symmetric_group(3)
        g = direct_product(cyclic_table(2), s3)
        ext = validate_extension(g, Z2, [0, 6], list(range(6)) * 2, s3)
        rng = random.Random(3)
        t = coboundary_transition(rp2, s3, rng)
        cochain, cls = lifting_obstruction(t, ext)
        assert coboundary(cochain).is_zero
        # a coboundary-type cocycle lifts through the split product
        assert cls.is_zero
        assert brute_force_lift(t, ext) is not None

    def test_section_independence(self, rp2):
        ext = z4_extension()
        t, _ = h1_transition(rp2)
        base = lifting_obstruction(t, ext)[1].coords
        rng = random.Random(14)
        fibers = [[g for g in range(ext.group.order) if ext.projection[g] == q]
                  for q in range(ext.quotient.order)]
        for _ in range(20):
            section = tuple(rng.choice(f) for f in fibers)
            _, cls = lifting_obstruction(t, ext, section=section)
            assert cls.coords == base

    @pytest.mark.parametrize("section", [(-4, -1), (0, 7)])
    def test_section_outside_the_group_is_refused(self, rp2, section):
        # Negative entries once read as elements counted from the end of
        # G, and entries past its order escaped as an IndexError.
        t, _ = h1_transition(rp2)
        with pytest.raises(ValidationError, match="section entry .* out of range"):
            lifting_obstruction(t, z4_extension(), section=section)


class TestBruteForceLift:
    def test_split_extension_always_lifts(self, rp2):
        ext = split_extension()
        t, _ = h1_transition(rp2)
        lift = brute_force_lift(t, ext)
        assert lift is not None
        # the lift really is a transition cocycle in G
        g = ext.group
        for (i, j, k) in rp2.cells(2):
            assert g.mul(lift[(i, j)], lift[(j, k)]) == lift[(i, k)]
        # and it projects back onto t
        for e, v in lift.items():
            assert ext.projection[v] == t.values[rp2.cell_indices(1)[e]]

    def test_rp2_z4_full_search_finds_nothing(self, rp2):
        ext = z4_extension()
        t, _ = h1_transition(rp2)
        start = time.perf_counter()
        assert brute_force_lift(t, ext) is None  # 2^15 states scanned
        assert time.perf_counter() - start < 60

    def test_budget_guard(self, rp2):
        ext = z4_extension()
        t, _ = h1_transition(rp2)
        with pytest.raises(BudgetExceededError):
            brute_force_lift(t, ext, budget=100)

    @pytest.mark.parametrize("make_ext", [z4_extension, d4_extension,
                                          split_extension])
    def test_oracle_equivalence(self, rp2, make_ext):
        # class zero <=> a lift exists, on budget-feasible instances
        ext = make_ext()
        rng = random.Random(6)
        cases = [coboundary_transition(rp2, ext.quotient, rng)
                 for _ in range(3)]
        if ext.quotient.is_abelian():
            base = coboundary_transition(rp2, ext.quotient, rng)
            t_gen, _ = h1_transition(rp2, ext.quotient)
            if ext.quotient.order == 2:
                cases.append(t_gen)
            # twist the generator by a coboundary (stays a cocycle since
            # the quotient is abelian)
            q = ext.quotient
            labels = {e: q.mul(t_gen.values[i], base.values[i])
                      for i, e in enumerate(rp2.cells(1))}
            cases.append(transition_from_values(rp2, q, labels))
        budget = ext.kernel_group.order() ** len(rp2.cells(1))
        for t in cases:
            _, cls = lifting_obstruction(t, ext)
            lift = brute_force_lift(t, ext, budget=budget)
            assert (lift is not None) == cls.is_zero

    def test_d4_transition_components(self, rp2):
        # V4-valued cocycles built from the two Z/2 components; oracle
        # equivalence on each
        ext = d4_extension()
        comp = cech_complex(rp2, Z2)
        rep = cohomology(comp, 1).representatives[0]
        k = comp.ncells(1)
        v4 = ext.quotient
        for pattern in ((1, 0), (0, 1), (1, 1)):
            labels = {}
            for i, e in enumerate(rp2.cells(1)):
                bit = rep.coords[i]
                labels[e] = (pattern[0] * bit) * 2 + (pattern[1] * bit)
            t = transition_from_values(rp2, v4, labels)
            _, cls = lifting_obstruction(t, ext)
            lift = brute_force_lift(t, ext)
            assert (lift is not None) == cls.is_zero
