import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cechtower._intlin import present_cokernel, relation_columns
from cechtower.abelian import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    cyclic_group,
    cyclic_sum,
    direct_sum_with_maps,
    free_group,
    hom_invariants,
    is_exact_at,
    presentation_group,
    smith_normal_form,
    solve_in_group,
    trivial_group,
    zero_hom,
)
from cechtower.errors import ValidationError

from .oracles import bareiss_det, exhaustive_solve, is_divisor_chain, mat_mul

Z = free_group(1)
Z2 = cyclic_group(2)
Z4 = cyclic_group(4)
Z6 = cyclic_group(6)


def check_snf(matrix):
    u, d, v = smith_normal_form(matrix)
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if m and n:
        assert mat_mul(mat_mul([list(r) for r in u], matrix),
                       [list(r) for r in v]) == [list(r) for r in d]
    diag = [d[i][i] for i in range(min(m, n))]
    assert is_divisor_chain(diag)
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    assert abs(bareiss_det(u)) == 1
    assert abs(bareiss_det(v)) == 1
    return diag


class TestSmithNormalForm:
    def test_worked_example(self):
        # d1 = gcd of entries = 2, d1*d2 = |det| = 8
        diag = check_snf([[2, 4], [6, 8]])
        assert diag == [2, 4]

    def test_identity(self):
        diag = check_snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert diag == [1, 1, 1]

    def test_zero_matrix(self):
        diag = check_snf([[0, 0, 0], [0, 0, 0]])
        assert diag == [0, 0]

    def test_empty_shapes(self):
        u, d, v = smith_normal_form([])
        assert u == () and d == () and v == ()
        u, d, v = smith_normal_form([[], []])
        assert len(u) == 2 and v == () and d == ((), ())

    @settings(max_examples=150)
    @given(st.integers(1, 8), st.integers(1, 8), st.data())
    def test_random_matrices(self, m, n, data):
        matrix = [[data.draw(st.integers(-50, 50)) for _ in range(n)]
                  for _ in range(m)]
        check_snf(matrix)


def well_defined(source, target, matrix):
    """Whether ``Homomorphism`` accepts the matrix; any refusal is a
    ``ValidationError``."""
    try:
        Homomorphism(source, target, matrix)
    except ValidationError:
        return False
    return True


class TestHomValidate:
    """``Homomorphism`` is the one well-definedness check."""

    def test_half_into_quarter_rejected(self):
        # 2*1 is not 0 mod 4
        with pytest.raises(ValidationError, match=r"^ill-defined homomorphism: column 0: "
                                                  r"source order 2 does not annihilate "
                                                  r"the image \(target coordinate 0\)$"):
            Homomorphism(Z2, Z4, ((1,),))

    def test_doubling_accepted(self):
        assert well_defined(Z2, Z4, ((2,),))

    def test_free_source_always_ok(self):
        for c in (-5, 0, 1, 17):
            assert well_defined(Z, Z6, ((c,),))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match=r"^ill-defined homomorphism: matrix has "
                                                  r"2 rows, target has 1 generators$"):
            Homomorphism(Z2, Z4, ((1,), (0,)))
        with pytest.raises(ValidationError, match=r"^ill-defined homomorphism: row 0 has "
                                                  r"2 entries, source has 1 generators$"):
            Homomorphism(Z2, Z4, ((1, 2),))

    def test_torsion_to_free_must_vanish(self):
        assert not well_defined(Z2, Z, ((1,),))
        assert well_defined(Z2, Z, ((0,),))

    def test_first_failing_column_and_coordinate_are_named(self):
        # Columns are scanned in order, and within a column the target
        # coordinates; a free source column is never refused.
        z2z4 = FgAbGroup(0, (2, 4))
        with pytest.raises(ValidationError, match=r"column 1: source order 2 does not "
                                                  r"annihilate the image \(target coordinate 1\)$"):
            Homomorphism(FgAbGroup(1, (2, 2)), z2z4, ((0, 0, 1), (2, 1, 3)))


class TestGenerator:
    def test_generators_are_the_unit_vectors(self):
        g = FgAbGroup(0, (2, 4))
        assert [g.generator(i).coords for i in range(g.ngens)] == [(1, 0), (0, 1)]

    @pytest.mark.parametrize("index", [-1, 2, 5])
    def test_index_outside_the_generators_is_refused(self, index):
        # -1 used to read as the last generator, 5 escaped as IndexError.
        with pytest.raises(ValidationError, match=rf"^generator index {index} out of range "
                                                  r"for 2 generators$"):
            FgAbGroup(0, (2, 4)).generator(index)


class TestHomInvariants:
    def test_multiplication_by_four(self):
        inv = hom_invariants(Homomorphism(Z, Z, ((4,),)))
        assert inv.kernel == trivial_group()
        assert inv.image == Z
        assert inv.cokernel == cyclic_group(4)

    def test_reduction_mod_two(self):
        inv = hom_invariants(Homomorphism(Z4, Z2, ((1,),)))
        assert inv.kernel == Z2
        assert inv.cokernel == trivial_group()

    def test_zero_map_on_z6(self):
        inv = hom_invariants(zero_hom(Z6, Z6))
        assert inv.kernel == Z6
        assert inv.cokernel == Z6
        assert inv.image == trivial_group()

    def test_inclusion_composes_correctly(self):
        h = Homomorphism(Z4, Z2, ((1,),))
        inv = hom_invariants(h)
        # kernel -> source -> target is the zero map
        assert h.compose(inv.kernel_inclusion).is_zero
        # the cokernel projection is onto and kills the image
        assert inv.cokernel_projection.compose(h).is_zero

    def test_compose_through_trivial_group(self):
        # the middle group has no generators, so the product has no rows to
        # read its column count from; it is the zero map Z6 -> Z4
        to_zero, from_zero = zero_hom(Z6, trivial_group()), zero_hom(trivial_group(), Z4)
        composed = from_zero.compose(to_zero)
        assert (composed.source, composed.target) == (Z6, Z4) and composed.is_zero

    @pytest.mark.parametrize("source,target,matrix", [
        (Z, cyclic_group(4), ((2,),)),
        (Z6, FgAbGroup(0, (2, 6)), ((1,), (3,))),
        (FgAbGroup(1, (2,)), Z4, ((2, 1),)),
    ])
    def test_cokernel_projection_exactness(self, source, target, matrix):
        h = Homomorphism(source, target, matrix)
        inv = hom_invariants(h)
        # surjective with kernel equal to the image of h
        assert hom_invariants(inv.cokernel_projection).cokernel.is_trivial
        assert is_exact_at(h, inv.cokernel_projection).ok

    @pytest.mark.parametrize("source,target,matrix", [
        (Z4, Z2, ((1,),)),
        (Z6, Z6, ((2,),)),
        (FgAbGroup(0, (2, 4)), FgAbGroup(0, (4,)), ((2, 1),)),
        (FgAbGroup(0, (3, 3)), Z6, ((2, 4),)),
    ])
    def test_order_bookkeeping(self, source, target, matrix):
        # |kernel| * |image| = |source| and |image| * |cokernel| = |target|
        inv = hom_invariants(Homomorphism(source, target, matrix))
        assert inv.kernel.order() * inv.image.order() == source.order()
        assert inv.image.order() * inv.cokernel.order() == target.order()


class TestSolveInGroup:
    def test_even_times_odd_unsolvable(self):
        h = Homomorphism(Z4, Z4, ((2,),))
        assert solve_in_group(h, Z4.element([1])) is None

    def test_unit_inverse(self):
        h = Homomorphism(Z4, Z4, ((3,),))
        x = solve_in_group(h, Z4.element([1]))
        assert x.coords == (3,)

    def test_diagonal_system(self):
        zz = FgAbGroup(2, ())
        h = Homomorphism(zz, zz, ((2, 0), (0, 3)))
        x = solve_in_group(h, zz.element([4, 6]))
        assert x is not None
        assert h.apply(x) == zz.element([4, 6])
        assert x.coords == (2, 2)

    @pytest.mark.parametrize("source,target,matrix", [
        (Z4, Z2, ((1,),)),
        (FgAbGroup(0, (2, 4)), FgAbGroup(0, (4, 8)), ((2, 1), (0, 2))),
        (Z6, FgAbGroup(0, (2, 6)), ((1,), (5,))),
    ])
    def test_agrees_with_exhaustive_search(self, source, target, matrix):
        h = Homomorphism(source, target, matrix)
        for y in target.elements():
            got = solve_in_group(h, y)
            brute = exhaustive_solve(h, y)
            assert (got is None) == (brute is None)
            if got is not None:
                assert h.apply(got) == y


class TestExactness:
    def test_bockstein_sequence(self):
        iota = Homomorphism(Z2, Z4, ((2,),))
        pi = Homomorphism(Z4, Z2, ((1,),))
        assert is_exact_at(iota, pi).ok

    def test_identity_after_injection_fails(self):
        iota = Homomorphism(Z2, Z4, ((2,),))
        ident = Homomorphism(Z4, Z4, ((1,),))
        verdict = is_exact_at(iota, ident)
        assert not verdict.ok
        assert verdict.side == "image_not_in_kernel"
        assert verdict.witness.coords == (2,)

    def test_integral_multiplication_sequence(self):
        z3 = cyclic_group(3)
        times3 = Homomorphism(Z, Z, ((3,),))
        mod3 = Homomorphism(Z, z3, ((1,),))
        assert is_exact_at(times3, mod3).ok
        # injectivity = exactness of 0 -> Z -> Z
        assert is_exact_at(zero_hom(trivial_group(), Z), times3).ok
        # surjectivity = exactness of Z -> Z/3 -> 0
        assert is_exact_at(mod3, zero_hom(z3, trivial_group())).ok

    def test_composability_mismatch(self):
        with pytest.raises(ValidationError):
            is_exact_at(Homomorphism(Z2, Z4, ((2,),)),
                        Homomorphism(Z2, Z2, ((1,),)))


class TestGroupsAndElements:
    def test_invariant_chain_enforced(self):
        with pytest.raises(ValidationError):
            FgAbGroup(0, (2, 3))
        with pytest.raises(ValidationError):
            FgAbGroup(0, (1,))
        with pytest.raises(ValidationError):
            FgAbGroup(-1, ())

    def test_normalization(self):
        g = FgAbGroup(1, (4,))
        el = g.element([-3, 7])
        assert el.coords == (1, 7)
        assert (el + el).coords == (2, 14)
        assert (-el).coords == (3, -7)

    def test_enumeration_order(self):
        g = FgAbGroup(0, (2, 4))
        coords = [e.coords for e in g.elements()]
        assert coords[:5] == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]
        assert len(coords) == 8

    def test_labels(self):
        assert trivial_group().label() == "0"
        assert FgAbGroup(2, (2,)).label() == "Z^2 x Z/2"
        assert Z6.label() == "Z/6"


class TestDirectSum:
    def test_crt_merge(self):
        z3 = cyclic_group(3)
        total, embs, projs = direct_sum_with_maps([Z2, z3])
        assert total == Z6

    def test_round_trip_and_partition(self):
        z3 = cyclic_group(3)
        total, embs, projs = direct_sum_with_maps([Z2, z3, Z])
        for g, emb, proj in zip([Z2, z3, Z], embs, projs):
            for el in ([*g.elements()] if g.order() else
                       [g.element([k]) for k in range(-2, 3)]):
                assert proj.apply(emb.apply(el)) == el
        # sum of emb∘proj is the identity on the total group
        for el in [total.element(c) for c in
                   [(0,) * total.ngens, (1,) * total.ngens, (1, 2)[:total.ngens]]]:
            acc = total.zero()
            for emb, proj in zip(embs, projs):
                acc = acc + emb.apply(proj.apply(el))
            assert acc == el


MERSENNE_61 = (1 << 61) - 1


def summed_by_snf(pairs) -> FgAbGroup:
    orders = [o for o, count in pairs for _ in range(count)]
    return presentation_group(present_cokernel(len(orders), relation_columns(orders)))


class TestCyclicSum:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.one_of(st.integers(0, 12),
                                        st.sampled_from([16, 27, 30, 36, 49, 60, MERSENNE_61])),
                              st.integers(0, 6)),
                    max_size=8))
    @example([(2, 60), (4, 45), (3, 30), (6, 25), (0, 20), (1, 10)])
    @example([(MERSENNE_61, 3), (2 * MERSENNE_61, 2), (6, 4), (0, 1)])
    def test_agrees_with_one_snf(self, pairs):
        # The gcd/lcm merge of (order, count) pairs gives the invariant
        # factors one SNF of the relations gives for the expanded list.
        assert cyclic_sum(pairs) == summed_by_snf(pairs)

    def test_many_copies_without_an_snf(self):
        # Thousands of summands, as in a term of the 20 x 20 torus, and a
        # 61-bit prime that must not be factored: prime by prime the
        # largest exponents go to the largest factors.
        group = cyclic_sum([(2, 1200), (4, 800), (3, 400), (MERSENNE_61, 7), (0, 5)])
        assert group.free_rank == 5
        assert group.torsion == ((2,) * 1200 + (4,) * 400 + (12,) * 393
                                 + (12 * MERSENNE_61,) * 7)
