import ast
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cechtower.abelian import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    cyclic_group,
    free_group,
    hom_invariants,
    is_exact_at,
)
from cechtower.cochain import (
    SimplicialComplex,
    cech_complex,
    class_of,
    coboundary,
    cochain_from_values,
    cohomology,
    zero_cochain,
)
from cechtower.errors import ValidationError
from cechtower.exactseq import (
    connecting,
    connecting_class,
    long_exact_sequence,
    validate_ses,
)

from .conftest import RP2_FACETS
from .oracles import cech_induced, coboundary_set, degreewise_failure, ses_failure
from .test_uct import sites

Z = free_group(1)
Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)


def random_element(rng, group):
    return GroupElement(group, tuple(
        rng.randrange(o) if o else rng.randint(-2, 2) for o in group.orders))


class TestValidateSes:
    def test_bockstein(self, bockstein_222):
        assert bockstein_222.a == Z2 and bockstein_222.c == Z2

    def test_integral_bockstein_any_m(self):
        for m in (2, 3, 4, 12):
            zm = cyclic_group(m)
            validate_ses(Z, Z, zm,
                         Homomorphism(Z, Z, ((m,),)),
                         Homomorphism(Z, zm, ((1,),)))

    def test_split_sequence(self):
        z22 = FgAbGroup(0, (2, 2))
        validate_ses(Z2, z22, Z2,
                     Homomorphism(Z2, z22, ((1,), (0,))),
                     Homomorphism(z22, Z2, ((0, 1),)))

    def test_non_injective_rejected(self):
        with pytest.raises(ValidationError, match="injective"):
            validate_ses(Z2, Z4, Z2,
                         Homomorphism(Z2, Z4, ((0,),)),
                         Homomorphism(Z4, Z2, ((1,),)))

    def test_non_surjective_rejected(self):
        with pytest.raises(ValidationError, match="surjective"):
            validate_ses(Z2, Z4, Z4,
                         Homomorphism(Z2, Z4, ((2,),)),
                         Homomorphism(Z4, Z4, ((2,),)))

    def test_middle_failure_has_witness(self):
        z22 = FgAbGroup(0, (2, 2))
        with pytest.raises(ValidationError, match="middle"):
            validate_ses(Z2, z22, Z2,
                         Homomorphism(Z2, z22, ((1,), (0,))),
                         Homomorphism(z22, Z2, ((1, 0),)))


Z22 = FgAbGroup(0, (2, 2))
SMALL_GROUPS = (Z, Z2, Z3, Z4, Z22)


@st.composite
def homomorphisms(draw, source, target):
    """A small random matrix from source to target that is well defined:
    one that ``Homomorphism`` builds without a ``ValidationError``."""
    def build(m):
        try:
            return Homomorphism(source, target, m)
        except ValidationError:
            return None

    entries = st.integers(-2, 4)
    matrix = st.lists(st.lists(entries, min_size=source.ngens, max_size=source.ngens),
                      min_size=target.ngens, max_size=target.ngens)
    return draw(matrix.map(build).filter(lambda h: h is not None))


# Triples (A, B, C) that carry exact sequences, drawn half of the time so
# that exact ones and each kind of middle failure show up often.
EXACT_SHAPES = ((Z2, Z4, Z2), (Z2, Z22, Z2), (Z, Z, Z2), (Z, Z, Z3), (Z, Z, Z4))


@st.composite
def candidate_sequences(draw):
    any_group = st.sampled_from(SMALL_GROUPS)
    a, b, c = draw(st.one_of(st.tuples(any_group, any_group, any_group),
                             st.sampled_from(EXACT_SHAPES)))
    return draw(homomorphisms(a, b)), draw(homomorphisms(b, c))


REFUSAL = re.compile(r"(.*) \((\w+)\): witness (\(.*\))")


@settings(max_examples=300)
@given(candidate_sequences())
@example((Homomorphism(Z2, Z4, ((2,),)), Homomorphism(Z4, Z2, ((1,),))))
@example((Homomorphism(Z, Z, ((2,),)), Homomorphism(Z, Z2, ((1,),))))
@example((Homomorphism(Z2, Z22, ((1,), (0,))), Homomorphism(Z22, Z2, ((0, 1),))))
@example((Homomorphism(Z2, Z4, ((0,),)), Homomorphism(Z4, Z2, ((1,),))))
@example((Homomorphism(Z2, Z4, ((2,),)), Homomorphism(Z4, Z4, ((2,),))))
@example((Homomorphism(Z2, Z22, ((1,), (0,))), Homomorphism(Z22, Z2, ((1, 0),))))
@example((Homomorphism(Z, Z, ((4,),)), Homomorphism(Z, Z2, ((1,),))))
def test_ses_refusals_match_the_reference(maps):
    # A sequence is refused exactly when the earlier criterion (kernel and
    # cokernel by hom_invariants, then the middle node) says it is not
    # exact, with that criterion's first failing node as the prefix, and
    # the witness lies where the message's side says.
    iota, pi = maps
    a, b, c = iota.source, iota.target, pi.target
    expected = ses_failure(iota, pi)
    if expected is None:
        validate_ses(a, b, c, iota, pi)
        return
    with pytest.raises(ValidationError) as caught:
        validate_ses(a, b, c, iota, pi)
    prefix, side, coords = REFUSAL.fullmatch(str(caught.value)).groups()
    assert prefix == expected

    def in_image(h, y):
        return hom_invariants(h).cokernel_projection.apply(y).is_zero

    if prefix == "iota is not injective":
        assert side == "kernel_not_in_image"
        witness = GroupElement(a, ast.literal_eval(coords))
        assert not witness.is_zero and iota.apply(witness).is_zero
    elif prefix == "pi is not surjective":
        assert side == "kernel_not_in_image"
        assert not in_image(pi, GroupElement(c, ast.literal_eval(coords)))
    else:
        witness = GroupElement(b, ast.literal_eval(coords))
        in_ker = pi.apply(witness).is_zero
        assert (in_image(iota, witness), in_ker) == (
            (True, False) if side == "image_not_in_kernel" else (False, True))


class TestConnecting:
    def test_zero_maps_to_zero(self, rp2, bockstein_222):
        c = zero_cochain(cech_complex(rp2, Z2), 1)
        out = connecting(rp2, bockstein_222, c)
        assert out.is_zero

    def test_circle_has_no_degree_two_target(self, circle, bockstein_222):
        comp = cech_complex(circle, Z2)
        z = cochain_from_values(comp, 1, {(0, 1): [1]})
        out = connecting(circle, bockstein_222, z)
        assert out.degree == 2 and out.group.is_trivial

    def test_rp2_bockstein_is_nonzero(self, rp2, bockstein_222):
        comp = cech_complex(rp2, Z2)
        gen = cohomology(comp, 1).representatives[0]
        out = connecting(rp2, bockstein_222, gen)
        # independent verification: the output is a cocycle outside the
        # enumerated coboundary set of C^1(X, Z/2)
        assert coboundary(out).is_zero
        assert out.coords not in coboundary_set(cech_complex(rp2, Z2), 2)
        assert not class_of(cech_complex(rp2, Z2), out).is_zero

    @pytest.mark.parametrize("fixture", ["rp2", "srp2", "octahedron"])
    def test_section_independence_twenty_relifts(self, fixture, bockstein_222,
                                                 request):
        x = request.getfixturevalue(fixture)
        comp = cech_complex(x, Z2)
        rng = random.Random(2024)
        for degree in (1, 2):
            h = cohomology(comp, degree)
            reps = h.representatives or (zero_cochain(comp, degree),)
            for rep in reps:
                base = connecting(x, bockstein_222, rep)
                base_class = class_of(cech_complex(x, Z2), base).coords
                k = comp.ncells(degree)
                for _ in range(20):
                    twist = [random_element(rng, Z2) for _ in range(k)]
                    alt = connecting(x, bockstein_222, rep, twist=twist)
                    assert class_of(cech_complex(x, Z2), alt).coords == base_class

    def test_coboundaries_map_to_coboundaries(self, rp2, bockstein_222):
        comp = cech_complex(rp2, Z2)
        rng = random.Random(5)
        for _ in range(10):
            b = zero_cochain(comp, 0)
            b = type(b)(comp, 0, tuple(rng.randrange(2) for _ in b.coords))
            out = connecting(rp2, bockstein_222, coboundary(b))
            assert class_of(cech_complex(rp2, Z2), out).is_zero

    def test_class_depends_only_on_class(self, rp2, bockstein_222):
        comp = cech_complex(rp2, Z2)
        gen = cohomology(comp, 1).representatives[0]
        rng = random.Random(17)
        base = connecting_class(rp2, bockstein_222, gen).coords
        for _ in range(10):
            b = zero_cochain(comp, 0)
            b = type(b)(comp, 0, tuple(rng.randrange(2) for _ in b.coords))
            assert connecting_class(rp2, bockstein_222,
                                    gen + coboundary(b)).coords == base

    def test_non_cocycle_rejected(self, rp2, bockstein_222):
        comp = cech_complex(rp2, Z2)
        f = cochain_from_values(comp, 1, {(0, 1): [1]})
        with pytest.raises(ValidationError):
            connecting(rp2, bockstein_222, f)

    @pytest.mark.parametrize("fixture", ["rp2", "srp2", "octahedron", "torus"])
    def test_double_bockstein_is_coboundary(self, fixture, bockstein_222,
                                            request):
        # Sq1 ∘ Sq1 = 0, verified computationally on every fixture
        x = request.getfixturevalue(fixture)
        comp = cech_complex(x, Z2)
        for degree in (1, 2):
            for rep in cohomology(comp, degree).representatives:
                once = connecting(x, bockstein_222, rep)
                twice = connecting(x, bockstein_222, once)
                assert class_of(cech_complex(x, Z2), twice).is_zero


class TestLongExactSequence:
    def test_circle_integral_two(self, circle, bockstein_integral_2):
        report = long_exact_sequence(circle, bockstein_integral_2, 2)
        labels = [(n.label, n.group.label()) for n in report.nodes]
        assert labels[:6] == [
            ("H^0(A)", "Z"), ("H^0(B)", "Z"), ("H^0(C)", "Z/2"),
            ("H^1(A)", "Z"), ("H^1(B)", "Z"), ("H^1(C)", "Z/2")]
        assert all(n.group.is_trivial for n in report.nodes[6:])
        assert report.ok

    def test_negative_degree_bound_refused(self, rp2, bockstein_222):
        with pytest.raises(ValidationError, match="negative"):
            long_exact_sequence(rp2, bockstein_222, -1)

    def test_contractible_collapses(self, full_triangle, bockstein_222):
        report = long_exact_sequence(full_triangle, bockstein_222, 3)
        assert report.ok
        for node in report.nodes[3:]:
            assert node.group.is_trivial
        assert [n.group.label() for n in report.nodes[:3]] == \
            ["Z/2", "Z/4", "Z/2"]

    def test_rp2_bockstein_connecting_is_iso(self, rp2, bockstein_222):
        report = long_exact_sequence(rp2, bockstein_222, 2)
        assert report.ok
        # maps alternate iota*, pi*, delta; delta at degree 1 is map index 5
        delta1 = report.maps[5]
        assert delta1.source == Z2 and delta1.target == Z2
        assert delta1.matrix == ((1,),)

    @pytest.mark.parametrize("fixture,ses_name", [
        ("circle", "bockstein_222"),
        ("circle", "bockstein_integral_2"),
        ("rp2", "bockstein_222"),
        ("rp2", "bockstein_integral_2"),
        ("torus", "bockstein_222"),
        ("srp2", "bockstein_222"),
        ("octahedron", "bockstein_integral_2"),
    ])
    def test_exact_everywhere(self, fixture, ses_name, request):
        x = request.getfixturevalue(fixture)
        ses = request.getfixturevalue(ses_name)
        report = long_exact_sequence(x, ses, x.dim + 1)
        assert report.ok, [e for e in report.exact_at if not e.ok]

    @pytest.mark.parametrize("fixture,top", [
        ("rp2", 2), ("circle", 1), ("torus", 2), ("octahedron", 2),
    ])
    def test_brute_force_image_kernel_agreement(self, fixture, top,
                                                bockstein_222, request):
        # re-prove exactness by enumerating the (finite) cohomology groups
        x = request.getfixturevalue(fixture)
        report = long_exact_sequence(x, bockstein_222, top)
        maps = list(report.maps)
        incoming = None
        for i, outgoing in enumerate(maps):
            group = outgoing.source
            if group.free_rank:
                continue
            image = set()
            if incoming is not None:
                image = {outgoing.source.normalize(
                    [sum(r * c for r, c in zip(row, el.coords))
                     for row in incoming.matrix])
                    for el in incoming.source.elements()}
            else:
                image = {group.zero().coords}
            kernel = {el.coords for el in group.elements()
                      if outgoing.apply(el).is_zero}
            assert image == kernel
            incoming = outgoing


CIRCLE = SimplicialComplex(3, [(0, 1), (0, 2), (1, 2)])


@settings(max_examples=200)
@given(sites(), candidate_sequences())
@example(SimplicialComplex(6, RP2_FACETS),
         (Homomorphism(Z2, Z4, ((2,),)), Homomorphism(Z4, Z2, ((1,),))))
@example(SimplicialComplex(6, RP2_FACETS),
         (Homomorphism(Z, Z, ((4,),)), Homomorphism(Z, Z4, ((1,),))))
@example(CIRCLE, (Homomorphism(Z2, Z4, ((0,),)), Homomorphism(Z4, Z2, ((1,),))))
@example(CIRCLE, (Homomorphism(Z2, Z4, ((2,),)), Homomorphism(Z4, Z4, ((2,),))))
@example(CIRCLE, (Homomorphism(Z2, Z22, ((1,), (0,))), Homomorphism(Z22, Z2, ((1, 0),))))
def test_cochain_level_sequence_has_the_coefficient_verdict(x, maps):
    # C^p(X; A) -> C^p(X; B) -> C^p(X; C) is k copies of the coefficient
    # sequence, so the dense cochain-level check that connecting once ran in
    # every degree fails at the same node as the coefficient-level one, and
    # exactly when it does.
    iota, pi = maps
    expected = ses_failure(iota, pi)
    for p in range(x.dim + 1):
        assert degreewise_failure(x, iota, pi, p) == expected


class TestInducedMapsAreValidated:
    def test_degreewise_checks_run(self, rp2, bockstein_222):
        # smoke: connecting trusts the sequence checked at construction and
        # maps a generator of H^1(RP^2; Z/2) to degree 2
        comp = cech_complex(rp2, Z2)
        gen = cohomology(comp, 1).representatives[0]
        out = connecting(rp2, bockstein_222, gen)
        assert out.degree == 2

    def test_hom_invariants_of_induced(self, rp2, bockstein_222):
        iota1 = cech_induced(rp2, bockstein_222.iota, 1)
        pi1 = cech_induced(rp2, bockstein_222.pi, 1)
        assert hom_invariants(iota1).kernel.is_trivial
        assert hom_invariants(pi1).cokernel.is_trivial
        assert is_exact_at(iota1, pi1).ok
