"""Value semantics of every record class of the package.

Each record is built twice from equal arguments.  The two instances
compare equal (by identity for the classes that compare so), hash equal
where the class hashes, and refuse assigning or deleting a field.  The
constructor takes the fields in their declared order, positionally or by
name, which is also the order ``repr`` prints them in: a class that
writes its own ``__init__`` names them in its signature, and every other
class uses ``Record.__init__``, which refuses a call its fields could not
take as a signature would.
"""

import importlib
import inspect
import pkgutil

import pytest

import cechtower
from cechtower import _intlin
from cechtower._record import Record
from cechtower.abelian import (
    ExactnessResult,
    FgAbGroup,
    GroupElement,
    HomInvariants,
    Homomorphism,
    cyclic_group,
    hom_invariants,
    is_exact_at,
)
from cechtower.cli import Options, Request
from cechtower.cochain import (
    Cochain,
    CochainComplex,
    Cohomology,
    CohomologyClass,
    GroupAction,
    GroupNerve,
    SimplicialComplex,
    _integral_degree,
    _IntegralDegree,
    cech_complex,
    class_of,
    coboundary,
    cohomology,
    trivial_action,
)
from cechtower.exactseq import (
    LesExactness,
    LesNode,
    LesReport,
    ShortExactSequence,
    long_exact_sequence,
)
from cechtower.liftgerbe import (
    CentralExtension,
    FiniteGroup,
    TransitionCocycle,
    cyclic_table,
    direct_product,
)
from cechtower.spectral import (
    DegenerationEntry,
    DegenerationReport,
    DirectSumLesReport,
    FilteredComplex,
    SpectralTerms,
    check_degeneration,
    filtered_terms,
    les_direct_sum,
    spectral_grid,
)
from cechtower.tower import (
    TowerCheck,
    TowerClasses,
    TowerComparison,
    TowerReport,
    TowerSpec,
    compare_towers,
    tower_classes,
    verify_tower,
)

from .conftest import RP2_FACETS

Z2, Z4 = cyclic_group(2), cyclic_group(4)


def rp2():
    return SimplicialComplex(6, RP2_FACETS)


def bockstein():
    return ShortExactSequence(Z2, Z4, Z2, Homomorphism(Z2, Z4, ((2,),)),
                              Homomorphism(Z4, Z2, ((1,),)))


def generator_cocycle():
    """A generator of H^2(RP^2; Z/2), rebuilt on each call."""
    return cohomology(cech_complex(rp2(), Z2), 2).representatives[0]


def tower_spec():
    return TowerSpec(rp2(), generator_cocycle(), (bockstein(),))


def extension():
    """Z/2 x Z/2 -> Z/2, the first factor as the kernel."""
    g = direct_product(cyclic_table(2), cyclic_table(2))
    return CentralExtension(g, Z2, (0, 2), cyclic_table(2), (0, 1, 0, 1))


def transition():
    x = SimplicialComplex(3, [(0, 1, 2)])
    return TransitionCocycle(x, cyclic_table(2), (1, 0, 1))


def some_project(v):
    return list(v)


def degree_two():
    h = cohomology(cech_complex(rp2(), Z2), 2)
    return h, h.coords_of(h.representatives[0])


def cohomology_record():
    h = degree_two()[0]
    return Cohomology(h.degree, h.group, h.representatives, h._presentation)


def integral_degree_record():
    d = _integral_degree(rp2(), 1)
    return _IntegralDegree(d.diag, d.v_cols, d.vinv_rows, d.pres)


def degeneration_report():
    f = FilteredComplex(rp2(), (Z2,))
    return check_degeneration(f, spectral_grid(f, 1))


def tower_comparison():
    t = tower_classes(tower_spec())
    return compare_towers(t, t)


# Per record class, a builder of a fresh instance from equal arguments, and
# whether its instances hash (False: hashing raises TypeError, because a
# field or the class itself is unhashable).
BUILDERS = {
    _intlin.SnfResult: (lambda: _intlin.snf([[2, 4], [6, 8]], 2, 2, _intlin.SOLVE), False),
    _intlin.Presentation: (lambda: _intlin.Presentation(2, (2,), 1, [[1, 0], [0, 1]],
                                                        some_project), False),
    FgAbGroup: (lambda: FgAbGroup(1, (2, 4)), True),
    GroupElement: (lambda: GroupElement(FgAbGroup(1, (2,)), (3, -1)), True),
    Homomorphism: (lambda: Homomorphism(Z4, Z2, ((3,),)), True),
    HomInvariants: (lambda: hom_invariants(Homomorphism(Z4, Z4, ((2,),))), True),
    ExactnessResult: (lambda: is_exact_at(Homomorphism(Z2, Z4, ((2,),)),
                                          Homomorphism(Z4, Z4, ((1,),))), True),
    Options: (lambda: Options(3, None, True), True),
    Request: (lambda: Request("cohomology", {"complex": [1, 2]}, Options(verify=True)), False),
    SimplicialComplex: (rp2, True),
    GroupNerve: (lambda: GroupNerve(cyclic_table(2), 3), True),
    CochainComplex: (lambda: CochainComplex(rp2(), Z2), True),
    Cochain: (lambda: Cochain(cech_complex(rp2(), Z4), 1, (5,) * 15), False),
    Cohomology: (cohomology_record, False),
    _IntegralDegree: (integral_degree_record, False),
    CohomologyClass: (lambda: class_of(cech_complex(rp2(), Z2), generator_cocycle()), True),
    GroupAction: (lambda: trivial_action(cyclic_table(2), Z4), True),
    ShortExactSequence: (bockstein, True),
    LesNode: (lambda: LesNode("H^0(A)", Z2), True),
    LesExactness: (lambda: LesExactness("H^0(A)", False, (1, 0)), True),
    LesReport: (lambda: long_exact_sequence(rp2(), bockstein(), 1), True),
    FiniteGroup: (lambda: cyclic_table(3), True),
    CentralExtension: (extension, True),
    TransitionCocycle: (transition, True),
    FilteredComplex: (lambda: FilteredComplex(rp2(), (Z2, Z4)), True),
    SpectralTerms: (lambda: filtered_terms(FilteredComplex(rp2(), (Z2, Z4)), 1, 1, 1), True),
    DegenerationEntry: (lambda: DegenerationEntry(None, 1, 0, Z2, Z2), True),
    DegenerationReport: (degeneration_report, True),
    DirectSumLesReport: (lambda: les_direct_sum(rp2(), Z2, Z4, 2, 1), True),
    TowerSpec: (tower_spec, False),
    TowerClasses: (lambda: tower_classes(tower_spec()), True),
    TowerCheck: (lambda: TowerCheck("stage 2", True, "detail"), True),
    TowerReport: (lambda: verify_tower(tower_classes(tower_spec())), True),
    TowerComparison: (tower_comparison, True),
}
# Classes that compare and hash by identity, like ``object``.
BY_IDENTITY = {FilteredComplex}


def package_records() -> set:
    found = set()
    for info in pkgutil.iter_modules(cechtower.__path__):
        module = importlib.import_module(f"cechtower.{info.name}")
        found |= {obj for obj in vars(module).values()
                  if inspect.isclass(obj) and issubclass(obj, Record) and obj._fields}
    return found


def test_every_record_is_checked():
    assert package_records() == set(BUILDERS)
    assert len(BUILDERS) == 34


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda c: c.__name__)
def test_equal_arguments_give_equal_records(cls):
    build, hashable = BUILDERS[cls]
    a, b = build(), build()
    assert type(a) is cls and a is not b
    if cls.__init__ is not Record.__init__:
        assert tuple(inspect.signature(cls).parameters) == cls._fields
    if cls in BY_IDENTITY:
        assert a != b and a == a and hash(a) != hash(b)
        return
    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert a != object()


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda c: c.__name__)
def test_fields_are_frozen(cls):
    record = BUILDERS[cls][0]()
    for name in cls._fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


def same_fields(a, b) -> bool:
    return type(a) is type(b) and a._values() == b._values()


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda c: c.__name__)
def test_fields_rebuild_the_record_by_position_and_by_name(cls):
    record = BUILDERS[cls][0]()
    values = record._values()
    same = same_fields if cls in BY_IDENTITY else (lambda a, b: a == b)
    assert same(cls(*values), record)
    assert same(cls(**dict(zip(cls._fields, values))), record)


INHERITED = [cls for cls in BUILDERS if cls.__init__ is Record.__init__]


@pytest.mark.parametrize("cls", INHERITED, ids=lambda c: c.__name__)
def test_the_shared_constructor_refuses_what_a_signature_refuses(cls):
    values = BUILDERS[cls][0]()._values()
    fields = cls._fields
    required = [name for name in fields if name not in cls._defaults]
    assert required == list(fields[:len(required)]), "defaults must trail"
    if required:
        with pytest.raises(TypeError, match="missing"):
            cls(*values[:len(required) - 1])
    with pytest.raises(TypeError, match="positional"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword"):
        cls(*values, no_such_field=None)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{fields[0]: values[0]})
    given = cls(*values[:len(required)])
    assert [getattr(given, name) for name in fields[len(required):]] == [
        cls._defaults[name] for name in fields[len(required):]]


def test_inherited_constructors_are_the_ones_without_checks():
    assert len(INHERITED) == 20
    assert {cls.__name__ for cls in BUILDERS if cls not in INHERITED} == {
        "FgAbGroup", "GroupElement", "Homomorphism", "SimplicialComplex", "GroupNerve",
        "CochainComplex", "Cochain", "GroupAction", "ShortExactSequence", "FiniteGroup",
        "CentralExtension", "TransitionCocycle", "FilteredComplex", "TowerSpec"}


def test_class_equality_ignores_the_representative():
    comp = cech_complex(rp2(), Z2)
    h, coords = degree_two()
    rep = h.representatives[0]
    shifted = rep + coboundary(Cochain(comp, 1, (1,) + (0,) * 14))
    assert shifted != rep
    a, b = CohomologyClass(2, h.group, coords, rep), CohomologyClass(2, h.group, coords, shifted)
    assert a == b and hash(a) == hash(b)
    assert a != CohomologyClass(2, h.group, (0,) * len(coords), rep)


def test_repr_names_the_fields_in_order():
    assert repr(FgAbGroup(1, (2,))) == "FgAbGroup(free_rank=1, torsion=(2,))"
    assert repr(Options()) == "Options(max_degree=None, budget=None, verify=False)"
    assert repr(SimplicialComplex(4, [(1, 0), (0, 1, 2)])) == (
        "SimplicialComplex(vertex_count=4, facets=((3,), (0, 1, 2)))")
    pres = BUILDERS[_intlin.Presentation][0]()
    assert repr(pres) == "Presentation(n=2, torsion=(2,), free_rank=1, lift_cols=[[1, 0], [0, 1]])"
    h = degree_two()[0]
    assert repr(h) == (f"Cohomology(degree=2, group={h.group!r}, "
                       f"representatives={h.representatives!r})")
