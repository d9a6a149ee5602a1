"""The memos are bounded and keyed by value.

Every ``functools`` LRU cache a ``cechtower`` module defines is found by
``discovered_memos``: each must have a finite size, and ``clear_memos``
empties all of them, so a new memo can neither grow without bound nor stay
warm before a cold timing.  The cohomology memos (``cech_complex``,
``cohomology``, ``_integral_degree``) are keyed by value: a Cech complex
compares and hashes by its (site, coefficients) pair, so a complex rebuilt
after an eviction equals the old one, and a cochain of the old one keeps
working: same groups, same representatives, same class coordinates.  The
spectral pieces' groups (``spectral._piece_groups``) and the lattices they
read are keyed by the summands, indices and generators alone, never by a
site.
"""

import functools
import importlib
import itertools
import pkgutil

import pytest
from hypothesis import example, given, settings

import cechtower
from cechtower import _intlin, abelian, exactseq, spectral
from cechtower.abelian import (
    FgAbGroup,
    Homomorphism,
    cyclic_group,
    free_group,
    hom_invariants,
    solve_in_group,
)
from cechtower.cochain import (
    GroupAction,
    SimplicialComplex,
    _integral_degree,
    _reduction,
    bar_complex,
    cech_complex,
    class_of,
    cohomology,
    zero_cochain,
)
from cechtower.exactseq import ShortExactSequence, connecting
from cechtower.liftgerbe import cyclic_table
from cechtower.spectral import FilteredComplex, filtered_terms
from cechtower.tower import TowerSpec, tower_classes

from .conftest import RP2_FACETS
from .test_les_properties import _cyclic_extension, sequences
from .test_uct import coefficient_groups, sites

RP2 = SimplicialComplex(6, RP2_FACETS)
Z2 = cyclic_group(2)


def discovered_memos() -> list:
    """Every LRU cache defined in a ``cechtower`` module, each once."""
    memos = []
    for info in pkgutil.iter_modules(cechtower.__path__):
        module = importlib.import_module(f"cechtower.{info.name}")
        memos.extend(obj for obj in vars(module).values()
                     if isinstance(obj, functools._lru_cache_wrapper)
                     and obj.__module__ == module.__name__)
    return memos


MEMOS = tuple(discovered_memos())


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def rebuilt(x):
    """An equal site built separately from ``x``."""
    return SimplicialComplex(x.vertex_count, x.facets)


def distinct_sites(count):
    """``count`` distinct graphs on five vertices, one per edge subset."""
    edges = list(itertools.combinations(range(5), 2))
    for mask in range(1, count + 1):
        yield SimplicialComplex(
            5, [e for i, e in enumerate(edges) if mask >> i & 1])


def held_results(x, ses, held):
    """Class, connecting class and one-stage tower coordinates of cochains
    of the C-coefficient complex, computed through the current memos."""
    comp_c, comp_a = cech_complex(x, ses.c), cech_complex(x, ses.a)
    out = []
    for c in held:
        out.append(class_of(comp_c, c).coords)
        out.append(class_of(comp_a, connecting(x, ses, c)).coords)
        if c.degree == 2:
            stages = tower_classes(TowerSpec(x, c, (ses,))).stages
            out.append([s.coords for s in stages])
    return out


def held_cochains(x, ses):
    """Every representative of H^p(X; C), and a degree-2 cocycle for the
    tower even where H^2 is zero."""
    comp_c = cech_complex(x, ses.c)
    reps = [r for p in range(x.dim + 1) for r in cohomology(comp_c, p).representatives]
    return reps + [zero_cochain(comp_c, 2)]


def test_every_memo_is_discovered():
    known = {cech_complex, cohomology, _integral_degree, _reduction,
             abelian._summed_presentation, abelian._hom_solver,
             exactseq._section_matrix, spectral._filtration, spectral._piece_groups,
             spectral._degree_pieces, spectral._preimage,
             spectral._lattice, spectral._cokernel_group}
    assert known <= set(MEMOS)


def test_memos_are_bounded():
    ses = _cyclic_extension(2, 2)
    held = held_cochains(RP2, ses)
    before = held_results(RP2, ses, held)
    for memo in MEMOS:
        assert memo.cache_info().maxsize is not None
    for x in distinct_sites(300):
        comp = cech_complex(x, Z2)
        for p in range(x.dim + 1):
            cohomology(comp, p)
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.currsize <= info.maxsize
    # RP^2's complex was evicted, and its cochains belong to the rebuilt one.
    assert cech_complex(RP2, Z2) is not held[0].complex
    assert cech_complex(RP2, Z2) == held[0].complex
    assert held_results(RP2, ses, held) == before


def test_spectral_memos_are_bounded():
    # Each Z/m makes new keys for the filtration, two pieces in degree 0 of
    # the circle and their two preimages: more than any of these memos
    # holds.  They stay within their size, and each term is still
    # H^0(circle; Z/m).
    circle = SimplicialComplex(3, [(0, 1), (0, 2), (1, 2)])
    clear_memos()
    for m in range(2, spectral._piece_groups.cache_info().maxsize + 3):
        f = FilteredComplex(circle, (cyclic_group(m),))
        assert filtered_terms(f, 1, 1, -1).e_group == cyclic_group(m)
    for memo in (spectral._filtration, spectral._piece_groups, spectral._preimage):
        info = memo.cache_info()
        assert info.misses > info.maxsize >= info.currsize


@settings(max_examples=40)
@given(sites(), coefficient_groups())
@example(RP2, Z2)
@example(RP2, free_group(1))
@example(RP2, FgAbGroup(1, (2, 4)))
def test_rebuilt_complex_equals_the_evicted_one(x, coefficients):
    old = cech_complex(x, coefficients)
    before = [cohomology(old, p) for p in range(x.dim + 2)]
    clear_memos()
    twin = rebuilt(x)
    assert twin is not x and twin == x and hash(twin) == hash(x)
    new = cech_complex(twin, coefficients)
    assert new is not old
    assert new == old and hash(new) == hash(old)
    for p, h_old in enumerate(before):
        h_new = cohomology(new, p)
        assert h_new is not h_old
        assert h_new.group == h_old.group
        assert [r.coords for r in h_new.representatives] == \
            [r.coords for r in h_old.representatives]
        assert h_new.representatives == h_old.representatives
        for r in h_old.representatives:
            assert class_of(new, r) == class_of(old, r)


@settings(max_examples=30)
@given(sites(), sequences())
@example(RP2, _cyclic_extension(2, 2))
@example(RP2, _cyclic_extension(2, 4))
def test_cochain_held_across_eviction(x, ses):
    held = held_cochains(x, ses)
    before = held_results(x, ses, held)
    clear_memos()
    assert cech_complex(x, ses.c) is not held[0].complex
    assert held_results(x, ses, held) == before
    assert held_results(rebuilt(x), ses, held) == before


@pytest.mark.parametrize("coefficients", [Z2, cyclic_group(4)])
def test_other_coefficients_and_sites_stay_apart(coefficients):
    comp = cech_complex(RP2, coefficients)
    assert comp != cech_complex(RP2, free_group(1))
    circle = SimplicialComplex(3, [(0, 1), (0, 2), (1, 2)])
    assert comp != cech_complex(circle, coefficients)


@pytest.mark.parametrize("twisted", [False, True], ids=["trivial", "sign"])
def test_equal_bar_complexes_share_one_memo_entry(twisted):
    # Z/2 on Z/3, trivially or by sign: a bar complex built twice from
    # equal inputs is equal to the first and finds its cohomology memoized.
    def build():
        h = cyclic_table(2)
        sign = ((2,),) if twisted else ((1,),)
        return bar_complex(GroupAction(h, cyclic_group(3), (((1,),), sign)), 3)

    one, two = build(), build()
    assert one is not two and one == two and hash(one) == hash(two)
    clear_memos()
    for p in range(4):
        assert cohomology(one, p) is cohomology(two, p)
    assert cohomology.cache_info().hits == 4


def test_one_factorization_per_map(monkeypatch):
    # A map's kernel is read from the SNF that also solves through it, so
    # checking an exact sequence, a solve through iota and iota's kernel,
    # image and cokernel factor iota's [cols; -R] once between them.
    clear_memos()
    z2, z4 = cyclic_group(2), cyclic_group(4)
    iota, pi = Homomorphism(z2, z4, ((2,),)), Homomorphism(z4, z2, ((1,),))
    factored = []
    preimage_snf = _intlin.preimage_snf

    def counting(map_cols, *args):
        factored.append([list(c) for c in map_cols])
        return preimage_snf(map_cols, *args)

    monkeypatch.setattr(_intlin, "preimage_snf", counting)
    ShortExactSequence(z2, z4, z2, iota, pi)
    assert solve_in_group(iota, z4.element((2,))).coords == (1,)
    assert hom_invariants(iota).kernel.is_trivial
    assert factored.count(iota.columns()) == 1
