import os
from pathlib import Path

import pytest
from hypothesis import settings

import cechtower
from cechtower.abelian import Homomorphism, cyclic_group, free_group
from cechtower.cochain import SimplicialComplex, suspension
from cechtower.exactseq import validate_ses

# CLI tests start `python -m cechtower.cli` in a subprocess; let it import
# the package from the same place as this test run.
_PACKAGE_ROOT = str(Path(cechtower.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_PACKAGE_ROOT] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

# One Hypothesis profile for the suite: no per-example deadline (cohomology
# examples vary widely in cost and the timing of a loaded machine with
# them), a seed derived from each test so a failure reproduces from the
# commit alone, and no example database carried between runs.
settings.register_profile("cechtower", deadline=None, derandomize=True, database=None)
settings.load_profile("cechtower")

# The six-vertex triangulation of the projective plane: 15 edges, 10
# triangles, Euler characteristic 1.
RP2_FACETS = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
              (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5)]

# Seven-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7.
TORUS_FACETS = sorted(
    {tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)}
    | {tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)})


def grid_torus_facets(n: int) -> list[tuple[int, ...]]:
    """The n x n grid torus (n >= 3): n^2 vertices, 3n^2 edges, 2n^2
    triangles, each square (i, j) cut along its diagonal."""
    def v(i, j):
        return (i % n) * n + (j % n)
    return [f for i in range(n) for j in range(n)
            for f in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                      (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]


@pytest.fixture(scope="session")
def circle():
    return SimplicialComplex(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture(scope="session")
def full_triangle():
    return SimplicialComplex(3, [(0, 1, 2)])


@pytest.fixture(scope="session")
def two_points():
    return SimplicialComplex(2, [(0,), (1,)])


@pytest.fixture(scope="session")
def square():
    return SimplicialComplex(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture(scope="session")
def rp2():
    return SimplicialComplex(6, RP2_FACETS)


@pytest.fixture(scope="session")
def torus():
    return SimplicialComplex(7, TORUS_FACETS)


@pytest.fixture(scope="session")
def srp2(rp2):
    return suspension(rp2)


@pytest.fixture(scope="session")
def octahedron(square):
    return suspension(square)


@pytest.fixture(scope="session")
def bockstein_222():
    """0 -> Z/2 -> Z/4 -> Z/2 -> 0."""
    z2, z4 = cyclic_group(2), cyclic_group(4)
    return validate_ses(z2, z4, z2,
                        Homomorphism(z2, z4, ((2,),)),
                        Homomorphism(z4, z2, ((1,),)))


@pytest.fixture(scope="session")
def bockstein_integral_2():
    """0 -> Z -> Z -> Z/2 -> 0."""
    z, z2 = free_group(1), cyclic_group(2)
    return validate_ses(z, z, z2,
                        Homomorphism(z, z, ((2,),)),
                        Homomorphism(z, z2, ((1,),)))
