import numpy as np
import pytest

from fraclap import build_space, decompose, fixture


@pytest.fixture(scope="session")
def k2():
    return build_space([[0, 1], [1, 0]], [1, 1], [[0, 1], [1, 0]])


@pytest.fixture(scope="session")
def p3():
    return fixture("path", n=3)


@pytest.fixture(scope="session")
def path8():
    return fixture("path", n=8)


@pytest.fixture(scope="session")
def grid44():
    return fixture("grid2d", nx=4)


@pytest.fixture(scope="session")
def dumbbell55():
    return fixture("dumbbell", clique=5)


@pytest.fixture(scope="session")
def weighted_grid34():
    """Inline 3x4 grid with unequal masses and conductances.  The masses are
    multiples of 1/4, so every sum of them is exact in any order."""
    grid = fixture("grid2d", nx=3, ny=4)
    mu = (1.0 + np.arange(12) % 5) / 4.0
    return build_space(grid.dist, mu, 2.5 * grid.graph.toarray())


@pytest.fixture(scope="session")
def grid12():
    """grid2d 12x12: its 144 points span three row blocks of the dense
    layers (`space._ROW_BLOCK`)."""
    return fixture("grid2d", nx=12)


@pytest.fixture(scope="session")
def weighted_grid12(grid12):
    """grid12 with unequal masses, multiples of 1/4 as in weighted_grid34."""
    mu = (1.0 + np.arange(grid12.n) % 5) / 4.0
    return build_space(grid12.dist, mu, grid12.graph.toarray())


@pytest.fixture(scope="session")
def k2_dec(k2):
    return decompose(k2)


@pytest.fixture(scope="session")
def p3_dec(p3):
    return decompose(p3)


@pytest.fixture(scope="session")
def path8_dec(path8):
    return decompose(path8)


@pytest.fixture(scope="session")
def grid44_dec(grid44):
    return decompose(grid44)


@pytest.fixture(scope="session")
def dumbbell55_dec(dumbbell55):
    return decompose(dumbbell55)


def random_vector(space, seed):
    return np.random.default_rng(seed).standard_normal(space.n)


def gemm_symmetrized(a, w):
    """a diag(w) a^T by a general product and then symmetrized: how the
    dense kernels were built before the Gram form."""
    k = (a * w[None, :]) @ a.T
    return 0.5 * (k + k.T)


def rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
