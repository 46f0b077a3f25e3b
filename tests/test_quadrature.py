import numpy as np
import pytest

from fraclap.errors import QuadratureNoConvergence
from fraclap import quadrature
from fraclap.quadrature import _compactified, integrate_halfline
from fraclap.spectral import inverse_gaussian_density

LAMS = np.concatenate([[0.0], np.geomspace(1e-3, 60.0, 40)])


def _family(t):
    return lambda s: inverse_gaussian_density(t, s) * np.exp(-LAMS * s)


@pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 10.0])
def test_array_path_matches_scalar_calls(t):
    got = integrate_halfline(_family(t))
    assert got.shape == LAMS.shape
    scalar = [
        integrate_halfline(lambda s, lam=lam: inverse_gaussian_density(t, s) * np.exp(-lam * s))
        for lam in LAMS
    ]
    assert np.max(np.abs(got - scalar)) <= 1e-9
    # the family rule meets the closed form to roundoff: the worst error
    # over these four times is 3.3e-16 (at t = 0.01), held to ten times that
    assert np.max(np.abs(got - np.exp(-t * np.sqrt(LAMS)))) <= 3.3e-15


def test_array_path_evaluates_one_panel_per_call():
    # every call but the scalar probe gets one panel's nodes as a column,
    # and its result is the family at each node, one row per node
    shapes = []

    def family(s):
        shapes.append(np.shape(s))
        return _family(1.0)(s)

    integrate_halfline(family)
    assert shapes[0] == ()
    assert set(shapes[1:]) == {(quadrature._NODES, 1)}


def test_scalar_path_returns_float():
    got = integrate_halfline(lambda s: np.exp(-s))
    assert isinstance(got, float)
    assert got == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("t", [0.01, 1.0])
def test_array_path_starved_budget_raises(t, monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 2)
    with pytest.raises(QuadratureNoConvergence, match="exceeds budget"):
        integrate_halfline(_family(t))


def test_transform_zeroes_rims_per_component():
    # u = 1 arrives as a Python float; the transform must not divide by zero
    # in Python arithmetic, and non-finite components become 0 one by one
    g = _compactified(lambda s: np.array([np.exp(-s), 1.0 / (1.0 + s) ** 2, 1.0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.array_equal(g(1.0), [0.0, 0.0, 0.0])
        assert np.array_equal(g(0.0), [0.0, 0.0, 0.0])
    inner = g(0.5)  # s = 1, ds = 8
    assert np.array_equal(inner, [8.0 * np.exp(-1.0), 2.0, 8.0])
