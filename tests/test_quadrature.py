import math

import numpy as np
import pytest

from fraclap.errors import QuadratureNoConvergence
from fraclap import quadrature
from fraclap.quadrature import (
    EXPSINH_FLOOR,
    integrate_expsinh,
    integrate_halfline,
)
from fraclap.spectral import inverse_gaussian_density

from oracles import quadpack_halfline

LAMS = np.concatenate([[0.0], np.geomspace(1e-3, 60.0, 40)])


def _family(t):
    return lambda s: inverse_gaussian_density(t, s) * np.exp(-LAMS * s)


@pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 10.0])
def test_array_path_matches_scalar_calls(t):
    got = integrate_halfline(_family(t))
    assert got.shape == LAMS.shape
    scalar = [
        quadpack_halfline(lambda s, lam=lam: inverse_gaussian_density(t, s) * np.exp(-lam * s))
        for lam in LAMS
    ]
    assert np.max(np.abs(got - scalar)) <= 1e-9
    # the family rule meets the closed form to roundoff: the worst error
    # over these four times is 3.3e-16 (at t = 0.01), held to ten times that
    assert np.max(np.abs(got - np.exp(-t * np.sqrt(LAMS)))) <= 3.3e-15


def _call_shapes(integrate):
    """The shapes of the points `integrate` calls the t = 1 family at."""
    shapes = []

    def family(s):
        shapes.append(np.shape(s))
        return _family(1.0)(s)

    integrate(family)
    return shapes


def test_array_path_evaluates_one_panel_per_call():
    # every call gets one panel's nodes as a column, and its result is the
    # family at each node, one row per node (12 nodes a panel): no probe call
    shapes = _call_shapes(integrate_halfline)
    assert shapes and set(shapes) == {(12, 1)}


def test_expsinh_evaluates_one_panel_per_call():
    shapes = _call_shapes(integrate_expsinh)
    assert shapes and set(shapes) == {(12, 1)}


@pytest.mark.parametrize("t", [0.01, 1.0])
def test_array_path_starved_budget_raises(t, monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 2)
    with pytest.raises(QuadratureNoConvergence, match="exceeds budget"):
        integrate_halfline(_family(t))


def _transformed(integrate, f, monkeypatch):
    """The integrand on [0, 1] that `integrate` hands the rule for f."""
    seen = []

    def rule(g):
        seen.append(g)
        return 0.0, 0.0, None

    monkeypatch.setattr(quadrature, "_gauss_legendre", rule)
    integrate(f)
    return seen[0]


def test_transform_zeroes_rims_per_component(monkeypatch):
    # u = 1 arrives as a Python float; the transform must not divide by zero
    # in Python arithmetic, and non-finite components become 0 one by one
    f = lambda s: np.array([np.exp(-s), 1.0 / (1.0 + s) ** 2, 1.0])
    g = _transformed(integrate_halfline, f, monkeypatch)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.array_equal(g(1.0), [0.0, 0.0, 0.0])
        assert np.array_equal(g(0.0), [0.0, 0.0, 0.0])
    inner = g(0.5)  # s = 1, ds = 8
    assert np.array_equal(inner, [8.0 * np.exp(-1.0), 2.0, 8.0])


def test_expsinh_transform_starts_at_the_floor_and_zeroes_non_finite(monkeypatch):
    g = _transformed(integrate_expsinh, lambda y: np.array([1.0 / y, np.inf * y, y]), monkeypatch)
    # u = 0 is y = EXPSINH_FLOOR, where dy/du = rate * y
    rate = (quadrature._TAU_HI - quadrature._TAU_LO) * np.pi / 2.0 * math.cosh(quadrature._TAU_LO)
    at_floor = g(0.0)
    assert at_floor[0] == pytest.approx(rate, rel=1e-15)
    assert at_floor[1] == 0.0
    assert at_floor[2] == pytest.approx(rate * EXPSINH_FLOOR**2, rel=1e-13)


@pytest.mark.parametrize("rate", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("p", [-0.999, -0.5, 0.0, 0.5, 3.0])
def test_expsinh_integrates_endpoint_powers(p, rate):
    # y^p e^{-rate y} over (EXPSINH_FLOOR, inf): Gamma(p + 1) / rate^(p + 1)
    # less the part below the floor, y0^(p + 1) / (p + 1) to leading order.
    # Below 1 the budget's absolute floor of 1e-9 governs, so the pin is
    # absolute there
    got = integrate_expsinh(lambda y: y**p * np.exp(-rate * y))
    below = EXPSINH_FLOOR ** (p + 1.0) / (p + 1.0)
    exact = math.gamma(p + 1.0) / rate ** (p + 1.0) - below
    assert got.shape == (1,)
    assert abs(got[0] - exact) <= 1e-12 * max(exact, 1.0)


def test_unit_rule_is_numpys_leggauss_on_the_unit_interval():
    # the written-out table is numpy's 12-node rule mapped to [0, 1], bit
    # for bit, so no run needs numpy.polynomial
    x, w = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(quadrature._UNIT_NODES, (x + 1.0) / 2.0)
    assert np.array_equal(quadrature._UNIT_WEIGHTS, w / 2.0)
    assert not quadrature._UNIT_NODES.flags.writeable
    assert not quadrature._UNIT_WEIGHTS.flags.writeable
