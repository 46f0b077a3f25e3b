"""Adaptive quadrature of families of integrals over the half line (0, inf).

A substitution maps [0, 1] onto the half line, and one composite
Gauss-Legendre rule in numpy integrates the result.  `integrate_halfline`
takes s = u^2/(1-u)^2, which tames power laws at s -> 0 and algebraic tails
while the transformed integrand stays bounded, as the subordination
family's does; on an integrable singularity it stops at the panel cap.
`integrate_expsinh` takes y = exp(pi/2 sinh tau) (Takahasi and Mori, Publ.
RIMS 9, 1974) on a fixed tau range: a term y^p, p > -1, at y -> 0 and
exponential decay at y -> inf both fall off double exponentially in tau.
Its range starts at EXPSINH_FLOOR; the caller adds the part below.

The rule starts from `_INITIAL_PANELS` equal panels of [0, 1] with the 12
nodes of `_UNIT_NODES` each.  Each panel's error is estimated as the gap
between its value and the sum of its two halves', in the max norm over the
components.  A panel within its share of the budget (in proportion to its
width) is closed with the halves' sum; only the panels over their share
are bisected, until none is left.  The integrand is a family: called with
points of shape (m, 1), it returns the (m, k) array whose row i is the
family at point i.  Each call gets the nodes of one panel, so a call's
arrays stay m x k.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureNoConvergence

__all__ = ["EXPSINH_FLOOR", "integrate_expsinh", "integrate_halfline"]

# the error budget of every call, read when the call is made; the cap counts
# the panels of the partition of [0, 1]
_ABS_TOL = 1e-9
_REL_TOL = 1e-9
_MAX_SUBDIVISIONS = 200

# the first partition, and the 12-node Gauss-Legendre rule on [0, 1]: the
# floats of numpy's `leggauss(12)` mapped by (x + 1) / 2 and w / 2, written
# out so that no run loads numpy.polynomial (about 0.65 MiB) for one table
_INITIAL_PANELS = 4
_UNIT_NODES = np.array([
    0.009219682876640378, 0.0479413718147626, 0.11504866290284765,
    0.20634102285669126, 0.31608425050090994, 0.43738329574426554,
    0.5626167042557344, 0.6839157494990901, 0.7936589771433087,
    0.8849513370971523, 0.9520586281852375, 0.9907803171233596,
])
_UNIT_WEIGHTS = np.array([
    0.023587668193255706, 0.05346966299765953, 0.08003916427167321,
    0.10158371336153287, 0.1167462682691773, 0.12457352290670134,
    0.12457352290670134, 0.1167462682691773, 0.10158371336153287,
    0.08003916427167321, 0.05346966299765953, 0.023587668193255706,
])
_UNIT_NODES.setflags(write=False)  # shared by every call
_UNIT_WEIGHTS.setflags(write=False)

# the exp-sinh range of tau, chosen by measurement (README, Numerical notes):
# y runs from EXPSINH_FLOOR = 2.3e-51 to 1.9e11
_TAU_LO, _TAU_HI = -5.0, 3.5
EXPSINH_FLOOR = math.exp(math.pi / 2.0 * math.sinh(_TAU_LO))


def _compactified(u):
    """s = u^2/(1-u)^2 and ds/du (numpy values: u = 1 gives inf)."""
    om = 1.0 - u
    return (u * u) / (om * om), 2.0 * u / (om * om * om)


def _expsinh(u):
    """y = exp(pi/2 sinh tau), tau = _TAU_LO + (_TAU_HI - _TAU_LO) u, and dy/du."""
    tau = _TAU_LO + (_TAU_HI - _TAU_LO) * u
    y = np.exp(np.pi / 2.0 * np.sinh(tau))
    return y, (_TAU_HI - _TAU_LO) * np.pi / 2.0 * np.cosh(tau) * y


def integrate_halfline(f) -> np.ndarray:
    """Integrate the family f over (0, inf) via s = u^2/(1-u)^2; raises
    QuadratureNoConvergence if the rule gives up over ten times its budget."""
    return _integrate(f, _compactified)


def integrate_expsinh(f) -> np.ndarray:
    """Integrate the family f over (EXPSINH_FLOOR, 1.9e11) via the exp-sinh
    map, like `integrate_halfline`; the caller adds the part below."""
    return _integrate(f, _expsinh)


def _integrate(f, substitution) -> np.ndarray:
    """The rule on f(x(u)) x'(u) over u in [0, 1], substitution(u) = (x(u),
    x'(u)), with non-finite values (integrable singularities at the rims)
    set to 0 per component."""

    def g(u):
        x, dx = substitution(np.asarray(u, dtype=np.float64))
        val = f(x) * dx
        return np.where(np.isfinite(val), val, 0.0)

    # the rims evaluate to inf/nan by design; those values are zeroed
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value, abserr, failure = _gauss_legendre(g)
    if failure and abserr > 10.0 * max(_ABS_TOL, _REL_TOL * np.max(np.abs(value))):
        raise QuadratureNoConvergence(f"estimated error {abserr:.3e} exceeds budget ({failure})")
    return value


def _gauss_legendre(g):
    """(values, error estimate, failure message or None) of the adaptive
    composite Gauss-Legendre rule on the family g over [0, 1]."""
    x, w = _UNIT_NODES, _UNIT_WEIGHTS

    def panel(a, b):
        return (w * (b - a)) @ g((a + (b - a) * x)[:, None])

    # panels still open: (a, b, value on [a, b] by one rule)
    edges = np.linspace(0.0, 1.0, min(_INITIAL_PANELS, _MAX_SUBDIVISIONS) + 1)
    open_ = [(a, b, panel(a, b)) for a, b in zip(edges[:-1], edges[1:])]
    # the closed panels' summed values and error estimates, and their count
    total, closed_err, closed = 0.0, 0.0, 0
    while open_:
        halves = [(panel(a, (a + b) / 2.0), panel((a + b) / 2.0, b)) for a, b, _ in open_]
        refined = [left + right for left, right in halves]
        errs = [np.max(np.abs(whole - r)) for (_, _, whole), r in zip(open_, refined)]
        estimate = total + sum(refined)
        tol = max(_ABS_TOL, _REL_TOL * np.max(np.abs(estimate)))
        abserr = closed_err + sum(errs)  # the estimate if this pass is the last
        bisected = []
        for (a, b, _), (left, right), r, err in zip(open_, halves, refined, errs):
            if err <= tol * (b - a):
                total, closed_err, closed = total + r, closed_err + err, closed + 1
            else:
                bisected += [(a, (a + b) / 2.0, left), ((a + b) / 2.0, b, right)]
        if closed + len(bisected) > _MAX_SUBDIVISIONS:
            return estimate, abserr, f"more than {_MAX_SUBDIVISIONS} panels"
        open_ = bisected
    return total, closed_err, None
