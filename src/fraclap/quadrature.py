"""Adaptive quadrature over the half line (0, inf).

All half-line integrals in this package go through `integrate_halfline`,
which applies the compactifying substitution s = u^2/(1-u)^2 mapping
(0, 1) -> (0, inf) and integrates the transformed integrand over u in
[0, 1] adaptively.  The substitution tames both power-law endpoint behavior
at s -> 0 and algebraic tails at s -> inf.

The rule depends on what the integrand returns:

- A scalar integrand goes to QUADPACK's qags (`scipy.integrate.quad`, imported
  on first use), whose epsilon-algorithm extrapolation handles the integrable
  endpoint singularities of the profile and mode-energy integrands.  A plain
  adaptive rule does not: `quad_vec` on the theta = 1/4 profile
  normalization, with its (1-u)^(-1/2) singularity, missed the closed form by
  8.5e-9 relative while reporting success with an error estimate of 6.3e-10.
- A vector-valued integrand (a family of integrals, e.g. one per eigenvalue)
  goes to a composite Gauss-Legendre rule in numpy alone.  The rule starts
  from `_INITIAL_PANELS` equal panels of [0, 1] with `_NODES` nodes each.
  Each panel's error is estimated as the gap between its value and the sum
  of its two halves', in the max norm over the components.  A panel within
  its share of the budget (in proportion to its width) is closed with the
  halves' sum; only the panels over their share are bisected, until none
  is left.  Use it for families without endpoint singularities.

  The family's integrand must broadcast over a column of nodes: called with
  s of shape (m, 1), it returns the (m, k) array whose row i is the family
  at s[i].  Called with a scalar s it returns the k-vector.  Each call gets
  the nodes of one panel, so a call's arrays stay m x k.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureNoConvergence

__all__ = ["integrate_halfline"]

# the error budget of every call, read when the call is made; for a family
# the cap counts the panels of its partition of [0, 1]
_ABS_TOL = 1e-9
_REL_TOL = 1e-9
_MAX_SUBDIVISIONS = 200

# the family rule: Gauss-Legendre nodes per panel, and the first partition
_NODES = 12
_INITIAL_PANELS = 4


def _compactified(f):
    """The integrand f(s) ds over (0, inf) as a function of u in [0, 1],
    with non-finite values (integrable singularities at the rims) set to 0
    per component.  u is a scalar or, for a family, a column of nodes."""

    def transformed(u):
        # numpy values, so u = 1 gives inf instead of ZeroDivisionError
        u = np.asarray(u, dtype=np.float64)
        om = 1.0 - u
        s = (u * u) / (om * om)
        ds = 2.0 * u / (om * om * om)
        val = f(s) * ds
        if np.ndim(val) == 0:
            return val if np.isfinite(val) else 0.0
        return np.where(np.isfinite(val), val, 0.0)

    return transformed


def integrate_halfline(f) -> float | np.ndarray:
    """Integrate f over (0, inf) via the substitution s = u^2/(1-u)^2.

    A scalar-valued f gives a float (QUADPACK qags); a vector-valued f gives
    a vector of the same length (the composite Gauss-Legendre rule, see the
    module docstring for how f must broadcast).  Raises
    QuadratureNoConvergence when the rule gives up with an error estimate
    more than ten times over budget.
    """
    transformed = _compactified(f)
    # the rims evaluate to inf/nan by design; those values are zeroed
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if np.ndim(transformed(0.5)) == 0:
            value, abserr, failure = _qags(transformed)
        else:
            value, abserr, failure = _gauss_legendre(transformed)
    if failure and abserr > 10.0 * max(_ABS_TOL, _REL_TOL * np.max(np.abs(value))):
        raise QuadratureNoConvergence(f"estimated error {abserr:.3e} exceeds budget ({failure})")
    return value


def _qags(g):
    """(value, error estimate, failure message or None) of QUADPACK's qags
    on g over [0, 1]."""
    # imported on first use: scipy.integrate loads scipy.optimize and
    # scipy.spatial with it, about 16 MiB that runs without a scalar
    # quadrature never need
    from scipy.integrate import quad

    value, abserr, _, *message = quad(
        g, 0.0, 1.0, epsabs=_ABS_TOL, epsrel=_REL_TOL, limit=_MAX_SUBDIVISIONS, full_output=1
    )
    return value, abserr, message[0].strip() if message else None


@lru_cache(maxsize=None)
def _unit_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of the Gauss-Legendre rule on [0, 1]; numpy's
    `leggauss` takes about 0.3 ms, several times one panel's evaluation."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    rule = (x + 1.0) / 2.0, w / 2.0
    for a in rule:
        a.setflags(write=False)  # shared by every later call
    return rule


def _gauss_legendre(g):
    """(values, error estimate, failure message or None) of the adaptive
    composite Gauss-Legendre rule on the family g over [0, 1]."""
    x, w = _unit_rule(_NODES)

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
