"""Adaptive quadrature over the half line (0, inf).

All half-line integrals in this package go through `integrate_halfline`,
which applies the compactifying substitution s = u^2/(1-u)^2 mapping
(0, 1) -> (0, inf) and hands the transformed integrand to an adaptive
Gauss-Kronrod rule.  The substitution tames both power-law endpoint behavior
at s -> 0 and algebraic tails at s -> inf.

The rule depends on what the integrand returns:

- A scalar integrand goes to QUADPACK's qags (`scipy.integrate.quad`), whose
  epsilon-algorithm extrapolation handles the integrable endpoint
  singularities of the profile and mode-energy integrands.  A plain adaptive
  rule does not: `quad_vec` on the theta = 1/4 profile normalization, with its
  (1-u)^(-1/2) singularity, missed the closed form by 8.5e-9 relative while
  reporting success with an error estimate of 6.3e-10.
- An array-valued integrand (a family of integrals, e.g. one per eigenvalue)
  goes to one `scipy.integrate.quad_vec` call: GK21 with a shared adaptive
  subdivision and the max norm over components, so every component meets the
  budget.  Use it for families without endpoint singularities.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureNoConvergence

__all__ = ["integrate_halfline"]

# the error budget of every call, read when the call is made
_ABS_TOL = 1e-9
_REL_TOL = 1e-9
_MAX_SUBDIVISIONS = 200


def _compactified(f):
    """The integrand f(s) ds over (0, inf) as a function of u in [0, 1],
    with non-finite values (integrable singularities at the rims) set to 0
    per component."""

    def transformed(u):
        # a numpy scalar, so u = 1 gives inf instead of ZeroDivisionError
        u = np.float64(u)
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

    A scalar-valued f gives a float (QUADPACK qags); an array-valued f gives
    an array of the same shape (one `quad_vec` pass over all components).
    Raises QuadratureNoConvergence when the rule gives up with an error
    estimate more than ten times over budget.
    """
    # imported on first use: scipy.integrate loads scipy.optimize and
    # scipy.spatial with it, about 14 MiB that runs without quadrature never need
    from scipy.integrate import quad, quad_vec

    transformed = _compactified(f)
    # the rims evaluate to inf/nan by design; those values are zeroed
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if np.ndim(transformed(0.5)) == 0:
            value, abserr, info, *message = quad(
                transformed,
                0.0,
                1.0,
                epsabs=_ABS_TOL,
                epsrel=_REL_TOL,
                limit=_MAX_SUBDIVISIONS,
                full_output=1,
            )
            failure = message[0].strip() if message else None
        else:
            value, abserr, info = quad_vec(
                transformed,
                0.0,
                1.0,
                epsabs=_ABS_TOL,
                epsrel=_REL_TOL,
                norm="max",
                limit=_MAX_SUBDIVISIONS,
                full_output=True,
            )
            failure = info.message if info.status != 0 else None
    if failure and abserr > 10.0 * max(_ABS_TOL, _REL_TOL * np.max(np.abs(value))):
        raise QuadratureNoConvergence(f"estimated error {abserr:.3e} exceeds budget ({failure})")
    return value
