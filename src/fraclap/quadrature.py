"""Adaptive quadrature over the half line (0, inf).

All half-line integrals in this package go through `integrate_halfline`,
which applies the compactifying substitution s = u^2/(1-u)^2 mapping
(0, 1) -> (0, inf) and hands the transformed integrand to an adaptive
Gauss-Kronrod rule (scipy's QUADPACK).  The substitution tames both
power-law endpoint behavior at s -> 0 and algebraic tails at s -> inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import QuadratureNoConvergence

__all__ = ["QuadratureSpec", "integrate_halfline"]


@dataclass(frozen=True)
class QuadratureSpec:
    """Error budget for one adaptive quadrature call."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_subdivisions: int = 200

    def refined(self, factor: float = 10.0) -> "QuadratureSpec":
        """A stricter budget, used for self-convergence cross checks."""
        return QuadratureSpec(
            abs_tol=self.abs_tol / factor,
            rel_tol=self.rel_tol / factor,
            max_subdivisions=2 * self.max_subdivisions,
        )


DEFAULT_QUAD = QuadratureSpec()


def integrate_halfline(f, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Integrate f over (0, inf) via the substitution s = u^2/(1-u)^2."""

    def transformed(u):
        om = 1.0 - u
        s = (u * u) / (om * om)
        ds = 2.0 * u / (om * om * om)
        val = f(s) * ds
        # integrable endpoint singularities can evaluate to nan at the rims
        return val if np.isfinite(val) else 0.0

    value, abserr, info, *message = quad(
        transformed,
        0.0,
        1.0,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    if message and abserr > 10.0 * max(spec.abs_tol, spec.rel_tol * abs(value)):
        raise QuadratureNoConvergence(
            f"estimated error {abserr:.3e} exceeds budget ({message[0].strip()})"
        )
    return value
