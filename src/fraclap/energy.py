"""Nonlocal energies: the Besov double sum, the spectral fractional form,
its stiffness-matrix realization, and the semigroup-regularized energies.

The Besov denominator uses the exponent 2*theta on the distance (the scaling
under which the two energies are comparable) together with closed balls, so
the ball mass is always positive.  Diagonal pairs are excluded from the
double sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstantFunctionInFamily, NonpositiveTime
from .space import Space
from .spectral import SpectralDecomposition, check_theta, frac_heat_kernel, lambda_power

__all__ = [
    "FracEnergyForm",
    "besov_energy",
    "frac_energy",
    "frac_bilinear",
    "stiffness_matrix",
    "regularized_energy",
    "regularized_energy_double_sum",
    "comparability_report",
]


@dataclass(frozen=True)
class FracEnergyForm:
    """Fractional stiffness operator K with f^T K h = E_theta(f, h), together
    with the decomposition it was built from (`stiffness_matrix`).

    K = M Phi diag(lambda^theta) Phi^T M for M = diag(mu); symmetric positive
    semidefinite with the constants as nullspace.
    """

    dec: SpectralDecomposition
    theta: float
    stiffness: np.ndarray

    def apply(self, f: np.ndarray) -> np.ndarray:
        return self.stiffness @ f

    def energy(self, f: np.ndarray) -> float:
        return float(f @ (self.stiffness @ f))


def besov_energy(space: Space, theta: float, f) -> float:
    """Gagliardo-type double sum
    sum_{z != w} |f(z)-f(w)|^2 / (d(z,w)^{2 theta} mu(B(z, d(z,w)))) mu(z) mu(w).

    The closed-ball masses come from the space's cached `ball_masses` table,
    so a call costs O(n^2) time and memory once the table exists.
    """
    check_theta(theta)
    f = np.asarray(f, dtype=float)
    n = space.n
    off = ~np.eye(n, dtype=bool)
    ball = space.ball_masses
    diff2 = (f[:, None] - f[None, :]) ** 2
    weights = np.zeros((n, n))
    weights[off] = 1.0 / (space.dist[off] ** (2 * theta) * ball[off])
    return float(np.einsum("zw,zw,z,w->", diff2, weights, space.mu, space.mu))


def frac_energy(dec: SpectralDecomposition, theta: float, f) -> float:
    return frac_bilinear(dec, theta, f, f)


def frac_bilinear(dec: SpectralDecomposition, theta: float, f, h) -> float:
    """E_theta(f, h) = sum_k lambda_k^theta <f, phi_k>_mu <h, phi_k>_mu."""
    check_theta(theta)
    weights = lambda_power(dec.lambdas, theta)
    return float(np.sum(weights * dec.coefficients(f) * dec.coefficients(h)))


def stiffness_matrix(dec: SpectralDecomposition, theta: float) -> FracEnergyForm:
    check_theta(theta)
    weights = lambda_power(dec.lambdas, theta)
    m_phi = dec.space.mu[:, None] * dec.phis
    k = (m_phi * weights[None, :]) @ m_phi.T
    k = 0.5 * (k + k.T)
    k.setflags(write=False)
    return FracEnergyForm(dec=dec, theta=theta, stiffness=k)


def regularized_energy(dec: SpectralDecomposition, theta: float, t: float, f) -> float:
    """(1/t) sum_x (f - T_t f)(x) f(x) mu(x) for the subordinated semigroup T_t,
    equal to sum_k (1 - exp(-t lambda_k^theta))/t <f, phi_k>_mu^2.

    Monotone decreasing in t and increasing to E_theta(f, f) as t -> 0.
    """
    check_theta(theta)
    if t <= 0:
        raise NonpositiveTime(f"t must be positive, got {t}")
    powers = lambda_power(dec.lambdas, theta)
    coeffs = dec.coefficients(f)
    return float(np.sum(-np.expm1(-t * powers) / t * coeffs**2))


def regularized_energy_double_sum(
    dec: SpectralDecomposition, theta: float, t: float, f
) -> float:
    """Same quantity as `regularized_energy` via the kernel double sum
    (1/2t) sum_{x,y} |f(x)-f(y)|^2 q_t(x,y) mu(x) mu(y); the two routes must
    agree to roundoff."""
    f = np.asarray(f, dtype=float)
    q = frac_heat_kernel(dec, theta, t).entries
    mu = dec.space.mu
    diff2 = (f[:, None] - f[None, :]) ** 2
    return float(np.einsum("xy,xy,x,y->", diff2, q, mu, mu) / (2.0 * t))


def comparability_report(dec: SpectralDecomposition, theta: float, family) -> dict:
    """Min and max of besov/fractional energy ratios over a family of vectors,
    both energies on the decomposition's space.

    Both energies vanish exactly on constants, so constant members are
    rejected rather than producing 0/0.
    """
    check_theta(theta)
    space = dec.space
    family = [np.asarray(f, dtype=float) for f in family]
    if not family:
        raise ConstantFunctionInFamily("family is empty")
    ratios = []
    for f in family:
        if np.ptp(f) == 0:
            raise ConstantFunctionInFamily("family contains a constant vector")
        ratios.append(besov_energy(space, theta, f) / frac_energy(dec, theta, f))
    return {
        "theta": theta,
        "n": space.n,
        "ratio_min": float(min(ratios)),
        "ratio_max": float(max(ratios)),
        "family_size": len(family),
    }
