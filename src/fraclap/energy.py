"""Nonlocal energies: the Besov double sum, the spectral fractional form
and the comparability of the two.

`FracEnergyForm` is the one evaluator of the spectral form: its `weights`
(lambda^theta), `apply` (K f) and `energy` (E_theta(f, f)) go through the
modal coefficients `SpectralDecomposition.coefficients` (Phi^T M f), and
its stiffness matrix K is built only on request.

The Besov denominator uses the exponent 2*theta on the distance (the scaling
under which the two energies are comparable) together with closed balls, so
the ball mass is always positive.  Diagonal pairs are excluded from the
double sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstantFunctionInFamily, InvalidParams
from .space import Space, _row_blocks
from .spectral import SpectralDecomposition, _gram, check_theta, lambda_power

__all__ = [
    "FracEnergyForm",
    "besov_energy",
    "stiffness_matrix",
    "comparability_report",
]


@dataclass(frozen=True)
class FracEnergyForm:
    """The energy form E_theta(f, h) = f^T K h of one exponent on one
    decomposition (`stiffness_matrix`), applied through the eigenpairs.

    K = M Phi diag(lambda^theta) Phi^T M for M = diag(mu) is symmetric
    positive semidefinite with the constants as nullspace.  `apply` and
    `energy` go through the modal coefficients Phi^T M f, O(n^2) per vector,
    so a form holds no n x n array; `stiffness` builds K only when read.
    """

    dec: SpectralDecomposition
    theta: float

    @cached_property
    def weights(self) -> np.ndarray:
        """lambda_k^theta, the form's diagonal in the modal basis (read-only)."""
        weights = lambda_power(self.dec.lambdas, self.theta)
        weights.setflags(write=False)
        return weights

    def apply(self, f) -> np.ndarray:
        """K f for a vector f or every column of an n x k array f."""
        return self._apply_with_energy(f)[0]

    def energy(self, f) -> float | np.ndarray:
        """E_theta(f, f) = sum_k lambda_k^theta <f, phi_k>_mu^2: a float for a
        vector f, one value per column of an n x k array f."""
        energy = self._modal_energy(self.dec.coefficients(f))
        return float(energy) if energy.ndim == 0 else energy

    def _apply_with_energy(self, f) -> tuple[np.ndarray, np.ndarray]:
        """K f and the energies E_theta(f, f) as an array, from one set of
        modal coefficients of the vector f or of the columns of f."""
        coeffs = self.dec.coefficients(f)
        kf = self.dec.phis @ (self.weights * coeffs.T).T
        return (self.dec.space.mu * kf.T).T, self._modal_energy(coeffs)

    def _modal_energy(self, coeffs) -> np.ndarray:
        """sum_k lambda_k^theta c_k^2 for the modal coefficients c of a vector
        or of each column."""
        return np.einsum("k...,k...->...", coeffs, (self.weights * coeffs.T).T)

    @cached_property
    def stiffness(self) -> np.ndarray:
        """K as a read-only n x n array, the Gram product of
        M Phi Lambda^(theta/2), so exactly symmetric."""
        k = _gram(self.dec.space.mu[:, None] * self.dec.phis, self.weights)
        k.setflags(write=False)
        return k


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


def _besov_stiffness(space: Space, theta: float) -> np.ndarray:
    """Matrix B with f^T B f = besov_energy(space, theta, f) for every f.

    With A = W o (mu mu^T) and W_zw = 1/(d(z,w)^{2 theta} mu(B(z, d(z,w))))
    off the diagonal (0 on it), the double sum of A_zw (f_z - f_w)^2 is
    f^T (diag(A 1 + A^T 1) - (A + A^T)) f.  Built from `dist`, `mu` and the
    ball-mass table alone, never from eigenpairs.  B is written over A: the
    row and column sums are taken first, then each pair of mirrored row
    blocks (`_row_blocks`) takes -(A + A^T), so no second n x n array is
    made.
    """
    a = space.dist ** (2 * theta)
    a *= space.ball_masses
    np.fill_diagonal(a, 1.0)
    np.divide(1.0, a, out=a)
    np.fill_diagonal(a, 0.0)
    a *= space.mu[:, None]
    a *= space.mu[None, :]
    diagonal = a.sum(axis=1) + a.sum(axis=0)
    blocks = list(_row_blocks(space.n))
    for i, rows in enumerate(blocks):
        for cols in blocks[i:]:
            # float addition commutes, so both mirrored blocks are exact
            pair = a[rows, cols] + a[cols, rows].T
            np.negative(pair, out=pair)
            a[rows, cols] = pair
            a[cols, rows] = pair.T
    np.fill_diagonal(a, diagonal)
    return a


def stiffness_matrix(dec: SpectralDecomposition, theta: float) -> FracEnergyForm:
    """The form of E_theta on `dec`; O(n), as it builds no matrix."""
    check_theta(theta)
    return FracEnergyForm(dec=dec, theta=theta)


def comparability_report(dec: SpectralDecomposition, theta: float, family) -> dict:
    """Min and max of besov/fractional energy ratios over a family of vectors
    (a list of them, or an (F, n) array of F members), both energies on the
    decomposition's space.

    One Besov stiffness matrix (`_besov_stiffness`) and one application of
    the form's `energy` to the columns F^T give the energies of the whole
    family.  Both energies vanish exactly on constants, so constant members
    are rejected rather than producing 0/0.
    """
    form = stiffness_matrix(dec, theta)
    space = dec.space
    shape_msg = f"family must be F vectors of length {space.n}"
    try:
        family = np.asarray(family, dtype=float)
    except ValueError:  # members of unequal lengths
        raise InvalidParams(shape_msg) from None
    if family.size == 0:
        raise ConstantFunctionInFamily("family is empty")
    if family.ndim != 2 or family.shape[1] != space.n:
        raise InvalidParams(f"{shape_msg}, got shape {family.shape}")
    if np.any(np.ptp(family, axis=1) == 0):
        raise ConstantFunctionInFamily("family contains a constant vector")
    besov = np.einsum("fz,fz->f", family, family @ _besov_stiffness(space, theta))
    ratios = besov / form.energy(family.T)
    return {
        "theta": theta,
        "n": space.n,
        "ratio_min": float(ratios.min()),
        "ratio_max": float(ratios.max()),
        "family_size": len(family),
    }
