"""The weighted half-space X x (0, inf) with measure y^a dy dmu, a = 1 - 2*theta.

Provides the discretized half-space grid, the Poisson-type harmonic extension
of boundary data (assembled per eigenmode from a subordination-style integral),
the weighted normal derivative at y = 0 (which recovers the fractional
Laplacian), the per-mode extension energy, and two exact geometric identities
on the product space: the 2-modulus of vertical curve families and the
co-dimension ball-volume identity.

Only the upper half-space is ever materialized: the full-space problem is
symmetric under y -> -y, so full-space quantities are twice the half-space
ones plus boundary terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateFirstCell,
    EmptySubset,
    GridThetaMismatch,
    InvalidParams,
    RadiusExceedsGrid,
)
from .quadrature import EXPSINH_FLOOR, integrate_expsinh
from .space import Space, ball_measure
from .spectral import SpectralDecomposition, _check_vector, _distinct_values, check_theta

__all__ = [
    "HalfSpaceGrid",
    "ExtensionField",
    "build_grid",
    "dtn_constant",
    "extension_energy_constant",
    "mode_profile",
    "mode_profile_derivative",
    "poisson_extend",
    "dtn_apply",
    "mode_energy_quadrature",
    "vertical_modulus",
    "codim_ball_check",
    "default_ymax",
]

MIN_GRID_NODES = 8
DEFAULT_RATIO = 0.5
_YMAX_DECAY = 1e-8  # decay of the slowest mode at the default grid height


def dtn_constant(theta: float) -> float:
    """d_theta = 2^(2 theta - 1) Gamma(theta) / Gamma(1 - theta), the constant
    relating the weighted normal derivative to the fractional Laplacian:
    -d_theta * y^a du/dy -> (-Delta)^theta f as y -> 0."""
    check_theta(theta)
    # imported on first use: scipy.special costs a process about 23 MiB of
    # resident memory (17 of it scipy._lib._array_api, which loads
    # numpy.testing, unittest and numpy.f2py), and only the special
    # functions of this module need it
    from scipy.special import gamma

    return 2.0 ** (2.0 * theta - 1.0) * gamma(theta) / gamma(1.0 - theta)


def extension_energy_constant(theta: float) -> float:
    """Energy of the harmonic extension per unit fractional energy: the
    weighted Dirichlet energy of the extension of f equals this constant times
    E_theta(f, f).  Equal to 1/d_theta (integrate the per-mode flux identity
    by parts); both constants coincide at theta = 1/2."""
    return 1.0 / dtn_constant(theta)


@dataclass(frozen=True)
class HalfSpaceGrid:
    """Ordinates 0 = y_0 < y_1 < ... < y_m = Ymax with exact cell weights
    w_j = integral of y^a over [y_j, y_{j+1}] (antiderivative differences, so
    sum w_j = Ymax^(1+a)/(1+a) up to roundoff)."""

    theta: float
    ys: np.ndarray

    @property
    def a(self) -> float:
        return 1.0 - 2.0 * self.theta

    @property
    def Ymax(self) -> float:
        return float(self.ys[-1])

    @cached_property
    def cellweights(self) -> np.ndarray:
        w = self.weight_integral(self.ys[:-1], self.ys[1:])
        w.setflags(write=False)
        return w

    @property
    def m(self) -> int:
        return len(self.ys) - 1

    def weight_integral(self, lo, hi):
        """Exact integral of y^a over [lo, hi] (or over arrays of cells)."""
        e = 1.0 + self.a
        return (hi**e - lo**e) / e

    def weight_first_moment(self, lo, hi):
        """Exact integral of y * y^a over [lo, hi], like `weight_integral`."""
        e = 2.0 + self.a
        return (hi**e - lo**e) / e

    def check_theta_matches(self, theta: float) -> None:
        """Raise GridThetaMismatch unless the grid was built for `theta`."""
        if abs(self.theta - theta) > 1e-12:
            raise GridThetaMismatch(f"grid built for theta={self.theta}, got theta={theta}")

    def _cells_below(self, r: float):
        """The cells of [0, r] as arrays (lo, hi): every cell that starts
        below r, the last one cut at r."""
        k = int(np.searchsorted(self.ys[:-1], r))
        return self.ys[:k], np.minimum(self.ys[1 : k + 1], r)

    def cell_centroids(self) -> np.ndarray:
        """Measure-weighted centroid of each cell (midpoint in measure)."""
        return self.weight_first_moment(*self._cells_below(self.Ymax)) / self.cellweights


def build_grid(
    theta: float,
    Ymax: float,
    m: int,
    layout: str = "geometric",
    ratio: float = DEFAULT_RATIO,
) -> HalfSpaceGrid:
    """Discretize (0, Ymax] with m cells.

    The geometric layout places y_j = Ymax * ratio^(m-j), clustering nodes at
    the boundary where the weight y^a degenerates; the uniform layout is used
    for the exact geometric identities (modulus, co-dimension) whose
    refinement limits need uniformly shrinking cells.
    """
    check_theta(theta)
    if Ymax <= 0 or m < MIN_GRID_NODES:
        raise InvalidParams(f"need Ymax > 0 and m >= {MIN_GRID_NODES}, got {Ymax}, {m}")
    if layout == "geometric":
        if not 0 < ratio < 1:
            raise InvalidParams(f"geometric ratio must lie in (0, 1), got {ratio}")
        ys = np.zeros(m + 1)
        ys[1:] = Ymax * ratio ** np.arange(m - 1, -1, -1)
    elif layout == "uniform":
        ys = np.linspace(0.0, Ymax, m + 1)
    else:
        raise InvalidParams(f"unknown layout {layout!r}")
    ys.setflags(write=False)
    return HalfSpaceGrid(theta=theta, ys=ys)


def _first_node_vanishes(m: int) -> bool:
    """Whether the geometric layout of `build_grid` with m cells puts its
    first node y_1 = Ymax * DEFAULT_RATIO^(m - 1) at 0 for every finite Ymax.
    build_grid forms the power first, by the same numpy power on an integer
    exponent as here.  Once the power underflows to 0 no Ymax lifts the
    product; while it is positive (at least 2^-1074), the largest finite
    Ymax (about 2^1024) keeps y_1 positive.  At ratio 1/2 the power
    2^-1075 rounds to 0, so this holds from m = 1076 on."""
    return bool(DEFAULT_RATIO ** np.arange(m - 1, m)[0] == 0.0)


def default_ymax(dec: SpectralDecomposition) -> float:
    """Height at which the slowest nonzero mode has decayed below 1e-8, so
    truncating the energy tail is negligible."""
    lam_pos = dec.lambdas[dec.lambdas > 0]
    if lam_pos.size == 0:
        return 10.0
    return float(-np.log(_YMAX_DECAY) / np.sqrt(lam_pos.min()))


# ---------------------------------------------------------------------------
# per-mode extension profile
#
# The profile of one eigenmode is the kernel integral
#
#     g_lam(y) = C_a y^(1-a) integral s^((a-3)/2) e^{-y^2/(4s)} e^{-lam s} ds,
#     1/C_a    = integral tau^((a-3)/2) e^{-1/(4 tau)} dtau,
#
# the unique bounded solution of g'' + (a/y) g' = lam g with g(0) = 1.  The
# integral reduces exactly to a modified Bessel function,
#
#     g_lam(y) = 2^(1-theta)/Gamma(theta) * z^theta K_theta(z),  z = sqrt(lam) y,
#
# which is the production evaluation from z = _KVE_FLOOR, where scipy's kve
# (AMOS) stops giving inf, up to the decay floor.  Below it the profile is
# its expansion g = 1 - C y^(2 theta) + lam y^2 / (4 - 4 theta) at y = 0,
# exact to roundoff there (the terms dropped are z^2 < 1e-609 smaller); the
# regular term counts only in the slope, a third of it at theta = 0.999.
# The test suite keeps the quadrature route as the independent oracle
# (tests/oracles.py), and verifies the consistency of the two
# normalizations (so that g(0) = 1) numerically rather than assuming it.

_KVE_FLOOR = 1e3 * np.finfo(float).tiny


def _boundary_coefficient(lam, theta: float):
    """C = Gamma(1-theta) / Gamma(1+theta) (lam/4)^theta of g = 1 - C y^(2 theta) + ..."""
    return math.gamma(1.0 - theta) / math.gamma(1.0 + theta) * (lam / 4.0) ** theta


def mode_profile(lam, theta: float, y):
    """Vertical profile g_lam(y) of one eigenmode of the harmonic extension.

    `lam` and `y` broadcast against each other; scalars give a float.
    """
    check_theta(theta)
    lam, y = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(y, dtype=float))
    if np.any(lam < 0) or np.any(y < 0):
        raise InvalidParams("mode_profile needs lam >= 0 and y >= 0")
    # imported on first use, as in `dtn_constant`
    from scipy.special import gamma, kve

    g = np.ones(lam.shape)
    pos = (y != 0.0) & (lam != 0.0)
    small = pos & (np.sqrt(lam) * y < _KVE_FLOOR)
    pos &= ~small
    z = np.sqrt(lam[pos]) * y[pos]
    scaled = z**theta * kve(theta, z)  # e^z z^theta K_theta(z)
    g[pos] = 2.0 ** (1.0 - theta) / gamma(theta) * scaled * np.exp(-z)
    g[small] = 1.0 - _boundary_coefficient(lam[small], theta) * y[small] ** (2.0 * theta)
    return float(g) if g.ndim == 0 else g


def mode_profile_derivative(lam, theta: float, y):
    """dg_lam/dy; uses d/dz [z^nu K_nu(z)] = -z^nu K_(nu-1)(z).  Broadcasts
    like `mode_profile`.  A slope beyond the largest double (at theta = 0.01,
    below y ~ 1e-316 for lam = 1) is -inf."""
    check_theta(theta)
    lam, y = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(y, dtype=float))
    pos = lam != 0.0
    if np.any(y[pos] <= 0):
        raise InvalidParams("profile derivative needs y > 0")
    # imported on first use, as in `dtn_constant`
    from scipy.special import gamma, kve

    dg = np.zeros(lam.shape)
    small = pos & (np.sqrt(lam) * y < _KVE_FLOOR)
    pos &= ~small
    root = np.sqrt(lam[pos])
    z = root * y[pos]
    scaled = z**theta * kve(1.0 - theta, z)
    dg[pos] = -(2.0 ** (1.0 - theta)) / gamma(theta) * root * scaled * np.exp(-z)
    lam, y = lam[small], y[small]
    with np.errstate(over="ignore"):
        singular = 2.0 * theta * _boundary_coefficient(lam, theta) * y ** (2.0 * theta - 1.0)
    dg[small] = lam * y / (2.0 - 2.0 * theta) - singular
    return float(dg) if dg.ndim == 0 else dg


# ---------------------------------------------------------------------------
# extension field


@dataclass(frozen=True)
class ExtensionField:
    """Harmonic extension sampled on the grid rows; u(., 0) is the boundary
    data exactly."""

    values: np.ndarray
    grid: HalfSpaceGrid


def poisson_extend(dec: SpectralDecomposition, f, grid: HalfSpaceGrid) -> ExtensionField:
    """Extend boundary data into the weighted half-space mode by mode:
    u(x, y_j) = sum_k <f, phi_k>_mu g_{lambda_k}(y_j) phi_k(x), with the
    exponent theta the grid was built for (`HalfSpaceGrid.theta`)."""
    f = _check_vector(dec.space, f)
    coeffs = dec.coefficients(f)
    profiles = _profile_table(dec.lambdas, grid.theta, grid.ys)
    values = dec.phis @ (coeffs[:, None] * profiles)
    values[:, 0] = f  # boundary row carries the data exactly
    values.setflags(write=False)
    return ExtensionField(values=values, grid=grid)


def _profile_table(lambdas, theta, ys):
    """g_{lambda_k}(y_j) for all modes and ordinates of the ascending
    `lambdas`, deduplicating repeated eigenvalues (the profile depends on
    lambda only)."""
    uniq, inverse = _distinct_values(lambdas)
    return mode_profile(uniq[:, None], theta, ys[None, :])[inverse]


def _check_first_cell(grid: HalfSpaceGrid) -> None:
    """Raise DegenerateFirstCell unless `dtn_apply` can resolve the grid's
    first two rows: 0 < y_1 < y_2 and y_1^(2 theta) >= 1e-13.  Below that
    scale the boundary-layer variation B y^(2 theta) drowns in
    double-precision roundoff of the stored rows and the quotient is noise."""
    y1, y2 = grid.ys[1], grid.ys[2]
    if y1 <= 0 or y2 <= y1:
        raise DegenerateFirstCell(f"need 0 < y_1 < y_2, got {y1}, {y2}")
    if y1 ** (2.0 * grid.theta) < 1e-13:
        raise DegenerateFirstCell(
            f"first cell y_1={y1:.3e} unresolvable at theta={grid.theta}; "
            "use a coarser ratio or smaller m"
        )


def dtn_apply(u: ExtensionField) -> np.ndarray:
    """Weighted normal derivative -d_theta * lim y^a du/dy at the boundary.

    The field behaves like u(0) + B y^(2 theta) + C y^2 near y = 0, and the
    flux limit is -d_theta * 2 theta * B.  B is extracted from the first two
    interior rows, which cancels the regular y^2 contamination and converges
    at second order in y_1; at theta = 1/2 this reduces to the classic
    one-sided three-point derivative.
    """
    grid, theta = u.grid, u.grid.theta
    _check_first_cell(grid)
    y1, y2 = grid.ys[1], grid.ys[2]
    tt = 2.0 * theta
    det = y1**tt * y2**2 - y2**tt * y1**2
    if det == 0:
        raise DegenerateFirstCell("singular two-node extraction")
    d0, d1, d2 = u.values[:, 0], u.values[:, 1], u.values[:, 2]
    b = ((d1 - d0) * y2**2 - (d2 - d0) * y1**2) / det
    return -dtn_constant(theta) * tt * b


# ---------------------------------------------------------------------------
# extension energy


def mode_energy_quadrature(lam, theta: float) -> float | np.ndarray:
    """Quadrature of the per-mode energy integral_0^inf y^a (g'^2 + lam g^2)
    dy: a float for a scalar lam, a vector for a vector, from one call of
    the exp-sinh rule over y > y0 = EXPSINH_FLOOR.  Each lam's integrand is
    divided by lam^theta (1 at lam = 0), the size of its value, so the
    rule's budget is relative per lam, and the result multiplied back.
    Below y0 the leading terms g = 1 - C y^(2 theta) + O(y^2), C =
    Gamma(1-theta) / Gamma(1+theta) (lam/4)^theta, give 2 theta C^2
    y0^(2 theta) + lam y0^(2-2 theta) / (2-2 theta).  At theta <= 1e-3 or
    >= 0.999 that part carries at least 78.6% of the value, so there the
    check mostly compares the expansion with d_theta.
    """
    check_theta(theta)
    a = 1.0 - 2.0 * theta
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    size = np.where(lams == 0.0, 1.0, lams**theta)

    def integrand(y):
        g = mode_profile(lams, theta, y)
        dg = mode_profile_derivative(lams, theta, y)
        return y**a * (dg * dg + lams * g * g) / size

    y0 = EXPSINH_FLOOR
    c = _boundary_coefficient(lams, theta)
    below = 2.0 * theta * c * c * y0 ** (2.0 * theta) + lams * y0 ** (1.0 + a) / (1.0 + a)
    energy = integrate_expsinh(integrand) * size + below
    return float(energy[0]) if np.ndim(lam) == 0 else energy


# ---------------------------------------------------------------------------
# exact product-space identities


def vertical_modulus(space: Space, subset, h: float, grid: HalfSpaceGrid) -> dict:
    """2-modulus of the family of vertical segments {x} x [0, h], x in subset,
    for the weight y^a of the grid (a = 1 - 2 theta).

    exact: mu(A) (1-a) / h^(1-a), the variational optimum with density
    proportional to t^(-a) along each column.  numeric: the optimum of the
    cell-discretized convex program (minimize sum_j w_j rho_j^2 subject to
    sum_j rho_j dy_j >= 1 per column), whose Lagrange closed form is
    1 / sum_j (dy_j^2 / w_j) per unit column mass.  The numeric value
    approaches the exact one from above under uniform refinement and always
    lies within the bracket [(1-a), 1/(1+a)] * mu(A)/h^(1-a).
    """
    if h <= 0:
        raise InvalidParams(f"column height must be positive, got {h}")
    mask = _subset_mask(space, subset)
    if not mask.any():
        raise EmptySubset("vertical family over an empty subset")
    if h > grid.Ymax * (1 + 1e-12):
        raise RadiusExceedsGrid(f"h={h} exceeds grid span {grid.Ymax}")
    a = grid.a
    mass = float(space.mu[mask].sum())

    lo, hi = grid._cells_below(h)
    resistance = float(np.sum((hi - lo) ** 2 / grid.weight_integral(lo, hi)))
    numeric = mass / resistance
    exact = mass * (1.0 - a) / h ** (1.0 - a)
    return {"numeric": numeric, "exact": exact}


def _subset_mask(space, subset):
    subset = np.asarray(subset)
    if subset.dtype == bool:
        if subset.shape != (space.n,):
            raise InvalidParams("boolean subset mask has wrong length")
        return subset
    mask = np.zeros(space.n, dtype=bool)
    mask[subset] = True
    return mask


def codim_ball_check(space: Space, grid: HalfSpaceGrid, x, r: float) -> dict:
    """Volume of the product ball B((x,0), r) in the max metric intersected
    with the half-space, computed two ways:

      lhs: mass of B_X(x, r) times the grid-cell sum of the weight over [0, r]
           (partial cell resolved by the exact antiderivative);
      rhs: r^(1+a)/(1+a) * mu(B_X(x, r)).

    Both are exact integrals, so they agree to roundoff.  `x` may be an
    array of centres, giving arrays of both sides (a scalar gives floats).
    """
    if not 0 < r <= grid.Ymax * (1 + 1e-12):
        raise RadiusExceedsGrid(f"need 0 < r <= Ymax={grid.Ymax}, got {r}")
    mass = ball_measure(space, x, r)
    lhs = mass * float(np.sum(grid.weight_integral(*grid._cells_below(r))))
    rhs = r ** (1.0 + grid.a) / (1.0 + grid.a) * mass
    return {"lhs": lhs, "rhs": rhs}
