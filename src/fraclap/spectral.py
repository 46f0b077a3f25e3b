"""Spectral calculus for the weighted graph Laplacian.

The Laplacian acts by Delta f(x) = mu(x)^{-1} sum_y c(x,y) (f(y) - f(x)); it
is self-adjoint in l2(mu) and satisfies the duality
sum_x v(x) Delta f(x) mu(x) = -E(v, f) against the conductance Dirichlet form
E(f, g) = 1/2 sum_{x,y} c(x,y) (f(x)-f(y)) (g(x)-g(y)).

Everything downstream (heat semigroup, fractional powers, subordinated
semigroup) is a function of the spectral resolution computed here.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .errors import (
    DimensionMismatch,
    EigensolverNoConvergence,
    InvalidParams,
    NonpositiveTime,
    SeriesTimeTooLarge,
    ThetaOutOfRange,
)
from .quadrature import DEFAULT_QUAD, QuadratureSpec, integrate_halfline
from .space import Space

__all__ = [
    "SpectralDecomposition",
    "KernelMatrix",
    "laplacian_apply",
    "graph_stiffness",
    "dirichlet_form",
    "decompose",
    "heat_kernel",
    "heat_kernel_series",
    "frac_apply",
    "frac_heat_kernel",
    "subordination_check",
    "inverse_gaussian_density",
    "qt_scaling_report",
]

_EIGENTOL = 1e-10  # zero clamp and validation bounds, relative to lambda_max
_SERIES_TOL = 1e-16  # the series ends at a term bounded by this share of the sum
_SERIES_MAX_BETA_T = 600.0
_QT_TIMES = (0.01, 0.1, 1.0)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending, lambda_0 = 0) and mu-orthonormal eigenvectors.

    Columns of `phis` satisfy sum_x phi_j(x) phi_k(x) mu(x) = delta_jk, with
    the sign of each column fixed so its first significant entry is positive.
    Degenerate eigenvalues admit any orthonormal basis of the eigenspace, so
    only projection-level quantities are reproducible across platforms.
    """

    space: Space
    lambdas: np.ndarray
    phis: np.ndarray

    @property
    def n(self) -> int:
        return self.space.n

    def coefficients(self, f: np.ndarray) -> np.ndarray:
        """mu-weighted spectral coefficients <f, phi_k>_mu."""
        f = _check_vector(self.space, f)
        return self.phis.T @ (self.space.mu * f)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        return self.phis @ coeffs


@dataclass(frozen=True)
class KernelMatrix:
    entries: np.ndarray

    def row_mu_sums(self, space: Space) -> np.ndarray:
        return self.entries @ space.mu


def _check_vector(space: Space, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (space.n,):
        raise DimensionMismatch(f"expected vector of length {space.n}, got shape {f.shape}")
    return f


def laplacian_apply(space: Space, f) -> np.ndarray:
    return _laplacian(space, _check_vector(space, f))


def _laplacian(space: Space, f: np.ndarray) -> np.ndarray:
    """Delta f for a vector f, or for every column of an n x k array f, built
    from `cond` and `mu` alone (no stiffness matrix)."""
    out = space.cond @ f
    rows = out.T  # a view, so the updates below act on out in place
    rows -= space.cond.sum(axis=1) * f.T
    rows /= space.mu
    return out


def graph_stiffness(space: Space) -> np.ndarray:
    """Stiffness matrix diag(sum_y c(., y)) - c of the Dirichlet form E, so
    that E(f, g) = f^T S g and -Delta = diag(mu)^-1 S.  Built afresh per call
    (n^2 doubles), never cached on the space."""
    return np.diag(space.cond.sum(axis=1)) - space.cond


def dirichlet_form(space: Space, f, g) -> float:
    """E(f, g) = 1/2 sum_{x,y} c(x,y)(f(x)-f(y))(g(x)-g(y))."""
    f = _check_vector(space, f)
    g = _check_vector(space, g)
    return float(f @ (graph_stiffness(space) @ g))


def decompose(space: Space) -> SpectralDecomposition:
    """Full eigendecomposition of -Delta in the mu-weighted inner product.

    Solved as a symmetric problem after the similarity transform by
    diag(sqrt(mu)).  Eigenvalues within `1e-10 * lambda_max` of zero
    are clamped to zero so the constant mode is exact; the tolerance is
    relative, so the result does not depend on the units of `cond` or `mu`.
    A connected space has exactly one zero eigenvalue, and anything else
    raises EigensolverNoConvergence.
    """
    # n x n work arrays are updated in place and freed before validation;
    # sym.T is sym (exactly symmetric) in the Fortran order LAPACK overwrites.
    # Divide and conquer ("evd") rather than the default MRRR: lattice
    # spectra are clustered, where it is about twice as fast and more
    # accurately orthogonal.
    sqrt_mu = np.sqrt(space.mu)
    sym = graph_stiffness(space)
    sym /= np.outer(sqrt_mu, sqrt_mu)
    sym += sym.T
    sym *= 0.5
    lambdas, vecs = eigh(sym.T, overwrite_a=True, driver="evd")
    del sym

    zero_tol = _EIGENTOL * max(lambdas[-1], 0.0)
    if lambdas[0] < -zero_tol:
        raise EigensolverNoConvergence(
            f"negative eigenvalue {lambdas[0]:.3e} (lambda_max {lambdas[-1]:.3e})"
        )
    lambdas = np.where(np.abs(lambdas) <= zero_tol, 0.0, lambdas)
    n_zero = int(np.count_nonzero(lambdas == 0.0))
    if n_zero != 1:
        raise EigensolverNoConvergence(
            f"{n_zero} eigenvalues within {zero_tol:.3e} of zero; a connected space has one"
        )

    vecs /= sqrt_mu[:, None]
    phis = _fix_signs(vecs)
    dec = SpectralDecomposition(space=space, lambdas=lambdas, phis=phis)
    _validate_decomposition(dec)
    lambdas.setflags(write=False)
    phis.setflags(write=False)
    return dec


def _fix_signs(phis: np.ndarray) -> np.ndarray:
    """Flip columns in place so each one's first significant entry (above
    1e-12 of its largest magnitude) is positive."""
    mag = np.abs(phis)
    lead = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    phis *= np.where(phis[lead, np.arange(phis.shape[1])] < 0, -1.0, 1.0)
    return phis


def _validate_decomposition(dec):
    space, lam, phi = dec.space, dec.lambdas, dec.phis
    gram = phi.T @ (space.mu[:, None] * phi)
    gram[np.diag_indices(space.n)] -= 1.0
    ortho_err = np.max(np.abs(gram))
    del gram
    # eigen-residual |Delta phi_k + lambda_k phi_k| relative to max |phi|,
    # which scales like mu^(-1/2)
    resid = _laplacian(space, phi)
    resid += phi * lam[None, :]
    resid = np.max(np.abs(resid)) / np.max(np.abs(phi))
    scale = float(lam.max())
    if ortho_err > 100 * _EIGENTOL or resid > 100 * _EIGENTOL * scale:
        raise EigensolverNoConvergence(
            f"orthonormality error {ortho_err:.3e}, residual {resid:.3e} exceed tolerance"
        )


def _kernel_from_weights(dec, weights) -> KernelMatrix:
    entries = (dec.phis * weights[None, :]) @ dec.phis.T
    entries = 0.5 * (entries + entries.T)
    entries.setflags(write=False)
    return KernelMatrix(entries=entries)


def heat_kernel(dec: SpectralDecomposition, t: float) -> KernelMatrix:
    """p_t(x,z) = sum_k exp(-lambda_k t) phi_k(x) phi_k(z)."""
    if t <= 0:
        raise NonpositiveTime(f"t must be positive, got {t}")
    return _kernel_from_weights(dec, np.exp(-dec.lambdas * t))


def heat_kernel_series(space: Space, t: float | Sequence[float]) -> np.ndarray | list[np.ndarray]:
    """Heat kernel via the uniformization series, a cancellation-free route.

    Writing Delta = beta (Q - I) with Q a row-stochastic, entrywise-nonnegative
    operator matrix gives exp(t Delta) = exp(-beta t) sum_j (beta t)^j / j! Q^j.
    The series is evaluated by scaling and squaring: for x = beta t and the
    least k >= 0 with h = x / 2^k <= 1/2 and (n - 1) / 2^k <= 16,

        exp(t Delta) = (exp(-h) sum_{j <= m} h^j / j! Q^j)^(2^k).

    The degree m is fixed up front: the least m >= ceil((n - 1) / 2^k) with
    h^m / m! <= 1e-16.  Every entry of h^j / j! Q^j is at most h^j / j! and
    the sum is at least I, so no term past m reaches 1e-16 of its largest
    entry.  The sum is evaluated by Horner's rule in Q^2 (Paterson and
    Stockmeyer),

        sum_b (c_2b I + c_2b+1 Q) (Q^2)^b,   c_j = h^j / j!  (c_j = 0 for j > m),

    in ceil(m / 2) <= 8 dense products instead of m, with at most Q, Q^2, the
    running sum and one product alive at once; the squarings take k more.

    `t` is one time, which gives one array, or a sequence of times, which
    gives a list of arrays in input order.  Times with the same short step h
    (times that differ by a power of two, once x sets k) share one sum and
    one chain of squarings, and each is read off at its own k; the group's
    degree is taken at its smallest k.

    Every coefficient and every product is entrywise nonnegative and nothing
    is subtracted, so entries come out strictly positive in floating point on
    connected graphs, which the spectral sum cannot guarantee for entries far
    below roundoff.  For that the short-step sum keeps at least
    ceil((n - 1) / 2^k) terms: its 2^k-th power then contains Q^j for every
    j <= n - 1, beyond the hop diameter, so every entry has received its
    first nonzero contribution.

    Returns kernel entries k(x, z), i.e. the operator matrix with columns
    divided by mu.  Built from `cond` and `mu` alone, never from the
    eigenpairs, so it stays an independent check of `heat_kernel`.
    """
    scalar = np.ndim(t) == 0
    ts = [t] if scalar else list(t)
    if not ts:
        raise InvalidParams("the series route needs at least one time")
    degrees = space.cond.sum(axis=1) / space.mu
    beta = float(degrees.max())
    groups: dict[float, list[tuple[int, int]]] = {}  # h -> [(k, index)]
    for i, s in enumerate(ts):
        if not s > 0:
            raise NonpositiveTime(f"t must be positive, got {s}")
        x = beta * s
        # agreement with the spectral kernel is verified up to here; the
        # squarings amplify roundoff beyond it
        if x > _SERIES_MAX_BETA_T:
            raise SeriesTimeTooLarge(
                f"beta*t = {x:.1f} at t = {s} exceeds {_SERIES_MAX_BETA_T:.0f} "
                "for the series route"
            )
        # the short step also reaches n - 1 hops within 16 terms, so the
        # minimum-terms rule never costs more than the tolerance does
        k = 0
        while x / 2**k > 0.5 or (space.n - 1) / 2**k > 16:
            k += 1
        groups.setdefault(x / 2**k, []).append((k, i))

    q = space.cond / (beta * space.mu[:, None])
    np.fill_diagonal(q, 1.0 - degrees / beta)
    kernels = [None] * len(ts)
    for g, (h, members) in enumerate(groups.items()):
        if g == len(groups) - 1:
            hq, q = q, None  # the last group scales Q in place
            hq *= h
        else:
            hq = q * h
        members.sort()
        min_terms = -(-(space.n - 1) // 2 ** members[0][0])
        acc = _short_step_exp(hq, h, _series_degree(h, min_terms))
        del hq
        squarings = 0
        for k, i in members:
            for _ in range(k - squarings):
                acc = acc @ acc
            squarings = k
            kernels[i] = acc / space.mu[None, :]
        del acc
    return kernels[0] if scalar else kernels


def _series_degree(h: float, min_terms: int) -> int:
    """The least m >= min_terms with h^m / m! <= _SERIES_TOL."""
    m, coef = 0, 1.0
    while m < min_terms or coef > _SERIES_TOL:
        m += 1
        coef *= h / m
    return m


def _short_step_exp(hq: np.ndarray, h: float, degree: int) -> np.ndarray:
    """exp(-h) sum_{j <= degree} (hQ)^j / j! for hq = hQ, by Horner's rule in (hQ)^2.

    The blocks are scaled by (2b + 1)!, so that every update is in place:
    T_b = (2b + 1) I + hQ + (hQ)^2 T_{b+1} / ((2b + 2)(2b + 3)) and T_0 is the
    sum.  The top block is degree I + hQ for an odd degree, and
    (degree - 1) I + hQ + (hQ)^2 / degree for an even one.
    """
    hq2 = hq @ hq if degree > 1 else None
    if degree % 2:
        acc = hq.copy()
    else:
        acc = hq2 / degree
        acc += hq
    top = degree - 1 + degree % 2  # 2b + 1 of the block in acc
    _add_to_diagonal(acc, top)
    for c in range(top - 2, 0, -2):
        acc = acc @ hq2
        acc /= (c + 1) * (c + 2)
        acc += hq
        _add_to_diagonal(acc, c)
    acc *= np.exp(-h)
    return acc


def _add_to_diagonal(a: np.ndarray, c: float) -> None:
    """a += c I in place, for a C-contiguous square array."""
    a.reshape(-1)[:: a.shape[0] + 1] += c


def frac_apply(dec: SpectralDecomposition, theta: float, f) -> np.ndarray:
    """Spectral fractional power: sum_k lambda_k^theta <f, phi_k>_mu phi_k."""
    check_theta(theta)
    return spectral_power_apply(dec, theta, f)


def spectral_power_apply(dec: SpectralDecomposition, p: float, f) -> np.ndarray:
    """(-Delta)^p f for any p >= 0, without the public range check."""
    coeffs = dec.coefficients(f)
    return dec.synthesize(lambda_power(dec.lambdas, p) * coeffs)


def lambda_power(lambdas: np.ndarray, p: float) -> np.ndarray:
    """lambda_k^p with the zero eigenvalue mapped to 0 for every p."""
    out = np.zeros_like(lambdas)
    pos = lambdas > 0
    out[pos] = lambdas[pos] ** p
    return out


def frac_heat_kernel(dec: SpectralDecomposition, theta: float, t: float) -> KernelMatrix:
    """Kernel of the subordinated semigroup exp(-t (-Delta)^theta)."""
    check_theta(theta)
    if t <= 0:
        raise NonpositiveTime(f"t must be positive, got {t}")
    weights = np.exp(-t * lambda_power(dec.lambdas, theta))
    return _kernel_from_weights(dec, weights)


def check_theta(theta: float) -> None:
    """Raise ThetaOutOfRange unless 0 < theta < 1."""
    if not 0 < theta < 1:
        raise ThetaOutOfRange(f"theta must lie in (0, 1), got {theta}")


def inverse_gaussian_density(t: float, s) -> np.ndarray:
    """Subordinator density eta_t(s) = t/(2 sqrt(pi)) s^{-3/2} exp(-t^2/(4s)),
    the closed form at exponent one half."""
    s = np.asarray(s, dtype=float)
    return t / (2.0 * np.sqrt(np.pi)) * s ** (-1.5) * np.exp(-t * t / (4.0 * s))


def subordination_check(
    dec: SpectralDecomposition, t: float, quad: QuadratureSpec = DEFAULT_QUAD
) -> float:
    """Max over eigenvalues of |integral(eta_t e^{-lambda s} ds) - e^{-t sqrt(lambda)}|.

    Quadrature oracle for the identity that the half-power semigroup is the
    inverse-Gaussian time average of the heat semigroup.  Restricted to
    exponent 1/2, the one case with a closed-form subordinator density.
    """
    if t <= 0:
        raise NonpositiveTime(f"t must be positive, got {t}")
    lams = np.unique(dec.lambdas)
    # one vector-valued quadrature over all eigenvalues; the integrands are
    # bounded on the compactified interval, so no extrapolation is needed
    integrals = integrate_halfline(
        lambda s: inverse_gaussian_density(t, s) * np.exp(-lams * s), quad
    )
    return float(np.max(np.abs(integrals - np.exp(-t * np.sqrt(lams)))))


def qt_scaling_report(dec: SpectralDecomposition, theta: float) -> dict:
    """Scaling diagnostic for the subordinated kernel against the jump-kernel
    normalizations t / (d(x,y)^e mu(B(x, d(x,y)))) for e in {theta, 2 theta},
    at t = 0.01, 0.1, 1.

    Reports the max sampled ratio under both exponents; no bound is asserted
    (the sharp exponent is left open upstream).
    """
    check_theta(theta)
    space = dec.space
    off = ~np.eye(space.n, dtype=bool)
    ball = space.ball_masses
    out = {"exp_theta": 0.0, "exp_2theta": 0.0}
    for t in _QT_TIMES:
        q = frac_heat_kernel(dec, theta, t).entries
        for key, e in (("exp_theta", theta), ("exp_2theta", 2 * theta)):
            ratios = q[off] * space.dist[off] ** e * ball[off] / t
            out[key] = max(out[key], float(ratios.max()))
    return out
