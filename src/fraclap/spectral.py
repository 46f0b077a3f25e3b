"""Spectral calculus for the weighted graph Laplacian.

The Laplacian acts by Delta f(x) = mu(x)^{-1} sum_y c(x,y) (f(y) - f(x)); it
is self-adjoint in l2(mu) and satisfies the duality
sum_x v(x) Delta f(x) mu(x) = -E(v, f) against the conductance Dirichlet form
E(f, g) = 1/2 sum_{x,y} c(x,y) (f(x)-f(y)) (g(x)-g(y)).

Everything downstream (heat semigroup, fractional powers) is a function of
the spectral resolution computed here.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EigensolverNoConvergence,
    NonpositiveTime,
    SeriesTimeTooLarge,
    ThetaOutOfRange,
)
from .quadrature import integrate_halfline
from .space import Space, _entry_blocks, _hop_counts, _row_blocks

__all__ = [
    "SpectralDecomposition",
    "graph_stiffness",
    "decompose",
    "heat_kernel",
    "heat_kernel_series",
    "heat_kernel_log_bound",
    "frac_apply",
    "subordination_check",
    "inverse_gaussian_density",
]

_EIGENTOL = 1e-10  # zero clamp and validation bounds, relative to lambda_max
_SERIES_TOL = 1e-16  # the series ends at a term bounded by this share of the sum
_SERIES_MAX_BETA_T = 600.0


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending, lambda_0 = 0) and mu-orthonormal eigenvectors.

    Columns of `phis` satisfy sum_x phi_j(x) phi_k(x) mu(x) = delta_jk, with
    the sign of each column fixed so its first significant entry is positive.
    Degenerate eigenvalues admit any orthonormal basis of the eigenspace, so
    only projection-level quantities are reproducible across platforms.

    `ortho_defect` is the Frobenius norm of Phi^T M Phi - I.  It bounds the
    semigroup defect of every spectral heat kernel: K_{t/2} M K_{t/2} - K_t
    is Phi D (Phi^T M Phi - I) D Phi^T with D = exp(-t Lambda / 2), whose
    (x, z) entry is a_x^T (Phi^T M Phi - I) a_z with |a_x|^2 = K_t(x, x), so
    relative to max K_t it is at most |Phi^T M Phi - I|_2 <= ortho_defect,
    at every t > 0.
    """

    space: Space
    lambdas: np.ndarray
    phis: np.ndarray
    ortho_defect: float

    @property
    def n(self) -> int:
        return self.space.n

    def coefficients(self, f) -> np.ndarray:
        """mu-weighted spectral coefficients <f, phi_k>_mu, that is Phi^T M f,
        for a vector f or every column of an n x k array f."""
        f = np.asarray(f, dtype=float)
        if f.ndim not in (1, 2) or len(f) != self.n:
            raise DimensionMismatch(
                f"expected a vector or columns of length {self.n}, got shape {f.shape}"
            )
        return self.phis.T @ (self.space.mu * f.T).T


def _check_vector(space: Space, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (space.n,):
        raise DimensionMismatch(f"expected vector of length {space.n}, got shape {f.shape}")
    return f


def _laplacian(space: Space, f: np.ndarray) -> np.ndarray:
    """Delta f for a vector f, or for every column of an n x k array f:
    -(S f) / mu by the sparse stiffness product `_stiffness_apply`."""
    out = _stiffness_apply(space, f)
    rows = out.T  # a view, so the division acts on out in place
    rows /= -space.mu
    return out


def _stiffness_apply(space: Space, f: np.ndarray) -> np.ndarray:
    """S f = deg f - c f for the graph stiffness S (`graph_stiffness`), for a
    vector f or every column of an n x k array f: one product over the
    conductance edges (`Graph.dot` of `Space.graph`) and the cached degrees
    deg = `Space.degrees`, O(|E| k) with no n x n array."""
    out = space.graph.dot(f)
    rows = out.T  # a view, so the subtraction writes into out
    np.subtract(space.degrees * f.T, rows, out=rows)
    return out


def graph_stiffness(space: Space) -> np.ndarray:
    """Stiffness matrix diag(sum_y c(., y)) - c of the Dirichlet form E, so
    that E(f, g) = f^T S g and -Delta = diag(mu)^-1 S: `Space.graph`
    densified, negated, with `Space.degrees` on the diagonal.  Built afresh
    per call (n^2 doubles), never cached on the space."""
    stiffness = space.graph.toarray()
    # 0 - c, not -c: entries of -0.0 change the eigensolver's output bits
    np.subtract(0.0, stiffness, out=stiffness)
    stiffness[np.diag_indices(space.n)] += space.degrees
    return stiffness


def decompose(space: Space) -> SpectralDecomposition:
    """Full eigendecomposition of -Delta in the mu-weighted inner product.

    Solved as a symmetric problem after the similarity transform by
    diag(sqrt(mu)).  Eigenvalues within `1e-10 * lambda_max` of zero
    are clamped to zero so the constant mode is exact; the tolerance is
    relative, so the result does not depend on the units of c or `mu`.
    A connected space has exactly one zero eigenvalue, and anything else
    raises EigensolverNoConvergence.
    """
    # numpy's eigh runs LAPACK's divide-and-conquer driver (syevd), not
    # MRRR: lattice spectra are clustered, where it is about twice as fast
    # and more accurately orthogonal.  It works on its own copy of sym, so
    # sym and the eigenvectors are both alive while it runs.  sym.T is sym
    # (exactly symmetric) in Fortran order, which numpy copies into LAPACK's
    # buffer a contiguous column at a time (about 0.4 ms less at n=400)
    sqrt_mu = np.sqrt(space.mu)
    sym = _scaled_stiffness(space, sqrt_mu)
    lambdas, vecs = np.linalg.eigh(sym.T)
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
    ortho_defect = _validate_decomposition(space, lambdas, phis)
    lambdas.setflags(write=False)
    phis.setflags(write=False)
    return SpectralDecomposition(space, lambdas, phis, ortho_defect)


def _scaled_stiffness(space: Space, sqrt_mu: np.ndarray) -> np.ndarray:
    """M^(-1/2) S M^(-1/2), exactly symmetric, from the edge list: each
    stored entry's -c(x, y) / (sqrt(mu_x) sqrt(mu_y)) scattered into a zeroed
    n x n array (one row block at a time), deg / (sqrt(mu) sqrt(mu)) on the
    diagonal, and the mean with the mirror only where the graph is not
    exactly symmetric (a one-way or rounded conductance).  Entry for entry
    the dense construction (`graph_stiffness` divided by the outer product
    of sqrt(mu) and averaged with its transpose), with no n x n pass but
    the zeroing: -c is 0 - c for the positive c stored, and for an exactly
    symmetric matrix the mean (s + s) / 2 is s."""
    graph = space.graph
    sym = np.zeros(graph.shape)
    for rows, entries, local in _entry_blocks(graph):
        cols = graph.indices[entries]
        scaled = np.negative(graph.data[entries])
        scaled /= sqrt_mu[rows][local] * sqrt_mu[cols]
        sym[rows][local, cols] = scaled
    sym[np.diag_indices(space.n)] = space.degrees / (sqrt_mu * sqrt_mu)
    if graph.asymmetry != 0:
        sym += sym.T
        sym *= 0.5
    return sym


def _fix_signs(phis: np.ndarray) -> np.ndarray:
    """Flip columns in place so each one's first significant entry (above
    1e-12 of its largest magnitude) is positive."""
    mag = np.abs(phis)
    lead = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    phis *= np.where(phis[lead, np.arange(phis.shape[1])] < 0, -1.0, 1.0)
    return phis


def _gram(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a diag(w) a^T for weights w >= 0, as the Gram product root root^T of
    root = a sqrt(w).  numpy hands a product with its own transpose to BLAS
    syrk, which does half the work of a general product and returns an
    exactly symmetric matrix.  `a` is dropped once scaled, so a temporary
    argument is freed before the product."""
    root = a * np.sqrt(w)
    del a
    return root @ root.T


def _validate_decomposition(space, lam, phi) -> float:
    """Check orthonormality and the eigen-residuals; return the Frobenius
    norm of Phi^T M Phi - I (`SpectralDecomposition.ortho_defect`)."""
    gram = _gram(phi.T, space.mu)
    gram[np.diag_indices(space.n)] -= 1.0
    ortho_err = np.max(np.abs(gram))
    ortho_defect = float(np.linalg.norm(gram))
    del gram
    resid = _eigen_residual(space, lam, phi)
    scale = float(lam.max())
    if ortho_err > 100 * _EIGENTOL or resid > 100 * _EIGENTOL * scale:
        raise EigensolverNoConvergence(
            f"orthonormality error {ortho_err:.3e}, residual {resid:.3e} exceed tolerance"
        )
    return ortho_defect


def _eigen_residual(space: Space, lam, phi) -> float:
    """max |Delta phi_k + lambda_k phi_k| over every eigenpair, relative to
    max |phi| (which scales like mu^(-1/2)), by the graph product
    (`_laplacian`).  Each block of Phi's columns is copied into C order
    once, as the product reads it, and its residual is formed in that
    order."""
    worst = largest = 0.0
    for cols in _row_blocks(space.n):
        block = np.ascontiguousarray(phi[:, cols])
        resid = _laplacian(space, block)
        resid += block * lam[cols]
        worst = max(worst, np.max(np.abs(resid)))
        largest = max(largest, np.max(np.abs(block)))
    return worst / largest


def heat_kernel(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """p_t(x,z) = sum_k exp(-lambda_k t) phi_k(x) phi_k(z), as a read-only
    n x n array."""
    if t <= 0:
        raise NonpositiveTime(f"t must be positive, got {t}")
    kernel = _gram(dec.phis, np.exp(-dec.lambdas * t))
    kernel.setflags(write=False)
    return kernel


def heat_kernel_series(space: Space, t: float) -> np.ndarray:
    """Heat kernel entries k(x, z) by the uniformization series, from the
    densified `Space.graph` and `mu` alone: the tests' oracle for `heat_kernel`.

    With Delta = beta (Q - I) for a row-stochastic, entrywise-nonnegative Q,
    exp(t Delta) = exp(-beta t) sum_j (beta t)^j / j! Q^j.  For x = beta t
    and the least k >= 0 with h = x / 2^k <= 1/2 and (n - 1) / 2^k <= 16, a
    plain Taylor sum of exp(h (Q - I)) is squared k times.  The sum keeps at
    least ceil((n - 1) / 2^k) terms, past the hop diameter, and stops at the
    first term below 1e-16 of its largest entry.  One time per call.
    """
    if not t > 0:
        raise NonpositiveTime(f"t must be positive, got {t}")
    degrees = space.degrees / space.mu
    beta = float(degrees.max())
    x = beta * t
    # agreement with the spectral kernel is verified up to here; the
    # squarings amplify roundoff beyond it
    if x > _SERIES_MAX_BETA_T:
        raise SeriesTimeTooLarge(
            f"beta*t = {x:.1f} at t = {t} exceeds {_SERIES_MAX_BETA_T:.0f} for the series route"
        )
    # the short step also reaches n - 1 hops within 16 terms, so the
    # minimum-terms rule never costs more than the tolerance does
    k = 0
    while x / 2**k > 0.5 or (space.n - 1) / 2**k > 16:
        k += 1
    h, min_terms = x / 2**k, -(-(space.n - 1) // 2**k)
    q = space.graph.toarray() / (beta * space.mu[:, None])
    np.fill_diagonal(q, 1.0 - degrees / beta)
    term = np.eye(space.n)
    acc = term.copy()
    j = 0
    while j < min_terms or term.max() > _SERIES_TOL * acc.max():
        j += 1
        term = term @ q
        term *= h / j
        acc += term
    acc *= np.exp(-h)
    for _ in range(k):
        acc = acc @ acc
    return acc / space.mu[None, :]


def heat_kernel_log_bound(space: Space) -> Callable[[float], np.ndarray]:
    """Lower bound on log k_t(x, z) from one shortest-hop walk, for any t > 0.

    Every term of the uniformization series (`heat_kernel_series`) is
    nonnegative, and Q^j(x, z) is at least q_min^j along a j-hop walk, with
    q_min = min c(x, y) / (beta mu(x)) over the edges.  Keeping the one term
    at the hop distance j = j(x, z) gives

        log k_t(x, z) >= -beta t + j (log(beta t) + log q_min) - log j! - log mu(z).

    The hops come from one bit-parallel breadth-first sweep (`_hop_counts`),
    then each t is a lookup in a table indexed by j: finite on connected
    spaces, with no underflow and no cap on beta t.  Returns a function of t
    giving the n x n array of log bounds, from `Space.graph` and `mu` alone.
    """
    graph = space.graph
    beta = float((space.degrees / space.mu).max())
    # every q is at most 1.  The row minima are divided after the reduction:
    # division by a positive number is monotone, so this is the least
    # c(x, y) / (beta mu(x)).  A one-point space has no edges, so the minimum
    # is the initial 1 and nothing is divided by its beta = 0.
    stored = np.diff(graph.indptr) > 0  # empty if all of a point's edges run into it
    row_min = np.minimum.reduceat(graph.data, graph.indptr[:-1][stored])
    log_q_min = np.log(np.min(row_min / space.mu[stored] / beta, initial=1.0))
    hops = _hop_counts(graph)
    j = np.arange(int(hops.max()) + 1)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(len(j))])

    def log_bound(t: float) -> np.ndarray:
        if not t > 0:
            raise NonpositiveTime(f"t must be positive, got {t}")
        x = beta * t
        # j log x with the rule 0 log 0 = 0: a one-point space (beta = 0)
        # has only the walk of j = 0 hops
        steps = j * math.log(x) if x > 0 else np.where(j > 0, -np.inf, 0.0)
        out = (steps + j * log_q_min - log_factorial - x)[hops]
        out -= np.log(space.mu)
        return out

    return log_bound


def frac_apply(dec: SpectralDecomposition, theta: float, f) -> np.ndarray:
    """Spectral fractional power: sum_k lambda_k^theta <f, phi_k>_mu phi_k."""
    check_theta(theta)
    return spectral_power_apply(dec, theta, f)


def spectral_power_apply(dec: SpectralDecomposition, p: float, f) -> np.ndarray:
    """(-Delta)^p f for a vector f and any p >= 0, without the public range check."""
    coeffs = dec.coefficients(_check_vector(dec.space, f))
    return dec.phis @ (lambda_power(dec.lambdas, p) * coeffs)


def lambda_power(lambdas: np.ndarray, p: float) -> np.ndarray:
    """lambda_k^p with the zero eigenvalue mapped to 0 for every p."""
    out = np.zeros_like(lambdas)
    pos = lambdas > 0
    out[pos] = lambdas[pos] ** p
    return out


def check_theta(theta: float) -> None:
    """Raise ThetaOutOfRange unless 0 < theta < 1."""
    if not 0 < theta < 1:
        raise ThetaOutOfRange(f"theta must lie in (0, 1), got {theta}")


def _distinct_values(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the ascending array `lams`, and for each entry
    the index of its value among them: `np.unique(lams, return_inverse=True)`
    for a sorted input, by one comparison of neighbours.  np.unique without
    the inverse would load numpy.ma (numpy 2.4 asks it whether the input
    is masked), about 1.3 MiB of a run that uses no masked array."""
    new = np.concatenate(([True], lams[1:] != lams[:-1]))
    return lams[new], np.cumsum(new) - 1


def inverse_gaussian_density(t: float, s) -> np.ndarray:
    """Subordinator density eta_t(s) = t/(2 sqrt(pi)) s^{-3/2} exp(-t^2/(4s)),
    the closed form at exponent one half."""
    s = np.asarray(s, dtype=float)
    return t / (2.0 * np.sqrt(np.pi)) * s ** (-1.5) * np.exp(-t * t / (4.0 * s))


def subordination_check(dec: SpectralDecomposition, t: float) -> float:
    """Max over eigenvalues of |integral(eta_t e^{-lambda s} ds) - e^{-t sqrt(lambda)}|.

    Quadrature oracle for the identity that the half-power semigroup is the
    inverse-Gaussian time average of the heat semigroup.  Restricted to
    exponent 1/2, the one case with a closed-form subordinator density.
    """
    if t <= 0:
        raise NonpositiveTime(f"t must be positive, got {t}")
    lams, _ = _distinct_values(dec.lambdas)
    # one vector-valued quadrature over all eigenvalues; the integrands are
    # bounded on the compactified interval, so no extrapolation is needed.
    # s arrives as a column of one panel's nodes, so each call gives a
    # nodes x eigenvalues array
    integrals = integrate_halfline(lambda s: inverse_gaussian_density(t, s) * np.exp(-lams * s))
    return float(np.max(np.abs(integrals - np.exp(-t * np.sqrt(lams)))))
