"""Spectral calculus for the weighted graph Laplacian.

The Laplacian acts by Delta f(x) = mu(x)^{-1} sum_y c(x,y) (f(y) - f(x)); it
is self-adjoint in l2(mu) and satisfies the duality
sum_x v(x) Delta f(x) mu(x) = -E(v, f) against the conductance Dirichlet form
E(f, g) = 1/2 sum_{x,y} c(x,y) (f(x)-f(y)) (g(x)-g(y)).

Everything downstream (heat semigroup, fractional powers, subordinated
semigroup) is a function of the spectral resolution computed here.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.special import gammaln, xlogy

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
    "heat_kernel_log_bound",
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
    ortho_defect = _validate_decomposition(space, lambdas, phis)
    lambdas.setflags(write=False)
    phis.setflags(write=False)
    return SpectralDecomposition(space, lambdas, phis, ortho_defect)


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
    return ortho_defect


def _kernel_from_weights(dec, weights) -> KernelMatrix:
    entries = _gram(dec.phis, weights)
    entries.setflags(write=False)
    return KernelMatrix(entries=entries)


def heat_kernel(dec: SpectralDecomposition, t: float) -> KernelMatrix:
    """p_t(x,z) = sum_k exp(-lambda_k t) phi_k(x) phi_k(z)."""
    if t <= 0:
        raise NonpositiveTime(f"t must be positive, got {t}")
    return _kernel_from_weights(dec, np.exp(-dec.lambdas * t))


def heat_kernel_series(space: Space, t: float | Sequence[float]) -> np.ndarray | list[np.ndarray]:
    """Heat kernel entries k(x, z) by the uniformization series, built from
    `cond` and `mu` alone: the tests' independent oracle for `heat_kernel`.

    With Delta = beta (Q - I) for a row-stochastic, entrywise-nonnegative Q,
    exp(t Delta) = exp(-beta t) sum_j (beta t)^j / j! Q^j.  For x = beta t
    and the least k >= 0 with h = x / 2^k <= 1/2 and (n - 1) / 2^k <= 16, a
    plain Taylor sum of exp(h (Q - I)) is squared k times.  The sum keeps at
    least ceil((n - 1) / 2^k) terms, past the hop diameter, and stops at the
    first term below 1e-16 of its largest entry.  `t` is one time, or a
    sequence of times for a list of kernels in input order.
    """
    if np.ndim(t) != 0:
        if not len(t):
            raise InvalidParams("the series route needs at least one time")
        return [heat_kernel_series(space, s) for s in t]
    if not t > 0:
        raise NonpositiveTime(f"t must be positive, got {t}")
    degrees = space.cond.sum(axis=1) / space.mu
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
    q = space.cond / (beta * space.mu[:, None])
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


def _hop_counts(edges: np.ndarray) -> np.ndarray:
    """Hop distances of the connected graph whose edges are the n x n boolean
    `edges` or their transposes, as an n x n table of the least unsigned type
    that holds n - 1.

    One breadth-first sweep runs from every source at once (multi-source BFS,
    Then et al., PVLDB 8(4), 2014).  Each point holds the set of sources that
    have reached it as ceil(n/64) 64-bit words.  A level gathers the
    neighbours' frontier words and ORs them into each row, one neighbour slot
    at a time, then keeps the sources not yet seen.  A pair's hop count is
    the level that first reaches it, so bit plane b of the table holds the
    pairs first reached on the runs of levels whose bit b is set.  Each run
    adds the unseen set before it XOR the unseen set at its end, so a plane
    costs one XOR at each level where its bit changes, and the planes are
    unpacked into the table once, at the end.

    The cost is O(diam |E| n/64) word operations plus one numpy call per
    neighbour slot and level.  On grids and random geometric graphs that is
    5 to 12 times faster than n Dijkstra searches.  A long path
    (diam = n - 1) is the worst case: at n = 1600 the searches are 4 to 5
    times faster, and the sweep takes about half of one dense eigensolve
    (one thread each).
    """
    # an edge can be one way, as `cond` is symmetric only to 1e-12
    union = edges | edges.T
    n = len(union)
    if n == 1:
        return np.zeros((1, 1), np.uint8)
    cols = np.flatnonzero(union)
    del union
    starts = np.searchsorted(cols, np.arange(n + 1) * n)
    cols %= n
    # rows are held in falling order of degree, so the rows with a k-th
    # neighbour are a prefix and slot k is one gather and one OR; every
    # point has a neighbour on a connected space, so slot 0 writes every row
    deg = np.diff(starts)
    order = np.argsort(-deg)
    src = np.arange(n)
    rank = np.empty(n, np.intp)
    rank[order] = src
    slots = [rank[cols[starts[order[: np.count_nonzero(deg > k)]] + k]] for k in range(deg.max())]
    del cols
    frontier = np.zeros((n, -(-n // 64)), "<u8")
    frontier[rank, src // 64] = np.left_shift(np.uint64(1), (src % 64).astype(np.uint64))
    unseen = ~frontier
    unseen[:, -1] &= np.uint64(2**64 - 1) >> np.uint64(-n % 64)  # no padding bits
    nxt, planes = np.empty_like(frontier), []
    for level in range(1, n):  # at most n - 1 hops
        np.take(frontier, slots[0], axis=0, out=nxt)
        for slot in slots[1:]:
            nxt[: len(slot)] |= frontier[slot]
        nxt &= unseen
        # the pairs first reached at levels a..c are unseen(a - 1) ^ unseen(c)
        for bit in range(((level - 1) ^ level).bit_length()):
            if bit == len(planes):
                planes.append(np.zeros_like(nxt))
            planes[bit] ^= unseen
        unseen ^= nxt
        if not unseen.any():
            break
        frontier, nxt = nxt, frontier
    del slots, frontier, nxt, unseen
    table = np.zeros((n, n), np.min_scalar_type(n))
    while planes:
        table <<= 1
        # [rank] puts the rows back in point order
        table |= np.unpackbits(
            planes.pop()[rank].view(np.uint8), axis=1, count=n, bitorder="little"
        )
    return table


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
    giving the n x n array of log bounds, built from `cond` and `mu` alone.
    """
    edges = space.cond > 0
    beta = float((space.cond.sum(axis=1) / space.mu).max())
    # every q is at most 1.  The row minima are divided after the reduction:
    # division by a positive number is monotone, so this is the least
    # c(x, y) / (beta mu(x)).  A one-point space has no edges and beta = 0,
    # and inf / 0 is inf with no floating-point flag.
    row_min = np.min(space.cond, axis=1, where=edges, initial=np.inf)
    log_q_min = np.log(np.min(row_min / space.mu / beta, initial=1.0))
    hops = _hop_counts(edges)
    j = np.arange(int(hops.max()) + 1)

    def log_bound(t: float) -> np.ndarray:
        if not t > 0:
            raise NonpositiveTime(f"t must be positive, got {t}")
        x = beta * t
        out = (xlogy(j, x) + j * log_q_min - gammaln(j + 1) - x)[hops]
        out -= np.log(space.mu)
        return out

    return log_bound


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
