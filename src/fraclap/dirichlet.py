"""Nonlocal Dirichlet problems: (-Delta)^theta u = 0 on a domain Omega with
data f imposed on the complement.

Two independent routes produce the solution:

  * spectral  -- solve the Euler-Lagrange system K_OO u_O = -K_Oc f_c of
    the fractional stiffness K = M Phi diag(lambda^theta) Phi^T M directly,
    on the smaller of the domain and its complement (`_pinned_solver`), so
    no iteration error enters and no n x n matrix is formed.
  * extension -- minimize the weighted Dirichlet energy of a field on the
    product grid X x {y_0..y_m} with the data pinned on the boundary row
    over the complement and a natural (zero-flux) condition over Omega,
    then read off the boundary row.  The operator walks the conductance
    edges (O(|E| m) per application, no n x n matrix) and the preconditioned
    conjugate gradient stops on its own residual, which the solve then
    rechecks against the operator, so the operator and the stop tests
    share no linear algebra with the spectral route; the preconditioner
    reads the eigenpairs only to choose the search directions, which moves
    the path to the minimizer, not the minimizer.

Agreement of the two traces under grid refinement is the computable face of
the equivalence between energy minimizers and harmonic-extension traces.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .energy import FracEnergyForm
from .errors import (
    BallNotCompactlyInside,
    InsufficientScales,
    InvalidParams,
    IterationBudgetExceeded,
    NegativeSolution,
    SingularSystem,
)
from .extension import HalfSpaceGrid
from .space import Space, ball_mask
from .spectral import SpectralDecomposition, _gram, _stiffness_apply

__all__ = [
    "DirichletProblem",
    "Solution",
    "solve_spectral",
    "solve_spectral_batch",
    "solve_extension",
    "residual_check",
    "maximum_principle_check",
    "strong_maximum_check",
    "harnack_quotient",
    "holder_estimate",
    "uniqueness_check",
]

# the extension solve's CG budget, read on each solve: its loop stops once
# ||r|| < _CG_REL_TOL ||b|| or after _CG_MAX_ITER iterations, and the solve
# raises unless the true residual is then at most _CG_REL_TOL ||b||
_CG_REL_TOL = 1e-11
_CG_MAX_ITER = 100


@dataclass(frozen=True)
class DirichletProblem:
    """Minimize E_theta(u, u) over u = f off the domain Omega: the energy
    form (`stiffness_matrix(dec, theta)`, which carries the space, the
    exponent and the spectral data), the domain mask, and the data.

    Both the domain and its complement must be nonempty: the complement
    carries the data, and a nonempty complement makes the constrained
    stiffness block positive definite on connected spaces.
    """

    form: FracEnergyForm
    omega: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=bool)
        f = np.asarray(self.f, dtype=float)
        if omega.shape != (self.space.n,) or f.shape != (self.space.n,):
            raise InvalidParams("omega and f must be vectors over the point set")
        if not omega.any():
            raise InvalidParams("domain is empty")
        if omega.all():
            raise InvalidParams("domain complement is empty")
        omega.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "f", f)

    @property
    def space(self) -> Space:
        return self.form.dec.space

    @property
    def theta(self) -> float:
        return self.form.theta

    @property
    def data_oscillation(self) -> float:
        return float(np.ptp(self.f[~self.omega]))


@dataclass(frozen=True)
class Solution:
    u: np.ndarray
    residual: float
    energy: float
    iterations: int  # conjugate-gradient iterations; 0 for a direct solve


def solve_spectral(problem: DirichletProblem) -> Solution:
    """Direct solve of the Euler-Lagrange system for the energy minimizer."""
    return solve_spectral_batch([problem])[0]


def solve_spectral_batch(problems: Sequence[DirichletProblem]) -> list[Solution]:
    """`solve_spectral` for problems that share one energy form and one
    domain and differ only in their data, solutions in input order.

    One pinned solver (`_pinned_solver`, weights lambda^theta) takes every
    data column at once; one modal transform of the solution columns U gives
    every residual max |(K u)_O| and every energy E_theta(u, u).
    """
    if not problems:
        raise InvalidParams("a batch needs at least one problem")
    form, omega = problems[0].form, problems[0].omega
    if any(p.form is not form or not np.array_equal(p.omega, omega) for p in problems):
        raise InvalidParams("a batch must share one energy form and one domain")
    u = np.stack([p.f for p in problems], axis=1)  # one column per problem
    u[omega] = 0.0  # no source on the domain: (K u)_O = 0
    u = _pinned_solver(form.dec, form.weights, omega)(u)
    ku, energies = form._apply_with_energy(u)
    residuals = np.max(np.abs(ku[omega]), axis=0)
    return [
        Solution(u=col, residual=float(r), energy=float(e), iterations=0)
        for col, r, e in zip(u.T.copy(), residuals, energies)
    ]


# ---------------------------------------------------------------------------
# pinned solves of modal forms


def _pinned_solver(dec: SpectralDecomposition, w: np.ndarray, omega: np.ndarray):
    """Solver of the pinned problem of the modal form A = M Phi diag(w) Phi^T M
    on `dec`: called on an n-vector b, or on n x k columns of them, it
    returns x with x_c = b_c on the complement c of the domain O and
    (A x)_O = b_O, that is A_OO x_O = b_O - A_Oc b_c.

    w_0 belongs to the constant mode and must be 0, as lambda_0^theta and
    sigma_0 are; every other w_k must be positive and finite
    (SingularSystem otherwise: numpy's Cholesky factorization does not
    reject a NaN).  Only the smaller side is factored: the capacitance
    matrix of the complement when |c| < |O| (`_ComplementSide`), else the
    domain block (`_DomainSide`).
    """
    bad = ~((w[1:] > 0) & (w[1:] < np.inf))
    if np.any(bad):
        raise SingularSystem(
            f"modal weight {w[1:][bad][0]:.3e} off the constant mode is not positive and finite"
        )
    side = _ComplementSide if np.count_nonzero(~omega) < np.count_nonzero(omega) else _DomainSide
    return side(dec, w, omega)


def _cholesky_inverse(a: np.ndarray, name: str) -> np.ndarray:
    """L^-1 for the Cholesky factor L of the symmetric a = L L^T, written
    over a (`_invert_cholesky`), so a must be a temporary; SingularSystem,
    naming the matrix, unless a is positive definite.  numpy has no
    triangular solve, so a solve with a is the two products L^-T (L^-1 b)
    (`_cholesky_solve`), O(k^2) per column like the two triangular solves
    they replace."""
    try:
        _invert_cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"{name} not positive definite: {exc}")
    return a


# blocks of up to this order are factored and inverted whole, by
# np.linalg.cholesky and np.linalg.inv: at k = 800 on one BLAS thread,
# leaves of 32 to 128 rows took the same time to within 10%
_CHOLESKY_LEAF = 96


def _invert_cholesky(a: np.ndarray) -> None:
    """Overwrite a symmetric positive definite a, of which only the lower
    triangle is read, with L^-1 for its Cholesky factor L, by halves.  For
    a = [A B^T; B C] with A = L1 L1^T,

        L^-1 = [X1 0; -X2 G X1  X2],   X1 = L1^-1,  G = B X1^T,
        X2 = L2^-1 for the Schur complement C - G G^T = L2 L2^T,

    so X1 and X2 are the same step on halves, each written in place, and
    every other block is a BLAS-3 product: about 7 k^3 / 6 flops.  At
    k = 800 on one BLAS thread that takes about twice as long as LAPACK's
    potrf alone (scipy's cho_factor); np.linalg.cholesky of all of a, then
    L inverted by halves, took 2.7 to 3.5 times.  A leaf's LU inverse may
    leave rounding above the diagonal; every block above it is zeroed, so
    the result is exactly lower triangular.  np.linalg.cholesky raises
    LinAlgError on the first leaf that is not positive definite, which in
    exact arithmetic happens exactly when a is not."""
    k = len(a)
    if k <= _CHOLESKY_LEAF:
        a[...] = np.tril(np.linalg.inv(np.linalg.cholesky(a)))
        return
    h = k // 2
    x1, b, c = a[:h, :h], a[h:, :h], a[h:, h:]
    _invert_cholesky(x1)
    g = b @ x1.T
    c -= g @ g.T  # syrk, as in `_gram`
    _invert_cholesky(c)
    np.matmul(c @ g, x1, out=b)
    np.negative(b, out=b)
    a[:h, h:] = 0.0


def _cholesky_solve(inverse: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for the Cholesky inverse L^-1 of a (`_cholesky_inverse`), for a
    vector b or every column of b."""
    return inverse.T @ (inverse @ b)


class _ComplementSide:
    """Capacitance-matrix solve (Buzbee, Dorr, George and Golub, SIAM J.
    Numer. Anal. 8, 1971).  H = Phi diag(w+^-1) Phi^T, with w+^-1 = 0 on the
    constant mode, satisfies A H y = y for every y with 1^T y = 0, and A 1 = 0.
    So x = H (E_O b_O + E_c nu) + alpha 1 solves the pinned problem when

        C nu + alpha 1 = b_c - (H E_O b_O)_c,    1^T nu = -1^T b_O,

    with the capacitance matrix C = Phi_c diag(w+^-1) Phi_c^T, positive
    definite whenever the domain is nonempty.  C = R R^T for the complement
    rows R = Phi_c diag(w+^-1/2), scaled in place, is factored and its
    factor inverted once (`_cholesky_inverse`), O(|c|^2 n + |c|^3).  A
    batch of k takes one solve with C and O(n^2 k) for the mode transforms,
    whose domain entries are read as rows of full products.
    """

    def __init__(self, dec: SpectralDecomposition, w: np.ndarray, omega: np.ndarray):
        self.phis, self.omega = dec.phis, omega
        self.scale = np.zeros_like(w)  # w+^-1/2
        self.scale[1:] = w[1:] ** -0.5
        self.root = dec.phis[~omega]
        self.root *= self.scale
        # numpy hands R R^T to syrk (`_gram`), so C is exactly symmetric
        self.inverse = _cholesky_inverse(self.root @ self.root.T, "capacitance matrix")
        self.ones_solved = _cholesky_solve(self.inverse, np.ones(len(self.root)))

    def __call__(self, b: np.ndarray) -> np.ndarray:
        b2 = b.reshape(len(b), -1)
        source = np.where(self.omega[:, None], b2, 0.0)  # E_O b_O
        half = self.scale[:, None] * (self.phis.T @ source)  # H E_O b_O = Phi w+^-1/2 half
        nu = _cholesky_solve(self.inverse, b2[~self.omega] - self.root @ half)
        alpha = (nu.sum(axis=0) + source.sum(axis=0)) / self.ones_solved.sum()
        nu -= np.outer(self.ones_solved, alpha)
        half += self.root.T @ nu
        x = self.phis @ (self.scale[:, None] * half)
        x += alpha
        x[~self.omega] = b2[~self.omega]
        return x.reshape(b.shape)


class _DomainSide:
    """Direct solve on the domain: A_OO = B_O B_O^T for the domain rows B_O of
    B = M Phi diag(w^1/2), formed by syrk (`_gram`), factored and its factor
    inverted (`_cholesky_inverse`), O(|O|^2 n + |O|^3).  The data term
    A_Oc b_c is the domain rows of A b~, with b~ = b on c and 0 on O, by the
    mode transforms: O(n^2 k) for k columns."""

    def __init__(self, dec: SpectralDecomposition, w: np.ndarray, omega: np.ndarray):
        self.dec, self.w, self.omega = dec, w, omega
        # the domain rows of M Phi go in as a temporary that `_gram` frees
        # once scaled, and A_OO as one that is inverted in place
        self.inverse = _cholesky_inverse(
            _gram(dec.space.mu[omega, None] * dec.phis[omega], w), "domain block"
        )

    def __call__(self, b: np.ndarray) -> np.ndarray:
        b2 = b.reshape(len(b), -1)
        x = np.where(self.omega[:, None], 0.0, b2)  # b~
        weighted = self.w[:, None] * self.dec.coefficients(x)
        coupled = self.dec.space.mu[:, None] * (self.dec.phis @ weighted)  # A b~
        x[self.omega] = _cholesky_solve(self.inverse, b2[self.omega] - coupled[self.omega])
        return x.reshape(b.shape)


# ---------------------------------------------------------------------------
# extension route


class _ProductGridOperator:
    """Matrix-free quadratic form of the discrete weighted energy

        E_h(V) = sum_j [ (w_j/dy_j^2) |V_{j+1}-V_j|_mu^2 + w_j E_X(Vbar_j) ],

    where Vbar_j is the row interpolated at the measure centroid of cell j.
    Parametrized in telescoped unknowns (boundary row t, cell differences
    v_j = V_{j+1} - V_j): the nodal basis couples neighboring rows through
    cell stiffnesses spanning dozens of orders of magnitude on deeply graded
    grids, which is numerically singular in double precision, while in the
    telescoped basis those stiffnesses sit on the diagonal and symmetric
    scaling handles them exactly.

    E_X is applied to all m centroid rows at once by the sparse stiffness
    product (`spectral._stiffness_apply`), so the energy and the gradient
    cost O(|E| m); the scaling reads only the diagonal of the graph
    stiffness, the weighted degrees `Space.degrees`.
    """

    def __init__(self, space: Space, grid: HalfSpaceGrid, omega: np.ndarray):
        self.space = space
        self.omega = omega
        self.n = space.n
        self.m = grid.m
        ys, w = grid.ys, grid.cellweights
        dy = np.diff(ys)
        self.w = w
        self.cv = w / dy**2
        self.s = (grid.cell_centroids() - ys[:-1]) / dy
        gdiag = space.degrees  # the diagonal of S
        wsuffix = np.concatenate([np.cumsum(w[::-1])[::-1][1:], [0.0]])
        diag_t = 2.0 * w.sum() * gdiag
        diag_v = 2.0 * self.cv[None, :] * space.mu[:, None] + 2.0 * gdiag[:, None] * (
            wsuffix[None, :] + w[None, :] * self.s[None, :] ** 2
        )
        self.nfree = int(omega.sum())
        self.scale = np.sqrt(np.concatenate([diag_t[omega], diag_v.ravel()]))

    def rows_interp(self, t, v):
        prefix = np.concatenate(
            [np.zeros((self.n, 1)), np.cumsum(v, axis=1)[:, :-1]], axis=1
        )
        return t[:, None] + prefix + self.s[None, :] * v

    def energy(self, t, v):
        vert = float(np.sum(self.cv[None, :] * self.space.mu[:, None] * v * v))
        rows = self.rows_interp(t, v)
        stiff_rows = _stiffness_apply(self.space, rows)
        horiz = float(np.sum(self.w * np.einsum("xj,xj->j", rows, stiff_rows)))
        return vert + horiz

    def gradient(self, t, v):
        rows = self.rows_interp(t, v)
        h = 2.0 * self.w[None, :] * _stiffness_apply(self.space, rows)
        grad_t = h.sum(axis=1)
        suffix = np.cumsum(h[:, ::-1], axis=1)[:, ::-1]
        grad_v = 2.0 * self.cv[None, :] * self.space.mu[:, None] * v
        grad_v += np.concatenate([suffix[:, 1:], np.zeros((self.n, 1))], axis=1)
        grad_v += self.s[None, :] * h
        return grad_t, grad_v

    def pack(self, t, v):
        return np.concatenate([t[self.omega], v.ravel()])

    def unpack(self, x, data):
        t = data.copy()
        t[self.omega] = x[: self.nfree]
        v = x[self.nfree :].reshape(self.n, self.m)
        return t, v

    def apply_scaled(self, x):
        t, v = self.unpack(x / self.scale, np.zeros(self.n))
        gt, gv = self.gradient(t, v)
        return self.pack(gt, gv) / self.scale

    def rhs_scaled(self, data):
        t, v = np.where(self.omega, 0.0, data), np.zeros((self.n, self.m))
        gt, gv = self.gradient(t, v)
        return -self.pack(gt, gv) / self.scale


class _ModePreconditioner:
    """Inverse of the extension operator's Hessian by fast diagonalization
    along the graph modes (Lynch-Rice-Thomas), in the scaled unknowns.

    With Phi^T M Phi = I and Phi^T L Phi = Lambda, the substitution t = Phi tau,
    v = Phi nu splits the Hessian into one (1 + m)-block per eigenvalue:

        [ 2 lam_k sum(w)   g_k^T ]     G_k = 2 (C + lam_k B),  g_k = 2 lam_k R^T w,
        [ g_k              G_k   ]

    with C = diag(cv), B = R^T W R and R the map from cell differences to the
    centroid rows (ones below the diagonal, s_j on it).  One m x m eigenproblem
    C^-1/2 B C^-1/2 = Q diag(vartheta) Q^T inverts every G_k in the telescoped
    basis, which keeps the scaling that basis exists for.  Eliminating nu leaves
    the boundary Schur complement S = M Phi diag(sigma) Phi^T M, a modal form;
    pinning t to 0 on the complement is its pinned problem, solved on the
    smaller of Omega and the complement (`_pinned_solver`, set up once).
    M Phi is never stored: an application multiplies by Phi and scales by
    mu, O(n^2 m) for the mode transforms of the m vertical rows.  The
    eigenpairs only steer the search directions: the operator and the stop
    test never read them.
    """

    def __init__(self, op: _ProductGridOperator, dec: SpectralDecomposition):
        self.op, self.dec, self.lam, self.phis = op, dec, dec.lambdas, dec.phis
        r = np.tril(np.ones((op.m, op.m)), -1) + np.diag(op.s)
        self.rw = r.T @ op.w
        self.cinv = 1.0 / np.sqrt(op.cv)
        vartheta, self.q = np.linalg.eigh(
            self.cinv[:, None] * (r.T @ (op.w[:, None] * r)) * self.cinv
        )
        self.denom = 1.0 + self.lam[:, None] * vartheta[None, :]
        # G_k^-1 g_k, and sigma_k = 2 lam_k sum(w) - g_k . G_k^-1 g_k (0 at lam = 0)
        self.g_solved = self.solve_modes(2.0 * self.lam[:, None] * self.rw[None, :])
        # sigma_k is the Schur complement of G_k in mode k's block, which is
        # positive definite for lam_k > 0, so sigma_k > 0 there (SingularSystem
        # if it rounds to <= 0) and exactly 0 on the constant mode
        sigma = 2.0 * self.lam * (op.w.sum() - self.g_solved @ self.rw)
        self.pinned = _pinned_solver(dec, sigma, op.omega)

    def solve_modes(self, rhs):
        """G_k^-1 rhs_k for every mode k (row k of the n x m array `rhs`)."""
        z = ((rhs * self.cinv) @ self.q) / self.denom
        return 0.5 * (z @ self.q.T) * self.cinv

    def __call__(self, r_scaled):
        """Solve the vertical blocks for the v-part of the residual, then the
        pinned Schur system for t, then correct each mode's v by its tau_k."""
        op = self.op
        r_t, r_v = op.unpack(r_scaled * op.scale, np.zeros(op.n))
        y = self.solve_modes(self.phis.T @ r_v)
        mu = op.space.mu
        coupling = mu * (self.phis @ (2.0 * self.lam * (y @ self.rw)))
        t = self.pinned(np.where(op.omega, r_t - coupling, 0.0))
        tau = self.dec.coefficients(t)
        v = self.phis @ (y - tau[:, None] * self.g_solved)
        return op.pack(t, v) * op.scale


def solve_extension(problem: DirichletProblem, grid: HalfSpaceGrid) -> Solution:
    """Minimize the discrete weighted product-grid energy and return the
    trace.  The boundary row is pinned to the data over the complement and
    left free over the domain (the natural condition there realizes the even
    symmetry of the full-space problem); the top row is free, which is
    harmless once the grid is tall enough for the slowest mode to die out.

    The decomposition of the problem's form preconditions the conjugate
    gradient (Hestenes-Stiefel from x = 0, one operator and one
    preconditioner application per iteration, updated in the order of
    scipy's `cg`, whose iterates it reproduces bit for bit) and gives the
    fractional energy of the trace.  The reported residual is the true
    ||b - A x|| / ||b|| of the scaled system, rechecked after the loop:
    IterationBudgetExceeded unless it is at most _CG_REL_TOL.
    """
    grid.check_theta_matches(problem.theta)
    op = _ProductGridOperator(problem.space, grid, problem.omega)
    b = op.rhs_scaled(problem.f)
    precondition = _ModePreconditioner(op, problem.form.dec)
    bnorm = np.linalg.norm(b)
    x, r, iterations = np.zeros_like(b), b, 0
    # r starts as b and is rebound, never updated in place: b is read again
    # for the true residual, and a preconditioner may return r itself
    while bnorm and iterations < _CG_MAX_ITER and not np.linalg.norm(r) < _CG_REL_TOL * bnorm:
        z = precondition(r)
        rz = r @ z
        p = z if iterations == 0 else z + (rz / rz_prev) * p
        ap = op.apply_scaled(p)
        alpha = rz / (p @ ap)
        x += alpha * p
        r = r - alpha * ap
        rz_prev = rz
        iterations += 1
    residual = float(np.linalg.norm(b - op.apply_scaled(x)) / (bnorm or 1.0))
    if not residual <= _CG_REL_TOL:  # a NaN residual fails too
        raise IterationBudgetExceeded(
            f"conjugate gradient: {iterations} iterations, residual "
            f"{residual:.3e}, budget {_CG_REL_TOL:.1e}"
        )
    t, _ = op.unpack(x / op.scale, problem.f)
    return Solution(
        u=t,
        residual=residual,
        energy=problem.form.energy(t),
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# verification operations


def residual_check(sol: Solution, problem: DirichletProblem) -> float:
    """Max over x in Omega of |E_theta(u, e_x)|: the unit indicators span the
    functions supported in the domain, so this is the full weak residual."""
    return float(np.max(np.abs(problem.form.apply(sol.u)[problem.omega])))


def maximum_principle_check(sol: Solution, problem: DirichletProblem) -> dict:
    """Pointwise bounds: data extremes on the complement bound the solution."""
    fc = problem.f[~problem.omega]
    lo, hi = float(fc.min()), float(fc.max())
    scale = max(1.0, float(np.abs(fc).max()))
    tol = 1e-12 * scale
    u_omega = sol.u[problem.omega]
    where = np.where(problem.omega)[0]
    return {
        "lower": lo,
        "upper": hi,
        "min_interior": float(u_omega.min()),
        "max_interior": float(u_omega.max()),
        "argmin": int(where[np.argmin(u_omega)]),
        "argmax": int(where[np.argmax(u_omega)]),
        "tolerance": tol,
        "passed": bool(np.all(u_omega >= lo - tol) and np.all(u_omega <= hi + tol)),
    }


def strong_maximum_check(sol: Solution, problem: DirichletProblem) -> dict:
    """Contrapositive strong maximum principle: a nonconstant solution
    attains its global max strictly outside the domain."""
    scale = max(1.0, float(np.abs(sol.u).max()))
    is_constant = np.ptp(sol.u) <= 1e-10 * scale
    interior_max = float(sol.u[problem.omega].max())
    global_max = float(sol.u.max())
    margin = global_max - interior_max
    return {
        "is_constant": bool(is_constant),
        "interior_max": interior_max,
        "global_max": global_max,
        "margin": margin,
        "passed": bool(is_constant or margin > 1e-10 * scale),
    }


def harnack_quotient(sol: Solution, problem: DirichletProblem, center, radius: float):
    """max/min of a nonnegative solution over a ball with 2B inside the domain.

    `center` may be an array of centres, giving an array of quotients (a
    scalar gives a float).  Diagnostic only: the comparison constant for such
    quotients is not explicit, so values are recorded, not asserted.
    """
    space = problem.space
    leaves = _leaves_domain(problem, ball_mask(space, center, 2.0 * radius))
    if np.any(leaves):
        bad = np.asarray(center)[leaves]
        raise BallNotCompactlyInside(f"B(x, {2 * radius}) leaves the domain for x in {bad}")
    scale = max(1.0, float(np.abs(sol.u).max()))
    if sol.u.min() < -1e-12 * scale:
        raise NegativeSolution(f"solution attains {sol.u.min():.3e} < 0")
    top, bottom = _ball_extremes(ball_mask(space, center, radius), np.clip(sol.u, 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(bottom == 0.0, np.inf, top / bottom)
    return float(q) if q.ndim == 0 else q


def _leaves_domain(problem, ball):
    """True where a ball (a `ball_mask` row) meets the complement of the domain."""
    return np.any(ball & ~problem.omega, axis=-1)


def _ball_extremes(ball, v):
    """max and min of `v` over each ball (a `ball_mask` row)."""
    return np.where(ball, v, -np.inf).max(axis=-1), np.where(ball, v, np.inf).min(axis=-1)


def holder_estimate(sol: Solution, problem: DirichletProblem) -> dict:
    """Empirical oscillation-decay exponent: least-squares slope of
    log osc_{B(x,r)}(u) against log r over balls inside the domain.
    Constant solutions report an infinite exponent sentinel."""
    space = problem.space
    radii = []
    r = space.min_positive_distance()
    while r <= space.diameter:
        radii.append(r)
        r *= 2.0
    if len(radii) < 3:
        raise InsufficientScales(f"only {len(radii)} radii available, need 3")

    # (centre, radius) tables; the fit reads them centre-major.  One ball mask
    # per radius; oscillations only where the ball stays inside the domain.
    centres = np.flatnonzero(problem.omega)
    osc = np.zeros((len(centres), len(radii)))
    for j, r in enumerate(radii):
        ball = ball_mask(space, centres, r)
        stays = ~_leaves_domain(problem, ball)
        osc[stays, j] = np.subtract(*_ball_extremes(ball[stays], sol.u))
    keep = osc > 0
    if not keep.any():
        return {"alpha_fit": float("inf"), "r2": float("nan")}
    lr = np.broadcast_to(np.log(radii), keep.shape)[keep]
    lo = np.log(osc[keep])
    if len(set(lr)) < 2:
        raise InsufficientScales("oscillation data spans fewer than 2 radii")
    slope, intercept = np.polyfit(lr, lo, 1)
    pred = slope * lr + intercept
    ss_res = float(np.sum((lo - pred) ** 2))
    ss_tot = float(np.sum((lo - lo.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"alpha_fit": float(slope), "r2": r2}


def uniqueness_check(problem: DirichletProblem) -> dict:
    """Uniqueness of the minimizer: the constrained stiffness block is
    positive definite, so the energy is strictly convex on the domain."""
    idx = np.where(problem.omega)[0]
    koo = problem.form.stiffness[np.ix_(idx, idx)]
    lam_min = float(np.linalg.eigvalsh(koo)[0])
    return {"lambda_min": lam_min, "passed": lam_min > 0}
