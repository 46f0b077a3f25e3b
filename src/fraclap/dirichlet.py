"""Nonlocal Dirichlet problems: (-Delta)^theta u = 0 on a domain Omega with
data f imposed on the complement.

Two independent routes produce the solution:

  * spectral  -- assemble the fractional stiffness matrix and solve the
    Schur system K_OO u_O = -K_Oc f_c directly; this IS the Euler-Lagrange
    condition, so no iteration error enters.
  * extension -- minimize the weighted Dirichlet energy of a field on the
    product grid X x {y_0..y_m} with the data pinned on the boundary row
    over the complement and a natural (zero-flux) condition over Omega,
    then read off the boundary row.  Kept matrix-free (preconditioned
    conjugate gradient) so the two routes share no linear algebra.

Agreement of the two traces under grid refinement is the computable face of
the equivalence between energy minimizers and harmonic-extension traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh, solve

from .energy import FracEnergyForm, stiffness_matrix
from .errors import (
    BallNotCompactlyInside,
    InsufficientScales,
    InvalidParams,
    IterationBudgetExceeded,
    NegativeSolution,
    SingularSystem,
)
from .extension import HalfSpaceGrid
from .space import Space
from .spectral import SpectralDecomposition, check_theta, decompose, graph_stiffness

__all__ = [
    "DirichletProblem",
    "Solution",
    "solution_to_json",
    "IterSpec",
    "solve_spectral",
    "solve_extension",
    "residual_check",
    "maximum_principle_check",
    "strong_maximum_check",
    "harnack_quotient",
    "holder_estimate",
    "uniqueness_check",
]


@dataclass(frozen=True)
class DirichletProblem:
    """Domain mask, boundary data, and exponent for one Dirichlet problem.

    Both the domain and its complement must be nonempty: the complement
    carries the data, and a nonempty complement makes the constrained
    stiffness block positive definite on connected spaces.
    """

    space: Space
    theta: float
    omega: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=bool)
        f = np.asarray(self.f, dtype=float)
        if omega.shape != (self.space.n,) or f.shape != (self.space.n,):
            raise InvalidParams("omega and f must be vectors over the point set")
        check_theta(self.theta)
        if not omega.any():
            raise InvalidParams("domain is empty")
        if omega.all():
            raise InvalidParams("domain complement is empty")
        omega.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "f", f)

    @property
    def data_oscillation(self) -> float:
        return float(np.ptp(self.f[~self.omega]))


@dataclass(frozen=True)
class Solution:
    u: np.ndarray
    route: str
    residual: float
    energy: float


def solution_to_json(sol: Solution, problem: DirichletProblem, diagnostics=None) -> str:
    import json

    return json.dumps(
        {
            "route": sol.route,
            "theta": problem.theta,
            "omega": problem.omega.tolist(),
            "u": sol.u.tolist(),
            "energy": sol.energy,
            "residual": sol.residual,
            "diagnostics": diagnostics or {},
        }
    )


@dataclass(frozen=True)
class IterSpec:
    rel_tol: float = 1e-11
    max_iter: int = 100_000


def solve_spectral(
    problem: DirichletProblem,
    dec: SpectralDecomposition | None = None,
    form: FracEnergyForm | None = None,
) -> Solution:
    """Direct solve of the Euler-Lagrange system for the energy minimizer.

    `dec` and `form` may be passed to reuse work across problems; they must
    belong to the problem's space and exponent, else InvalidParams.
    """
    space = problem.space
    if dec is not None and not _same_space(dec.space, space):
        raise InvalidParams("decomposition was built for another space")
    if form is not None:
        if form.theta != problem.theta:
            raise InvalidParams(
                f"stiffness form has theta={form.theta}, problem has {problem.theta}"
            )
        if form.stiffness.shape != (space.n, space.n):
            raise InvalidParams(
                f"stiffness form has shape {form.stiffness.shape}, space has n={space.n}"
            )
    else:
        form = stiffness_matrix(dec or decompose(space), problem.theta)
    k = form.stiffness
    idx = np.where(problem.omega)[0]
    cdx = np.where(~problem.omega)[0]
    koo = k[np.ix_(idx, idx)]
    rhs = -k[np.ix_(idx, cdx)] @ problem.f[cdx]
    try:
        u_omega = solve(koo, rhs, assume_a="pos")
    except LinAlgError as exc:
        raise SingularSystem(f"constrained stiffness block not positive definite: {exc}")
    u = problem.f.copy()
    u[idx] = u_omega
    residual = float(np.max(np.abs((k @ u)[idx])))
    return Solution(u=u, route="spectral", residual=residual, energy=float(u @ (k @ u)))


def _same_space(a: Space, b: Space) -> bool:
    return a is b or all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in ("dist", "mu", "cond")
    )


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
    """

    def __init__(self, space: Space, grid: HalfSpaceGrid, omega: np.ndarray):
        self.space = space
        self.grid = grid
        self.omega = omega
        self.n = space.n
        self.m = grid.m
        ys, w = grid.ys, grid.cellweights
        dy = np.diff(ys)
        self.w = w
        self.cv = w / dy**2
        self.s = (grid.cell_centroids() - ys[:-1]) / dy
        self.stiff = graph_stiffness(space)
        gdiag = np.diag(self.stiff)
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
        horiz = float(np.sum(self.w * np.einsum("xj,xj->j", rows, self.stiff @ rows)))
        return vert + horiz

    def gradient(self, t, v):
        rows = self.rows_interp(t, v)
        h = 2.0 * self.w[None, :] * (self.stiff @ rows)
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


def solve_extension(
    problem: DirichletProblem,
    grid: HalfSpaceGrid,
    solver: IterSpec = IterSpec(),
    dec: SpectralDecomposition | None = None,
    initial: np.ndarray | None = None,
) -> Solution:
    """Minimize the discrete weighted product-grid energy and return the
    trace.  The boundary row is pinned to the data over the complement and
    left free over the domain (the natural condition there realizes the even
    symmetry of the full-space problem); the top row is free, which is
    harmless once the grid is tall enough for the slowest mode to die out.

    `initial` perturbs the starting iterate (used by uniqueness checks);
    `dec` is only used to report the fractional energy of the trace.
    """
    grid.check_theta_matches(problem.theta)
    op = _ProductGridOperator(problem.space, grid, problem.omega)
    b = op.rhs_scaled(problem.f)
    x = np.zeros_like(b) if initial is None else initial / op.scale

    r = b - op.apply_scaled(x)
    p = r.copy()
    rr = float(r @ r)
    bnorm = float(np.sqrt(b @ b))
    if bnorm == 0.0:
        bnorm = 1.0
    iterations = 0
    while np.sqrt(rr) > solver.rel_tol * bnorm:
        if iterations >= solver.max_iter:
            raise IterationBudgetExceeded(
                f"conjugate gradient: {iterations} iterations, residual "
                f"{np.sqrt(rr) / bnorm:.3e} > {solver.rel_tol:.1e}"
            )
        ap = op.apply_scaled(p)
        alpha = rr / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rr_next = float(r @ r)
        p = r + (rr_next / rr) * p
        rr = rr_next
        iterations += 1

    t, _ = op.unpack(x / op.scale, problem.f)
    residual = float(np.sqrt(rr) / bnorm)
    dec = dec or decompose(problem.space)
    form = stiffness_matrix(dec, problem.theta)
    return Solution(u=t, route="extension", residual=residual, energy=form.energy(t))


# ---------------------------------------------------------------------------
# verification operations


def residual_check(
    sol: Solution, problem: DirichletProblem, form: FracEnergyForm | None = None
) -> float:
    """Max over x in Omega of |E_theta(u, e_x)|: the unit indicators span the
    functions supported in the domain, so this is the full weak residual."""
    form = form or stiffness_matrix(decompose(problem.space), problem.theta)
    return float(np.max(np.abs(form.apply(sol.u)[problem.omega])))


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


def harnack_quotient(
    sol: Solution, problem: DirichletProblem, center: int, radius: float
) -> float:
    """max/min of a nonnegative solution over a ball with 2B inside the domain.

    Diagnostic only: the comparison constant for such quotients is not
    explicit, so values are recorded, not asserted.
    """
    space = problem.space
    double_ball = space.dist[center] <= 2.0 * radius
    if not problem.omega[double_ball].all():
        raise BallNotCompactlyInside(
            f"B({center}, {2 * radius}) leaves the domain"
        )
    scale = max(1.0, float(np.abs(sol.u).max()))
    if sol.u.min() < -1e-12 * scale:
        raise NegativeSolution(f"solution attains {sol.u.min():.3e} < 0")
    ball = space.dist[center] <= radius
    vals = np.clip(sol.u[ball], 0.0, None)
    top, bottom = float(vals.max()), float(vals.min())
    return float("inf") if bottom == 0.0 else top / bottom


def holder_estimate(sol: Solution, problem: DirichletProblem) -> dict:
    """Empirical oscillation-decay exponent: least-squares slope of
    log osc_{B(x,r)}(u) against log r over balls inside the domain.
    Constant solutions report an infinite exponent sentinel."""
    space = problem.space
    rmin = space.min_positive_distance()
    radii = []
    r = rmin
    while r <= space.diameter:
        radii.append(r)
        r *= 2.0
    if len(radii) < 3:
        raise InsufficientScales(f"only {len(radii)} radii available, need 3")

    logs = []
    for x in np.where(problem.omega)[0]:
        for r in radii:
            ball = space.dist[x] <= r
            if problem.omega[ball].all():
                osc = float(np.ptp(sol.u[ball]))
                if osc > 0:
                    logs.append((np.log(r), np.log(osc)))
    if not logs:
        return {"alpha_fit": float("inf"), "r2": float("nan")}
    lr, lo = np.array(logs).T
    if len(set(lr)) < 2:
        raise InsufficientScales("oscillation data spans fewer than 2 radii")
    slope, intercept = np.polyfit(lr, lo, 1)
    pred = slope * lr + intercept
    ss_res = float(np.sum((lo - pred) ** 2))
    ss_tot = float(np.sum((lo - lo.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"alpha_fit": float(slope), "r2": r2}


def uniqueness_check(
    problem: DirichletProblem,
    grid: HalfSpaceGrid | None = None,
    solver: IterSpec = IterSpec(),
) -> dict:
    """Two facets of uniqueness: the constrained stiffness block is positive
    definite, and the iterative route lands on the same trace from a
    perturbed initial iterate."""
    dec = decompose(problem.space)
    form = stiffness_matrix(dec, problem.theta)
    idx = np.where(problem.omega)[0]
    koo = form.stiffness[np.ix_(idx, idx)]
    lam_min = float(eigh(koo, eigvals_only=True)[0])

    report = {"lambda_min": lam_min, "passed": lam_min > 0}
    if grid is not None:
        base = solve_extension(problem, grid, solver, dec=dec)
        size = int(problem.omega.sum()) + problem.space.n * grid.m
        perturbed_start = np.full(size, float(np.abs(problem.f).max() or 1.0))
        again = solve_extension(problem, grid, solver, dec=dec, initial=perturbed_start)
        agreement = float(np.max(np.abs(base.u - again.u)))
        tol = 100 * solver.rel_tol * max(1.0, float(np.abs(base.u).max()))
        report["trace_agreement"] = agreement
        report["passed"] = bool(report["passed"] and agreement <= tol)
    return report
