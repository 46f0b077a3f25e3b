import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator, cg

from fraclap import (
    DirichletProblem,
    build_grid,
    decompose,
    default_ymax,
    fixture,
    harnack_quotient,
    holder_estimate,
    maximum_principle_check,
    residual_check,
    solve_extension,
    solve_spectral,
    solve_spectral_batch,
    stiffness_matrix,
    strong_maximum_check,
    uniqueness_check,
)
from fraclap import dirichlet
from fraclap.dirichlet import _ProductGridOperator
from fraclap.errors import (
    BallNotCompactlyInside,
    DegenerateFirstCell,
    GridThetaMismatch,
    InsufficientScales,
    InvalidParams,
    IterationBudgetExceeded,
    NegativeSolution,
    SingularSystem,
)
from fraclap.space import _neighbour_counts
from fraclap.spectral import SpectralDecomposition

from conftest import random_vector
from oracles import cosine_decomposition


def p3_problem(p3_dec, theta=0.5):
    return DirichletProblem(
        stiffness_matrix(p3_dec, theta),
        omega=np.array([False, True, False]),
        f=np.array([0.0, 0.0, 1.0]),
    )


def path8_problem(path8_dec, theta=0.75):
    """Interior domain of path n=8 with seed-0 data."""
    omega = np.zeros(8, bool)
    omega[1:-1] = True
    f = np.random.default_rng(0).standard_normal(8)
    return DirichletProblem(stiffness_matrix(path8_dec, theta), omega=omega, f=f)


def grid_interior(sp):
    """grid2d's interior: the lattice rim peeled off."""
    return _neighbour_counts(sp) == 4


def interior_grid_problem(grid44_dec, f, theta=0.5):
    omega = grid_interior(grid44_dec.space)
    return DirichletProblem(stiffness_matrix(grid44_dec, theta), omega=omega, f=f)


# -- problem invariants


def test_problem_rejects_empty_domain(p3_dec):
    form = stiffness_matrix(p3_dec, 0.5)
    with pytest.raises(InvalidParams):
        DirichletProblem(form, omega=np.zeros(3, bool), f=np.zeros(3))


def test_problem_rejects_full_domain(p3_dec):
    form = stiffness_matrix(p3_dec, 0.5)
    with pytest.raises(InvalidParams):
        DirichletProblem(form, omega=np.ones(3, bool), f=np.zeros(3))


def test_problem_rejects_bad_theta(p3_dec):
    with pytest.raises(InvalidParams):
        DirichletProblem(
            stiffness_matrix(p3_dec, 1.5), omega=np.array([False, True, False]), f=np.zeros(3)
        )


def test_problem_reads_space_and_theta_from_its_form(p3_dec):
    form = stiffness_matrix(p3_dec, 0.25)
    prob = DirichletProblem(form, omega=np.array([False, True, False]), f=np.zeros(3))
    assert prob.space is form.dec.space
    assert prob.theta == form.theta == 0.25


# -- spectral route


def test_constant_data_gives_constant_minimizer(path8_dec):
    omega = np.zeros(8, bool)
    omega[2:6] = True
    prob = DirichletProblem(stiffness_matrix(path8_dec, 0.5), omega=omega, f=np.full(8, 3.3))
    sol = solve_spectral(prob)
    assert np.allclose(sol.u, 3.3, atol=1e-12)
    assert sol.energy == pytest.approx(0.0, abs=1e-12)


def test_p3_schur_formula(p3_dec):
    prob = p3_problem(p3_dec)
    sol = solve_spectral(prob)
    k = stiffness_matrix(p3_dec, 0.5).stiffness
    expected = -(k[1, 0] * 0.0 + k[1, 2] * 1.0) / k[1, 1]
    assert sol.u[1] == pytest.approx(expected, abs=1e-13)
    assert np.array_equal(sol.u[[0, 2]], prob.f[[0, 2]])


def test_p3_against_scalar_minimization_oracle(p3_dec):
    # one free value: refine a brute-force grid search of E(u(t)) over t
    prob = p3_problem(p3_dec)
    sol = solve_spectral(prob)

    def energy_at(t):
        u = np.array([0.0, t, 1.0])
        return stiffness_matrix(p3_dec, 0.5).energy(u)

    lo, hi = -2.0, 3.0
    for _ in range(12):
        ts = np.linspace(lo, hi, 41)
        vals = [energy_at(t) for t in ts]
        i = int(np.argmin(vals))
        lo, hi = ts[max(0, i - 1)], ts[min(len(ts) - 1, i + 1)]
    best = 0.5 * (lo + hi)
    assert sol.u[1] == pytest.approx(best, abs=1e-6)
    assert energy_at(sol.u[1]) <= energy_at(best) + 1e-12


def test_spectral_residual_scaled(grid44_dec):
    f = np.random.default_rng(0).standard_normal(16)
    prob = interior_grid_problem(grid44_dec, f)
    sol = solve_spectral(prob)
    k = stiffness_matrix(grid44_dec, 0.5).stiffness
    scale = np.linalg.norm(k) * np.linalg.norm(sol.u)
    assert sol.residual <= 1e-9 * scale


def test_spectral_linearity(path8_dec):
    omega = np.zeros(8, bool)
    omega[3:6] = True
    rng = np.random.default_rng(4)
    f1, f2 = rng.standard_normal(8), rng.standard_normal(8)
    c = 2.7
    form = stiffness_matrix(path8_dec, 0.5)
    u1 = solve_spectral(DirichletProblem(form, omega, f1)).u
    u2 = solve_spectral(DirichletProblem(form, omega, f2)).u
    u12 = solve_spectral(DirichletProblem(form, omega, f1 + c * f2)).u
    assert np.max(np.abs(u12 - (u1 + c * u2))) <= 1e-10


def test_comparison_principle(path8_dec):
    omega = np.zeros(8, bool)
    omega[2:6] = True
    rng = np.random.default_rng(8)
    f = rng.standard_normal(8)
    g = f + np.abs(rng.standard_normal(8))  # g >= f everywhere
    form = stiffness_matrix(path8_dec, 0.5)
    uf = solve_spectral(DirichletProblem(form, omega, f)).u
    ug = solve_spectral(DirichletProblem(form, omega, g)).u
    scale = max(1.0, np.abs(ug).max())
    assert np.all(ug >= uf - 1e-12 * scale)


def test_energy_minimality_against_competitors(grid44_dec):
    f = np.random.default_rng(1).standard_normal(16)
    prob = interior_grid_problem(grid44_dec, f)
    sol = solve_spectral(prob)
    rng = np.random.default_rng(2)
    for _ in range(100):
        h = sol.u.copy()
        h[prob.omega] += rng.standard_normal(int(prob.omega.sum()))
        gap = prob.form.energy(h) - sol.energy
        assert gap >= -1e-12 * max(1.0, sol.energy)


# -- extension route and agreement


def test_extension_route_agrees_on_p3(p3_dec):
    prob = p3_problem(p3_dec)
    spectral = solve_spectral(prob)
    grid = build_grid(0.5, default_ymax(p3_dec), 32)
    ext = solve_extension(prob, grid)
    assert np.max(np.abs(spectral.u - ext.u)) <= 1e-5


def test_route_gap_contracts_under_refinement(path8_dec):
    # on p3 both routes give u(1) = (f0 + f2)/2 for every symbol (phi_1
    # vanishes at the middle point), so its gap is zero at every m
    prob = path8_problem(path8_dec)
    spectral = solve_spectral(prob)
    ymax = default_ymax(path8_dec)
    y1s, gaps = [], []
    for m in (8, 10, 12, 14):
        grid = build_grid(0.75, ymax, m)
        ext = solve_extension(prob, grid)
        y1s.append(grid.ys[1])
        gaps.append(np.max(np.abs(spectral.u - ext.u)))
    slope = np.polyfit(np.log(y1s), np.log(gaps), 1)[0]
    assert slope >= 0.9


def test_extension_operator_gradient_matches_energy(path8):
    # finite-difference check of the quadratic form's gradient
    grid = build_grid(0.5, 8.0, 8)
    omega = np.zeros(8, bool)
    omega[3:5] = True
    op = _ProductGridOperator(path8, grid, omega)
    rng = np.random.default_rng(0)
    t, v = rng.standard_normal(8), rng.standard_normal((8, grid.m))
    gt, gv = op.gradient(t, v)
    eps = 1e-6
    for _ in range(5):
        dt, dv = rng.standard_normal(8), rng.standard_normal((8, grid.m))
        fd = (op.energy(t + eps * dt, v + eps * dv) - op.energy(t - eps * dt, v - eps * dv)) / (
            2 * eps
        )
        analytic = float(np.sum(gt * dt) + np.sum(gv * dv))
        assert fd == pytest.approx(analytic, rel=1e-6)


def test_extension_iteration_budget(p3_dec, monkeypatch):
    prob = p3_problem(p3_dec)
    grid = build_grid(0.5, default_ymax(p3_dec), 16)
    monkeypatch.setattr(dirichlet, "_CORRECTION_MAX_PASSES", 0)
    with pytest.raises(IterationBudgetExceeded):
        solve_extension(prob, grid)


def test_extension_converging_on_the_last_budgeted_iteration_returns(request, monkeypatch):
    # the budget is judged on the residual the loop stops on: with the
    # solve's own pass count as the budget it returns, with one fewer it
    # raises
    prob = _interior_problem("grid44", 0.25, request)
    grid = build_grid(0.25, default_ymax(prob.form.dec), 32)
    passes = solve_extension(prob, grid).iterations
    assert passes >= 1
    iterates = []

    class RecordingOperator(_ProductGridOperator):
        def apply_scaled(self, x):
            iterates.append(x.copy())  # one call per pass, none after the loop
            return super().apply_scaled(x)

    monkeypatch.setattr(dirichlet, "_ProductGridOperator", RecordingOperator)
    monkeypatch.setattr(dirichlet, "_CORRECTION_MAX_PASSES", passes)
    sol = solve_extension(prob, grid)
    assert sol.iterations == passes == len(iterates)
    op = _ProductGridOperator(prob.space, grid, prob.omega)
    x = iterates[-1]
    b = op.rhs_scaled(prob.f)
    true_residual = np.linalg.norm(b - op.apply_scaled(x)) / np.linalg.norm(b)
    assert true_residual <= dirichlet._CORRECTION_REL_TOL
    assert sol.residual == true_residual
    assert np.array_equal(sol.u, op.unpack(x / op.scale, prob.f)[0])
    monkeypatch.setattr(dirichlet, "_CORRECTION_MAX_PASSES", passes - 1)
    with pytest.raises(IterationBudgetExceeded):
        solve_extension(prob, grid)


def test_extension_rejects_cells_too_thin_for_double_precision(path8_dec):
    # at m = 1000 the geometric grid's first cells are so thin that dy^2
    # underflows (y_1 = 7.5e-300), so their stiffnesses w / dy^2 are
    # infinite: the operator's set-up names the first such cell
    grid = build_grid(0.5, 40.0, 1000)
    with pytest.raises(DegenerateFirstCell, match="cell 0 .* too thin"):
        solve_extension(path8_problem(path8_dec, theta=0.5), grid)


def test_extension_grid_mismatch(p3_dec):
    prob = p3_problem(p3_dec, theta=0.25)
    with pytest.raises(GridThetaMismatch):
        solve_extension(prob, build_grid(0.5, 10.0, 16))


def _interior(space):
    """Path endpoints or lattice rim peeled off."""
    counts = _neighbour_counts(space)
    return counts == counts.max()


def _interior_problem(name, theta, request):
    """Seeded random data off the interior (`_interior`) of a fixture."""
    space, dec = request.getfixturevalue(name), request.getfixturevalue(f"{name}_dec")
    f = np.random.default_rng(0).standard_normal(space.n)
    return DirichletProblem(stiffness_matrix(dec, theta), omega=_interior(space), f=f)


def _plain_cg_trace(prob, grid):
    """(trace, iterations) of scipy's plain CG (no preconditioner) on the
    extension route's scaled system, to the solve's tolerance: an oracle
    that reads no eigenpair."""
    op = _ProductGridOperator(prob.space, grid, prob.omega)
    b = op.rhs_scaled(prob.f)
    steps = []
    x, info = cg(
        LinearOperator((len(b), len(b)), matvec=op.apply_scaled, dtype=float),
        b,
        rtol=dirichlet._CORRECTION_REL_TOL,
        atol=0.0,
        maxiter=100_000,
        callback=steps.append,
    )
    assert info == 0
    return op.unpack(x / op.scale, prob.f)[0], len(steps)


@pytest.mark.parametrize("m", [32, 128])
@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("name", ["path8", "grid44"])
def test_mode_preconditioner_keeps_the_minimizer(name, theta, m, request):
    # plain CG on the same scaled system reaches the same trace, so the
    # modal inverse changes only the path to the minimizer
    prob = _interior_problem(name, theta, request)
    grid = build_grid(theta, default_ymax(prob.form.dec), m)
    plain, plain_iterations = _plain_cg_trace(prob, grid)
    sol = solve_extension(prob, grid)
    assert sol.iterations < plain_iterations
    assert np.max(np.abs(sol.u - plain)) <= 1e-6 * prob.data_oscillation


@pytest.mark.parametrize("theta", [0.25, 0.75])
@pytest.mark.parametrize("name", ["path8", "grid44"])
def test_inexact_inverse_takes_more_passes_to_the_same_minimizer(
    name, theta, request, monkeypatch
):
    # with the modal inverse scaled by 1 - 1e-3 each pass cuts the residual
    # by 1e-3, so the 1e-11 budget takes four passes (measured: 1.0e-12
    # after the fourth), and the loop still stops at plain CG's trace
    class ScaledInverse(dirichlet._ModePreconditioner):
        def __call__(self, r_scaled):
            return (1.0 - 1e-3) * super().__call__(r_scaled)

    monkeypatch.setattr(dirichlet, "_ModePreconditioner", ScaledInverse)
    prob = _interior_problem(name, theta, request)
    grid = build_grid(theta, default_ymax(prob.form.dec), 32)
    sol = solve_extension(prob, grid)
    assert sol.iterations == 4
    assert sol.residual <= dirichlet._CORRECTION_REL_TOL
    plain, _ = _plain_cg_trace(prob, grid)
    assert np.max(np.abs(sol.u - plain)) <= 1e-6 * prob.data_oscillation


@pytest.mark.parametrize("theta", [0.25, 0.75])
@pytest.mark.parametrize("name", ["path8", "grid44"])
def test_extension_preconditions_once_per_iteration(name, theta, request, monkeypatch):
    # each pass applies the modal inverse once and the operator once (the
    # right-hand side is a gradient, not an application); the residual the
    # loop stops on is never corrected, and nothing is applied after it
    calls = []

    class CountingInverse(dirichlet._ModePreconditioner):
        def __call__(self, r_scaled):
            calls.append("P")
            return super().__call__(r_scaled)

    class CountingOperator(_ProductGridOperator):
        def apply_scaled(self, x):
            calls.append("A")
            return super().apply_scaled(x)

    monkeypatch.setattr(dirichlet, "_ModePreconditioner", CountingInverse)
    monkeypatch.setattr(dirichlet, "_ProductGridOperator", CountingOperator)
    prob = _interior_problem(name, theta, request)
    sol = solve_extension(prob, build_grid(theta, default_ymax(prob.form.dec), 32))
    assert sol.iterations >= 1
    assert calls == ["P", "A"] * sol.iterations


@pytest.mark.parametrize(
    "nx, m", [(4, 32), (20, 32), (4, 128)], ids=["grid4-m32", "grid20-m32", "grid4-m128"]
)
def test_extension_iterations_independent_of_size(nx, m):
    space = fixture("grid2d", nx=nx)
    dec = decompose(space)
    f = np.random.default_rng(0).standard_normal(space.n)
    for theta in (0.25, 0.5, 0.75):
        prob = DirichletProblem(stiffness_matrix(dec, theta), omega=_interior(space), f=f)
        sol = solve_extension(prob, build_grid(theta, default_ymax(dec), m))
        assert sol.iterations <= 2, f"theta={theta}"
        assert sol.residual <= dirichlet._CORRECTION_REL_TOL


@pytest.mark.parametrize(
    "kind, params, nx, ny", [("path", {"n": 400}, 400, 1), ("grid2d", {"nx": 20}, 20, 20)]
)
def test_routes_match_on_closed_form_modes(kind, params, nx, ny):
    # an eigensolver-free second side for both pinned sides and for the
    # extension route: the same solves on the paths' cosines (and, on the
    # grid, their Kronecker products) and on `decompose`.  Solutions do not
    # depend on the basis chosen in degenerate eigenspaces.  Measured,
    # relative to the data's oscillation: spectral traces within 1.8e-12
    # (path, theta = 3/4, complement side) and 1.4e-15 (grid); extension
    # traces within 1.8e-9 (path, theta = 1/4), which is the solve's
    # accuracy at its residual budget, and 3.9e-12 (grid), one pass each
    space = fixture(kind, **params)
    closed, dec = cosine_decomposition(space, nx, ny), decompose(space)
    band = np.zeros(space.n, bool)
    band[space.n // 4 : space.n // 2] = True
    f = np.random.default_rng(0).standard_normal(space.n)
    sides = [(_interior(space), dirichlet._ComplementSide), (band, dirichlet._DomainSide)]
    for theta in (0.25, 0.75):
        grid = build_grid(theta, default_ymax(dec), 32)
        for omega, side in sides:
            oracle = DirichletProblem(stiffness_matrix(closed, theta), omega, f)
            problem = DirichletProblem(stiffness_matrix(dec, theta), omega, f)
            assert isinstance(dirichlet._pinned_solver(closed, oracle.form.weights, omega), side)
            osc = problem.data_oscillation
            gap = np.max(np.abs(solve_spectral(oracle).u - solve_spectral(problem).u))
            assert gap <= 1e-11 * osc
            ext_oracle, ext = solve_extension(oracle, grid), solve_extension(problem, grid)
            assert ext_oracle.iterations <= 2 and ext.iterations <= 2
            assert np.max(np.abs(ext_oracle.u - ext.u)) <= 1e-8 * osc


def test_extension_energy_is_trace_energy(grid44_dec):
    f = np.random.default_rng(1).standard_normal(16)
    prob = interior_grid_problem(grid44_dec, f, theta=0.25)
    sol = solve_extension(prob, build_grid(0.25, default_ymax(grid44_dec), 32))
    form = stiffness_matrix(grid44_dec, 0.25)
    assert sol.energy == pytest.approx(form.energy(sol.u), rel=1e-12)


def test_spectral_route_reports_no_iterations(p3_dec):
    assert solve_spectral(p3_problem(p3_dec)).iterations == 0


def test_extension_constant_data(p3_dec):
    prob = DirichletProblem(
        stiffness_matrix(p3_dec, 0.5), omega=np.array([False, True, False]), f=np.full(3, 1.7)
    )
    grid = build_grid(0.5, default_ymax(p3_dec), 16)
    sol = solve_extension(prob, grid)
    assert np.allclose(sol.u, 1.7, atol=1e-9)
    # zero data makes the right-hand side 0, which the loop returns at once
    zero = solve_extension(DirichletProblem(prob.form, omega=prob.omega, f=np.zeros(3)), grid)
    assert zero.iterations == 0 and zero.residual == 0.0 and not zero.u.any()


# -- residual check


def test_residual_check_spectral(p3_dec):
    prob = p3_problem(p3_dec)
    sol = solve_spectral(prob)
    assert residual_check(sol, prob) <= 1e-12


def test_residual_positive_without_solving(p3_dec):
    prob = p3_problem(p3_dec)
    unsolved = solve_spectral(prob)
    fake = type(unsolved)(u=prob.f.copy(), residual=0.0, energy=0.0, iterations=0)
    assert residual_check(fake, prob) > 0.01


def test_residual_decreases_under_grid_refinement(path8_dec):
    prob = path8_problem(path8_dec)
    ymax = default_ymax(path8_dec)
    resids = []
    for m in (8, 12, 16):
        sol = solve_extension(prob, build_grid(0.75, ymax, m))
        resids.append(residual_check(sol, prob))
    assert resids[0] > resids[1] > resids[2]


# -- maximum principles


def test_max_principle_batch_grid(grid44, grid44_dec):
    form = stiffness_matrix(grid44_dec, 0.5)
    omega = grid_interior(grid44)
    for seed in range(100):
        f = np.random.default_rng(seed).standard_normal(16)
        prob = DirichletProblem(form, omega=omega, f=f)
        sol = solve_spectral(prob)
        assert maximum_principle_check(sol, prob)["passed"]


@pytest.mark.parametrize(
    "space",
    [fixture("grid2d", nx=4), fixture("random_geometric", n=60, radius=0.3, seed=0)],
    ids=["grid44", "rgg60"],
)
def test_spectral_batch_matches_single_solves(space):
    form = stiffness_matrix(decompose(space), 0.4)
    omega = np.arange(space.n) % 3 != 0
    problems = [DirichletProblem(form, omega, random_vector(space, s)) for s in range(10)]
    batch = solve_spectral_batch(problems)
    for sol, prob in zip(batch, problems):
        single = solve_spectral(prob)
        assert np.max(np.abs(sol.u - single.u)) <= 1e-12 * np.max(np.abs(single.u))
        assert sol.energy == pytest.approx(single.energy, rel=1e-12)
        assert sol.residual <= 1e-12 * np.max(np.abs(form.stiffness))


def test_spectral_batch_needs_one_form_and_domain(p3_dec):
    prob = p3_problem(p3_dec)
    other_omega = DirichletProblem(prob.form, [True, False, False], prob.f)
    other_form = p3_problem(p3_dec, theta=0.25)
    for problems in ([], [prob, other_omega], [prob, other_form]):
        with pytest.raises(InvalidParams):
            solve_spectral_batch(problems)


# -- the pinned solver: both sides against a dense solve of the domain block


@pytest.fixture(scope="module")
def dumbbell43():
    return fixture("dumbbell", clique=4, bridge=3)


def _pinned_domains(space):
    """|Omega| = 1, |c| = 1, |Omega| = |c| (n // 2 points when n is odd) and
    the max-degree core (the interior of the path and of the grids)."""
    counts = _neighbour_counts(space)
    single = np.arange(space.n) == np.argmax(counts)
    return [single, ~single, np.arange(space.n) < space.n // 2, counts == counts.max()]


def _dense_pinned(a, omega, b):
    """x with x_c = b_c and (a x)_O = b_O, by np.linalg.solve on the domain block."""
    x = b.copy()
    rhs = b[omega] - a[np.ix_(omega, ~omega)] @ b[~omega]
    x[omega] = np.linalg.solve(a[np.ix_(omega, omega)], rhs)
    return x


@pytest.mark.parametrize("side", ["_ComplementSide", "_DomainSide"])
@pytest.mark.parametrize("theta", [0.25, 0.75])
@pytest.mark.parametrize("name", ["path8", "grid44", "weighted_grid34", "dumbbell43"])
def test_pinned_solver_sides_match_dense_solve(name, theta, side, request, monkeypatch):
    space = request.getfixturevalue(name)
    dec = decompose(space)
    form = stiffness_matrix(dec, theta)
    # the preconditioner's sigma, as it hands it to the pinned solver
    sigmas = []
    real = dirichlet._pinned_solver
    monkeypatch.setattr(
        dirichlet, "_pinned_solver", lambda d, w, o: sigmas.append(w) or real(d, w, o)
    )
    omega = _interior(space)
    grid = build_grid(theta, default_ymax(dec), 32)
    dirichlet._ModePreconditioner(_ProductGridOperator(space, grid, omega), dec)
    [sigma] = sigmas
    s_dense = (space.mu[:, None] * dec.phis) @ (sigma[:, None] * (dec.phis.T * space.mu))
    rng = np.random.default_rng(0)
    for omega in _pinned_domains(space):
        solver = getattr(dirichlet, side)
        # lambda^theta with no source (the spectral route), three data columns
        f = rng.standard_normal((space.n, 3))
        f[omega] = 0.0
        x = solver(dec, form.weights, omega)(f)
        assert np.array_equal(x[~omega], f[~omega])
        expected = _dense_pinned(form.stiffness, omega, f)
        assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(f))
        # sigma with a source on the domain and data on the complement
        b = rng.standard_normal(space.n)
        x = solver(dec, sigma, omega)(b)
        assert np.array_equal(x[~omega], b[~omega])
        expected = _dense_pinned(s_dense, omega, b)
        assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("theta", [0.25, 0.75])
def test_symmetric_complement_gives_constant_solution(dumbbell43, theta):
    # swapping the dumbbell's last two points is an automorphism that fixes
    # every other point, so with those two as the complement the minimizer is
    # constant on the domain.  The capacitance solve keeps it constant to
    # rounding (at most 5.1e-16 max|f| over 50 seeds and three theta, exactly
    # constant in 59 of those 150), where factoring the 9-point domain block
    # left up to 6.1e-15
    omega = _all_but_last(dumbbell43)
    form = stiffness_matrix(decompose(dumbbell43), theta)
    for seed in range(5):
        f = random_vector(dumbbell43, seed)
        u = solve_spectral(DirichletProblem(form, omega, f)).u
        assert np.ptp(u[omega]) <= 1e-15 * np.max(np.abs(f))


def test_pinned_solver_rejects_a_nonpositive_weight(grid44_dec):
    w = grid44_dec.lambdas.copy()
    w[3] = 0.0
    with pytest.raises(SingularSystem):
        dirichlet._pinned_solver(grid44_dec, w, grid_interior(grid44_dec.space))


@pytest.mark.parametrize("weight", [np.nan, np.inf])
def test_pinned_solver_rejects_a_nonfinite_weight(grid44_dec, weight):
    # numpy's Cholesky factorization passes a NaN through to the solution
    w = grid44_dec.lambdas.copy()
    w[3] = weight
    omega = grid_interior(grid44_dec.space)
    for domain in (omega, ~omega):
        with pytest.raises(SingularSystem, match="not positive and finite"):
            dirichlet._pinned_solver(grid44_dec, w, domain)


@pytest.mark.parametrize(
    "side, factored, message",
    [("_DomainSide", True, "domain block"), ("_ComplementSide", False, "capacitance matrix")],
)
def test_pinned_solver_sides_reject_a_singular_factored_block(grid44_dec, side, factored, message):
    # every weight off the constant mode is positive, but Phi has a zero row
    # at one point of the factored side (the domain, or the complement), so
    # the block it factors has a zero row and column: singular, and its
    # Cholesky factorization meets an exactly zero pivot
    omega = grid_interior(grid44_dec.space)
    phis = grid44_dec.phis.copy()
    phis[np.flatnonzero(omega == factored)[0]] = 0.0
    dec = SpectralDecomposition(grid44_dec.space, grid44_dec.lambdas, phis, 0.0)
    with pytest.raises(SingularSystem, match=f"{message} not positive definite"):
        getattr(dirichlet, side)(dec, grid44_dec.lambdas, omega)


@pytest.mark.parametrize("k", [1, 96, 97, 250])
def test_cholesky_inverse_by_halves_matches_the_factor_inverse(k):
    # orders up to _CHOLESKY_LEAF are one leaf; 97 and 250 are split into
    # halves of unequal and of equal order.  Measured: the inverse within
    # 4.0e-16 of numpy's, the residual of a solve within 1.4e-15 of max |b|
    rng = np.random.default_rng(k)
    g = rng.standard_normal((k, 2 * k))
    a = g @ g.T
    inverse = dirichlet._cholesky_inverse(a.copy(), "test matrix")
    assert np.array_equal(inverse, np.tril(inverse))
    expected = np.linalg.inv(np.linalg.cholesky(a))
    assert np.max(np.abs(inverse - expected)) <= 4e-15 * np.max(np.abs(expected))
    b = rng.standard_normal((k, 2))
    x = dirichlet._cholesky_solve(inverse, b)
    assert np.max(np.abs(a @ x - b)) <= 1.5e-14 * np.max(np.abs(b))


def test_cholesky_inverse_by_halves_rejects_an_indefinite_matrix():
    # one negative eigenvalue among 250: a leaf's factorization fails
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((250, 250)))
    eigenvalues = np.linspace(1.0, 2.0, 250)
    eigenvalues[-1] = -1.0
    a = (q * eigenvalues) @ q.T
    with pytest.raises(SingularSystem, match="test matrix not positive definite"):
        dirichlet._cholesky_inverse(np.tril(a) + np.tril(a, -1).T, "test matrix")


def test_max_principle_equality_for_constants(p3_dec):
    prob = DirichletProblem(
        stiffness_matrix(p3_dec, 0.5), omega=np.array([False, True, False]), f=np.full(3, 2.0)
    )
    sol = solve_spectral(prob)
    rep = maximum_principle_check(sol, prob)
    assert rep["passed"]
    assert rep["min_interior"] == pytest.approx(rep["upper"], abs=1e-12)


def test_strict_interior_bounds_p3(p3_dec):
    sol = solve_spectral(p3_problem(p3_dec))
    assert 0.0 < sol.u[1] < 1.0


def test_strong_maximum_reports(p3_dec, grid44_dec):
    probs = [p3_problem(p3_dec)]
    f = np.zeros(16)
    f[0] = 1.0
    probs.append(interior_grid_problem(grid44_dec, f))
    for prob in probs:
        rep = strong_maximum_check(solve_spectral(prob), prob)
        assert rep["passed"]
        assert not rep["is_constant"]
        assert rep["margin"] > 0


def test_strong_maximum_constant_vacuous(p3_dec):
    prob = DirichletProblem(
        stiffness_matrix(p3_dec, 0.5), omega=np.array([False, True, False]), f=np.full(3, 5.0)
    )
    rep = strong_maximum_check(solve_spectral(prob), prob)
    assert rep["passed"] and rep["is_constant"]


def test_strong_maximum_dumbbell(dumbbell55_dec):
    # data 1 on part of one clique's complement portion, 0 elsewhere
    omega = np.zeros(10, bool)
    omega[:4] = True
    f = np.zeros(10)
    f[4] = 1.0
    prob = DirichletProblem(stiffness_matrix(dumbbell55_dec, 0.5), omega=omega, f=f)
    sol = solve_spectral(prob)
    assert np.all(sol.u[omega] < 1.0) and np.all(sol.u[omega] > 0.0)


# -- uniqueness


def test_uniqueness_p3_scalar_block(p3_dec):
    rep = uniqueness_check(p3_problem(p3_dec))
    k = stiffness_matrix(p3_dec, 0.5).stiffness
    assert rep["lambda_min"] == pytest.approx(k[1, 1], abs=1e-12)
    assert rep["passed"]


def test_uniqueness_single_point_complement(grid44_dec):
    omega = np.ones(16, bool)
    omega[0] = False
    prob = DirichletProblem(stiffness_matrix(grid44_dec, 0.5), omega=omega, f=np.zeros(16))
    assert uniqueness_check(prob)["lambda_min"] > 0


def test_checks_read_the_problems_decomposition(p3_dec, monkeypatch):
    # uniqueness_check and residual_check take the spectral data from the
    # problem's form instead of decomposing its space again
    import fraclap.dirichlet as dirichlet
    import fraclap.spectral as spectral

    calls = []

    def counting(space):
        calls.append(space)
        return p3_dec

    monkeypatch.setattr(spectral, "decompose", counting)
    monkeypatch.setattr(dirichlet, "decompose", counting, raising=False)
    prob = p3_problem(p3_dec)
    rep = uniqueness_check(prob)
    assert rep["passed"]
    assert residual_check(solve_spectral(prob), prob) <= 1e-12
    assert calls == []


# -- Harnack and oscillation diagnostics


def grid8_problem(theta=0.5, seed=0):
    sp = fixture("grid2d", nx=8)
    # interior 6x6, nonnegative data
    omega = grid_interior(sp)
    f = np.abs(np.random.default_rng(seed).standard_normal(sp.n))
    return sp, DirichletProblem(stiffness_matrix(decompose(sp), theta), omega=omega, f=f)


def test_harnack_constant_solution_quotient_one():
    sp = fixture("grid2d", nx=8)
    omega = grid_interior(sp)
    prob = DirichletProblem(stiffness_matrix(decompose(sp), 0.5), omega=omega, f=np.ones(sp.n))
    sol = solve_spectral(prob)
    center = int(np.argmin(sp.dist.max(axis=1)))  # deepest node
    assert harnack_quotient(sol, prob, center, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_harnack_scan_grid8():
    sp, prob = grid8_problem()
    sol = solve_spectral(prob)
    quotients = []
    for x in np.where(prob.omega)[0]:
        if prob.omega[sp.dist[x] <= 2.0].all():
            quotients.append(harnack_quotient(sol, prob, int(x), 1.0))
    assert quotients and all(1.0 <= q < np.inf for q in quotients)


def test_harnack_negative_solution_rejected():
    # nonpositive data gives a nonpositive solution (maximum principle)
    sp, prob = grid8_problem()
    prob = DirichletProblem(prob.form, prob.omega, -prob.f)
    sol = solve_spectral(prob)
    center = int(np.argmin(sp.dist.max(axis=1)))
    with pytest.raises(NegativeSolution, match="< 0"):
        harnack_quotient(sol, prob, center, 1.0)


def test_harnack_ball_not_inside(p3_dec):
    prob = p3_problem(p3_dec)
    sol = solve_spectral(prob)
    with pytest.raises(BallNotCompactlyInside):
        harnack_quotient(sol, prob, 1, 1.0)
    with pytest.raises(BallNotCompactlyInside, match=r"\[1\]"):
        harnack_quotient(sol, prob, np.array([1]), 1.0)


def test_holder_estimate_grid16():
    sp = fixture("grid2d", nx=16)
    omega = grid_interior(sp)
    f = np.random.default_rng(3).standard_normal(sp.n)
    prob = DirichletProblem(stiffness_matrix(decompose(sp), 0.5), omega=omega, f=f)
    sol = solve_spectral(prob)
    rep = holder_estimate(sol, prob)
    assert 0.0 < rep["alpha_fit"] <= 1.5
    assert np.isfinite(rep["r2"])


def test_holder_constant_sentinel(grid44_dec):
    prob = interior_grid_problem(grid44_dec, np.full(16, 2.0))
    sol = solve_spectral(prob)
    rep = holder_estimate(sol, prob)
    assert rep["alpha_fit"] == np.inf


def test_holder_insufficient_scales(k2_dec):
    prob = DirichletProblem(
        stiffness_matrix(k2_dec, 0.5), omega=np.array([True, False]), f=np.array([0.0, 1.0])
    )
    sol = solve_spectral(prob)
    with pytest.raises(InsufficientScales):
        holder_estimate(sol, prob)


# -- array code against the per-centre loops it replaced


def _all_but_last(space, k=2):
    omega = np.ones(space.n, dtype=bool)
    omega[-k:] = False
    return omega


def harnack_rows_loop(sol, problem, radius):
    """The CLI's per-centre admissibility filter and quotient."""
    space, omega = problem.space, problem.omega
    rows = []
    for x in np.where(omega)[0]:
        if omega[space.dist[x] <= 2.0 * radius].all():
            vals = np.clip(sol.u[space.dist[x] <= radius], 0.0, None)
            top, bottom = float(vals.max()), float(vals.min())
            rows.append((int(x), radius, float("inf") if bottom == 0.0 else top / bottom))
    return rows


@pytest.mark.parametrize("name", ["path8", "grid44", "dumbbell55", "weighted_grid34"])
def test_harnack_scan_matches_loop(name, request):
    from fraclap import cli

    sp = request.getfixturevalue(name)
    dec = decompose(sp)
    omega = _all_but_last(sp)
    f = np.abs(np.random.default_rng([0, 0]).standard_normal(sp.n))
    problem = DirichletProblem(stiffness_matrix(dec, 0.5), omega=omega, f=f)
    sol = solve_spectral(problem)
    ctx = {"space": sp, "dec": dec, "theta": 0.5, "seed": 0, "index": 0}
    ctx["form"] = lambda: problem.form  # the run's shared form at theta
    n_rows = 0
    for radius in (0.5, 1.0, 1.5, sp.diameter):  # the last admits no centre
        params = {"omega_mask": omega.tolist(), "radius": radius}
        metrics, _, tables = cli._exp_harnack_scan(ctx, params)
        loop = harnack_rows_loop(sol, problem, radius)
        assert tables["harnack_scan.csv"][1:] == loop
        assert metrics["n_balls"] == len(loop)
        assert metrics["max_quotient"] == max((q for _, _, q in loop), default=None)
        n_rows += len(loop)
    assert n_rows > 0


def holder_loop(sol, problem):
    """holder_estimate's centre x radius loop."""
    space = problem.space
    radii = []
    r = space.min_positive_distance()
    while r <= space.diameter:
        radii.append(r)
        r *= 2.0
    logs = []
    for x in np.where(problem.omega)[0]:
        for r in radii:
            ball = space.dist[x] <= r
            if problem.omega[ball].all():
                osc = float(np.ptp(sol.u[ball]))
                if osc > 0:
                    logs.append((np.log(r), np.log(osc)))
    if not logs:  # a constant solution: holder_estimate's sentinel
        return float("inf"), float("nan")
    lr, lo = np.array(logs).T
    slope, intercept = np.polyfit(lr, lo, 1)
    r2 = 1.0 - np.sum((lo - slope * lr - intercept) ** 2) / np.sum((lo - lo.mean()) ** 2)
    return slope, r2


def _dumbbell_ends(space):
    """The dumbbell's domain without its two far ends, the first and the last
    point: no automorphism swaps them and fixes the rest, so the solution is
    not constant on the domain, as it is with `_all_but_last`
    (`test_symmetric_complement_gives_constant_solution`)."""
    omega = np.ones(space.n, dtype=bool)
    omega[[0, -1]] = False
    return omega


def test_holder_estimate_matches_loop(path8, grid44, weighted_grid34, dumbbell43):
    cases = [(sp, _all_but_last(sp)) for sp in (path8, grid44, weighted_grid34)]
    for sp, omega in cases + [(dumbbell43, _dumbbell_ends(dumbbell43))]:
        f = np.random.default_rng(5).standard_normal(sp.n)
        problem = DirichletProblem(stiffness_matrix(decompose(sp), 0.25), omega=omega, f=f)
        sol = solve_spectral(problem)
        rep = holder_estimate(sol, problem)
        slope, r2 = holder_loop(sol, problem)
        assert rep["alpha_fit"] == pytest.approx(slope, rel=1e-13, abs=0.0)
        assert rep["r2"] == pytest.approx(r2, rel=1e-13, abs=0.0)


# -- properties


@given(seed=st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_max_principle_random_problems(seed):
    sp = fixture("path", n=6)
    rng = np.random.default_rng(seed)
    omega = np.zeros(6, bool)
    omega[rng.choice(6, size=rng.integers(1, 5), replace=False)] = True
    if omega.all():
        omega[0] = False
    prob = DirichletProblem(
        stiffness_matrix(decompose(sp), 0.5), omega=omega, f=rng.standard_normal(6)
    )
    sol = solve_spectral(prob)
    assert maximum_principle_check(sol, prob)["passed"]
