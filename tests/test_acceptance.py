"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Tolerances are pinned here, not configurable; the suite doubles as the
numerical contract of the package.
"""

import json
import time

import numpy as np
import pytest

from fraclap import (
    DirichletProblem,
    build_grid,
    comparability_report,
    decompose,
    default_ymax,
    dtn_apply,
    extension_energy_constant,
    fixture,
    frac_apply,
    heat_kernel,
    heat_kernel_series,
    maximum_principle_check,
    mode_energy_quadrature,
    poisson_extend,
    solve_extension,
    solve_spectral,
    stiffness_matrix,
    strong_maximum_check,
    subordination_check,
    uniqueness_check,
    vertical_modulus,
)
from fraclap.cli import main as cli_main
from fraclap.extension import codim_ball_check
from fraclap.space import interior_mask

THETAS = (0.25, 0.5, 0.75)

_lines = []


def report(criterion, ok, detail):
    line = f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}"
    _lines.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def fixtures():
    spaces = {
        "path8": fixture("path", n=8),
        "grid44": fixture("grid2d", nx=4),
        "dumbbell55": fixture("dumbbell", clique=5),
    }
    return {name: (sp, decompose(sp)) for name, (sp) in spaces.items()}


def interior(name, sp):
    mask = np.zeros(sp.n, dtype=bool)
    if name == "path8":
        mask[1:-1] = True
    elif name == "grid44":
        mask = interior_mask(sp, {"fixture": {"kind": "grid2d", "params": {"nx": 4}}})
    else:  # dumbbell: one clique minus its bridge vertex
        mask[:4] = True
    return mask


def test_criterion_1_heat_kernel_suite(fixtures):
    start = time.perf_counter()
    worst = {"markov": 0.0, "semigroup": 0.0}
    min_entry = np.inf
    for name, (sp, dec) in fixtures.items():
        for t in (0.01, 0.1, 1.0, 10.0):
            k = heat_kernel(dec, t)
            worst["markov"] = max(worst["markov"], np.max(np.abs(k @ sp.mu - 1.0)))
            assert np.array_equal(k, k.T), "symmetry must be exact"
            half = heat_kernel(dec, t / 2.0)
            comp = (half * sp.mu[None, :]) @ half.T
            worst["semigroup"] = max(worst["semigroup"], np.max(np.abs(comp - k)))
            # strict positivity, certified by the cancellation-free series route
            series = heat_kernel_series(sp, t)
            assert np.max(np.abs(series - k)) <= 1e-12
            min_entry = min(min_entry, series.min())
    elapsed = time.perf_counter() - start
    ok = (
        worst["markov"] <= 1e-10
        and worst["semigroup"] <= 1e-10
        and min_entry > 0.0
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"markov {worst['markov']:.2e}, semigroup {worst['semigroup']:.2e}, "
        f"min entry {min_entry:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_subordination_identity(fixtures):
    start = time.perf_counter()
    worst = 0.0
    for _, (sp, dec) in fixtures.items():
        for t in (0.1, 1.0):
            worst = max(worst, subordination_check(dec, t))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    report(2, ok, f"max quadrature gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_besov_comparability(fixtures):
    worst_spread_drift = 0.0
    for name, (sp, dec) in fixtures.items():
        for theta in THETAS:
            spreads = []
            for seed in (8, 9):  # fixed representative seed pair
                rng = np.random.default_rng(seed)
                family = [rng.standard_normal(sp.n) for _ in range(100)]
                rep = comparability_report(dec, theta, family)
                assert 0.0 < rep["ratio_min"] <= rep["ratio_max"] < np.inf
                spreads.append(rep["ratio_max"] / rep["ratio_min"])
            worst_spread_drift = max(
                worst_spread_drift, abs(spreads[0] - spreads[1]) / spreads[0]
            )
    # analytic check: K2 ratio is sqrt(2) at theta = 1/2
    k2 = fixture("path", n=2)
    rep = comparability_report(decompose(k2), 0.5, [np.array([1.0, -1.0])])
    k2_err = abs(rep["ratio_min"] - np.sqrt(2))
    ok = worst_spread_drift <= 0.05 and k2_err <= 1e-12
    report(3, ok, f"spread drift {worst_spread_drift:.3f} <= 5%, K2 ratio err {k2_err:.1e}")


def test_criterion_4_per_mode_energy_identity():
    start = time.perf_counter()
    worst = 0.0
    for theta in THETAS:
        const = extension_energy_constant(theta)
        for lam in (0.5, 1.0, 2.0):
            got = mode_energy_quadrature(lam, theta)
            worst = max(worst, abs(got - const * lam**theta))
    exact_err = abs(mode_energy_quadrature(1.0, 0.5) - 1.0)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and exact_err <= 1e-8 and elapsed < 10.0
    report(4, ok, f"lattice err {worst:.2e}, exact case err {exact_err:.2e}, {elapsed:.2f}s")


def test_criterion_5_dtn_convergence(fixtures):
    sp, dec = fixtures["path8"]
    rng = np.random.default_rng(3)
    f = rng.standard_normal(sp.n)
    ymax = default_ymax(dec)
    worst_slope, worst_rel = np.inf, 0.0
    for theta in THETAS:
        target = frac_apply(dec, theta, f)
        scale = np.max(np.abs(target))
        y1s, errs = [], []
        for m in (8, 10, 12, 14, 16):  # four successive geometric refinements
            grid = build_grid(theta, ymax, m)
            u = poisson_extend(dec, f, grid)
            y1s.append(grid.ys[1])
            errs.append(np.max(np.abs(dtn_apply(u) - target)))
        assert all(a > b for a, b in zip(errs, errs[1:])), "errors must decrease"
        slope = np.polyfit(np.log(y1s), np.log(errs), 1)[0]
        worst_slope = min(worst_slope, slope)
        worst_rel = max(worst_rel, errs[-1] / scale)
    ok = worst_slope >= 0.9 and worst_rel <= 1e-2
    report(5, ok, f"min slope {worst_slope:.2f}, finest rel err {worst_rel:.2e}")


def _route_refined_grid(theta, ymax, level, m0=16):
    """True mesh refinement for the product-grid solve: each level subdivides
    every cell (ratio -> sqrt(ratio)) and deepens the boundary stack so the
    singular-layer error keeps pace with the bulk (the layer varies like
    y^(2 theta), so shallow theta needs faster deepening)."""
    ratio = 0.5 ** (1.0 / 2**level)
    depth_rate = max(1.0, 1.0 / (2.0 * theta))
    y1_target = ymax * 0.5 ** (m0 - 1) * 0.5 ** (level * depth_rate)
    m = int(np.ceil(1 + np.log(ymax / y1_target) / np.log(1.0 / ratio)))
    return build_grid(theta, ymax, m, ratio=ratio)


def test_criterion_6_route_agreement(fixtures):
    start = time.perf_counter()
    worst_gap_ratio = 0.0
    worst_slope = np.inf
    for name in ("path8", "grid44"):
        sp, dec = fixtures[name]
        omega = interior(name, sp)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(sp.n)
        ymax = default_ymax(dec)
        for theta in THETAS:
            prob = DirichletProblem(stiffness_matrix(dec, theta), omega=omega, f=f)
            spectral = solve_spectral(prob)
            ext = solve_extension(prob, build_grid(theta, ymax, 128))
            gap = np.max(np.abs(spectral.u - ext.u))
            worst_gap_ratio = max(worst_gap_ratio, gap / prob.data_oscillation)
            # contraction under mesh refinement of the product grid
            hs, gaps = [], []
            for level in range(4):
                grid = _route_refined_grid(theta, ymax, level)
                ext = solve_extension(prob, grid)
                hs.append(np.max(np.diff(grid.ys)))
                gaps.append(np.max(np.abs(spectral.u - ext.u)))
            # below the floor the order of two gaps is roundoff
            floor = 1e-12 * prob.data_oscillation
            assert all(b < a or b <= floor for a, b in zip(gaps, gaps[1:])), (
                f"{name} theta={theta}: {gaps}"
            )
            if theta == 0.5:
                assert gaps[-1] <= floor, f"{name} theta=1/2: finest gap {gaps[-1]:.2e}"
            slope = np.polyfit(np.log(hs), np.log(gaps), 1)[0]
            worst_slope = min(worst_slope, slope)
    elapsed = time.perf_counter() - start
    ok = worst_gap_ratio <= 1e-2 and worst_slope >= 0.9 and elapsed < 60.0
    report(
        6,
        ok,
        f"max gap/osc {worst_gap_ratio:.2e} at default grid, min contraction "
        f"slope {worst_slope:.2f}, {elapsed:.1f}s",
    )


def test_criterion_7_existence_uniqueness_minimality(fixtures):
    worst_lambda_min = np.inf
    worst_violation = 0.0
    worst_residual = 0.0
    for name, (sp, dec) in fixtures.items():
        masks = [interior(name, sp)]
        single = np.ones(sp.n, dtype=bool)
        single[0] = False
        masks.append(single)  # complement a single vertex
        for theta in THETAS:
            form = stiffness_matrix(dec, theta)
            for omega in masks:
                rng = np.random.default_rng(42)
                f = rng.standard_normal(sp.n)
                prob = DirichletProblem(form, omega=omega, f=f)
                rep = uniqueness_check(prob)
                worst_lambda_min = min(worst_lambda_min, rep["lambda_min"])
                sol = solve_spectral(prob)
                scale = max(1.0, sol.energy)
                for _ in range(100):
                    h = sol.u.copy()
                    h[omega] += rng.standard_normal(int(omega.sum()))
                    gap = form.energy(h) - sol.energy
                    worst_violation = max(worst_violation, -gap / scale)
                res_scale = np.linalg.norm(form.stiffness) * max(np.linalg.norm(sol.u), 1e-30)
                worst_residual = max(worst_residual, sol.residual / res_scale)
    ok = worst_lambda_min > 0 and worst_violation <= 1e-12 and worst_residual <= 1e-9
    report(
        7,
        ok,
        f"min Schur eigenvalue {worst_lambda_min:.2e}, worst competitor violation "
        f"{worst_violation:.1e}, scaled residual {worst_residual:.1e}",
    )


def test_criterion_8_maximum_principles(fixtures):
    failures = 0
    strong_failures = 0
    n_problems = 0
    for name in ("grid44", "dumbbell55"):
        sp, dec = fixtures[name]
        omega = interior(name, sp)
        form = stiffness_matrix(dec, 0.5)
        for seed in range(100):
            f = np.random.default_rng([seed, sp.n]).standard_normal(sp.n)
            prob = DirichletProblem(form, omega=omega, f=f)
            sol = solve_spectral(prob)
            if not maximum_principle_check(sol, prob)["passed"]:
                failures += 1
            rep = strong_maximum_check(sol, prob)
            if not (rep["passed"] and not rep["is_constant"] and rep["margin"] > 0):
                strong_failures += 1
            n_problems += 1
    ok = failures == 0 and strong_failures == 0
    report(8, ok, f"{n_problems} problems, {failures} bound / {strong_failures} strictness failures")


def test_criterion_9_modulus_formula(fixtures):
    sp, _ = fixtures["path8"]
    subset = np.ones(sp.n, dtype=bool)
    mass = sp.total_mass
    worst = 0.0
    bracket_ok = True
    for theta, a in ((0.75, -0.5), (0.5, 0.0), (0.25, 0.5)):
        for h in (0.5, 1.0, 2.0):
            vals = []
            for m in (2048, 4096, 8192, 16384):
                grid = build_grid(theta, h, m, layout="uniform")
                out = vertical_modulus(sp, subset, h, grid)
                vals.append(out["numeric"])
                lower = mass * (1 - a) / h ** (1 - a)
                upper = mass / ((1 + a) * h ** (1 - a))
                if not (lower - 1e-12 <= out["numeric"] <= upper + 1e-12):
                    bracket_ok = False
            limit = _richardson(vals, [1 - a, min(2.0, 2 - 2 * a)])
            worst = max(worst, abs(limit - mass * (1 - a) / h ** (1 - a)))
    ok = worst <= 1e-6 and bracket_ok
    report(9, ok, f"extrapolated limit err {worst:.2e}, all values inside bracket: {bracket_ok}")


def _richardson(vals, exponents):
    vals = list(map(float, vals))
    for p in exponents:
        r = 2.0**p
        if abs(r - 1.0) < 1e-12:
            continue
        vals = [(r * b - a) / (r - 1.0) for a, b in zip(vals[:-1], vals[1:])]
    return vals[-1]


def test_criterion_10_codimension_identity(fixtures):
    worst = 0.0
    for _, (sp, dec) in fixtures.items():
        for theta in (0.75, 0.5, 0.25):  # a in {-1/2, 0, 1/2}
            grid = build_grid(theta, sp.diameter + 1.0, 32)
            for x in range(sp.n):
                for r in (0.3, 1.0, 0.5 * sp.diameter, float(sp.diameter)):
                    out = codim_ball_check(sp, grid, x, r)
                    scale = max(1.0, abs(out["rhs"]))
                    worst = max(worst, abs(out["lhs"] - out["rhs"]) / scale)
    ok = worst <= 1e-12
    report(10, ok, f"max scaled lhs-rhs gap {worst:.2e}")


def test_criterion_11_cli_determinism(tmp_path):
    import pathlib

    config = pathlib.Path(__file__).resolve().parent.parent / "configs" / "default.json"
    blobs = []
    for sub in ("run_a", "run_b"):
        out = tmp_path / sub
        code = cli_main(["run", "--config", str(config), "--out", str(out)])
        assert code == 0, "default config must pass end to end"
        obj = json.loads((out / "report.json").read_text())
        del obj["metadata"]
        blobs.append(json.dumps(obj, sort_keys=True))
    ok = blobs[0] == blobs[1]
    report(11, ok, "two seeded runs byte-identical modulo metadata")


def teardown_module(module):
    print()
    for line in _lines:
        print(line)
