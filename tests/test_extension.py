import math

import numpy as np
import pytest
from scipy.special import gamma, kve

from fraclap import (
    build_grid,
    codim_ball_check,
    default_ymax,
    dtn_apply,
    dtn_constant,
    extension_energy_constant,
    frac_apply,
    mode_energy_quadrature,
    mode_profile,
    mode_profile_derivative,
    poisson_extend,
    vertical_modulus,
)
from fraclap.errors import (
    DegenerateFirstCell,
    EmptySubset,
    InvalidParams,
    RadiusExceedsGrid,
)
from fraclap.extension import _KVE_FLOOR

import oracles
from oracles import mode_profile_quadrature, profile_normalization_quadrature


# -- grid


def test_grid_unweighted_case_weights_are_lengths():
    grid = build_grid(0.5, 4.0, 8, layout="uniform")
    assert np.allclose(grid.cellweights, np.diff(grid.ys), atol=1e-15)


def test_grid_weight_sum_identity():
    # sum of exact cell weights telescopes to Ymax^(1+a)/(1+a)
    for theta, ymax in ((0.25, 3.0), (0.75, 7.5)):
        grid = build_grid(theta, ymax, 32)
        a = 1 - 2 * theta
        assert grid.cellweights.sum() == pytest.approx(
            ymax ** (1 + a) / (1 + a), rel=1e-12
        )
        assert grid.a == a


def test_grid_minimum_resolution():
    with pytest.raises(InvalidParams):
        build_grid(0.5, 1.0, 4)


def test_grid_geometric_clusters_at_zero():
    grid = build_grid(0.5, 8.0, 16)
    assert grid.ys[0] == 0.0
    assert grid.ys[1] == pytest.approx(8.0 * 0.5**15)
    assert np.all(np.diff(grid.ys) > 0)


# -- mode profile


def test_profile_normalization_matches_closed_form():
    # 1/C_a computed by quadrature against 4^theta Gamma(theta)
    for theta in (0.25, 0.5, 0.75):
        a = 1 - 2 * theta
        got = profile_normalization_quadrature(a)
        assert got == pytest.approx(4.0**theta * gamma(theta), rel=1e-9)


def test_profile_zero_frequency_is_one():
    for y in (0.0, 0.3, 10.0):
        assert mode_profile(0.0, 0.4, y) == 1.0


def test_profile_boundary_value_is_one():
    assert mode_profile(3.0, 0.25, 0.0) == 1.0


def test_profile_halfpower_is_exponential():
    for y in (0.1, 1.0, 4.0):
        assert mode_profile(1.0, 0.5, y) == pytest.approx(np.exp(-y), abs=1e-8)
        assert mode_profile_derivative(1.0, 0.5, y) == pytest.approx(-np.exp(-y), abs=1e-8)


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_profile_quadrature_oracle(theta, lam, monkeypatch):
    # production values against the kernel-integral quadrature at two
    # budgets: the fixed one, and one ten times stricter
    ys = (0.05, 0.7, 3.0)
    coarse = [mode_profile_quadrature(lam, theta, y) for y in ys]
    profile_normalization_quadrature.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(oracles, "QUAD_ABS_TOL", oracles.QUAD_ABS_TOL / 10.0)
        m.setattr(oracles, "QUAD_REL_TOL", oracles.QUAD_REL_TOL / 10.0)
        m.setattr(oracles, "QUAD_LIMIT", 2 * oracles.QUAD_LIMIT)
        try:
            fine = [mode_profile_quadrature(lam, theta, y) for y in ys]
        finally:
            profile_normalization_quadrature.cache_clear()
    for y, c, f in zip(ys, coarse, fine):
        production = mode_profile(lam, theta, y)
        assert abs(c - f) <= 1e-7
        assert production == pytest.approx(f, abs=1e-7)


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
def test_profile_on_arrays_matches_scalar_loop(theta):
    # the array call broadcasts lam against y and must reproduce every scalar
    # call bit for bit, zero frequency and the y = 0 row included
    lams = np.array([0.0, 1e-6, 0.5, 1.7, 40.0])
    ys = np.concatenate([[0.0], np.geomspace(1e-9, 30.0, 25)])
    g = mode_profile(lams[:, None], theta, ys[None, :])
    dg = mode_profile_derivative(lams[:, None], theta, ys[None, 1:])
    assert g.shape == (5, 26) and dg.shape == (5, 25)
    for i, lam in enumerate(lams):
        for j, y in enumerate(ys):
            scalar = mode_profile(lam, theta, y)
            assert type(scalar) is float and scalar == g[i, j]
            if j:
                assert mode_profile_derivative(lam, theta, y) == dg[i, j - 1]


def test_profile_monotone_and_bounded():
    ys = np.linspace(0.0, 6.0, 40)
    for theta in (0.25, 0.75):
        vals = [mode_profile(1.7, theta, y) for y in ys]
        assert all(0 < v <= 1 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("y", [1e-300, 1e-308, 1e-320])
@pytest.mark.parametrize("theta", [0.01, 0.25, 0.5, 0.75, 0.99])
def test_profile_at_tiny_y_is_its_expansion(theta, y):
    # g = 1 - C y^(2 theta) and dg = lam y / (2 - 2 theta) - 2 theta C
    # y^(2 theta - 1) at y -> 0, finite where scipy's kve is not
    lam = 1.0
    c = math.gamma(1 - theta) / math.gamma(1 + theta) * (lam / 4) ** theta
    g = mode_profile(lam, theta, y)
    assert math.isfinite(g) and g == pytest.approx(1 - c * y ** (2 * theta), rel=1e-13)
    dg = mode_profile_derivative(lam, theta, y)
    try:
        slope = lam * y / (2 - 2 * theta) - 2 * theta * c * y ** (2 * theta - 1)
    except OverflowError:
        # about -8e311 at theta = 0.01, y = 1e-320: no double holds it
        assert (theta, y) == (0.01, 1e-320) and dg == -math.inf
        return
    assert math.isfinite(dg) and dg == pytest.approx(slope, rel=1e-13)


@pytest.mark.parametrize("theta", [0.001, 0.01, 0.25, 0.5, 0.75, 0.99, 0.999])
def test_profile_expansion_meets_bessel_route_at_the_floor(theta):
    # at _KVE_FLOOR kve is finite, one double below it is inf; the Bessel
    # route above and the expansion below agree to roundoff, the slope's
    # regular term lam y / (2 - 2 theta) included (a third of it at 0.999)
    above, below = _KVE_FLOOR, np.nextafter(_KVE_FLOOR, 0.0)
    assert np.isfinite(kve(theta, above)) and np.isinf(kve(theta, below))
    for lam in (1.0, 1e-4):
        y_above, y_below = above / math.sqrt(lam), below / math.sqrt(lam)
        for f in (mode_profile, mode_profile_derivative):
            assert f(lam, theta, y_below) == pytest.approx(f(lam, theta, y_above), rel=1e-13)


# -- poisson extension


def test_extend_constant_stays_constant(p3, p3_dec):
    grid = build_grid(0.5, 10.0, 16)
    u = poisson_extend(p3_dec, np.full(3, 2.5), grid)
    assert np.allclose(u.values, 2.5, atol=1e-12)


def test_extend_k2_single_mode_profile(k2, k2_dec):
    grid = build_grid(0.5, 13.0, 32)
    u = poisson_extend(k2_dec, np.array([1.0, -1.0]), grid)
    for j in (0, 5, 20, 32):
        y = grid.ys[j]
        assert u.values[0, j] == pytest.approx(np.exp(-np.sqrt(2) * y), abs=1e-9)
        assert u.values[1, j] == pytest.approx(-np.exp(-np.sqrt(2) * y), abs=1e-9)


def test_extend_boundary_row_exact(path8, path8_dec):
    f = np.random.default_rng(1).standard_normal(8)
    grid = build_grid(0.3, 20.0, 16)
    u = poisson_extend(path8_dec, f, grid)
    assert np.array_equal(u.values[:, 0], f)


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
def test_extend_finite_on_a_subnormal_first_node(path8_dec, theta):
    # at m = 1074 the first geometric node is about 5e-322, far below the z
    # where kve overflows: the rows near the boundary are the data
    f = np.random.default_rng(2).standard_normal(8)
    grid = build_grid(theta, default_ymax(path8_dec), 1074)
    assert 0 < grid.ys[1] < 1e-320
    u = poisson_extend(path8_dec, f, grid)
    assert np.isfinite(u.values).all()
    assert np.allclose(u.values[:, 1], f, rtol=0, atol=1e-12)


def test_extend_reads_theta_from_grid(path8_dec):
    # the exponent of the profiles is the one the grid was built for
    f = np.random.default_rng(2).standard_normal(8)
    coeffs = path8_dec.coefficients(f)
    for theta in (0.25, 0.75):
        grid = build_grid(theta, 10.0, 16)
        u = poisson_extend(path8_dec, f, grid)
        for j in (1, 8, 16):
            profiles = mode_profile(path8_dec.lambdas, theta, grid.ys[j])
            assert np.allclose(u.values[:, j], path8_dec.phis @ (coeffs * profiles), atol=1e-13)


def test_extend_first_row_l2_convergence(path8, path8_dec):
    # || u(., y_1) - f || -> 0 as the first node drops toward the boundary
    f = np.random.default_rng(5).standard_normal(8)
    errs = []
    for m in (8, 12, 16):
        grid = build_grid(0.5, 10.0, m)
        u = poisson_extend(path8_dec, f, grid)
        errs.append(np.sqrt(np.sum((u.values[:, 1] - f) ** 2 * path8.mu)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-3 * np.sqrt(np.sum(f**2 * path8.mu))


# -- weighted normal derivative


def test_dtn_constant_values():
    assert dtn_constant(0.5) == pytest.approx(1.0, abs=1e-15)
    # reciprocal pairing with the energy constant
    for theta in (0.25, 0.5, 0.75):
        assert dtn_constant(theta) * extension_energy_constant(theta) == pytest.approx(
            1.0, abs=1e-14
        )
    assert dtn_constant(0.25) == pytest.approx(
        2.0 ** (-0.5) * gamma(0.25) / gamma(0.75), abs=1e-14
    )


def test_dtn_k2_analytic_limit(k2_dec):
    f = np.array([1.0, -1.0])
    grid = build_grid(0.5, 13.0, 24)
    u = poisson_extend(k2_dec, f, grid)
    assert np.allclose(dtn_apply(u), np.sqrt(2) * f, atol=1e-6)


def test_dtn_constant_data_gives_zero(p3_dec):
    grid = build_grid(0.5, 10.0, 16)
    u = poisson_extend(p3_dec, np.full(3, 4.0), grid)
    # roundoff in the spectral synthesis is amplified by the boundary quotient
    assert np.allclose(dtn_apply(u), 0.0, atol=1e-10 * 4.0)


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
def test_dtn_converges_with_order_at_least_one(path8, path8_dec, theta):
    f = np.random.default_rng(3).standard_normal(8)
    target = frac_apply(path8_dec, theta, f)
    ymax = default_ymax(path8_dec)
    y1s, errs = [], []
    for m in (8, 10, 12, 14):
        grid = build_grid(theta, ymax, m)
        u = poisson_extend(path8_dec, f, grid)
        y1s.append(grid.ys[1])
        errs.append(np.max(np.abs(dtn_apply(u) - target)))
    slope = np.polyfit(np.log(y1s), np.log(errs), 1)[0]
    assert slope >= 0.9


def test_dtn_rejects_unresolvable_first_cell(k2_dec):
    grid = build_grid(0.25, 13.0, 128)  # y_1 ~ 1e-36: below double resolution
    u = poisson_extend(k2_dec, np.array([1.0, -1.0]), grid)
    with pytest.raises(DegenerateFirstCell):
        dtn_apply(u)


# -- extension energy


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_per_mode_energy_identity(theta, lam):
    got = mode_energy_quadrature(lam, theta)
    assert isinstance(got, float)
    assert got == pytest.approx(extension_energy_constant(theta) * lam**theta, abs=1e-13)


ENERGY_THETAS = [1e-6, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999999]


@pytest.mark.parametrize("theta", ENERGY_THETAS)
def test_per_mode_energy_relative_error_across_theta(theta):
    # one lam per call; measured worst 2.9e-11 (theta = 1e-6, lam = 1e-3)
    # over the whole grid, and 1.7e-13 for theta in [0.05, 0.999]
    bound = 1e-12 if 0.05 <= theta <= 0.999 else 1e-10
    for lam in (1e-3, 0.5, 1.0, 2.0, 1e3):
        exact = extension_energy_constant(theta) * lam**theta
        assert abs(mode_energy_quadrature(lam, theta) - exact) <= bound * exact


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
def test_per_mode_energy_vector_call(theta):
    # energy_identity's three lam in one call; measured 8.3e-15, 1.5e-14 and
    # 2.6e-14 at theta = 1/4, 1/2, 3/4
    lams = np.array([0.5, 1.0, 2.0])
    got = mode_energy_quadrature(lams, theta)
    assert got.shape == lams.shape
    assert np.max(np.abs(got - extension_energy_constant(theta) * lams**theta)) <= 1e-13


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75, 0.95])
def test_per_mode_energy_relative_error_near_zero(theta):
    # the integrand of each lam is scaled by lam^theta, so its budget is
    # relative: measured at most 2.3e-14 alone and 6.7e-15 in the mixed
    # call, where an absolute budget read 4.3e-5 at theta = 3/4, lam = 1e-10
    # and 1.4e-6 in the mixed call at theta = 0.95
    const = extension_energy_constant(theta)
    for lam in (1e-14, 1e-10, 1e-6):
        exact = const * lam**theta
        assert abs(mode_energy_quadrature(lam, theta) - exact) <= 1e-12 * exact
    lams = np.logspace(-3, 3, 7)
    exact = const * lams**theta
    assert np.max(np.abs(mode_energy_quadrature(lams, theta) - exact) / exact) <= 1e-12


def test_per_mode_energy_exact_case():
    # theta = 1/2, lam = 1: g = e^-y and the integral is exactly 1
    assert mode_energy_quadrature(1.0, 0.5) == pytest.approx(1.0, abs=1e-8)


# -- vertical modulus


def test_modulus_unweighted_uniform_grid_exact(p3):
    grid = build_grid(0.5, 2.0, 16, layout="uniform")
    out = vertical_modulus(p3, np.ones(3, dtype=bool), 1.0, grid)
    assert out["numeric"] == pytest.approx(3.0, rel=1e-12)
    assert out["exact"] == pytest.approx(3.0, rel=1e-12)


def test_modulus_quarter_power_closed_form(k2):
    # a = 1/2, mu(A) = 1 column, h = 1: exact = (1 - a) = 1/2
    grid = build_grid(0.25, 1.0, 4096, layout="uniform")
    out = vertical_modulus(k2, [0], 1.0, grid)
    assert out["exact"] == pytest.approx(0.5, abs=1e-14)
    assert out["numeric"] >= out["exact"]


def test_modulus_closed_form_column_identity(p3):
    # the numeric value IS mu(A) / sum(dy^2 / w): recompute independently
    theta = 0.75
    grid = build_grid(theta, 1.0, 64, layout="uniform")
    out = vertical_modulus(p3, [0, 2], 1.0, grid)
    resistance = float(np.sum(np.diff(grid.ys) ** 2 / grid.cellweights))
    assert out["numeric"] == pytest.approx(2.0 / resistance, rel=1e-14)


@pytest.mark.parametrize("theta,a", [(0.75, -0.5), (0.5, 0.0), (0.25, 0.5)])
def test_modulus_refinement_limit(p3, theta, a):
    h = 1.5
    vals = []
    for m in (2048, 4096, 8192, 16384):
        grid = build_grid(theta, h, m, layout="uniform")
        vals.append(vertical_modulus(p3, np.ones(3, dtype=bool), h, grid)["numeric"])
    exact = 3.0 * (1 - a) / h ** (1 - a)
    upper = 3.0 / ((1 + a) * h ** (1 - a))
    # within the bracket at every resolution, and extrapolating to the optimum
    for v in vals:
        assert exact - 1e-12 <= v <= upper + 1e-12
    limit = _richardson(vals, [1 - a, min(2.0, 2 - 2 * a)])
    assert limit == pytest.approx(exact, abs=1e-6)


def _richardson(vals, exponents):
    vals = list(map(float, vals))
    for p in exponents:
        r = 2.0**p
        if abs(r - 1.0) < 1e-12:
            continue
        vals = [(r * b - a) / (r - 1.0) for a, b in zip(vals[:-1], vals[1:])]
    return vals[-1]


def test_modulus_empty_subset(p3):
    grid = build_grid(0.5, 1.0, 16, layout="uniform")
    with pytest.raises(EmptySubset):
        vertical_modulus(p3, np.zeros(3, dtype=bool), 1.0, grid)


def test_modulus_height_exceeding_grid(p3):
    grid = build_grid(0.5, 1.0, 16, layout="uniform")
    with pytest.raises(RadiusExceedsGrid):
        vertical_modulus(p3, [0], 2.0, grid)


# -- co-dimension identity


def test_codim_k2_hand_values(k2):
    out = codim_ball_check(k2, build_grid(0.5, 2.0, 16), 0, 1.0)
    assert out["lhs"] == pytest.approx(2.0, abs=1e-14)
    assert out["rhs"] == pytest.approx(2.0, abs=1e-14)
    out = codim_ball_check(k2, build_grid(0.25, 2.0, 16), 0, 1.0)
    assert out["rhs"] == pytest.approx(4.0 / 3.0, abs=1e-14)


def test_codim_exact_agreement_sampled(path8, grid44):
    for sp in (path8, grid44):
        for theta in (0.25, 0.5, 0.75):
            grid = build_grid(theta, sp.diameter + 1.0, 32)
            for x in range(0, sp.n, 3):
                for r in (0.25, 1.0, float(sp.diameter)):
                    out = codim_ball_check(sp, grid, x, r)
                    scale = max(1.0, abs(out["rhs"]))
                    assert abs(out["lhs"] - out["rhs"]) <= 1e-12 * scale


def test_codim_small_radius_vanishes(k2):
    grid = build_grid(0.5, 2.0, 16)
    out = codim_ball_check(k2, grid, 0, 1e-9)
    assert out["lhs"] == pytest.approx(0.0, abs=1e-9)
    assert out["rhs"] == pytest.approx(0.0, abs=1e-9)


def test_codim_radius_guard(k2):
    grid = build_grid(0.5, 2.0, 16)
    with pytest.raises(RadiusExceedsGrid):
        codim_ball_check(k2, grid, 0, 3.0)
    with pytest.raises(RadiusExceedsGrid):
        codim_ball_check(k2, grid, 0, 0.0)


# -- trace


def test_trace_returns_boundary_exactly(path8, path8_dec):
    f = np.random.default_rng(9).standard_normal(8)
    grid = build_grid(0.5, 10.0, 16)
    u = poisson_extend(path8_dec, f, grid)
    assert np.array_equal(u.values[:, 0], f)


# -- array code against the per-cell and per-centre loops it replaced


def clipped_cells_loop(grid, r):
    cells = []
    for j in range(grid.m):
        lo, hi = grid.ys[j], min(grid.ys[j + 1], r)
        if hi <= lo:
            break
        cells.append((lo, hi))
    return cells


def assert_rel_close(actual, expected, rel=1e-13):
    expected = np.asarray(expected, dtype=float)
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("layout", ["uniform", "geometric"])
def test_cell_sums_match_loops(path8, grid44, dumbbell55, weighted_grid34, theta, layout):
    grid = build_grid(theta, 4.0, 16, layout=layout)
    # radii between nodes, on a node, and at the top of the grid
    for r in (grid.ys[1] / 3, 0.3, grid.ys[5], 1.7, 4.0):
        cells = clipped_cells_loop(grid, r)
        height = sum(grid.weight_integral(lo, hi) for lo, hi in cells)
        resistance = sum((hi - lo) ** 2 / grid.weight_integral(lo, hi) for lo, hi in cells)
        for sp in (path8, grid44, dumbbell55, weighted_grid34):
            out = codim_ball_check(sp, grid, np.arange(sp.n), r)
            mass = np.array([sp.mu[sp.dist[x] <= r].sum() for x in range(sp.n)])
            assert_rel_close(out["lhs"], mass * height)
            numeric = vertical_modulus(sp, np.ones(sp.n, dtype=bool), r, grid)["numeric"]
            assert numeric == pytest.approx(sp.total_mass / resistance, rel=1e-13, abs=0.0)
    centroids = [
        grid.weight_first_moment(lo, hi) / w
        for (lo, hi), w in zip(clipped_cells_loop(grid, grid.Ymax), grid.cellweights)
    ]
    assert_rel_close(grid.cell_centroids(), centroids)


def test_codim_scalar_centre_gives_floats(grid44):
    grid = build_grid(0.25, 4.0, 16)
    out = codim_ball_check(grid44, grid, 5, 1.5)
    assert type(out["lhs"]) is float and type(out["rhs"]) is float
    both = codim_ball_check(grid44, grid, np.array([5, 6]), 1.5)
    assert both["lhs"][0] == out["lhs"] and both["rhs"][0] == out["rhs"]


def test_codim_check_rows_match_loop(grid44, weighted_grid34):
    # the CLI's centre x radius loop over the per-cell sums, at the kind's
    # fixed radii and grid
    from fraclap import cli

    rs, a = [0.25, 0.5, 1.0], 0.5
    grid = build_grid(0.25, 1.0, 64)
    for sp in (grid44, weighted_grid34):
        _, passed, tables = cli._exp_codim_check({"space": sp, "theta": 0.25}, {})
        keys, lhs, rhs = [], [], []
        for x in range(sp.n):
            for r in rs:
                mass = sp.mu[sp.dist[x] <= r].sum()
                cells = clipped_cells_loop(grid, r)
                keys.append((x, r))
                lhs.append(mass * sum(grid.weight_integral(lo, hi) for lo, hi in cells))
                rhs.append(r ** (1 + a) / (1 + a) * mass)
        rows = tables["codim_check.csv"][1:]
        assert [row[:2] for row in rows] == keys
        assert_rel_close(np.array([row[2] for row in rows]), lhs)
        assert_rel_close(np.array([row[3] for row in rows]), rhs)
        assert passed
