import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.sparse import csr_array
from scipy.sparse.csgraph import shortest_path

from fraclap import (
    build_space,
    decompose,
    fixture,
    frac_apply,
    heat_kernel,
    heat_kernel_log_bound,
    heat_kernel_series,
    subordination_check,
)
from fraclap import spectral
from fraclap.energy import stiffness_matrix
from fraclap.errors import (
    DimensionMismatch,
    EigensolverNoConvergence,
    NonpositiveTime,
    SeriesTimeTooLarge,
    ThetaOutOfRange,
)
from fraclap.quadrature import integrate_halfline
from fraclap.space import _hop_counts
from fraclap.spectral import _fix_signs, inverse_gaussian_density, spectral_power_apply

from conftest import gemm_symmetrized, random_vector, rel_gap
from oracles import dirichlet_form, laplacian_apply, path_modes


# -- Laplacian


def test_laplacian_k2_hand_value(k2):
    # Delta f(0) = c(0,1) (f(1) - f(0)) / mu(0) = -2
    assert np.allclose(laplacian_apply(k2, [1.0, -1.0]), [-2.0, 2.0])


def test_laplacian_p3_hand_value(p3):
    assert np.allclose(laplacian_apply(p3, [0.0, 1.0, 0.0]), [1.0, -2.0, 1.0])


def test_laplacian_kills_constants(path8, grid44, dumbbell55):
    for sp in (path8, grid44, dumbbell55):
        assert np.allclose(laplacian_apply(sp, np.full(sp.n, 3.7)), 0.0, atol=1e-12)


def _weighted_inline_space():
    """Inline 4x5 grid with random conductances and masses, so the stiffness
    entries carry rounding."""
    grid = fixture("grid2d", nx=4, ny=5)
    rng = np.random.default_rng(11)
    weights = np.triu(rng.uniform(0.1, 7.0, (grid.n, grid.n)), 1)
    cond = grid.graph.toarray() * (weights + weights.T)
    return build_space(grid.dist, rng.uniform(0.2, 5.0, grid.n), cond)


@pytest.mark.parametrize("name", ["path8", "grid44", "dumbbell55", "rgg60", "weighted_inline"])
def test_stiffness_apply_matches_dense_stiffness(name, request):
    if name == "rgg60":
        space = fixture("random_geometric", n=60, radius=0.3, seed=2)
    elif name == "weighted_inline":
        space = _weighted_inline_space()
    else:
        space = request.getfixturevalue(name)
    dense = spectral.graph_stiffness(space)
    cond = space.graph.toarray()  # the weighted degrees summed densely
    assert rel_gap(dense, np.diag(cond.sum(axis=1)) - cond) <= 1e-15
    rows = np.random.default_rng(0).standard_normal((space.n, 7))
    assert rel_gap(spectral._stiffness_apply(space, rows), dense @ rows) <= 1e-14
    assert rel_gap(spectral._stiffness_apply(space, rows[:, 0]), dense @ rows[:, 0]) <= 1e-14


def test_laplacian_dimension_mismatch(p3):
    with pytest.raises(DimensionMismatch):
        laplacian_apply(p3, [1.0, 2.0])


def test_coefficients_of_columns_match_vectors(grid44_dec):
    cols = np.random.default_rng(1).standard_normal((16, 3))
    coeffs = grid44_dec.coefficients(cols)
    assert coeffs.shape == (16, 3)
    for j in range(3):
        assert np.allclose(coeffs[:, j], grid44_dec.coefficients(cols[:, j]), rtol=0, atol=1e-14)


@pytest.mark.parametrize("shape", [(), (17,), (16, 3, 2), (17, 3)])
def test_coefficients_shape_mismatch(grid44_dec, shape):
    with pytest.raises(DimensionMismatch):
        grid44_dec.coefficients(np.zeros(shape))


@given(seed=st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_laplacian_duality_with_dirichlet_form(seed):
    sp = fixture("path", n=6)
    rng = np.random.default_rng(seed)
    f, v = rng.standard_normal(sp.n), rng.standard_normal(sp.n)
    lhs = float(np.sum(v * laplacian_apply(sp, f) * sp.mu))
    assert lhs == pytest.approx(-dirichlet_form(sp, v, f), abs=1e-10)


# -- decomposition


def test_decompose_k2(k2_dec):
    assert np.allclose(k2_dec.lambdas, [0.0, 2.0], atol=1e-12)
    s = 1 / np.sqrt(2)
    assert np.allclose(k2_dec.phis[:, 0], [s, s], atol=1e-12)
    assert np.allclose(k2_dec.phis[:, 1], [s, -s], atol=1e-12)


def test_decompose_p3_characteristic_polynomial_oracle(p3, p3_dec):
    # roots of det(L - lambda I) computed independently of the eigensolver
    cond = p3.graph.toarray()
    stiff = np.diag(cond.sum(axis=1)) - cond
    coeffs = np.poly(stiff)  # characteristic polynomial coefficients
    roots = sorted(np.roots(coeffs).real)
    assert np.allclose(roots, [0.0, 1.0, 3.0], atol=1e-10)
    assert np.allclose(p3_dec.lambdas, roots, atol=1e-10)


def test_decompose_orthonormality_and_residuals(path8, grid44, dumbbell55):
    for sp in (path8, grid44, dumbbell55):
        dec = decompose(sp)
        gram = dec.phis.T @ (sp.mu[:, None] * dec.phis)
        assert np.max(np.abs(gram - np.eye(sp.n))) <= 1e-10
        for k in range(sp.n):
            resid = -laplacian_apply(sp, dec.phis[:, k]) - dec.lambdas[k] * dec.phis[:, k]
            assert np.max(np.abs(resid)) <= 1e-10 * max(1.0, dec.lambdas[-1])


def test_decompose_deterministic(grid44):
    a, b = decompose(grid44), decompose(grid44)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.phis, b.phis)


def _evr_decomposition(space):
    """The MRRR eigensolver's decomposition, built here as an oracle for the
    divide-and-conquer one `decompose` uses."""
    sqrt_mu = np.sqrt(space.mu)
    cond = space.graph.toarray()
    stiff = np.diag(cond.sum(axis=1)) - cond
    lambdas, vecs = eigh(stiff / np.outer(sqrt_mu, sqrt_mu), driver="evr")
    lambdas[0] = 0.0
    phis = vecs / sqrt_mu[:, None]
    gram = phis.T @ (space.mu[:, None] * phis)
    ortho_defect = float(np.linalg.norm(gram - np.eye(space.n)))
    return spectral.SpectralDecomposition(space, lambdas, phis, ortho_defect)


def _max_rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("nx, ny", [(6, 6), (8, 8), (5, 10)])
def test_decompose_matches_evr_on_degenerate_spectrum(nx, ny):
    # square lattices have eigenvalues of multiplicity 2 and more, where the
    # two drivers may return different bases of an eigenspace: compare only
    # what does not depend on the basis
    sp = fixture("grid2d", nx=nx, ny=ny)
    dec, oracle = decompose(sp), _evr_decomposition(sp)
    assert np.any(np.diff(oracle.lambdas) <= 1e-12 * oracle.lambdas[-1])
    assert np.allclose(dec.lambdas, oracle.lambdas, rtol=0.0, atol=1e-12 * oracle.lambdas[-1])
    for t in (0.01, 0.5, 5.0):
        assert _max_rel_err(heat_kernel(dec, t), heat_kernel(oracle, t)) <= 1e-12
    for theta in (0.25, 0.75):
        got = stiffness_matrix(dec, theta).stiffness
        assert _max_rel_err(got, stiffness_matrix(oracle, theta).stiffness) <= 1e-12


def _closed_form_heat(n, t):
    """The unit path's heat kernel at time t from its cosine modes."""
    lam, basis = path_modes(n)
    return (basis * np.exp(-lam * t)) @ basis.T


@pytest.mark.parametrize(
    "kind, params, nx, ny", [("path", {"n": 400}, 400, 1), ("grid2d", {"nx": 20}, 20, 20)]
)
def test_decompose_matches_closed_form_cosine_modes(kind, params, nx, ny):
    # an eigensolver-free second side at n=400: the path's cosines and, on
    # the grid, their Kronecker sums.  Measured: eigenvalues within 6.7e-16
    # (path) and 9.5e-16 (grid) of lambda_max, heat kernels at t=1 within
    # 1.8e-15 and 3.2e-15 of max K; the bounds are about 4x those.  The heat
    # kernel does not depend on the basis chosen in the grid's degenerate
    # eigenspaces
    dec = decompose(fixture(kind, **params))
    lam_x, lam_y = path_modes(nx)[0], path_modes(ny)[0]
    closed = np.sort(np.add.outer(lam_x, lam_y), axis=None)
    assert np.max(np.abs(dec.lambdas - closed)) <= 4e-15 * closed[-1]
    kernel = np.kron(_closed_form_heat(nx, 1.0), _closed_form_heat(ny, 1.0))
    assert _max_rel_err(heat_kernel(dec, 1.0), kernel) <= 1.5e-14


def _fix_signs_reference(phis):
    # the per-column loop the vectorized sign fix replaced
    for k in range(phis.shape[1]):
        col = phis[:, k]
        lead = np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())
        if col[lead] < 0:
            phis[:, k] = -col
    return phis


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fix_signs_matches_reference_loop(path8_dec, grid44_dec, dumbbell55_dec, seed):
    rng = np.random.default_rng(seed)
    for dec in (path8_dec, grid44_dec, dumbbell55_dec):
        # random signs and column scales; the cut is relative to each column
        scales = rng.choice([-1.0, 1.0], size=dec.n) * 10.0 ** rng.uniform(-8, 8, size=dec.n)
        scrambled = dec.phis * scales[None, :]
        # leading entries below the 1e-12 significance cut, of the opposite sign
        scrambled[0] = -1e-14 * np.sign(scrambled[1]) * np.abs(scrambled).max(axis=0)
        got = _fix_signs(scrambled.copy())
        assert np.array_equal(got, _fix_signs_reference(scrambled.copy()))
        assert np.array_equal(np.abs(got), np.abs(scrambled))


def _scaled_path(n, c, mu_factor=1.0):
    p = fixture("path", n=n)
    return build_space(p.dist, p.mu * mu_factor, p.graph.toarray() * c)


@pytest.mark.parametrize(
    "c, mu_factor", [(1e-12, 1.0), (1e12, 1.0), (1.0, 1e-20), (1.0, 1e12), (1.0, 1e20)]
)
def test_decompose_is_unit_free(c, mu_factor):
    # an absolute clamp zeroes every eigenvalue of path n=50 at cond x 1e-12
    # and at mu x 1e12; an absolute eigen-residual bound rejects mu x 1e-20
    base = decompose(fixture("path", n=50))
    dec = decompose(_scaled_path(50, c, mu_factor))
    scale = c / mu_factor
    assert np.count_nonzero(dec.lambdas == 0.0) == 1
    assert np.allclose(dec.lambdas / scale, base.lambdas, rtol=1e-12, atol=1e-13 * base.lambdas[-1])
    assert np.allclose(np.abs(dec.phis) * np.sqrt(mu_factor), np.abs(base.phis), atol=1e-10)


def test_decompose_rejects_second_zero_eigenvalue():
    # two pairs joined by a bridge 1e-13 of the other conductances: lambda_1
    # sits below the relative clamp, so a second eigenvalue would be zeroed
    p = fixture("path", n=4)
    cond = p.graph.toarray()
    cond[1, 2] = cond[2, 1] = 1e-13
    with pytest.raises(EigensolverNoConvergence, match="2 eigenvalues"):
        decompose(build_space(p.dist, p.mu, cond))


@given(log_c=st.floats(-12, 12), theta=st.floats(0.05, 0.95), seed=st.integers(0, 50))
@settings(max_examples=30, deadline=None)
def test_frac_energy_scales_with_conductance_units(log_c, theta, seed):
    c = 10.0**log_c
    f = np.random.default_rng(seed).standard_normal(12)
    base = stiffness_matrix(decompose(fixture("path", n=12)), theta).energy(f)
    scaled = stiffness_matrix(decompose(_scaled_path(12, c)), theta).energy(f)
    assert scaled == pytest.approx(c**theta * base, rel=1e-9)


def test_ground_mode_constant(path8_dec):
    phi0 = path8_dec.phis[:, 0]
    assert path8_dec.lambdas[0] == 0.0
    assert np.allclose(phi0, phi0[0])


# -- heat kernel


def test_heat_kernel_k2_closed_form(k2, k2_dec):
    for t in (0.1, 1.0, 3.0):
        k = heat_kernel(k2_dec, t)
        assert k[0, 0] == pytest.approx((1 + np.exp(-2 * t)) / 2, abs=1e-14)
        assert k[0, 1] == pytest.approx((1 - np.exp(-2 * t)) / 2, abs=1e-14)


def test_heat_kernel_markov(path8, grid44, dumbbell55):
    for sp in (path8, grid44, dumbbell55):
        dec = decompose(sp)
        for t in (0.01, 0.1, 1.0, 10.0):
            k = heat_kernel(dec, t)
            assert np.max(np.abs(k @ sp.mu - 1.0)) <= 1e-10


def test_heat_kernel_long_time_limit(path8, path8_dec):
    k = heat_kernel(path8_dec, 1e4)
    assert np.allclose(k, 1.0 / path8.total_mass, atol=1e-12)


def test_heat_kernel_symmetry_exact(grid44_dec):
    k = heat_kernel(grid44_dec, 0.3)
    assert np.array_equal(k, k.T)


@pytest.mark.parametrize("name", ["path8", "grid44", "dumbbell55"])
def test_kernels_agree_with_general_product(name, request):
    dec = request.getfixturevalue(f"{name}_dec")
    for t in (0.1, 1.0, 10.0):
        k = heat_kernel(dec, t)
        assert rel_gap(k, gemm_symmetrized(dec.phis, np.exp(-t * dec.lambdas))) <= 1e-14
        weights = np.exp(-t * spectral.lambda_power(dec.lambdas, 0.4))
        q = spectral._gram(dec.phis, weights)
        assert rel_gap(q, gemm_symmetrized(dec.phis, weights)) <= 1e-14
    gram = spectral._gram(dec.phis.T, dec.space.mu)
    assert np.array_equal(gram, gram.T)
    assert rel_gap(gram, gemm_symmetrized(dec.phis.T, dec.space.mu)) <= 1e-14


def test_gram_with_zero_weights():
    a = np.random.default_rng(0).standard_normal((30, 20))
    w = np.abs(np.random.default_rng(1).standard_normal(20))
    w[::3] = 0.0
    k = spectral._gram(a, w)
    assert np.array_equal(k, k.T)
    assert rel_gap(k, gemm_symmetrized(a, w)) <= 1e-14


def test_heat_kernel_semigroup(dumbbell55, dumbbell55_dec):
    for t, s in ((0.1, 0.4), (1.0, 1.0)):
        kt = heat_kernel(dumbbell55_dec, t)
        ks = heat_kernel(dumbbell55_dec, s)
        kts = heat_kernel(dumbbell55_dec, t + s)
        comp = (kt * dumbbell55.mu[None, :]) @ ks.T
        assert np.max(np.abs(comp - kts)) <= 1e-10


@pytest.fixture(scope="module")
def semigroup_decs(path8, grid44, dumbbell55):
    spaces = {
        "path8": path8,
        "grid44": grid44,
        "dumbbell55": dumbbell55,
        "rgg60": fixture("random_geometric", n=60, radius=0.3, seed=0),
    }
    return {name: decompose(sp) for name, sp in spaces.items()}


@given(
    name=st.sampled_from(["path8", "grid44", "dumbbell55", "rgg60"]),
    log_t=st.floats(-3.0, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_semigroup_defect_bounded_by_ortho_defect(semigroup_decs, name, log_t):
    # K_{t/2} M K_{t/2} - K_t = Phi D (Phi^T M Phi - I) D Phi^T, so relative
    # to max K_t the composed defect is at most |Phi^T M Phi - I|_F, plus the
    # roundoff of the products.  Over 400 log-spaced t in [1e-3, 1e2] on each
    # space, the composed defect never exceeded ortho_defect itself (the
    # largest excess was -0.08 n eps), so c = 1 leaves that roundoff its room
    dec = semigroup_decs[name]
    t = 10.0**log_t
    k = heat_kernel(dec, t)
    half = heat_kernel(dec, t / 2.0)
    comp = (half * dec.space.mu[None, :]) @ half
    assert dec.ortho_defect <= 1e-13
    bound = dec.ortho_defect + 1.0 * dec.n * np.finfo(float).eps
    assert np.max(np.abs(comp - k)) / k.max() <= bound


def test_heat_kernel_positivity_via_series(path8, grid44, dumbbell55):
    # the uniformization series is a sum of nonnegative terms, so it certifies
    # strict positivity where the spectral sum may round below zero
    for sp in (path8, grid44, dumbbell55):
        dec = decompose(sp)
        for t in (0.01, 0.1, 1.0, 10.0):
            spectral = heat_kernel(dec, t)
            series = heat_kernel_series(sp, t)
            assert series.min() > 0.0
            assert np.max(np.abs(spectral - series)) <= 1e-12


def test_heat_kernel_series_far_entries_positive():
    # at t=0.01 the end-to-end entries of a 64-point path are about 1e-214:
    # they appear only once the short-step sum reaches enough hops
    sp = fixture("path", n=64)
    series = heat_kernel_series(sp, 0.01)
    assert series.min() > 0.0
    assert series[0, -1] < 1e-200
    spectral = heat_kernel(decompose(sp), 0.01)
    assert np.max(np.abs(spectral - series)) <= 1e-12


def test_heat_kernel_series_time_cap(path8):
    # beta = 2 on the path, so t = 301 puts beta*t past the cap of 600
    with pytest.raises(SeriesTimeTooLarge, match="t = 301"):
        heat_kernel_series(path8, 301.0)
    assert heat_kernel_series(path8, 300.0).min() > 0.0


def _max_rel_diff(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_heat_kernel_series_rejects_bad_times(path8):
    with pytest.raises(NonpositiveTime):
        heat_kernel_series(path8, 0.0)
    with pytest.raises(NonpositiveTime, match="-0.5"):
        heat_kernel_series(path8, -0.5)


@pytest.mark.parametrize("s", [1e-6, 1e-3, 3.0, 1e6])
def test_heat_kernel_series_unit_free(s, path8, grid44, weighted_grid34):
    # Delta is unchanged by (mu, cond) -> s (mu, cond), and kernel entries
    # are densities against mu, so they scale like 1/s
    for sp in (path8, grid44, weighted_grid34):
        scaled = build_space(sp.dist, s * sp.mu, s * sp.graph.toarray())
        for t in (0.05, 1.0, 4.0):
            ref, kernel = heat_kernel_series(sp, t), heat_kernel_series(scaled, t)
            assert _max_rel_diff(kernel * s, ref) <= 1e-13


def test_heat_kernel_series_agrees_up_to_time_cap(path8, grid44, dumbbell55, weighted_grid34):
    # evidence for the beta*t cap of 600: every fixture kind, up to the cap
    rgg = fixture("random_geometric", n=40, radius=0.3, seed=0)
    for sp in (path8, grid44, dumbbell55, rgg, weighted_grid34):
        beta = float(np.max(sp.graph.toarray().sum(axis=1) / sp.mu))
        ts = [bt / beta for bt in (0.01, 1.0, 10.0, 100.0, 300.0, 600.0)]
        dec = decompose(sp)
        for t in ts:
            series = heat_kernel_series(sp, t)
            spectral = heat_kernel(dec, t)
            assert np.max(np.abs(series - spectral)) <= 1e-12 * spectral.max()
            assert series.min() > 0.0


def test_heat_kernel_rejects_nonpositive_time(k2_dec):
    with pytest.raises(NonpositiveTime):
        heat_kernel(k2_dec, 0.0)


# -- the walk lower bound


def _log_kernel_oracle(sp, t):
    """log k_t from the uniformization series summed in log space, each power
    of Q by a logsumexp over an n x n x n tensor, so no entry underflows.  The
    sum runs until every entry is reached and the tail past term j, at most
    e^-x x^(j+1) / (j+1)! / (1 - x / (j + 2)), is below e^-40 of the least
    entry."""
    cond = sp.graph.toarray()
    degrees = cond.sum(axis=1) / sp.mu
    beta = degrees.max()
    q = cond / (beta * sp.mu[:, None])
    np.fill_diagonal(q, 1.0 - degrees / beta)
    with np.errstate(divide="ignore"):
        log_q = np.log(q)
        log_qj = np.log(np.eye(sp.n))
    x = beta * t
    log_term = -x  # log of e^-x x^j / j!
    acc = log_qj + log_term
    for j in range(1, 10_000):
        log_term += np.log(x / j)
        paths = log_qj[:, :, None] + log_q[None, :, :]
        top = paths.max(axis=1)
        top[np.isinf(top)] = 0.0  # no walk: every path is -inf
        paths -= top[:, None, :]
        with np.errstate(divide="ignore"):
            log_qj = np.log(np.exp(paths).sum(axis=1)) + top
        acc = np.logaddexp(acc, log_qj + log_term)
        if j + 2 > x and np.isfinite(acc).all():
            tail = log_term + np.log(x / (j + 1)) - np.log1p(-x / (j + 2))
            if tail < acc.min() - 40:
                return acc - np.log(sp.mu)[None, :]
    raise AssertionError("the log-space series did not converge")


def _small_spaces(weighted_grid34):
    return {
        "path60": fixture("path", n=60),
        "grid8x8": fixture("grid2d", nx=8),
        "dumbbell": fixture("dumbbell", clique=5, bridge=3),
        "rgg40": fixture("random_geometric", n=40, radius=0.3, seed=0),
        "weighted_grid34": weighted_grid34,
    }


def test_heat_kernel_log_bound_below_log_oracle(weighted_grid34):
    for name, sp in _small_spaces(weighted_grid34).items():
        dec = decompose(sp)
        log_bound = heat_kernel_log_bound(sp)
        for t in (0.01, 1.0, 10.0):
            oracle = _log_kernel_oracle(sp, t)
            # the oracle is the kernel wherever the spectral sum resolves it
            spectral = heat_kernel(dec, t)
            assert np.max(np.abs(np.exp(oracle) - spectral)) <= 1e-12 * spectral.max(), name
            assert np.all(log_bound(t) <= oracle + 1e-12 * np.abs(oracle)), (name, t)


def test_heat_kernel_log_bound_tight_at_short_times():
    # one walk from end to end of a path, with q = 1/2 on every step: at
    # small t the bound is the series' leading term, where the spectral sum
    # (about 1e-198 here) is pure roundoff
    sp = fixture("path", n=60)
    bound, oracle = heat_kernel_log_bound(sp)(0.01)[0, -1], _log_kernel_oracle(sp, 0.01)[0, -1]
    assert bound <= oracle <= bound + 1e-3
    assert -460 < bound < -450


_BOUND_SPACES = ("path8", "grid44", "dumbbell55", "weighted_grid34")


@given(name=st.sampled_from(_BOUND_SPACES), log_t=st.floats(-3, 1))
@settings(max_examples=40, deadline=None)
def test_heat_kernel_log_bound_below_spectral(
    path8, grid44, dumbbell55, weighted_grid34, name, log_t
):
    sp = dict(zip(_BOUND_SPACES, (path8, grid44, dumbbell55, weighted_grid34)))[name]
    t = 10.0**log_t
    k = heat_kernel(decompose(sp), t)
    bound = np.exp(heat_kernel_log_bound(sp)(t))
    resolved = k >= 1e-8 * k.max()
    assert np.all(bound[resolved] <= k[resolved] + 1e-12 * k.max())


def test_heat_kernel_log_bound_hops_with_one_way_conductance(monkeypatch):
    # cond need only be symmetric within 1e-12, so the 1e-13 chord 0 -> 5
    # runs one way; its hop counts are still those of the undirected graph
    path = fixture("path", n=6)
    cond = path.graph.toarray()
    cond[0, 5] = 1e-13
    sp = build_space(path.dist, path.mu, cond)
    real, tables = spectral._hop_counts, []

    def recording(edges):
        tables.append(real(edges))
        return tables[-1]

    monkeypatch.setattr(spectral, "_hop_counts", recording)
    heat_kernel_log_bound(sp)
    assert np.array_equal(tables[0], shortest_path(cond > 0, unweighted=True, directed=False))
    assert tables[0][5, 0] == tables[0][0, 5] == 1


@given(
    n=st.sampled_from([2, 63, 64, 65, 129]),
    span=st.sampled_from([1, 2, 8, 200]),
    n_chords=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, span=1, n_chords=0, seed=0)  # the one-point space: no edges
@settings(max_examples=60, deadline=None)
def test_hop_counts_equal_undirected_shortest_path(n, span, n_chords, seed):
    # sizes on both sides of the 64-bit word boundary.  A random tree with
    # each point's parent at most `span` points back (a path at span 1), each
    # tree edge stored one way or both, plus one-way chords: the union is
    # connected, and the sweep must see every one-way edge both ways
    rng = np.random.default_rng(seed)
    child = np.arange(1, n)
    parent = rng.integers(np.maximum(child - span, 0), child)
    edges = np.zeros((n, n), dtype=bool)
    edges[child, parent] = True
    both = rng.random(n - 1) < 0.5
    edges[parent[both], child[both]] = True
    a, b = rng.integers(0, n, size=(2, n_chords))
    edges[a[a != b], b[a != b]] = True
    hops = _hop_counts(csr_array(edges))
    assert hops.dtype == np.min_scalar_type(n)
    assert np.array_equal(hops, shortest_path(edges, unweighted=True, directed=False))


def _log_bound_oracle(sp, t):
    """The walk bound's formula, with log j! from scipy's gammaln and
    j log(beta t) from its xlogy, and q_min and the hops from the dense
    conductances: the terms in the order the library sums them, and the
    sum of their magnitudes, the scale of its rounding."""
    from scipy.special import gammaln, xlogy

    cond = sp.graph.toarray()
    beta = float((cond.sum(axis=1) / sp.mu).max())
    q = cond / (beta * sp.mu[:, None]) if beta > 0 else cond
    log_q_min = np.log(q[cond > 0].min(initial=1.0))
    hops = shortest_path(cond > 0, unweighted=True, directed=False).astype(int)
    terms = (xlogy(hops, beta * t), hops * log_q_min, -gammaln(hops + 1.0), -beta * t)
    oracle = terms[0] + terms[1] + terms[2] + terms[3] - np.log(sp.mu)[None, :]
    return oracle, sum(np.abs(term) for term in terms) + np.abs(np.log(sp.mu))[None, :]


@pytest.mark.parametrize("name", ["path8", "grid44", "rgg400", "one_point"])
def test_heat_kernel_log_bound_matches_gammaln_xlogy_formula(path8, grid44, name):
    # log j! comes from math.lgamma, within a few ulps of gammaln, and
    # j log(beta t) keeps xlogy's 0 log 0 = 0 on the one-point space
    sp = {
        "path8": lambda: path8,
        "grid44": lambda: grid44,
        "rgg400": lambda: fixture("random_geometric", n=400, radius=0.15, seed=3),
        "one_point": lambda: build_space([[0.0]], [2.0], [[0.0]]),
    }[name]()
    log_bound = heat_kernel_log_bound(sp)
    for t in (1e-3, 0.1, 1.0, 10.0, 400.0):
        oracle, scale = _log_bound_oracle(sp, t)
        assert np.all(np.abs(log_bound(t) - oracle) <= 4 * np.finfo(float).eps * scale), t


def test_heat_kernel_log_bound_finite_past_series_cap(path8):
    # beta = 2 on the path: t = 1e4 is far past the series' beta*t cap
    log_bound = heat_kernel_log_bound(path8)
    assert np.all(np.isfinite(log_bound(1e4)))
    with pytest.raises(NonpositiveTime):
        log_bound(0.0)


# -- fractional powers


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
def test_frac_apply_k2_eigenvector(k2_dec, theta):
    f = np.array([1.0, -1.0])
    assert np.allclose(frac_apply(k2_dec, theta, f), 2.0**theta * f, atol=1e-12)


def test_frac_apply_constant_is_zero(path8_dec):
    assert np.allclose(frac_apply(path8_dec, 0.3, np.full(8, 2.2)), 0.0, atol=1e-12)


def test_frac_apply_theta_one_matches_laplacian(path8, path8_dec):
    f = random_vector(path8, 5)
    full = spectral_power_apply(path8_dec, 1.0, f)
    assert np.max(np.abs(full - (-laplacian_apply(path8, f)))) <= 1e-10


def test_frac_apply_theta_range(k2_dec):
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ThetaOutOfRange):
            frac_apply(k2_dec, bad, np.zeros(2))


# -- subordination identity


def test_subordinator_density_normalizes():
    for t in (0.1, 1.0):
        total = integrate_halfline(lambda s: inverse_gaussian_density(t, s))
        assert total == pytest.approx(1.0, abs=1e-6)


def test_subordination_check_k2(k2_dec):
    assert subordination_check(k2_dec, 1.0) <= 1e-6


def test_subordination_check_fixtures(path8_dec, grid44_dec, dumbbell55_dec):
    for dec in (path8_dec, grid44_dec, dumbbell55_dec):
        for t in (0.1, 1.0):
            assert subordination_check(dec, t) <= 1e-6


def test_subordination_check_one_quadrature_per_time(monkeypatch, grid44_dec, dumbbell55_dec):
    calls = []

    def counting(f):
        calls.append(f)
        return integrate_halfline(f)

    monkeypatch.setattr(spectral, "integrate_halfline", counting)
    for dec in (grid44_dec, dumbbell55_dec):
        for t in (0.1, 1.0, 4.0):
            calls.clear()
            got = subordination_check(dec, t)
            assert len(calls) == 1
            # the same check as one scalar quadrature per distinct eigenvalue
            want = max(
                abs(
                    integrate_halfline(
                        lambda s, lam=lam: inverse_gaussian_density(t, s) * np.exp(-lam * s)
                    )
                    - np.exp(-t * np.sqrt(lam))
                )
                for lam in np.unique(dec.lambdas)
            )
            assert got <= 1e-6
            assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_subordination_check_roundoff_on_benchmark_space(seed):
    # the space of the kernels-rgg400 benchmark: the family rule meets the
    # closed form to 2 ulp of 1 at the CLI's two times (measured worst over
    # seeds 0-199: 2.2e-16)
    dec = decompose(fixture("random_geometric", n=400, radius=0.15, seed=seed))
    for t in (0.1, 1.0):
        assert subordination_check(dec, t) <= 4.5e-16


def test_subordination_rejects_nonpositive_time(k2_dec):
    with pytest.raises(NonpositiveTime):
        subordination_check(k2_dec, 0.0)
