import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap import (
    ball_measure,
    besov_energy,
    build_space,
    comparability_report,
    decompose,
    fixture,
    stiffness_matrix,
)
from fraclap.energy import _besov_stiffness
from fraclap.errors import (
    ConstantFunctionInFamily,
    InvalidParams,
    ThetaOutOfRange,
)
from fraclap.spectral import lambda_power, spectral_power_apply

from conftest import gemm_symmetrized, random_vector, rel_gap


def besov_oracle(space, theta, f):
    """Direct double-loop enumeration of the Gagliardo-type sum."""
    total = 0.0
    for z in range(space.n):
        for w in range(space.n):
            if z == w:
                continue
            d = space.dist[z, w]
            ball = ball_measure(space, z, d)
            total += (
                (f[z] - f[w]) ** 2
                / (d ** (2 * theta) * ball)
                * space.mu[z]
                * space.mu[w]
            )
    return total


# -- Besov energy


def test_besov_constant_is_zero(path8):
    assert besov_energy(path8, 0.4, np.full(8, 1.23)) == 0.0


def test_besov_k2_hand_sum(k2):
    # two pairs, |f(z)-f(w)|^2 = 4, closed ball mass 2: 2 * 4/2 = 4
    for theta in (0.25, 0.5, 0.75):
        assert besov_energy(k2, theta, [1.0, -1.0]) == pytest.approx(4.0, abs=1e-14)


def test_besov_p3_six_term_oracle(p3):
    f = np.array([0.0, 1.0, 0.0])
    expected = besov_oracle(p3, 0.5, f)
    assert expected == pytest.approx(5.0 / 3.0, abs=1e-14)
    assert besov_energy(p3, 0.5, f) == pytest.approx(expected, abs=1e-12)


@given(seed=st.integers(0, 60), theta=st.floats(0.05, 0.95))
@settings(max_examples=20, deadline=None)
def test_besov_matches_enumeration_oracle(seed, theta):
    sp = fixture("random_geometric", n=12, radius=0.7, seed=seed)
    f = np.random.default_rng(seed).standard_normal(sp.n)
    assert besov_energy(sp, theta, f) == pytest.approx(
        besov_oracle(sp, theta, f), rel=1e-11
    )


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
def test_besov_matches_enumeration_oracle_with_ties(grid44, theta):
    # the lattice metric has many equidistant points per center
    f = random_vector(grid44, 21)
    assert besov_energy(grid44, theta, f) == pytest.approx(
        besov_oracle(grid44, theta, f), rel=1e-11
    )


# -- fractional energy


def test_frac_energy_k2(k2_dec):
    f = np.array([1.0, -1.0])
    for theta in (0.25, 0.5, 0.75):
        energy = stiffness_matrix(k2_dec, theta).energy(f)
        assert energy == pytest.approx(2.0**theta * 2.0, abs=1e-12)


def test_frac_bilinear_constant_in_nullspace(path8, path8_dec):
    f = random_vector(path8, 3)
    assert f @ stiffness_matrix(path8_dec, 0.5).apply(np.ones(8)) == pytest.approx(0.0, abs=1e-12)


def test_frac_energy_matches_half_power_norm(path8, path8_dec):
    # E_theta(f, f) = sum_x ((-Delta)^(theta/2) f)^2 mu(x)
    f = random_vector(path8, 4)
    for theta in (0.25, 0.5, 0.75):
        half = spectral_power_apply(path8_dec, theta / 2.0, f)
        assert stiffness_matrix(path8_dec, theta).energy(f) == pytest.approx(
            float(np.sum(half**2 * path8.mu)), abs=1e-10
        )


def test_frac_energy_zero_iff_constant(grid44_dec):
    f = random_vector(grid44_dec.space, 9)
    form = stiffness_matrix(grid44_dec, 0.5)
    assert form.energy(f) > 0
    assert form.energy(np.full(16, -2.0)) == pytest.approx(0.0, abs=1e-12)


@given(c=st.floats(-5, 5).filter(lambda c: abs(c) > 1e-3), theta=st.floats(0.1, 0.9))
@settings(max_examples=25, deadline=None)
def test_quadratic_homogeneity(c, theta):
    sp = fixture("path", n=5)
    dec = decompose(sp)
    f = random_vector(sp, 17)
    assert stiffness_matrix(dec, theta).energy(c * f) == pytest.approx(
        c * c * stiffness_matrix(dec, theta).energy(f), rel=1e-10
    )
    assert besov_energy(sp, theta, c * f) == pytest.approx(
        c * c * besov_energy(sp, theta, f), rel=1e-10
    )


# -- stiffness matrix


def test_stiffness_k2_hand_assembly(k2_dec):
    form = stiffness_matrix(k2_dec, 0.5)
    expected = np.sqrt(2) / 2 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(form.stiffness, expected, atol=1e-12)
    assert form.energy(np.array([1.0, -1.0])) == pytest.approx(2 * np.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("name", ["path8", "grid44", "dumbbell55"])
def test_form_on_columns_matches_vectors(name, request):
    # apply and energy on an n x k array equal their results column by column
    dec = request.getfixturevalue(f"{name}_dec")
    form = stiffness_matrix(dec, 0.4)
    cols = np.random.default_rng(2).standard_normal((dec.n, 4))
    applied, energies = form.apply(cols), form.energy(cols)
    assert applied.shape == cols.shape and energies.shape == (4,)
    for j in range(4):
        assert rel_gap(applied[:, j], form.apply(cols[:, j])) <= 1e-14
        assert energies[j] == pytest.approx(form.energy(cols[:, j]), rel=1e-14)
    assert isinstance(form.energy(cols[:, 0]), float)


def test_stiffness_annihilates_constants(grid44_dec):
    form = stiffness_matrix(grid44_dec, 0.3)
    assert np.max(np.abs(form.apply(np.ones(16)))) <= 1e-12


@pytest.mark.parametrize("name", ["path8", "grid44", "dumbbell55"])
def test_stiffness_gram_form(name, request):
    # exactly symmetric, and the general product of the same factors to roundoff
    dec = request.getfixturevalue(f"{name}_dec")
    m_phi = dec.space.mu[:, None] * dec.phis
    for theta in (0.25, 0.75):
        k = stiffness_matrix(dec, theta).stiffness
        assert np.array_equal(k, k.T)
        expected = gemm_symmetrized(m_phi, lambda_power(dec.lambdas, theta))
        assert rel_gap(k, expected) <= 1e-14


def test_stiffness_rediagonalization_oracle(path8, path8_dec):
    # eigenvalues of M^-1 K must be lambda_k^theta; re-diagonalize from scratch
    theta = 0.6
    form = stiffness_matrix(path8_dec, theta)
    m_inv_k = form.stiffness / path8.mu[:, None]
    got = np.sort(np.linalg.eigvals(m_inv_k).real)
    expected = np.sort(path8_dec.lambdas**theta)
    assert np.max(np.abs(got - expected)) <= 1e-9


def test_stiffness_agrees_with_bilinear(path8, path8_dec):
    # f^T K h three ways: the modal apply, the dense stiffness, and the
    # polarization of the energy
    rng = np.random.default_rng(0)
    form = stiffness_matrix(path8_dec, 0.5)
    for _ in range(10):
        f, h = rng.standard_normal(8), rng.standard_normal(8)
        bilinear = float(f @ form.apply(h))
        assert bilinear == pytest.approx(float(f @ form.stiffness @ h), abs=1e-10)
        polarized = (form.energy(f + h) - form.energy(f - h)) / 4.0
        assert bilinear == pytest.approx(polarized, abs=1e-10)


# -- truncation (Markov) property


@given(
    seed=st.integers(0, 60),
    cap=st.floats(-1.5, 1.5),
    theta=st.sampled_from([0.25, 0.5, 0.75]),
)
@settings(max_examples=60, deadline=None)
def test_truncation_in_the_limit(path8_dec, seed, cap, theta):
    # E_theta is the t -> 0 limit of the subordinated semigroup's regularized
    # energies, each of which a unit contraction f -> min(f, cap) never
    # increases, so neither does E_theta
    f = np.random.default_rng(seed).standard_normal(8)
    ef = stiffness_matrix(path8_dec, theta).energy(f)
    eg = stiffness_matrix(path8_dec, theta).energy(np.minimum(f, cap))
    assert eg <= ef + 1e-12 * ef


# -- comparability


def test_comparability_k2_analytic_ratio(k2, k2_dec):
    rep = comparability_report(k2_dec, 0.5, [np.array([1.0, -1.0])])
    assert rep["ratio_min"] == pytest.approx(np.sqrt(2), abs=1e-12)
    assert rep["ratio_max"] == pytest.approx(np.sqrt(2), abs=1e-12)


def test_comparability_scaling_invariance(p3, p3_dec):
    f = np.array([0.0, 1.0, -0.5])
    a = comparability_report(p3_dec, 0.5, [f])
    b = comparability_report(p3_dec, 0.5, [7.3 * f])
    assert a["ratio_min"] == pytest.approx(b["ratio_min"], rel=1e-12)


def test_comparability_random_family_finite(path8, path8_dec):
    rng = np.random.default_rng(0)
    family = [rng.standard_normal(8) for _ in range(100)]
    rep = comparability_report(path8_dec, 0.5, family)
    assert 0 < rep["ratio_min"] <= rep["ratio_max"] < np.inf
    assert rep["family_size"] == 100


def test_comparability_rejects_constants(p3, p3_dec):
    with pytest.raises(ConstantFunctionInFamily):
        comparability_report(p3_dec, 0.5, [np.ones(3)])
    with pytest.raises(ConstantFunctionInFamily):
        comparability_report(p3_dec, 0.5, [])
    with pytest.raises(ConstantFunctionInFamily):
        comparability_report(p3_dec, 0.5, np.array([[0.0, 1.0, 2.0], [4.0, 4.0, 4.0]]))


def test_comparability_rejects_misshapen_family(p3, p3_dec):
    with pytest.raises(InvalidParams):
        comparability_report(p3_dec, 0.5, [np.arange(4.0)])
    with pytest.raises(InvalidParams):
        comparability_report(p3_dec, 0.5, np.arange(3.0))
    with pytest.raises(InvalidParams):
        comparability_report(p3_dec, 0.5, [np.arange(3.0), np.arange(4.0)])


def test_besov_stiffness_quadratic_form_is_the_double_sum(weighted_grid34, weighted_grid12):
    # unequal masses, a random_geometric space without ties, and a grid
    # whose mirrored row blocks B is written over block pair by block pair
    rgg = fixture("random_geometric", n=30, radius=0.4, seed=2)
    mu = np.random.default_rng(2).uniform(0.2, 3.0, 30)
    rgg = build_space(rgg.dist, mu, rgg.graph.toarray())
    for sp in (weighted_grid34, rgg, weighted_grid12):
        for theta in (0.25, 0.5, 0.75):
            b = _besov_stiffness(sp, theta)
            assert np.array_equal(b, b.T)
            np.testing.assert_allclose(b @ np.ones(sp.n), 0.0, atol=1e-12 * np.abs(b).max())
            for seed in range(3):
                f = random_vector(sp, seed)
                assert f @ b @ f == pytest.approx(besov_energy(sp, theta, f), rel=1e-13)


def test_comparability_matches_per_member_energies(grid44_dec, dumbbell55_dec):
    # the per-member loop over besov_energy and the form's energy that the
    # one stiffness matrix and one energy of the family's columns replaced
    for dec in (grid44_dec, dumbbell55_dec):
        family = np.random.default_rng(4).standard_normal((12, dec.space.n))
        for theta in (0.25, 0.75):
            form = stiffness_matrix(dec, theta)
            ratios = [besov_energy(dec.space, theta, f) / form.energy(f) for f in family]
            rep = comparability_report(dec, theta, family)
            assert rep == comparability_report(dec, theta, list(family))
            assert rep["ratio_min"] == pytest.approx(min(ratios), rel=1e-13)
            assert rep["ratio_max"] == pytest.approx(max(ratios), rel=1e-13)
            assert rep["family_size"] == 12


def test_theta_range_checks(p3, p3_dec):
    with pytest.raises(ThetaOutOfRange):
        besov_energy(p3, 1.0, np.zeros(3))
    with pytest.raises(ThetaOutOfRange):
        stiffness_matrix(p3_dec, 0.0).energy(np.zeros(3))
    with pytest.raises(ThetaOutOfRange):
        comparability_report(p3_dec, 1.0, [np.array([1.0, 0.0, 0.0])])
