import numpy as np
import pytest

from circdeconv.errors import DimensionNotFound
from circdeconv.estimation import (
    empirical_coeffs,
    empirical_coeffs_batch,
    estimate_q,
    estimate_q_batch,
    u_statistic_form,
)
from circdeconv.fourier import (
    FourierDensity,
    NoiseModel,
    SmoothnessClass,
    quadratic_functional,
    truncated_functional,
)
from circdeconv.rates import fit_rate, nu_k_sq, optimal_dim_est, risk_upper_bound
from circdeconv.sampling import CircularSample, Rng, sample_batch


class TestEmpiricalCoeffs:
    def test_point_mass_at_zero(self):
        emp = empirical_coeffs(np.zeros(10), 4)
        assert np.allclose(emp.coeffs, 1.0)

    def test_zero_frequency_always_one(self):
        emp = empirical_coeffs(Rng(0).generator().random(30), 5)
        assert emp.coeffs[0] == 1.0

    def test_matches_naive_double_loop(self):
        vals = Rng(1).generator().random(64)
        emp = empirical_coeffs(vals, 8)
        for j in range(9):
            naive = np.mean([np.exp(-2j * np.pi * j * y) for y in vals])
            assert abs(emp.coeffs[j] - naive) < 1e-12

    def test_modulus_at_most_one(self):
        emp = empirical_coeffs(Rng(2).generator().random(50), 20)
        assert np.all(np.abs(emp.coeffs) <= 1.0 + 1e-12)

    def test_batch_matches_single(self):
        y = Rng(3).generator().random((4, 30))
        batch = empirical_coeffs_batch(y, 6)
        for b in range(4):
            single = empirical_coeffs(y[b], 6)
            assert np.allclose(batch[b], single.coeffs[1:], atol=1e-14)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            empirical_coeffs(np.array([]), 2)
        with pytest.raises(ValueError):
            empirical_coeffs(np.array([0.1]), 0)


class TestUnbiasedSqModulus:
    """q_hat_1 is 2 |eps_1|^{-2} times the bias-corrected squared modulus
    |g_hat_1|^2 - (1 - |g_hat_1|^2) / (n - 1)."""

    EPS = NoiseModel.mild(1.0, scale=0.5)

    def test_unit_modulus_gives_one(self):
        # a point mass has |g_hat_1| = 1, so the correction vanishes
        q = estimate_q(np.full(5, 0.3), self.EPS, 1)
        assert q == pytest.approx(2.0 / 0.5 ** 2)

    def test_zero_at_n_two(self):
        # {0, 1/2} has g_hat_1 = 0, so the corrected modulus is -1/(n - 1) = -1
        q = estimate_q(np.array([0.0, 0.5]), self.EPS, 1)
        assert q == pytest.approx(-2.0 / 0.5 ** 2)

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            estimate_q(np.array([0.5]), self.EPS, 1)

    def test_unbiased_for_squared_coefficient(self):
        f = FourierDensity.from_tail([0.3])
        eps = NoiseModel.mild(1.0, max_freq=1)
        reps, n = 20_000, 50
        y = _observed_matrix(f, eps, reps, n, Rng(10))
        vals = np.array([estimate_q(y[r], eps, 1) for r in range(200)])
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 2 * 0.3 ** 2) <= 3 * se


def _observed_matrix(f, eps, reps, n, rng):
    """reps x n draws from g = f (*) eps, all from one sampler call."""
    j = np.arange(1, f.max_freq + 1)
    g_tail = f.coeffs[1:] * eps.modulus(j)
    return sample_batch(g_tail[np.newaxis, :], reps * n, rng.generator()).reshape(reps, n)


class TestEstimateQ:
    def test_rejects_bad_args(self):
        eps = NoiseModel.mild(1.0)
        with pytest.raises(ValueError):
            estimate_q(np.array([0.1, 0.2]), eps, 0)
        with pytest.raises(ValueError):
            estimate_q(np.array([0.1]), eps, 2)

    def test_null_mean_near_zero(self):
        eps = NoiseModel.mild(1.0)
        y = Rng(5).generator().random((5000, 40))
        q = estimate_q_batch(y, eps, 3)
        se = q.std(ddof=1) / np.sqrt(q.size)
        assert abs(q.mean()) <= 3 * se

    def test_unbiased_for_truncated_functional(self):
        f = FourierDensity.from_tail([0.3, 0.15])
        eps = NoiseModel.mild(1.0, max_freq=2)
        y = _observed_matrix(f, eps, 5000, 100, Rng(6))
        q = estimate_q_batch(y, eps, 2)
        se = q.std(ddof=1) / np.sqrt(q.size)
        target = truncated_functional(f, 2)
        assert abs(q.mean() - target) <= 3 * se

    def test_batch_matches_single(self):
        eps = NoiseModel.severe(1.0)
        y = Rng(7).generator().random((6, 25))
        batch = estimate_q_batch(y, eps, 3)
        singles = [estimate_q(y[b], eps, 3) for b in range(6)]
        assert np.allclose(batch, singles, atol=1e-12)

    def test_permutation_invariance(self):
        eps = NoiseModel.mild(1.0)
        vals = Rng(8).generator().random(30)
        q1 = estimate_q(vals, eps, 4)
        q2 = estimate_q(np.sort(vals), eps, 4)
        assert q1 == pytest.approx(q2, abs=1e-12)

    def test_accepts_circular_sample(self):
        eps = NoiseModel.mild(1.0)
        s = CircularSample(Rng(11).generator().random(20), seed=11)
        assert estimate_q(s, eps, 2) == pytest.approx(estimate_q(s.values, eps, 2))


class TestUStatisticEquivalence:
    @pytest.mark.parametrize("trial", range(10))
    def test_exact_identity(self, trial):
        gen = np.random.default_rng(100 + trial)
        n = int(gen.integers(5, 41))
        k = int(gen.integers(1, 6))
        vals = gen.random(n)
        eps = NoiseModel.mild(1.0)
        assert estimate_q(vals, eps, k) == pytest.approx(
            u_statistic_form(vals, eps, k), abs=1e-10
        )


class TestOptimalDim:
    def test_error_when_bias_never_crosses(self):
        flat = SmoothnessClass.from_sequence(lambda j: np.ones_like(j, dtype=float))
        # direct observations (|eps_j| = 1): variance proxy 2k/n^2 stays
        # below the non-decaying bias for every k <= k_max
        eps = NoiseModel.from_density(FourierDensity.from_tail(np.full(60, 0.999)))
        with pytest.raises(DimensionNotFound):
            optimal_dim_est(flat, eps, 100, 50)

    def test_matches_exhaustive_scan(self):
        cls = SmoothnessClass.ordinary(1.0)
        eps = NoiseModel.mild(1.0)
        n = 10 ** 4
        k = optimal_dim_est(cls, eps, n, 10 ** 4)
        ks = np.arange(1, 10 ** 4 + 1)
        a4 = ks ** -4.0
        rhs = 2.0 * np.cumsum(ks ** 4.0) / n ** 2
        expected = int(np.nonzero(a4 <= rhs)[0][0]) + 1
        assert k == expected

    def test_growth_exponent(self):
        cls = SmoothnessClass.ordinary(1.0)
        eps = NoiseModel.mild(1.0)
        ns = [2 ** e for e in range(8, 21)]
        kappas = [optimal_dim_est(cls, eps, n, 10 ** 5) for n in ns]
        slope, _, _ = fit_rate(ns, kappas)
        assert slope == pytest.approx(2.0 / 9.0, abs=0.03)


class TestRiskUpperBound:
    def test_r_to_zero_limit(self):
        eps = NoiseModel.mild(1.0, sup_norm_value=2.0)
        cls = SmoothnessClass.ordinary(1.0, radius=1e-6)
        bd = risk_upper_bound(cls, eps, 100, 3)
        c1, c2, c3 = bd.constants
        assert c1 < 1e-20 and c3 < 1e-10
        assert bd.total == pytest.approx(c2 * bd.variance_quadratic)

    def test_total_is_max_of_terms(self):
        eps = NoiseModel.mild(1.0, sup_norm_value=2.0)
        cls = SmoothnessClass.ordinary(1.0)
        bd = risk_upper_bound(cls, eps, 1000, 5)
        assert bd.total == pytest.approx(max(bd.terms()))

    def test_dominates_empirical_risk(self):
        cls = SmoothnessClass.ordinary(1.0)
        eps = NoiseModel.mild(1.0, sup_norm_value=2.0)
        n = 500
        k = optimal_dim_est(cls, eps, n, 10 ** 4)
        bd = risk_upper_bound(cls, eps, n, k)
        # stress densities inside the ellipsoid
        for tail in ([0.25], [0.2, 0.1], [0.1, 0.1, 0.05]):
            f = FourierDensity.from_tail(tail)
            y = _observed_matrix(f, eps, 400, n, Rng(12))
            err = (estimate_q_batch(y, eps, k) - quadratic_functional(f)) ** 2
            assert err.mean() <= bd.total

    def test_rejects_n_below_three(self):
        # at n = 2 the null risk is 4 nu_k^4 but c2 nu_k^4 can be ~3 nu_k^4
        eps = NoiseModel.mild(1.0, sup_norm_value=1.0)
        cls = SmoothnessClass.ordinary(1.0, radius=0.1)
        with pytest.raises(ValueError):
            risk_upper_bound(cls, eps, 2, 1)

    @pytest.mark.parametrize("n", [3, 4, 10])
    def test_dominates_exact_null_risk(self, n):
        eps = NoiseModel.mild(1.0, sup_norm_value=1.0)
        cls = SmoothnessClass.ordinary(1.0, radius=0.1)
        for k in (1, 2, 5):
            null_risk = 2.0 * nu_k_sq(eps, n, k) ** 2 * n / (n - 1)
            assert risk_upper_bound(cls, eps, n, k).total >= null_risk
