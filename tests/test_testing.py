import numpy as np
import pytest

from circdeconv.errors import CalibrationError
from circdeconv.estimation import estimate_q_batch
from circdeconv.fourier import FourierDensity, NoiseModel, SmoothnessClass
from circdeconv.rates import nu_k_sq, optimal_dim_est, radius_upper
from circdeconv.sampling import Rng
from circdeconv.testing import calibrate, custom_calibration, run_test


class TestNuKSq:
    def test_unit_modulus_closed_form(self):
        eps = NoiseModel.from_density(FourierDensity.from_tail(np.full(20, 0.9999)))
        # |eps_j| ~ 1 -> nu_k^2 ~ sqrt(2k)/n
        assert nu_k_sq(eps, 10, 4) == pytest.approx(np.sqrt(8) / 10, rel=1e-3)

    def test_single_frequency_value(self):
        eps = NoiseModel.from_density(FourierDensity.from_tail([0.5]))
        assert nu_k_sq(eps, 10, 1) == pytest.approx(np.sqrt(32) / 10)

    def test_matches_naive_sum_large_k(self):
        eps = NoiseModel.mild(1.0)
        k, n = 10 ** 4, 100
        naive = np.sqrt(2.0 * sum(float(j) ** 4 for j in range(1, k + 1))) / n
        assert nu_k_sq(eps, n, k) == pytest.approx(naive, rel=1e-12)

    def test_monotone_in_k(self):
        eps = NoiseModel.mild(1.0)
        vals = [nu_k_sq(eps, 50, k) for k in range(1, 10)]
        assert np.all(np.diff(vals) > 0)


class TestCalibration:
    def test_default_constants(self):
        eps = NoiseModel.mild(1.0, sup_norm_value=1.0)
        cal = calibrate(0.05, eps, R=1.0)
        assert cal.C_alpha == pytest.approx(120.0)
        assert cal.A_bar == pytest.approx(np.sqrt(1.0 + cal.A_tilde ** 2))

    def test_moderate_level(self):
        eps = NoiseModel.mild(1.0, sup_norm_value=1.0)
        cal = calibrate(0.5, eps, R=1.0)
        assert cal.C_alpha == pytest.approx(12.0)
        # both guarantee inequalities hold by construction (checked in init)

    def test_threshold_constant_floor(self):
        eps = NoiseModel.mild(1.0, sup_norm_value=1.0)
        assert calibrate(0.999, eps, R=1.0).C_alpha >= 6.0

    def test_rejects_bad_alpha(self):
        eps = NoiseModel.mild(1.0, sup_norm_value=1.0)
        with pytest.raises(CalibrationError):
            calibrate(0.0, eps, R=1.0)
        with pytest.raises(CalibrationError):
            calibrate(1.0, eps, R=1.0)

    def test_custom_calibration_verified(self):
        eps = NoiseModel.mild(1.0, sup_norm_value=1.0)
        # too-small constants violate the type I inequality
        with pytest.raises(CalibrationError):
            custom_calibration(0.05, C_alpha=2.0, A_tilde=100.0, eps=eps, R=1.0)
        # the default calibrate() values pass
        ref = calibrate(0.05, eps, R=1.0)
        cal = custom_calibration(0.05, ref.C_alpha, ref.A_tilde, eps, R=1.0)
        assert cal.A_bar == pytest.approx(ref.A_bar)

    def test_a_tilde_must_exceed_c(self):
        eps = NoiseModel.mild(1.0, sup_norm_value=1.0)
        with pytest.raises(CalibrationError):
            custom_calibration(0.5, C_alpha=12.0, A_tilde=10.0, eps=eps, R=1.0)


class TestRunTest:
    def test_degenerate_sample_rejects(self):
        eps = NoiseModel.from_density(FourierDensity.from_tail(np.full(4, 0.9999)))
        cal = calibrate(0.05, NoiseModel.mild(1.0, sup_norm_value=1.0), R=1.0)
        res = run_test(np.zeros(100), eps, 1, cal)
        assert res.rejected
        assert res.statistic == pytest.approx(2.0, rel=1e-3)

    def test_result_consistency_enforced(self):
        from circdeconv.testing import TestResult

        with pytest.raises(ValueError):
            TestResult(statistic=5.0, threshold=1.0, decision="accept_null", k=1, nu_k_sq=0.1)

    def test_threshold_positive(self):
        eps = NoiseModel.mild(1.0, sup_norm_value=1.0)
        cal = calibrate(0.1, eps, R=1.0)
        res = run_test(Rng(0).generator().random(50), eps, 3, cal)
        assert res.threshold > 0

    def test_type_one_error_controlled(self):
        eps = NoiseModel.mild(1.0, sup_norm_value=1.0)
        alpha = 0.1
        cal = calibrate(alpha, eps, R=1.0)
        n = 200
        k = optimal_dim_est(SmoothnessClass.ordinary(1.0), eps, n, 1000)
        y = Rng(13).generator().random((3000, n))
        thr = cal.C_alpha * nu_k_sq(eps, n, k)
        rej = np.mean(estimate_q_batch(y, eps, k) >= thr)
        assert rej <= alpha + 3 * np.sqrt(alpha * (1 - alpha) / 3000)


class TestRadiusUpper:
    def test_is_max_of_components(self):
        cls = SmoothnessClass.ordinary(1.0)
        eps = NoiseModel.mild(1.0)
        for k in (1, 3, 10):
            expected = max(float(k) ** -2.0, nu_k_sq(eps, 100, k))
            assert radius_upper(cls, eps, 100, k) == pytest.approx(expected)

    def test_crossing_structure(self):
        cls = SmoothnessClass.ordinary(1.0)
        eps = NoiseModel.mild(1.0)
        n = 10 ** 4
        # bias dominant at tiny k, fluctuation dominant at huge k
        assert radius_upper(cls, eps, n, 1) == pytest.approx(1.0)
        assert radius_upper(cls, eps, n, 200) == pytest.approx(nu_k_sq(eps, n, 200))

    def test_minimum_at_kappa_star_matches_scan(self):
        cls = SmoothnessClass.ordinary(1.0)
        eps = NoiseModel.mild(1.0)
        n = 10 ** 3
        scan = min(radius_upper(cls, eps, n, k) for k in range(1, 200))
        kappa = optimal_dim_est(cls, eps, n, 10 ** 4)
        near = min(radius_upper(cls, eps, n, k) for k in (kappa - 1, kappa))
        assert near == pytest.approx(scan)

    def test_dominates_nu(self):
        cls = SmoothnessClass.ordinary(1.0)
        eps = NoiseModel.mild(1.0)
        for k in range(1, 30):
            assert radius_upper(cls, eps, 500, k) >= nu_k_sq(eps, 500, k)
