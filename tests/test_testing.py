import numpy as np
import pytest

from circdeconv.errors import CalibrationError
from circdeconv.estimation import estimate_q_batch
from circdeconv.fourier import FourierDensity, NoiseModel, SmoothnessClass
from circdeconv.rates import nu_k_sq, optimal_dim_est, radius_upper
from circdeconv.sampling import Rng
# renamed: pytest would collect the name, and a test class below takes it
from circdeconv.testing import TestCalibration as Calibration
from circdeconv.testing import TestResult as Result
from circdeconv.testing import calibrate, run_test


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
            Calibration(0.05, C_alpha=2.0, A_tilde=100.0, A_bar=100.0, eps_sup=eps.sup_norm)
        # the default calibrate() values pass, with A_bar^2 = R^2 + A_tilde^2
        ref = calibrate(0.05, eps, R=1.0)
        a_bar = float(np.sqrt(1.0 + ref.A_tilde ** 2))
        cal = Calibration(0.05, ref.C_alpha, ref.A_tilde, a_bar, eps_sup=eps.sup_norm)
        assert cal.A_bar == pytest.approx(ref.A_bar)

    @pytest.mark.parametrize(
        "constants",
        [
            {"C_alpha": np.nan, "A_tilde": 1e4, "eps_sup": 1.0},
            {"C_alpha": 120.0, "A_tilde": np.nan, "eps_sup": 1.0},
            {"C_alpha": 120.0, "A_tilde": 1e4, "eps_sup": np.nan},
        ],
        ids=["C_alpha", "A_tilde", "eps_sup"],
    )
    def test_nan_constant_refused(self, constants):
        with pytest.raises(CalibrationError):
            Calibration(0.05, A_bar=1e4, **constants)

    @pytest.mark.parametrize("R", [np.nan, -3.0, 0.0, np.inf])
    def test_bad_radius_refused(self, R):
        eps = NoiseModel.mild(1.0, max_freq=64)
        with pytest.raises(CalibrationError, match="R must be finite and positive"):
            calibrate(0.05, eps, R)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, 1 - 1e-9], ids=["nan", "inf", "below"])
    def test_bad_a_bar_refused(self, scale):
        ref = calibrate(0.05, NoiseModel.mild(1.0, sup_norm_value=1.0), R=1.0)
        a_bar = ref.A_tilde * scale
        with pytest.raises(CalibrationError, match="A_bar must be finite"):
            Calibration(0.05, ref.C_alpha, ref.A_tilde, a_bar, eps_sup=ref.eps_sup)

    def test_a_tilde_must_exceed_c(self):
        eps = NoiseModel.mild(1.0, sup_norm_value=1.0)
        with pytest.raises(CalibrationError):
            Calibration(0.5, C_alpha=12.0, A_tilde=10.0, A_bar=10.0, eps_sup=eps.sup_norm)


class TestRunTest:
    def test_degenerate_sample_rejects(self):
        eps = NoiseModel.from_density(FourierDensity.from_tail(np.full(4, 0.9999)))
        cal = calibrate(0.05, NoiseModel.mild(1.0, sup_norm_value=1.0), R=1.0)
        res = run_test(np.zeros(100), eps, 1, cal)
        assert res.rejected
        assert res.statistic == pytest.approx(2.0, rel=1e-3)

    def test_tie_rejects(self):
        res = Result(statistic=1.0, threshold=1.0, k=1, nu_k_sq=0.1)
        assert res.decision == "reject_null"
        assert res.rejected

    def test_threshold_is_c_alpha_nu_k_sq(self):
        eps = NoiseModel.mild(1.0, sup_norm_value=1.0)
        cal = calibrate(0.1, eps, R=1.0)
        res = run_test(Rng(1).generator().random(50), eps, 3, cal)
        assert res.threshold == cal.threshold(eps, 50, 3) == cal.C_alpha * nu_k_sq(eps, 50, 3)
        assert res.nu_k_sq == nu_k_sq(eps, 50, 3)

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
        k = optimal_dim_est(SmoothnessClass.ordinary(1.0), eps, n)
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
        kappa = optimal_dim_est(cls, eps, n)
        near = min(radius_upper(cls, eps, n, k) for k in (kappa - 1, kappa))
        assert near == pytest.approx(scan)

    def test_dominates_nu(self):
        cls = SmoothnessClass.ordinary(1.0)
        eps = NoiseModel.mild(1.0)
        for k in range(1, 30):
            assert radius_upper(cls, eps, 500, k) >= nu_k_sq(eps, 500, k)
