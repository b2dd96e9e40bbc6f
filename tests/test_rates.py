import numpy as np
import pytest

from circdeconv.fourier import FourierDensity, NoiseModel, SmoothnessClass
from circdeconv.lowerbounds import build_hypercube
from circdeconv.rates import (
    M_MAX,
    base_term,
    find_eta,
    fit_log_rate,
    fit_rate,
    numeric_rate_scan,
    optimal_dim_est,
    optimal_two_point_freq,
    risk_upper_bound,
    theoretical_estimation_rate,
    theoretical_testing_radius,
)

DYADIC = [2 ** e for e in range(8, 23)]


def regime(smoothness, s, noise, p):
    """The (SmoothnessClass, NoiseModel) pair of one rate-table row."""
    build = SmoothnessClass.ordinary if smoothness == "ordinary" else SmoothnessClass.supersmooth
    cls = build(s)
    eps = NoiseModel.mild(p) if noise == "mild" else NoiseModel.severe(p)
    return cls, eps


class TestTheoreticalTables:
    def test_estimation_ordinary_mild(self):
        rep = theoretical_estimation_rate(*regime("ordinary", 1.0, "mild", 1.0))
        assert rep.rate.n_exp == pytest.approx(-8.0 / 9.0)
        assert not rep.elbow

    def test_estimation_elbow(self):
        rep = theoretical_estimation_rate(*regime("ordinary", 2.0, "mild", 1.0))
        assert rep.elbow
        assert rep.rate.n_exp == pytest.approx(-1.0)

    def test_estimation_ordinary_severe(self):
        rep = theoretical_estimation_rate(*regime("ordinary", 1.0, "severe", 2.0))
        assert rep.rate.n_exp == 0.0
        assert rep.rate.log_exp == pytest.approx(-2.0)

    def test_estimation_super_mild_parametric(self):
        rep = theoretical_estimation_rate(*regime("super", 1.0, "mild", 1.0))
        assert rep.rate.n_exp == pytest.approx(-1.0)

    def test_testing_ordinary_mild(self):
        rep = theoretical_testing_radius(*regime("ordinary", 1.0, "mild", 1.0))
        assert rep.rate.n_exp == pytest.approx(-4.0 / 9.0)
        assert not rep.elbow

    def test_testing_never_has_elbow(self):
        for reg in (
            regime("ordinary", 2.0, "mild", 1.0),
            regime("ordinary", 1.0, "severe", 1.0),
            regime("super", 1.0, "mild", 1.0),
        ):
            assert not theoretical_testing_radius(*reg).elbow

    def test_testing_ordinary_severe(self):
        rep = theoretical_testing_radius(*regime("ordinary", 1.0, "severe", 1.0))
        assert rep.rate.log_exp == pytest.approx(-2.0)

    def test_testing_super_mild_log_factor(self):
        rep = theoretical_testing_radius(*regime("super", 1.0, "mild", 1.0))
        assert rep.rate.n_exp == pytest.approx(-1.0)
        assert rep.rate.log_exp == pytest.approx(2.5)

    def test_untabulated_regime_rejected(self):
        reg = regime("super", 1.0, "severe", 1.0)
        with pytest.raises(ValueError, match="no tabulated"):
            theoretical_estimation_rate(*reg)
        with pytest.raises(ValueError, match="no tabulated"):
            theoretical_testing_radius(*reg)

    def test_explicit_kinds_rejected(self):
        explicit_cls = SmoothnessClass.from_sequence(lambda j: j ** -2.0)
        explicit_eps = NoiseModel.from_density(FourierDensity.from_tail([0.3, 0.1]))
        for reg in (
            (explicit_cls, NoiseModel.mild(1.0)),
            (SmoothnessClass.ordinary(1.0), explicit_eps),
        ):
            with pytest.raises(ValueError, match="no tabulated"):
                theoretical_estimation_rate(*reg)
            with pytest.raises(ValueError, match="no tabulated"):
                theoretical_testing_radius(*reg)


class TestBaseTerm:
    def test_smooth_class_parametric(self):
        # s >= p: max attained at m = 1, B ~ a_1^2 / n
        cls = SmoothnessClass.ordinary(2.0)
        eps = NoiseModel.mild(1.0)
        b, m_star = base_term(cls, eps, 10 ** 4)
        assert m_star == 1
        assert b == pytest.approx(1.0 / 10 ** 4)

    def test_super_mild_parametric(self):
        cls = SmoothnessClass.supersmooth(1.0)
        eps = NoiseModel.mild(1.0)
        b, m_star = base_term(cls, eps, 10 ** 4)
        assert m_star <= 3
        slope, _, _ = fit_rate(DYADIC, [base_term(cls, eps, n)[0] for n in DYADIC])
        assert slope == pytest.approx(-1.0, abs=0.02)

    def test_matches_brute_force(self):
        cls = SmoothnessClass.ordinary(2.0)
        eps = NoiseModel.mild(1.0)
        n = 10 ** 4
        m = np.arange(1, 10 ** 6 + 1, dtype=float)
        brute = np.max(np.minimum(m ** -8.0, m ** -4.0 * m ** 2.0 / n))
        assert base_term(cls, eps, n)[0] == pytest.approx(brute)

    def test_warns_when_window_too_small(self):
        cls = SmoothnessClass.ordinary(0.6)
        eps = NoiseModel.mild(0.6)
        with pytest.warns(UserWarning, match=f"window end m = {M_MAX}"):
            base_term(cls, eps, 10 ** 12)


class TestNumericScan:
    def test_radius_slope_ordinary_mild(self):
        rows = numeric_rate_scan(SmoothnessClass.ordinary(1.0), NoiseModel.mild(1.0), DYADIC)
        slope, _, _ = fit_rate([r.n for r in rows], [r.rho_star_sq for r in rows])
        assert slope == pytest.approx(-4.0 / 9.0, abs=0.05)

    def test_estimation_slope_ordinary_mild(self):
        rows = numeric_rate_scan(SmoothnessClass.ordinary(1.0), NoiseModel.mild(1.0), DYADIC)
        slope, _, _ = fit_rate([r.n for r in rows], [r.estimation_bound for r in rows])
        assert slope == pytest.approx(-8.0 / 9.0, abs=0.05)

    def test_elbow_base_dominates(self):
        rows = numeric_rate_scan(SmoothnessClass.ordinary(2.0), NoiseModel.mild(1.0), DYADIC)
        assert all(r.base >= r.r_star4 for r in rows)
        slope, _, _ = fit_rate([r.n for r in rows], [r.estimation_bound for r in rows])
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_no_elbow_without_condition(self):
        rows = numeric_rate_scan(SmoothnessClass.ordinary(1.0), NoiseModel.mild(1.0), DYADIC)
        # r*^4 dominates the base term once n is moderately large
        assert all(r.r_star4 >= r.base for r in rows[2:])

    def test_severe_log_exponent_relative(self):
        # (log n)^{-4s/p} regimes: exponent recovered to 5% relative error
        rows = numeric_rate_scan(
            SmoothnessClass.ordinary(1.0), NoiseModel.severe(0.5), DYADIC
        )
        gamma, _ = fit_log_rate([r.n for r in rows], [r.estimation_bound for r in rows])
        target = -8.0  # -4s/p
        assert abs(gamma - target) <= 0.05 * abs(target)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            numeric_rate_scan(SmoothnessClass.ordinary(1.0), NoiseModel.mild(1.0), [256, 128])


class TestFitRate:
    def test_exact_power_law(self):
        ns = np.array(DYADIC, dtype=float)
        slope, log_exp, r2 = fit_rate(ns, 3.0 / ns)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_exact_power_law_with_log(self):
        ns = np.array(DYADIC, dtype=float)
        vals = ns ** -1.0 * np.log(ns) ** 2
        slope, log_exp, _ = fit_rate(ns, vals, log_log_term=True)
        assert slope == pytest.approx(-1.0, abs=1e-6)
        assert log_exp == pytest.approx(2.0, abs=1e-6)

    def test_rejects_nonpositive_and_short(self):
        with pytest.raises(ValueError):
            fit_rate([10, 20, 30, 40], [1.0, -1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            fit_rate([10, 20, 30], [1.0, 1.0, 1.0])

    def test_log_only_fit(self):
        ns = np.array(DYADIC, dtype=float)
        gamma, r2 = fit_log_rate(ns, np.log(ns) ** -3.0)
        assert gamma == pytest.approx(-3.0, abs=1e-12)
        assert r2 == pytest.approx(1.0)


class TestDerivedWindows:
    """Every scan cuts its window at an explicit noise model's max_freq,
    where the modulus sequence ends."""

    CLS = SmoothnessClass.ordinary(1.0)
    # 40 frequencies: modulus() is undefined above j = 40
    EPS = NoiseModel.from_density(FourierDensity.from_tail(0.4 * np.arange(1, 41.0) ** -1.0))

    def test_kappa_star_within_max_freq(self):
        assert optimal_dim_est(self.CLS, self.EPS, 1000) == 4
        assert 0 < find_eta(self.CLS, self.EPS, 1000) <= 1

    def test_base_term_scans(self):
        b, m_star = base_term(self.CLS, self.EPS, 1000)
        assert 1 <= m_star <= 40 and b > 0
        assert optimal_two_point_freq(self.CLS, self.EPS, 1000) == m_star
        bd = risk_upper_bound(self.CLS, self.EPS, 1000, 4)
        assert bd.variance_linear == b

    def test_rate_scan_and_hypercube(self):
        rows = numeric_rate_scan(self.CLS, self.EPS, [100, 1000])
        assert [r.kappa_star for r in rows] == [
            optimal_dim_est(self.CLS, self.EPS, n) for n in (100, 1000)
        ]
        assert build_hypercube(self.CLS, self.EPS, 1000, 0.05).kappa == 4

    def test_base_term_warning_names_window_end(self):
        # a_m^2 / (n |eps_m|^2) = 4 m^4 / n stays below a_m^4 = m^-4 up to
        # m ~ 27, so on 8 frequencies the maximum sits at the window end
        eps = NoiseModel.from_density(FourierDensity.from_tail(0.5 * np.arange(1, 9.0) ** -3.0))
        with pytest.warns(UserWarning, match="window end m = 8"):
            assert base_term(SmoothnessClass.ordinary(1.0), eps, 10 ** 12)[1] == 8
