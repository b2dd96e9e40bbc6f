import numpy as np
import pytest

from circdeconv.errors import DimensionNotFound
from circdeconv.estimation import estimate_q_batch
from circdeconv.fourier import (
    FourierDensity,
    NoiseModel,
    SmoothnessClass,
    observed_density,
    quadratic_functional,
)
from circdeconv.lowerbounds import build_hypercube
from circdeconv.rates import (
    M_MAX,
    base_term,
    find_eta,
    fit_log_rate,
    fit_rate,
    nu_k_sq,
    numeric_rate_scan,
    optimal_dim_est,
    optimal_two_point_freq,
    risk_upper_bound,
    theoretical_estimation_rate,
    theoretical_testing_radius,
)
from circdeconv.sampling import sample_batch

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


class TestOptimalDim:
    def test_error_when_bias_never_crosses(self):
        flat = SmoothnessClass.from_sequence(lambda j: np.ones_like(j, dtype=float))
        # direct observations (|eps_j| = 1): variance proxy 2k/n^2 stays
        # below the non-decaying bias for every k <= max_freq = 60
        eps = NoiseModel.from_density(FourierDensity.from_tail(np.full(60, 0.999)))
        with pytest.raises(DimensionNotFound):
            optimal_dim_est(flat, eps, 100)

    def test_matches_exhaustive_scan(self):
        cls = SmoothnessClass.ordinary(1.0)
        eps = NoiseModel.mild(1.0)
        n = 10 ** 4
        k = optimal_dim_est(cls, eps, n)
        ks = np.arange(1, 10 ** 4 + 1)
        a4 = ks ** -4.0
        rhs = 2.0 * np.cumsum(ks ** 4.0) / n ** 2
        expected = int(np.nonzero(a4 <= rhs)[0][0]) + 1
        assert k == expected

    def test_growth_exponent(self):
        cls = SmoothnessClass.ordinary(1.0)
        eps = NoiseModel.mild(1.0)
        ns = [2 ** e for e in range(8, 21)]
        kappas = [optimal_dim_est(cls, eps, n) for n in ns]
        slope, _, _ = fit_rate(ns, kappas)
        assert slope == pytest.approx(2.0 / 9.0, abs=0.03)


class TestFindEta:
    CLS = SmoothnessClass.ordinary(1.0)
    EPS = NoiseModel.mild(1.0)

    def test_in_unit_interval_across_grid(self):
        etas = [find_eta(self.CLS, self.EPS, 2 ** e) for e in range(8, 21)]
        assert all(0 < e <= 1 for e in etas)
        # bounded below by a constant across the grid
        assert min(etas) > 0.1

    def test_explicit_ratio_small_n(self):
        n = 4
        kappa = optimal_dim_est(self.CLS, self.EPS, n)
        a2 = float(self.CLS.a(np.array([kappa]))[0]) ** 2
        nu2 = nu_k_sq(self.EPS, n, kappa)
        assert find_eta(self.CLS, self.EPS, n) == pytest.approx(min(a2, nu2) / max(a2, nu2))

    def test_balanced_case_equals_one(self):
        # a_j and nu constructed to cross exactly at kappa* = 1
        cls = SmoothnessClass.from_sequence(lambda j: np.sqrt(np.sqrt(2.0)/10) * j ** -1.0)
        eps = NoiseModel.from_density(
            FourierDensity.from_tail(np.full(40, 0.9999))
        )
        # nu_1^2 = sqrt(2)/n * (1/eps^2) ~ sqrt(2)/10 at n = 10; a_1^2 = sqrt(2)/10
        assert find_eta(cls, eps, 10) == pytest.approx(1.0, rel=1e-3)


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
        k = optimal_dim_est(cls, eps, n)
        bd = risk_upper_bound(cls, eps, n, k)
        # stress densities inside the ellipsoid
        for tail in ([0.25], [0.2, 0.1], [0.1, 0.1, 0.05]):
            f = FourierDensity.from_tail(tail)
            g = observed_density(f, eps)
            draws = sample_batch(g.coeffs[np.newaxis, 1:], 400 * n, np.random.default_rng(12))
            y = draws.reshape(400, n)
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
