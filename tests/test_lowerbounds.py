import numpy as np
import pytest

from circdeconv.errors import ConditionViolation
from circdeconv.fourier import (
    NoiseModel,
    SmoothnessClass,
    ellipsoid_membership,
    l1_certified,
    observed_density,
    quadratic_functional,
)
from circdeconv.lowerbounds import (
    build_hypercube,
    build_two_point,
    chi2_mixture_bound,
    cube_product_identity,
    exact_mixture_chi2,
    hellinger_reduction_bound,
)
from circdeconv.lowerbounds import testing_to_estimation_lb as to_estimation_lb
from circdeconv.rates import find_eta, numeric_rate_scan, optimal_two_point_freq, radius_upper
from circdeconv.sampling import sample_batch

CLS = SmoothnessClass.ordinary(1.0)
EPS = NoiseModel.mild(1.0)


def _observed_magnitudes(fam):
    """theta_j |eps_j|: the observed coefficients of the all-plus vertex."""
    return observed_density(fam.vertex(np.ones(fam.kappa)), EPS).coeffs[1:].real


class TestHypercube:
    def test_all_conditions_pass_canonical(self):
        fam = build_hypercube(CLS, EPS, 1000, 0.05)
        assert fam.kappa >= 1
        for vertex in fam.vertices():
            assert l1_certified(vertex.coeffs[1:])
            member, _ = ellipsoid_membership(vertex, CLS)
            assert member
            assert quadratic_functional(vertex) == pytest.approx(fam.separation_sq, rel=1e-12)

    @pytest.mark.parametrize(
        "cls, eps, n",
        [(CLS, EPS, 2 ** e) for e in range(8, 17)]
        + [
            (SmoothnessClass.supersmooth(0.5), NoiseModel.severe(0.25), 2 ** e)
            for e in (36, 38, 40)
        ],
    )
    def test_rho_star_from_the_rate_functions(self, cls, eps, n):
        fam = build_hypercube(cls, eps, n, 0.05)
        assert fam.eta == find_eta(cls, eps, n)
        assert fam.rho_star_sq == radius_upper(cls, eps, n, fam.kappa)
        # max(a^2, nu^2) at kappa* is at least its minimum over k
        assert fam.rho_star_sq >= numeric_rate_scan(cls, eps, [n])[0].rho_star_sq

    def test_separation_identity_exact(self):
        fam = build_hypercube(CLS, EPS, 1000, 0.05)
        assert fam.separation_sq == pytest.approx(
            fam.zeta * fam.eta * fam.rho_star_sq, rel=1e-12
        )
        assert fam.a_lower_sq == pytest.approx(fam.zeta * fam.eta)

    def test_similarity_within_budget(self):
        for alpha in (0.05, 0.2, 0.5):
            fam = build_hypercube(CLS, EPS, 500, alpha)
            assert fam.similarity <= np.log(1 + 2 * alpha ** 2) + 1e-10

    def test_vertices_collapse_as_alpha_vanishes(self):
        big = build_hypercube(CLS, EPS, 1000, 0.5)
        small = build_hypercube(CLS, EPS, 1000, 1e-4)
        assert small.zeta < big.zeta
        assert small.separation_sq < big.separation_sq * 1e-2

    def test_vertex_signature_validation(self):
        fam = build_hypercube(CLS, EPS, 1000, 0.05)
        with pytest.raises(ValueError):
            fam.vertex(np.zeros(fam.kappa))

    def test_mixture_sampling_first_moment(self):
        fam = build_hypercube(CLS, EPS, 200, 0.5)
        gen = np.random.default_rng(21)
        taus = gen.choice([-1.0, 1.0], size=(400, fam.kappa))
        y = sample_batch(taus * _observed_magnitudes(fam), 100, gen)
        assert y.shape == (400, 100)
        # mixing over signs kills the first moment of cos at every frequency
        emp = np.mean(np.cos(2 * np.pi * y))
        assert abs(emp) < 0.01

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            build_hypercube(CLS, EPS, 100, 0.0)


class TestChi2Bound:
    def test_zero_theta(self):
        assert chi2_mixture_bound(np.zeros(3), 10) == 0.0

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            chi2_mixture_bound(np.array([10.0]), 100)

    def test_dominates_exact_small_cases(self):
        for n in (1, 2):
            for kappa in (1, 2):
                for t in (0.05, 0.15, 0.3):
                    theta = np.full(kappa, t)
                    exact = exact_mixture_chi2(theta, n)
                    assert exact >= -1e-12
                    assert exact <= chi2_mixture_bound(theta, n) + 1e-12

    def test_exact_chi2_nonnegative_and_zero_at_null(self):
        assert exact_mixture_chi2(np.zeros(2), 2) == pytest.approx(0.0, abs=1e-12)

    def test_mc_estimate_consistent_with_family(self):
        fam = build_hypercube(CLS, EPS, 40, 0.3)
        if fam.kappa <= 3:
            theta = _observed_magnitudes(fam)
            est = exact_mixture_chi2(theta, 2)
            assert 0 <= est <= chi2_mixture_bound(theta, 2) + 1e-12

    def test_size_limits(self):
        with pytest.raises(ValueError):
            exact_mixture_chi2(np.zeros(4), 1)
        with pytest.raises(ValueError):
            exact_mixture_chi2(np.zeros(1), 4)


class TestCubeIdentity:
    def test_base_case(self):
        lhs, rhs = cube_product_identity([2.0], [4.0])
        assert lhs == rhs == 3.0

    def test_annihilation(self):
        lhs, rhs = cube_product_identity([1.0, 5.0], [1.0, -5.0])
        assert rhs == 0.0 and abs(lhs) < 1e-12

    def test_random_instances(self):
        gen = np.random.default_rng(31)
        for _ in range(50):
            k = int(gen.integers(1, 9))
            jp = gen.uniform(-2, 2, k)
            jm = gen.uniform(-2, 2, k)
            lhs, rhs = cube_product_identity(jp, jm)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            cube_product_identity(np.ones(21), np.ones(21))


class TestTwoPoint:
    def test_conditions_pass_at_optimal_frequency(self):
        for n in (100, 1000):
            m = optimal_two_point_freq(CLS, EPS, n)
            pair = build_two_point(CLS, EPS, n, m)
            assert l1_certified(pair.f_plus.coeffs[1:])
            assert l1_certified(pair.f_minus.coeffs[1:])
            member, _ = ellipsoid_membership(pair.f_plus, CLS)
            assert member

    def test_separation_identity(self):
        pair = build_two_point(CLS, EPS, 1000, 3)
        p2 = quadratic_functional(pair.f_plus)
        q2 = quadratic_functional(pair.f_minus)
        assert (p2 - q2) ** 2 == pytest.approx(
            64 * pair.xi ** 2 * pair.C ** 4 * pair.a_m ** 4, rel=1e-12
        )

    def test_xi_clamps_to_one(self):
        # n a_m^2 |eps_m|^2 <= 1 forces xi = 1
        pair = build_two_point(CLS, EPS, 10, 5)
        assert 10 * pair.a_m ** 2 * pair.eps_m ** 2 <= 1
        assert pair.xi == 1.0

    def test_amplitude_constant(self):
        pair = build_two_point(CLS, EPS, 100, 2)
        assert pair.C == pytest.approx(min(0.25, 1.0 / np.sqrt(8.0)))

    def test_violation_reported_with_condition_label(self):
        big = SmoothnessClass.ordinary(1.0, radius=1.0, scale=3.0)
        with pytest.raises(ConditionViolation) as exc:
            build_two_point(big, EPS, 10, 1)
        assert exc.value.condition.startswith("(")


class TestReductions:
    def test_hellinger_bound_structure(self):
        pair = build_two_point(CLS, EPS, 1000, optimal_two_point_freq(CLS, EPS, 1000))
        lb = hellinger_reduction_bound(pair, 1000)
        # with condition (h) the damping factor is at least 1/2
        assert lb >= pair.separation_sq / 16 - 1e-15
        assert lb <= pair.separation_sq / 8 + 1e-15

    def test_hellinger_zero_for_equal_hypotheses(self):
        pair = build_two_point(CLS, EPS, 10, 50)
        # at large m with xi = 1 the minus hypothesis is uniform, plus is not;
        # zero separation only if xi = 0, so build a degenerate check directly
        from dataclasses import replace

        degenerate = replace(pair, separation_sq=0.0)
        assert hellinger_reduction_bound(degenerate, 10) == 0.0

    def test_testing_to_estimation_formula(self):
        assert to_estimation_lb(0.1, 0.5, 1.0) == pytest.approx(0.000625)
        assert to_estimation_lb(0.0, 0.5, 1.0) == 0.0

    def test_estimation_lb_constant_at_half(self):
        # plugging the hypercube separation constant at alpha = 1/2
        # reproduces the closed-form constant eta^2 (R^4 ^ log(3/2)) / 16
        alpha = 0.5
        fam = build_hypercube(CLS, EPS, 1000, alpha)
        rho_sq = fam.rho_star_sq
        lb = to_estimation_lb(rho_sq, alpha, np.sqrt(fam.a_lower_sq))
        l_a = CLS.l_a
        zeta = min(1.0, np.sqrt(np.log(1.5)), 1.0 / l_a)
        expected = (1 - alpha) / 8.0 * fam.eta * zeta * rho_sq ** 2
        assert lb == pytest.approx(expected, rel=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            to_estimation_lb(0.1, 1.5, 1.0)
        with pytest.raises(ValueError):
            to_estimation_lb(-0.1, 0.5, 1.0)
