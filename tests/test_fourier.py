import numpy as np
import pytest

from circdeconv.fourier import (
    FourierDensity,
    NoiseModel,
    SmoothnessClass,
    convolve,
    ellipsoid_membership,
    observed_density,
    quadratic_functional,
    truncated_functional,
    truncated_functional_observed,
)
from circdeconv.errors import ClassNotSummable, InvalidDensityError


class TestFourierDensity:
    def test_uniform_has_unit_mass_only(self):
        f = FourierDensity.uniform()
        assert f.max_freq == 0
        assert f.evaluate(0.3) == 1.0

    def test_f0_must_be_one(self):
        with pytest.raises(InvalidDensityError):
            FourierDensity(np.array([0.5, 0.1], dtype=complex))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidDensityError):
            FourierDensity(np.array([1.0, np.inf], dtype=complex))

    def test_rejects_empty_and_2d(self):
        with pytest.raises(InvalidDensityError):
            FourierDensity(np.array([], dtype=complex))
        with pytest.raises(InvalidDensityError):
            FourierDensity(np.ones((2, 2), dtype=complex))

    def test_coeffs_immutable(self):
        f = FourierDensity.from_tail([0.2])
        with pytest.raises(ValueError):
            f.coeffs[1] = 0.5

    def test_evaluate_matches_direct_sum(self):
        rng = np.random.default_rng(11)
        tail = 0.1 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        f = FourierDensity.from_tail(tail)
        xs = rng.random(20)
        coeffs = np.concatenate([np.conj(tail[::-1]), [1.0], tail])
        js = np.arange(-5, 6)
        direct = np.array(
            [np.real(np.sum(coeffs * np.exp(2j * np.pi * js * x))) for x in xs]
        )
        assert np.allclose(f.evaluate(xs), direct, atol=1e-12)

    def test_evaluate_scalar_returns_float(self):
        f = FourierDensity.from_tail([0.3])
        v = f.evaluate(0.25)
        assert isinstance(v, float)
        assert v == pytest.approx(1.0 + 0.6 * np.cos(np.pi / 2), abs=1e-12)

    def test_evaluate_grid_matches_evaluate(self):
        # on the grid m / 64 the series is an inverse FFT of the coefficients
        rng = np.random.default_rng(3)
        tail = 0.05 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        f = FourierDensity.from_tail(tail)
        spec = np.zeros(33, dtype=complex)
        spec[:9] = f.coeffs
        grid = np.fft.irfft(spec, 64) * 64
        assert np.allclose(grid, f.evaluate(np.arange(64) / 64), atol=1e-10)

    def test_integrates_to_one(self):
        f = FourierDensity.from_tail([0.3, 0.1j])
        grid = f.evaluate(np.arange(256) / 256)
        assert np.mean(grid) == pytest.approx(1.0, abs=1e-12)

    def test_l1_certificate(self):
        assert FourierDensity.from_tail([0.25, 0.25]).certified_nonnegative
        assert not FourierDensity.from_tail([0.6]).certified_nonnegative

    def test_sup_norm_bound_dominates_grid(self):
        f = FourierDensity.from_tail([0.2, 0.1])
        assert f.sup_norm_bound() >= np.max(f.evaluate(np.arange(256) / 256))

    def test_json_round_trip(self):
        f = FourierDensity.from_tail([0.2 + 0.1j, -0.05])
        assert FourierDensity.from_json(f.to_json()) == f

    def test_json_dict_inconsistent_max_freq(self):
        d = FourierDensity.from_tail([0.2]).to_json_dict()
        d["max_freq"] = 3
        with pytest.raises(InvalidDensityError):
            FourierDensity.from_json_dict(d)


class TestFunctionals:
    def test_convolve_multiplies_coefficients(self):
        f = FourierDensity.from_tail([0.4, 0.2])
        e = FourierDensity.from_tail([0.5, 0.5, 0.5])
        g = convolve(f, e)
        assert g.max_freq == 2
        assert np.allclose(g.coeffs[1:], [0.2, 0.1])

    def test_quadratic_functional_uniform_zero(self):
        assert quadratic_functional(FourierDensity.uniform(4)) == 0.0

    def test_quadratic_functional_parseval(self):
        # q(f) = ||f - 1||^2: compare with the numeric L2 norm on a grid
        f = FourierDensity.from_tail([0.3, 0.1])
        grid = f.evaluate(np.arange(512) / 512)
        numeric = np.mean((grid - 1.0) ** 2)
        assert quadratic_functional(f) == pytest.approx(numeric, abs=1e-12)

    def test_truncated_functional_partial_sum(self):
        f = FourierDensity.from_tail([0.3, 0.2, 0.1])
        assert truncated_functional(f, 2) == pytest.approx(2 * (0.09 + 0.04))
        assert truncated_functional(f, 10) == pytest.approx(quadratic_functional(f))
        with pytest.raises(ValueError):
            truncated_functional(f, 0)

    def test_observed_form_agrees_under_convolution(self):
        f = FourierDensity.from_tail([0.3, 0.2])
        eps = NoiseModel.mild(1.0, max_freq=4)
        g = convolve(f, eps.density)
        assert truncated_functional_observed(g, eps, 2) == pytest.approx(
            truncated_functional(f, 2), abs=1e-12
        )

    def test_observed_density_refuses_to_truncate(self):
        eps = NoiseModel.mild(1.0, max_freq=2)
        # zeros above the noise density's max_freq are dropped exactly
        g = observed_density(FourierDensity.from_tail([0.4, 0.2, 0.0]), eps)
        assert np.allclose(g.coeffs[1:], [0.4, 0.1])
        with pytest.raises(InvalidDensityError, match="frequency 3.*max_freq 2"):
            observed_density(FourierDensity.from_tail([0.4, 0.2, 0.1]), eps)
        # a sequence-only model has no max_freq to exceed
        g = observed_density(FourierDensity.from_tail([0.4, 0.2, 0.1]), NoiseModel.mild(1.0))
        assert np.allclose(g.coeffs[1:], [0.4, 0.1, 0.1 / 3])

    def test_ellipsoid_membership(self):
        cls = SmoothnessClass.ordinary(1.0, radius=1.0)
        inside, lhs = ellipsoid_membership(FourierDensity.from_tail([0.1]), cls)
        assert inside and lhs == pytest.approx(0.02)
        outside, _ = ellipsoid_membership(FourierDensity.from_tail([0.9]), cls)
        assert not outside


class TestSmoothnessClass:
    def test_ordinary_requires_s_above_half(self):
        with pytest.raises(ValueError):
            SmoothnessClass.ordinary(0.5)
        SmoothnessClass.ordinary(0.51)

    def test_super_requires_positive_s(self):
        with pytest.raises(ValueError):
            SmoothnessClass.supersmooth(0.0)

    def test_sequences(self):
        j = np.arange(1, 5)
        assert np.allclose(SmoothnessClass.ordinary(2.0).a(j), j ** -2.0)
        assert np.allclose(SmoothnessClass.supersmooth(1.0).a(j), np.exp(-j))
        assert np.allclose(SmoothnessClass.ordinary(1.0, scale=2.0).a(j), 2.0 / j)

    def test_monotone_check(self):
        assert SmoothnessClass.ordinary(1.0).check_monotone(100)
        growing = SmoothnessClass.from_sequence(lambda j: j.astype(float))
        assert not growing.check_monotone(10)

    def test_l_a_zeta_matches_direct_sum(self):
        cls = SmoothnessClass.ordinary(1.5)
        direct = 2.0 * np.sum(np.arange(1, 10 ** 6, dtype=float) ** -3.0)
        assert cls.l_a() == pytest.approx(direct, rel=1e-6)

    def test_l_a_supersmooth_converges(self):
        assert SmoothnessClass.supersmooth(1.0).l_a(truncation=100) == pytest.approx(
            2.0 * np.sum(np.exp(-2.0 * np.arange(1, 101))), rel=1e-12
        )

    def test_l_a_divergent_explicit_rejected(self):
        slow = SmoothnessClass.from_sequence(lambda j: j ** -0.4)
        with pytest.raises(ClassNotSummable):
            slow.l_a(truncation=10 ** 4)

    def test_a_indexed_from_one(self):
        with pytest.raises(ValueError):
            SmoothnessClass.ordinary(1.0).a(np.array([0]))


class TestNoiseModel:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NoiseModel.mild(0.5)
        with pytest.raises(ValueError):
            NoiseModel.severe(0.0)
        with pytest.raises(ValueError):
            NoiseModel.mild(1.0, scale=1.5)  # |eps_j| <= 1 for densities

    def test_modulus_sequences(self):
        j = np.arange(1, 4)
        assert np.allclose(NoiseModel.mild(2.0).modulus(j), j ** -2.0)
        assert np.allclose(NoiseModel.severe(1.0).modulus(j), np.exp(-j))

    def test_explicit_from_density(self):
        eps = NoiseModel.from_density(FourierDensity.from_tail([0.3, 0.1]))
        assert np.allclose(eps.modulus(np.array([1, 2])), [0.3, 0.1])
        with pytest.raises(ValueError):
            eps.modulus(np.array([3]))

    def test_explicit_rejects_vanishing_coefficients(self):
        with pytest.raises(ValueError):
            NoiseModel.from_density(FourierDensity.from_tail([0.3, 0.0]))

    def test_sup_norm_paths(self):
        # explicit value wins
        assert NoiseModel.mild(1.0, sup_norm_value=2.0).sup_norm == 2.0
        # density-backed bound
        eps = NoiseModel.mild(1.0, scale=0.1, max_freq=4)
        assert eps.sup_norm == pytest.approx(eps.density.sup_norm_bound())
        # severe sequence-only converges
        assert NoiseModel.severe(1.0).sup_norm == pytest.approx(
            1.0 + 2.0 * np.exp(-1) / (1 - np.exp(-1)), rel=1e-6
        )
        # mild sequence-only has no computable bound
        with pytest.raises(ValueError):
            NoiseModel.mild(1.0).sup_norm
