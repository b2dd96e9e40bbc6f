import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from scipy.special import zeta

from circdeconv import fourier
from circdeconv.fourier import (
    FourierDensity,
    NoiseModel,
    SmoothnessClass,
    ellipsoid_membership,
    l1_certified,
    observed_density,
    quadratic_functional,
    truncated_functional,
)
from circdeconv.errors import ClassNotSummable, InvalidDensityError


class TestFourierDensity:
    def test_uniform_has_unit_mass_only(self):
        f = FourierDensity.uniform()
        assert f.max_freq == 0
        assert f.evaluate(0.3) == 1.0 and type(f.evaluate(0.3)) is float
        assert np.array_equal(f.evaluate([0.1, 0.7]), [1.0, 1.0])

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
        assert l1_certified(FourierDensity.from_tail([0.25, 0.25]).coeffs[1:])
        assert not l1_certified(FourierDensity.from_tail([0.6]).coeffs[1:])

    def test_sup_norm_bound_dominates_grid(self):
        f = FourierDensity.from_tail([0.2, 0.1])
        sup_norm = NoiseModel.from_density(f).sup_norm
        assert sup_norm == 1.0 + f.l1_tail
        assert sup_norm >= np.max(f.evaluate(np.arange(256) / 256))

    def test_value_equality(self):
        assert len({FourierDensity.from_tail([0.1]), FourierDensity.from_tail([0.1])}) == 1
        assert FourierDensity.from_tail([0.1]) != FourierDensity.from_tail([0.2])
        assert FourierDensity.from_tail([0.1]) != FourierDensity.from_tail([0.1, 0.0])
        plus, minus = FourierDensity.from_tail([0.0]), FourierDensity.from_tail([-0.0])
        assert plus == minus and hash(plus) == hash(minus)

    def test_json_round_trip(self):
        f = FourierDensity.from_tail([0.2 + 0.1j, -0.05])
        d = json.loads(json.dumps(f.to_json_dict()))
        assert d == {"max_freq": 2, "coeffs": [[1.0, 0.0], [0.2, 0.1], [-0.05, 0.0]]}


class TestFunctionals:
    def test_convolve_multiplies_coefficients(self):
        f = FourierDensity.from_tail([0.4, 0.2])
        eps = NoiseModel.from_density(FourierDensity.from_tail([0.5, 0.5, 0.5]))
        g = observed_density(f, eps)
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
        # 2 sum_{j<=k} |g_j|^2 / |eps_j|^2 in observation space is the
        # truncated functional of f
        f = FourierDensity.from_tail([0.3, 0.2])
        eps = NoiseModel.mild(1.0, max_freq=4)
        g = observed_density(f, eps)
        j = np.arange(1, 3)
        observed = 2.0 * np.sum(np.abs(g.coeffs[j]) ** 2 / eps.modulus(j) ** 2)
        assert observed == pytest.approx(truncated_functional(f, 2), abs=1e-12)

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
        assert ellipsoid_membership(FourierDensity.uniform(), cls) == (True, 0.0)


class TestZeta:
    def test_matches_scipy(self):
        xs = np.concatenate([1.0 + np.logspace(-9, 0, 400), np.linspace(2.0, 200.0, 2000)])
        ours = np.array([fourier._zeta(x) for x in xs])
        assert np.max(np.abs(ours - zeta(xs)) / zeta(xs)) <= 2e-15

    def test_exact_at_two(self):
        # x = 2 gives l_a of the s = 1 ordinary class
        assert fourier._zeta(2.0) == zeta(2.0)


# each model parameter that must be finite, and a model built from its value
BUILD_WITH = {
    "s": lambda v: SmoothnessClass.supersmooth(v),
    "radius": lambda v: SmoothnessClass.ordinary(1.0, radius=v),
    "scale": lambda v: SmoothnessClass.ordinary(1.0, scale=v),
    "p": lambda v: NoiseModel.severe(v),
    "sup_norm_value": lambda v: NoiseModel.mild(1.0, sup_norm_value=v),
}


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", list(BUILD_WITH))
def test_non_finite_parameter_refused(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        BUILD_WITH[field](value)


def test_constants_summed_once(monkeypatch):
    calls = []
    real = fourier._sum_sequence

    def spy(seq):
        calls.append(seq)
        return real(seq)

    monkeypatch.setattr(fourier, "_sum_sequence", spy)
    cls = SmoothnessClass.supersmooth(1.0)
    assert cls.l_a == cls.l_a == cls.l_a
    eps = NoiseModel.severe(0.5)
    assert eps.sup_norm == eps.sup_norm == eps.sup_norm
    assert len(calls) == 2
    # a refused sum is not cached: every read raises
    slow = SmoothnessClass.from_sequence(lambda j: j ** -0.4)
    for _ in range(2):
        with pytest.raises(ClassNotSummable):
            slow.l_a
    assert len(calls) == 4


class TestSmoothnessClass:
    def test_ordinary_requires_s_above_half(self):
        with pytest.raises(ValueError):
            SmoothnessClass.ordinary(0.5)
        SmoothnessClass.ordinary(0.51)

    def test_super_requires_positive_s(self):
        with pytest.raises(ValueError):
            SmoothnessClass.supersmooth(0.0)
        with pytest.raises(ValueError):
            SmoothnessClass.supersmooth(-1.0)
        SmoothnessClass.supersmooth(0.1)

    def test_sequences(self):
        j = np.arange(1, 5)
        assert np.allclose(SmoothnessClass.ordinary(2.0).a(j), j ** -2.0)
        assert np.allclose(SmoothnessClass.supersmooth(1.0).a(j), np.exp(-j))
        assert np.allclose(SmoothnessClass.ordinary(1.0, scale=2.0).a(j), 2.0 / j)

    def test_l_a_zeta_matches_direct_sum(self):
        cls = SmoothnessClass.ordinary(1.5)
        direct = 2.0 * np.sum(np.arange(1, 10 ** 6, dtype=float) ** -3.0)
        assert cls.l_a == pytest.approx(direct, rel=1e-6)

    def test_l_a_supersmooth_converges(self):
        assert SmoothnessClass.supersmooth(1.0).l_a == pytest.approx(
            2.0 * np.sum(np.exp(-2.0 * np.arange(1, 101))), rel=1e-12
        )

    def test_l_a_divergent_explicit_rejected(self):
        slow = SmoothnessClass.from_sequence(lambda j: j ** -0.4)
        with pytest.raises(ClassNotSummable):
            slow.l_a

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
        assert NoiseModel.mild(0.51).kind == "mild"
        assert NoiseModel.severe(0.1).kind == "severe"

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
        # bound from the truncated density, which the model does not store
        eps = NoiseModel.mild(1.0, scale=0.1, max_freq=4)
        density = FourierDensity.from_tail(eps.modulus(np.arange(1, eps.max_freq + 1)))
        assert eps.sup_norm == 1.0 + density.l1_tail
        # severe sequence-only converges
        assert NoiseModel.severe(1.0).sup_norm == pytest.approx(
            1.0 + 2.0 * np.exp(-1) / (1 - np.exp(-1)), rel=1e-6
        )
        # mild sequence-only has no computable bound
        with pytest.raises(ValueError):
            NoiseModel.mild(1.0).sup_norm

    def test_severe_sup_norm_summed_to_convergence(self):
        j = np.arange(1, 10 ** 6 + 1, dtype=float)
        converged = 1.0 + 2.0 * float(np.sum(np.exp(-(j ** 0.3))))
        assert NoiseModel.severe(0.3).sup_norm == pytest.approx(converged, rel=1e-12)

    def test_severe_sup_norm_refuses_unsettled_sum(self):
        # exp(-j^0.1) is still 0.0187 at j = 10^6
        with pytest.raises(ClassNotSummable):
            NoiseModel.severe(0.1).sup_norm

    def test_value_equality(self):
        a, b = NoiseModel.mild(1.0, max_freq=4), NoiseModel.mild(1.0, max_freq=4)
        assert a == b and hash(a) == hash(b)
        assert a != NoiseModel.mild(1.0, max_freq=5)
        assert a != NoiseModel.mild(1.0)

    def test_refuses_density_without_frequency(self):
        with pytest.raises(ValueError, match="max_freq >= 1"):
            NoiseModel.mild(1.0, max_freq=0)
        with pytest.raises(ValueError, match="max_freq >= 1"):
            NoiseModel.severe(1.0, max_freq=-3)
        with pytest.raises(ValueError, match="tail is empty"):
            NoiseModel.from_density(FourierDensity.uniform())

    @pytest.mark.parametrize(
        "max_freq", [2.5, True, np.float64(3.5), np.inf],
        ids=["fraction", "bool", "np-fraction", "inf"],
    )
    def test_refuses_fractional_or_boolean_max_freq(self, max_freq):
        # 2.5 once built frequencies 1..3, and True built frequency 1
        with pytest.raises(ValueError, match="max_freq must be an integer"):
            NoiseModel.mild(1.0, max_freq=max_freq)

    @pytest.mark.parametrize(
        "max_freq, want", [(64.0, 64), (np.int64(3), 3)], ids=["float", "np-int"]
    )
    def test_integral_max_freq_stored_as_int(self, max_freq, want):
        eps = NoiseModel.mild(1.0, max_freq=max_freq)
        assert type(eps.max_freq) is int and eps == NoiseModel.mild(1.0, max_freq=want)
        assert eps.sup_norm == NoiseModel.mild(1.0, max_freq=want).sup_norm

    def test_named_kind_refuses_a_density(self):
        # its modulus is the named sequence, so a foreign density would be
        # sampled while q_hat_k deconvolves another noise
        density = FourierDensity.from_tail([0.4, 0.3])
        for kind in ("mild", "severe"):
            with pytest.raises(ValueError, match="takes no density"):
                NoiseModel(kind=kind, p=1.0, density=density)

    def test_explicit_max_freq_is_its_density(self):
        eps = NoiseModel.from_density(FourierDensity.from_tail([0.3, 0.1]))
        assert eps.max_freq == 2
        assert dataclasses.replace(eps) == eps
        with pytest.raises(ValueError, match="max_freq must be the density's, 2"):
            NoiseModel(kind="explicit", density=eps.density, max_freq=3)

    def test_truncation_builds_no_density(self):
        tracemalloc.start()
        try:
            eps = NoiseModel.mild(1.0, max_freq=10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the density array of 10^6 frequencies took 53.4 MiB to build
        assert eps.density is None and peak < 2 ** 20
