import warnings

import numpy as np
import pytest
from scipy import stats

from circdeconv.cli import main as cli_main
from circdeconv.errors import CertificationError, IngestError
from circdeconv.fourier import FourierDensity, NoiseModel, l1_certified, observed_density
from circdeconv.ingest import CircularSample, ingest_circular_data
from circdeconv.sampling import sample_batch
from oracles import composition_draws


def _draw(f: FourierDensity, n: int, gen: np.random.Generator) -> np.ndarray:
    """n draws from f: the one row of a sample_batch call."""
    return sample_batch(f.coeffs[np.newaxis, 1:], n, gen)[0]


class _ScriptedGenerator:
    """Stands in for np.random.Generator: the first random draw is the given
    picks, every later one 0.5, and every integer draw 0, so each component
    gives its own value x = (1/2 + c_j) / j mod 1."""

    def __init__(self, picks):
        self.picks = picks

    def random(self, size=None, out=None):
        vals = np.full(out.shape if out is not None else size, 0.5)
        if self.picks is not None:
            vals[...], self.picks = self.picks, None
        if out is None:
            return vals
        out[...] = vals
        return out

    def integers(self, low, high, size=None):
        return np.zeros(np.shape(high) if size is None else size, dtype=np.int64)


class TestCircularSample:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CircularSample(np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            CircularSample(np.array([-0.1]))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                CircularSample(np.array([0.5, bad]))

    def test_values_frozen(self):
        s = CircularSample(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            s.values[0] = 0.9

    def test_values_copied(self):
        given = np.array([0.1, 0.2])
        s = CircularSample(given)
        given[0] = 0.9
        assert s.values[0] == 0.1 and not np.shares_memory(s.values, given)


class TestSampleDensity:
    def test_refuses_uncertified_density(self):
        with pytest.raises(CertificationError):
            _draw(FourierDensity.from_tail([0.8]), 10, np.random.default_rng(0))

    def test_values_in_range(self):
        vals = _draw(FourierDensity.from_tail([0.4]), 2000, np.random.default_rng(1))
        assert vals.min() >= 0.0 and vals.max() < 1.0

    def test_uniform_ks(self):
        vals = _draw(FourierDensity.uniform(), 4000, np.random.default_rng(2))
        assert stats.kstest(vals, "uniform").pvalue > 1e-3

    def test_nonuniform_ks_against_exact_cdf(self):
        # f(x) = 1 + 2 r cos(2 pi x) has CDF x + (r / pi) sin(2 pi x)
        r = 0.35
        vals = _draw(FourierDensity.from_tail([r]), 4000, np.random.default_rng(3))
        cdf = lambda x: x + r / np.pi * np.sin(2 * np.pi * x)
        assert stats.kstest(vals, cdf).pvalue > 1e-3

    def test_first_moment_matches_coefficient(self):
        # E exp(-2 pi i Y) = f_1 for Y ~ f
        f = FourierDensity.from_tail([0.3 + 0.1j])
        vals = _draw(f, 200_000, np.random.default_rng(4))
        emp = np.mean(np.exp(-2j * np.pi * vals))
        assert abs(emp - f.coeffs[1]) < 0.01

    def test_deterministic_given_rng(self):
        f = FourierDensity.from_tail([0.2])
        a, b = (_draw(f, 50, np.random.default_rng(9)) for _ in range(2))
        assert np.array_equal(a, b)

    def test_negative_density_refused_by_both_entry_points(self):
        # refused alone and as one row among certified ones
        bad = FourierDensity.from_tail([0.6])  # 1 + 1.2 cos(2 pi x) dips to -0.2
        with pytest.raises(CertificationError):
            _draw(bad, 10, np.random.default_rng(0))
        with pytest.raises(CertificationError):
            sample_batch(np.array([[0.2], [0.6], [0.1]]), 10, np.random.default_rng(0))

    def test_multifrequency_ks_against_exact_cdf(self):
        # f(x) = 1 + 2 sum_j |f_j| cos(2 pi j x + phi_j) has CDF
        # x + sum_j (|f_j| / (pi j)) (sin(2 pi j x + phi_j) - sin(phi_j))
        tail = np.array([0.15 * np.exp(0.7j), 0.1 * np.exp(-2.1j), 0.0, 0.12j])
        j = np.arange(1, tail.size + 1)
        mod, phase = np.abs(tail), np.angle(tail)

        def cdf(x):
            x = np.asarray(x, dtype=float)[:, np.newaxis]
            terms = mod / (np.pi * j) * (np.sin(2 * np.pi * j * x + phase) - np.sin(phase))
            return x[:, 0] + terms.sum(axis=1)

        vals = _draw(FourierDensity.from_tail(tail), 4000, np.random.default_rng(10))
        assert stats.kstest(vals, cdf).pvalue > 1e-3

    def test_saturated_certificate(self):
        # L = 2 |f_1| = 1: the uniform part has weight zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                vals = _draw(FourierDensity.from_tail([0.5]), 20_000, np.random.default_rng(11))
        assert np.all(np.isfinite(vals))
        assert vals.min() >= 0.0 and vals.max() < 1.0
        assert np.mean(np.cos(2 * np.pi * vals)) == pytest.approx(0.5, abs=0.02)


class TestSampleBatch:
    def test_rows_certified(self):
        with pytest.raises(CertificationError):
            sample_batch(np.array([[0.7]]), 5, np.random.default_rng(0))
        with pytest.raises(CertificationError):
            sample_batch(np.array([[0.1, np.nan]]), 5, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "row, certified",
        [
            ([0.5], True),
            ([0.5 + 1e-13], True),
            ([0.5 + 1e-12], False),
            ([0.25, 0.25], True),
            ([np.nan], False),
        ],
        ids=["saturated", "within-slack", "beyond-slack", "two-frequency", "nan"],
    )
    def test_refuses_exactly_uncertified_rows(self, row, certified):
        rows = np.array([row])
        assert bool(l1_certified(rows)[0]) is certified
        if certified:
            assert sample_batch(rows, 5, np.random.default_rng(0)).shape == (1, 5)
        else:
            with pytest.raises(CertificationError):
                sample_batch(rows, 5, np.random.default_rng(0))

    def test_batch_matches_marginal_statistics(self):
        rows = np.tile([0.3], (64, 1))
        y = sample_batch(rows, 100, np.random.default_rng(5))
        assert y.shape == (64, 100)
        emp = np.mean(np.cos(2 * np.pi * y))
        assert emp == pytest.approx(0.3, abs=0.02)

    def test_sign_flipped_rows_match_own_coefficients(self):
        # hypercube-style rows: equal moduli, signs and phases differ per row
        base = np.array([0.2, 0.1j, 0.05 * np.exp(1j)])
        signs = np.array([[1, 1, 1], [-1, 1, -1], [1, -1, -1], [-1, -1, 1]])
        rows = signs * base
        y = sample_batch(rows, 50_000, np.random.default_rng(13))
        j = np.arange(1, base.size + 1)
        emp = np.exp(-2j * np.pi * y[:, :, np.newaxis] * j).mean(axis=1)
        # each error e has E|e|^2 < 1 / n, so P(|e| > 0.015) ~ exp(-0.015^2 n) ~ 1e-5
        assert np.max(np.abs(emp - rows)) < 0.015


    @pytest.mark.parametrize("b", [1, 3])
    def test_components_beyond_column_128(self, b):
        # frequencies 1, 130 and 300: component indices past 127 and 255
        tail = np.zeros(300, dtype=complex)
        tail[[0, 129, 299]] = [0.1, 0.15j, 0.2 * np.exp(1j)]
        rows = np.array([1.0, -1.0, 1.0])[:b, np.newaxis] * tail
        y = sample_batch(rows, 100_000, np.random.default_rng(15))
        for j in (1, 130, 300):
            emp = np.exp(-2j * np.pi * j * y).mean(axis=1)
            # as above, P(|e| > 0.015) ~ exp(-0.015^2 n) ~ 1e-10
            assert np.max(np.abs(emp - rows[:, j - 1])) < 0.015

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.3 * np.exp(2j)]],
            [[0.1, 0.0, 0.15j, 0.05 * np.exp(-1j)]],
            [[0.1, 0.15j, 0.05], [-0.1, -0.15j, 0.05], [0.0, 0.0, 0.0], [0.1, 0.15j, -0.05]],
            [[0.2, 0.0], [0.0, 0.3j], [0.05, 0.05]],
            [[0.0, 0.0, 0.0]],
            [[], []],
        ],
        ids=["one-row-one-column", "one-row-zero-column", "sign-flipped-rows", "unequal-rows",
             "one-zero-row", "no-columns"],
    )
    def test_draws_follow_documented_order(self, rows):
        # the stream is part of a report's identity, so its order is pinned:
        # the same generator state gives the same bytes as the oracle. A row
        # with no nonzero coefficient keeps every uniform, alone or among
        # others (the sign-flipped rows hold one)
        y = sample_batch(np.array(rows), 3000, np.random.default_rng(17))
        assert np.array_equal(y, composition_draws(rows, 3000, np.random.default_rng(17)))

    @pytest.mark.parametrize(
        "rows",
        [[[0.125, 0.125, 0.25]], [[0.125, 0.125, 0.25], [0.25, 0.0, 0.125]]],
        ids=["one-row", "two-rows"],
    )
    def test_pick_on_a_cumulative_weight_takes_the_next_component(self, rows):
        # the cumulative weights are dyadic, so the scripted picks hit them
        # exactly: component j takes upper_{j-1} <= pick < upper_j, skipping
        # the zero-weight column, and a pick at the total is uniform
        picks = np.tile([0.0, 0.25, 0.375, 0.5, 0.625, 0.75, 1.0 - 2 ** -53], (len(rows), 1))
        y = sample_batch(np.array(rows), picks.shape[1], _ScriptedGenerator(picks))
        assert np.array_equal(y, composition_draws(rows, picks.shape[1], _ScriptedGenerator(picks)))

    def test_out_is_filled_and_returned(self):
        rows = np.array([[0.2, 0.1j], [-0.2, 0.1j]])
        out = np.empty((2, 50))
        assert sample_batch(rows, 50, np.random.default_rng(16), out=out) is out
        assert np.array_equal(out, sample_batch(rows, 50, np.random.default_rng(16)))
        for bad in (np.empty((2, 49)), np.empty((2, 50), dtype=np.float32), np.empty((50, 2)).T):
            with pytest.raises(ValueError, match="C-contiguous"):
                sample_batch(rows, 50, np.random.default_rng(16), out=bad)

class TestSampleModel:
    """The harness draws Y from g = observed_density(f, eps); these check
    that g is the law of X + eps mod 1 with X ~ f and eps drawn apart."""

    def test_observed_coefficients_multiply(self):
        f = FourierDensity.from_tail([0.4])
        eps = NoiseModel.mild(1.0, scale=0.3, max_freq=2)
        density = FourierDensity.from_tail(eps.modulus(np.arange(1, eps.max_freq + 1)))
        gen = np.random.default_rng(6)
        y = _draw(f, 200_000, gen) + _draw(density, 200_000, gen)
        y -= np.floor(y)
        emp = np.mean(np.exp(-2j * np.pi * y))
        assert abs(emp - 0.4 * 0.3) < 0.01
        assert abs(emp - observed_density(f, eps).coeffs[1]) < 0.01
        # f has no frequency 2, so neither has the law of X + eps
        assert abs(np.mean(np.exp(-4j * np.pi * y))) < 0.01

    def test_observed_shortcut_same_distribution(self):
        f = FourierDensity.from_tail([0.4])
        eps = NoiseModel.mild(1.0, scale=0.3, max_freq=2)
        vals = _draw(observed_density(f, eps), 50_000, np.random.default_rng(7))
        emp = np.mean(np.exp(-2j * np.pi * vals))
        assert abs(emp - 0.12) < 0.02


class TestPersistence:
    """The unit-value file: one observation per line, written by
    `circdeconv ingest` and read by ingest_circular_data."""

    def test_csv_round_trip(self, tmp_path):
        values = np.random.default_rng(8).random(20)
        src, out = tmp_path / "s.txt", tmp_path / "unit.txt"
        src.write_text("\n".join(repr(v) for v in values.tolist()) + "\n")
        assert cli_main(["ingest", str(src), "--out", str(out)]) == 0
        assert np.array_equal(ingest_circular_data(out).values, values)

    def test_csv_with_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("0.25\n" * 100 + "nan\n" + "0.5\n" * 100)
        assert np.array_equal(ingest_circular_data(path).values, [0.25] * 100 + [0.5] * 100)
        path.write_text("nan\nnan\n")
        with pytest.raises(IngestError):
            ingest_circular_data(path)
