import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circdeconv.estimation import (
    empirical_coeffs_batch,
    estimate_q,
    estimate_q_batch,
    u_statistic_form,
)
from circdeconv.fourier import (
    FourierDensity,
    NoiseModel,
    observed_density,
    truncated_functional,
)
from circdeconv.sampling import sample_batch


class TestEmpiricalCoeffs:
    """Rows of empirical_coeffs_batch: g_hat_1..g_hat_j_max of each sample."""

    def test_point_mass_at_zero(self):
        rows = empirical_coeffs_batch(np.zeros((1, 10)), 4)
        assert np.allclose(rows, 1.0)

    def test_matches_naive_double_loop(self):
        vals = np.random.default_rng(1).random(64)
        rows = empirical_coeffs_batch(vals[np.newaxis, :], 8)
        for j in range(1, 9):
            naive = np.mean([np.exp(-2j * np.pi * j * y) for y in vals])
            assert abs(rows[0, j - 1] - naive) < 1e-12

    def test_modulus_at_most_one(self):
        rows = empirical_coeffs_batch(np.random.default_rng(2).random(50)[np.newaxis, :], 20)
        assert np.all(np.abs(rows) <= 1.0 + 1e-12)

    @pytest.mark.parametrize(
        "shape",
        [(5, 2 ** 16 + 3), (37, 4096), (1, 10)],
        ids=["one-row-blocks", "partial-last-block", "single-row"],
    )
    def test_blocked_matches_whole_batch(self, shape):
        y = np.random.default_rng(3).random(shape)
        assert np.array_equal(empirical_coeffs_batch(y, 6), _whole_batch_coeffs(y, 6))

    @settings(deadline=None, max_examples=50, derandomize=True)
    @given(
        b=st.integers(1, 9),
        # n >= 2 as in the estimator: at n = 1 numpy's in-place complex
        # multiply of a one-element row rounds differently from its vector
        # loop, in the whole-batch formula too
        n=st.integers(2, 2 ** 15),
        j_max=st.integers(1, 8),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_rows_match_one_row_calls(self, b, n, j_max, seed):
        y = np.random.default_rng(seed).random((b, n))
        rows = empirical_coeffs_batch(y, j_max)
        for i in range(b):
            assert np.array_equal(rows[i], empirical_coeffs_batch(y[i : i + 1], j_max)[0])

    def test_allocation_bounded_by_block(self):
        y = np.random.default_rng(4).random((32, 2 ** 16))
        tracemalloc.start()
        try:
            empirical_coeffs_batch(y, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole-batch formula holds two (32, 65536) complex arrays, 64 MiB
        assert peak < 8 * 2 ** 20


def _whole_batch_coeffs(y, j_max):
    """The coefficient kernel evaluated on the whole (B, n) batch at once."""
    base = np.exp(-2j * np.pi * y)
    b, n = y.shape
    out = np.empty((b, j_max), dtype=complex)
    power = base.copy()
    out[:, 0] = power.mean(axis=1)
    for j in range(1, j_max):
        power *= base
        out[:, j] = power.mean(axis=1)
    return out


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
        y = _observed_matrix(f, eps, reps, n, np.random.default_rng(10))
        vals = np.array([estimate_q(y[r], eps, 1) for r in range(200)])
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 2 * 0.3 ** 2) <= 3 * se


def _observed_matrix(f, eps, reps, n, gen):
    """reps x n draws from g = f (*) eps, all from one sampler call."""
    g = observed_density(f, eps)
    return sample_batch(g.coeffs[np.newaxis, 1:], reps * n, gen).reshape(reps, n)


class TestEstimateQ:
    def test_rejects_bad_args(self):
        eps = NoiseModel.mild(1.0)
        with pytest.raises(ValueError):
            estimate_q(np.array([0.1, 0.2]), eps, 0)
        with pytest.raises(ValueError):
            estimate_q(np.array([0.1]), eps, 2)

    def test_null_mean_near_zero(self):
        eps = NoiseModel.mild(1.0)
        y = np.random.default_rng(5).random((5000, 40))
        q = estimate_q_batch(y, eps, 3)
        se = q.std(ddof=1) / np.sqrt(q.size)
        assert abs(q.mean()) <= 3 * se

    def test_unbiased_for_truncated_functional(self):
        f = FourierDensity.from_tail([0.3, 0.15])
        eps = NoiseModel.mild(1.0, max_freq=2)
        y = _observed_matrix(f, eps, 5000, 100, np.random.default_rng(6))
        q = estimate_q_batch(y, eps, 2)
        se = q.std(ddof=1) / np.sqrt(q.size)
        target = truncated_functional(f, 2)
        assert abs(q.mean() - target) <= 3 * se

    def test_batch_matches_single(self):
        eps = NoiseModel.severe(1.0)
        y = np.random.default_rng(7).random((6, 25))
        batch = estimate_q_batch(y, eps, 3)
        singles = [estimate_q(y[b], eps, 3) for b in range(6)]
        assert np.allclose(batch, singles, atol=1e-12)

    def test_permutation_invariance(self):
        eps = NoiseModel.mild(1.0)
        vals = np.random.default_rng(8).random(30)
        q1 = estimate_q(vals, eps, 4)
        q2 = estimate_q(np.sort(vals), eps, 4)
        assert q1 == pytest.approx(q2, abs=1e-12)


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

    @settings(deadline=None, max_examples=50, derandomize=True)
    @given(
        rows=st.integers(2, 40).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n),
                min_size=1,
                max_size=4,
            )
        ),
        k=st.integers(1, 6),
        noise=st.sampled_from([NoiseModel.mild(1.0), NoiseModel.severe(1.0)]),
    )
    def test_batch_rows_match_pair_sum(self, rows, k, noise):
        y = np.array(rows)
        got = estimate_q_batch(y, noise, k)
        want = np.array([u_statistic_form(row, noise, k) for row in y])
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
