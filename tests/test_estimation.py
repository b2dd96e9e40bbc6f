import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circdeconv import estimation, harness
from circdeconv.estimation import (
    _unit_phase,
    empirical_coeffs_batch,
    estimate_q,
    estimate_q_batch,
)
from circdeconv.fourier import (
    FourierDensity,
    NoiseModel,
    observed_density,
    truncated_functional,
)
from circdeconv.lowerbounds import build_hypercube
from circdeconv.sampling import sample_batch
from oracles import u_statistic_form


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

    @pytest.mark.parametrize(
        "y, j_max, named",
        [
            (np.zeros((2, 5)), 0, "j_max 0"),
            (np.zeros(5), 3, r"y.shape \(5,\)"),
            (np.zeros((2, 0)), 3, r"y.shape \(2, 0\)"),
        ],
    )
    def test_refuses_bad_arguments(self, y, j_max, named):
        with pytest.raises(ValueError, match=named):
            empirical_coeffs_batch(y, j_max)

    @pytest.mark.parametrize(
        "bad",
        [np.nan, np.inf, -np.inf, 2.0 ** 40, -(2.0 ** 32)],
        ids=["nan", "inf", "-inf", "2^40", "-2^32"],
    )
    def test_refuses_non_finite_or_huge_observations(self, bad):
        # 2 pi y of a huge y has no fractional bits left, and y 2^20 would
        # overflow the int64 table index
        y = np.random.default_rng(5).random((3, 8))
        y[1, 4] = bad
        with pytest.raises(ValueError, match=r"finite with \|y\| < 2\^32"):
            empirical_coeffs_batch(y, 3)

    def test_estimator_refuses_nan_row(self):
        y = np.array([[np.nan, 0.1, 0.2], [0.3, 0.4, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            estimate_q_batch(y, NoiseModel.mild(1.0), 2)

    def test_modulus_at_most_one(self):
        rows = empirical_coeffs_batch(np.random.default_rng(2).random(50)[np.newaxis, :], 20)
        assert np.all(np.abs(rows) <= 1.0 + 1e-12)

    @pytest.mark.parametrize(
        "shape",
        # n = 1 mod 2^16: cut into 2^16-entry chunks, a row would end in a
        # one-entry chunk, whose in-place complex multiply numpy rounds
        # differently from its vector loop; n = 2^16 is cut at its tree's
        # root into two pieces of a block
        [(5, 2 ** 16 + 3), (3, 2 ** 16 + 1), (3, 3 * 2 ** 16 + 1), (3, 2 ** 16), (37, 4096),
         (1, 10)],
        ids=["one-row-blocks", "rows-in-pieces", "n-1-mod-2^16", "two-piece-rows",
             "partial-last-block", "single-row"],
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
        # the whole-batch formula holds two (32, 65536) complex arrays, 64 MiB;
        # the kernel's one buffer set is 1.5 MiB, and 1.575 MiB is measured
        assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize(
        "n",
        [2 ** 15, 2 ** 15 + 1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 300_001, 999_983, 10 ** 6],
    )
    def test_tree_pieces_match_whole_row_sum(self, n):
        # numpy's pairwise summation of the whole row, rebuilt from pieces
        # of at most 2^15 entries cut at the nodes of its tree
        y = np.random.default_rng(n).random((1, n))
        sums = np.empty((1, 3), dtype=complex)
        estimation._tree_sums(y, sums, estimation._work_buffers())
        base = _phase(y)
        power = base.copy()
        for j in range(3):
            if j:
                power *= base
            assert np.array_equal(sums[:, j], np.add.reduce(power, axis=1))

    def test_one_buffer_set_serves_any_n(self):
        # a set of _work_buffers() passed in holds blocks of many rows, a
        # row of exactly a block, and rows cut into pieces
        work = estimation._work_buffers()
        for n in [2, 100, 2 ** 15, 2 ** 15 + 1, 2 ** 16, 10 ** 6]:
            y = np.random.default_rng(n).random((max(1, 2 ** 17 // n), n))
            assert np.array_equal(empirical_coeffs_batch(y, 5, work), empirical_coeffs_batch(y, 5))

    def test_long_row_allocation_bounded_by_piece(self):
        y = np.random.default_rng(6).random((1, 10 ** 6))
        tracemalloc.start()
        try:
            empirical_coeffs_batch(y, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two complex buffers of the whole row are 32 MiB; the buffers of a
        # 2^15-entry piece are 1.5 MiB
        assert peak < 4 * 2 ** 20

    def test_phase_allocates_no_block_temporary(self):
        y = np.random.default_rng(4).random((32, 2 ** 16))
        tracemalloc.start()
        try:
            empirical_coeffs_batch(y, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each row in two pieces of a block: two complex and two 8-byte
        # buffers of 2^15, 1.5 MiB, and a peak of 1.575 MiB measured; a
        # block-sized float temporary makes it 1.825 MiB, and
        # np.take(..., mode="raise") buffering base 2.012 MiB
        assert peak < 1.7 * 2 ** 20

    def test_null_batch_allocation_bounded_by_block(self):
        n = 2 ** 16
        cfg = harness.ExperimentConfig(n_grid=(n,), replications=128, threads=1)
        tracemalloc.start()
        try:
            cell = harness._Cell((0, 0), harness._null_sampler, n, 12)
            harness._q_hats(cfg, [cell], cfg.noise_model())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the null batch drawn whole is a (128, 65536) matrix, 64 MiB; a
        # stream block and the kernel's buffers peak at 2.111 MiB measured
        assert peak < 8 * 2 ** 20

    def test_non_null_batches_allocation_bounded_by_block(self):
        # one 128-row batch of a hypercube mixture and one of the boundary
        # density: drawn whole they peaked at 145 and 196 MiB, and a block
        # at a time at 2.8 and 3.4 MiB (1.5 MiB of it kernel buffers)
        n = 2 ** 16
        cfg = harness.ExperimentConfig(n_grid=(n,), scenarios=("hypercube", "boundary"))
        cls, eps = cfg.smoothness_class(), cfg.noise_model()
        k = harness.resolve_k(cfg, cls, eps, n)
        fam = build_hypercube(cls, eps, n, cfg.alpha)
        theta_obs = observed_density(fam.vertex(np.ones(fam.kappa)), eps).coeffs[1:].real
        samplers = [harness._mixture_sampler(theta_obs),
                    harness._risk_scenarios(cfg, cls, eps, n, k)["boundary"][0]]
        for sampler in samplers:
            tracemalloc.start()
            try:
                q_hat = estimate_q_batch(sampler(np.random.default_rng(3), 128, n), eps, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert q_hat.shape == (128,)
            assert peak < 16 * 2 ** 20


def _whole_batch_coeffs(y, j_max):
    """The coefficient kernel evaluated on the whole (B, n) batch at once."""
    base = _phase(y)
    b, n = y.shape
    out = np.empty((b, j_max), dtype=complex)
    power = base.copy()
    out[:, 0] = power.mean(axis=1)
    for j in range(1, j_max):
        power *= base
        out[:, j] = power.mean(axis=1)
    return out


def _phase(y):
    """exp(-2 pi i y) for a whole array at once, through the kernel's helper."""
    base = np.empty(y.shape, dtype=complex)
    _unit_phase(y, base, np.empty_like(base), np.empty(y.shape), np.empty(y.shape, dtype=np.int64))
    return base


class TestUnitPhase:
    """exp(-2 pi i y) from two tables after an exact argument reduction."""

    EDGES = [0.0, 2.0 ** -53, 0.25, 0.5, 0.75, 1 - 2.0 ** -53, 2.0 ** -20, 1 - 2.0 ** -20]

    def _sample(self):
        return np.concatenate([np.random.default_rng(11).random(10 ** 6), self.EDGES])

    def test_close_to_complex_exp(self):
        y = self._sample()
        got = _phase(y)
        assert np.max(np.abs(got - np.exp(-2j * np.pi * y))) <= 1.1e-15
        at_zero = got[y.size - len(self.EDGES)]
        assert at_zero.real == 1.0 and at_zero.imag == 0.0

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
        reason="np.longdouble is no wider than double",
    )
    def test_close_to_long_double_reference(self):
        # np.exp itself is 7.3e-16 away: it rounds 2 pi y before the exp
        y = self._sample()
        got = _phase(y).astype(np.clongdouble)
        two_pi = np.longdouble(2 * np.pi) + np.longdouble(2.4492935982947064e-16)
        angle = two_pi * y.astype(np.longdouble)
        err = np.abs(got - (np.cos(angle) - 1j * np.sin(angle)))
        assert float(np.max(err)) <= 3e-16

    @pytest.mark.parametrize(
        "y, want",
        [(2.0 ** 31 + 0.25, -1j), (-0.25, 1j), (-(2.0 ** 32) + 0.5, -1.0), (2.0 ** 32 - 0.75, -1j)],
    )
    def test_periodic_over_the_accepted_range(self, y, want):
        assert abs(_phase(np.array([y]))[0] - want) <= 1e-15


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
        with pytest.raises(ValueError, match="y.shape"):
            estimate_q_batch(np.array([0.1, 0.2]), eps, 2)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda eps: estimate_q_batch([[0.1, 0.2, 0.3], [0.3, 0.4, 0.5]], eps, 2), "a list"),
            (lambda eps: estimate_q_batch([np.zeros(3)], eps, 2), r"y.shape \(3,\)"),
            (lambda eps: estimate_q_batch(np.zeros((1, 2, 3)), eps, 2), r"y.shape \(1, 2, 3\)"),
            (lambda eps: estimate_q([0.1, 0.2], eps, 1), "1-d ndarray of observations, got a list"),
            (lambda eps: estimate_q(np.zeros((2, 2)), eps, 1), r"got y.shape \(2, 2\)"),
        ],
        ids=["nested-list", "1-d-block", "3-d-array", "single-list", "single-2-d"],
    )
    def test_refuses_input_of_other_shape_or_type(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(NoiseModel.mild(1.0))

    @pytest.mark.parametrize(
        "eps, k, j",
        [(NoiseModel.mild(1.0, scale=1e-200), 1, 1), (NoiseModel.severe(2.0), 30, 19)],
        ids=["tiny-scale", "severe"],
    )
    def test_refuses_infinite_weight_before_any_block(self, eps, k, j):
        # |eps_j|^2 underflows, so the weight |eps_j|^-2 of q_hat_k is inf
        def blocks():
            raise AssertionError("a block was taken")
            yield

        with pytest.raises(ValueError, match=f"overflows at j = {j} \\(k = {k}\\)"):
            estimate_q_batch(blocks(), eps, k)
        if j > 1:
            assert np.isfinite(estimate_q_batch(np.full((1, 4), 0.3), eps, j - 1)).all()

    def test_blocks_of_different_n_refused(self):
        # the bias correction uses one n, so rows of another n would be
        # corrected with the wrong one
        eps = NoiseModel.mild(1.0)
        a = np.random.default_rng(1).random((2, 100))
        b = np.random.default_rng(2).random((2, 50))
        with pytest.raises(ValueError, match="n = 100, got n = 50"):
            estimate_q_batch([a, b], eps, 3)
        with pytest.raises(ValueError, match="at least one block"):
            estimate_q_batch(iter([]), eps, 3)

    @pytest.mark.parametrize(
        "heights",
        [[10] * 6 + [2], [1, 3, 2, 3], [40, 40]],
        ids=["ragged-last-block", "taller-later-block", "taller-than-kernel-block"],
    )
    def test_work_buffers_reused_across_blocks(self, heights, monkeypatch):
        # at n = 3000 a kernel block is 10 rows; one buffer set, allocated
        # once per call, serves blocks of every height
        calls = []
        allocate = estimation._work_buffers
        monkeypatch.setattr(estimation, "_work_buffers", lambda: calls.append(1) or allocate())
        eps = NoiseModel.mild(1.0)
        y = np.random.default_rng(12).random((sum(heights), 3000))
        blocks = np.split(y, np.cumsum(heights)[:-1])
        fed = estimate_q_batch(iter(blocks), eps, 4)
        assert len(calls) == 1
        assert np.array_equal(fed, estimate_q_batch(y, eps, 4))
        assert len(calls) == 2

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

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(
        b=st.integers(1, 40),
        n=st.integers(2, 2 ** 14),
        k=st.integers(1, 40),
        noise=st.sampled_from([NoiseModel.mild(1.0), NoiseModel.severe(0.5)]),
        cut=st.tuples(st.integers(0, 40), st.integers(0, 40)),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_rows_match_single_and_sub_batch(self, b, n, k, noise, cut, seed):
        # the sum over j runs in index order within a row, so a row's value
        # does not depend on how many rows the call holds
        y = np.random.default_rng(seed).random((b, n))
        batch = estimate_q_batch(y, noise, k)
        lo, hi = sorted(min(c, b - 1) for c in cut)
        sub = estimate_q_batch(y[lo : hi + 1], noise, k)
        for i in range(b):
            assert batch[i] == estimate_q(y[i], noise, k)
        assert np.array_equal(sub, batch[lo : hi + 1])

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
