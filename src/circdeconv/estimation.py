"""Bias-corrected estimation of the quadratic functional.

The target is q(f) = ||f - f0||^2 = 2 sum_{j>=1} |f_j|^2 where f0 is the
uniform density. From observations of Y = X + eps mod 1 the estimator
truncates at level k and corrects the plug-in bias of |g_hat_j|^2:

    q_hat_k = 2 sum_{j=1}^{k} |eps_j|^{-2} { |g_hat_j|^2
                                             - (1 - |g_hat_j|^2) / (n - 1) },

which is exactly unbiased for the truncated functional
2 sum_{j<=k} |f_j|^2. It is a U-statistic over ordered pairs of
observations, which gives an exact variance decomposition and the risk
bound implemented in rates.risk_upper_bound. Each row sums over j in
index order, so the single-sample estimator, a one-row call into the batch
kernels, equals that row of any batch bit for bit.
"""

from __future__ import annotations

import numpy as np

from .fourier import NoiseModel

__all__ = [
    "block_rows",
    "empirical_coeffs_batch",
    "estimate_q",
    "estimate_q_batch",
    "u_statistic_form",
]


# observations per row block of empirical_coeffs_batch: two complex
# buffers of this size (2 MB) stay in cache
_BLOCK_ELEMS = 1 << 16


def block_rows(n: int) -> int:
    """Rows per block of empirical_coeffs_batch at n observations per row:
    about _BLOCK_ELEMS observations, and at least one row."""
    return max(1, _BLOCK_ELEMS // max(n, 1))


def empirical_coeffs_batch(y: np.ndarray, j_max: int) -> np.ndarray:
    """g_hat_1..g_hat_j_max for every row of a (B, n) observation matrix;
    returns shape (B, j_max).

    Powers of the base phase exp(-2 pi i Y) are accumulated cumulatively,
    costing O(B n j_max) with no redundant transcendental calls. Rows are
    processed in blocks of block_rows(n) rows through two buffers
    allocated per call (callers run it from several threads).
    Every operation is elementwise or reduces one whole row, so each row
    is bit-identical to evaluating the formula on the whole batch at once.
    """
    if y.ndim != 2 or j_max < 1:
        raise ValueError(f"need a (B, n) y and j_max >= 1, got y.shape {y.shape}, j_max {j_max}")
    b, n = y.shape
    r = block_rows(n)
    base = np.empty((min(r, b), n), dtype=complex)
    power = np.empty_like(base)
    out = np.empty((b, j_max), dtype=complex)
    for start in range(0, b, r):
        blk = y[start : start + r]
        rows = out[start : start + r]
        bs, ps = base[: blk.shape[0]], power[: blk.shape[0]]
        np.multiply(blk, -2j * np.pi, out=bs)
        np.exp(bs, out=bs)
        np.add.reduce(bs, axis=1, out=rows[:, 0])
        for j in range(1, j_max):
            np.multiply(ps if j > 1 else bs, bs, out=ps)
            np.add.reduce(ps, axis=1, out=rows[:, j])
    # each row sum of a power divided by n, as mean(axis=1) divides it
    out /= n
    return out


def estimate_q(values: np.ndarray, eps: NoiseModel, k: int) -> float:
    """The truncated-functional estimator q_hat_k of one sample, given as
    a 1-d array of observations.

    Unbiased for 2 sum_{j=1}^{k} |f_j|^2 under Y ~ f (*) eps.
    """
    return float(estimate_q_batch(values[np.newaxis, :], eps, k)[0])


def estimate_q_batch(y, eps: NoiseModel, k: int) -> np.ndarray:
    """q_hat_k for every row of y: a (B, n) observation matrix, or an
    iterable of (rows, n) blocks taken in row order. A row's value depends
    neither on the other rows nor on the blocking.

    Each block goes through empirical_coeffs_batch as soon as it is
    taken, and is not read again, so a block may be a view of a buffer
    that the iterable overwrites for the next one. Every block must have
    the first block's n, since the bias correction uses one n; an empty
    iterable is refused too.
    """
    coeffs = []
    for blk in (y,) if isinstance(y, np.ndarray) else y:
        if coeffs and blk.shape[-1] != n:
            got = blk.shape[-1]
            raise ValueError(f"every block needs the first block's n = {n}, got n = {got}")
        n = blk.shape[-1]
        if k < 1 or n < 2:
            raise ValueError(f"estimator needs k >= 1 and n >= 2, got k = {k}, n = {n}")
        coeffs.append(empirical_coeffs_batch(blk, k))
    if not coeffs:
        raise ValueError("estimator needs at least one block of observations")
    m2 = np.abs(np.concatenate(coeffs)) ** 2
    corrected = m2 - (1.0 - m2) / (n - 1)
    w = eps.modulus(np.arange(1, k + 1)) ** 2
    return 2.0 * np.cumsum(corrected / w, axis=1)[:, -1]


def u_statistic_form(values: np.ndarray, eps: NoiseModel, k: int) -> float:
    """The same estimator written as an explicit U-statistic over pairs:

        (1/(n(n-1))) sum_{l != m} h(Y_l, Y_m),
        h(y, y') = 2 sum_{j=1}^{k} |eps_j|^{-2} Re exp(2 pi i j (y' - y)).

    O(n^2 k) reference implementation kept as an oracle for tests.
    """
    n = values.size
    if n < 2:
        raise ValueError("need n >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    j = np.arange(1, k + 1)
    w = eps.modulus(j) ** 2
    diff = np.subtract.outer(values, values)  # (n, n): Y_l - Y_m
    total = 0.0
    for jj, wj in zip(j, w):
        cos = np.cos(2.0 * np.pi * jj * diff)
        total += (cos.sum() - n) / wj  # drop the l == m diagonal (cos 0 = 1)
    return 2.0 * total / (n * (n - 1))
