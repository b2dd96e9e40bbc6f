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
    "empirical_coeffs_batch",
    "estimate_q",
    "estimate_q_batch",
]


# the most observations that a block of rows of empirical_coeffs_batch, or
# a piece of a longer row, may hold: its two complex and two 8-byte work
# buffers, 48 B per observation (1.5 MiB), stay in cache
_BLOCK_ELEMS = 1 << 15

# the unit phase exp(-2 pi i y) is read from two tables at y 2^20 = i + r,
# i an integer: C[m] = exp(-2 pi i m / 2^10), indexed by the high ten bits
# of i mod 2^20, and F[m] = exp(-2 pi i m / 2^20), by the low ten
_PHASE_BITS = 20
_TABLE_BITS = 10
_TABLE_MASK = (1 << _TABLE_BITS) - 1
# |y| < 2^32 keeps |y| 2^20 below 2^52, where r is exact and i fits an int64
_PHASE_LIMIT = 2.0 ** 32
# theta = 2 pi r / 2^20 is the angle left after the table lookups
_THETA_PER_R = -2.0 * np.pi / 2 ** _PHASE_BITS
_HALF_THETA_SQ_PER_R_SQ = -0.5 * _THETA_PER_R ** 2


def _phase_table(bits: int) -> np.ndarray:
    """exp(-2 pi i m / 2^bits) for m < 2^10, evaluated in np.longdouble and
    rounded to complex128. Each turn m / 2^bits is exact; it is reduced to
    the nearest quarter turn q/4, an exact factor (-i)^q, so the angle that
    cos and sin see is at most pi/4."""
    turns = np.arange(1 << _TABLE_BITS, dtype=np.longdouble) / 2 ** bits
    quarters = np.rint(4 * turns)
    # 2 pi to np.longdouble precision: the double 2 pi plus its rounding error
    two_pi = np.longdouble(2 * np.pi) + np.longdouble(2.4492935982947064e-16)
    angle = two_pi * (turns - quarters / 4)
    rotation = np.array([1, -1j, -1, 1j])[quarters.astype(int) % 4]
    return ((np.cos(angle) - 1j * np.sin(angle)) * rotation).astype(complex)


_COARSE = _phase_table(_TABLE_BITS)
_FINE = _phase_table(_PHASE_BITS)


def _unit_phase(y, base, scratch, t, i) -> None:
    """Write exp(-2 pi i y) into base. scratch (complex), t (float64) and
    i (int64) are work buffers of y's shape, overwritten.

    With i = trunc(y 2^20) and r = y 2^20 - i, both exact,
    exp(-2 pi i y) = C[(i mod 2^20) >> 10] F[i mod 2^10] (1 + d), where
    d = -theta^2/2 - i theta drops terms below theta^3/6 < 3.6e-17, since
    |theta| < 6.0e-6. F (1 + d) is formed as F + F d.
    """
    np.multiply(y, 2.0 ** _PHASE_BITS, out=t)
    np.copyto(i, t, casting="unsafe")  # truncates toward zero
    np.subtract(t, i, out=t)
    np.multiply(t, _THETA_PER_R, out=scratch.imag)
    np.square(t, out=scratch.real)
    scratch.real *= _HALF_THETA_SQ_PER_R_SQ
    # r is used up, so t's memory holds the low index; masking keeps every
    # index in range, and mode="clip" writes into base without buffering it
    low = t.view(np.int64)
    np.bitwise_and(i, _TABLE_MASK, out=low)
    np.right_shift(i, _TABLE_BITS, out=i)
    np.bitwise_and(i, _TABLE_MASK, out=i)
    np.take(_FINE, low, out=base, mode="clip")
    scratch *= base
    base += scratch
    np.take(_COARSE, i, out=scratch, mode="clip")
    base *= scratch


def _block_rows(n: int) -> int:
    """Rows per block of empirical_coeffs_batch at n observations per row:
    as many as _BLOCK_ELEMS observations hold, and at least one row."""
    return max(1, _BLOCK_ELEMS // n)


def _work_buffers() -> tuple:
    """The four work buffers of empirical_coeffs_batch, each of
    _BLOCK_ELEMS entries: two complex ones for the phase and its powers,
    and a float64 and an int64 one for the phase's argument reduction.
    They are views of one allocation: four separate ones ran slower end
    to end."""
    base, power, reals = np.empty((3, _BLOCK_ELEMS), dtype=complex)
    t, i = reals.view(np.float64).reshape(2, _BLOCK_ELEMS)
    return base, power, t, i.view(np.int64)


def _power_sums(y: np.ndarray, sums: np.ndarray, work: tuple) -> None:
    """Write the row sums of exp(-2 pi i j y), j = 1..j_max, of an (m, w)
    y of at most _BLOCK_ELEMS entries into the (m, j_max) sums, through
    the first m w entries of each work buffer, viewed as (m, w)."""
    m, w = y.shape
    base, power, t, i = (a[: m * w].reshape(m, w) for a in work)
    _unit_phase(y, base, power, t, i)
    np.add.reduce(base, axis=1, out=sums[:, 0])
    for j in range(1, sums.shape[1]):
        np.multiply(power if j > 1 else base, base, out=power)
        np.add.reduce(power, axis=1, out=sums[:, j])


def _tree_sums(y: np.ndarray, sums: np.ndarray, work: tuple) -> None:
    """_power_sums of a block of at most _block_rows(n) rows of any n,
    each row added up as numpy adds up a whole contiguous row, so each sum
    is np.add.reduce's bit for bit. Rows of at most _BLOCK_ELEMS go to
    _power_sums whole; a longer row, alone in its block, is cut.

    numpy sums a row of m complex entries pairwise: a node of m > 64
    entries is split after (m - m mod 8) / 2 of them and its two halves'
    sums are added; the tree depends on m alone. So a row is cut at the
    nodes of at most _BLOCK_ELEMS entries, each piece is summed as a row of
    its own and the two halves of every larger node are added in turn.
    """
    m = y.shape[1]
    if m <= _BLOCK_ELEMS:
        _power_sums(y, sums, work)
        return
    half = (m - m % 8) // 2
    right = np.empty_like(sums)
    _tree_sums(y[:, :half], sums, work)
    _tree_sums(y[:, half:], right, work)
    sums += right


def empirical_coeffs_batch(y: np.ndarray, j_max: int, work: tuple | None = None) -> np.ndarray:
    """g_hat_1..g_hat_j_max for every row of a (B, n) observation matrix;
    returns shape (B, j_max).

    The base phase exp(-2 pi i Y) is read from two 1024-entry tables after
    an exact argument reduction (_unit_phase), and its powers are
    accumulated cumulatively, costing O(B n j_max) with no transcendental
    call. Every observation must be finite with |Y| < 2^32; any other value
    is refused with a ValueError. Rows are processed in blocks of
    _block_rows(n) rows, and a row longer than a block in pieces cut at
    the nodes of numpy's summation tree (_tree_sums), so no block or
    piece holds more than _BLOCK_ELEMS observations. All go through one
    set of _work_buffers(), which serves any n: work, if given (a set
    that a caller reuses across calls), else one allocated for this call.
    Each call owns its buffers while it runs, so callers in several
    threads each pass their own.
    Every operation is elementwise or sums a row as np.add.reduce sums it
    whole, so each row is bit-identical to evaluating the formula on the
    whole batch at once.
    """
    if y.ndim != 2 or y.shape[1] < 1 or j_max < 1:
        raise ValueError(
            f"need a (B, n) y with n >= 1 and j_max >= 1, got y.shape {y.shape}, j_max {j_max}"
        )
    b, n = y.shape
    r = _block_rows(n)
    work = work if work is not None else _work_buffers()
    out = np.empty((b, j_max), dtype=complex)
    for start in range(0, b, r):
        blk = y[start : start + r]
        # min and max are NaN if any observation is
        if not (-_PHASE_LIMIT < blk.min() and blk.max() < _PHASE_LIMIT):
            raise ValueError(
                "every observation must be finite with |y| < 2^32, "
                f"got values in [{blk.min()}, {blk.max()}]"
            )
        _tree_sums(blk, out[start : start + r], work)
    # each row sum of a power divided by n, as mean(axis=1) divides it
    out /= n
    return out


def _described(x) -> str:
    """x's shape if it is an ndarray, else its type, for a refusal."""
    return f"y.shape {x.shape}" if isinstance(x, np.ndarray) else f"a {type(x).__name__}"


def estimate_q(values: np.ndarray, eps: NoiseModel, k: int) -> float:
    """The truncated-functional estimator q_hat_k of one sample, given as
    a 1-d ndarray of observations; anything else is refused.

    Unbiased for 2 sum_{j=1}^{k} |f_j|^2 under Y ~ f (*) eps.
    """
    if not (isinstance(values, np.ndarray) and values.ndim == 1):
        got = _described(values)
        raise ValueError(f"estimate_q takes a 1-d ndarray of observations, got {got}")
    return float(estimate_q_batch(values[np.newaxis, :], eps, k)[0])


def estimate_q_batch(y, eps: NoiseModel, k: int) -> np.ndarray:
    """q_hat_k for every row of y: a (B, n) observation matrix, or an
    iterable of (rows, n) blocks taken in row order. A row's value depends
    neither on the other rows nor on the blocking.

    Each block goes through empirical_coeffs_batch as soon as it is
    taken, and is not read again, so a block may be a view of a buffer
    that the iterable overwrites for the next one. One set of the
    kernel's work buffers is allocated per call and serves every block.
    Every block must be a 2-d ndarray with the first block's n, since the
    bias correction uses one n; an empty iterable is refused too, and so
    is a k at which some weight |eps_j|^-2 is not finite (|eps_j|
    underflows), before any block is taken.
    """
    w = eps.modulus(np.arange(1, k + 1)) ** 2
    with np.errstate(divide="ignore", over="ignore"):
        infinite = np.flatnonzero(~np.isfinite(1.0 / w))
    if infinite.size:
        j = int(infinite[0]) + 1
        raise ValueError(f"the weight |eps_j|^-2 of q_hat_k overflows at j = {j} (k = {k})")
    coeffs, work = [], _work_buffers()
    for blk in (y,) if isinstance(y, np.ndarray) else y:
        if not (isinstance(blk, np.ndarray) and blk.ndim == 2):
            accepted = "a 2-d ndarray or an iterable of 2-d ndarrays"
            raise ValueError(f"estimate_q_batch takes {accepted}, got {_described(blk)}")
        if coeffs and blk.shape[-1] != n:
            got = blk.shape[-1]
            raise ValueError(f"every block needs the first block's n = {n}, got n = {got}")
        n = blk.shape[-1]
        if k < 1 or n < 2:
            raise ValueError(f"estimator needs k >= 1 and n >= 2, got k = {k}, n = {n}")
        coeffs.append(empirical_coeffs_batch(blk, k, work))
    if not coeffs:
        raise ValueError("estimator needs at least one block of observations")
    m2 = np.abs(np.concatenate(coeffs)) ** 2
    corrected = m2 - (1.0 - m2) / (n - 1)
    return 2.0 * np.cumsum(corrected / w, axis=1)[:, -1]
