"""Slow reference implementations that only the tests call."""

import itertools

import numpy as np

from circdeconv.fourier import NoiseModel
from circdeconv.lowerbounds import MAX_SIGN_DIM


def u_statistic_form(values: np.ndarray, eps: NoiseModel, k: int) -> float:
    """q_hat_k written as an explicit U-statistic over pairs:

        (1/(n(n-1))) sum_{l != m} h(Y_l, Y_m),
        h(y, y') = 2 sum_{j=1}^{k} |eps_j|^{-2} Re exp(2 pi i j (y' - y)).

    O(n^2 k), an oracle for the spectral form in circdeconv.estimation.
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


def cube_product_identity(J_plus, J_minus):
    """Both sides of the sum/product exchange on sign cubes:

        2^{-k} sum_{tau in {+,-}^k} prod_j J_j^{tau_j}
            = prod_j (J_j^- + J_j^+) / 2.

    The left side enumerates 2^k terms, so k <= MAX_SIGN_DIM.
    """
    jp = np.asarray(J_plus, dtype=float)
    jm = np.asarray(J_minus, dtype=float)
    if jp.shape != jm.shape or jp.ndim != 1:
        raise ValueError("J_plus and J_minus must be 1-d arrays of equal length")
    k = jp.size
    if k > MAX_SIGN_DIM:
        raise ValueError(f"enumeration limited to k <= {MAX_SIGN_DIM}")
    lhs = 0.0
    for tau in itertools.product((0, 1), repeat=k):
        term = 1.0
        for idx, t in enumerate(tau):
            term *= jp[idx] if t else jm[idx]
        lhs += term
    lhs /= 2.0 ** k
    rhs = float(np.prod((jp + jm) / 2.0))
    return lhs, rhs


def composition_draws(coeff_rows, n: int, gen: np.random.Generator) -> np.ndarray:
    """sample_batch's draws recomputed one row and one component at a time
    from the order its docstring gives: the (B, n) picks, the (B, n)
    uniforms, then the component variates, column by column for one row
    and in one pass over every candidate for several rows. Each draw's
    component is located by searchsorted on its own row's cumulative
    weights, and the uniform on {0..j-1} of component j is a separate
    integer draw."""
    rows = np.asarray(coeff_rows, dtype=complex)
    b, cols = rows.shape
    picks, y = gen.random((b, n)), gen.random((b, n))
    upper = np.cumsum(2.0 * np.abs(rows), axis=1)
    # column index of each draw's component; cols for the uniform part
    comp = np.array([np.searchsorted(upper[r], picks[r], side="right") for r in range(b)])
    shift = np.mod(-0.5 - np.angle(rows) / (2.0 * np.pi), 1.0)

    def component(z, m, row, col):
        x = (z + m + shift[row, col]) / (col + 1)
        return x - np.floor(x)

    def sine_squared(size):
        t, c = np.sqrt(gen.random(size)), gen.random(size)
        return np.arccos(t * np.cos(c * np.pi)) / np.pi

    if b == 1:
        for col in np.flatnonzero(rows[0]):
            chosen = np.flatnonzero(comp[0] == col)
            z = sine_squared(chosen.size)
            m = gen.integers(0, col + 1, chosen.size)
            y[0, chosen] = component(z, m, 0, col)
        return y
    row, draw = np.nonzero(comp < cols)
    col = comp[row, draw]
    z = sine_squared(row.size)
    m = gen.integers(0, col + 1)
    y[row, draw] = component(z, m, row, col)
    return y
