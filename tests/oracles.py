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
