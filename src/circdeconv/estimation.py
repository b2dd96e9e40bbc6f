"""Bias-corrected estimation of the quadratic functional.

The target is q(f) = ||f - f0||^2 = 2 sum_{j>=1} |f_j|^2 where f0 is the
uniform density. From observations of Y = X + eps mod 1 the estimator
truncates at level k and corrects the plug-in bias of |g_hat_j|^2:

    q_hat_k = 2 sum_{j=1}^{k} |eps_j|^{-2} { |g_hat_j|^2
                                             - (1 - |g_hat_j|^2) / (n - 1) },

which is exactly unbiased for the truncated functional
2 sum_{j<=k} |f_j|^2. It is a U-statistic over ordered pairs of
observations, which gives an exact variance decomposition and the risk
bound implemented in rates.risk_upper_bound. The single-sample functions
are one-row calls into the batch kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import NoiseModel
from .sampling import as_values

__all__ = [
    "EmpiricalCoeffs",
    "empirical_coeffs",
    "empirical_coeffs_batch",
    "estimate_q",
    "estimate_q_batch",
    "u_statistic_form",
]


@dataclass(frozen=True, eq=False)
class EmpiricalCoeffs:
    """Empirical Fourier coefficients g_hat_j = (1/n) sum_k exp(-2 pi i j Y_k).

    coeffs holds j = 0..j_max; g_hat_0 = 1 exactly and every modulus is
    at most 1 (an average of unit-modulus terms).
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a non-empty 1-d vector")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def j_max(self) -> int:
        return self.coeffs.size - 1


def empirical_coeffs(sample, j_max: int) -> EmpiricalCoeffs:
    """Compute g_hat_j for j = 0..j_max from a sample on [0, 1)."""
    values = as_values(sample)
    if values.size < 1:
        raise ValueError("need n >= 1")
    if j_max < 1:
        raise ValueError("need j_max >= 1")
    tail = empirical_coeffs_batch(values[np.newaxis, :], j_max)[0]
    return EmpiricalCoeffs(n=values.size, coeffs=np.concatenate(([1.0 + 0j], tail)))


def empirical_coeffs_batch(y: np.ndarray, j_max: int) -> np.ndarray:
    """g_hat_1..g_hat_j_max for every row of a (B, n) observation matrix;
    returns shape (B, j_max).

    Powers of the base phase exp(-2 pi i Y) are accumulated cumulatively,
    costing O(B n j_max) with no redundant transcendental calls.
    """
    base = np.exp(-2j * np.pi * y)
    b, n = y.shape
    out = np.empty((b, j_max), dtype=complex)
    power = base.copy()
    out[:, 0] = power.mean(axis=1)
    for j in range(1, j_max):
        power *= base
        out[:, j] = power.mean(axis=1)
    return out


def estimate_q(sample, eps: NoiseModel, k: int) -> float:
    """The truncated-functional estimator q_hat_k of one sample.

    Unbiased for 2 sum_{j=1}^{k} |f_j|^2 under Y ~ f (*) eps.
    """
    return float(estimate_q_batch(as_values(sample)[np.newaxis, :], eps, k)[0])


def estimate_q_batch(y: np.ndarray, eps: NoiseModel, k: int) -> np.ndarray:
    """q_hat_k for every row of a (B, n) observation matrix."""
    if k < 1:
        raise ValueError("truncation level k must be >= 1")
    n = y.shape[1]
    if n < 2:
        raise ValueError("estimator needs n >= 2")
    m2 = np.abs(empirical_coeffs_batch(y, k)) ** 2
    corrected = m2 - (1.0 - m2) / (n - 1)
    w = eps.modulus(np.arange(1, k + 1)) ** 2
    return 2.0 * corrected @ (1.0 / w)


def u_statistic_form(sample, eps: NoiseModel, k: int) -> float:
    """The same estimator written as an explicit U-statistic over pairs:

        (1/(n(n-1))) sum_{l != m} h(Y_l, Y_m),
        h(y, y') = 2 sum_{j=1}^{k} |eps_j|^{-2} Re exp(2 pi i j (y' - y)).

    O(n^2 k) reference implementation kept as an oracle for tests.
    """
    values = as_values(sample)
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
