"""Goodness-of-fit test for uniformity under circular convolution.

The test rejects the uniform null when the bias-corrected statistic
q_hat_k is at least C_alpha * nu_k^2, where nu_k^2 (rates.nu_k_sq) is the
null standard deviation scale: exactly, Var_0(q_hat_k) = 2 nu_k^4 n/(n-1).
Calibration constants come with a verified guarantee: the two
inequalities of TestCalibration bound the type I error and the type II
error over the separated alternative by alpha/2 each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError
from .estimation import estimate_q
from .fourier import NoiseModel
from .rates import nu_k_sq

__all__ = [
    "TestCalibration",
    "TestResult",
    "calibrate",
    "run_test",
]


@dataclass(frozen=True)
class TestCalibration:
    """Level and separation constants with their defining guarantee.

    The guarantee requires, with e = ||eps||_inf:

        (2 C + 1) / C^2 * e <= alpha / 2            (type I)
        (2 C + 1) / (A_tilde - C)^2 * e <= alpha/2  (type II)

    and A_bar^2 = R^2 + A_tilde^2 accounts for the null-proximal part of
    the alternative that no test needs to detect, so A_bar is finite and
    at least A_tilde.
    """

    alpha: float
    C_alpha: float
    A_tilde: float
    A_bar: float
    eps_sup: float

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise CalibrationError("alpha must lie in (0, 1)")
        self._verify()

    def _verify(self):
        c, a_t, e = self.C_alpha, self.A_tilde, self.eps_sup
        half = self.alpha / 2.0
        # each check is written so that a NaN constant fails it
        lhs1 = (2.0 * c + 1.0) / c ** 2 * e
        if not lhs1 <= half * (1 + 1e-12):
            raise CalibrationError(
                f"type I inequality fails: {lhs1:.4g} > alpha/2 = {half:.4g}"
            )
        if not a_t > c:
            raise CalibrationError("A_tilde must exceed C_alpha")
        lhs2 = (2.0 * c + 1.0) / (a_t - c) ** 2 * e
        if not lhs2 <= half * (1 + 1e-12):
            raise CalibrationError(
                f"type II inequality fails: {lhs2:.4g} > alpha/2 = {half:.4g}"
            )
        if not (np.isfinite(self.A_bar) and self.A_bar >= a_t):
            raise CalibrationError(f"A_bar must be finite and at least A_tilde, got {self.A_bar}")

    def threshold(self, eps: NoiseModel, n: int, k: int) -> float:
        """The rejection threshold C_alpha * nu_k^2 at sample size n."""
        return self.C_alpha * nu_k_sq(eps, n, k)


def calibrate(alpha: float, eps: NoiseModel, R: float) -> TestCalibration:
    """Explicit conservative constants satisfying the guarantee:

        C_alpha = 6 ||eps||_inf / alpha,
        A_tilde = C_alpha + (2/alpha) sqrt(12 ||eps||_inf^2 / alpha + ||eps||_inf).

    The ellipsoid radius R must be finite and positive.
    """
    if not 0 < alpha < 1:
        raise CalibrationError("alpha must lie in (0, 1)")
    if not (np.isfinite(R) and R > 0):
        raise CalibrationError(f"R must be finite and positive, got {R}")
    e = eps.sup_norm
    c = 6.0 * e / alpha
    a_t = c + (2.0 / alpha) * float(np.sqrt(12.0 * e ** 2 / alpha + e))
    a_bar = float(np.sqrt(R ** 2 + a_t ** 2))
    return TestCalibration(alpha=alpha, C_alpha=c, A_tilde=a_t, A_bar=a_bar, eps_sup=e)


@dataclass(frozen=True)
class TestResult:
    """The statistic and threshold of one test; ties are rejections."""

    k: int
    statistic: float
    threshold: float
    nu_k_sq: float

    @property
    def rejected(self) -> bool:
        return self.statistic >= self.threshold

    @property
    def decision(self) -> str:
        return "reject_null" if self.rejected else "accept_null"


def run_test(values: np.ndarray, eps: NoiseModel, k: int, cal: TestCalibration) -> TestResult:
    """Run the level-alpha uniformity test at truncation level k on a 1-d
    array of observations: reject when q_hat_k >= C_alpha nu_k^2."""
    n = values.size
    stat, thr = estimate_q(values, eps, k), cal.threshold(eps, n, k)
    return TestResult(k=k, statistic=stat, threshold=thr, nu_k_sq=nu_k_sq(eps, n, k))
