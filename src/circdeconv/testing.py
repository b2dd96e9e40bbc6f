"""Goodness-of-fit test for uniformity under circular convolution.

The test rejects the uniform null when the bias-corrected statistic
q_hat_k exceeds C_alpha * nu_k^2, where nu_k^2 (rates.nu_k_sq) is the
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
from .sampling import as_values

__all__ = [
    "TestCalibration",
    "TestResult",
    "calibrate",
    "custom_calibration",
    "run_test",
]


@dataclass(frozen=True)
class TestCalibration:
    """Level and separation constants with their defining guarantee.

    The guarantee requires, with e = ||eps||_inf:

        (2 C + 1) / C^2 * e <= alpha / 2            (type I)
        (2 C + 1) / (A_tilde - C)^2 * e <= alpha/2  (type II)

    and A_bar^2 = R^2 + A_tilde^2 accounts for the null-proximal part of
    the alternative that no test needs to detect.
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
        lhs1 = (2.0 * c + 1.0) / c ** 2 * e
        if lhs1 > half * (1 + 1e-12):
            raise CalibrationError(
                f"type I inequality fails: {lhs1:.4g} > alpha/2 = {half:.4g}"
            )
        if a_t <= c:
            raise CalibrationError("A_tilde must exceed C_alpha")
        lhs2 = (2.0 * c + 1.0) / (a_t - c) ** 2 * e
        if lhs2 > half * (1 + 1e-12):
            raise CalibrationError(
                f"type II inequality fails: {lhs2:.4g} > alpha/2 = {half:.4g}"
            )


def calibrate(alpha: float, eps: NoiseModel, R: float) -> TestCalibration:
    """Explicit conservative constants satisfying the guarantee:

        C_alpha = 6 ||eps||_inf / alpha,
        A_tilde = C_alpha + (2/alpha) sqrt(12 ||eps||_inf^2 / alpha + ||eps||_inf).
    """
    if not 0 < alpha < 1:
        raise CalibrationError("alpha must lie in (0, 1)")
    e = eps.sup_norm
    c = 6.0 * e / alpha
    a_t = c + (2.0 / alpha) * float(np.sqrt(12.0 * e ** 2 / alpha + e))
    a_bar = float(np.sqrt(R ** 2 + a_t ** 2))
    return TestCalibration(alpha=alpha, C_alpha=c, A_tilde=a_t, A_bar=a_bar, eps_sup=e)


def custom_calibration(
    alpha: float, C_alpha: float, A_tilde: float, eps: NoiseModel, R: float
) -> TestCalibration:
    """Any user-chosen (C, A_tilde) passing the guarantee inequalities."""
    a_bar = float(np.sqrt(R ** 2 + A_tilde ** 2))
    return TestCalibration(
        alpha=alpha, C_alpha=C_alpha, A_tilde=A_tilde, A_bar=a_bar, eps_sup=eps.sup_norm
    )


@dataclass(frozen=True)
class TestResult:
    statistic: float
    threshold: float
    decision: str  # "accept_null" | "reject_null"
    k: int
    nu_k_sq: float

    def __post_init__(self):
        expected = "reject_null" if self.statistic >= self.threshold else "accept_null"
        if self.decision != expected:
            raise ValueError("decision inconsistent with statistic vs threshold")

    @property
    def rejected(self) -> bool:
        return self.decision == "reject_null"


def run_test(sample, eps: NoiseModel, k: int, cal: TestCalibration) -> TestResult:
    """Run the level-alpha uniformity test at truncation level k.

    Ties are rejections: the decision rule is q_hat_k >= C_alpha nu_k^2.
    """
    n = as_values(sample).size
    stat = estimate_q(sample, eps, k)
    nu2 = nu_k_sq(eps, n, k)
    thr = cal.C_alpha * nu2
    decision = "reject_null" if stat >= thr else "accept_null"
    return TestResult(statistic=stat, threshold=thr, decision=decision, k=k, nu_k_sq=nu2)
