"""The sequence-level theory, rate tables and finite-sample rate diagnostics.

Functions of the smoothness sequence a_j, the noise moduli |eps_j| and n
shared by estimation, testing and the lower bounds: the null fluctuation
scale nu_k^2, the optimal dimension kappa*, the base term responsible for
the parametric elbow in estimation, the detection radius and the risk
bound. Around them sit closed-form rate exponents for the tabulated
regimes (ordinary or super-smooth density classes against mildly or
severely ill-posed noise), exact finite-n scans of all rate quantities,
and log-log regression utilities for recovering exponents from numeric or
Monte Carlo data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionNotFound
from .fourier import NoiseModel, SmoothnessClass

__all__ = [
    "RegimeSpec",
    "OrderDescriptor",
    "RateReport",
    "RiskBoundBreakdown",
    "ScanRow",
    "nu_k_sq",
    "optimal_dim_est",
    "base_term",
    "radius_upper",
    "risk_upper_bound",
    "find_eta",
    "optimal_two_point_freq",
    "theoretical_estimation_rate",
    "theoretical_testing_radius",
    "numeric_rate_scan",
    "fit_rate",
    "fit_log_rate",
]


def nu_k_sq(eps: NoiseModel, n: int, k: int) -> float:
    """Null fluctuation scale: (1/n) sqrt(2 sum_{j=1}^{k} |eps_j|^{-4}).

    Under the uniform null, Var_0(q_hat_k) = 2 nu_k^4 n/(n-1) exactly.
    """
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    j = np.arange(1, k + 1)
    with np.errstate(over="ignore"):
        s = 2.0 * float(np.sum(eps.modulus(j) ** -4.0))
    return float(np.sqrt(s)) / n


def optimal_dim_est(cls: SmoothnessClass, eps: NoiseModel, n: int, k_max: int) -> int:
    """Optimal truncation: min{k : a_k^4 <= (2/n^2) sum_{j<=k} |eps_j|^{-4}}.

    The left side is the squared bias of truncation, the right the
    variance proxy; the smallest crossing balances them.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    j = np.arange(1, k_max + 1)
    a4 = cls.a(j) ** 4
    with np.errstate(over="ignore", divide="ignore"):
        var_proxy = 2.0 * np.cumsum(eps.modulus(j) ** -4.0) / n ** 2
    hits = np.nonzero(a4 <= var_proxy)[0]
    if hits.size == 0:
        raise DimensionNotFound(
            f"no k <= {k_max} balances bias and variance at n = {n}"
        )
    return int(hits[0]) + 1


def base_term(cls: SmoothnessClass, eps: NoiseModel, n: int, m_max: int = 10 ** 4):
    """B = max_m min(a_m^4, a_m^2 / (n |eps_m|^2)), scanned over m <= m_max.

    Returns (B, argmax m). The first factor decays in m while the second
    typically grows until noise decay takes over, so the max sits at their
    crossing; a warning flags a scan window too small to contain it.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    m = np.arange(1, m_max + 1)
    a = cls.a(m)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        second = a ** 2 / (n * eps.modulus(m) ** 2)
    vals = np.minimum(a ** 4, np.nan_to_num(second, nan=0.0))
    idx = int(np.argmax(vals))
    if vals[m_max - 1] >= vals[idx] * (1.0 - 1e-12):
        warnings.warn("base term still maximal at m_max; widen the scan window")
    return float(vals[idx]), idx + 1


def radius_upper(cls: SmoothnessClass, eps: NoiseModel, n: int, k: int) -> float:
    """Detection radius at level k: rho_k^2 = max(a_k^2, nu_k^2).

    Alternatives separated from uniform by a multiple of rho_k are
    detectable; minimizing over k gives the testing radius.
    """
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    a_k2 = float(cls.a(np.array([k]))[0]) ** 2
    return max(a_k2, nu_k_sq(eps, n, k))


@dataclass(frozen=True)
class RiskBoundBreakdown:
    """The three competing terms of the estimation risk bound.

    total = max(c1 * bias_sq, c2 * variance_quadratic, c3 * variance_linear)
    with c1 = 3 R^4, c2 = 3 (||eps||_inf + R^2), c3 = 3 ||eps||_inf R^2.
    bias_sq is a_k^4, variance_quadratic is nu_k^4, variance_linear is the
    base term B (the source of the elbow).
    """

    bias_sq: float
    variance_linear: float
    variance_quadratic: float
    total: float
    constants: tuple

    def terms(self) -> tuple:
        c1, c2, c3 = self.constants
        return (c1 * self.bias_sq, c2 * self.variance_quadratic, c3 * self.variance_linear)


def risk_upper_bound(
    cls: SmoothnessClass, eps: NoiseModel, n: int, k: int, m_max: int = 10 ** 4
) -> RiskBoundBreakdown:
    """Uniform risk bound over the ellipsoid at truncation level k.

    E (q_hat_k - q(f))^2 <= c1 a_k^4 v c2 nu_k^4 v c3 B, with the sup norm
    of the observation density bounded by ||eps||_inf.

    Needs n >= 3: the null risk is exactly 2 nu_k^4 n/(n-1), and
    c2 > 3 >= 2n/(n-1) holds because ||eps||_inf >= 1, but only for n >= 3.
    """
    if n < 3 or k < 1:
        raise ValueError("need n >= 3 and k >= 1")
    r2 = cls.radius ** 2
    eps_sup = eps.sup_norm
    c1 = 3.0 * r2 ** 2
    c2 = 3.0 * (eps_sup + r2)
    c3 = 3.0 * eps_sup * r2
    a_k4 = float(cls.a(np.array([k]))[0]) ** 4
    nu4 = nu_k_sq(eps, n, k) ** 2
    b, _ = base_term(cls, eps, n, m_max)
    total = max(c1 * a_k4, c2 * nu4, c3 * b)
    return RiskBoundBreakdown(
        bias_sq=a_k4,
        variance_linear=b,
        variance_quadratic=nu4,
        total=total,
        constants=(c1, c2, c3),
    )


def find_eta(cls: SmoothnessClass, eps: NoiseModel, n: int, k_max: int = 10 ** 5) -> float:
    """Balance factor eta = (a^2 ^ nu^2) / (a^2 v nu^2) at the optimal
    dimension; always in (0, 1], equal to 1 when bias and fluctuation
    scales cross exactly at kappa*."""
    kappa = optimal_dim_est(cls, eps, n, k_max)
    a2 = float(cls.a(np.array([kappa]))[0]) ** 2
    nu2 = nu_k_sq(eps, n, kappa)
    return min(a2, nu2) / max(a2, nu2)


def optimal_two_point_freq(
    cls: SmoothnessClass, eps: NoiseModel, n: int, m_max: int = 10 ** 4
) -> int:
    """Frequency m* maximizing the base term min(a_m^4, a_m^2/(n|eps_m|^2));
    equivalently the largest m with n a_m^2 |eps_m|^2 >= 1 when the
    sequences decay."""
    _, m_star = base_term(cls, eps, n, m_max)
    return m_star


@dataclass(frozen=True)
class RegimeSpec:
    """A (smoothness, ill-posedness) pairing from the rate tables.

    smoothness: "ordinary" (a_j ~ j^{-s}, s > 1/2) or "super"
    (a_j ~ exp(-j^s), s > 0); illposedness: "mild" (|eps_j| ~ j^{-p},
    p > 1/2) or "severe" (|eps_j| ~ exp(-j^p), p > 0).
    """

    smoothness: str
    s: float
    illposedness: str
    p: float

    def __post_init__(self):
        if self.smoothness == "ordinary":
            if self.s <= 0.5:
                raise ValueError("ordinary smoothness requires s > 1/2")
        elif self.smoothness == "super":
            if self.s <= 0:
                raise ValueError("super smoothness requires s > 0")
        else:
            raise ValueError(f"unknown smoothness {self.smoothness!r}")
        if self.illposedness == "mild":
            if self.p <= 0.5:
                raise ValueError("mild ill-posedness requires p > 1/2")
        elif self.illposedness == "severe":
            if self.p <= 0:
                raise ValueError("severe ill-posedness requires p > 0")
        else:
            raise ValueError(f"unknown illposedness {self.illposedness!r}")


@dataclass(frozen=True)
class OrderDescriptor:
    """Order of a positive sequence: n^{n_exp} (log n)^{log_exp}.

    Constant factors are deliberately absent; rate statements are only
    meaningful up to constants.
    """

    n_exp: float
    log_exp: float = 0.0

    def value(self, n) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        return n ** self.n_exp * np.log(n) ** self.log_exp


@dataclass(frozen=True)
class RateReport:
    regime: RegimeSpec
    r_star4: Optional[OrderDescriptor]
    base: Optional[OrderDescriptor]
    rate: OrderDescriptor
    elbow: bool
    elbow_condition: str


def theoretical_estimation_rate(reg: RegimeSpec, n: int = 0) -> RateReport:
    """Closed-form order of the minimax estimation risk for the regime.

    ordinary/mild: n^{-8s/(4s+4p+1)}, switching to the parametric n^{-1}
    once s - p >= 1/4 (the elbow); ordinary/severe: (log n)^{-4s/p};
    super/mild: n^{-1}.
    """
    s, p = reg.s, reg.p
    if reg.smoothness == "ordinary" and reg.illposedness == "mild":
        elbow = s - p >= 0.25
        r4 = OrderDescriptor(-8.0 * s / (4.0 * s + 4.0 * p + 1.0))
        b = OrderDescriptor(-1.0)
        rate = b if elbow else r4
        return RateReport(reg, r4, b, rate, elbow, "s - p >= 1/4")
    if reg.smoothness == "ordinary" and reg.illposedness == "severe":
        rate = OrderDescriptor(0.0, -4.0 * s / p)
        return RateReport(reg, rate, OrderDescriptor(-1.0), rate, False, "never (log regime)")
    if reg.smoothness == "super" and reg.illposedness == "mild":
        rate = OrderDescriptor(-1.0)
        return RateReport(reg, None, rate, rate, True, "always (parametric)")
    raise ValueError("no tabulated rate for super-smooth against severe noise")


def theoretical_testing_radius(reg: RegimeSpec, n: int = 0) -> RateReport:
    """Closed-form order of the minimax radius of testing (squared scale
    is this value; the table reports rho*^2). There is no elbow: testing
    never accelerates to a parametric rate in the ordinary/mild regime.
    """
    s, p = reg.s, reg.p
    if reg.smoothness == "ordinary" and reg.illposedness == "mild":
        rate = OrderDescriptor(-4.0 * s / (4.0 * s + 4.0 * p + 1.0))
        return RateReport(reg, rate, None, rate, False, "no elbow for testing")
    if reg.smoothness == "ordinary" and reg.illposedness == "severe":
        rate = OrderDescriptor(0.0, -2.0 * s / p)
        return RateReport(reg, rate, None, rate, False, "no elbow for testing")
    if reg.smoothness == "super" and reg.illposedness == "mild":
        rate = OrderDescriptor(-1.0, (4.0 * p + 1.0) / (2.0 * s))
        return RateReport(reg, rate, None, rate, False, "no elbow for testing")
    raise ValueError("no tabulated radius for super-smooth against severe noise")


@dataclass(frozen=True)
class ScanRow:
    n: int
    kappa_star: int
    rho_star_sq: float
    r_star4: float
    base: float

    @property
    def estimation_bound(self) -> float:
        return max(self.r_star4, self.base)


def numeric_rate_scan(
    cls: SmoothnessClass,
    eps: NoiseModel,
    n_grid,
    k_max: int = 10 ** 5,
    m_max: int = 10 ** 4,
):
    """Exact finite-n rate quantities for each n in an ascending grid.

    Per n: the optimal dimension kappa*, the minimized testing radius
    rho*^2 = min_k max(a_k^2, nu_k^2), its square r*^4, and the base term.
    Feeding columns of the result to fit_rate recovers the closed-form
    exponents.
    """
    n_grid = list(n_grid)
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly ascending")
    rows = []
    for n in n_grid:
        kappa = optimal_dim_est(cls, eps, n, k_max)
        # rho_k^2 = max(a_k^2, nu_k^2) is minimized near the crossing at
        # kappa*; scan a safety margin on both sides.
        lo, hi = 1, min(k_max, 4 * kappa + 8)
        ks = np.arange(lo, hi + 1)
        a2 = cls.a(ks) ** 2
        with np.errstate(over="ignore"):
            nu2 = np.sqrt(2.0 * np.cumsum(eps.modulus(ks) ** -4.0)) / n
        rho2 = float(np.min(np.maximum(a2, nu2)))
        b, _ = base_term(cls, eps, n, m_max)
        rows.append(ScanRow(n=n, kappa_star=kappa, rho_star_sq=rho2, r_star4=rho2 ** 2, base=b))
    return rows


def _log_fit(values, regressors):
    """Least squares of log(values) on an intercept plus the regressor
    columns. Returns (coefficients, r_squared)."""
    values = np.asarray(values, dtype=float)
    if values.size < 4:
        raise ValueError("need at least 4 points")
    if np.any(values <= 0):
        raise ValueError("values must be strictly positive")
    y = np.log(values)
    x = np.column_stack([np.ones_like(y), *regressors])
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return coef, r2


def fit_rate(ns, values, log_log_term: bool = False):
    """Least-squares fit of log v on log n (optionally + log log n).

    Returns (slope, log_exponent, r_squared); log_exponent is 0.0 when
    the log-log regressor is disabled.
    """
    log_n = np.log(np.asarray(ns, dtype=float))
    coef, r2 = _log_fit(values, [log_n, np.log(log_n)] if log_log_term else [log_n])
    return float(coef[1]), float(coef[2]) if log_log_term else 0.0, r2


def fit_log_rate(ns, values):
    """Fit log v = c + gamma * log log n (pure log-rate regimes, where the
    n term is absent). Returns (gamma, r_squared)."""
    coef, r2 = _log_fit(values, [np.log(np.log(np.asarray(ns, dtype=float)))])
    return float(coef[1]), r2
