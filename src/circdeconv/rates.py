"""The sequence-level theory, rate tables and finite-sample rate diagnostics.

Functions of the smoothness sequence a_j, the noise moduli |eps_j| and n
shared by estimation, testing and the lower bounds: the null fluctuation
scale nu_k^2, the optimal dimension kappa*, the base term responsible for
the parametric elbow in estimation, the detection radius and the risk
bound. Around them sit closed-form rate exponents for the tabulated
regimes (ordinary or super-smooth SmoothnessClass against mild or severe
NoiseModel), exact finite-n scans of all rate quantities,
and log-log regression utilities for recovering exponents from numeric or
Monte Carlo data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionNotFound
from .fourier import NoiseModel, SmoothnessClass

__all__ = [
    "K_MAX",
    "M_MAX",
    "OrderDescriptor",
    "RateReport",
    "RiskBoundBreakdown",
    "ScanRow",
    "variance_sums",
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


# Scan windows: kappa* is searched over k <= K_MAX and the base term over
# m <= M_MAX, both cut at the noise density's max_freq (_window).
K_MAX = 10 ** 5
M_MAX = 10 ** 4


def _window(eps: NoiseModel, limit: int) -> int:
    """Scan frequencies 1..limit, or 1..max_freq for explicit noise, whose
    modulus is undefined above max_freq (at least 1 by construction)."""
    return min(limit, eps.max_freq) if eps.kind == "explicit" else limit


def variance_sums(eps: NoiseModel, k: int) -> np.ndarray:
    """S_1..S_k, S_k = 2 sum_{j<=k} |eps_j|^{-4}, summed in index order: S_k is
    the same float in every call that covers k (inf once |eps_j| underflows)."""
    with np.errstate(over="ignore", divide="ignore"):
        return 2.0 * np.cumsum(eps.modulus(np.arange(1, k + 1)) ** -4.0)


def nu_k_sq(eps: NoiseModel, n: int, k: int) -> float:
    """Null fluctuation scale: nu_k^2 = sqrt(S_k) / n, S_k from variance_sums.

    Under the uniform null, Var_0(q_hat_k) = 2 nu_k^4 n/(n-1) exactly.
    A non-finite S_k (some |eps_j|^-4 overflows) is refused.
    """
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    s_k = _finite_s_k(variance_sums(eps, k)[-1], k)
    return float(np.sqrt(s_k)) / n


def _finite_s_k(s_k, k: int):
    """s_k, the S_k of variance_sums; a ValueError if it overflowed."""
    if not np.isfinite(s_k):
        raise ValueError(f"S_k = 2 sum_j |eps_j|^-4 over j <= k overflows at k = {k}")
    return s_k


def optimal_dim_est(cls: SmoothnessClass, eps: NoiseModel, n: int) -> int:
    """Optimal truncation: min{k : a_k^4 <= S_k / n^2}, S_k from variance_sums.

    The left side is the squared bias of truncation, the right the
    variance proxy; the smallest crossing balances them. The scan reads
    prefixes of 64, 256, ... frequencies up to the window, stopping at the
    first that holds a crossing; S_k and a_k do not depend on the prefix,
    so the result is that of one scan over the whole window. A crossing
    whose S_k overflows is refused, as nu_k_sq refuses it.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    try:
        n_sq = float(n ** 2)
    except OverflowError:
        raise ValueError("n is too large: n^2 must lie within float range") from None
    k_max = _window(eps, K_MAX)
    width = 64
    while True:
        width = min(width, k_max)
        a4 = cls.a(np.arange(1, width + 1)) ** 4
        s = variance_sums(eps, width)
        hits = np.flatnonzero(a4 <= s / n_sq)
        if hits.size:
            k = int(hits[0]) + 1
            _finite_s_k(s[k - 1], k)
            return k
        if width == k_max:
            raise DimensionNotFound(f"no k <= {k_max} balances bias and variance at n = {n}")
        width *= 4


def base_term(cls: SmoothnessClass, eps: NoiseModel, n: int):
    """B = max_m min(a_m^4, a_m^2 / (n |eps_m|^2)), scanned over the window
    m <= M_MAX (cut at max_freq for explicit noise).

    Returns (B, argmax m). The first factor decays in m while the second
    typically grows until noise decay takes over, so the max sits at their
    crossing; a warning flags a maximum still rising at the window end.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    m_max = _window(eps, M_MAX)
    m = np.arange(1, m_max + 1)
    a = cls.a(m)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        second = a ** 2 / (n * eps.modulus(m) ** 2)
    vals = np.minimum(a ** 4, np.nan_to_num(second, nan=0.0))
    idx = int(np.argmax(vals))
    if vals[m_max - 1] >= vals[idx] * (1.0 - 1e-12):
        warnings.warn(f"base term still maximal at the scan window end m = {m_max}")
    return float(vals[idx]), idx + 1


def radius_upper(cls: SmoothnessClass, eps: NoiseModel, n: int, k: int) -> float:
    """Detection radius at level k: rho_k^2 = max(a_k^2, nu_k^2).

    Alternatives separated from uniform by a multiple of rho_k are
    detectable; minimizing over k gives the testing radius.
    """
    nu2 = nu_k_sq(eps, n, k)  # refuses n < 2 and k < 1 before cls.a sees k
    return max(float(cls.a(np.array([k]))[0]) ** 2, nu2)


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


def risk_upper_bound(cls: SmoothnessClass, eps: NoiseModel, n: int, k: int) -> RiskBoundBreakdown:
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
    b, _ = base_term(cls, eps, n)
    total = max(c1 * a_k4, c2 * nu4, c3 * b)
    return RiskBoundBreakdown(
        bias_sq=a_k4,
        variance_linear=b,
        variance_quadratic=nu4,
        total=total,
        constants=(c1, c2, c3),
    )


def find_eta(cls: SmoothnessClass, eps: NoiseModel, n: int) -> float:
    """Balance factor eta = (a^2 ^ nu^2) / (a^2 v nu^2) at the optimal
    dimension; always in (0, 1], equal to 1 when bias and fluctuation
    scales cross exactly at kappa*."""
    kappa = optimal_dim_est(cls, eps, n)
    a2 = float(cls.a(np.array([kappa]))[0]) ** 2
    nu2 = nu_k_sq(eps, n, kappa)
    return min(a2, nu2) / max(a2, nu2)


def optimal_two_point_freq(cls: SmoothnessClass, eps: NoiseModel, n: int) -> int:
    """Frequency m* maximizing the base term min(a_m^4, a_m^2/(n|eps_m|^2));
    equivalently the largest m with n a_m^2 |eps_m|^2 >= 1 when the
    sequences decay."""
    _, m_star = base_term(cls, eps, n)
    return m_star


@dataclass(frozen=True)
class OrderDescriptor:
    """Order of a positive sequence: n^{n_exp} (log n)^{log_exp}.

    Constant factors are deliberately absent; rate statements are only
    meaningful up to constants.
    """

    n_exp: float
    log_exp: float = 0.0


@dataclass(frozen=True)
class RateReport:
    rate: OrderDescriptor
    elbow: bool
    elbow_condition: str


def _tabulated(cls: SmoothnessClass, eps: NoiseModel, what: str) -> str:
    """The table row "ordinary/mild", "ordinary/severe" or "super/mild";
    ValueError for any other pairing, explicit sequences included."""
    row = f"{cls.kind}/{eps.kind}"
    if row not in ("ordinary/mild", "ordinary/severe", "super/mild"):
        raise ValueError(f"no tabulated {what} for {cls.kind} smoothness against {eps.kind} noise")
    return row


def theoretical_estimation_rate(cls: SmoothnessClass, eps: NoiseModel) -> RateReport:
    """Closed-form order of the minimax estimation risk for the regime of
    (cls, eps), with s = cls.s and p = eps.p.

    ordinary/mild: n^{-8s/(4s+4p+1)}, switching to the parametric n^{-1}
    once s - p >= 1/4 (the elbow); ordinary/severe: (log n)^{-4s/p};
    super/mild: n^{-1}.
    """
    row = _tabulated(cls, eps, "rate")
    s, p = cls.s, eps.p
    if row == "ordinary/mild":
        elbow = s - p >= 0.25
        r4 = OrderDescriptor(-8.0 * s / (4.0 * s + 4.0 * p + 1.0))
        rate = OrderDescriptor(-1.0) if elbow else r4
        return RateReport(rate, elbow, "s - p >= 1/4")
    if row == "ordinary/severe":
        rate = OrderDescriptor(0.0, -4.0 * s / p)
        return RateReport(rate, False, "never (log regime)")
    rate = OrderDescriptor(-1.0)
    return RateReport(rate, True, "always (parametric)")


def theoretical_testing_radius(cls: SmoothnessClass, eps: NoiseModel) -> RateReport:
    """Closed-form order of the minimax radius of testing (squared scale
    is this value; the table reports rho*^2). There is no elbow: testing
    never accelerates to a parametric rate in the ordinary/mild regime.
    """
    row = _tabulated(cls, eps, "radius")
    s, p = cls.s, eps.p
    if row == "ordinary/mild":
        rate = OrderDescriptor(-4.0 * s / (4.0 * s + 4.0 * p + 1.0))
    elif row == "ordinary/severe":
        rate = OrderDescriptor(0.0, -2.0 * s / p)
    else:
        rate = OrderDescriptor(-1.0, (4.0 * p + 1.0) / (2.0 * s))
    return RateReport(rate, False, "no elbow for testing")


@dataclass(frozen=True)
class ScanRow:
    """rho_star_sq is min_k max(a_k^2, nu_k^2); HypercubeFamily.rho_star_sq
    takes k = kappa*, so it is larger where the minimum sits at kappa* - 1."""

    n: int
    kappa_star: int
    rho_star_sq: float
    r_star4: float
    base_term: float

    @property
    def estimation_bound(self) -> float:
        return max(self.r_star4, self.base_term)


def numeric_rate_scan(cls: SmoothnessClass, eps: NoiseModel, n_grid):
    """Exact finite-n rate quantities for each n in an ascending grid.

    Per n: the optimal dimension kappa*, the minimized testing radius
    rho*^2 = min_k max(a_k^2, nu_k^2), its square r*^4, and the base term.
    A model whose |eps_1|^-4 overflows has no finite rho*^2; optimal_dim_est
    refuses it.
    Feeding columns of the result to fit_rate recovers the closed-form
    exponents.
    """
    n_grid = list(n_grid)
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly ascending")
    rows = []
    for n in n_grid:
        kappa = optimal_dim_est(cls, eps, n)
        # rho_k^2 = max(a_k^2, nu_k^2) is minimized near the crossing at
        # kappa*; scan a safety margin on both sides.
        ks = np.arange(1, min(_window(eps, K_MAX), 4 * kappa + 8) + 1)
        a2 = cls.a(ks) ** 2
        nu2 = np.sqrt(variance_sums(eps, ks.size)) / n
        rho2 = float(np.min(np.maximum(a2, nu2)))
        b, _ = base_term(cls, eps, n)
        rows.append(
            ScanRow(n=n, kappa_star=kappa, rho_star_sq=rho2, r_star4=rho2 ** 2, base_term=b)
        )
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
