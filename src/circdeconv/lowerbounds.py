"""Lower-bound constructions: hypercube mixtures and two-point hypotheses.

Two reductions show that the upper bounds of the estimation and testing
modules are sharp up to constants:

* A hypercube family of 2^kappa sign-flipped densities, all separated
  from uniform by the same amount, whose uniform mixture is
  chi^2-indistinguishable from the null. This yields the testing lower
  bound and, through the testing-to-estimation reduction, the first
  estimation lower bound.
* A two-point pair (f_plus, f_minus) differing at one frequency, with a
  Hellinger-affinity reduction giving the base-term (elbow) estimation
  lower bound.

Every construction verifies its complete list of defining inequalities
and raises ConditionViolation naming the first one that fails.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConditionViolation
from .fourier import FourierDensity, NoiseModel, SmoothnessClass, ellipsoid_membership
from .rates import find_eta, optimal_dim_est, radius_upper, variance_sums

__all__ = [
    "HypercubeFamily",
    "TwoPointPair",
    "build_hypercube",
    "chi2_mixture_bound",
    "build_two_point",
    "hellinger_reduction_bound",
    "testing_to_estimation_lb",
    "exact_mixture_chi2",
]

# Slack used when asserting the lower-bound construction inequalities.
CONDITION_SLACK = 1e-10

# exp() argument beyond which the chi-square mixture bound overflows.
CHI2_EXP_OVERFLOW = 700.0

# Largest cube dimension whose 2^k sign vectors are enumerated.
MAX_SIGN_DIM = 20


@dataclass(frozen=True, eq=False)
class HypercubeFamily:
    """All 2^kappa sign assignments of a single coefficient magnitude vector.

    base_coeffs holds theta_j > 0 for j = 1..kappa; the vertex for a sign
    vector tau has f_j = tau_j * theta_j. Every vertex is a certified
    density inside the ellipsoid, separated from uniform by exactly
    zeta * eta * rho_star^2 in squared norm.
    rho_star_sq is radius_upper, max(a_k^2, nu_k^2), at the crossing
    k = kappa*: at least the scan's ScanRow.rho_star_sq, its minimum over k.
    """

    base_coeffs: np.ndarray
    kappa: int
    zeta: float
    eta: float
    rho_star_sq: float
    separation_sq: float  # q(f^tau) = zeta * eta * rho_star_sq
    similarity: float  # n^2 * 2 sum theta_j^4 |eps_j|^4

    def __post_init__(self):
        c = np.asarray(self.base_coeffs, dtype=float)
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "base_coeffs", c)

    @property
    def a_lower_sq(self) -> float:
        """Squared separation constant: the family sits at distance
        a_lower * rho_star from the null."""
        return self.zeta * self.eta

    def vertex(self, tau) -> FourierDensity:
        tau = np.asarray(tau, dtype=float)
        if tau.shape != (self.kappa,) or not np.all(np.abs(tau) == 1.0):
            raise ValueError("tau must be a +/-1 vector of length kappa")
        return FourierDensity.from_tail(tau * self.base_coeffs)


def build_hypercube(
    cls: SmoothnessClass, eps: NoiseModel, n: int, alpha: float
) -> HypercubeFamily:
    """Construct the hypercube family at the optimal dimension.

    theta_j = sqrt(zeta * eta) * rho_star * |eps_j|^{-2} / sqrt(S) with
    S = 2 sum_{l <= kappa} |eps_l|^{-4} and
    zeta = min(R^2, sqrt(log(1 + 2 alpha^2)), 1 / L_a). The three caps
    respectively enforce ellipsoid membership, chi^2 similarity to the
    null, and the l1 density certificate; all are re-verified explicitly.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    l_a = cls.l_a
    kappa = optimal_dim_est(cls, eps, n)
    eta, rho_star_sq = find_eta(cls, eps, n), radius_upper(cls, eps, n, kappa)
    s = float(variance_sums(eps, kappa)[-1])
    budget = np.log(1.0 + 2.0 * alpha ** 2)
    zeta = min(cls.radius ** 2, np.sqrt(budget), 1.0 / l_a)
    mod = eps.modulus(np.arange(1, kappa + 1))
    theta = np.sqrt(zeta * eta) * np.sqrt(rho_star_sq) * mod ** -2.0 / np.sqrt(s)

    vertex = FourierDensity.from_tail(theta)
    # (a) square-summable: finite vector by construction
    if not np.all(np.isfinite(theta)):
        raise ConditionViolation("(a) in L2", "coefficients not finite")
    # (b) real-valued: theta real and shared across +/- j by construction
    if np.any(theta < 0):
        raise ConditionViolation("(b) real-valued", "theta must be nonnegative")
    # (c) normalized: f_0 = 1 is enforced by FourierDensity
    # (d) positive: l1 certificate
    if vertex.l1_tail > 1.0 + CONDITION_SLACK:
        raise ConditionViolation(
            "(d) positive", f"l1 tail {vertex.l1_tail:.6g} exceeds 1"
        )
    # (e) smoothness: ellipsoid membership
    member, lhs = ellipsoid_membership(vertex, cls)
    if not member:
        raise ConditionViolation(
            "(e) smoothness", f"weighted tail {lhs:.6g} exceeds R^2 = {cls.radius ** 2:.6g}"
        )
    # (f) separation: q(f^tau) = zeta * eta * rho_star^2 exactly
    sep = 2.0 * float(np.sum(theta ** 2))
    if not np.isclose(sep, zeta * eta * rho_star_sq, rtol=1e-10, atol=0):
        raise ConditionViolation(
            "(f) separation", f"q = {sep:.6g} != zeta*eta*rho*^2 = {zeta * eta * rho_star_sq:.6g}"
        )
    # (g) similarity: n^2 * 2 sum theta^4 |eps|^4 <= log(1 + 2 alpha^2)
    sim = n ** 2 * 2.0 * float(np.sum(theta ** 4 * mod ** 4))
    if sim > budget + CONDITION_SLACK:
        raise ConditionViolation("(g) similarity", f"{sim:.6g} exceeds log(1+2a^2) = {budget:.6g}")
    return HypercubeFamily(
        base_coeffs=theta,
        kappa=kappa,
        zeta=float(zeta),
        eta=eta,
        rho_star_sq=rho_star_sq,
        separation_sq=sep,
        similarity=sim,
    )


def chi2_mixture_bound(theta, n: int) -> float:
    """Upper bound exp(2 n^2 sum theta_j^4) - 1 on the chi^2 divergence
    between the uniform vertex mixture and the null, where theta_j are the
    observation-space coefficient magnitudes (f_j |eps_j|)."""
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    expo = 2.0 * n ** 2 * float(np.sum(theta ** 4))
    if expo > CHI2_EXP_OVERFLOW:
        raise OverflowError(
            f"chi^2 bound exponent {expo:.3g} overflows; rescale the construction"
        )
    return float(np.expm1(expo))


@dataclass(frozen=True, eq=False)
class TwoPointPair:
    """Hypotheses f_plus, f_minus differing only at frequency +/-m:

    f^+/-_{+/-m} = (1 +/- xi) C a_m with C = min(1/4, R/sqrt(8)) and
    xi^2 = min(1, 1 / (n a_m^2 |eps_m|^2)).
    """

    f_plus: FourierDensity
    f_minus: FourierDensity
    m: int
    xi: float
    C: float
    a_m: float
    eps_m: float
    separation_sq: float  # (p^2 - q^2)^2 = 64 xi^2 C^4 a_m^4
    conv_diff_sq: float  # per-frequency value 4 C^2 xi^2 a_m^2 |eps_m|^2


def build_two_point(cls: SmoothnessClass, eps: NoiseModel, n: int, m: int) -> TwoPointPair:
    """Construct and fully verify the two-point pair at frequency m."""
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    r = cls.radius
    a_m = float(cls.a(np.array([m]))[0])
    eps_m = float(eps.modulus(np.array([m]))[0])
    c = min(0.25, r / np.sqrt(8.0))
    xi = float(np.sqrt(min(1.0, 1.0 / (n * a_m ** 2 * eps_m ** 2))))

    def tail(sign):
        t = np.zeros(m, dtype=complex)
        t[m - 1] = (1.0 + sign * xi) * c * a_m
        return t

    f_plus = FourierDensity.from_tail(tail(+1.0))
    f_minus = FourierDensity.from_tail(tail(-1.0))

    # (a) L2, (b) real-valued, (c) f_0 = 1: structural, checked cheaply
    if not (np.all(np.isfinite(f_plus.coeffs)) and np.all(np.isfinite(f_minus.coeffs))):
        raise ConditionViolation("(a) in L2", "coefficients not finite")
    if abs(f_plus.coeffs[m].imag) > 0 or abs(f_minus.coeffs[m].imag) > 0:
        raise ConditionViolation("(b) real-valued", "coefficients must be real")
    # (d) positive: sum_{j != 0} |f_j| = 2 (1 + xi) C a_m <= 1
    d_lhs = 2.0 * (1.0 + xi) * c * a_m
    if d_lhs > 1.0 + CONDITION_SLACK:
        raise ConditionViolation("(d) positive", f"l1 tail {d_lhs:.6g} exceeds 1")
    # (e) bounded from below: 2 (1 - xi) C a_m |eps_m| <= 1/2, so that
    # the convolved f_minus stays >= 1/2 pointwise
    e_lhs = 2.0 * (1.0 - xi) * c * a_m * eps_m
    if e_lhs > 0.5 + CONDITION_SLACK:
        raise ConditionViolation("(e) bounded from below", f"{e_lhs:.6g} exceeds 1/2")
    # (f) smoothness: 2 a_m^{-2} (1 + xi)^2 C^2 a_m^2 <= R^2
    f_lhs = 2.0 * (1.0 + xi) ** 2 * c ** 2
    if f_lhs > r ** 2 + CONDITION_SLACK:
        raise ConditionViolation("(f) smoothness", f"{f_lhs:.6g} exceeds R^2 = {r ** 2:.6g}")
    # (g) separation identity
    p2 = 2.0 * (1.0 + xi) ** 2 * c ** 2 * a_m ** 2
    q2 = 2.0 * (1.0 - xi) ** 2 * c ** 2 * a_m ** 2
    sep = (p2 - q2) ** 2
    sep_closed = 64.0 * xi ** 2 * c ** 4 * a_m ** 4
    if not np.isclose(sep, sep_closed, rtol=1e-12, atol=0):
        raise ConditionViolation("(g) separation", "closed form mismatch")
    # (h) similarity: 4 C^2 xi^2 a_m^2 |eps_m|^2 <= 1/(4n)
    conv_diff = 4.0 * c ** 2 * xi ** 2 * a_m ** 2 * eps_m ** 2
    if conv_diff > 0.25 / n + CONDITION_SLACK:
        raise ConditionViolation("(h) similarity", f"{conv_diff:.6g} exceeds 1/(4n)")
    return TwoPointPair(
        f_plus=f_plus,
        f_minus=f_minus,
        m=m,
        xi=xi,
        C=c,
        a_m=a_m,
        eps_m=eps_m,
        separation_sq=sep_closed,
        conv_diff_sq=conv_diff,
    )


def hellinger_reduction_bound(pair: TwoPointPair, n: int) -> float:
    """Estimation-risk lower bound from the two-point pair:

        (1/8) (p^2 - q^2)^2 (1 - 2 n ||f+ (*) eps - f- (*) eps||^2),

    using the construction's similarity value, so with condition (h) the
    parenthesis is at least 1/2 and the bound at least separation^2 / 16.
    """
    factor = 1.0 - 2.0 * n * pair.conv_diff_sq
    return 0.125 * pair.separation_sq * max(factor, 0.0)


def testing_to_estimation_lb(rho_sq: float, alpha: float, A_lower: float) -> float:
    """Convert a testing lower bound into an estimation lower bound:

        r^2 >= (1 - alpha) * (A_lower^2 / 8) * rho^4.

    Any estimator yields a test by thresholding at rho^2 / 2, so a radius
    of testing caps how well the functional can be estimated.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if rho_sq < 0 or A_lower < 0:
        raise ValueError("inputs must be nonnegative")
    return (1.0 - alpha) * A_lower ** 2 / 8.0 * rho_sq ** 2


def exact_mixture_chi2(theta, n: int) -> float:
    """Exact chi^2 divergence between the sign-mixture and the null.

    theta holds the observation-space coefficient magnitudes (f_j |eps_j|)
    for j = 1..kappa <= MAX_SIGN_DIM. Vertices with signs tau, tau' have
    integral g g' = 1 + 2 sum theta_j^2 tau_j tau'_j, so chi^2 is
    E_eta (1 + 2 sum theta_j^2 eta_j)^n - 1 over eta uniform on {+,-}^kappa.
    2 sum theta_j^2 >= 1 is refused: some vertex would be negative at 0.
    A divergence beyond float range overflows to inf.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or not np.all(np.isfinite(theta)):
        raise ValueError("theta must be a finite 1-d array")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if theta.size > MAX_SIGN_DIM:
        raise ValueError(f"sign enumeration limited to kappa <= {MAX_SIGN_DIM}")
    t2 = 2.0 * theta ** 2
    if t2.sum() >= 1.0:
        raise ValueError("2 sum theta_j^2 must be < 1, or some vertex is negative at 0")
    x = np.zeros(1)
    for t in t2:
        x = np.concatenate((x + t, x - t))
    return float(np.mean(np.expm1(n * np.log1p(x))))
