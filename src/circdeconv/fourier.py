"""Fourier-side arithmetic for probability densities on the circle [0, 1).

A density f is represented by a truncated Fourier series

    f(x) = 1 + sum_{0 < |j| <= K} f_j exp(2 pi i j x),

stored as the coefficient vector (f_0, f_1, ..., f_K) with f_0 = 1.
Negative frequencies are implied by the Hermitian symmetry
f_{-j} = conj(f_j) of real-valued functions, which makes conjugation
bugs structurally impossible.

Everything in this module is pure and operates on immutable values.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .errors import ClassNotSummable, InvalidDensityError

__all__ = [
    "FourierDensity",
    "SmoothnessClass",
    "NoiseModel",
    "observed_density",
    "quadratic_functional",
    "truncated_functional",
    "ellipsoid_membership",
    "l1_certified",
]

# Number of terms over which an infinite positive series is summed.
SEQUENCE_SUM_TRUNCATION = 10 ** 6


def _sum_sequence(seq: Callable[[np.ndarray], np.ndarray]) -> float:
    """sum_{j=1}^{SEQUENCE_SUM_TRUNCATION} seq(j) of a positive sequence;
    ClassNotSummable unless the last term is below 1e-12 of the total."""
    terms = seq(np.arange(1, SEQUENCE_SUM_TRUNCATION + 1, dtype=float))
    total = float(np.sum(terms))
    if terms[-1] > 1e-12 * max(total, 1e-300):
        raise ClassNotSummable(
            f"sum not settled over {terms.size} terms: last {terms[-1]:.3g} of {total:.6g}"
        )
    return total


# B_2k / (2k)! for k = 1..7: the Euler-Maclaurin correction coefficients.
_EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                    -691 / 1307674368000, 1 / 74724249600)


def _zeta(x: float) -> float:
    """Riemann zeta(x) for real x > 1 by Euler-Maclaurin summation
    (DLMF 25.2) at N = 10:

        sum_{j<N} j^-x + N^(1-x)/(x-1) + N^-x/2
            + sum_{k=1..7} B_2k/(2k)! x(x+1)...(x+2k-2) N^(-x-2k+1),

    within 9e-16 relative of scipy.special.zeta over x in (1 + 1e-9, 200].
    """
    n = 10
    power = n ** -x
    total = sum(j ** -x for j in range(1, n)) + n * power / (x - 1) + power / 2
    # term = x(x+1)...(x+2k-2) N^(-x-2k+1), one factor at a time so that it
    # underflows to 0 rather than forming inf * 0 at huge x
    term = power * x / n
    for k, coeff in enumerate(_EULER_MACLAURIN, start=1):
        total += coeff * term
        term = term * (x + 2 * k - 1) / n * (x + 2 * k) / n
    return total


@dataclass(frozen=True, eq=False)
class FourierDensity:
    """Truncated Fourier representation of a density on [0, 1).

    Two densities are equal when their coefficient vectors have the same
    length and equal entries; the hash agrees (0.0 and -0.0 are equal).

    Parameters
    ----------
    coeffs : np.ndarray
        Complex coefficients (f_0, f_1, ..., f_K). f_0 must equal 1
        exactly (densities integrate to one).
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise InvalidDensityError("coeffs must be a non-empty 1-d vector")
        if not np.all(np.isfinite(c)):
            raise InvalidDensityError("coefficients must be finite")
        if c[0] != 1.0:
            raise InvalidDensityError(f"f_0 must equal 1 exactly, got {c[0]}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __eq__(self, other):
        if not isinstance(other, FourierDensity):
            return NotImplemented
        return self.coeffs.size == other.coeffs.size and bool(np.all(self.coeffs == other.coeffs))

    def __hash__(self):
        return hash(tuple(self.coeffs.tolist()))

    # -- construction -------------------------------------------------

    @classmethod
    def uniform(cls, max_freq: int = 0) -> "FourierDensity":
        """The uniform density: f_0 = 1, all tail coefficients zero."""
        c = np.zeros(max_freq + 1, dtype=complex)
        c[0] = 1.0
        return cls(c)

    @classmethod
    def from_tail(cls, tail) -> "FourierDensity":
        """Build from the positive-frequency coefficients (f_1, ..., f_K)."""
        tail = np.asarray(tail, dtype=complex)
        return cls(np.concatenate(([1.0 + 0j], tail)))

    # -- basic properties ---------------------------------------------

    @property
    def max_freq(self) -> int:
        return self.coeffs.size - 1

    @property
    def l1_tail(self) -> float:
        """sum_{j != 0} |f_j| = 2 sum_{j >= 1} |f_j|."""
        return 2.0 * float(np.sum(np.abs(self.coeffs[1:])))

    # -- evaluation ----------------------------------------------------

    def evaluate(self, x) -> Union[float, np.ndarray]:
        """Evaluate the series at points x in [0, 1).

        By Hermitian symmetry the value is 1 + 2 Re sum_{j>=1} f_j
        exp(2 pi i j x): the imaginary parts of the j and -j terms cancel
        exactly, so the sum is real by construction and nothing is checked.
        """
        x = np.asarray(x, dtype=float)
        j = np.arange(1, self.max_freq + 1)
        phases = np.exp(2j * np.pi * np.multiply.outer(x, j))
        half = phases @ self.coeffs[1:]
        # Hermitian symmetry: full sum = 1 + half + conj(half) = 1 + 2 Re half,
        # with zero imaginary part by construction.
        vals = 1.0 + 2.0 * np.real(half)
        return vals if vals.ndim else float(vals)

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "max_freq": self.max_freq,
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }


def l1_certified(tails) -> np.ndarray:
    """The l1 certificate 2 sum_{j>=1} |f_j| <= 1 per row of tail
    coefficients (f_1, ..., f_K); a NaN row fails. It implies f >= 0 and
    is exactly the condition for sampling f as a mixture (sample_batch)."""
    return 2.0 * np.sum(np.abs(tails), axis=-1) <= 1.0 + 1e-12


def observed_density(f: FourierDensity, eps: "NoiseModel") -> FourierDensity:
    """The density g = f (*) eps of Y = X + eps mod 1, by the convolution
    theorem g_j = f_j eps_j: eps_j from the density of explicit noise, else
    the modulus sequence, the real coefficients of mild or severe noise.

    Raises InvalidDensityError, rather than truncating g, when f has a
    nonzero coefficient above the noise density's max_freq; g stops at the
    smaller of the two max frequencies.
    """
    k = f.max_freq if eps.max_freq is None else min(f.max_freq, eps.max_freq)
    beyond = np.flatnonzero(f.coeffs[k + 1 :])
    if beyond.size:
        raise InvalidDensityError(
            f"f has a nonzero coefficient at frequency {k + 1 + int(beyond[-1])}, "
            f"above the noise density's max_freq {k} (noise_max_freq in a config)"
        )
    j = np.arange(1, k + 1)
    eps_j = eps.modulus(j) if eps.density is None else eps.density.coeffs[j]
    return FourierDensity.from_tail(f.coeffs[1 : k + 1] * eps_j)


def quadratic_functional(f: FourierDensity) -> float:
    """Squared L2 distance to the uniform density: 2 sum_{j>=1} |f_j|^2."""
    return 2.0 * float(np.sum(np.abs(f.coeffs[1:]) ** 2))


def truncated_functional(f: FourierDensity, k: int) -> float:
    """Partial sum 2 sum_{j=1}^{k} |f_j|^2 (coefficients beyond K are zero)."""
    if k < 1:
        raise ValueError("truncation level k must be >= 1")
    return 2.0 * float(np.sum(np.abs(f.coeffs[1 : k + 1]) ** 2))


def _check_finite(model, *names):
    """ValueError naming the first of the given fields that is set but not finite."""
    for name in names:
        value = getattr(model, name)
        if value is not None and not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _integer(name: str, value, low: int, integral_float: bool = True, too_low: str = "") -> int:
    """value as an int >= low; a ValueError naming the field unless value is an
    int (a bool is not) or, with integral_float, an integral float (64.0)."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral or integral_float and isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(too_low or f"{name} must be >= {low}")
    return int(value)


def _power(x: float, p: int) -> float:
    """x ** p, with inf where Python's float ** raises OverflowError."""
    try:
        return x ** p
    except OverflowError:
        return np.inf


def ellipsoid_membership(f: FourierDensity, cls: "SmoothnessClass"):
    """Check 2 sum_j a_j^{-2} |f_j|^2 <= R^2.

    Returns
    -------
    (member, lhs) : (bool, float)
        Membership flag and the value of the weighted tail sum.
    """
    j = np.arange(1, f.max_freq + 1)
    lhs = 2.0 * float(np.sum(np.abs(f.coeffs[1:]) ** 2 / cls.a(j) ** 2))
    return lhs <= cls.radius ** 2 + 1e-12, lhs


@dataclass(frozen=True)
class SmoothnessClass:
    """Ellipsoid class: densities with 2 sum_j a_j^{-2} |f_j|^2 <= R^2.

    kind is one of:
      "ordinary"  a_j = scale * j^{-s},        s > 1/2  (Sobolev)
      "super"     a_j = scale * exp(-j^s),     s > 0    (analytic)
      "explicit"  a_j given by a caller-supplied sequence

    Classes compare and hash by value, except that an explicit sequence
    callable is compared by identity. l_a is computed once per object.
    """

    kind: str
    radius: float
    s: Optional[float] = None
    scale: float = 1.0
    explicit: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        _check_finite(self, "s", "radius", "scale")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.kind == "ordinary":
            if self.s is None or self.s <= 0.5:
                raise ValueError("ordinary smoothness requires s > 1/2")
        elif self.kind == "super":
            if self.s is None or self.s <= 0:
                raise ValueError("super smoothness requires s > 0")
        elif self.kind == "explicit":
            if self.explicit is None:
                raise ValueError("explicit kind needs a sequence evaluator")
        else:
            raise ValueError(f"unknown smoothness kind {self.kind!r}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        # R^4 (risk bound) and a_k^4 (kappa*) past float range raise in float
        # **; a subnormal or zero one makes a vacuous lower bound
        for name in ("radius", "scale"):
            value = getattr(self, name)
            if not sys.float_info.min <= _power(value, 4) < np.inf:
                raise ValueError(
                    f"{name} is out of range: {name}^4 must be a normal float, got {value!r}"
                )

    @classmethod
    def ordinary(cls, s: float, radius: float = 1.0, scale: float = 1.0):
        return cls(kind="ordinary", radius=radius, s=s, scale=scale)

    @classmethod
    def supersmooth(cls, s: float, radius: float = 1.0, scale: float = 1.0):
        return cls(kind="super", radius=radius, s=s, scale=scale)

    @classmethod
    def from_sequence(cls, seq: Callable, radius: float = 1.0):
        return cls(kind="explicit", radius=radius, explicit=seq)

    def a(self, j) -> np.ndarray:
        """Evaluate a_j for integer frequencies j >= 1."""
        j = np.asarray(j, dtype=float)
        if np.any(j < 1):
            raise ValueError("sequence is indexed by j >= 1")
        if self.kind == "ordinary":
            vals = self.scale * j ** (-self.s)
        elif self.kind == "super":
            # exp underflow to 0 at huge j is acceptable: downstream code
            # treats an exactly-zero a_j as a vanishing bias contribution
            vals = self.scale * np.exp(-(j ** self.s))
        else:
            vals = np.asarray(self.explicit(j), dtype=float)
            if np.any(vals <= 0):
                raise ValueError("a_j must be strictly positive")
        return vals

    @cached_property
    def l_a(self) -> float:
        """L_a = 2 sum_j a_j^2, the constant controlling density certification
        of hypercube hypotheses.

        Ordinary classes use zeta(2s); super-smooth and explicit sequences
        are summed by _sum_sequence, which raises ClassNotSummable if the
        series has visibly not settled. A refused sum is not cached, so
        every read raises.
        """
        if self.kind == "ordinary":
            # s > 1/2 guaranteed at construction, so zeta(2s) is finite
            return 2.0 * self.scale ** 2 * _zeta(2.0 * self.s)
        return 2.0 * _sum_sequence(lambda j: self.a(j) ** 2)


@dataclass(frozen=True)
class NoiseModel:
    """Known error density together with its ill-posedness metadata.

    The estimator and all bounds only consume the modulus sequence |eps_j|
    and a sup-norm bound; the density itself is needed when the error is
    actually sampled. kind is one of:

      "mild"      |eps_j| = scale * j^{-p},        p > 1/2
      "severe"    |eps_j| = scale * exp(-j^p),     p > 0
      "explicit"  |eps_j| read off a FourierDensity's coefficients

    max_freq is the top frequency of the sampled density: its coefficients
    are modulus(j), j <= max_freq, for mild and severe noise, which store no
    array, and those of density, which only explicit noise holds. A
    sequence-only model (max_freq=None) supports every bound and rate
    computation but cannot be sampled. Models compare and hash by value
    (the density by its coefficients); sup_norm is computed once per object.
    """

    kind: str
    p: Optional[float] = None
    scale: float = 1.0
    max_freq: Optional[int] = None
    density: Optional[FourierDensity] = None
    sup_norm_value: Optional[float] = None

    def __post_init__(self):
        _check_finite(self, "p", "sup_norm_value")
        m = self.max_freq
        if m is not None:
            too_low = f"noise density needs max_freq >= 1, got {m!r}"
            object.__setattr__(self, "max_freq", _integer("max_freq", m, 1, too_low=too_low))
        if self.density is not None and self.kind != "explicit":
            raise ValueError(f"{self.kind} noise takes no density: eps_j is modulus(j)")
        if self.kind == "mild":
            if self.p is None or self.p <= 0.5:
                raise ValueError("mild ill-posedness requires p > 1/2")
        elif self.kind == "severe":
            if self.p is None or self.p <= 0:
                raise ValueError("severe ill-posedness requires p > 0")
        elif self.kind == "explicit":
            if self.density is None:
                raise ValueError("explicit noise needs a density")
            if self.density.max_freq < 1:
                raise ValueError("noise density has no frequency: its tail is empty")
            if np.any(np.abs(self.density.coeffs[1:]) == 0.0):
                raise ValueError("noise coefficients must be non-vanishing")
            if self.max_freq not in (None, self.density.max_freq):
                raise ValueError(f"max_freq must be the density's, {self.density.max_freq}")
            object.__setattr__(self, "max_freq", self.density.max_freq)
        else:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not (0 < self.scale <= 1.0):
            raise ValueError("scale must lie in (0, 1]: |eps_j| <= 1 for densities")
        if self.sup_norm_value is not None and self.sup_norm_value < 1.0:
            raise ValueError("sup norm of a density on [0,1) is at least 1")

    @classmethod
    def mild(
        cls,
        p: float,
        scale: float = 1.0,
        max_freq: Optional[int] = None,
        sup_norm_value: Optional[float] = None,
    ):
        """Polynomially ill-posed model; with max_freq set, it samples the real,
        symmetric noise density eps_j = scale * j^{-p}, j <= max_freq."""
        return cls(kind="mild", p=p, scale=scale, max_freq=max_freq, sup_norm_value=sup_norm_value)

    @classmethod
    def severe(cls, p: float, scale: float = 1.0, max_freq: Optional[int] = None):
        return cls(kind="severe", p=p, scale=scale, max_freq=max_freq)

    @classmethod
    def from_density(cls, density: FourierDensity):
        return cls(kind="explicit", density=density)

    def modulus(self, j) -> np.ndarray:
        """|eps_j| for integer frequencies j >= 1; strictly positive."""
        j = np.asarray(j, dtype=float)
        if np.any(j < 1):
            raise ValueError("modulus is indexed by j >= 1")
        if self.kind == "mild":
            return self.scale * j ** (-self.p)
        if self.kind == "severe":
            return self.scale * np.exp(-(j ** self.p))
        if np.any(j > self.max_freq):
            raise ValueError("explicit noise modulus queried beyond max_freq")
        return np.abs(self.density.coeffs[j.astype(int)])

    @cached_property
    def sup_norm(self) -> float:
        """Upper bound on the sup norm of the error density (>= 1)."""
        if self.sup_norm_value is not None:
            return self.sup_norm_value
        if self.max_freq is not None:
            # |eps(x)| <= 1 + sum_{j != 0} |eps_j|, summed as FourierDensity.l1_tail sums it
            return 1.0 + 2.0 * float(np.sum(self.modulus(np.arange(1, self.max_freq + 1))))
        # sequence-only model: bound via the l1 norm of the modulus sequence,
        # summed to convergence (severe; ClassNotSummable if it does not)
        if self.kind == "severe":
            return 1.0 + 2.0 * _sum_sequence(self.modulus)
        raise ValueError(
            "sequence-only mild noise model has no computable sup norm; "
            "set max_freq or pass sup_norm_value"
        )
