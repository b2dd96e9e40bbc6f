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

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from scipy.special import zeta

from . import config
from .errors import ClassNotSummable, InvalidDensityError

__all__ = [
    "FourierDensity",
    "SmoothnessClass",
    "NoiseModel",
    "convolve",
    "observed_density",
    "quadratic_functional",
    "truncated_functional",
    "truncated_functional_observed",
    "ellipsoid_membership",
]


@dataclass(frozen=True, eq=False)
class FourierDensity:
    """Truncated Fourier representation of a density on [0, 1).

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

    @property
    def certified_nonnegative(self) -> bool:
        """l1 sufficient condition for pointwise nonnegativity.

        sum_{j != 0} |f_j| <= 1 implies f(x) >= 1 - l1_tail >= 0.
        """
        return self.l1_tail <= 1.0 + 1e-12

    def sup_norm_bound(self) -> float:
        """Upper bound 1 + l1_tail on the sup norm of the density."""
        return 1.0 + self.l1_tail

    # -- evaluation ----------------------------------------------------

    def evaluate(self, x) -> Union[float, np.ndarray]:
        """Evaluate the series at points x in [0, 1).

        The imaginary part of the symmetric sum must vanish up to
        floating noise; it is checked and discarded.
        """
        x = np.asarray(x, dtype=float)
        if self.max_freq == 0:
            out = np.ones_like(x)
            return out if out.ndim else 1.0
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

    @classmethod
    def from_json_dict(cls, d: dict) -> "FourierDensity":
        coeffs = np.array([complex(re, im) for re, im in d["coeffs"]])
        if len(coeffs) != d["max_freq"] + 1:
            raise InvalidDensityError("max_freq inconsistent with coefficient count")
        return cls(coeffs)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, s: str) -> "FourierDensity":
        return cls.from_json_dict(json.loads(s))

    def __eq__(self, other):
        if not isinstance(other, FourierDensity):
            return NotImplemented
        return self.max_freq == other.max_freq and bool(
            np.array_equal(self.coeffs, other.coeffs)
        )


def convolve(f: FourierDensity, eps: FourierDensity) -> FourierDensity:
    """Circular convolution via the convolution theorem: g_j = f_j * eps_j.

    The result is truncated at the smaller of the two max frequencies.
    """
    k = min(f.max_freq, eps.max_freq)
    return FourierDensity(f.coeffs[: k + 1] * eps.coeffs[: k + 1])


def observed_density(f: FourierDensity, eps: "NoiseModel") -> FourierDensity:
    """The density g = f (*) eps of Y = X + eps mod 1: convolution with the
    noise density if the model has one, else with the modulus sequence.

    Raises InvalidDensityError, rather than truncating g, when f has a
    nonzero coefficient above the noise density's max_freq.
    """
    if eps.density is None:
        j = np.arange(1, f.max_freq + 1)
        return FourierDensity.from_tail(f.coeffs[1:] * eps.modulus(j))
    cut = eps.density.max_freq
    beyond = np.flatnonzero(f.coeffs[cut + 1 :])
    if beyond.size:
        raise InvalidDensityError(
            f"f has a nonzero coefficient at frequency {cut + 1 + int(beyond[-1])}, "
            f"above the noise density's max_freq {cut} (noise_max_freq in a config)"
        )
    return convolve(f, eps.density)


def quadratic_functional(f: FourierDensity) -> float:
    """Squared L2 distance to the uniform density: 2 sum_{j>=1} |f_j|^2."""
    return 2.0 * float(np.sum(np.abs(f.coeffs[1:]) ** 2))


def truncated_functional(f: FourierDensity, k: int) -> float:
    """Partial sum 2 sum_{j=1}^{k} |f_j|^2 (coefficients beyond K are zero)."""
    if k < 1:
        raise ValueError("truncation level k must be >= 1")
    return 2.0 * float(np.sum(np.abs(f.coeffs[1 : k + 1]) ** 2))


def truncated_functional_observed(g: FourierDensity, eps: "NoiseModel", k: int) -> float:
    """Same partial sum written in observation space: 2 sum |g_j|^2 / |eps_j|^2.

    Under g = f (*) eps this equals truncated_functional(f, k); keeping the
    two forms separate lets tests exercise the identity.
    """
    if k < 1:
        raise ValueError("truncation level k must be >= 1")
    j = np.arange(1, k + 1)
    gj = np.zeros(k, dtype=complex)
    kk = min(k, g.max_freq)
    gj[:kk] = g.coeffs[1 : kk + 1]
    return 2.0 * float(np.sum(np.abs(gj) ** 2 / eps.modulus(j) ** 2))


def ellipsoid_membership(f: FourierDensity, cls: "SmoothnessClass"):
    """Check 2 sum_j a_j^{-2} |f_j|^2 <= R^2.

    Returns
    -------
    (member, lhs) : (bool, float)
        Membership flag and the value of the weighted tail sum.
    """
    j = np.arange(1, f.max_freq + 1)
    if j.size == 0:
        return True, 0.0
    lhs = 2.0 * float(np.sum(np.abs(f.coeffs[1:]) ** 2 / cls.a(j) ** 2))
    return lhs <= cls.radius ** 2 + 1e-12, lhs


@dataclass(frozen=True)
class SmoothnessClass:
    """Ellipsoid class: densities with 2 sum_j a_j^{-2} |f_j|^2 <= R^2.

    kind is one of:
      "ordinary"  a_j = scale * j^{-s},        s > 1/2  (Sobolev)
      "super"     a_j = scale * exp(-j^s),     s > 0    (analytic)
      "explicit"  a_j given by a caller-supplied sequence
    """

    kind: str
    radius: float
    s: Optional[float] = None
    scale: float = 1.0
    explicit: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
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
        if np.any(vals < 0):
            raise ValueError("a_j must be nonnegative")
        return vals

    def check_monotone(self, j_max: int) -> bool:
        """Verify a_j is non-increasing on the prefix 1..j_max."""
        vals = self.a(np.arange(1, j_max + 1))
        return bool(np.all(np.diff(vals) <= 1e-15))

    def l_a(self, truncation: int = config.SEQUENCE_SUM_TRUNCATION) -> float:
        """L_a = 2 sum_j a_j^2, the constant controlling density certification
        of hypercube hypotheses.

        Ordinary classes use the exact zeta value; super-smooth sums converge
        geometrically; explicit sequences are summed on the truncation and
        rejected if the partial sums have visibly not settled.
        """
        if self.kind == "ordinary":
            # s > 1/2 guaranteed at construction, so zeta(2s) is finite
            return 2.0 * self.scale ** 2 * float(zeta(2.0 * self.s))
        j = np.arange(1, truncation + 1, dtype=float)
        terms = self.a(j) ** 2
        total = 2.0 * float(np.sum(terms))
        if terms[-1] > 1e-12 * max(total, 1e-300):
            raise ClassNotSummable(
                "2 sum a_j^2 has not converged on the configured truncation"
            )
        return total


@dataclass(frozen=True)
class NoiseModel:
    """Known error density together with its ill-posedness metadata.

    The estimator and all bounds only consume the modulus sequence |eps_j|
    and a sup-norm bound; the density itself is needed when the error is
    actually sampled. kind is one of:

      "mildly"    |eps_j| = scale * j^{-p},        p > 1/2
      "severely"  |eps_j| = scale * exp(-j^p),     p > 0
      "explicit"  |eps_j| read off a FourierDensity's coefficients

    A sequence-only model (density=None) supports every bound and rate
    computation but cannot be sampled.
    """

    kind: str
    p: Optional[float] = None
    scale: float = 1.0
    density: Optional[FourierDensity] = None
    sup_norm_value: Optional[float] = None

    def __post_init__(self):
        if self.kind == "mildly":
            if self.p is None or self.p <= 0.5:
                raise ValueError("mildly ill-posed requires p > 1/2")
        elif self.kind == "severely":
            if self.p is None or self.p <= 0:
                raise ValueError("severely ill-posed requires p > 0")
        elif self.kind == "explicit":
            if self.density is None:
                raise ValueError("explicit noise needs a density")
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
        """Polynomially ill-posed model; with max_freq set, also builds the
        (real, symmetric) noise density eps_j = scale * j^{-p} truncated there.
        """
        density = None
        if max_freq is not None:
            j = np.arange(1, max_freq + 1, dtype=float)
            density = FourierDensity.from_tail(scale * j ** (-p))
        return cls(
            kind="mildly", p=p, scale=scale, density=density, sup_norm_value=sup_norm_value
        )

    @classmethod
    def severe(cls, p: float, scale: float = 1.0, max_freq: Optional[int] = None):
        density = None
        if max_freq is not None:
            j = np.arange(1, max_freq + 1, dtype=float)
            density = FourierDensity.from_tail(scale * np.exp(-(j ** p)))
        return cls(kind="severely", p=p, scale=scale, density=density)

    @classmethod
    def from_density(cls, density: FourierDensity, sup_norm: Optional[float] = None):
        if np.any(np.abs(density.coeffs[1:]) == 0.0):
            raise ValueError("noise coefficients must be non-vanishing")
        return cls(kind="explicit", density=density, sup_norm_value=sup_norm)

    def modulus(self, j) -> np.ndarray:
        """|eps_j| for integer frequencies j >= 1; strictly positive."""
        j = np.asarray(j, dtype=float)
        if np.any(j < 1):
            raise ValueError("modulus is indexed by j >= 1")
        if self.kind == "mildly":
            return self.scale * j ** (-self.p)
        if self.kind == "severely":
            return self.scale * np.exp(-(j ** self.p))
        jmax = self.density.max_freq
        if np.any(j > jmax):
            raise ValueError("explicit noise modulus queried beyond max_freq")
        return np.abs(self.density.coeffs[j.astype(int)])

    @property
    def sup_norm(self) -> float:
        """Upper bound on the sup norm of the error density (>= 1)."""
        if self.sup_norm_value is not None:
            return self.sup_norm_value
        if self.density is not None:
            return self.density.sup_norm_bound()
        # sequence-only model: bound via the l1 norm of the modulus sequence,
        # summed to convergence (severe) or bounded crudely (mild)
        if self.kind == "severely":
            j = np.arange(1, 2000, dtype=float)
            return 1.0 + 2.0 * float(np.sum(self.modulus(j)))
        raise ValueError(
            "sequence-only mildly ill-posed model has no computable sup norm; "
            "attach a density or pass sup_norm_value"
        )
