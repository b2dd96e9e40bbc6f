"""Sampling from coefficient-specified circular densities.

Every sampled density carries the l1 certificate L = 2 sum_j |f_j| <= 1,
which is exactly the condition for writing it as a mixture

    f = (1 - L) * Uniform + sum_j 2 |f_j| * (1 + cos(2 pi j x + arg f_j)),

so it is sampled exactly by composition (Devroye, Non-Uniform Random
Variate Generation, 1986, ch. II.4): pick a component, then draw from it
in closed form. Draws carry no grid or interpolation error, and each
costs O(1) work beyond one vectorized comparison per component.

Reproducibility contract: a sample is fully determined by the density,
the sample size and the generator's state. The sampler keeps no state of
its own, so parallel callers give each worker its own generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError
from .fourier import l1_certified

__all__ = [
    "CircularSample",
    "sample_batch",
]


@dataclass(frozen=True, eq=False)
class CircularSample:
    """n observations in [0, 1)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("sample values must be a 1-d array")
        if not np.all(np.isfinite(v)):
            raise ValueError("sample values must be finite")
        if v.size and (v.min() < 0.0 or v.max() >= 1.0):
            raise ValueError("sample values must lie in [0, 1)")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size


def _sine_squared(gen: np.random.Generator, size: int) -> np.ndarray:
    """size draws from the density 1 - cos(2 pi z) = 2 sin^2(pi z) on [0, 1].

    If T is the abscissa of a uniform point in the unit disk (the
    semicircle law), arccos(T) / pi has exactly this density.
    """
    t = gen.random(size)
    np.sqrt(t, out=t)
    c = gen.random(size)
    c *= np.pi
    t *= np.cos(c, out=c)
    z = np.arccos(t, out=t)
    z /= np.pi
    return z


def sample_batch(coeff_rows: np.ndarray, n: int, gen: np.random.Generator) -> np.ndarray:
    """Vectorized sampler: one row of tail coefficients per replication.

    coeff_rows has shape (B, K) holding f_1..f_K for each replication;
    every row must satisfy fourier.l1_certified. Returns shape (B, n).

    Each draw compares a first uniform against its row's cumulative
    weights 2|f_j| to pick a mixture component. Draws of the uniform part
    are a second uniform; those of component j are overwritten by
    x = (Z + m + c_j) / j mod 1, with Z ~ 1 - cos(2 pi z) = 1 + cos(2 pi
    (z - 1/2)), m uniform on {0..j-1} and c_j = (-1/2 - arg f_j / 2 pi)
    mod 1. Then j x + arg f_j / 2 pi equals Z - 1/2 up to an integer, so x
    has density 1 + cos(2 pi j x + arg f_j). All terms are nonnegative, so
    the fractional part is exact and lies in [0, 1).
    """
    rows = np.asarray(coeff_rows, dtype=complex)
    if rows.ndim != 2:
        raise ValueError("coeff_rows must be 2-d")
    if not np.all(l1_certified(rows)):
        raise CertificationError(
            "coefficients fail the l1 nonnegativity certificate; refusing to sample"
        )
    b = rows.shape[0]
    weights = 2.0 * np.abs(rows)
    upper = np.cumsum(weights, axis=1)
    shift = np.mod(-0.5 - np.angle(rows) / (2.0 * np.pi), 1.0)
    row_starts = np.arange(b + 1) * n
    pick = gen.random((b, n))
    out = gen.random((b, n))
    flat = out.reshape(-1)
    for col in np.flatnonzero(np.any(weights > 0.0, axis=0)):
        freq = col + 1
        chosen = pick < upper[:, col, np.newaxis]
        if col:
            chosen &= pick >= upper[:, col - 1, np.newaxis]
        idx = np.flatnonzero(chosen)
        per_row = np.diff(np.searchsorted(idx, row_starts))
        x = _sine_squared(gen, idx.size)
        x += gen.integers(0, freq, idx.size)
        x += np.repeat(shift[:, col], per_row)
        x /= freq
        x -= np.floor(x)
        flat[idx] = x
    return out
