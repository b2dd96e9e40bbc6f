"""Sampling from coefficient-specified circular densities.

Every sampled density carries the l1 certificate L = 2 sum_j |f_j| <= 1,
which is exactly the condition for writing it as a mixture

    f = (1 - L) * Uniform + sum_j 2 |f_j| * (1 + cos(2 pi j x + arg f_j)),

so it is sampled exactly by composition (Devroye, Non-Uniform Random
Variate Generation, 1986, ch. II.4): pick a component, then draw from it
in closed form. Draws carry no grid or interpolation error, and each
costs O(1) work beyond one vectorized comparison per component.

Reproducibility contract: a sample is fully determined by the density,
the sample size and the seed. Parallel work derives independent child
generators from (master seed, index) spawn keys, never from shared state.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError
from .fourier import FourierDensity, NoiseModel, observed_density

__all__ = [
    "CircularSample",
    "Rng",
    "as_values",
    "wrap_add",
    "sample_density",
    "sample_batch",
    "sample_model",
    "sample_observed",
    "save_csv",
    "load_csv",
    "save_binary",
    "load_binary",
]

_BINARY_MAGIC = b"CDCS"


@dataclass(frozen=True, eq=False)
class CircularSample:
    """n observations in [0, 1) plus their provenance."""

    values: np.ndarray
    seed: int
    provenance: str = ""

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


def as_values(sample) -> np.ndarray:
    """The observations of a CircularSample, or an array-like, as an array."""
    return sample.values if isinstance(sample, CircularSample) else np.asarray(sample, dtype=float)


@dataclass(frozen=True)
class Rng:
    """Splittable seeded generator handle.

    The same (seed, spawn_key) always yields the same stream; children are
    derived by extending the spawn key, so parallel consumers never share
    state.
    """

    seed: int
    spawn_key: tuple = ()

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        return np.random.default_rng(ss)

    def child(self, *indices: int) -> "Rng":
        return Rng(self.seed, self.spawn_key + tuple(indices))


def wrap_add(x, e):
    """Addition on the circle: fractional part of x + e, in [0, 1)."""
    s = np.asarray(x, dtype=float) + np.asarray(e, dtype=float)
    out = s - np.floor(s)
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


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


def sample_density(f: FourierDensity, n: int, rng) -> np.ndarray:
    """Draw n i.i.d. points from a certified-nonnegative density.

    Returns a bare array; wrap in CircularSample at the call site where
    provenance is known.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    gen = rng.generator() if isinstance(rng, Rng) else rng
    return sample_batch(f.coeffs[np.newaxis, 1:], n, gen)[0]


def sample_batch(coeff_rows: np.ndarray, n: int, gen: np.random.Generator) -> np.ndarray:
    """Vectorized sampler: one row of tail coefficients per replication.

    coeff_rows has shape (B, K) holding f_1..f_K for each replication;
    every row must satisfy the l1 certificate. Returns shape (B, n).

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
    weights = 2.0 * np.abs(rows)
    if not np.all(np.sum(weights, axis=1) <= 1.0 + 1e-12):  # NaN fails too
        raise CertificationError(
            "coefficients fail the l1 nonnegativity certificate; refusing to sample"
        )
    b = rows.shape[0]
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


def sample_model(f: FourierDensity, eps: NoiseModel, n: int, rng) -> CircularSample:
    """Simulate the convolution model: Y = X + eps mod 1, X ~ f, eps ~ noise."""
    if n < 2:
        raise ValueError("model simulation needs n >= 2")
    if eps.density is None:
        raise CertificationError("noise model carries no density to sample from")
    gen = rng.generator() if isinstance(rng, Rng) else rng
    x = sample_density(f, n, gen)
    e = sample_density(eps.density, n, gen)
    seed = rng.seed if isinstance(rng, Rng) else -1
    return CircularSample(wrap_add(x, e), seed=seed, provenance="model")


def sample_observed(
    f: FourierDensity, eps: NoiseModel, n: int, rng, provenance: str = "observed"
) -> CircularSample:
    """Sample Y directly from g = f (*) eps.

    Statistically identical to sample_model but only requires the noise
    modulus, not a sampleable noise density.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    g = observed_density(f, eps)
    gen = rng.generator() if isinstance(rng, Rng) else rng
    seed = rng.seed if isinstance(rng, Rng) else -1
    return CircularSample(sample_density(g, n, gen), seed=seed, provenance=provenance)


# -- persistence -------------------------------------------------------


def save_csv(sample: CircularSample, path):
    with open(path, "w") as fh:
        for v in sample.values:
            fh.write(f"{v:.17g}\n")


def load_csv(path, seed: int = 0, provenance: str = "external-data") -> CircularSample:
    vals = np.loadtxt(path, dtype=float, ndmin=1)
    return CircularSample(vals, seed=seed, provenance=provenance)


def save_binary(sample: CircularSample, path):
    """Binary layout: magic, n (uint64), seed (int64), then n doubles."""
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<Qq", sample.n, sample.seed))
        fh.write(sample.values.astype("<f8").tobytes())


def load_binary(path) -> CircularSample:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BINARY_MAGIC:
            raise ValueError("not a circdeconv sample file")
        n, seed = struct.unpack("<Qq", fh.read(16))
        vals = np.frombuffer(fh.read(8 * n), dtype="<f8")
        if vals.size != n:
            raise ValueError("truncated sample file")
    return CircularSample(vals, seed=seed, provenance="binary-file")
