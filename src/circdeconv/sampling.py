"""Sampling from coefficient-specified circular densities.

Every sampled density carries the l1 certificate L = 2 sum_j |f_j| <= 1,
which is exactly the condition for writing it as a mixture

    f = (1 - L) * Uniform + sum_j 2 |f_j| * (1 + cos(2 pi j x + arg f_j)),

so it is sampled exactly by composition (Devroye, Non-Uniform Random
Variate Generation, 1986, ch. II.4): pick a component, then draw from it
in closed form. Draws carry no grid or interpolation error, and each
costs O(1) work beyond one vectorized comparison against its row's total
weight and, for a draw of a component, one per component.

Reproducibility contract: a sample is fully determined by the density,
the sample size and the generator's state. The sampler keeps no state of
its own, so parallel callers give each worker its own generator.
"""

from __future__ import annotations

import numpy as np

from .errors import CertificationError
from .fourier import l1_certified

__all__ = [
    "sample_batch",
]


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


def _component(z, m, shift, freq) -> np.ndarray:
    """(z + m + shift) / freq mod 1, computed in z's memory."""
    z += m
    z += shift
    z /= freq
    z -= np.floor(z)
    return z


def sample_batch(
    coeff_rows: np.ndarray, n: int, gen: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized sampler: one row of tail coefficients per replication.

    coeff_rows has shape (B, K) holding f_1..f_K for each replication;
    every row must satisfy fourier.l1_certified. Returns out, a
    C-contiguous (B, n) float64 array that the draws overwrite (allocated
    if None), so a caller drawing block after block reuses one buffer.

    Each draw compares a pick, a first uniform, against its row's
    cumulative weights 2|f_j|: a pick below the row's total weight is a
    candidate, and picks component j where upper_{j-1} <= pick < upper_j.
    Draws of the uniform part are a second uniform; those of component j
    are overwritten by x = (Z + m + c_j) / j mod 1, with Z ~ 1 - cos(2 pi
    z) = 1 + cos(2 pi (z - 1/2)), m uniform on {0..j-1} and c_j = (-1/2 -
    arg f_j / 2 pi) mod 1. Then j x + arg f_j / 2 pi equals Z - 1/2 up to
    an integer, so x has density 1 + cos(2 pi j x + arg f_j). All terms
    are nonnegative, so the fractional part is exact and lies in [0, 1).

    The generator is read in this order: the B n picks, then the B n
    uniforms, both in row order; then the component variates. A one-row
    call draws them column by column, in column order over the columns of
    nonzero weight: Z and then m for that column's candidates, in draw
    order. One row gives each column a single frequency and shift, so its
    m takes a scalar bound, which numpy draws about four times faster than
    an array of bounds. A call of several rows draws Z for every
    candidate, then m, each in one pass in draw order.
    """
    rows = np.asarray(coeff_rows, dtype=complex)
    if rows.ndim != 2:
        raise ValueError("coeff_rows must be 2-d")
    if not np.all(l1_certified(rows)):
        raise CertificationError(
            "coefficients fail the l1 nonnegativity certificate; refusing to sample"
        )
    b, cols = rows.shape
    if out is None:
        out = np.empty((b, n))
    elif out.shape != (b, n) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous ({b}, {n}) float64 array")
    weights = 2.0 * np.abs(rows)
    upper = np.cumsum(weights, axis=1)
    shift = np.mod(-0.5 - np.angle(rows) / (2.0 * np.pi), 1.0)
    flat = out.reshape(-1)
    gen.random(out=out)
    # a row without components (no columns, or only zero weights) has no candidate
    idx = np.flatnonzero(out < upper[:, -1:]) if cols else np.empty(0, dtype=np.intp)
    pick = flat[idx]
    gen.random(out=out)
    # each candidate's row, a scalar index when there is only one
    at = idx // n if b > 1 else 0
    # the component: how many cumulative weights of its row lie at or below the pick
    col = np.zeros(idx.size, dtype=np.intp)
    for c in range(cols - 1):
        col += pick >= upper[at, c]
    if b == 1:
        for c in np.flatnonzero(weights[0]):
            chosen = idx[col == c]
            z = _sine_squared(gen, chosen.size)
            flat[chosen] = _component(z, gen.integers(0, c + 1, chosen.size), shift[0, c], c + 1)
        return out
    z = _sine_squared(gen, idx.size)
    flat[idx] = _component(z, gen.integers(0, col + 1), shift[at, col], col + 1)
    return out
