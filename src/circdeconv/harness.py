"""Experiment orchestration: config, seeded parallel Monte Carlo, reports.

Determinism contract: an ExperimentReport is a pure function of
(ExperimentConfig, seed). Replications are grouped into fixed-size
batches; batch b of cell c (a scenario, or the null or a ladder step) at
grid point g draws from numpy's SeedSequence(seed, spawn_key=(c, g, b)),
and batch results are reduced in index order. A run sets up every cell
first, then hands all its batches to one thread pool, largest n first,
and reads each cell's result back by its key (c, g). The thread count
and that queue order only change execution order, never the stream
assignment, so reports are byte-identical at any parallelism.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, asdict
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import IngestError
from .estimation import block_rows, estimate_q_batch
from .fourier import (
    FourierDensity,
    NoiseModel,
    SmoothnessClass,
    l1_certified,
    observed_density,
    quadratic_functional,
)
from .lowerbounds import build_hypercube, build_two_point
from .rates import nu_k_sq, optimal_dim_est, optimal_two_point_freq
from .sampling import CircularSample, sample_batch
from .testing import calibrate

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_risk_experiment",
    "run_test_experiment",
    "resolve_k",
    "DATA_FORMATS",
    "ingest_circular_data",
    "emit_report",
]

_BATCH_SIZE = 128

# the largest n at which a batch of n-samples, at 16 bytes per observation, has a
# byte count numpy's intp holds. No buffer that size is made, but every size a batch
# derives from n stays describable, so an n too large to draw fails with a MemoryError
_MAX_N = np.iinfo(np.intp).max // (16 * _BATCH_SIZE)

# the stress set of the risk experiment, as named in a config's scenarios
_SCENARIOS = ("null", "hypercube", "two_point", "boundary")


def _integer(name: str, value, low: int, integral_float: bool = True, too_low: str = "") -> int:
    """value as an int >= low; a ValueError naming the field unless value is an
    int (a bool is not) or, with integral_float, an integral float (64.0)."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral or integral_float and isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(too_low or f"{name} must be >= {low}")
    return int(value)


def _n(value) -> int:
    n = _integer("n in n_grid", value, 2, too_low="every n in n_grid must be >= 2")
    if n > _MAX_N:
        raise ValueError(f"every n in n_grid must be <= {_MAX_N}, got {n}")
    return n


def _scenario(name) -> str:
    if name not in _SCENARIOS:
        expected = ", ".join(_SCENARIOS)
        raise ValueError(f"unknown scenario {name!r} in scenarios; expected {expected}")
    return name


def _float(name: str, value: numbers.Real) -> float:
    """float(value); a ValueError naming the field for an integer beyond float range."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must lie within float range") from None


def _a_mult(a) -> float:
    if isinstance(a, bool) or not isinstance(a, numbers.Real) or not 0 < a < math.inf:
        raise ValueError(f"every A in a_ladder must be a finite number > 0, got {a!r}")
    return _float("every A in a_ladder", a)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully serializable description of a Monte Carlo experiment.

    The regime fields pick the canonical smoothness/ill-posedness
    sequences; a_scale and eps_scale multiply their proportionality
    constants. k_rule is "kappa_star" or a fixed integer level.
    noise_max_freq truncates the noise density used for sampling.

    Construction checks each field once and stores it in its canonical
    type, so ==, config_hash() and the report do not depend on how a
    value is spelled (64 or 64.0; 3, 3.0 or "3" as a fixed k). A wrongly
    typed, fractional, empty, repeated or out-of-range value raises a
    ValueError naming its field. replications is at least 2, so that
    every row has a standard error; threads and noise_max_freq are at
    least 1, seed at least 0, each n in n_grid at least 2 and at most
    _MAX_N (so that numpy can describe every buffer a batch needs), and each A in
    a_ladder a finite number > 0 (A = 0 is the null row's key); each
    scenario is one of _SCENARIOS.
    replications and seed take an int, the other integer fields also an
    integral float such as 64.0, stored as an int. A fixed k given as a
    string takes ASCII digits only, and a real field no integer beyond
    float range.
    """

    smoothness: str = "ordinary"
    s: float = 1.0
    illposedness: str = "mild"
    p: float = 1.0
    a_scale: float = 1.0
    eps_scale: float = 1.0
    radius: float = 1.0
    n_grid: tuple = (256,)
    replications: int = 1000
    alpha: float = 0.05
    k_rule: str | int = "kappa_star"
    seed: int = 0
    threads: int = 1
    noise_max_freq: int = 64
    scenarios: tuple = ("null",)
    a_ladder: tuple = ()

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        if self.smoothness not in ("ordinary", "super"):
            raise ValueError(f"smoothness must be 'ordinary' or 'super', got {self.smoothness!r}")
        if self.illposedness not in ("mild", "severe"):
            raise ValueError(f"illposedness must be 'mild' or 'severe', got {self.illposedness!r}")
        for name in ("s", "p", "a_scale", "eps_scale", "radius", "alpha"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if name == "alpha" and not 0 < value < 1:
                raise ValueError("alpha must lie in (0, 1)")
            put(name, _float(name, value))
        for name, low in (("replications", 2), ("seed", 0)):
            put(name, _integer(name, getattr(self, name), low, integral_float=False))
        for name in ("threads", "noise_max_freq"):
            put(name, _integer(name, getattr(self, name), 1))
        for name, entry in (("n_grid", _n), ("scenarios", _scenario), ("a_ladder", _a_mult)):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {value!r}")
            if not value and name != "a_ladder":
                raise ValueError(f"{name} must not be empty")
            value = tuple(map(entry, value))
            if any(v in value[:i] for i, v in enumerate(value)):
                raise ValueError(f"{name} must not repeat an entry, got {list(value)!r}")
            put(name, value)
        if self.k_rule != "kappa_star":
            k = self.k_rule
            if isinstance(k, str):
                # int() would also take a sign, blanks, underscores or non-ASCII digits
                if not (k.isascii() and k.isdigit()):
                    raise ValueError(f"k_rule must be 'kappa_star' or an integer, got {k!r}")
                k = int(k)
            put("k_rule", _integer("k_rule", k, 1, too_low="k_rule: fixed k must be >= 1"))

    def smoothness_class(self) -> SmoothnessClass:
        if self.smoothness == "ordinary":
            return SmoothnessClass.ordinary(self.s, radius=self.radius, scale=self.a_scale)
        return SmoothnessClass.supersmooth(self.s, radius=self.radius, scale=self.a_scale)

    def noise_model(self) -> NoiseModel:
        if self.illposedness == "mild":
            return NoiseModel.mild(self.p, scale=self.eps_scale, max_freq=self.noise_max_freq)
        return NoiseModel.severe(self.p, scale=self.eps_scale, max_freq=self.noise_max_freq)

    def to_json_dict(self) -> dict:
        return {name: list(v) if isinstance(v, tuple) else v for name, v in asdict(self).items()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**d)

    def identity_dict(self) -> dict:
        """The experiment's identity: everything that affects results.

        The parallelism degree is an execution detail, not part of the
        identity — the engine produces identical results at any thread
        count — so it is excluded here and from report metadata.
        """
        d = self.to_json_dict()
        del d["threads"]
        return d

    def config_hash(self) -> str:
        blob = json.dumps(self.identity_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class ExperimentReport:
    """Rows of per-(n, scenario) results plus reproducibility metadata."""

    kind: str
    rows: tuple
    metadata: dict

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "rows": [dict(r) for r in self.rows], "metadata": self.metadata}

    def report_hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _report(cfg: ExperimentConfig, kind: str, rows: list, **meta) -> ExperimentReport:
    """The report of a run of cfg: its rows, the metadata that reproduces
    them, and meta, the entries particular to the kind."""
    metadata = dict(config=cfg.identity_dict(), config_hash=cfg.config_hash(), seed=cfg.seed)
    return ExperimentReport(kind, tuple(rows), {**metadata, **meta, "artifact_version": 2})


# -- Monte Carlo engine -------------------------------------------------


class _Cell(NamedTuple):
    """One Monte Carlo cell: key is (scenario or ladder index, grid index),
    and every replication is an n-sample from sampler, estimated at level k."""

    key: tuple
    sampler: Callable
    n: int
    k: int


def _q_hats(cfg: ExperimentConfig, cells: list, eps: NoiseModel) -> dict:
    """cell.key -> q_hat_k of cfg.replications independent n-samples, in order.

    Stream rule. Batch b of a cell draws from
    np.random.SeedSequence(cfg.seed, spawn_key=cell.key + (b,)), so the key
    names the cell's stream and its result wherever the cell stands in cells.
    sampler(gen, batch_size, n) yields the batch's observations as row
    blocks of block_rows(n) rows, the last one shorter if the batch ends
    there, each a view of a buffer reused for the next block, and
    estimate_q_batch takes each block as it comes. Block by block, in row
    order, the generator gives:
      - null: gen.random((rows, n)), so the blocks are exactly the
        whole-batch gen.random((batch_size, n));
      - fixed density g: one sample_batch call on g's one coefficient row
        with rows * n draws, reshaped to (rows, n);
      - hypercube mixture: first, once per batch, the sign vectors
        gen.choice([-1, 1], (batch_size, kappa)); then per block one
        sample_batch call on that block's rows of sign-flipped
        coefficients.
    sample_batch documents the order of the draws within a call.

    At threads == 1 the batches run in the calling thread in cell order.
    Otherwise every batch of every cell goes to one thread pool, queued
    largest n first, so the cheapest batches are the last to finish; a
    batch that raises cancels those not yet started. Either way each
    cell's batches are concatenated in index order.
    """
    reps = cfg.replications
    batches = -(-reps // _BATCH_SIZE)
    tasks = [(cell, b) for cell in cells for b in range(batches)]

    def one_batch(task):
        cell, b = task
        gen = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=cell.key + (b,)))
        size = min(_BATCH_SIZE, reps - b * _BATCH_SIZE)
        return estimate_q_batch(cell.sampler(gen, size, cell.n), eps, cell.k)

    if cfg.threads == 1:
        parts = {task: one_batch(task) for task in tasks}
    else:
        # a stable sort: batches of equal n keep their cell order
        queue = sorted(tasks, key=lambda task: -task[0].n)
        pool = ThreadPoolExecutor(max_workers=cfg.threads)
        try:
            parts = dict(zip(queue, pool.map(one_batch, queue)))
        finally:
            pool.shutdown(cancel_futures=True)
    return {cell.key: np.concatenate([parts[cell, b] for b in range(batches)]) for cell in cells}


def _mean_se(x: np.ndarray):
    """Mean and standard error sd / sqrt(reps) of per-replication values."""
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(x.size))


def _row_blocks(size: int, n: int):
    """(start, view) for successive row blocks of size rows of n
    observations, block_rows(n) rows each but the last: views of one
    buffer reused for every block."""
    buf = np.empty((min(block_rows(n), size), n))
    for start in range(0, size, len(buf)):
        yield start, buf[: size - start]


def _null_sampler(gen, size, n):
    """Uniform observations of size replications, one block at a time; in
    row order the blocks are exactly gen.random((size, n))."""
    for _, blk in _row_blocks(size, n):
        yield gen.random(out=blk)


def _fixed_density_sampler(g: FourierDensity):
    """Sampler drawing every replication from the same observation density:
    each block is one sample_batch call on g's one coefficient row."""
    row = g.coeffs[np.newaxis, 1:]

    def sampler(gen, size, n):
        for _, blk in _row_blocks(size, n):
            sample_batch(row, blk.size, gen, out=blk.reshape(1, -1))
            yield blk

    return sampler


def _mixture_sampler(theta_obs: np.ndarray):
    """Hypercube mixture: a fresh sign vector per replication, all drawn
    before the first block, then one sample_batch call per block on its
    replications' coefficient rows."""

    def sampler(gen, size, n):
        taus = gen.choice([-1.0, 1.0], size=(size, theta_obs.size))
        rows = taus * theta_obs
        for start, blk in _row_blocks(size, n):
            yield sample_batch(rows[start : start + len(blk)], n, gen, out=blk)

    return sampler


def _boundary_density(cls: SmoothnessClass, k: int) -> FourierDensity:
    """A density on the intersection of the ellipsoid boundary and the l1
    certificate: equal weight on frequencies 1..k, scaled to saturate
    whichever of the two constraints binds first."""
    j = np.arange(1, k + 1)
    a = cls.a(j)
    # f_j = t * a_j saturates the ellipsoid at t = R / sqrt(2k) and the
    # l1 certificate at t = 1 / (2 sum a_j)
    t = min(cls.radius / np.sqrt(2.0 * k), 1.0 / (2.0 * float(np.sum(a))))
    return FourierDensity.from_tail(t * a)


def resolve_k(cfg: ExperimentConfig, cls, eps, n: int) -> int:
    """The truncation level at sample size n: kappa* or the fixed k_rule."""
    if cfg.k_rule == "kappa_star":
        return optimal_dim_est(cls, eps, n)
    return cfg.k_rule


def _risk_scenarios(cfg: ExperimentConfig, cls, eps, n: int, k: int):
    """Materialize the stress set: name -> (sampler, q(f))."""
    out = {}
    for name in cfg.scenarios:
        if name == "null":
            out[name] = (_null_sampler, 0.0)
            continue
        if name == "hypercube":
            fam = build_hypercube(cls, eps, n, cfg.alpha)
            f = fam.vertex(np.ones(fam.kappa))
        elif name == "two_point":
            f = build_two_point(cls, eps, n, optimal_two_point_freq(cls, eps, n)).f_plus
        else:  # "boundary"
            f = _boundary_density(cls, k)
        out[name] = (_fixed_density_sampler(observed_density(f, eps)), quadratic_functional(f))
    return out


def run_risk_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Monte Carlo estimate of the maximal estimation risk over the
    configured stress set, per n in the grid.

    The supremum over the whole ellipsoid is not computable; the max over
    the finite stress set is reported as a lower proxy for it.
    """
    cls = cfg.smoothness_class()
    eps = cfg.noise_model()
    # every setup step runs before any Monte Carlo batch
    setups, cells = [], []
    for n_idx, n in enumerate(cfg.n_grid):
        k = resolve_k(cfg, cls, eps, n)
        nu2 = nu_k_sq(eps, n, k)
        scen = _risk_scenarios(cfg, cls, eps, n, k)
        for s_idx, (sampler, _) in enumerate(scen.values()):
            cells.append(_Cell((s_idx, n_idx), sampler, n, k))
        setups.append((n, k, nu2, scen))
    q_hats = _q_hats(cfg, cells, eps)
    rows = []
    for n_idx, (n, k, nu2, scen) in enumerate(setups):
        at_n = dict(n=n, k=k, nu_k_sq=nu2)
        for s_idx, (name, (_, q_true)) in enumerate(scen.items()):
            risk, risk_se = _mean_se((q_hats[s_idx, n_idx] - q_true) ** 2)
            rows.append(dict(at_n, scenario=name, q_true=q_true, risk=risk, risk_se=risk_se))
    for n in cfg.n_grid:
        max_row = max((r for r in rows if r["n"] == n), key=lambda r: r["risk"])
        rows.append({**max_row, "scenario": "max"})
    proxy = "max over finite stress set (lower proxy for maximal risk)"
    return _report(cfg, "risk", rows, risk_proxy=proxy)


def run_test_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Empirical type I error and, per separation multiplier A in the
    ladder, type II error of the calibrated test under the hypercube
    alternative scaled to q(f) = A^2 rho*^2, with rho*^2 the family's."""
    cls = cfg.smoothness_class()
    eps = cfg.noise_model()
    cal = calibrate(cfg.alpha, eps, cls.radius)
    # every setup step runs before any Monte Carlo batch
    setups, cells = [], []
    for n_idx, n in enumerate(cfg.n_grid):
        k = resolve_k(cfg, cls, eps, n)
        thr = cal.threshold(eps, n, k)
        fam = build_hypercube(cls, eps, n, cfg.alpha)
        # observed magnitudes theta_j |eps_j| of the all-plus vertex; refuses,
        # as the risk experiment does, a kappa* above the noise's max_freq
        theta_obs_base = observed_density(fam.vertex(np.ones(fam.kappa)), eps).coeffs[1:].real
        cells.append(_Cell((0, n_idx), _null_sampler, n, k))
        a_base = np.sqrt(fam.a_lower_sq)
        for a_idx, a_mult in enumerate(cfg.a_ladder, start=1):
            # scale coefficients so q(f) = A^2 rho*^2 (theta scales like A);
            # an infeasible step gets no cell
            scale = a_mult / a_base
            if l1_certified(fam.base_coeffs * scale):
                sampler = _mixture_sampler(theta_obs_base * scale)
                cells.append(_Cell((a_idx, n_idx), sampler, n, k))
        setups.append((n, k, thr, fam.rho_star_sq))
    q_hats = _q_hats(cfg, cells, eps)
    rows = []
    for n_idx, (n, k, thr, rho_star_sq) in enumerate(setups):
        type1, se1 = _mean_se((q_hats[0, n_idx] >= thr).astype(float))
        # fields shared by the null row and every ladder row at this n
        at_n = dict(n=n, k=k, type1=type1, type2=None, error_sum=None, rho_star_sq=rho_star_sq)
        rows.append({**at_n, "A": 0.0, "se": se1})
        for a_idx, a_mult in enumerate(cfg.a_ladder, start=1):
            if (a_idx, n_idx) not in q_hats:
                rows.append({**at_n, "A": a_mult, "se": None, "feasible": False})
                continue
            type2, se2 = _mean_se((q_hats[a_idx, n_idx] < thr).astype(float))
            rows.append(
                dict(at_n, A=a_mult, type2=type2, error_sum=type1 + type2, se=se2, feasible=True)
            )
    calibration = {name: getattr(cal, name) for name in ("alpha", "C_alpha", "A_tilde", "A_bar")}
    return _report(cfg, "test", rows, calibration=calibration)


# -- data ingestion -----------------------------------------------------


def _parse_fraction(period: float, text: str) -> float:
    """A value in [0, period) as the fraction value / period of a turn."""
    v = float(text)
    if not 0.0 <= v < period:
        raise ValueError(f"value {v} outside [0, {period:g})")
    return v / period


def _parse_hhmm(text: str) -> float:
    h, _, m = text.strip().partition(":")
    # int() would also take a sign, blanks or underscores
    if not (h.isascii() and h.isdigit() and m.isascii() and m.isdigit()):
        raise ValueError(f"invalid time {text!r}")
    hh, mm = int(h), int(m)
    if not (0 <= hh < 24 and 0 <= mm < 60):
        raise ValueError(f"invalid time {text!r}")
    return (60 * hh + mm) / 1440.0


# the period of each fractional format: a value v in [0, period) is v / period
_PERIODS = {"unit": 1.0, "degrees": 360.0}

# format name -> parser of one stripped line to a value in [0, 1)
DATA_FORMATS = {
    "unit": partial(_parse_fraction, _PERIODS["unit"]),
    "hhmm": _parse_hhmm,
    "degrees": partial(_parse_fraction, _PERIODS["degrees"]),
}

# characters of text read per block; each block is cut after a line end
_BLOCK_CHARS = 1 << 17

# byte patterns of the bulk pass: one value in every byte of a word
_ONES = 0x0101010101010101
_ASCII_ZEROS = ord("0") * _ONES
_LOW7 = 0x7F * _ONES
_DOTS = (ord(".") ^ ord("0")) * _ONES
_ABOVE_NINE = (0x7F - 9) * _ONES
_ALL_BYTES = np.uint64(2 ** 64 - 1)
# _KEEP[i, n] clears the bytes before an n-byte line (n <= 24) in word i of
# the three that end at its newline, and keeps the rest
_KEEP = np.array(
    [[~((1 << 8 * min(max(24 - n - 8 * i, 0), 8)) - 1) % 2 ** 64 for n in range(25)]
     for i in range(3)],
    dtype=np.uint64,
)

# the class of each byte, for the lines the bulk pass refuses: 0 ASCII
# whitespace (str.isspace), 1 any other ASCII byte but a digit, 2 an ASCII
# digit or a byte of a non-ASCII character
_BYTE_CLASS = np.ones(256, dtype=np.uint8)
_BYTE_CLASS[[c for c in range(128) if chr(c).isspace()]] = 0
_BYTE_CLASS[ord("0") : ord("9") + 1] = 2
_BYTE_CLASS[128:] = 2


def _split(x):
    """x as hi + lo exactly, each with at most 26 significant bits, so that
    products of halves are exact (Veltkamp); x a float or an array."""
    c = x * (2.0 ** 27 + 1)
    hi = c - (c - x)
    return hi, x - hi


# 10^e and its halves, e <= 19; all exact (built without numpy's power,
# which would page in its loops at import)
_POW10 = np.array([float(10 ** e) for e in range(20)])
_POW10_HI, _POW10_LO = np.array([_split(p) for p in _POW10.tolist()]).T


def _text_blocks(fh):
    """The text of fh in blocks of about _BLOCK_CHARS characters, each
    ending with a newline (one is added after a last line without it)."""
    while text := fh.read(_BLOCK_CHARS):
        if text[-1] != "\n":
            text += fh.readline()
        yield text if text[-1] == "\n" else text + "\n"


def _words(raw: bytes, ends: np.ndarray, count: int) -> np.ndarray:
    """The count little-endian 8-byte words of raw that end at each index
    of ends, as a (lines, count) array, first word first; raw must hold
    8 * count bytes before each. They are gathered as one record of
    8 * count bytes per line, which numpy copies whole."""
    records = np.ndarray((len(raw) - 8 * count + 1,), f"V{8 * count}", raw, strides=(1,))
    return records[ends - 8 * count].view("<u8").reshape(-1, count)


def _byte_count(x: np.ndarray) -> np.ndarray:
    """The number of bytes of x that are 1; every other byte must be 0."""
    return (x * _ONES) >> 56


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """The numbers whose decimal digits are the bytes 0..9 of x, the
    lowest byte the leading digit (the SWAR multiply-shift)."""
    x = (x * (10 * 2 ** 8 + 1)) >> 8
    x = ((x & 0x00FF00FF00FF00FF) * (100 * 2 ** 16 + 1)) >> 16
    return ((x & 0x0000FFFF0000FFFF) * (10000 * 2 ** 32 + 1)) >> 32


def _decimal_lines(raw: bytes, ends: np.ndarray, length: np.ndarray) -> np.ndarray:
    """float() of each line of raw that ends at ends where it can be shown
    exactly in bulk, NaN at every other line.

    A line qualifies if it has at most 24 bytes, all ASCII digits but one
    '.' with 1 to 19 digits after it, and its digits read as an integer
    M < 2^62; its value is M / 10^f for f fraction digits. With M and the
    quotient q1 = M / 10^f split into parts that multiply exactly
    (Dekker's product, no FMA), the remainder of q1 is known to far
    better than a double, and q1 plus it rounds to float()'s correctly
    rounded value unless it lies within 2^-40 half-ulp of a rounding
    midpoint. Such lines, and every line of another form, are left out.
    """
    ok = length <= 24
    # a longer line is refused, so it may keep the masks of 24 bytes
    at = np.minimum(length, 24)
    words, dots, fraction, prev, after = [], 0, 0, 0, 0
    for i, w in enumerate(_words(raw, ends, 3).T):
        # digit values 0..9, '.' as 0x1E; the bytes before the line are 0
        x = (w ^ _ASCII_ZEROS) & _KEEP[i][at]
        y = x ^ _DOTS
        # the high bit of each '.' (a zero byte of y), then of each byte above 9
        dot = ~(((y & _LOW7) + _LOW7) | y | _LOW7)
        ok &= dot == (((x & _LOW7) + _ABOVE_NINE) | x) & (_ONES << 7)
        dot >>= 7
        dots = dots + _byte_count(dot)
        # the digits after the '.': the bytes above it, and all of a later word
        keep = ~((dot << 8) - 1) | after
        fraction = fraction + _byte_count(keep & _ONES)
        after = (dots != 0) * _ALL_BYTES
        # drop the '.': the bytes below it move up one, the top byte of the
        # word before coming in at the bottom
        shifted = (x << 8) | (prev >> 56)
        words.append((x & keep) | (shifted & ~keep))
        prev = x
    top, mid, low = map(_eight_digits, words)
    m = top * 10 ** 16 + mid * 10 ** 8 + low
    ok &= (dots == 1) & (fraction >= 1) & (fraction <= 19) & (top <= 461) & (m < 2 ** 62)
    m[~ok] = 0
    m = m.astype(np.int64)
    e = np.minimum(fraction, 19).astype(np.intp)
    p, p_hi, p_lo = _POW10[e], _POW10_HI[e], _POW10_LO[e]
    # M = m_hi + m_lo exactly, and q1 * 10^f = prod + prod_err exactly
    m_hi = m.astype(float)
    m_lo = (m - m_hi.astype(np.int64)).astype(float)
    q1 = m_hi / p
    q_hi, q_lo = _split(q1)
    prod = q1 * p
    prod_err = ((q_hi * p_hi - prod) + q_hi * p_lo + q_lo * p_hi) + q_lo * p_lo
    # (M - q1 * 10^f) / 10^f; m_hi - prod is exact (Sterbenz)
    q2 = (((m_hi - prod) - prod_err) + m_lo) / p
    value = q1 + q2
    # how far q1 + q2 lies from value, against half the smaller gap around
    # it; value >= 0, so the double below it has the integer view less one
    # (NaN below 0, which no comparison takes)
    off = (q1 - value) + q2
    below = (value.view(np.int64) - 1).view(float)
    ok &= np.abs(off) < (value - below) * (0.5 - 2.0 ** -41)
    value[~ok] = np.nan
    return value


def _hhmm_lines(raw: bytes, ends: np.ndarray, length: np.ndarray) -> np.ndarray:
    """_parse_hhmm's value of each line of raw that ends at ends and is
    "DD:DD", 5 bytes, with the hour below 24 and the minute below 60; NaN
    at every other line."""
    w = _words(raw, ends, 1)[:, 0]
    # a 5-byte line is the word's bytes 3..7; digit values 0..9, ':' as 10
    h1, h0, colon, m1, m0 = (((w >> 8 * j) & 0xFF) ^ ord("0") for j in range(3, 8))
    hh, mm = h1 * 10 + h0, m1 * 10 + m0
    ok = (length == 5) & (colon == ord(":") ^ ord("0")) & (hh < 24) & (mm < 60)
    for digit in (h1, h0, m1, m0):
        ok &= digit <= 9
    return np.where(ok, (hh * 60 + mm) / 1440.0, np.nan)


def _line_classes(arr: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The highest _BYTE_CLASS among the bytes arr[starts[i] : ends[i] + 1]
    of each line, its newline included; at least one line."""
    size = ends - starts + 1
    first = np.cumsum(size) - size
    at = np.arange(first[-1] + size[-1]) + np.repeat(starts - first, size)
    return np.maximum.reduceat(_BYTE_CLASS[arr[at]], first)


def _convert_block(lines: list, convert) -> list:
    """convert applied to each of a list of lines, NaN for each line it
    refuses.

    A line that convert refuses is retried on its stripped text, since
    str.strip() removes the separators U+001C to U+001F and float() does
    not. The bulk map resumes after the line, so the exception cost is
    paid per refused line only.
    """
    values = []
    it = map(convert, lines)
    while True:
        try:
            values.extend(it)
            return values
        except ValueError:
            # extend keeps the values appended before the refused line
            try:
                values.append(convert(lines[len(values)].strip()))
            except ValueError:
                values.append(math.nan)


def ingest_circular_data(path, fmt: str = "unit") -> CircularSample:
    """Read one circular observation per line, mapped to [0, 1).

    Formats: "unit" (already in [0,1)), "hhmm" ("HH:MM" clock times,
    both fields unsigned ASCII digits), "degrees" ([0, 360)). The file is
    parsed as it is read, a block of text at a time, with the values and
    messages of the per-line parsers in DATA_FORMATS: a bulk pass takes
    the lines whose value it can show to be exactly the parser's, ASCII
    lines without a digit are refused unread, since no parser takes them,
    and the parser reads the rest one at a time. Blank lines are skipped
    but keep their line numbers; more than 1% failing non-blank lines
    aborts, quoting the first 20. An unknown format raises ValueError
    before the file is opened; a file that cannot be read or decoded
    raises IngestError.
    """
    parse = DATA_FORMATS.get(fmt)
    if parse is None:
        raise ValueError(f"unknown format {fmt!r}; expected one of {', '.join(DATA_FORMATS)}")
    # float() reads a line of a fractional format; an hhmm value is already
    # a fraction of a day, so its period is 1
    convert, period = (float, _PERIODS[fmt]) if fmt in _PERIODS else (parse, 1.0)
    bulk = _decimal_lines if fmt in _PERIODS else _hhmm_lines
    blocks, failures, total, pos = [], [], 0, 0
    try:
        with open(path) as fh:
            for text in _text_blocks(fh):
                # newlines before the text, so that 24 bytes precede every line end
                raw = b"\n" * 24 + text.encode("utf-8", "surrogatepass")
                arr = np.frombuffer(raw, np.uint8)
                newlines = np.flatnonzero(arr == ord("\n"))[23:]
                starts, ends = newlines[:-1] + 1, newlines[1:]
                values = bulk(raw, ends, ends - starts)

                def line(i):
                    return raw[starts[i] : ends[i] + 1].decode("utf-8", "surrogatepass")

                # of the lines the bulk pass leaves out, ASCII whitespace is
                # blank and other ASCII text without a digit stays NaN: float()
                # refuses it or reads nan or inf, and an hhmm time needs digits
                blank = np.zeros(ends.size, dtype=bool)
                rest = np.flatnonzero(np.isnan(values))
                if rest.size:
                    classes = _line_classes(arr, starts[rest], ends[rest])
                    blank[rest[classes == 0]] = True
                    read = rest[classes == 2]
                    lines = [line(i) for i in read]
                    values[read] = _convert_block(lines, convert)
                    refused = np.flatnonzero(np.isnan(values[read]))
                    blank[read[refused]] = [lines[j].isspace() for j in refused]
                # a refused line is NaN, so this one check catches every bad line
                ok = (values >= 0.0) & (values < period)
                block = values[ok]
                # v / 1 is v, so a unit value is not divided
                blocks.append(block / period if period != 1.0 else block)
                bad = np.flatnonzero(~ok)
                bad = bad[~blank[bad]]
                total += block.size + bad.size
                for i in bad[: 20 - len(failures)]:
                    try:
                        parse(line(i).strip())
                    except ValueError as e:
                        failures.append((pos + i + 1, str(e)))
                pos += ends.size
    except (OSError, UnicodeDecodeError) as e:
        raise IngestError(f"cannot read {path}: {e}") from e
    if not total:
        raise IngestError(f"{path} contains no data")
    values = np.concatenate(blocks)
    bad = total - values.size
    if bad > 0.01 * total:
        detail = "; ".join(f"line {ln}: {msg}" for ln, msg in failures)
        raise IngestError(f"{bad}/{total} lines failed to parse: {detail}")
    return CircularSample(values)


# -- report persistence -------------------------------------------------

_CSV_COLUMNS = {
    "risk": ["n", "scenario", "k", "q_true", "risk", "risk_se", "nu_k_sq"],
    "test": ["n", "A", "k", "type1", "type2", "error_sum", "se", "rho_star_sq", "feasible"],
}


def emit_report(report: ExperimentReport, fmt: str = "json") -> str:
    """Serialize a report to JSON (lossless) or CSV (rows only, with a
    stable documented column order) and return the text."""
    if fmt == "json":
        text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True, allow_nan=False)
    elif fmt == "csv":
        cols = _CSV_COLUMNS[report.kind]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=cols, extrasaction="ignore")
        writer.writeheader()
        for row in report.rows:
            writer.writerow({c: row.get(c, "") for c in cols})
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return text
