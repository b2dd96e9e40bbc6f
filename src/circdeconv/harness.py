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

from .estimation import estimate_q_batch
from .fourier import (
    FourierDensity,
    NoiseModel,
    SmoothnessClass,
    _integer,
    l1_certified,
    observed_density,
    quadratic_functional,
)
from .lowerbounds import build_hypercube, build_two_point
from .rates import nu_k_sq, optimal_dim_est, optimal_two_point_freq
from .sampling import sample_batch
from .testing import calibrate

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_risk_experiment",
    "run_test_experiment",
    "resolve_k",
    "emit_report",
]

_BATCH_SIZE = 128

# observations per block of a batch's stream (_q_hats): part of the stream
# rule, since a non-null block's draws depend on its height
_STREAM_ELEMS = 1 << 16

# the largest n at which a batch of n-samples, at 16 bytes per observation, has a
# byte count numpy's intp holds. No buffer that size is made, but every size a batch
# derives from n stays describable, so an n too large to draw fails with a MemoryError
_MAX_N = np.iinfo(np.intp).max // (16 * _BATCH_SIZE)

# the stress set of the risk experiment, as named in a config's scenarios
_SCENARIOS = ("null", "hypercube", "two_point", "boundary")


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
    def from_json_dict(cls, d: dict, **overrides) -> "ExperimentConfig":
        """The config that the JSON object d describes, with overrides set
        on top of its entries; anything but an object is refused first."""
        if not isinstance(d, dict):
            raise ValueError(f"a config must be a JSON object, got {type(d).__name__}")
        d = {**d, **overrides}
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
    blocks of _STREAM_ELEMS // n rows (at least one), the last one shorter
    if the batch ends there, each a view of a buffer reused for the next
    block, and
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
    observations, _STREAM_ELEMS // n rows each (at least one) but the last:
    views of one buffer reused for every block."""
    buf = np.empty((min(max(1, _STREAM_ELEMS // n), size), n))
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
        writer = csv.DictWriter(buf, fieldnames=cols, restval="", extrasaction="ignore")
        writer.writeheader()
        writer.writerows(report.rows)
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return text
