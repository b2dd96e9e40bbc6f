"""Experiment orchestration: config, seeded parallel Monte Carlo, reports.

Determinism contract: an ExperimentReport is a pure function of
(ExperimentConfig, seed). Replications are grouped into fixed-size
batches; batch b of scenario s at grid point g draws from the child
generator spawned at key (s, g, b), and batch results are reduced in
index order. The thread count only changes execution order, never the
stream assignment, so reports are byte-identical at any parallelism.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, asdict
from typing import Optional

import numpy as np

from .errors import IngestError
from .estimation import estimate_q_batch
from .fourier import (
    FourierDensity,
    NoiseModel,
    SmoothnessClass,
    observed_density,
    quadratic_functional,
)
from .lowerbounds import build_hypercube, build_two_point
from .rates import nu_k_sq, optimal_dim_est, optimal_two_point_freq, radius_upper
from .sampling import CircularSample, Rng, sample_batch
from .testing import calibrate

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_risk_experiment",
    "run_test_experiment",
    "resolve_k",
    "ingest_circular_data",
    "emit_report",
    "load_report",
]

_BATCH_SIZE = 128


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully serializable description of a Monte Carlo experiment.

    The regime fields pick the canonical smoothness/ill-posedness
    sequences; a_scale and eps_scale multiply their proportionality
    constants. k_rule is "kappa_star" or a fixed integer level.
    noise_max_freq truncates the noise density used for sampling.
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
    k_rule: str = "kappa_star"
    seed: int = 0
    threads: int = 1
    noise_max_freq: int = 64
    scenarios: tuple = ("null",)
    a_ladder: tuple = ()

    def __post_init__(self):
        if self.smoothness not in ("ordinary", "super"):
            raise ValueError(f"smoothness must be 'ordinary' or 'super', got {self.smoothness!r}")
        if self.illposedness not in ("mild", "severe"):
            raise ValueError(f"illposedness must be 'mild' or 'severe', got {self.illposedness!r}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if any(n < 2 for n in self.n_grid):
            raise ValueError("every n in n_grid must be >= 2")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.k_rule != "kappa_star":
            if int(self.k_rule) < 1:
                raise ValueError("fixed k must be >= 1")
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "a_ladder", tuple(float(a) for a in self.a_ladder))

    def smoothness_class(self) -> SmoothnessClass:
        if self.smoothness == "ordinary":
            return SmoothnessClass.ordinary(self.s, radius=self.radius, scale=self.a_scale)
        return SmoothnessClass.supersmooth(self.s, radius=self.radius, scale=self.a_scale)

    def noise_model(self) -> NoiseModel:
        if self.illposedness == "mild":
            return NoiseModel.mild(self.p, scale=self.eps_scale, max_freq=self.noise_max_freq)
        return NoiseModel.severe(self.p, scale=self.eps_scale, max_freq=self.noise_max_freq)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["n_grid"] = list(self.n_grid)
        d["scenarios"] = list(self.scenarios)
        d["a_ladder"] = list(self.a_ladder)
        return d

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
    """Rows of per-(n, scenario) results plus reproducibility metadata.

    wall_clock is measurement noise, not content: it is excluded from
    serialization and hashing so identical (config, seed) runs emit
    byte-identical reports regardless of machine load or thread count.
    """

    kind: str
    rows: tuple
    metadata: dict = field(default_factory=dict)
    wall_clock: float = 0.0

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "rows": [dict(r) for r in self.rows], "metadata": self.metadata}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentReport":
        return cls(kind=d["kind"], rows=tuple(d["rows"]), metadata=d["metadata"])

    def report_hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# -- Monte Carlo engine -------------------------------------------------


def _run_batches(sampler, n: int, reps: int, rng: Rng, threads: int, statistic):
    """Evaluate a per-replication statistic over reps draws.

    sampler(gen, batch_size, n) -> (batch_size, n) observation matrix;
    statistic(y) -> length-batch vector. Batches are dispatched to a
    thread pool but reduced in index order for determinism.
    """
    n_batches = (reps + _BATCH_SIZE - 1) // _BATCH_SIZE

    def one_batch(b):
        size = min(_BATCH_SIZE, reps - b * _BATCH_SIZE)
        gen = rng.child(b).generator()
        return statistic(sampler(gen, size, n))

    if threads <= 1:
        parts = [one_batch(b) for b in range(n_batches)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(one_batch, range(n_batches)))
    return np.concatenate(parts)


def _null_sampler(gen, size, n):
    return gen.random((size, n))


def _fixed_density_sampler(g: FourierDensity):
    """Sampler drawing every replication from the same observation density."""

    def sampler(gen, size, n):
        return sample_batch(g.coeffs[np.newaxis, 1:], size * n, gen).reshape(size, n)

    return sampler


def _mixture_sampler(theta_obs: np.ndarray):
    """Hypercube mixture: fresh sign vector per replication."""

    def sampler(gen, size, n):
        taus = gen.choice([-1.0, 1.0], size=(size, theta_obs.size))
        return sample_batch(taus * theta_obs, n, gen)

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
        return optimal_dim_est(cls, eps, n, 10 ** 5)
    return int(cfg.k_rule)


def _risk_scenarios(cfg: ExperimentConfig, cls, eps, n: int, k: int):
    """Materialize the stress set: name -> (sampler, q(f))."""
    out = {}
    for name in cfg.scenarios:
        if name == "null":
            out[name] = (_null_sampler, 0.0)
        elif name == "hypercube":
            fam = build_hypercube(cls, eps, n, cfg.alpha)
            tau = np.ones(fam.kappa)
            f = fam.vertex(tau)
            out[name] = (_fixed_density_sampler(observed_density(f, eps)), quadratic_functional(f))
        elif name == "two_point":
            m = optimal_two_point_freq(cls, eps, n)
            pair = build_two_point(cls, eps, n, m)
            out[name] = (
                _fixed_density_sampler(observed_density(pair.f_plus, eps)),
                quadratic_functional(pair.f_plus),
            )
        elif name == "boundary":
            f = _boundary_density(cls, k)
            out[name] = (_fixed_density_sampler(observed_density(f, eps)), quadratic_functional(f))
        else:
            raise ValueError(f"unknown scenario {name!r}")
    return out


def run_risk_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Monte Carlo estimate of the maximal estimation risk over the
    configured stress set, per n in the grid.

    The supremum over the whole ellipsoid is not computable; the max over
    the finite stress set is reported as a lower proxy for it.
    """
    cls = cfg.smoothness_class()
    eps = cfg.noise_model()
    rows = []
    t0 = time.perf_counter()
    for n_idx, n in enumerate(cfg.n_grid):
        k = resolve_k(cfg, cls, eps, n)
        scen = _risk_scenarios(cfg, cls, eps, n, k)
        for s_idx, name in enumerate(cfg.scenarios):
            sampler, q_true = scen[name]
            rng = Rng(cfg.seed, (s_idx, n_idx))
            sq_err = _run_batches(
                sampler,
                n,
                cfg.replications,
                rng,
                cfg.threads,
                lambda y: (estimate_q_batch(y, eps, k) - q_true) ** 2,
            )
            rows.append(
                {
                    "n": n,
                    "scenario": name,
                    "k": k,
                    "q_true": q_true,
                    "risk": float(sq_err.mean()),
                    "risk_se": float(sq_err.std(ddof=1) / np.sqrt(sq_err.size)),
                    "nu_k_sq": nu_k_sq(eps, n, k),
                }
            )
    for n in cfg.n_grid:
        max_row = max((r for r in rows if r["n"] == n), key=lambda r: r["risk"])
        rows.append({**max_row, "scenario": "max"})
    meta = {
        "config": cfg.identity_dict(),
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "risk_proxy": "max over finite stress set (lower proxy for maximal risk)",
        "artifact_version": 1,
    }
    return ExperimentReport(
        kind="risk", rows=tuple(rows), metadata=meta, wall_clock=time.perf_counter() - t0
    )


def run_test_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Empirical type I error and, per separation multiplier A in the
    ladder, type II error of the calibrated test under the hypercube
    alternative scaled to q(f) = A^2 rho*^2."""
    cls = cfg.smoothness_class()
    eps = cfg.noise_model()
    cal = calibrate(cfg.alpha, eps, cls.radius)
    rows = []
    t0 = time.perf_counter()
    for n_idx, n in enumerate(cfg.n_grid):
        k = resolve_k(cfg, cls, eps, n)
        thr = cal.C_alpha * nu_k_sq(eps, n, k)
        rho_sq = radius_upper(cls, eps, n, k)
        rng0 = Rng(cfg.seed, (0, n_idx))
        rejected = _run_batches(
            _null_sampler,
            n,
            cfg.replications,
            rng0,
            cfg.threads,
            lambda y: (estimate_q_batch(y, eps, k) >= thr).astype(float),
        )
        type1 = float(rejected.mean())
        se1 = float(rejected.std(ddof=1) / np.sqrt(rejected.size))
        # fields shared by the null row and every ladder row at this n
        at_n = dict(n=n, k=k, type1=type1, type2=None, error_sum=None, rho_star_sq=rho_sq)
        rows.append({**at_n, "A": 0.0, "se": se1})
        fam = build_hypercube(cls, eps, n, cfg.alpha)
        theta_obs_base = fam.observed_coeffs(eps)
        a_base = np.sqrt(fam.a_lower_sq)
        for a_idx, a_mult in enumerate(cfg.a_ladder):
            # scale coefficients so q(f) = A^2 rho*^2 (theta scales like A)
            scale = a_mult / a_base
            theta = fam.base_coeffs * scale
            feasible = 2.0 * float(np.sum(theta)) <= 1.0 + 1e-12
            if not feasible:
                rows.append({**at_n, "A": a_mult, "se": None, "feasible": False})
                continue
            rng1 = Rng(cfg.seed, (1 + a_idx, n_idx))
            accepted = _run_batches(
                _mixture_sampler(theta_obs_base * scale),
                n,
                cfg.replications,
                rng1,
                cfg.threads,
                lambda y: (estimate_q_batch(y, eps, k) < thr).astype(float),
            )
            type2 = float(accepted.mean())
            rows.append(
                {
                    **at_n,
                    "A": a_mult,
                    "type2": type2,
                    "error_sum": type1 + type2,
                    "se": float(accepted.std(ddof=1) / np.sqrt(accepted.size)),
                    "feasible": True,
                }
            )
    meta = {
        "config": cfg.identity_dict(),
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "calibration": {
            "alpha": cal.alpha,
            "C_alpha": cal.C_alpha,
            "A_tilde": cal.A_tilde,
            "A_bar": cal.A_bar,
        },
        "artifact_version": 1,
    }
    return ExperimentReport(
        kind="test", rows=tuple(rows), metadata=meta, wall_clock=time.perf_counter() - t0
    )


# -- data ingestion -----------------------------------------------------


def _parse_record(text: str, fmt: str) -> float:
    if fmt == "unit":
        v = float(text)
        if not 0.0 <= v < 1.0:
            raise ValueError(f"value {v} outside [0, 1)")
        return v
    if fmt == "hhmm":
        h, _, m = text.partition(":")
        hh, mm = int(h), int(m)
        if not (0 <= hh < 24 and 0 <= mm < 60):
            raise ValueError(f"invalid time {text!r}")
        return (60 * hh + mm) / 1440.0
    if fmt == "degrees":
        v = float(text)
        if not 0.0 <= v < 360.0:
            raise ValueError(f"degrees {v} outside [0, 360)")
        return v / 360.0
    raise ValueError(f"unknown format {fmt!r}")


def ingest_circular_data(path, fmt: str = "unit") -> CircularSample:
    """Read one circular observation per line, mapped to [0, 1).

    Formats: "unit" (already in [0,1)), "hhmm" ("HH:MM" clock times),
    "degrees" ([0, 360)). Per-line failures are collected; more than 1%
    bad lines aborts with all line numbers reported.
    """
    values, failures = [], []
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as e:
        raise IngestError(f"cannot read {path}: {e}") from e
    lines = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    if not lines:
        raise IngestError(f"{path} contains no data")
    for lineno, text in lines:
        try:
            values.append(_parse_record(text, fmt))
        except ValueError as e:
            failures.append((lineno, str(e)))
    if len(failures) > 0.01 * len(lines):
        detail = "; ".join(f"line {ln}: {msg}" for ln, msg in failures[:20])
        raise IngestError(
            f"{len(failures)}/{len(lines)} lines failed to parse: {detail}"
        )
    return CircularSample(np.array(values), seed=0, provenance=f"ingest:{fmt}")


# -- report persistence -------------------------------------------------

_CSV_COLUMNS = {
    "risk": ["n", "scenario", "k", "q_true", "risk", "risk_se", "nu_k_sq"],
    "test": ["n", "A", "k", "type1", "type2", "error_sum", "se", "rho_star_sq", "feasible"],
}


def emit_report(report: ExperimentReport, path: Optional[str], fmt: str = "json") -> str:
    """Serialize a report to JSON (lossless) or CSV (rows only, with a
    stable documented column order). Returns the serialized text; writes
    it to path when given."""
    if fmt == "json":
        text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
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
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def load_report(path) -> ExperimentReport:
    with open(path) as fh:
        return ExperimentReport.from_json_dict(json.load(fh))
