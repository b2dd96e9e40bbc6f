"""Experiment orchestration: config, seeded parallel Monte Carlo, reports.

Determinism contract: an ExperimentReport is a pure function of
(ExperimentConfig, seed). Replications are grouped into fixed-size
batches; batch b of cell c (a scenario, or the null or a ladder step) at
grid point g draws from numpy's SeedSequence(seed, spawn_key=(c, g, b)),
and batch results are reduced in index order. The thread count only
changes execution order, never the stream assignment, so reports are
byte-identical at any parallelism.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import numbers
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, asdict
from functools import partial

import numpy as np

from .errors import IngestError
from .estimation import estimate_q_batch
from .fourier import (
    FourierDensity,
    NoiseModel,
    SmoothnessClass,
    l1_certified,
    observed_density,
    quadratic_functional,
)
from .lowerbounds import build_hypercube, build_two_point
from .rates import nu_k_sq, optimal_dim_est, optimal_two_point_freq, radius_upper
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


def _check_integer(name: str, value, integral_float: bool = True) -> None:
    """Raise ValueError naming the field unless value is an int (a bool is
    not) or, with integral_float, a float with no fractional part (64.0)."""
    ok = isinstance(value, numbers.Integral) or (
        integral_float and isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not ok:
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully serializable description of a Monte Carlo experiment.

    The regime fields pick the canonical smoothness/ill-posedness
    sequences; a_scale and eps_scale multiply their proportionality
    constants. k_rule is "kappa_star" or a fixed integer level.
    noise_max_freq truncates the noise density used for sampling.

    Construction only validates: a wrongly typed, fractional, empty or
    out-of-range value raises a ValueError naming its field. replications
    is at least 2, so that every row has a standard error; threads and
    noise_max_freq are at least 1, seed at least 0, and each A in a_ladder
    a finite number > 0 (A = 0 is the null row's key). replications and
    seed take an int; threads, noise_max_freq, the n in n_grid and a
    fixed k_rule also take an integral float such as 64.0.
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
        for name in ("s", "p", "a_scale", "eps_scale", "radius", "alpha"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        for name in ("replications", "seed"):
            _check_integer(name, getattr(self, name), integral_float=False)
        for name in ("threads", "noise_max_freq"):
            _check_integer(name, getattr(self, name))
        for name in ("n_grid", "scenarios", "a_ladder"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {value!r}")
            if not value and name != "a_ladder":
                raise ValueError(f"{name} must not be empty")
        for n in self.n_grid:
            _check_integer("n in n_grid", n)
        for a in self.a_ladder:
            if isinstance(a, bool) or not isinstance(a, numbers.Real) or not 0 < a < math.inf:
                raise ValueError(f"every A in a_ladder must be a finite number > 0, got {a!r}")
        for name, low in (("replications", 2), ("threads", 1), ("noise_max_freq", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if any(n < 2 for n in self.n_grid):
            raise ValueError("every n in n_grid must be >= 2")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.k_rule != "kappa_star":
            try:
                k = int(self.k_rule) if isinstance(self.k_rule, str) else self.k_rule
            except ValueError:
                raise ValueError(
                    f"k_rule must be 'kappa_star' or an integer, got {self.k_rule!r}"
                ) from None
            _check_integer("k_rule", k)
            if k < 1:
                raise ValueError("k_rule: fixed k must be >= 1")
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
    return ExperimentReport(kind, tuple(rows), {**metadata, **meta, "artifact_version": 1})


# -- Monte Carlo engine -------------------------------------------------


def _q_hats(cfg: ExperimentConfig, cell: tuple, sampler, n: int, eps: NoiseModel, k: int):
    """q_hat_k of cfg.replications independent n-samples, in order.

    cell is (scenario or ladder index, grid index), and batch b of the cell
    draws from np.random.SeedSequence(cfg.seed, spawn_key=cell + (b,)).
    sampler(gen, batch_size, n) -> (batch_size, n) observation matrix. At
    threads == 1 the batches run in the calling thread, otherwise in a
    thread pool; either way they are concatenated in index order.
    """
    reps = cfg.replications
    seeds = np.random.SeedSequence(cfg.seed, spawn_key=cell).spawn(-(-reps // _BATCH_SIZE))

    def one_batch(b):
        size = min(_BATCH_SIZE, reps - b * _BATCH_SIZE)
        return estimate_q_batch(sampler(np.random.default_rng(seeds[b]), size, n), eps, k)

    if cfg.threads == 1:
        parts = [one_batch(b) for b in range(len(seeds))]
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            parts = list(pool.map(one_batch, range(len(seeds))))
    return np.concatenate(parts)


def _mean_se(x: np.ndarray):
    """Mean and standard error sd / sqrt(reps) of per-replication values."""
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(x.size))


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
        return optimal_dim_est(cls, eps, n)
    return int(cfg.k_rule)


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
        elif name == "boundary":
            f = _boundary_density(cls, k)
        else:
            raise ValueError(f"unknown scenario {name!r}")
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
    rows = []
    for n_idx, n in enumerate(cfg.n_grid):
        k = resolve_k(cfg, cls, eps, n)
        scen = _risk_scenarios(cfg, cls, eps, n, k)
        at_n = dict(n=n, k=k, nu_k_sq=nu_k_sq(eps, n, k))
        for s_idx, name in enumerate(cfg.scenarios):
            sampler, q_true = scen[name]
            q_hat = _q_hats(cfg, (s_idx, n_idx), sampler, n, eps, k)
            risk, risk_se = _mean_se((q_hat - q_true) ** 2)
            rows.append(dict(at_n, scenario=name, q_true=q_true, risk=risk, risk_se=risk_se))
    for n in cfg.n_grid:
        max_row = max((r for r in rows if r["n"] == n), key=lambda r: r["risk"])
        rows.append({**max_row, "scenario": "max"})
    proxy = "max over finite stress set (lower proxy for maximal risk)"
    return _report(cfg, "risk", rows, risk_proxy=proxy)


def run_test_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Empirical type I error and, per separation multiplier A in the
    ladder, type II error of the calibrated test under the hypercube
    alternative scaled to q(f) = A^2 rho*^2."""
    cls = cfg.smoothness_class()
    eps = cfg.noise_model()
    cal = calibrate(cfg.alpha, eps, cls.radius)
    rows = []
    for n_idx, n in enumerate(cfg.n_grid):
        k = resolve_k(cfg, cls, eps, n)
        thr = cal.threshold(eps, n, k)
        rho_sq = radius_upper(cls, eps, n, k)
        fam = build_hypercube(cls, eps, n, cfg.alpha)
        # observed magnitudes theta_j |eps_j| of the all-plus vertex; refuses,
        # as the risk experiment does, a kappa* above the noise's max_freq
        theta_obs_base = observed_density(fam.vertex(np.ones(fam.kappa)), eps).coeffs[1:].real
        q_hat = _q_hats(cfg, (0, n_idx), _null_sampler, n, eps, k)
        type1, se1 = _mean_se((q_hat >= thr).astype(float))
        # fields shared by the null row and every ladder row at this n
        at_n = dict(n=n, k=k, type1=type1, type2=None, error_sum=None, rho_star_sq=rho_sq)
        rows.append({**at_n, "A": 0.0, "se": se1})
        a_base = np.sqrt(fam.a_lower_sq)
        for a_idx, a_mult in enumerate(cfg.a_ladder):
            # scale coefficients so q(f) = A^2 rho*^2 (theta scales like A)
            scale = a_mult / a_base
            if not l1_certified(fam.base_coeffs * scale):
                rows.append({**at_n, "A": a_mult, "se": None, "feasible": False})
                continue
            sampler = _mixture_sampler(theta_obs_base * scale)
            q_hat = _q_hats(cfg, (1 + a_idx, n_idx), sampler, n, eps, k)
            type2, se2 = _mean_se((q_hat < thr).astype(float))
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
    h, _, m = text.partition(":")
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

# characters of text read per block; a block's lines are parsed in bulk
_BLOCK_CHARS = 1 << 16


def _convert_block(lines: list, convert, strip: bool):
    """convert applied to the non-blank lines of a block of raw lines
    (stripped first if strip), in line order. Returns the values, the
    positions of the refused lines among the non-blank ones, and the line
    index of each non-blank line.

    Blank lines are set aside first, since each would cost the bulk map
    an exception. A line that convert refuses is retried on its stripped
    text, since str.strip() removes the separators U+001C to U+001F and
    float() does not. The bulk map resumes after the line, so the
    exception cost is paid per refused line only.
    """
    kept = range(len(lines))
    if any(map(str.isspace, lines)):
        kept = [i for i, line in enumerate(lines) if not line.isspace()]
        lines = [lines[i] for i in kept]
    values, refused = [], []
    it = map(convert, map(str.strip, lines) if strip else lines)
    while True:
        try:
            values.extend(it)
            return values, refused, kept
        except ValueError:
            # extend keeps the values appended before the refused line
            i = len(values) + len(refused)
            try:
                values.append(convert(lines[i].strip()))
            except ValueError:
                refused.append(i)


def _refusal(parse, text: str) -> str:
    """The message with which parse refuses text, a line it refuses."""
    try:
        parse(text)
    except ValueError as e:
        return str(e)


def ingest_circular_data(path, fmt: str = "unit") -> CircularSample:
    """Read one circular observation per line, mapped to [0, 1).

    Formats: "unit" (already in [0,1)), "hhmm" ("HH:MM" clock times,
    both fields unsigned ASCII digits), "degrees" ([0, 360)). The file is
    parsed as it is read, a block of lines at a time, with the values and
    messages of the per-line parsers in DATA_FORMATS. Blank lines are
    skipped but keep their line numbers; more than 1% failing non-blank
    lines aborts, quoting the first 20. An unknown format raises
    ValueError before the file is opened; a file that cannot be read or
    decoded raises IngestError.
    """
    parse = DATA_FORMATS.get(fmt)
    if parse is None:
        raise ValueError(f"unknown format {fmt!r}; expected one of {', '.join(DATA_FORMATS)}")
    period = _PERIODS.get(fmt)
    # float() strips the raw line itself; the range check is done per block
    convert = parse if period is None else float
    out, failures, total, pos = array("d"), [], 0, 0
    try:
        with open(path) as fh:
            while lines := fh.readlines(_BLOCK_CHARS):
                values, quoted, kept = _convert_block(lines, convert, period is None)
                total += len(kept)
                block = np.array(values, dtype=float)
                if period is not None:
                    ok = (block >= 0.0) & (block < period)
                    if not ok.all():
                        if len(failures) < 20:
                            at = np.delete(np.arange(len(kept)), quoted)[~ok]
                            quoted = sorted(quoted + at.tolist())
                        block = block[ok]
                    block = block / period
                for i in quoted[: 20 - len(failures)]:
                    text = lines[kept[i]].strip()
                    failures.append((pos + kept[i] + 1, _refusal(parse, text)))
                out.frombytes(block.tobytes())
                pos += len(lines)
    except (OSError, UnicodeDecodeError) as e:
        raise IngestError(f"cannot read {path}: {e}") from e
    if not total:
        raise IngestError(f"{path} contains no data")
    bad = total - len(out)
    if bad > 0.01 * total:
        detail = "; ".join(f"line {ln}: {msg}" for ln, msg in failures)
        raise IngestError(f"{bad}/{total} lines failed to parse: {detail}")
    return CircularSample(np.frombuffer(out))


# -- report persistence -------------------------------------------------

_CSV_COLUMNS = {
    "risk": ["n", "scenario", "k", "q_true", "risk", "risk_se", "nu_k_sq"],
    "test": ["n", "A", "k", "type1", "type2", "error_sum", "se", "rho_star_sq", "feasible"],
}


def emit_report(report: ExperimentReport, fmt: str = "json") -> str:
    """Serialize a report to JSON (lossless) or CSV (rows only, with a
    stable documented column order) and return the text."""
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
    return text
