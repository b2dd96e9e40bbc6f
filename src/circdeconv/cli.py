"""Command-line interface.

Subcommands
-----------
estimate       q_hat_k (and optionally kappa*) from a data file
test           calibrated uniformity test on a data file, JSON result
rates          theoretical rate tables plus finite-n diagnostics
simulate-risk  Monte Carlo estimation-risk experiment from a config file
simulate-test  Monte Carlo testing-error experiment from a config file
lower-bound    constructed hypotheses and their condition report
ingest         parse a circular data file and re-emit unit values

Exit codes: 0 success, 1 usage error, 2 runtime failure, 3 failed
acceptance-style check (for CI gating).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from .errors import CircdeconvError, ConditionViolation
from .estimation import estimate_q
from .harness import (
    DATA_FORMATS,
    ExperimentConfig,
    emit_report,
    ingest_circular_data,
    resolve_k,
    run_risk_experiment,
    run_test_experiment,
)
from .lowerbounds import build_hypercube, build_two_point
from .rates import (
    fit_rate,
    numeric_rate_scan,
    optimal_two_point_freq,
    theoretical_estimation_rate,
    theoretical_testing_radius,
)
from .testing import calibrate, run_test

USAGE_ERROR, RUNTIME_ERROR, CHECK_FAILED = 1, 2, 3


def _add_model_args(p):
    """The model flags. An absent flag sets no attribute, so the field
    keeps its ExperimentConfig default."""
    g = p.add_argument_group("model", argument_default=argparse.SUPPRESS)
    g.add_argument("--noise", dest="illposedness", choices=["mild", "severe"])
    g.add_argument("--p", type=float, help="noise ill-posedness degree")
    g.add_argument("--eps-scale", type=float)
    g.add_argument("--noise-max-freq", type=int)
    g.add_argument("--smoothness", choices=["ordinary", "super"])
    g.add_argument("--s", type=float, help="smoothness degree")
    g.add_argument("--a-scale", type=float)
    g.add_argument("--radius", type=float, help="ellipsoid radius R")


def _scan_max_exp(text: str) -> int:
    """--scan-max-exp E: the scan runs n = 2^8..2^E, and its slope fit needs 4 points."""
    if not (text.isdigit() and int(text) >= 11):
        raise argparse.ArgumentTypeError(f"must be an integer >= 11, got {text!r}")
    return int(text)


def _config_from_args(args) -> ExperimentConfig:
    """The model flags as an ExperimentConfig, so the CLI builds its
    smoothness class, noise model and k exactly as the harness does.

    A given flag sets the config field named by its dest; --k sets k_rule,
    with "auto" meaning "kappa_star".
    """
    given = {
        f.name: getattr(args, f.name) for f in fields(ExperimentConfig) if hasattr(args, f.name)
    }
    k = getattr(args, "k", "auto")
    return ExperimentConfig(**given, k_rule="kappa_star" if k == "auto" else k)


def _write_out(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        print(text)


def _data_setup(args):
    """Config, data sample, noise model and k of a data command. The model
    flags are checked before the file is read."""
    cfg = _config_from_args(args)
    sample = ingest_circular_data(args.data, args.format)
    eps = cfg.noise_model()
    return cfg, sample, eps, resolve_k(cfg, cfg.smoothness_class(), eps, sample.n)


def cmd_estimate(args) -> int:
    _, sample, eps, k = _data_setup(args)
    result = {"n": sample.n, "k": k, "q_hat": estimate_q(sample.values, eps, k)}
    _write_out(json.dumps(result, indent=2), args.out)
    return 0


def cmd_test(args) -> int:
    cfg, sample, eps, k = _data_setup(args)
    cal = calibrate(cfg.alpha, eps, cfg.radius)
    res = run_test(sample.values, eps, k, cal)
    result = {
        "n": sample.n,
        "k": res.k,
        "statistic": res.statistic,
        "threshold": res.threshold,
        "nu_k_sq": res.nu_k_sq,
        "decision": res.decision,
        "alpha": cfg.alpha,
        "C_alpha": cal.C_alpha,
    }
    _write_out(json.dumps(result, indent=2), args.out)
    return 0


def cmd_rates(args) -> int:
    cfg = _config_from_args(args)
    cls = cfg.smoothness_class()
    eps = cfg.noise_model()
    est = theoretical_estimation_rate(cls, eps)
    tst = theoretical_testing_radius(cls, eps)
    out = {
        "regime": {
            "smoothness": cfg.smoothness,
            "s": cfg.s,
            "illposedness": cfg.illposedness,
            "p": cfg.p,
        },
        "estimation_rate": {"n_exp": est.rate.n_exp, "log_exp": est.rate.log_exp},
        "estimation_elbow": est.elbow,
        "elbow_condition": est.elbow_condition,
        "testing_radius": {"n_exp": tst.rate.n_exp, "log_exp": tst.rate.log_exp},
    }
    if args.scan:
        ns = [2 ** e for e in range(8, args.scan_max_exp + 1)]
        rows = numeric_rate_scan(cls, eps, ns)
        out["scan"] = [
            {
                "n": r.n,
                "kappa_star": r.kappa_star,
                "rho_star_sq": r.rho_star_sq,
                "r_star4": r.r_star4,
                "base_term": r.base,
            }
            for r in rows
        ]
        slope, _, r2 = fit_rate([r.n for r in rows], [r.rho_star_sq for r in rows])
        out["fitted_radius_slope"] = slope
        out["fit_r_squared"] = r2
    _write_out(json.dumps(out, indent=2), args.out)
    return 0


def _load_config(args) -> ExperimentConfig:
    with open(args.config) as fh:
        d = json.load(fh)
    if args.seed is not None:
        d["seed"] = args.seed
    if args.threads is not None:
        d["threads"] = args.threads
    return ExperimentConfig.from_json_dict(d)


def cmd_simulate(args) -> int:
    report = args.experiment(_load_config(args))
    _write_out(emit_report(report, args.format), args.out)
    return 0


def cmd_lower_bound(args) -> int:
    cfg = _config_from_args(args)
    cls = cfg.smoothness_class()
    eps = cfg.noise_model()
    out = {"n": args.n, "alpha": cfg.alpha}
    ok = True
    try:
        fam = build_hypercube(cls, eps, args.n, cfg.alpha)
        out["hypercube"] = {
            "kappa_star": fam.kappa,
            "zeta": fam.zeta,
            "eta": fam.eta,
            "rho_star_sq": fam.rho_star_sq,
            "separation_sq": fam.separation_sq,
            "similarity": fam.similarity,
            "vertex_plus": fam.vertex(np.ones(fam.kappa)).to_json_dict(),
            "conditions": "all pass",
        }
    except ConditionViolation as e:
        ok = False
        out["hypercube"] = {"conditions": f"FAIL {e.condition}", "detail": str(e)}
    try:
        m = optimal_two_point_freq(cls, eps, args.n)
        pair = build_two_point(cls, eps, args.n, m)
        out["two_point"] = {
            "m": pair.m,
            "xi": pair.xi,
            "C": pair.C,
            "separation_sq": pair.separation_sq,
            "f_plus": pair.f_plus.to_json_dict(),
            "f_minus": pair.f_minus.to_json_dict(),
            "conditions": "all pass",
        }
    except ConditionViolation as e:
        ok = False
        out["two_point"] = {"conditions": f"FAIL {e.condition}", "detail": str(e)}
    _write_out(json.dumps(out, indent=2), args.out)
    return 0 if ok else CHECK_FAILED


def cmd_ingest(args) -> int:
    sample = ingest_circular_data(args.data, args.format)
    # Python floats format faster than numpy scalars, to the same text
    _write_out("\n".join(f"{v:.17g}" for v in sample.values.tolist()), args.out)
    return 0


def _add_data_args(p):
    """The data file, its --format and --out, shared by the data commands."""
    p.add_argument("data", help="data file, one observation per line")
    p.add_argument("--format", choices=list(DATA_FORMATS), default="unit")
    p.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circdeconv",
        description="Quadratic functional estimation and uniformity testing "
        "for circular deconvolution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate the quadratic functional from data")
    _add_data_args(p)
    p.add_argument("--k", default="auto", help="truncation level or 'auto' for kappa*")
    _add_model_args(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("test", help="run the calibrated uniformity test on data")
    _add_data_args(p)
    p.add_argument("--k", default="auto")
    p.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    _add_model_args(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("rates", help="theoretical rates and finite-n scan")
    _add_model_args(p)
    p.add_argument("--scan", action="store_true", help="include a finite-n scan")
    p.add_argument(
        "--scan-max-exp", type=_scan_max_exp, default=16, help="scan n up to 2^E (E >= 11)"
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_rates)

    experiments = [("simulate-risk", run_risk_experiment), ("simulate-test", run_test_experiment)]
    for name, run in experiments:
        p = sub.add_parser(name, help=f"run a Monte Carlo {name.split('-')[1]} experiment")
        p.add_argument("--config", required=True, help="JSON ExperimentConfig file")
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out")
        p.set_defaults(func=cmd_simulate, experiment=run)

    p = sub.add_parser("lower-bound", help="build and verify lower-bound hypotheses")
    _add_model_args(p)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lower_bound)

    p = sub.add_parser("ingest", help="parse a circular data file to unit values")
    _add_data_args(p)
    p.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CircdeconvError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
