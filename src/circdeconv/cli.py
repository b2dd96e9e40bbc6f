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
    ExperimentConfig,
    emit_report,
    ingest_circular_data,
    resolve_k,
    run_risk_experiment,
    run_test_experiment,
)
from .lowerbounds import build_hypercube, build_two_point
from .rates import (
    RegimeSpec,
    fit_rate,
    numeric_rate_scan,
    optimal_two_point_freq,
    theoretical_estimation_rate,
    theoretical_testing_radius,
)
from .testing import calibrate, run_test

USAGE_ERROR, RUNTIME_ERROR, CHECK_FAILED = 1, 2, 3


def _add_model_args(p):
    p.add_argument("--noise", dest="illposedness", choices=["mild", "severe"], default="mild")
    p.add_argument("--p", type=float, default=1.0, help="noise ill-posedness degree")
    p.add_argument("--eps-scale", type=float, default=1.0)
    p.add_argument("--noise-max-freq", type=int, default=64)
    p.add_argument("--smoothness", choices=["ordinary", "super"], default="ordinary")
    p.add_argument("--s", type=float, default=1.0, help="smoothness degree")
    p.add_argument("--a-scale", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=1.0, help="ellipsoid radius R")


def _config_from_args(args) -> ExperimentConfig:
    """The model flags as an ExperimentConfig, so the CLI builds its
    smoothness class, noise model and k exactly as the harness does.

    A flag sets the config field named by its dest; --k sets k_rule, with
    "auto" meaning "kappa_star".
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


def cmd_estimate(args) -> int:
    cfg = _config_from_args(args)
    sample = ingest_circular_data(args.data, args.format)
    eps = cfg.noise_model()
    k = resolve_k(cfg, cfg.smoothness_class(), eps, sample.n)
    result = {
        "n": sample.n,
        "k": k,
        "q_hat": estimate_q(sample, eps, k),
    }
    _write_out(json.dumps(result, indent=2), args.out)
    return 0


def cmd_test(args) -> int:
    cfg = _config_from_args(args)
    sample = ingest_circular_data(args.data, args.format)
    cls = cfg.smoothness_class()
    eps = cfg.noise_model()
    k = resolve_k(cfg, cls, eps, sample.n)
    cal = calibrate(cfg.alpha, eps, cls.radius)
    res = run_test(sample, eps, k, cal)
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
    reg = RegimeSpec(args.smoothness, args.s, args.illposedness, args.p)
    est = theoretical_estimation_rate(reg)
    tst = theoretical_testing_radius(reg)
    out = {
        "regime": {
            "smoothness": reg.smoothness,
            "s": reg.s,
            "illposedness": reg.illposedness,
            "p": reg.p,
        },
        "estimation_rate": {"n_exp": est.rate.n_exp, "log_exp": est.rate.log_exp},
        "estimation_elbow": est.elbow,
        "elbow_condition": est.elbow_condition,
        "testing_radius": {"n_exp": tst.rate.n_exp, "log_exp": tst.rate.log_exp},
    }
    if args.scan:
        cfg = _config_from_args(args)
        cls = cfg.smoothness_class()
        eps = cfg.noise_model()
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


def cmd_simulate_risk(args) -> int:
    report = run_risk_experiment(_load_config(args))
    _write_out(emit_report(report, None, args.format), args.out)
    return 0


def cmd_simulate_test(args) -> int:
    report = run_test_experiment(_load_config(args))
    _write_out(emit_report(report, None, args.format), args.out)
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
    _write_out("\n".join(f"{v:.17g}" for v in sample.values), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circdeconv",
        description="Quadratic functional estimation and uniformity testing "
        "for circular deconvolution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate the quadratic functional from data")
    p.add_argument("data", help="data file, one observation per line")
    p.add_argument("--format", choices=["unit", "hhmm", "degrees"], default="unit")
    p.add_argument("--k", default="auto", help="truncation level or 'auto' for kappa*")
    _add_model_args(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("test", help="run the calibrated uniformity test on data")
    p.add_argument("data")
    p.add_argument("--format", choices=["unit", "hhmm", "degrees"], default="unit")
    p.add_argument("--k", default="auto")
    p.add_argument("--alpha", type=float, default=0.05)
    _add_model_args(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("rates", help="theoretical rates and finite-n scan")
    _add_model_args(p)
    p.add_argument("--scan", action="store_true", help="include a finite-n scan")
    p.add_argument("--scan-max-exp", type=int, default=16, help="scan n up to 2^E")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rates)

    for name, fn in [("simulate-risk", cmd_simulate_risk), ("simulate-test", cmd_simulate_test)]:
        p = sub.add_parser(name, help=f"run a Monte Carlo {name.split('-')[1]} experiment")
        p.add_argument("--config", required=True, help="JSON ExperimentConfig file")
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out")
        p.set_defaults(func=fn)

    p = sub.add_parser("lower-bound", help="build and verify lower-bound hypotheses")
    _add_model_args(p)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lower_bound)

    p = sub.add_parser("ingest", help="parse a circular data file to unit values")
    p.add_argument("data")
    p.add_argument("--format", choices=["unit", "hhmm", "degrees"], default="unit")
    p.add_argument("--out")
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
