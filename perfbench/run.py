"""Benchmark of the circdeconv pipeline through its public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout (the directory holding src/ and
BENCHMARK.json). One closed-loop client runs each CLI command in a fresh
interpreter after the previous one has finished; simulations use
threads = 2. Inputs are generated from --seed (see inputs.py) into
.bench_work/<workload>/, and every output is checked (see checks.py).

A run repeats rounds of the workload's commands while the next round
still ends within --seconds (at least one round). Every output must be
byte-identical to the first threads = 1 output of the run.

--trace 0  one untimed reference round at threads = 1 (it also warms the
           byte-code cache), then untraced rounds at threads = 2; reports
           the end-to-end metrics as medians over rounds (setup_s over
           every command).
--trace 1  per round: an untraced threads = 1 round, a traced threads = 1
           round, for simulations an untraced threads = 2 round, and an
           ``-X importtime`` import of circdeconv.cli; reports the
           per-layer metrics as medians over rounds (counts from the last
           round; they repeat exactly). Spans go to *.spans.jsonl files
           beside the reports, never into them.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. An operation is one CLI command
or one correctness check; a non-zero exit, an exception or a failed check
counts as failed. Metric names and units are those in BENCHMARK.json.
--workload all runs every workload in turn and prefixes each metric name
with the workload's.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 170.0  # the whole run must end well inside 180 s
_START = time.monotonic()


@dataclass
class Round:
    wall_s: float
    obs: int
    setups: list
    peak_rss_mb: float
    traces: list = field(default_factory=list)


class Context:
    """One workload run: its inputs, reference outputs and operation tally."""

    def __init__(self, w: inputs.Workload, seed: int, work: Path):
        self.w = w
        self.work = work
        self.files = inputs.write_inputs(w, seed, work)
        self.ref_hashes = None
        self.attempted = 0
        self.failures = []
        self.absent = set()
        if not w.simulates:
            good = self.files["good_values"]
            self.q_ref = checks.q_hat_direct(good, checks.kappa_star(good.size))

    def op(self, name: str, failures: list) -> bool:
        self.attempted += 1
        if failures:
            self.failures.append(f"{name}: {'; '.join(failures)}")
        return not failures

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - _START)

    def run_cli(self, cli_args: list, trace: bool, tag: str):
        """Run one CLI command through launch.py; its timing record or None."""
        timing = self.work / f"{tag}.timing.json"
        timing.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "launch.py"), str(timing), str(int(trace)), "--", *cli_args]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=_program_env(), capture_output=True, text=True,
                timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired:
            self.op(f"{tag} {cli_args[0]}", ["timed out"])
            return None
        if not self.op(f"{tag} {cli_args[0]}", [] if proc.returncode == 0 else
                       [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]):
            return None
        record = json.loads(timing.read_text())
        if "trace" in record:
            self.absent.update(record["trace"]["absent"])
        return record

    def check_hashes(self, tag: str, outputs: list) -> None:
        """Outputs must be byte-identical to the reference round's."""
        hashes = [hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs]
        if self.ref_hashes is None:
            self.ref_hashes = hashes
            return
        self.op(f"{tag} report hash", [] if hashes == self.ref_hashes else
                [f"{hashes} != reference {self.ref_hashes}"])

    def round(self, threads: int, trace: bool, tag: str):
        """One pass of the workload's commands with its checks."""
        if self.w.simulates:
            return self._simulation_round(threads, trace, tag)
        return self._data_round(trace, tag)

    def _simulation_round(self, threads: int, trace: bool, tag: str):
        w = self.w
        out = self.work / f"{tag}.report.json"
        rec = self.run_cli(
            [w.command, "--config", self.files["config"], "--threads", str(threads), "--out", str(out)],
            trace, tag,
        )
        if rec is None:
            return None
        report = json.loads(out.read_text())
        self.check_hashes(tag, [out])
        self.op(f"{tag} k", checks.check_k(report))
        if report["kind"] == "risk":
            self.op(f"{tag} null risk", checks.check_null_risk(report))
            done = [r for r in report["rows"] if r["scenario"] != "max"]
        else:
            self.op(f"{tag} type I", checks.check_type1(report, inputs.ALPHA))
            self.op(f"{tag} feasible", checks.check_feasible(report))
            done = [r for r in report["rows"] if r["A"] == 0.0 or r["feasible"]]
        obs = sum(r["n"] for r in done) * w.replications
        return Round(rec["wall_s"], obs, [rec["setup_s"]], rec["peak_rss_mb"],
                     [rec["trace"]] if trace else [])

    def _data_round(self, trace: bool, tag: str):
        data, good = self.files["data"], self.files["good_values"]
        recs, outs = [], []
        for command in ("estimate", "test"):
            out = self.work / f"{tag}.{command}.json"
            rec = self.run_cli([command, data, "--out", str(out)], trace, f"{tag}.{command}")
            if rec is None:
                return None
            recs.append(rec)
            outs.append(out)
        est, tst = (json.loads(p.read_text()) for p in outs)
        self.check_hashes(tag, outs)
        self.op(f"{tag} estimate", checks.check_estimate(est, good, self.q_ref, "q_hat"))
        self.op(f"{tag} test statistic", checks.check_estimate(tst, good, self.q_ref, "statistic"))
        self.op(f"{tag} test decision", checks.check_decision(tst))
        return Round(
            sum(r["wall_s"] for r in recs), 2 * self.files["lines"], [r["setup_s"] for r in recs],
            max(r["peak_rss_mb"] for r in recs), [r["trace"] for r in recs] if trace else [],
        )

    def import_times(self):
        """Import cost of circdeconv.cli and of its scipy part, from -X importtime."""
        cmd = [sys.executable, "-X", "importtime", "-c", "import circdeconv.cli"]
        proc = subprocess.run(cmd, cwd=ROOT, env=_program_env(), capture_output=True, text=True,
                              timeout=max(1.0, self.remaining()))
        if not self.op("importtime", [] if proc.returncode == 0 else [proc.stderr[-500:]]):
            return None
        total, scipy_self = 0.0, 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            self_us, cum_us, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if name == "circdeconv":
                total = int(cum_us) / 1e6
            if name.split(".")[0] == "scipy":
                scipy_self += int(self_us) / 1e6
        return total, scipy_self


def _program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _loop(ctx: Context, seconds: float, body) -> list:
    """Call body() while another call of the last one's length still ends
    within seconds (at least once); stop early after three failed rounds
    in a row or near the hard time limit."""
    deadline = time.monotonic() + seconds
    done, misses, last = [], 0, 0.0
    while not done or time.monotonic() + last <= deadline:
        if ctx.remaining() < 20 or misses >= 3:
            break
        started = time.monotonic()
        result = body()
        last = time.monotonic() - started
        if result is None:
            misses += 1
        else:
            done.append(result)
            misses = 0
    return done


def end_to_end(ctx: Context, seconds: float) -> dict:
    """Per-round samples of each end-to-end metric (setup_s per command)."""
    ctx.round(threads=1, trace=False, tag="reference")
    rounds = _loop(ctx, seconds, lambda: ctx.round(inputs.THREADS, False, "e2e"))
    return {
        "wall_s": [r.wall_s for r in rounds],
        "obs_per_s": [r.obs / r.wall_s for r in rounds],
        "setup_s": [s for r in rounds for s in r.setups],
        "peak_rss_mb": [r.peak_rss_mb for r in rounds],
    }


def _merge(traces: list):
    """Sum the layer times and counts of one round's traced commands."""
    layers, counts = {}, {}
    for t in traces:
        for name, agg in t["layers"].items():
            into = layers.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
            for key in into:
                into[key] += agg[key]
        for name, value in t["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return layers, counts


# Layers whose self times partition a traced command; the root span's self
# time (CLI, harness loop, uniform draws) is reported as harness.self_s.
SELF_TIME_LAYERS = (
    "sampling", "estimation.coeffs", "estimation.reduce", "estimation.single",
    "testing.run_test", "harness.ingest", "harness.emit",
    "setup.k", "setup.constructions", "setup.calibrate", "harness",
)


def layer_metrics(ctx: Context, seconds: float):
    """Per-layer metrics and the self time of each layer in the last round."""
    w = ctx.w

    def one_round():
        plain = ctx.round(1, False, "untraced-1t")
        traced = ctx.round(1, True, "traced-1t")
        two = ctx.round(inputs.THREADS, False, "untraced-2t") if w.simulates else plain
        imports = ctx.import_times()
        if None in (plain, traced, two, imports):
            return None
        return plain, traced, two, imports, _merge(traced.traces)

    rounds = _loop(ctx, seconds, one_round)
    if not rounds:
        return {}, {}

    def busy(layers, name, key="busy_s"):
        return layers.get(name, {}).get(key, 0.0)

    def per_round(fn):
        return _median(fn(layers, counts) for *_, (layers, counts) in rounds)

    def ratio(num, den):
        return num / den if den else 0.0

    layers, counts = rounds[-1][-1]
    lines = w.lines * busy(layers, "harness.ingest", "calls")
    u1 = _median(r[0].wall_s for r in rounds)
    m = {
        "sampling.busy_s": per_round(lambda l, c: busy(l, "sampling")),
        "sampling.calls": busy(layers, "sampling", "calls"),
        "sampling.draws": counts.get("sampling.draws", 0),
        "sampling.ns_per_draw": per_round(
            lambda l, c: 1e9 * ratio(busy(l, "sampling"), c.get("sampling.draws", 0))),
        "sampling.tables_built": counts.get("sampling.tables_built", 0),
        "sampling.tables_distinct": counts.get("sampling.tables_distinct", 0),
        "sampling.table_reuse": ratio(counts.get("sampling.tables_distinct", 0),
                                      counts.get("sampling.tables_built", 0)),
        "estimation.coeffs.busy_s": per_round(lambda l, c: busy(l, "estimation.coeffs")),
        "estimation.coeffs.mults": counts.get("estimation.coeffs.mults", 0),
        "estimation.coeffs.bytes_computed": counts.get("estimation.coeffs.bytes_computed", 0),
        "estimation.coeffs.mults_per_s": per_round(
            lambda l, c: ratio(c.get("estimation.coeffs.mults", 0), busy(l, "estimation.coeffs"))),
        "estimation.reduce.busy_s": per_round(lambda l, c: busy(l, "estimation.reduce", "self_s")),
        "estimation.single.busy_s": per_round(lambda l, c: busy(l, "estimation.single")),
        "estimation.single.obs_per_s": per_round(
            lambda l, c: ratio(c.get("estimation.single.obs", 0), busy(l, "estimation.single"))),
        "harness.ingest.busy_s": per_round(lambda l, c: busy(l, "harness.ingest")),
        "harness.ingest.lines": lines,
        "harness.ingest.bad_lines": lines - counts.get("harness.ingest.good_lines", 0),
        "harness.ingest.lines_per_s": per_round(lambda l, c: ratio(lines, busy(l, "harness.ingest"))),
        "harness.batches": busy(layers, "estimation.reduce", "calls"),
        "harness.self_s": per_round(lambda l, c: sum(
            v["self_s"] for k, v in l.items() if k.startswith("cli."))),
        "harness.emit.busy_s": per_round(lambda l, c: busy(l, "harness.emit")),
        "harness.emit.bytes": counts.get("harness.emit.bytes", 0),
        "harness.speedup_2t": ratio(u1, _median(r[2].wall_s for r in rounds)) if w.simulates else 0.0,
        "harness.trace_overhead_frac": ratio(_median(r[1].wall_s for r in rounds) - u1, u1),
        "setup.k.busy_s": per_round(lambda l, c: busy(l, "setup.k")),
        "setup.constructions.busy_s": per_round(lambda l, c: busy(l, "setup.constructions")),
        "setup.calibrate.busy_s": per_round(lambda l, c: busy(l, "setup.calibrate")),
        "testing.run_test.busy_s": per_round(lambda l, c: busy(l, "testing.run_test")),
        "rates.base_term.warnings": counts.get("rates.base_term.warnings", 0),
        "setup.import.circdeconv_s": _median(r[3][0] for r in rounds),
        "setup.import.scipy_s": _median(r[3][1] for r in rounds),
    }
    self_times = {
        name: sum(v["self_s"] for k, v in layers.items()
                  if (k.startswith("cli.") if name == "harness" else k == name))
        for name in SELF_TIME_LAYERS
    }
    return m, self_times


def environment() -> dict:
    """Software and hardware the result was measured on."""
    env = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0))}
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            env[pkg] = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name")), None)
    except OSError:
        env["cpu"] = None
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
            env[level.lower()] = int(out.stdout) if out.stdout.strip().isdigit() else None
        except (OSError, subprocess.SubprocessError):
            env[level.lower()] = None
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, declared: dict):
    w = inputs.sized(inputs.WORKLOADS[name], smoke)
    ctx = Context(w, seed, ROOT / ".bench_work" / name)
    if trace:
        (values, self_times), samples = layer_metrics(ctx, seconds), {}
    else:
        samples, self_times = end_to_end(ctx, seconds), {}
        values = {k: _median(v) for k, v in samples.items() if v}
    missing = set(declared) - set(values)
    if missing and not ctx.failures:
        raise KeyError(f"metrics not computed: {sorted(missing)}")
    metrics = {k: {"value": values.get(k, 0.0), "unit": unit} for k, unit in declared.items()}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "input": {k: v for k, v in asdict(w).items() if k != "smoke"},
        "environment": environment(), "metrics": metrics,
        "attempted": ctx.attempted, "failed": len(ctx.failures), "failures": ctx.failures,
        "absent": sorted(ctx.absent), "self_time_s": self_times, "samples": samples,
    }
    (ctx.work / f"result-trace{int(trace)}.json").write_text(json.dumps(record, indent=2))
    return record


def print_record(rec: dict) -> None:
    print(f"# workload {rec['workload']}: input {json.dumps(rec['input'])}")
    print(f"# env {json.dumps(rec['environment'])}")
    for name, m in rec["metrics"].items():
        print(f"{rec['workload']:12s} {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"{rec['workload']:12s} {'failed_frac':36s} {rec['failed'] / max(rec['attempted'], 1):.6g} "
          f"({rec['failed']} of {rec['attempted']} operations)")
    for f in rec["failures"]:
        print(f"# FAILED {f}")
    if rec["absent"]:
        print(f"# absent (reported as 0): {', '.join(rec['absent'])}")
    if rec["self_time_s"]:
        top = max(rec["self_time_s"], key=rec["self_time_s"].get)
        print(f"# largest self time: {top}; "
              + ", ".join(f"{k}={v:.3f}s" for k, v in rec["self_time_s"].items() if v))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for tests")
    args = parser.parse_args(argv)

    bench, cli = ROOT / "BENCHMARK.json", ROOT / "src" / "circdeconv" / "cli.py"
    if not (bench.is_file() and cli.is_file()):
        print(f"error: run from a circdeconv source checkout ({cli} or {bench} missing)",
              file=sys.stderr)
        return 2
    spec = json.loads(bench.read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.smoke, declared)
               for n in names]
    for rec in records:
        print_record(rec)
    prefix = args.workload == "all"
    result = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in records for k, v in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
