"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench

They run every workload at smoke size, so they take about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import launch  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_appears_with_its_unit(trace):
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    expected = {f"{w}.{m['name']}": m["unit"] for w in inputs.WORKLOADS for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.fixture(scope="module")
def estimate_run(tmp_path_factory):
    """The program's estimate and test results on a smoke-size data file."""
    tmp = tmp_path_factory.mktemp("data")
    text, good = inputs.data_values(20000, seed=5)
    data = tmp / "data.txt"
    data.write_text("\n".join(text) + "\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = {}
    for command in ("estimate", "test"):
        path = tmp / f"{command}.json"
        subprocess.run([sys.executable, "-m", "circdeconv.cli", command, str(data), "--out", str(path)],
                       env=env, check=True, timeout=120)
        out[command] = json.loads(path.read_text())
    return out, good


def test_checks_pass_on_program_output(estimate_run):
    out, good = estimate_run
    q_ref = checks.q_hat_direct(good, checks.kappa_star(good.size))
    assert checks.check_estimate(out["estimate"], good, q_ref, "q_hat") == []
    assert checks.check_estimate(out["test"], good, q_ref, "statistic") == []
    assert checks.check_decision(out["test"]) == []


def test_corrupted_data_file_reference_fails_a_check(estimate_run):
    out, good = estimate_run
    shifted = good.copy()
    shifted[0] = (shifted[0] + 0.5) % 1.0
    q_shifted = checks.q_hat_direct(shifted, checks.kappa_star(good.size))
    assert checks.check_estimate(out["estimate"], shifted, q_shifted, "q_hat")
    q_ref = checks.q_hat_direct(good, checks.kappa_star(good.size))
    assert checks.check_estimate(out["estimate"], good[1:], q_ref, "q_hat")
    flipped = {**out["test"], "decision": "reject_null" if out["test"]["decision"] == "accept_null"
               else "accept_null"}
    assert checks.check_decision(flipped)


def test_null_risk_check_flags_a_doubled_variance():
    n, k, reps = 16384, checks.kappa_star(16384), 256
    exact = 2.0 * checks.nu_sq(n, k) ** 2 * n / (n - 1)

    def report(risk):
        row = {"n": n, "k": k, "scenario": "null", "risk": risk}
        return {"rows": [row], "metadata": {"config": {"replications": reps}}}

    assert checks.check_null_risk(report(exact)) == []
    assert checks.check_null_risk(report(2.0 * exact))


def test_missing_wrapped_name_is_reported_absent():
    module = types.ModuleType("fake_layer")
    tracer = launch.Tracer("t")
    tracer.wrap(module, "sample_batch", "sampling")
    assert tracer.absent == ["fake_layer.sample_batch"]
    assert tracer.summary()["layers"] == {}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "risk-stress", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
