import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import circdeconv
from circdeconv.errors import IngestError, InvalidDensityError
from circdeconv.fourier import NoiseModel, SmoothnessClass
from circdeconv.harness import (
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    ingest_circular_data,
    load_report,
    run_risk_experiment,
    run_test_experiment,
)
from circdeconv.rates import optimal_dim_est

SMALL = dict(n_grid=(64,), replications=200, seed=7)


class TestExperimentConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(n_grid=(64, 128), replications=50, a_ladder=(0.1,), seed=3)
        again = ExperimentConfig.from_json_dict(
            json.loads(json.dumps(cfg.to_json_dict()))
        )
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(replications=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n_grid=(1,))
        with pytest.raises(ValueError):
            ExperimentConfig(alpha=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(k_rule="0")

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError, match="smoothness"):
            ExperimentConfig(smoothness="supersmooth")
        with pytest.raises(ValueError, match="illposedness"):
            ExperimentConfig(illposedness="Mild")

    def test_unknown_json_keys_named(self):
        d = ExperimentConfig().to_json_dict()
        d["replicatons"] = 10
        d["thread"] = 2
        with pytest.raises(ValueError, match="replicatons, thread"):
            ExperimentConfig.from_json_dict(d)

    def test_hash_sensitive_to_content(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=2)
        assert a.config_hash() != b.config_hash()


class TestRiskExperiment:
    def test_null_risk_matches_closed_form(self):
        # direct observations, k = 1: the estimator is an average over the
        # n(n-1)/2 unordered pairs of the kernel 2cos(2 pi (Y_l - Y_m)),
        # which is centered and pairwise uncorrelated under the null, so
        # its exact variance is Var(kernel) / #pairs = 4 / (n (n - 1))
        n, reps = 100, 4000
        cfg = ExperimentConfig(
            n_grid=(n,),
            replications=reps,
            scenarios=("null",),
            k_rule="1",
            eps_scale=0.9999,
            noise_max_freq=4,
            seed=11,
        )
        report = run_risk_experiment(cfg)
        row = report.rows[0]
        exact = 4.0 / (n * (n - 1)) / 0.9999 ** 4
        assert abs(row["risk"] - exact) <= 3 * row["risk_se"]

    def test_refuses_density_beyond_noise_max_freq(self):
        # kappa* = 129 here but the noise density stops at noise_max_freq =
        # 64; truncating would sample a density that does not carry q_true
        cfg = ExperimentConfig(
            s=0.6, p=0.6, n_grid=(10 ** 6,), scenarios=("hypercube",), replications=10
        )
        with pytest.raises(InvalidDensityError, match="129.*64"):
            run_risk_experiment(cfg)

    def test_deterministic_across_thread_counts(self):
        base = dict(
            n_grid=(64,), replications=300, scenarios=("null", "boundary"), seed=5
        )
        r1 = run_risk_experiment(ExperimentConfig(threads=1, **base))
        r8 = run_risk_experiment(ExperimentConfig(threads=8, **base))
        # the parallelism degree is an execution detail, not part of the
        # experiment identity: serialized reports are byte-identical
        assert emit_report(r1, None, "json") == emit_report(r8, None, "json")
        assert r1.rows == r8.rows

    def test_se_definition(self):
        cfg = ExperimentConfig(scenarios=("null",), **SMALL)
        report = run_risk_experiment(cfg)
        row = report.rows[0]
        # SE = sd / sqrt(reps) of the per-replication squared errors;
        # reproduce from an identical rerun of the engine
        again = run_risk_experiment(cfg).rows[0]
        assert row["risk_se"] == again["risk_se"]
        assert row["risk_se"] > 0

    def test_max_row_present(self):
        cfg = ExperimentConfig(scenarios=("null", "boundary", "hypercube"), **SMALL)
        report = run_risk_experiment(cfg)
        max_rows = [r for r in report.rows if r["scenario"] == "max"]
        assert len(max_rows) == 1
        others = [r["risk"] for r in report.rows if r["scenario"] not in ("max",)]
        assert max_rows[0]["risk"] == max(others)


class TestTestExperiment:
    def test_rows_and_error_sum(self):
        cfg = ExperimentConfig(a_ladder=(0.2,), **SMALL)
        report = run_test_experiment(cfg)
        null_row, alt_row = report.rows
        assert null_row["A"] == 0.0 and alt_row["A"] == 0.2
        assert alt_row["error_sum"] == pytest.approx(
            alt_row["type1"] + alt_row["type2"]
        )

    def test_infeasible_separation_flagged(self):
        cfg = ExperimentConfig(a_ladder=(50.0,), **SMALL)
        report = run_test_experiment(cfg)
        alt_row = report.rows[1]
        assert alt_row["feasible"] is False
        assert alt_row["error_sum"] is None

    def test_type_two_monotone_in_separation(self):
        cfg = ExperimentConfig(
            n_grid=(128,), replications=500, a_ladder=(0.05, 0.15, 0.25), seed=9
        )
        rows = [r for r in run_test_experiment(cfg).rows if r["A"] > 0 and r["feasible"]]
        t2 = [r["type2"] for r in rows]
        assert all(b <= a + 0.05 for a, b in zip(t2, t2[1:]))


class TestIngest:
    def test_unit_format(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0.25\n0.75\n")
        s = ingest_circular_data(p, "unit")
        assert np.allclose(s.values, [0.25, 0.75])

    def test_hhmm_format(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("12:00\n23:59\n00:00\n")
        s = ingest_circular_data(p, "hhmm")
        assert np.allclose(s.values, [0.5, 1439 / 1440, 0.0])

    def test_degrees_format(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("90\n180\n")
        s = ingest_circular_data(p, "degrees")
        assert np.allclose(s.values, [0.25, 0.5])

    def test_rejects_out_of_range(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1.5\n")
        with pytest.raises(IngestError):
            ingest_circular_data(p, "unit")

    def test_bad_line_fraction_reported(self, tmp_path):
        p = tmp_path / "d.txt"
        lines = ["0.5"] * 50 + ["junk", "25:00"]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError) as exc:
            ingest_circular_data(p, "unit")
        assert "line 51" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            ingest_circular_data(tmp_path / "absent.txt", "unit")


class TestReports:
    def test_json_round_trip(self, tmp_path):
        report = run_risk_experiment(ExperimentConfig(scenarios=("null",), **SMALL))
        path = tmp_path / "r.json"
        emit_report(report, path, "json")
        loaded = load_report(path)
        assert loaded.to_json_dict() == report.to_json_dict()
        assert loaded.report_hash() == report.report_hash()

    def test_csv_structure(self, tmp_path):
        cfg = ExperimentConfig(a_ladder=(0.1, 0.2), **SMALL)
        report = run_test_experiment(cfg)
        text = emit_report(report, None, "csv")
        lines = text.strip().splitlines()
        assert lines[0].startswith("n,A,k,type1")
        # one null row + one row per ladder entry
        assert len(lines) - 1 == 1 + 2

    def test_config_hash_matches_rehash(self):
        cfg = ExperimentConfig(scenarios=("null",), **SMALL)
        report = run_risk_experiment(cfg)
        rehash = ExperimentConfig.from_json_dict(report.metadata["config"]).config_hash()
        assert report.metadata["config_hash"] == rehash

    def test_wall_clock_excluded_from_serialization(self):
        report = run_risk_experiment(ExperimentConfig(scenarios=("null",), **SMALL))
        assert report.wall_clock > 0
        assert "wall_clock" not in json.dumps(report.to_json_dict())


class TestCli:
    def _run(self, *args, cwd=None):
        # the child finds the package where this process imported it from,
        # so the tests need no install
        pkg_root = str(Path(circdeconv.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "circdeconv.cli", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_estimate_and_test_commands(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("\n".join(str(v) for v in np.random.default_rng(0).random(50)))
        res = self._run("estimate", str(data), "--k", "2")
        assert res.returncode == 0
        assert "q_hat" in res.stdout
        res = self._run("test", str(data), "--k", "2", "--alpha", "0.1")
        assert res.returncode == 0
        assert json.loads(res.stdout)["decision"] in ("accept_null", "reject_null")

    @pytest.mark.parametrize(
        "args", [("estimate", "--k", "0"), ("estimate", "--k", "abc"), ("test", "--k", "0")]
    )
    def test_bad_k_runtime_error_exit_code(self, tmp_path, args):
        data = tmp_path / "d.txt"
        data.write_text("0.1\n0.2\n0.7\n")
        res = self._run(args[0], str(data), *args[1:])
        assert res.returncode == 2

    def test_auto_k_uses_model_flags(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("\n".join(str(v) for v in np.random.default_rng(1).random(500)))
        res = self._run(
            "estimate", str(data), "--k", "auto", "--noise", "severe", "--p", "1",
            "--smoothness", "super", "--s", "1",
        )
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        expected = optimal_dim_est(
            SmoothnessClass.supersmooth(1.0), NoiseModel.severe(1.0), out["n"], 10 ** 5
        )
        assert out["n"] == 500 and out["k"] == expected

    def test_rates_command(self):
        res = self._run("rates", "--s", "2.0")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["estimation_elbow"] is True

    def test_usage_error_exit_code(self):
        res = self._run("estimate")  # missing data argument
        assert res.returncode == 1

    def test_runtime_error_exit_code(self, tmp_path):
        res = self._run("estimate", str(tmp_path / "missing.txt"))
        assert res.returncode == 2

    def test_simulate_risk_from_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": [64], "replications": 50, "seed": 1}))
        out = tmp_path / "report.json"
        res = self._run("simulate-risk", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 0
        report = load_report(out)
        assert report.kind == "risk"

    @pytest.mark.parametrize(
        "bad", [{"replicatons": 50}, {"smoothness": "super-smooth"}, {"illposedness": "sever"}]
    )
    def test_bad_config_runtime_error_exit_code(self, tmp_path, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": [64], "seed": 1, **bad}))
        res = self._run("simulate-risk", "--config", str(cfg))
        assert res.returncode == 2
        assert next(iter(bad)) in res.stderr

    def test_lower_bound_command(self):
        res = self._run("lower-bound", "--n", "500")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["hypercube"]["conditions"] == "all pass"
        assert out["two_point"]["conditions"] == "all pass"
