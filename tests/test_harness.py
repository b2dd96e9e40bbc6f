import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circdeconv
from circdeconv import harness, testing
from circdeconv.estimation import estimate_q_batch
from circdeconv.errors import IngestError, InvalidDensityError
from circdeconv.fourier import NoiseModel, SmoothnessClass, quadratic_functional
from circdeconv.harness import (
    DATA_FORMATS,
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    ingest_circular_data,
    run_risk_experiment,
    run_test_experiment,
)
from circdeconv.lowerbounds import build_two_point
from circdeconv.rates import nu_k_sq, optimal_dim_est, optimal_two_point_freq
from circdeconv.sampling import CircularSample

SMALL = dict(n_grid=(64,), replications=200, seed=7)

_POSITIVE = st.floats(0.01, 10.0)
# threads, noise_max_freq, n in n_grid and a fixed k_rule also take an
# integral float, which the config keeps as given
_INTEGRAL = st.one_of(st.integers(1, 512), st.integers(1, 512).map(float))
_N = st.integers(2, 10 ** 6)
_SCENARIO = st.sampled_from(["null", "hypercube", "two_point", "boundary"])
CONFIGS = st.builds(
    ExperimentConfig,
    smoothness=st.sampled_from(["ordinary", "super"]),
    s=_POSITIVE,
    illposedness=st.sampled_from(["mild", "severe"]),
    p=_POSITIVE,
    a_scale=_POSITIVE,
    eps_scale=st.floats(0.01, 1.0),
    radius=_POSITIVE,
    n_grid=st.lists(st.one_of(_N, _N.map(float)), min_size=1),
    replications=st.integers(2, 10 ** 5),
    alpha=st.floats(0.001, 0.999),
    k_rule=st.one_of(st.just("kappa_star"), _INTEGRAL, st.integers(1, 99).map(str)),
    seed=st.integers(0, 2 ** 32),
    threads=_INTEGRAL,
    noise_max_freq=_INTEGRAL,
    scenarios=st.lists(_SCENARIO, min_size=1),
    a_ladder=st.lists(st.floats(0.0, 100.0, exclude_min=True)),
)


def _null_q_hats(cfg, cell, n, k):
    """q_hat_k of every replication of a null cell, drawn by the stream
    rule: batch b from numpy's SeedSequence(seed, spawn_key=cell + (b,))."""
    starts = range(0, cfg.replications, harness._BATCH_SIZE)
    y = np.concatenate([
        np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(*cell, b)))
        .random((min(harness._BATCH_SIZE, cfg.replications - start), n))
        for b, start in enumerate(starts)
    ])
    return estimate_q_batch(y, cfg.noise_model(), k)


def _per_line_ingest(path, fmt):
    """Ingestion one line at a time through DATA_FORMATS: the reference
    that the block parse must reproduce bit for bit."""
    parse = DATA_FORMATS[fmt]
    values, failures, total = [], [], 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            total += 1
            try:
                values.append(parse(text))
            except ValueError as e:
                if len(failures) < 20:
                    failures.append((lineno, str(e)))
    if not total:
        raise IngestError(f"{path} contains no data")
    bad = total - len(values)
    if bad > 0.01 * total:
        detail = "; ".join(f"line {ln}: {msg}" for ln, msg in failures)
        raise IngestError(f"{bad}/{total} lines failed to parse: {detail}")
    return CircularSample(np.array(values))


def _outcome(ingest, path, fmt):
    """The array bytes, or the type and text of the error."""
    try:
        return ingest(path, fmt).values.tobytes()
    except (IngestError, ValueError) as e:
        return type(e).__name__, str(e)


_GOOD_LINE = {
    "unit": st.floats(0.0, 1.0, exclude_max=True).map(repr),
    "degrees": st.floats(0.0, 360.0, exclude_max=True).map(repr),
    "hhmm": st.builds("{:02d}:{:02d}".format, st.integers(0, 23), st.integers(0, 59)),
}
# out of range, unparsable or blank in some format; the padding "\x1c" and
# "\x1f" is stripped by str.strip() but refused by float()
_ODD_LINE = st.sampled_from(
    ["1.5", "-0.25", "-0.0", "360", "359.5", "24:00", "7:5", "12:30", "12:-0", "n/a", "0x1",
     "1_0", "nan", "inf", "-inf", "1e400", "0.5.5", "", " "]
)
_PAD = st.sampled_from(["", " ", "\t", "\x0c", "\x85", "\x1c", "\x1f", "\xa0", "\u3000"])
_END = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _data_files(draw):
    """A format and the text of a file in it: mostly good lines, a few odd
    ones and empty lines at random places, padded and ended in every way."""
    fmt = draw(st.sampled_from(sorted(_GOOD_LINE)))
    texts = draw(st.lists(_GOOD_LINE[fmt], max_size=300))
    for odd in draw(st.lists(_ODD_LINE, max_size=5)):
        texts.insert(draw(st.integers(0, len(texts))), odd)
    frame = st.tuples(_PAD, _PAD, _END)
    frames = draw(st.lists(frame, min_size=len(texts), max_size=len(texts)))
    lines = [f"{a}{t}{b}{e}" for t, (a, b, e) in zip(texts, frames)]
    for end in draw(st.lists(_END, max_size=30)):
        lines.insert(draw(st.integers(0, len(lines))), end)
    return fmt, "".join(lines)


class TestExperimentConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(n_grid=(64, 128), replications=50, a_ladder=(0.1,), seed=3)
        again = ExperimentConfig.from_json_dict(
            json.loads(json.dumps(cfg.to_json_dict()))
        )
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    @settings(deadline=None, max_examples=50, derandomize=True)
    @given(cfg=CONFIGS)
    def test_json_round_trip_keeps_hash(self, cfg):
        again = ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
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

    def test_integral_floats_accepted_as_given(self):
        # kept as given, so the config_hash of a config with 64.0 is unchanged
        cfg = ExperimentConfig(n_grid=(64.0,), noise_max_freq=64.0, threads=2.0, k_rule=2.0)
        assert cfg.n_grid == (64,)
        assert (cfg.noise_max_freq, cfg.threads, cfg.k_rule) == (64.0, 2.0, 2.0)
        assert isinstance(cfg.noise_max_freq, float) and isinstance(cfg.k_rule, float)

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
        assert emit_report(r1, "json") == emit_report(r8, "json")
        assert r1.rows == r8.rows

    def test_deterministic_across_thread_counts_multi_block(self):
        # at n = 16384 each 128-row batch is 32 four-row kernel blocks, and
        # 300 replications end in a partial batch
        base = dict(
            n_grid=(16384,), replications=300, scenarios=("null", "boundary"), seed=5
        )
        r1 = run_risk_experiment(ExperimentConfig(threads=1, **base))
        r2 = run_risk_experiment(ExperimentConfig(threads=2, **base))
        assert emit_report(r1, "json") == emit_report(r2, "json")

    @pytest.mark.parametrize("threads", [1, 2])
    def test_null_rows_follow_stream_rule(self, threads):
        # 300 replications end in a partial batch
        cfg = ExperimentConfig(n_grid=(32, 64), replications=300, seed=13, threads=threads)
        rows = run_risk_experiment(cfg).rows
        for g, n in enumerate(cfg.n_grid):
            (row,) = [r for r in rows if r["n"] == n and r["scenario"] == "null"]
            k = optimal_dim_est(cfg.smoothness_class(), cfg.noise_model(), n)
            assert row["k"] == k
            assert row["risk"] == float(np.mean(_null_q_hats(cfg, (0, g), n, k) ** 2))

    def test_two_point_scenario(self):
        base = dict(n_grid=(64, 256), replications=200, scenarios=("two_point",), seed=3)
        r1 = run_risk_experiment(ExperimentConfig(threads=1, **base))
        r2 = run_risk_experiment(ExperimentConfig(threads=2, **base))
        assert r1.report_hash() == r2.report_hash()
        cfg = ExperimentConfig(**base)
        cls, eps = cfg.smoothness_class(), cfg.noise_model()
        for n in (64, 256):
            (row,) = [r for r in r1.rows if r["n"] == n and r["scenario"] == "two_point"]
            pair = build_two_point(cls, eps, n, optimal_two_point_freq(cls, eps, n))
            assert row["q_true"] == quadratic_functional(pair.f_plus)

    def test_super_severe_config(self):
        cfg = ExperimentConfig(
            smoothness="super", s=1.5, illposedness="severe", p=0.5, a_scale=0.5,
            eps_scale=0.9, radius=2.0, noise_max_freq=16, n_grid=(64,), replications=20,
            scenarios=("null", "boundary"), seed=2,
        )
        assert cfg.smoothness_class() == SmoothnessClass.supersmooth(1.5, radius=2.0, scale=0.5)
        eps, want = cfg.noise_model(), NoiseModel.severe(0.5, scale=0.9, max_freq=16)
        assert (eps.kind, eps.p, eps.scale) == ("severe", 0.5, 0.9)
        assert np.array_equal(eps.density.coeffs, want.density.coeffs)
        rows = run_risk_experiment(cfg).rows
        assert [r["scenario"] for r in rows] == ["null", "boundary", "max"]
        assert all(np.isfinite(r["risk"]) for r in rows)

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

    def test_refuses_density_beyond_noise_max_freq(self):
        # kappa* = 129 here but the noise density stops at noise_max_freq =
        # 64; the mixture would draw frequencies the noise cannot produce
        cfg = ExperimentConfig(
            s=0.6, p=0.6, n_grid=(10 ** 6,), replications=2, a_ladder=(0.5,)
        )
        with pytest.raises(InvalidDensityError, match="129.*64"):
            run_test_experiment(cfg)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_type_one_follows_stream_rule(self, threads):
        # the calibrated threshold puts type I at 0 whatever the draws, so
        # the threshold nu_k^2 stands in for it
        cfg = ExperimentConfig(n_grid=(32, 64), replications=300, seed=13, threads=threads)
        eps = cfg.noise_model()
        with mock.patch.object(
            testing.TestCalibration, "threshold", lambda self, eps, n, k: nu_k_sq(eps, n, k)
        ):
            rows = run_test_experiment(cfg).rows
        for g, (n, row) in enumerate(zip(cfg.n_grid, rows)):
            k = optimal_dim_est(cfg.smoothness_class(), eps, n)
            q_hat = _null_q_hats(cfg, (0, g), n, k)
            assert 0 < row["type1"] < 1
            assert row["type1"] == float(np.mean(q_hat >= nu_k_sq(eps, n, k)))

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

    @pytest.mark.parametrize("bad", ["-0:30", "+1:15", "12:-0"])
    def test_hhmm_signed_field_is_bad_line(self, tmp_path, bad):
        p = tmp_path / "d.txt"
        p.write_text("\n".join(["07:05", "23:59"] * 50 + [bad]) + "\n")
        # one bad line in 101 is within the 1% limit: it is dropped
        s = ingest_circular_data(p, "hhmm")
        assert s.values.size == 100
        assert np.array_equal(s.values[:2], [425 / 1440, 1439 / 1440])
        p.write_text(f"07:05\n{bad}\n")
        with pytest.raises(IngestError, match="line 2"):
            ingest_circular_data(p, "hhmm")

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

    def test_undecodable_file(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_bytes(b"\xff\xfe0.5\n0.25\n")
        with pytest.raises(IngestError, match="cannot read .*d.txt: 'utf-8' codec"):
            ingest_circular_data(p, "unit")

    def test_blank_lines_skipped_but_numbered(self, tmp_path):
        p = tmp_path / "d.txt"
        lines = ["0.5"] * 98 + [""] * 200
        lines[150:150] = ["junk"]
        lines.append("1.5")
        p.write_text("\n".join(lines) + "\n")
        # 2 bad lines in 100 non-blank ones exceed 1%; counting the 200
        # blank lines would let the file pass
        with pytest.raises(IngestError, match="2/100 lines") as exc:
            ingest_circular_data(p, "unit")
        assert "line 151: " in str(exc.value) and "line 300: " in str(exc.value)
        p.write_text("\n  \n\t\n")
        with pytest.raises(IngestError, match="contains no data"):
            ingest_circular_data(p, "unit")

    def test_allocation_bounded(self, tmp_path):
        p = tmp_path / "d.txt"
        values = np.random.default_rng(3).random(100_000)
        p.write_text("\n".join(repr(v) for v in values.tolist()) + "\n")
        tracemalloc.start()
        try:
            s = ingest_circular_data(p, "unit")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(s.values, values)
        # the values as Python floats and as arrays peak near 4.6 MiB; a
        # list of the file's lines would add about 15 MiB
        assert peak < 8 * 2 ** 20

    @settings(deadline=None, max_examples=50, derandomize=True)
    @given(data=_data_files(), block_chars=st.sampled_from([1, 7, 64, 1 << 16]))
    def test_block_parse_matches_per_line_loop(self, tmp_path_factory, data, block_chars):
        fmt, text = data
        p = tmp_path_factory.mktemp("ingest") / "d.txt"
        p.write_bytes(text.encode())
        # small blocks put block boundaries everywhere in a short file
        with mock.patch.object(harness, "_BLOCK_CHARS", block_chars):
            assert _outcome(ingest_circular_data, p, fmt) == _outcome(_per_line_ingest, p, fmt)

    def test_failures_quoted_in_line_order_across_blocks(self, tmp_path):
        p = tmp_path / "d.txt"
        # equal-length lines, so that the block boundaries do not move
        # when a good line is replaced by a bad one
        n = 4 * harness._BLOCK_CHARS // 6
        p.write_text("0.250\n" * n)
        with open(p) as fh:
            sizes = list(iter(lambda: len(fh.readlines(harness._BLOCK_CHARS)), 0))
        assert len(sizes) >= 4
        b1, b2 = sizes[0], sizes[0] + sizes[1]
        # the last line of block 0, the first and last of block 1 and the
        # first of block 2, a run inside block 1, then every 20th line
        at = sorted(
            {b1 - 1, b1, b2 - 1, b2, *range(b1 + 5, b1 + 25, 2), *range(b2 + 20, n, 20)}
        )
        lines = ["0.250\n"] * n
        kinds = ["  1.5\n", "  n/a\n"]
        for j, i in enumerate(at):
            lines[i] = kinds[j % 2]
        p.write_text("".join(lines))
        with pytest.raises(IngestError) as exc:
            ingest_circular_data(p, "unit")
        messages = ["value 1.5 outside [0, 1)", "could not convert string to float: 'n/a'"]
        quoted = "; ".join(f"line {i + 1}: {messages[j % 2]}" for j, i in enumerate(at[:20]))
        assert str(exc.value) == f"{len(at)}/{n} lines failed to parse: {quoted}"
        assert str(exc.value) == _outcome(_per_line_ingest, p, "unit")[1]

    def test_unknown_format_refused_before_reading(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0.1\n0.2\n0.3\n")
        for path in (p, tmp_path / "absent.txt"):
            with pytest.raises(ValueError, match="unknown format 'radians'") as exc:
                ingest_circular_data(path, "radians")
            assert not isinstance(exc.value, IngestError)


class TestReports:
    def test_json_round_trip(self):
        report = run_risk_experiment(ExperimentConfig(scenarios=("null",), **SMALL))
        loaded = json.loads(emit_report(report, "json"))
        assert loaded == report.to_json_dict()
        blob = json.dumps(loaded, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == report.report_hash()

    def test_csv_structure(self, tmp_path):
        cfg = ExperimentConfig(a_ladder=(0.1, 0.2), **SMALL)
        report = run_test_experiment(cfg)
        text = emit_report(report, "csv")
        lines = text.strip().splitlines()
        assert lines[0].startswith("n,A,k,type1")
        # one null row + one row per ladder entry
        assert len(lines) - 1 == 1 + 2

    def test_config_hash_matches_rehash(self):
        cfg = ExperimentConfig(scenarios=("null",), **SMALL)
        report = run_risk_experiment(cfg)
        rehash = ExperimentConfig.from_json_dict(report.metadata["config"]).config_hash()
        assert report.metadata["config_hash"] == rehash


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
            SmoothnessClass.supersmooth(1.0), NoiseModel.severe(1.0), out["n"]
        )
        assert out["n"] == 500 and out["k"] == expected

    def test_rates_command(self):
        res = self._run("rates", "--s", "2.0")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["estimation_elbow"] is True
        res = self._run("rates", "--smoothness", "super", "--noise", "severe")
        assert res.returncode == 2
        assert "no tabulated" in res.stderr

    @pytest.mark.parametrize(
        "flag, value, field", [("--s", "nan", "s"), ("--a-scale", "inf", "scale")]
    )
    def test_non_finite_model_flag_exit_code(self, flag, value, field):
        res = self._run("rates", flag, value)
        assert res.returncode == 2
        assert f"{field} must be finite" in res.stderr

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
        assert json.loads(out.read_text())["kind"] == "risk"

    @pytest.mark.parametrize(
        "bad",
        [
            {"replicatons": 50},
            {"smoothness": "super-smooth"},
            {"illposedness": "sever"},
            {"replications": 10.5},
            {"n_grid": 64},
            {"threads": "2"},
            {"n_grid": [64.9]},
            {"k_rule": 2.5},
            {"scenarios": []},
            {"n_grid": []},
            {"replications": 1},
            {"threads": 0},
            {"threads": -1},
            {"noise_max_freq": 0},
            {"noise_max_freq": -3},
            {"seed": -1},
            {"a_ladder": [float("nan")]},
            {"a_ladder": [float("inf")]},
            {"a_ladder": [0.0]},
            {"a_ladder": [-1.0]},
            {"a_ladder": [True]},
            {"a_ladder": ["x"]},
        ],
    )
    def test_bad_config_runtime_error_exit_code(self, tmp_path, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": [64], "seed": 1, **bad}))
        res = self._run("simulate-risk", "--config", str(cfg))
        assert res.returncode == 2
        assert next(iter(bad)) in res.stderr

    @pytest.mark.parametrize("max_exp", ["10", "3", "-1", "x"])
    def test_scan_max_exp_below_eleven_is_usage_error(self, max_exp):
        # the scan runs n = 2^8 .. 2^E, and its slope fit needs 4 points
        res = self._run("rates", "--scan", "--scan-max-exp", max_exp)
        assert res.returncode == 1
        assert "--scan-max-exp: must be an integer >= 11" in res.stderr

    @pytest.mark.parametrize("fmt, period", [("unit", 1.0), ("degrees", 360.0)])
    def test_ingest_prints_each_value_to_17_digits(self, tmp_path, fmt, period):
        values = (np.random.default_rng(5).random(200) * period).tolist()
        data = tmp_path / "d.txt"
        data.write_text("".join(f"{v!r}\n" for v in values))
        res = self._run("ingest", str(data), "--format", fmt)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "\n".join(f"{v / period:.17g}" for v in values) + "\n"

    def test_lower_bound_command(self):
        res = self._run("lower-bound", "--n", "500")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["hypercube"]["conditions"] == "all pass"
        assert out["two_point"]["conditions"] == "all pass"
