import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circdeconv
from circdeconv import cli, estimation, harness, ingest, testing
from circdeconv.estimation import estimate_q_batch
from circdeconv.errors import ConditionViolation, IngestError, InvalidDensityError
from circdeconv.fourier import (
    FourierDensity,
    NoiseModel,
    SmoothnessClass,
    observed_density,
    quadratic_functional,
)
from circdeconv.harness import (
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    run_risk_experiment,
    run_test_experiment,
)
from circdeconv.ingest import DATA_FORMATS, CircularSample, ingest_circular_data
from circdeconv.lowerbounds import build_hypercube, build_two_point
from circdeconv.rates import nu_k_sq, optimal_dim_est, optimal_two_point_freq
from circdeconv.sampling import sample_batch

SMALL = dict(n_grid=(64,), replications=200, seed=7)

# a real field also takes an int, which the config stores as a float
_POSITIVE = st.one_of(st.floats(0.01, 10.0), st.integers(1, 10))
# threads, noise_max_freq, n in n_grid and a fixed k_rule also take an
# integral float, which the config stores as an int
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
    # no entry repeats; 64 and 64.0 are the same n
    n_grid=st.lists(st.one_of(_N, _N.map(float)), min_size=1, unique_by=int),
    replications=st.integers(2, 10 ** 5),
    alpha=st.floats(0.001, 0.999),
    # a fixed k as an int, an integral float or a string
    k_rule=st.one_of(st.just("kappa_star"), _INTEGRAL, st.integers(1, 99).map(str)),
    seed=st.integers(0, 2 ** 32),
    threads=_INTEGRAL,
    noise_max_freq=_INTEGRAL,
    scenarios=st.lists(_SCENARIO, min_size=1, unique=True),
    a_ladder=st.lists(st.floats(0.0, 100.0, exclude_min=True), unique=True),
)


# the stored type of each field, or of each entry of a list field; a fixed
# k_rule is an int
_CANONICAL_TYPE = dict(
    smoothness=str, s=float, illposedness=str, p=float, a_scale=float, eps_scale=float,
    radius=float, n_grid=int, replications=int, alpha=float, k_rule=int, seed=int,
    threads=int, noise_max_freq=int, scenarios=str, a_ladder=float,
)
_LISTS = ("n_grid", "scenarios", "a_ladder")


def _whole_null(gen, size, n):
    """A null batch by the stream rule: its blocks are exactly one draw."""
    return gen.random((size, n))


def _block_heights(size, n):
    """(first row, rows) of each stream block of a batch of size rows."""
    r = max(1, harness._STREAM_ELEMS // n)
    return [(start, min(r, size - start)) for start in range(0, size, r)]


def _fixed_density_rule(g):
    """A batch of the fixed density g by the stream rule: per block, one
    sample_batch call on g's one coefficient row with rows * n draws."""

    def draw(gen, size, n):
        row = g.coeffs[np.newaxis, 1:]
        heights = _block_heights(size, n)
        return np.concatenate([sample_batch(row, h * n, gen).reshape(h, n) for _, h in heights])

    return draw


def _mixture_rule(theta_obs):
    """A hypercube-mixture batch by the stream rule: every sign vector
    first, then per block one sample_batch call on that block's rows."""

    def draw(gen, size, n):
        rows = gen.choice([-1.0, 1.0], size=(size, theta_obs.size)) * theta_obs
        heights = _block_heights(size, n)
        return np.concatenate([sample_batch(rows[s : s + h], n, gen) for s, h in heights])

    return draw


def _stream_q_hats(cfg, cell, n, k, draw=_whole_null):
    """q_hat_k of every replication of a cell, drawn by the stream rule:
    batch b from numpy's SeedSequence(seed, spawn_key=cell + (b,)), its
    observations draw(gen, batch size, n) (by default a null cell's)."""
    starts = range(0, cfg.replications, harness._BATCH_SIZE)
    y = np.concatenate([
        draw(np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(*cell, b))),
             min(harness._BATCH_SIZE, cfg.replications - start), n)
        for b, start in enumerate(starts)
    ])
    return estimate_q_batch(y, cfg.noise_model(), k)


def _per_line_ingest(path, fmt):
    """Ingestion one line at a time through DATA_FORMATS: the reference
    that the block parse must reproduce bit for bit."""
    parse = DATA_FORMATS[fmt].parse
    values, failures, total = [], [], 0
    with open(path, encoding="utf-8") as fh:
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


def _midpoint_text(x: float, digits: int) -> str:
    """The exact midpoint of the double x > 0 and the next larger one, cut
    to the given number of significant digits."""
    f, e = math.frexp(x)
    # the midpoint is (2 M + 1) / 2^k, M = f 2^53; times 10^k an integer
    k = 54 - e
    scaled = str((2 * int(f * 2 ** 53) + 1) * 5 ** k).rjust(k + 1, "0")
    first = len(scaled) - len(scaled.lstrip("0"))
    return f"{scaled[:-k]}.{scaled[-k:first + digits]}"


def _significant_digits(text: str) -> int:
    return len(text.replace(".", "").lstrip("0"))


def _outcome(ingest, path, fmt):
    """The array bytes, or the type and text of the error."""
    try:
        return ingest(path, fmt).values.tobytes()
    except (IngestError, ValueError) as e:
        return type(e).__name__, str(e)


def _converted(path, fmt):
    """The text of each line that reaches the format's converter while the
    file is ingested, whose outcome must be the per-line reference's."""
    form = DATA_FORMATS[fmt]
    per_line = []

    def counted(text):
        per_line.append(text)
        return form.convert(text)

    with mock.patch.dict(ingest.DATA_FORMATS, {fmt: form._replace(convert=counted)}):
        assert _outcome(ingest_circular_data, path, fmt) == _outcome(_per_line_ingest, path, fmt)
    return per_line


_GOOD_LINE = {
    "unit": st.floats(0.0, 1.0, exclude_max=True).map(repr),
    "degrees": st.floats(0.0, 360.0, exclude_max=True).map(repr),
    "hhmm": st.builds("{:02d}:{:02d}".format, st.integers(0, 23), st.integers(0, 59)),
}
# out of range, unparsable or blank in some format; the padding "\x1c" and
# "\x1f" is stripped by str.strip() but refused by float(), and a line of
# "\x1c" alone is blank. float() reads "nan" and " Infinity ", which the
# range check refuses, and refuses "n/a". The rest lie on either side of
# a limit of the bulk pass: no digit before or after the
# '.', two dots, an exponent, non-ASCII digits, 19 and 20 significant
# digits (M below and above 2^62), M = 10 * 2^64 + 3, 24 and 25 bytes,
# a minute of 60 and a valid time after a byte too many
_ODD_LINE = st.sampled_from(
    ["1.5", "-0.25", "-0.0", "360", "359.5", "24:00", "7:5", "12:30", "12:-0", "n/a", "0x1",
     "1_0", "nan", "inf", "-inf", " Infinity ", "\x1c", "1e400", "0.5.5", "", " ", ".5", "5.",
     ".", "1.2.3", "1e-05", "\u0660.\u0665", "0.4611686018427387903", "0.46116860184273879031",
     "18446744073709551616.3", "0" * 19 + ".0625", "0" * 20 + ".0625",
     "-" + "0" * 19 + ".0625", "23:59", "12:60", "x12:30"]
)
_PAD = st.sampled_from(["", " ", "\t", "\x0c", "\x85", "\x1c", "\x1f", "\xa0", "\u3000"])
_END = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _data_files(draw):
    """A format and the text of a file in it: mostly good lines, a few odd
    ones and empty lines at random places, padded and ended in every way.
    About half the lines are bare and end in "\n", the form the bulk pass
    takes."""
    fmt = draw(st.sampled_from(sorted(_GOOD_LINE)))
    texts = draw(st.lists(_GOOD_LINE[fmt], max_size=300))
    for odd in draw(st.lists(_ODD_LINE, max_size=10)):
        texts.insert(draw(st.integers(0, len(texts))), odd)
    frame = st.one_of(st.just(("", "", "\n")), st.tuples(_PAD, _PAD, _END))
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

    def test_integral_floats_stored_as_int(self):
        # one stored spelling, so 64.0 and 64 give one config_hash
        cfg = ExperimentConfig(n_grid=(64.0,), noise_max_freq=64.0, threads=2.0, k_rule=2.0, s=1)
        ints = (cfg.n_grid[0], cfg.noise_max_freq, cfg.threads, cfg.k_rule)
        assert ints == (64, 64, 2, 2) and all(type(v) is int for v in ints)
        assert type(cfg.s) is float
        assert cfg.config_hash() == ExperimentConfig(n_grid=(64,), k_rule=2).config_hash()
        # a float seed above 2**53 would silently stand for another seed
        for name in ("replications", "seed"):
            with pytest.raises(ValueError, match=f"{name} must be an integer, got 4.0"):
                ExperimentConfig(**{name: 4.0})

    @settings(deadline=None, max_examples=50, derandomize=True)
    @given(cfg=CONFIGS, k_as=st.sampled_from([str, float]))
    def test_spelling_changes_nothing(self, cfg, k_as):
        for f in dataclasses.fields(ExperimentConfig):
            value = getattr(cfg, f.name)
            entries = value if isinstance(value, tuple) else (value,)
            assert isinstance(value, tuple) == (f.name in _LISTS)
            if f.name == "k_rule" and value == "kappa_star":
                continue
            assert {type(v) for v in entries} <= {_CANONICAL_TYPE[f.name]}
        integral = {
            name: int(getattr(cfg, name))
            for name in ("s", "p", "a_scale", "eps_scale", "radius", "alpha")
            if getattr(cfg, name).is_integer()
        }
        again = dataclasses.replace(
            cfg,
            **integral,
            threads=float(cfg.threads),
            noise_max_freq=float(cfg.noise_max_freq),
            n_grid=[float(n) for n in cfg.n_grid],
            k_rule=cfg.k_rule if cfg.k_rule == "kappa_star" else k_as(cfg.k_rule),
            scenarios=list(cfg.scenarios),
            a_ladder=[int(a) if a.is_integer() else a for a in cfg.a_ladder],
        )
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()
        assert again.identity_dict() == cfg.identity_dict()
        assert json.dumps(again.to_json_dict()) == json.dumps(cfg.to_json_dict())

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
        # at n = 16384 each 128-row batch is 32 four-row stream blocks, and
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
            assert row["risk"] == float(np.mean(_stream_q_hats(cfg, (0, g), n, k) ** 2))

    @pytest.mark.parametrize(
        "size, n, heights",
        [(128, 3000, [21] * 6 + [2]), (3, 2 ** 16 + 3, [1, 1, 1]), (5, 64, [5])],
        ids=["partial-last-block", "one-row-blocks", "one-block"],
    )
    def test_null_sampler_blocks_are_the_whole_draw(self, size, n, heights):
        # the blocks are views of one buffer, so each is copied before the next
        blocks = [blk.copy() for blk in harness._null_sampler(np.random.default_rng(21), size, n)]
        assert [len(blk) for blk in blocks] == heights
        whole = np.random.default_rng(21).random((size, n))
        assert np.array_equal(np.concatenate(blocks), whole)
        eps = NoiseModel.mild(1.0)
        fed = estimate_q_batch(harness._null_sampler(np.random.default_rng(21), size, n), eps, 5)
        assert np.array_equal(fed, estimate_q_batch(whole, eps, 5))

    @pytest.mark.parametrize(
        "size, n, heights",
        [(128, 3000, [21] * 6 + [2]), (3, 2 ** 16 + 3, [1, 1, 1]), (5, 64, [5])],
        ids=["partial-last-block", "one-row-blocks", "one-block"],
    )
    @pytest.mark.parametrize("kind", ["fixed-density", "mixture"])
    def test_non_null_sampler_blocks_follow_stream_rule(self, kind, size, n, heights):
        if kind == "fixed-density":
            g = FourierDensity.from_tail([0.2, 0.1j, 0.0, 0.05 * np.exp(2j)])
            sampler, rule = harness._fixed_density_sampler(g), _fixed_density_rule(g)
        else:
            theta_obs = np.array([0.1, 0.05, 0.0, 0.02])
            sampler, rule = harness._mixture_sampler(theta_obs), _mixture_rule(theta_obs)
        # the blocks are views of one buffer, so each is copied before the next
        blocks = [blk.copy() for blk in sampler(np.random.default_rng(21), size, n)]
        assert [len(blk) for blk in blocks] == heights
        whole = np.concatenate(blocks)
        assert np.array_equal(whole, rule(np.random.default_rng(21), size, n))
        eps = NoiseModel.mild(1.0)
        fed = estimate_q_batch(sampler(np.random.default_rng(21), size, n), eps, 5)
        assert np.array_equal(fed, estimate_q_batch(whole, eps, 5))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_boundary_rows_follow_stream_rule(self, threads):
        # 300 replications end in a partial batch, and at n = 1024 a full
        # batch is two stream blocks (four kernel blocks); boundary is
        # scenario 1
        cfg = ExperimentConfig(n_grid=(64, 1024), replications=300, seed=13, threads=threads,
                               scenarios=("null", "boundary"))
        cls, eps = cfg.smoothness_class(), cfg.noise_model()
        rows = run_risk_experiment(cfg).rows
        for g, n in enumerate(cfg.n_grid):
            (row,) = [r for r in rows if r["n"] == n and r["scenario"] == "boundary"]
            k = optimal_dim_est(cls, eps, n)
            f = harness._boundary_density(cls, k)
            draw = _fixed_density_rule(observed_density(f, eps))
            q_hat = _stream_q_hats(cfg, (1, g), n, k, draw)
            assert row["risk"] == float(np.mean((q_hat - quadratic_functional(f)) ** 2))

    @pytest.mark.parametrize("block_elems", [2 ** 16, 2 ** 14])
    def test_kernel_block_size_moves_no_report(self, block_elems):
        # the kernel's cache-sized blocks are not the stream's: at n = 4096
        # each 16-row stream block is one kernel block of 2^16 observations
        # and four of 2^14 (two of the default 2^15), but no draw moves
        cfg = ExperimentConfig(n_grid=(4096,), replications=32, seed=3,
                               scenarios=("null", "two_point", "boundary"))
        expected = emit_report(run_risk_experiment(cfg))
        with mock.patch.object(estimation, "_BLOCK_ELEMS", block_elems):
            assert emit_report(run_risk_experiment(cfg)) == expected

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
        assert eps == want
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
            q_hat = _stream_q_hats(cfg, (0, g), n, k)
            assert 0 < row["type1"] < 1
            assert row["type1"] == float(np.mean(q_hat >= nu_k_sq(eps, n, k)))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_type_two_follows_stream_rule(self, threads):
        # as for type I, the threshold nu_k^2 stands in for the calibrated one;
        # the ladder's one step, feasible at both n, is cell 1, and at
        # n = 1024 a full batch is two stream blocks
        cfg = ExperimentConfig(n_grid=(64, 1024), replications=300, seed=13, threads=threads,
                               a_ladder=(0.6,))
        cls, eps = cfg.smoothness_class(), cfg.noise_model()
        with mock.patch.object(
            testing.TestCalibration, "threshold", lambda self, eps, n, k: nu_k_sq(eps, n, k)
        ):
            rows = run_test_experiment(cfg).rows
        for g, n in enumerate(cfg.n_grid):
            (row,) = [r for r in rows if r["n"] == n and r["A"] == 0.6]
            k = optimal_dim_est(cls, eps, n)
            fam = build_hypercube(cls, eps, n, cfg.alpha)
            theta_obs = observed_density(fam.vertex(np.ones(fam.kappa)), eps).coeffs[1:].real
            draw = _mixture_rule(theta_obs * (0.6 / np.sqrt(fam.a_lower_sq)))
            q_hat = _stream_q_hats(cfg, (1, g), n, k, draw)
            assert 0 < row["type2"] < 1
            assert row["type2"] == float(np.mean(q_hat < nu_k_sq(eps, n, k)))

    def test_rho_star_sq_is_the_family_scale(self):
        # at a fixed k the column is still the rho*^2 that scales the
        # alternatives, q(f) = A^2 rho*^2, not max(a_k^2, nu_k^2) at k
        cfg = ExperimentConfig(n_grid=(4096,), replications=2, k_rule=3)
        (row,) = run_test_experiment(cfg).rows
        fam = build_hypercube(cfg.smoothness_class(), cfg.noise_model(), 4096, cfg.alpha)
        assert row["k"] == 3 and row["rho_star_sq"] == fam.rho_star_sq

    def test_type_two_monotone_in_separation(self):
        cfg = ExperimentConfig(
            n_grid=(128,), replications=500, a_ladder=(0.05, 0.15, 0.25), seed=9
        )
        rows = [r for r in run_test_experiment(cfg).rows if r["A"] > 0 and r["feasible"]]
        t2 = [r["type2"] for r in rows]
        assert all(b <= a + 0.05 for a, b in zip(t2, t2[1:]))


class _SerialPool:
    """A stand-in for ThreadPoolExecutor that runs map in the calling
    thread, so the order of the queue is the order of the calls."""

    def __init__(self, max_workers):
        pass

    def map(self, fn, tasks):
        return map(fn, tasks)

    def shutdown(self, cancel_futures=False):
        pass


def _counting(calls, fail_first=False):
    """estimate_q_batch that appends k to calls, raising on the first call
    if fail_first."""
    lock = threading.Lock()

    def counted(y, eps, k):
        with lock:
            calls.append(k)
            first = len(calls) == 1
        if fail_first and first:
            raise RuntimeError("batch failed")
        return estimate_q_batch(y, eps, k)

    return counted


class TestScheduler:
    """One pool per experiment: every batch of every cell, largest n first."""

    # batches of 128, 128 and 44 at two n, in all four scenarios
    RISK = dict(n_grid=(64, 256), replications=300, seed=4,
                scenarios=("null", "hypercube", "two_point", "boundary"))
    # the ladder's middle step is infeasible
    TEST = dict(n_grid=(64, 256), replications=300, seed=4, a_ladder=(0.2, 50.0, 0.4))

    @pytest.mark.parametrize("run, base", [(run_risk_experiment, RISK), (run_test_experiment, TEST)],
                             ids=["risk", "test"])
    def test_reports_identical_at_any_thread_count(self, run, base):
        reports = {emit_report(run(ExperimentConfig(threads=t, **base))) for t in (1, 2, 3)}
        assert len(reports) == 1

    def test_test_config_has_an_infeasible_step(self):
        rows = run_test_experiment(ExperimentConfig(threads=2, **self.TEST)).rows
        assert [r.get("feasible") for r in rows] == [None, True, False, True] * 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_results_keyed_by_cell_in_any_cell_order(self, threads):
        # the key (c, g) names a cell's stream and its result, so the order
        # of the cell list changes neither
        cfg = ExperimentConfig(threads=threads, **self.RISK)
        cls, eps = cfg.smoothness_class(), cfg.noise_model()
        fixed = harness._fixed_density_sampler(observed_density(build_two_point(
            cls, eps, 64, optimal_two_point_freq(cls, eps, 64)).f_plus, eps))
        cells = [harness._Cell((0, 0), harness._null_sampler, 64, 3),
                 harness._Cell((1, 0), fixed, 64, 3),
                 harness._Cell((0, 1), harness._null_sampler, 256, 5)]
        forward = harness._q_hats(cfg, cells, eps)
        backward = harness._q_hats(cfg, cells[::-1], eps)
        assert list(forward) == [cell.key for cell in cells]
        assert backward.keys() == forward.keys()
        for key, q_hat in forward.items():
            assert np.array_equal(backward[key], q_hat)
        assert np.array_equal(forward[0, 1], _stream_q_hats(cfg, (0, 1), 256, 5))

    def test_queue_runs_largest_n_first(self, monkeypatch):
        # kappa* grows with n, so the k of each call tells its n
        calls = []
        monkeypatch.setattr(harness, "estimate_q_batch", _counting(calls))
        monkeypatch.setattr(harness, "ThreadPoolExecutor", _SerialPool)
        run_risk_experiment(ExperimentConfig(threads=2, **self.RISK))
        assert len(calls) == 2 * 4 * 3 and calls[0] > calls[-1]
        assert calls == sorted(calls, reverse=True)
        # in the calling thread the cells run in grid order
        calls.clear()
        run_risk_experiment(ExperimentConfig(threads=1, **self.RISK))
        assert calls == sorted(calls)

    @pytest.mark.parametrize("run", [run_risk_experiment, run_test_experiment], ids=["risk", "test"])
    def test_setup_failure_at_last_n_precedes_every_batch(self, run, monkeypatch):
        # kappa* = 129 at n = 10^6 exceeds noise_max_freq = 64
        calls = []
        monkeypatch.setattr(harness, "estimate_q_batch", _counting(calls))
        cfg = ExperimentConfig(s=0.6, p=0.6, n_grid=(64, 10 ** 6), replications=300,
                               scenarios=("null", "hypercube"), a_ladder=(0.5,), threads=2)
        with pytest.raises(InvalidDensityError, match="129.*64"):
            run(cfg)
        assert calls == []

    def test_failing_batch_cancels_the_queue(self, monkeypatch):
        # 2 scenarios x 3 n x 8 batches; the first batch raises
        calls = []
        monkeypatch.setattr(harness, "estimate_q_batch", _counting(calls, fail_first=True))
        cfg = ExperimentConfig(n_grid=(1024, 2048, 4096), replications=1024, threads=2,
                               scenarios=("null", "boundary"))
        with pytest.raises(RuntimeError, match="batch failed"):
            run_risk_experiment(cfg)
        assert len(calls) <= 5


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

    @pytest.mark.parametrize("bad", ["-0:30", "+1:15", "12:-0", "24:00", "12:60"])
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
        # one block's text, its bytes and per-line arrays, and the values
        # peak near 3 MiB; a list of the file's lines would add about 15 MiB
        assert peak < 8 * 2 ** 20

    def test_joined_values_not_copied_again(self, tmp_path):
        p = tmp_path / "d.txt"
        values = np.random.default_rng(4).random(400_000)
        p.write_text("\n".join(repr(v) for v in values.tolist()) + "\n")
        tracemalloc.start()
        try:
            s = ingest_circular_data(p, "unit")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(s.values, values)
        # read-only, and no other array's memory
        assert not s.values.flags.writeable and s.values.base is None
        # joining the blocks holds the values twice; a copy of the joined
        # array would hold them three times
        assert peak < 2.5 * values.nbytes

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(data=_data_files(), block_chars=st.sampled_from([1, 7, 64, 1 << 16]))
    def test_block_parse_matches_per_line_loop(self, tmp_path_factory, data, block_chars):
        fmt, text = data
        p = tmp_path_factory.mktemp("ingest") / "d.txt"
        p.write_bytes(text.encode())
        # small blocks put block boundaries everywhere in a short file
        with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
            assert _outcome(ingest_circular_data, p, fmt) == _outcome(_per_line_ingest, p, fmt)

    def test_failures_quoted_in_line_order_across_blocks(self, tmp_path):
        p = tmp_path / "d.txt"
        # equal-length lines, so that the block boundaries do not move
        # when a good line is replaced by a bad one
        n = 4 * ingest._BLOCK_CHARS // 6
        p.write_text("0.250\n" * n)
        with open(p) as fh:
            sizes = [block.count("\n") for block in ingest._text_blocks(fh)]
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

    @pytest.mark.parametrize("fmt, period, seed", [("unit", 1.0, 5), ("degrees", 360.0, 6)])
    def test_near_midpoint_decimals_match_per_line_loop(self, tmp_path, fmt, period, seed):
        # the exact midpoint between a double and the next, cut to 16-20
        # significant digits, lies as close to a rounding boundary as a
        # decimal of that length can; with 20 digits M exceeds 2^62
        gen = np.random.default_rng(seed)
        xs = (gen.random(100_000) * period).tolist()
        texts = [_midpoint_text(x, d) for x, d in zip(xs, gen.integers(16, 21, len(xs)).tolist())]
        p = tmp_path / "d.txt"
        p.write_text("\n".join(texts) + "\n")
        # the bulk pass took most lines, and float() at least the 20-digit ones
        twenties = sum(d == 20 for d in map(_significant_digits, texts))
        assert twenties <= len(_converted(p, fmt)) < len(xs) / 2
        # M exceeds 2^62 on every line of this file, so float() reads each one
        twenty = [_midpoint_text(x, 20) for x in xs[:20_000]]
        p.write_text("\n".join(twenty) + "\n")
        assert _converted(p, fmt) == twenty

    @pytest.mark.parametrize("fmt", ["unit", "degrees", "hhmm"])
    def test_left_out_lines_reach_the_converter_stripped(self, tmp_path, fmt):
        # every line the bulk pass leaves out reaches the converter on its
        # stripped text, except a blank one, which is skipped unread
        good = {"unit": "0.5", "degrees": "180.0", "hhmm": "12:00"}[fmt]
        odd = ["nan", "-inf", " Infinity ", "n/a", "\x1c", " ", "\u3000", "\u0660.\u0665"]
        p = tmp_path / "d.txt"
        for lines in ([good] * 1000 + odd, [good] * 10 + odd):
            p.write_text("\n".join(lines) + "\n")
            assert _converted(p, fmt) == ["nan", "-inf", "Infinity", "n/a", "\u0660.\u0665"]

    def test_hhmm_bulk_pass_matches_per_line_loop(self, tmp_path):
        gen = np.random.default_rng(8)
        texts = [f"{h:02d}:{m:02d}" for h, m in zip(gen.integers(0, 24, 100_000).tolist(),
                                                     gen.integers(0, 60, 100_000).tolist())]
        # good lines the bulk pass leaves to _parse_hhmm, and bad ones
        odd = [" 12:30", "12:30\t", "7:05", "07:5", "0007:05", "\x1c23:59", "", "  ",
               "24:00", "12:60", "99:99", "-1:30", "+1:30", "ab:cd", "12-30", "1230",
               "\u0660\u0667:\u0660\u0665", "12:3a", "12:30:00", "1_2:30", "x12:30"]
        for i in gen.choice(len(texts), 900, replace=False).tolist():
            texts[i] = odd[i % len(odd)]
        p = tmp_path / "d.txt"
        p.write_text("\n".join(texts) + "\n")
        outcome = _outcome(ingest_circular_data, p, "hhmm")
        assert isinstance(outcome, bytes)
        assert outcome == _outcome(_per_line_ingest, p, "hhmm")
        # past the 1% limit: the same first 20 failures
        texts = [odd[i // 40 % len(odd)] if i % 40 == 0 else t for i, t in enumerate(texts[:4000])]
        p.write_text("\n".join(texts) + "\n")
        assert _outcome(ingest_circular_data, p, "hhmm")[0] == "IngestError"
        assert _outcome(ingest_circular_data, p, "hhmm") == _outcome(_per_line_ingest, p, "hhmm")

    def test_unknown_format_refused_before_reading(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0.1\n0.2\n0.3\n")
        for path in (p, tmp_path / "absent.txt"):
            with pytest.raises(ValueError, match="unknown format 'radians'") as exc:
                ingest_circular_data(path, "radians")
            assert not isinstance(exc.value, IngestError)


@pytest.mark.parametrize("run", [run_risk_experiment, run_test_experiment], ids=["risk", "test"])
def test_overflowing_nu_k_sq_refused_before_any_batch(run):
    # |eps_1|^-4 = 1e320 overflows, so nu_k^2 and the threshold are inf
    cfg = ExperimentConfig(n_grid=(64,), replications=20, eps_scale=1e-80, a_ladder=(1.0,))
    with mock.patch.object(harness, "estimate_q_batch", side_effect=AssertionError):
        with pytest.raises(ValueError, match="overflows at k = 1"):
            run(cfg)


class TestReports:
    def test_json_refuses_non_finite_values(self):
        report = ExperimentReport("risk", ({"risk": float("inf")},), {})
        with pytest.raises(ValueError, match="not JSON compliant"):
            emit_report(report, "json")

    def test_json_round_trip(self):
        report = run_risk_experiment(ExperimentConfig(scenarios=("null",), **SMALL))
        loaded = json.loads(emit_report(report, "json"))
        assert loaded == report.to_json_dict()
        blob = json.dumps(loaded, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == report.report_hash()

    def test_csv_structure(self, tmp_path):
        # A = 50 breaks the l1 certificate, so that step is infeasible
        cfg = ExperimentConfig(a_ladder=(0.1, 0.2, 50.0), **SMALL)
        report = run_test_experiment(cfg)
        text = emit_report(report, "csv")
        lines = text.strip().splitlines()
        assert lines[0].startswith("n,A,k,type1")
        # one null row + one row per ladder entry
        assert len(lines) - 1 == 1 + 3
        # a field a row lacks or holds as None is an empty cell
        null, feasible, _, infeasible = csv.DictReader(io.StringIO(text))
        assert (null["type2"], null["error_sum"], null["feasible"]) == ("", "", "")
        assert feasible["type2"] != "" and feasible["feasible"] == "True"
        assert (infeasible["A"], infeasible["se"], infeasible["feasible"]) == ("50.0", "", "False")

    def test_config_hash_matches_rehash(self):
        cfg = ExperimentConfig(scenarios=("null",), **SMALL)
        report = run_risk_experiment(cfg)
        rehash = ExperimentConfig.from_json_dict(report.metadata["config"]).config_hash()
        assert report.metadata["config_hash"] == rehash


class TestCli:
    def _run(self, *args, cwd=None, env=None):
        # the child finds the package where this process imported it from,
        # so the tests need no install; env adds to the child's environment
        pkg_root = str(Path(circdeconv.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "circdeconv.cli", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env={**os.environ, **(env or {}), "PYTHONPATH": path},
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

    def test_data_file_read_as_utf8_in_any_locale(self, tmp_path):
        # float() reads the Arabic-Indic "0.5" of line 2; under the C locale,
        # with no coercion to UTF-8, the file used to be decoded as ASCII
        data = tmp_path / "d.txt"
        data.write_bytes("0.25\n\u0660.\u0665\n0.75\n".encode())
        args = ("estimate", str(data), "--k", "2")
        default = self._run(*args)
        assert default.returncode == 0 and '"n": 3' in default.stdout
        c_locale = self._run(
            *args, env={"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        )
        assert (c_locale.returncode, c_locale.stdout, c_locale.stderr) == (0, default.stdout, "")

    @pytest.mark.parametrize(
        "args",
        [("estimate", "--k", "0"), ("estimate", "--k", "abc"), ("test", "--k", "0"),
         ("estimate", "--k", "1_0"), ("estimate", "--k", "+3"), ("test", "--k", " 3")],
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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--radius", "-1", "radius must be positive"),
            ("--a-scale", "0", "scale must be positive"),
            ("--eps-scale", "1.5", "scale must lie in (0, 1]"),
        ],
    )
    def test_out_of_range_model_flag_exit_code(self, flag, value, message):
        res = self._run("rates", flag, value)
        assert res.returncode == 2
        assert message in res.stderr

    @pytest.mark.parametrize("command", ["estimate", "test"])
    def test_model_flags_checked_before_the_file(self, tmp_path, command):
        res = self._run(command, str(tmp_path / "missing.txt"), "--p", "0.3")
        assert res.returncode == 2
        assert "p > 1/2" in res.stderr

    def test_printed_record_keys(self, tmp_path, capsys):
        # every record the commands print, key by key and in order, so a
        # field added to ScanRow, TestResult or OrderDescriptor shows here
        def printed(*argv, code=0):
            assert cli.main(list(argv)) == code
            return json.loads(capsys.readouterr().out)

        rate = ["n_exp", "log_exp"]
        out = printed("rates", "--scan", "--scan-max-exp", "11")
        assert list(out) == [
            "regime", "estimation_rate", "estimation_elbow", "elbow_condition",
            "testing_radius", "scan", "fitted_radius_slope", "fit_r_squared",
        ]
        assert list(out["regime"]) == ["smoothness", "s", "illposedness", "p"]
        assert list(out["estimation_rate"]) == rate and list(out["testing_radius"]) == rate
        assert list(out["scan"][0]) == ["n", "kappa_star", "rho_star_sq", "r_star4", "base_term"]

        hypercube = [
            "kappa_star", "zeta", "eta", "rho_star_sq", "separation_sq", "similarity",
            "vertex_plus", "conditions",
        ]
        two_point = ["m", "xi", "C", "separation_sq", "f_plus", "f_minus", "conditions"]
        out = printed("lower-bound", "--n", "500")
        assert list(out) == ["n", "alpha", "hypercube", "two_point"]
        assert list(out["hypercube"]) == hypercube and list(out["two_point"]) == two_point
        out = printed("lower-bound", "--n", "1000", "--a-scale", "2", code=3)
        assert list(out["hypercube"]) == hypercube
        assert list(out["two_point"]) == ["conditions", "detail"]
        # the hypercube passed at every CLI model tried, so its FAIL form is forced
        with mock.patch.object(cli, "build_hypercube", side_effect=ConditionViolation("(x)", "")):
            out = printed("lower-bound", "--n", "500", code=3)
        assert list(out["hypercube"]) == ["conditions", "detail"]

        data = tmp_path / "d.txt"
        data.write_text("\n".join(str(v) for v in np.random.default_rng(0).random(50)))
        assert list(printed("test", str(data), "--k", "2")) == [
            "n", "k", "statistic", "threshold", "nu_k_sq", "decision", "alpha", "C_alpha",
        ]

    @pytest.mark.parametrize(
        "args, message",
        [
            (("test", "DATA", "--noise", "severe", "--p", "2", "--k", "30"), "at j = 19 (k = 30)"),
            (("estimate", "DATA", "--eps-scale", "1e-200", "--k", "1"), "at j = 1 (k = 1)"),
            (("rates", "--eps-scale", "1e-300", "--scan"), "overflows at k = 1"),
            (("simulate-risk", "--config", "CONFIG"), "overflows at k = 1"),
            (("lower-bound", "--eps-scale", "1e-300", "--n", "1000"), "overflows at k = 1"),
        ],
        ids=["test", "estimate", "rates-scan", "simulate-risk", "lower-bound"],
    )
    def test_non_finite_result_exit_code(self, tmp_path, args, message):
        # each of these printed NaN or Infinity, which is not JSON, and exited
        # 0, except lower-bound, which warned and named neither S_k nor k
        data, cfg = tmp_path / "d.txt", tmp_path / "cfg.json"
        data.write_text("\n".join(str(v) for v in np.random.default_rng(0).random(500)))
        cfg.write_text(json.dumps({"n_grid": [64], "replications": 20, "eps_scale": 1e-80}))
        paths = {"DATA": str(data), "CONFIG": str(cfg)}
        res = self._run(*(paths.get(a, a) for a in args))
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert message in res.stderr

    def test_non_finite_output_refused(self, tmp_path, capsys):
        # the backstop: no command prints a number JSON cannot hold
        data = tmp_path / "d.txt"
        data.write_text("0.1\n0.2\n0.7\n")
        with mock.patch.object(cli, "estimate_q", return_value=float("nan")):
            assert cli.main(["estimate", str(data), "--k", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: Out of range float values")

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
            {"n_grid": [64, 64]},
            {"n_grid": [64, 64.0]},
            {"scenarios": ["null", "null"]},
            {"a_ladder": [1.0, 1.0]},
            {"scenarios": ["bogus"]},
            {"s": "1.0"},
            # integers beyond float range
            {"s": 10 ** 400},
            {"p": 10 ** 400},
            {"a_scale": 10 ** 400},
            {"eps_scale": 10 ** 400},
            {"radius": 10 ** 400},
            {"alpha": 10 ** 400},
            {"a_ladder": [10 ** 400]},
            # an n whose (batch, n) buffers numpy cannot describe
            {"n_grid": [10 ** 20]},
            {"n_grid": [2 ** 60]},
            {"n_grid": [10 ** 20], "k_rule": 3},
            {"n_grid": [2 ** 60], "k_rule": 3},
            # a fixed k as a string takes ASCII digits only
            {"k_rule": " 3"},
            {"k_rule": "+3"},
            {"k_rule": "1_0"},
            {"k_rule": "\uff13"},
        ],
    )
    def test_bad_config_runtime_error_exit_code(self, tmp_path, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": [64], "seed": 1, **bad}))
        res = self._run("simulate-risk", "--config", str(cfg))
        assert res.returncode == 2
        assert next(iter(bad)) in res.stderr

    def test_repeated_config_key_exit_code(self, tmp_path):
        # json.load keeps the last value of a repeated key: this ran with seed 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_grid": [64], "replications": 4, "seed": 1, "seed": 2}')
        res = self._run("simulate-risk", "--config", str(cfg))
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == "error: config key 'seed' is repeated\n"

    @pytest.mark.parametrize("flags", [(), ("--seed", "3")], ids=["no-flag", "seed-flag"])
    @pytest.mark.parametrize(
        "text, kind", [("5", "int"), ("null", "NoneType"), ("[1, 2]", "list"), ('"abc"', "str")]
    )
    def test_non_object_config_exit_code(self, tmp_path, text, kind, flags):
        # refused as a whole before --seed is set on it, not as a mapping
        # of unknown keys
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        res = self._run("simulate-risk", "--config", str(cfg), *flags)
        assert res.returncode == 2
        assert res.stderr == f"error: a config must be a JSON object, got {kind}\n"

    @pytest.mark.parametrize(
        "args",
        [("lower-bound", "--n", str(10 ** 400)),
         ("simulate-risk", "--config"), ("simulate-test", "--config")],
        ids=["lower-bound", "simulate-risk", "simulate-test"],
    )
    def test_n_beyond_float_range_exit_code(self, tmp_path, args):
        # kappa* compares a_k^4 with S_k / n^2, and n^2 leaves float range near n = 2^512
        expected = "error: n is too large: n^2 must lie within float range\n"
        if args[-1] == "--config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"n_grid": [10 ** 400], "replications": 2}))
            args += (str(cfg),)
            # a config refuses such an n before kappa* is sought
            expected = f"error: every n in n_grid must be <= {harness._MAX_N}, got {10 ** 400}\n"
        res = self._run(*args)
        assert res.returncode == 2
        assert res.stderr == expected

    @pytest.mark.parametrize(
        "args, field",
        [(("lower-bound", "--a-scale", "1e-300"), "scale"),
         (("lower-bound", "--a-scale", "1e300"), "scale"),
         (("lower-bound", "--radius", "1e300"), "radius"),
         (("test", "--radius", "1e200"), "radius"),
         (("simulate-test", {"radius": 1e300}), "radius"),
         (("simulate-risk", {"radius": 1e200, "scenarios": ["hypercube"]}), "radius"),
         (("simulate-risk", {"a_scale": 1e-200, "scenarios": ["hypercube"]}), "scale"),
         (("lower-bound", "--radius", "1e-100"), "radius"),
         (("lower-bound", "--radius", "1e-300"), "radius"),
         (("lower-bound", "--a-scale", "1e-100"), "scale")],
        ids=["lb-scale-small", "lb-scale-large", "lb-radius", "test-radius",
             "simtest-radius", "simrisk-radius", "simrisk-scale",
             "lb-radius-small", "lb-radius-tiny", "lb-scale-subnormal"],
    )
    def test_model_scale_beyond_float_range_exit_code(self, tmp_path, args, field):
        # Python's float ** raises past float range where R^2, R^4 or
        # scale^2 is formed, and a fourth power below the normal floats makes
        # R^4 or a_k^4 subnormal or 0, a vacuous hypercube or two-point bound
        command, rest = args[0], args[1:]
        if command == "test":
            data = tmp_path / "d.txt"
            data.write_text("0.1\n0.2\n0.7\n")
            rest = (str(data), *rest)
        elif command.startswith("simulate-"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"n_grid": [64], "replications": 2, **rest[0]}))
            rest = ("--config", str(cfg))
        res = self._run(command, *rest)
        assert res.returncode == 2 and res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {field} ")

    @pytest.mark.parametrize("command", ["rates", "simulate-risk", "test"])
    def test_noise_density_too_large_to_allocate_exit_code(self, tmp_path, command):
        # 10^15 frequencies need 7.1 PiB, beyond any 47-bit address space.
        # Only a reader of the noise's sup norm sums that many moduli, and
        # numpy refuses the allocation at once; a command that reads the
        # modulus alone gives the rows it gives at 64
        def run(max_freq):
            if command == "rates":
                return self._run("rates", "--noise-max-freq", str(max_freq))
            if command == "test":
                data = tmp_path / "d.txt"
                data.write_text("0.1\n0.2\n0.7\n")
                return self._run("test", str(data), "--noise-max-freq", str(max_freq))
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(
                {"n_grid": [64], "scenarios": ["null"], "noise_max_freq": max_freq}
            ))
            return self._run("simulate-risk", "--config", str(cfg))

        res = run(10 ** 15)
        if command == "test":
            assert res.returncode == 2 and res.stdout == ""
            assert res.stderr.startswith("error: Unable to allocate")
            assert res.stderr.count("\n") == 1
            return
        base = run(64)
        assert res.returncode == 0 and base.returncode == 0, res.stderr
        if command == "rates":
            assert res.stdout == base.stdout
        else:
            assert json.loads(res.stdout)["rows"] == json.loads(base.stdout)["rows"]

    def test_simulate_test_refuses_unknown_scenario(self, tmp_path):
        # the test experiment never samples the scenarios, yet a config that
        # names an unknown one is refused before any work
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": [64], "seed": 1, "scenarios": ["bogus"]}))
        res = self._run("simulate-test", "--config", str(cfg))
        assert res.returncode == 2
        assert "scenarios" in res.stderr and res.stdout == ""

    def test_config_spelling_keeps_report_bytes(self, tmp_path):
        def report(name, config):
            cfg, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out"
            cfg.write_text(json.dumps({"n_grid": [64], "replications": 20, **config}))
            res = self._run("simulate-risk", "--config", str(cfg), "--out", str(out))
            assert res.returncode == 0, res.stderr
            return out.read_bytes()

        respelled = report("respelled", {"noise_max_freq": 64.0, "k_rule": "3", "s": 1})
        assert respelled == report("canonical", {"noise_max_freq": 64, "k_rule": 3, "s": 1.0})

    def test_seed_and_threads_flags_override_the_config(self, tmp_path):
        def report(config, *flags):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"n_grid": [64], "replications": 300, **config}))
            res = self._run("simulate-risk", "--config", str(cfg), *flags)
            assert res.returncode == 0, res.stderr
            return res.stdout

        assert report({"seed": 1}, "--threads", "2") == report({"seed": 1, "threads": 1})
        assert report({"seed": 1}, "--seed", "5") == report({"seed": 5})
        assert report({"seed": 1}) != report({"seed": 5})

    @pytest.mark.parametrize("max_exp", ["10", "3", "-1", "x"])
    def test_scan_max_exp_below_eleven_is_usage_error(self, max_exp):
        # the scan runs n = 2^8 .. 2^E, and its slope fit needs 4 points
        res = self._run("rates", "--scan", "--scan-max-exp", max_exp)
        assert res.returncode == 1
        assert "--scan-max-exp: must be an integer >= 11" in res.stderr

    @pytest.mark.parametrize("max_exp", ["\u0661\u0661", "512", "600"])
    def test_scan_max_exp_above_511_or_non_ascii_is_usage_error(self, max_exp):
        # "\u0661\u0661" is an Arabic-Indic 11, which str.isdigit accepts; no
        # n past 2^511 has a square within float range, as kappa* needs
        res = self._run("rates", "--smoothness", "super", "--scan", "--scan-max-exp", max_exp)
        assert res.returncode == 1 and res.stdout == ""
        assert "--scan-max-exp: must be an integer >= 11 and <= 511" in res.stderr

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
