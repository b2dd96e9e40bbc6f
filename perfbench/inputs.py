"""Seeded input generator for the benchmark workloads.

Every input is a pure function of the workload name, the workload seed and
the size mode (full or smoke). The program sees only the files written
here: a JSON ExperimentConfig for the simulation workloads, and a data
file of unit-format observations for the data-file workload.

Model for every workload: ordinary smoothness s = 1, mild ill-posedness
p = 1, radius R = 1, unit scales and the default noise_max_freq.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

MODEL = {"smoothness": "ordinary", "s": 1.0, "illposedness": "mild", "p": 1.0, "radius": 1.0}
ALPHA = 0.05
THREADS = 2

# Malformed lines written into the data file: one out of range, one not a
# number. Both are per-line failures the tolerant ingest path skips.
BAD_TOKENS = ("1.5", "n/a")
BAD_FRACTION = 0.005  # below the program's 1% abort limit


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate-risk", "simulate-test" or "data-file"
    n_grid: tuple = ()
    scenarios: tuple = ("null",)
    a_ladder: tuple = ()
    replications: int = 0
    lines: int = 0
    smoke: dict = field(default_factory=dict)  # overrides in smoke mode

    @property
    def simulates(self) -> bool:
        return self.command.startswith("simulate-")


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "risk-stress",
            "simulate-risk",
            n_grid=(256, 1024, 4096),
            scenarios=("null", "hypercube", "two_point", "boundary"),
            replications=384,
            smoke={"n_grid": (64, 128), "replications": 40},
        ),
        Workload(
            "test-power",
            "simulate-test",
            n_grid=(256, 1024, 4096),
            a_ladder=(0.5, 1.0, 1.25),
            replications=256,
            smoke={"n_grid": (64, 128), "replications": 40},
        ),
        Workload(
            "null-kernel",
            "simulate-risk",
            n_grid=(16384, 65536),
            replications=256,
            smoke={"n_grid": (1024,), "replications": 40},
        ),
        Workload(
            "data-file",
            "data-file",
            lines=10 ** 6,
            smoke={"lines": 20000},
        ),
    ]
}


def sized(w: Workload, smoke: bool) -> Workload:
    return replace(w, **w.smoke) if smoke else w


def config_dict(w: Workload, seed: int) -> dict:
    """The ExperimentConfig JSON for a simulation workload (known keys only)."""
    return {
        **MODEL,
        "n_grid": list(w.n_grid),
        "replications": w.replications,
        "alpha": ALPHA,
        "k_rule": "kappa_star",
        "seed": seed,
        "threads": THREADS,
        "scenarios": list(w.scenarios),
        "a_ladder": list(w.a_ladder),
    }


def data_values(lines: int, seed: int):
    """Lines of the data file and the good values among them.

    Observations are a wrapped two-bump mixture plus wrapped Laplace noise;
    a fixed share of lines, at seeded positions, is replaced by a token
    from BAD_TOKENS.
    """
    gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    bump = gen.random(lines) < 0.6
    x = np.where(bump, gen.normal(0.25, 0.05, lines), gen.normal(0.7, 0.08, lines))
    y = np.mod(x + gen.laplace(0.0, 0.03, lines), 1.0)
    y[y >= 1.0] = 0.0  # np.mod can round a tiny negative up to 1.0
    text = [repr(v) for v in y.tolist()]
    n_bad = int(round(BAD_FRACTION * lines))
    bad_at = gen.choice(lines, size=n_bad, replace=False)
    good = np.ones(lines, dtype=bool)
    good[bad_at] = False
    for i, pos in enumerate(bad_at.tolist()):
        text[pos] = BAD_TOKENS[i % len(BAD_TOKENS)]
    return text, y[good]


def write_inputs(w: Workload, seed: int, work: Path) -> dict:
    """Write the workload's input files into work; return what the checks
    need to know about them."""
    work.mkdir(parents=True, exist_ok=True)
    if w.simulates:
        path = work / "config.json"
        path.write_text(json.dumps(config_dict(w, seed), indent=2))
        return {"config": str(path)}
    text, good = data_values(w.lines, seed)
    path = work / "data.txt"
    path.write_text("\n".join(text) + "\n")
    return {"data": str(path), "lines": w.lines, "good_values": good}
