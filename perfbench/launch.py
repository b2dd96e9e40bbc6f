"""Run one circdeconv CLI command in a fresh interpreter and time it.

Usage: python3 launch.py TIMING_JSON TRACE -- <circdeconv CLI arguments>

The command runs through ``circdeconv.cli.main``, so exit codes and error
handling are exactly the CLI's. Every ``cmd_*`` subcommand function is
wrapped to mark where set-up ends and the command's own work begins:

- ``setup_s``: from just before ``import circdeconv.cli`` to entry into
  the subcommand, i.e. import plus argument parsing. The subcommand's
  own config-file read (well under a millisecond) falls in ``wall_s``.
- ``wall_s``: the subcommand call, from its first library call until the
  report or JSON result has been written.
- ``peak_rss_mb``: peak resident set size of this process.

With TRACE = 1 the public functions of each layer are also wrapped where
the calling module looks them up. Each wrapper records a span (layer,
start, end, parent, run id) in memory plus per-layer counts; the spans are
written to a file beside TIMING_JSON after the command has finished, so
report bytes never change. A wrapped name that no longer exists is listed
as absent rather than failing the run.
"""

import json
import os
import resource
import sys
import threading
import time
import warnings


class Tracer:
    """In-memory span recorder. Spans nest through a per-thread stack."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self.distinct = {}
        self.absent = []
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, layer: str) -> dict:
        stack = self._stack()
        span = {
            "id": len(self.spans),
            "layer": layer,
            "parent": stack[-1]["id"] if stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def count_distinct(self, key: str, item) -> None:
        """Count item once under key however often it is seen."""
        self.distinct.setdefault(key, set()).add(item)

    def wrap(self, module, name: str, layer: str, counter=None) -> None:
        """Replace module.name by a span-recording wrapper."""
        fn = getattr(module, name, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{name}")
            return

        def wrapper(*args, **kwargs):
            span = self.open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                counter(self, args, out)
            return out

        setattr(module, name, wrapper)

    def summary(self) -> dict:
        """Inclusive (busy) and self time per layer, plus the counts."""
        child_time = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        layers = {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            agg = layers.setdefault(s["layer"], {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
            agg["busy_s"] += dur
            agg["self_s"] += dur - child_time.get(s["id"], 0.0)
            agg["calls"] += 1
        counts = {**self.counts, **{k: len(v) for k, v in self.distinct.items()}}
        return {"layers": layers, "counts": counts, "absent": self.absent}


def _coeff_bytes(b: int, n: int, k: int) -> int:
    """Bytes the batch coefficient kernel moves, computed from array sizes
    (cache misses ignored): per observation it reads y (8) and writes the
    complex phase product (16), reads and writes it through exp (32) and
    the copy into ``power`` (32), reads ``power`` once per frequency for
    the mean (16 k), and for each further frequency reads ``power`` and
    ``base`` and writes ``power`` (48 (k - 1))."""
    return b * n * (40 + 64 * k)


def _count_sampling(tr, args, out):
    rows = args[0]
    tr.count("sampling.draws", int(out.size))
    tr.count("sampling.tables_built", int(rows.shape[0]))
    for row in rows:
        tr.count_distinct("sampling.tables_distinct", row.tobytes())


def _count_coeffs(tr, args, out):
    b, n = args[0].shape
    k = args[1]
    tr.count("estimation.coeffs.mults", b * n * k)
    tr.count("estimation.coeffs.bytes_computed", _coeff_bytes(b, n, k))


def _count_single(tr, args, out):
    sample = args[0]
    values = getattr(sample, "values", sample)
    tr.count("estimation.single.obs", int(len(values)))


def _count_ingest(tr, args, out):
    tr.count("harness.ingest.good_lines", int(out.n))


def _count_emit(tr, args, out):
    tr.count("harness.emit.bytes", len(args[0].encode()))


def install(tr: Tracer) -> None:
    """Wrap each layer's public entry points where its caller looks them up."""
    from circdeconv import cli, estimation, harness, rates, testing

    tr.wrap(harness, "sample_batch", "sampling", _count_sampling)
    tr.wrap(harness, "estimate_q_batch", "estimation.reduce")
    tr.wrap(estimation, "empirical_coeffs_batch", "estimation.coeffs", _count_coeffs)
    tr.wrap(cli, "estimate_q", "estimation.single", _count_single)
    tr.wrap(testing, "estimate_q", "estimation.single", _count_single)
    tr.wrap(cli, "run_test", "testing.run_test")
    tr.wrap(cli, "ingest_circular_data", "harness.ingest", _count_ingest)
    # emit_report serializes simulation reports; _write_out writes every
    # command's text, so the emitted bytes are counted on its argument.
    tr.wrap(cli, "emit_report", "harness.emit")
    tr.wrap(cli, "_write_out", "harness.emit", _count_emit)
    for mod in (harness, cli):
        tr.wrap(mod, "optimal_dim_est", "setup.k")
        tr.wrap(mod, "calibrate", "setup.calibrate")
    for name in ("build_hypercube", "optimal_two_point_freq", "build_two_point", "convolve"):
        tr.wrap(harness, name, "setup.constructions")

    base_term = getattr(rates, "base_term", None)
    if base_term is None:
        tr.absent.append("circdeconv.rates.base_term")
        return

    def counted_base_term(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = base_term(*args, **kwargs)
        tr.count("rates.base_term.warnings", len(caught))
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return out

    rates.base_term = counted_base_term


def main() -> int:
    timing_path, trace = sys.argv[1], sys.argv[2] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1:]

    t0 = time.perf_counter()
    from circdeconv import cli

    marks = {}
    tracer = Tracer(run_id=os.path.basename(timing_path)) if trace else None

    def timed(fn):
        def cmd(args):
            if tracer is not None:
                install(tracer)
            marks["start"] = time.perf_counter()
            root = tracer.open("cli." + args.command) if tracer is not None else None
            try:
                return fn(args)
            finally:
                if root is not None:
                    tracer.close(root)
                marks["end"] = time.perf_counter()

        return cmd

    for name in [n for n in dir(cli) if n.startswith("cmd_")]:
        setattr(cli, name, timed(getattr(cli, name)))

    code = cli.main(cli_args)
    result = {
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if "end" in marks:
        result["setup_s"] = marks["start"] - t0
        result["wall_s"] = marks["end"] - marks["start"]
    if tracer is not None:
        result["trace"] = tracer.summary()
        with open(timing_path + ".spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
    with open(timing_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
