#!/usr/bin/env python3
"""Benchmark of the unipark package, end to end and layer by layer.

Run from the repository root, with the package sources under ``src/``:

    python3 perfbench/run.py --workload trajectory --seed 0 --seconds 10 --trace 0

Workloads: trajectory, figures, batch_grid, certify (see README.md beside
this file).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics from a traced round plus measurements at fixed
sizes, and writes the spans to ``.perfbench_out/``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Failed checks are listed on standard error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import layers
import probes
from common import Meter
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LAYERS = ("kernels", "spaces", "controllers", "lyapunov", "linearization", "simulate", "verify", "cli", "svg")
SETUP_REPEATS = 9


def import_program() -> SimpleNamespace:
    """Import unipark afresh from ``src/`` and return its layer modules."""
    for name in [m for m in sys.modules if m == "unipark" or m.startswith("unipark.")]:
        del sys.modules[name]
    pkg = importlib.import_module("unipark")
    if Path(pkg.__file__).resolve().parent != SRC / "unipark":
        raise ImportError(f"unipark was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"unipark.{m}") for m in LAYERS})


def setup(workload_cls, seed: int, out: Path, meter, with_probes: bool):
    """Import the package and build the workload's inputs SETUP_REPEATS
    times; return the last build and the median reference-speed time of
    one."""

    def build():
        up = import_program()
        wl = workload_cls(up, seed, out)
        return up, wl, probes.build(up, out, wl.metric) if with_probes else []

    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        (up, wl, extra), _, ref = meter.time(build)
        times.append(ref)
    return up, wl, extra, statistics.median(times)


class _Counts:
    def __init__(self) -> None:
        self.rounds = self.attempted = self.failed = 0
        self.seconds = 0.0

    def add(self, wl, seconds: float) -> None:
        """Count a finished round that spent ``seconds`` (wall) in the program."""
        wl.inspect(first=self.rounds == 0)
        self.rounds += 1
        self.attempted += wl.ops_per_round
        self.failed += wl.failed_per_round
        self.seconds += seconds


def end_to_end(wl, extra, meter, setup_s: float, seconds: int, problems: list[str]) -> tuple[_Counts, dict]:
    counts = _Counts()
    while counts.rounds == 0 or counts.seconds < seconds:
        counts.add(wl, wl.run_round(meter)[0])
    rates = probes.measure(extra, meter, problems)
    rates[wl.metric] = wl.rate()
    units = {"traj_rows_per_s": "rows/s", "sweep_points_per_s": "points/s",
             "run_steps_per_s": "run-steps/s", "verify_checks_per_s": "checks/s"}
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    metrics.update({name: (rates[name], units[name]) for name in units})
    return counts, metrics


def per_layer(up, wl, meter, out: Path, trace_path: Path) -> tuple[_Counts, dict]:
    counts = _Counts()
    wall, plain = wl.run_round(meter)
    counts.add(wl, wall)
    tracer = Tracer(True)
    traced_meter = Meter(tracer)
    wall, traced = wl.run_round(traced_meter)
    counts.add(wl, wall)
    metrics = layers.measure(up, traced_meter, out)
    metrics["simulate.steps"] = (wl.steps_per_round, "count")
    metrics["cli.output_bytes"] = (wl.bytes_per_round, "bytes")
    metrics["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
    probe = Tracer(True)
    n = 20000
    t0 = time.perf_counter()
    for _ in range(n):
        with probe.span("bench.empty"):
            pass
    metrics["trace.span_ns"] = ((time.perf_counter() - t0) / n * 1e9, "ns")
    self_s = tracer.self_time_s()
    for layer in LAYERS + ("bench",):
        metrics[f"trace.self_s.{layer}"] = (self_s.get(layer, 0.0), "s")
    cal = meter.calibrations + traced_meter.calibrations
    metrics["trace.calibration_us"] = (statistics.median(cal) * 1e6, "us")
    tracer.dump(trace_path)
    return counts, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10, help="minimum measured seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "unipark" / "__init__.py").is_file():
        print(f"error: no unipark sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The CLI would send its outputs elsewhere if this were set.
    os.environ.pop("UNIPARK_OUT", None)
    out = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    problems: list[str] = []
    meter = Meter(Tracer(False))
    try:
        up, wl, extra, setup_s = setup(WORKLOADS[args.workload], args.seed, out, meter, with_probes=not args.trace)
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-s{args.seed}.json"
            counts, metrics = per_layer(up, wl, meter, out, trace_path)
        else:
            counts, metrics = end_to_end(wl, extra, meter, setup_s, args.seconds, problems)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    problems = wl.problems + problems
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for name in wl.failed_ops:
        print(f"failed operation: {name}", file=sys.stderr)
    print(f"{args.workload}: {counts.rounds} rounds, {counts.seconds:.2f} s in the program", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
