#!/usr/bin/env python3
"""Benchmark the committed tree against a base commit and record a BENCH file.

Both commits are exported with ``git archive`` into fresh temporary
directories, so each side runs exactly its committed files (as the benchmark
does) and the repository's own ``.git`` is left alone.  Then:

1. For every workload of ``BENCHMARK.json``, ``perfbench/run.py`` runs in
   alternating pairs, one run per side: the base side goes first in even
   pairs and second in odd ones, and pair ``i`` runs seed ``i`` on both
   sides.  ``perfbench/`` is only run, never changed.
2. The Tier-1 suite runs once per side, one side after the other, with
   ``--durations=0``; the wall time, the outcome counts and the setup time
   of the ``convergence_batches`` fixture are recorded.

The output file holds the machine (cores, CPU model, Python, numpy, scipy),
and for each side every run's end-to-end metrics with their median and
quartiles, the pair count, how many pairs the head side won per metric,
and whether every run was correct with 0 failed operations.

    python3 scripts/bench_record.py --base HEAD~1 --out BENCH_6.json \\
        --pairs 3 --pairs batch_grid=10

Each run lasts ``perfbench/run.py``'s own default length; the seconds it
spent in the program and its round count are read from its output and
recorded with the run.  Run the script from anywhere inside the repository
on an otherwise idle machine; it takes about 2 x pairs x 15 s per workload
plus two Tier-1 runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0", "-p", "no:cacheprovider"]
# The fixture is set up by the first test that requests it.
FIXTURE = ("convergence_batches", "tests/test_acceptance.py::test_criterion_3_convergence")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(commit: str, dest: Path) -> Path:
    """The committed files of ``commit`` under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    dest.mkdir(parents=True)
    tar_path = dest.with_suffix(".tar")
    tar_path.write_bytes(archive)
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest, filter="data")
    tar_path.unlink()
    return dest


def machine() -> dict:
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def perfbench_run(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    length = re.search(r"(\d+) rounds, ([\d.]+) s in the program", proc.stderr)
    if proc.returncode != 0 or not lines or not length:
        raise SystemExit(f"perfbench {workload} seed {seed} in {tree} failed:\n{proc.stderr}")
    return {**json.loads(lines[-1]), "rounds": int(length.group(1)), "program_s": float(length.group(2))}


def workload_pairs(trees: dict[str, Path], workload: str, pairs: int, better: dict) -> dict:
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    for i in range(pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(perfbench_run(trees[side], workload, i))
        print(f"{workload} pair {i + 1}/{pairs} done", file=sys.stderr)
    out: dict = {"pairs": pairs, "seeds": list(range(pairs))}
    for side, rs in runs.items():
        out[side] = {
            "correct": all(r["correct"] for r in rs),
            "failed": [r["failed"] for r in rs],
            "attempted": [r["attempted"] for r in rs],
            "rounds": [r["rounds"] for r in rs],
            "program_s": [r["program_s"] for r in rs],
            "metrics": {name: spread([r["metrics"][name]["value"] for r in rs])
                        for name in better if name in rs[0]["metrics"]},
        }
    out["head_wins"] = {}
    out["median_ratio"] = {}
    for name, direction in better.items():
        if name not in out["head"]["metrics"]:
            continue
        b = out["base"]["metrics"][name]["values"]
        h = out["head"]["metrics"][name]["values"]
        sign = 1.0 if direction == "higher" else -1.0
        out["head_wins"][name] = sum(sign * (hv - bv) > 0 for hv, bv in zip(h, b))
        base_med = out["base"]["metrics"][name]["median"]
        out["median_ratio"][name] = out["head"]["metrics"][name]["median"] / base_med if base_med else None
    return out


def tier1(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|errors?|skipped)", proc.stdout)}
    fixture = None
    for line in proc.stdout.splitlines():
        m = re.match(r"\s*([\d.]+)s setup\s+(\S+)", line)
        if m and m.group(2) == FIXTURE[1]:
            fixture = float(m.group(1))
    return {"wall_s": wall, "exit_code": proc.returncode, "counts": counts, f"{FIXTURE[0]}_setup_s": fixture}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="base commit (e.g. HEAD~1)")
    ap.add_argument("--head", default="HEAD", help="commit measured against the base (default HEAD)")
    ap.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json file to write")
    ap.add_argument("--pairs", action="append", default=[],
                    help="pairs per workload: N for every workload, or WORKLOAD=N (repeatable; default 3)")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    pairs = dict.fromkeys(workloads, 3)
    for spec in args.pairs:
        name, _, n = spec.rpartition("=")
        for w in ([name] if name else workloads):
            if w not in pairs:
                ap.error(f"unknown workload {w!r}")
            pairs[w] = int(n)

    record = {
        "base": {"ref": args.base, "commit": git("rev-parse", args.base)},
        "head": {"ref": args.head, "commit": git("rev-parse", args.head)},
        "machine": machine(),
        "perfbench": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        trees = {side: export(record[side]["commit"], Path(tmp) / side) for side in ("base", "head")}
        for w in workloads:
            record["perfbench"][w] = workload_pairs(trees, w, pairs[w], better)
        record["tier1"] = {}
        for side in ("base", "head"):
            record["tier1"][side] = tier1(trees[side])
            print(f"tier-1 {side}: {record['tier1'][side]}", file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
