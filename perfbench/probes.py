"""Fixed probes that give every run all four end-to-end rates.

A workload reports its own rate from its rounds.  The other three rates come
from these small probes, which run the same few operations after the rounds
whatever the workload and seed.  They are checked like operations but not
counted in ``attempted``/``failed``: those describe the workload's rounds.
Each probe runs ``REPEATS`` times and reports its median rate.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from common import call_cli
from workloads import BATCH_DT, batch_scenario, batch_steps

REPEATS = 9
_POSE = "--init-cart=1.3,-0.7,0.4"


class TrajProbe:
    metric = "traj_rows_per_s"

    def __init__(self, up, out: Path) -> None:
        self.cli = up.cli
        self.runs = [
            (out / f"probe-traj-{law}", law,
             ["simulate", "--controller", law, _POSE, "--frame", frame, "--dt", "0.01",
              "--format", "csv,json,svg", "--out", str(out / f"probe-traj-{law}")])
            for law, frame in (("genova", "polar"), ("glofo", "cartesian"))
        ]

    def once(self, meter, problems: list[str]) -> tuple[float, float]:
        rows = secs = 0.0
        for outdir, law, argv in self.runs:
            rc, _, s = call_cli(self.cli, argv, meter)
            secs += s
            payload = json.loads((outdir / f"traj_{law}.json").read_text()) if rc == 0 else None
            if payload is None or payload["termination"] != "converged":
                problems.append(f"trajectory probe {law}: exit {rc!r}")
                continue
            rows += len(payload["data"])
        return rows, secs


class SweepProbe:
    metric = "sweep_points_per_s"

    def __init__(self, up, out: Path) -> None:
        self.cli = up.cli
        cfg = {
            "schema_version": 1, "controllers": ["globa"], "gains": [1, 1, 1, 1],
            "dt": 0.01, "t_max": 120.0,
            "grid_cart": [[1.5 * math.cos(a), 1.5 * math.sin(a), 0.0] for a in np.arange(1, 16, 2) * math.pi / 8],
        }
        path = out / "probe-sweep.json"
        path.write_text(json.dumps(cfg))
        self.points = len(cfg["grid_cart"])
        self.summary = out / "probe-sweep" / "sweep_summary.json"
        self.argv = ["sweep", "--config", str(path), "--out", str(out / "probe-sweep"),
                     "--format", "json,svg,txt"]

    def once(self, meter, problems: list[str]) -> tuple[float, float]:
        rc, _, secs = call_cli(self.cli, self.argv, meter)
        recs = json.loads(self.summary.read_text())["controllers"]["globa"] if rc == 0 else []
        if len(recs) != self.points or any(r["termination"] != "converged" for r in recs):
            problems.append(f"sweep probe: exit {rc!r}")
        return self.points, secs


class BatchProbe:
    metric = "run_steps_per_s"

    def __init__(self, up, out: Path) -> None:
        self.integrate_batch = up.simulate.integrate_batch
        self.scenario = batch_scenario(up, "bofo")
        space = up.controllers.controller_space(self.scenario.controller)
        self.grid = up.verify.sample_metric_ball(space, 100, np.random.default_rng(7), max_metric=2.0)

    def once(self, meter, problems: list[str]) -> tuple[float, float]:
        br, _, secs = meter.time(lambda: self.integrate_batch(self.scenario, self.grid),
                                 "simulate.integrate_batch")
        if not br.converged.all() or int(br.v_violations.sum()):
            problems.append("batch probe: a start did not converge cleanly")
        return batch_steps(br, BATCH_DT), secs


class VerifyProbe:
    metric = "verify_checks_per_s"

    def __init__(self, up, out: Path) -> None:
        self.cli = up.cli
        self.report = out / "probe-verify" / "verify_report.json"
        self.argv = ["verify", "--samples", "2000", "--seed", "0", "--out", str(out / "probe-verify")]

    def once(self, meter, problems: list[str]) -> tuple[float, float]:
        rc, _, secs = call_cli(self.cli, self.argv, meter)
        report = json.loads(self.report.read_text()) if rc == 0 else None
        if report is None or not report["all_passed"]:
            problems.append(f"verify probe: exit {rc!r}")
            return 0.0, secs
        return len(report["checks"]), secs


PROBES = (TrajProbe, SweepProbe, BatchProbe, VerifyProbe)


def build(up, out: Path, skip_metric: str) -> list:
    """The probes for every rate except ``skip_metric``."""
    return [p(up, out) for p in PROBES if p.metric != skip_metric]


def measure(probes, meter, problems: list[str]) -> dict[str, float]:
    """Median rate of each probe over REPEATS passes that take the probes in
    turn, so a slow spell of the machine spreads over all of them."""
    rates: dict[str, list[float]] = {p.metric: [] for p in probes}
    for _ in range(REPEATS):
        for probe in probes:
            work, secs = probe.once(meter, problems)
            rates[probe.metric].append(work / secs)
    return {name: float(np.median(vals)) for name, vals in rates.items()}

