#!/usr/bin/env python3
"""Print the SHA-256 digest of every artifact in a fixed set of CLI runs.

The set is:

- ``unipark simulate`` for all eleven laws in CSV, JSON and SVG, in the polar
  chart from (rho, delta, gamma) = (1.2, 0.7, -0.4) and in the Cartesian
  chart from (x, y, theta) = (-1.2, -0.7, 0.4) at dt 0.01;
- a Cartesian globa run with gains (1, 1, 0.1, 1) from (2, 0.4, 0), which
  crosses the front line;
- genova from (rho, delta, gamma) = (1.5, 0, 0) at dt 0.01 in both charts,
  a radial run whose logs hold -0.0 (y = -rho sin 0) and 0.0;
- runs that end other than by converging, in the step of the integrator's
  block where it ends: bagal from (1, 3, 2) at dt 0.2 (barrier guard);
  globa-cons from (1, 3, 2) at dt 900 in both charts (numeric in polar,
  t_max in Cartesian), and in Cartesian to t_max 90000 (numeric at
  t = 29700), and globa, glofo and globa-interp from there in polar (t_max
  with overflowing logs); genova in both charts stopped at
  t_max after 100 steps, not a multiple of the 64-step block, and after
  3500 steps at dt 1e-3, inside a block grown past 64 steps; bagal with
  gains (1, 1, 0.1, 1) from (x, y, theta) = (-1.5, 1.5, 0) at dt 5e-4 in
  both charts, with a config's ``barrier_margin`` of 1.904, which trips
  the guard at step 3193, also inside a grown block; bagal from
  (1, 2, -1.5) at dt 0.01 with ``--tol 4.843772453419518`` (JSON only),
  whose converging step has a logged metric below the tolerance by the
  last bit of ``tan`` (it converges at t = 1.01); libac from
  (1, 2.891592653589793, 0.7853981633974483) at dt 1, whose law divides
  by zero in the first step's second RK4 stage (numeric at t = 0); globa
  from (1, 3, 2) at dt 109.1 in Cartesian, numeric at t = 6000.5 with
  coordinates near 1.7e308, whose drawing's padded extent overflows;
- a ``simulate`` config (``config/every-field-simulate``: CSV, JSON and SVG)
  and a ``sweep`` config (``config/every-field-sweep``: summary JSON and
  SVG) that each set every field their command reads in the file, none by
  flag: ``schema_version``, the controller, gains as an object and as a
  list, ``init_polar`` as a comma-separated string, a polar grid, the
  Cartesian frame, ``dt``, ``t_max``, ``tol``, ``barrier_margin``,
  ``composite`` and ``composite_order``;
- both figures of ``scripts/reproduce_figures.py``; the front-line overlay
  (``figures/fig_frontline``) is the digested sweep whose workers send back
  the most drawn poses, about a million (22 MiB) over its 27 points;
- a sweep of libac, bagal and globa at gains (1, 1, 0.1, 1) over three polar
  starts, where bagal errors on gamma = 3.5, outside its domain: its points
  are dealt libac first and globa last, and put back in controller order;
  and glofo over the same starts (``sweep/glofo``, its summary JSON alone),
  whose workers evaluate Si with the scipy their caller loaded;
- ``unipark gains`` for a complex passivity pair, the two forwarding
  branches and a backstepping ``--epsilon``;
- ``unipark verify --seed 0 --samples 1000``, and ``--samples 10000`` at
  seeds 935547811 and 12345, the scale the pole round trips are timed at;
- the :class:`~unipark.simulate.BatchResult` of ``integrate_batch`` over 64
  seeded metric-ball starts (metric <= 4) for each of the eleven laws at
  dt 0.01, with the 7 x 2 composite monitors on genova, glofo and globa
  (``batch/metric_ball/<law>``), over 1000 such starts for bagal, glofo
  (whose law calls ``si``), globa and libac at dt 0.01, whose array blocks
  are far wider (``batch/large/<law>``), over 3000 such starts for globa
  at dt 0.01, wide enough to be stepped on every usable CPU
  (``batch/split/globa``), and of the six batches of the suite's lockstep
  tests (``batch/lockstep/<case>``).

Artifacts are written into a temporary directory that is removed afterwards;
a batch is digested from the dtype, shape and bytes of every field.  Each
line reads ``<sha256>  <name>``, sorted by name, so two checkouts produce
byte-identical artifacts and batch results exactly when ``diff`` of their
outputs is empty:

    python3 scripts/artifact_digest.py > digests.txt

The package is imported from the ``src/`` directory next to this script.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))
sys.path.insert(0, str(ROOT / "tests"))

from unipark.cli import main as cli_main  # noqa: E402
from unipark.controllers import ControllerId, controller_space  # noqa: E402
from unipark.lyapunov import CompositeKind, CompositeOrder, LyapunovFn, logging_clf  # noqa: E402
from unipark.simulate import Scenario, integrate_batch  # noqa: E402
from unipark.verify import sample_metric_ball  # noqa: E402

import reproduce_figures  # noqa: E402
from test_simulate import LOCKSTEP_CASES, lockstep_batch  # noqa: E402

RUNS = {
    "polar": ["--init-polar=1.2,0.7,-0.4"],
    "cartesian": ["--frame", "cartesian", "--init-cart=-1.2,-0.7,0.4", "--dt", "0.01"],
}
ENDINGS = {
    "guard": ["--controller", "bagal", "--init-polar=1,3,2", "--dt", "0.2"],
    **{f"diverge/{chart}-{law}": ["--controller", law, "--init-polar=1,3,2", "--dt", "900", "--t-max", "18000",
                                  "--frame", chart]
       for chart, laws in (("polar", ("globa-cons", "globa", "glofo", "globa-interp")),
                           ("cartesian", ("globa-cons",)))
       for law in laws},
    **{f"t_max/{chart}": ["--controller", "genova", "--init-polar=1.2,0.7,-0.4", "--dt", "0.01", "--t-max", "1",
                          "--frame", chart]
       for chart in ("polar", "cartesian")},
    "tol": ["--controller", "bagal", "--init-polar=1,2,-1.5", "--dt", "0.01", "--tol", "4.843772453419518",
            "--format", "json"],
    "stage_error": ["--controller", "libac", "--init-polar=1,2.891592653589793,0.7853981633974483", "--dt", "1",
                    "--t-max", "10"],
    **{f"t_max/long-{chart}": ["--controller", "genova", "--init-polar=1.2,0.7,-0.4", "--t-max", "3.5",
                               "--frame", chart]
       for chart in ("polar", "cartesian")},
    "numeric/cartesian": ["--controller", "globa-cons", "--init-polar=1,3,2", "--dt", "900", "--t-max", "90000",
                          "--frame", "cartesian"],
    "numeric/overflowing-drawing": ["--controller", "globa", "--init-polar=1,3,2", "--dt", "109.1",
                                    "--t-max", "21820", "--frame", "cartesian"],
}
RADIAL = {f"radial/{chart}": ["--controller", "genova", "--init-polar=1.5,0,0", "--dt", "0.01", "--frame", chart]
          for chart in ("polar", "cartesian")}
# Runs set up by a config, for a field no flag sets: bagal at the front line
# figure's gains trips a guard 1.904 from pi at step 3193.
CONFIG_ENDINGS = {
    f"guard/long-{chart}": {"controller": "bagal", "gains": "1,1,0.1,1", "init_cart": "-1.5,1.5,0", "dt": 5e-4,
                            "t_max": 50.0, "barrier_margin": 1.904, "frame": chart}
    for chart in ("polar", "cartesian")
}
# Every field each command reads, set in its config file and by no flag.
EVERY_FIELD = {
    "simulate": {"schema_version": 1, "controller": "globa", "gains": {"k1": 1, "k2": 1, "k3": 0.1, "k4": 2},
                 "init_polar": "1.2,0.7,-0.4", "frame": "cartesian", "dt": 0.01, "t_max": 5.0, "tol": 1e-3,
                 "barrier_margin": 0.01, "composite": "cross", "composite_order": "v-first"},
    "sweep": {"schema_version": 1, "controller": "bagal", "gains": [1, 1, 0.1, 1, 2],
              "grid_polar": [[1.2, 0.7, -0.4], [1.5, -1.0, 0.5]], "frame": "cartesian", "dt": 0.01,
              "t_max": 5.0, "tol": 1e-3, "barrier_margin": 0.01, "composite": "log", "composite_order": "v-first"},
}
# Given in neither controller nor dealing order (libac, bagal, globa).
MIXED_SWEEP = {"controllers": ["globa", "bagal", "libac"], "gains": [1, 1, 0.1, 1], "dt": 0.01, "t_max": 15.0,
               "grid_polar": [[2.0, 0.4, 0.2], [1.0, 0.5, 3.5], [1.5, -1.0, -0.5]]}
GAINS = {
    "passivity": ["--poles=-1,-0.5+0.9i,-0.5-0.9i"],
    "forwarding": ["--poles=-1,-2,-3"],
    "backstepping": ["--poles=-1,-2,-3", "--epsilon", "0.5"],
}
VERIFY_10K_SEEDS = (935547811, 12345)
BATCH_STARTS = 64
COMPOSITE_LAWS = (ControllerId.GENOVA, ControllerId.GLOFO, ControllerId.GLOBA)
LARGE_STARTS = 1000
LARGE_LAWS = (ControllerId.BAGAL, ControllerId.GLOFO, ControllerId.GLOBA, ControllerId.LIBAC)
SPLIT_STARTS = 3000


def produce(out: Path) -> None:
    for chart, flags in RUNS.items():
        for cid in ControllerId:
            cli_main(["simulate", "--controller", cid.value, *flags, "--out", str(out / chart)])
    cli_main(["simulate", "--controller", "globa", "--gains", "1,1,0.1,1", "--init-cart", "2,0.4,0",
              "--frame", "cartesian", "--t-max", "120", "--out", str(out / "crossing")])
    for name, flags in {**RADIAL, **ENDINGS}.items():
        cli_main(["simulate", *flags, "--out", str(out / name)])
    for name, cfg in CONFIG_ENDINGS.items():
        (out / name).mkdir(parents=True)
        (out / name / "config.json").write_text(json.dumps(cfg))
        cli_main(["simulate", "--config", str(out / name / "config.json"), "--out", str(out / name)])
    for command, cfg in EVERY_FIELD.items():
        path = out / "config" / f"every-field-{command}"
        path.mkdir(parents=True)
        (path / "config.json").write_text(json.dumps(cfg))
        formats = ["--format", "json,svg"] if command == "sweep" else []
        cli_main([command, "--config", str(path / "config.json"), *formats, "--out", str(path)])
    reproduce_figures.run(out / "figures")
    mixed = out / "sweep" / "mixed"
    mixed.mkdir(parents=True)
    (mixed / "config.json").write_text(json.dumps(MIXED_SWEEP))
    cli_main(["sweep", "--config", str(mixed / "config.json"), "--out", str(mixed)])
    cli_main(["sweep", "--config", str(mixed / "config.json"), "--controller", "glofo", "--format", "json",
              "--out", str(out / "sweep" / "glofo")])
    for family, flags in GAINS.items():
        cli_main(["gains", "--family", family, *flags, "--out", str(out / "gains" / family)])
    cli_main(["verify", "--seed", "0", "--samples", "1000", "--out", str(out / "verify")])
    for seed in VERIFY_10K_SEEDS:
        cli_main(["verify", "--seed", str(seed), "--samples", "10000", "--out", str(out / f"verify-10k-{seed}")])


def batches():
    """(name, BatchResult) of every digested batch."""
    rng = np.random.default_rng(6)
    for cid in ControllerId:
        s = Scenario(controller=cid, dt=0.01, t_max=100.0)
        grid = sample_metric_ball(controller_space(cid), BATCH_STARTS, rng, max_metric=4.0)
        extras = []
        if cid in COMPOSITE_LAWS:
            clf = logging_clf(cid, s.gains)
            extras = [LyapunovFn(clf, kind, order) for kind in CompositeKind for order in CompositeOrder]
        yield f"batch/metric_ball/{cid.value}", integrate_batch(s, grid, extra_lyapunov=extras)
    rng = np.random.default_rng(1000)
    for cid in LARGE_LAWS:
        grid = sample_metric_ball(controller_space(cid), LARGE_STARTS, rng, max_metric=4.0)
        yield f"batch/large/{cid.value}", integrate_batch(Scenario(controller=cid, dt=0.01, t_max=100.0), grid)
    globa = ControllerId.GLOBA
    grid = sample_metric_ball(controller_space(globa), SPLIT_STARTS, np.random.default_rng(3000), max_metric=4.0)
    yield "batch/split/globa", integrate_batch(Scenario(controller=globa, dt=0.01, t_max=100.0), grid)
    for case in LOCKSTEP_CASES:
        yield f"batch/lockstep/{case}", lockstep_batch(case)[2]


def batch_digest(br) -> str:
    h = hashlib.sha256()
    for f in dataclasses.fields(br):
        a = getattr(br, f.name)
        h.update(f.name.encode())
        if a is None:
            h.update(b"None")
        else:
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def main() -> int:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        # The runs' console summaries name the temporary directory; only the
        # files are digested.
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            produce(out)
        for path in (p for p in out.rglob("*") if p.is_file()):
            lines.append((path.relative_to(out).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest()))
    with contextlib.redirect_stderr(io.StringIO()):
        lines += [(name, batch_digest(br)) for name, br in batches()]
    for name, digest in sorted(lines):
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
