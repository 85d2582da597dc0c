#!/usr/bin/env python3
"""Print the SHA-256 digest of every artifact in a fixed set of CLI runs.

The set is:

- ``unipark simulate`` for all eleven laws in CSV, JSON and SVG, in the polar
  chart from (rho, delta, gamma) = (1.2, 0.7, -0.4) and in the Cartesian
  chart from (x, y, theta) = (-1.2, -0.7, 0.4) at dt 0.01;
- a Cartesian globa run with gains (1, 1, 0.1, 1) from (2, 0.4, 0), which
  crosses the front line;
- both figures of ``scripts/reproduce_figures.py``;
- ``unipark gains`` for a complex passivity pair, the two forwarding
  branches and a backstepping ``--epsilon``;
- ``unipark verify --seed 0 --samples 1000``.

Artifacts are written into a temporary directory that is removed afterwards.
Each line reads ``<sha256>  <relative path>``, sorted by path, so two
checkouts produce byte-identical artifacts exactly when ``diff`` of their
outputs is empty:

    python3 scripts/artifact_digest.py > digests.txt

The package is imported from the ``src/`` directory next to this script.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

from unipark.cli import main as cli_main  # noqa: E402
from unipark.controllers import ControllerId  # noqa: E402

import reproduce_figures  # noqa: E402

RUNS = {
    "polar": ["--init-polar=1.2,0.7,-0.4"],
    "cartesian": ["--frame", "cartesian", "--init-cart=-1.2,-0.7,0.4", "--dt", "0.01"],
}
GAINS = {
    "passivity": ["--poles=-1,-0.5+0.9i,-0.5-0.9i"],
    "forwarding": ["--poles=-1,-2,-3"],
    "backstepping": ["--poles=-1,-2,-3", "--epsilon", "0.5"],
}


def produce(out: Path) -> None:
    for chart, flags in RUNS.items():
        for cid in ControllerId:
            cli_main(["simulate", "--controller", cid.value, *flags, "--out", str(out / chart)])
    cli_main(["simulate", "--controller", "globa", "--gains", "1,1,0.1,1", "--init-cart", "2,0.4,0",
              "--frame", "cartesian", "--t-max", "120", "--out", str(out / "crossing")])
    reproduce_figures.run(out / "figures")
    for family, flags in GAINS.items():
        cli_main(["gains", "--family", family, *flags, "--out", str(out / "gains" / family)])
    cli_main(["verify", "--seed", "0", "--samples", "1000", "--out", str(out / "verify")])


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        # The runs' console summaries name the temporary directory; only the
        # files are digested.
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            produce(out)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
