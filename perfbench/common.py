"""Helpers shared by the workloads, probes and layer measurements."""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import math
import signal
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LAWS = (
    "genova", "bolsa", "bopa", "bagal", "glofo", "bofo",
    "globa", "globa-interp", "globa-cons", "barfli", "libac",
)

# (delta constrained to (-pi, pi), gamma constrained to (-pi, pi)) per law,
# written out from the state-space table rather than read from the package.
CONSTRAINED = {
    "genova": (False, False),
    "bolsa": (False, True),
    "bopa": (True, False),
    "bagal": (True, True),
    "glofo": (False, False),
    "bofo": (False, True),
    "globa": (False, False),
    "globa-interp": (False, False),
    "globa-cons": (False, False),
    "barfli": (True, False),
    "libac": (True, False),
}

def metric(law: str, rho, delta, gamma):
    """rho + |Delta| + |Gamma| with the barrier warp 2*tan(angle/2) on the
    law's constrained axes."""
    dc, gc = CONSTRAINED[law]
    big_d = 2.0 * np.tan(0.5 * np.asarray(delta)) if dc else np.asarray(delta)
    big_g = 2.0 * np.tan(0.5 * np.asarray(gamma)) if gc else np.asarray(gamma)
    return np.asarray(rho) + np.abs(big_d) + np.abs(big_g)


def from_metric_coords(law: str, rho: float, big_d: float, big_g: float) -> tuple[float, float, float]:
    """Polar state whose metric coordinates are (rho, Delta, Gamma)."""
    dc, gc = CONSTRAINED[law]
    delta = 2.0 * math.atan(0.5 * big_d) if dc else big_d
    gamma = 2.0 * math.atan(0.5 * big_g) if gc else big_g
    return (rho, delta, gamma)


def wrap(a):
    """Angles wrapped to [-pi, pi)."""
    return np.mod(np.asarray(a) + math.pi, 2.0 * math.pi) - math.pi


# One calibration pass mixes the kinds of work the package's hot paths do,
# in code that is not the package's: numpy ufuncs on a short array, float
# math with repr formatting, and small frozen dataclasses with complex
# arithmetic and sorting.  CAL_REF_S is its time on an unloaded core of the
# reference machine (see README.md).
CAL_REF_S = 1.1e-3
CAL_INTERVAL_S = 0.05
_CAL_X = np.linspace(0.1, 1.0, 64)


@dataclass(frozen=True)
class _CalPair:
    a: float
    b: complex

    def __post_init__(self) -> None:
        if not math.isfinite(self.a):
            raise ValueError(self.a)


def _calibration_pass() -> int:
    x = _CAL_X
    for _ in range(100):
        np.sin(x) * np.cos(x) + x
    s, parts = 0.0, []
    for i in range(500):
        s += math.sin(i * 0.01) * math.cos(s * 1e-3)
        parts.append(repr(s))
    out = []
    for i in range(250):
        p = _CalPair(i * 0.5, complex(i, 1.0))
        out.append(sorted((p.b, -p.b.conjugate(), cmath.sqrt(p.b)), key=lambda z: (z.real, z.imag)))
    return len(",".join(parts)) + len(out)


class Meter:
    """Spans and calibrated timing around the benchmark's calls into the
    program.

    The speed of a shared machine drifts, on the reference machine by up to
    2x within a second.  :meth:`time` runs a calibration pass before and
    after the call and, through an interval timer, every ``CAL_INTERVAL_S``
    during it (the handler runs between bytecodes of the call).  The call's
    time less the passes inside it is scaled by ``CAL_REF_S`` times the mean
    reciprocal calibration time: the result is the call's time at the speed
    at which a pass takes ``CAL_REF_S``.  Wall times are returned too.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.calibrations: list[float] = []

    def calibrate(self) -> float:
        with self.tracer.span("bench.calibrate"):
            t0 = time.perf_counter()
            _calibration_pass()
            secs = time.perf_counter() - t0
        self.calibrations.append(secs)
        return secs

    def time(self, fn, span: str | None = None):
        """Call ``fn()``; return (its result, wall seconds, seconds at the
        reference speed)."""
        first = len(self.calibrations)
        self.calibrate()
        inside = [0.0]

        def on_alarm(signum, frame):
            t0 = time.perf_counter()
            self.calibrate()
            inside[0] += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        try:
            with self.tracer.span(span) if span else contextlib.nullcontext():
                t0 = time.perf_counter()
                result = fn()
                wall = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.calibrate()
        speed = float(np.mean(1.0 / np.asarray(self.calibrations[first:])))
        return result, wall, (wall - inside[0]) * CAL_REF_S * speed


def call_cli(cli, argv: list[str], meter: Meter):
    """Run ``unipark <argv>`` in process with its console output captured.

    Returns (exit code, wall seconds, reference seconds) of ``cli.main``.  An
    exception that escapes the CLI is returned in place of the exit code, as
    a string.
    """

    def main():
        try:
            return cli.main(argv)
        except SystemExit as e:
            return e.code
        except Exception as e:  # noqa: BLE001 - a traceback is an outcome here
            return f"{type(e).__name__}: {e}"

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return meter.time(main, "cli.main")


def fingerprint(paths) -> str:
    """Digest of the bytes of ``paths`` in order."""
    h = hashlib.blake2b(digest_size=20)
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def median_seconds(fn, repeats: int, meter: Meter, span: str) -> float:
    """Median reference-speed time of ``repeats`` calls of ``fn``."""
    return float(np.median([meter.time(fn, span)[2] for _ in range(repeats)]))
