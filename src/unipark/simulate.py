"""Deterministic closed-loop integration in polar or Cartesian charts.

Fixed-step classic Runge-Kutta (RK4) is used throughout: reproducibility and
simple per-step monotonicity tolerances matter more than adaptive efficiency
at this scale.  The closed-loop polar field uses the rho-decoupled form
directly (no v/rho division), so it has no singularity at rho = 0; the
open-loop polar field guards rho > 1e-9.

A run terminates when the state-space metric drops below ``stop_tol``
(converged; the metric is evaluated over arrays, exactly as the ``metric``
column and ``BatchResult.final_metric`` report it), when t reaches
``t_max``, when a constrained angle comes within ``barrier_margin`` of +-pi
(barrier guard), or when the state stops being finite.  For barrier
controllers started inside their domain a guard trip means the integration
contradicts the invariance certificate, so the test suite treats it as a
failure; otherwise it is just a clean termination.

Both integrators step speculatively in blocks and test each block once.
:func:`integrate` takes up to K steps of one run with no check in between,
each a row of its log; :func:`integrate_batch` compacts many runs under one
setup to those still active and steps them K times.  One decision,
:func:`_block_stops`, then says for each run of the (K, runs) block how
many rows it keeps and how it ends, as a code indexing ``_ENDINGS``; both
integrators read only that.  The steps past the kept rows are discarded,
so every result is bitwise that of testing after every step.  Certificate
values, controls and metrics of a scalar run are evaluated vectorised over
its stored states once it has ended; the batch checks its monitors on the
kept rows once per block.  :func:`integrate`'s K grows with the steps its
run has kept, so a long run pays for few blocks.

Every step is taken by a kernel compiled by :func:`_rk4_kernel` from
:func:`_rk4_step` over a field written once over a primitive namespace,
bitwise the interpreted step, in one of three loops.  The polar loop steps
one run's floats, in the polar chart and in a batch of at most
``_SCALAR_RUNS`` active runs, so such a batch is bitwise :func:`integrate`
run by run; :func:`_kernel_rows` runs it, and the Cartesian loop.  The
array loop steps more runs at once, because up to a few hundred runs an
array step costs mostly the fixed cost of its numpy calls.  A run that
crosses from it differs only in the last bits, in two ways.  Numpy's ``tan``
and ``arctan`` round a few arguments differently from ``math``'s (``sin``,
``cos``, ``sinc``, ``si`` and ``psi`` agree bitwise).  And a square is
``np.square``, ``x*x``, in the array loop but ``x ** 2``, libm's ``pow``, in
the polar loop: they differ in the last bit on 2536 of 3,000,000 draws
uniform on [-10, 10] (glibc 2.36), and bolsa, bagal and bofo square both
``tan(c/2)`` and ``1 + tan(c/2)**2``.  So a run's last bits depend on when
its batch thins below the constant; a chaotic run in a large batch, such as
bopa or barfli at dt >= 0.2, may still take a different exit than in
:func:`integrate`.  The Cartesian loop steps the
pose, with the closed loop computed at each stage's polar state, and
rebuilds a continuous polar state by unwrapping the transformed angles
against the previous step.  A loop's step is straight-line code.  In the
polar and Cartesian loops each value read only once is written into its
reader; in the array loop each traced operation is one numpy call that
writes into a scratch buffer, reused once the value it holds is last read.

The points of a sweep and the jobs of ``unipark verify`` (from 5000 samples
on) run in forked workers, one per usable CPU (:func:`_forked_map`, on
``os.fork``, a pipe per worker and one shared pipe holding the next item's
index).  Each item goes, in the order given, to whichever worker is free
first, so a sweep hands over its slowest law's points first; the results
equal one process's.  The caller unpickles each worker's results from its
pipe as it reads them, so it holds one copy of them, not the pickle too.
Before dealing, a sweep compiles its kernels (:func:`_compile_kernels`;
compiling one that calls ``si`` loads Si) and ``verify`` loads Si, so the
workers inherit both rather than each building them and losing them on exit.

A batch steps on every usable CPU while at least ``_SPLIT_RUNS`` of its
runs go on (:func:`_split_blocks`).  Its runs going on are dealt in
contiguous shares, one stepped by the caller and one by each forked worker.
Before each block every worker sends the caller its share's count of runs
going on, and the caller sends back the batch's, which sets each process's
block length and kernel as one process's loop sets them.  What a block does
to a run depends on that run alone, so the results equal one process's bit
for bit.  Once fewer than ``_SPLIT_RUNS`` go on, or at t_max, each worker
sends back its runs' states, endings, counters, extrema and monitors' last
values and exits, and the caller steps the rest alone.

After a Cartesian-chart run, every crossing of the x-axis is read off the
logged poses with the linearly interpolated crossing time and abscissa,
supporting the front-line (x > 0, y = 0) avoidance analysis.  No smoothing
is applied: the curvature discontinuity of the underlying feedback is
preserved in the log.

One policy holds for a step that raises, written once in
:func:`_kernel_rows`: a stage (or the Cartesian map) that raises
``ArithmeticError`` or ``ValueError``, a :class:`UniparkError` included,
leaves NaN rows from that step on, so the block test ends the run there as
numeric; any other error propagates.
"""

from __future__ import annotations

import collections
import itertools
import linecache
import math
import os
import pickle
import re
import signal
import weakref
from dataclasses import astuple, dataclass, field, replace
from enum import Enum
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from . import controllers as ctl
from .controllers import ControllerId, Gains
from .errors import ConfigError, UniparkError
from .kernels import ARRAY, SCALAR, TRACE, TRACED, Sym, Tape, _load_si, wrap_angle
from .lyapunov import CompositeKind, CompositeOrder, LyapunovFn, logging_clf
from .spaces import (
    CartesianState,
    PolarState,
    StateSpaceId,
    barrier_margin_values,
    cartesian_to_polar,
    constrained_angles,
    delta_gamma_in_space,
    metric_values,
    on_target,
    polar_to_cartesian,
)

__all__ = [
    "Termination",
    "Scenario",
    "Trajectory",
    "AxisCrossing",
    "SweepRecord",
    "integrate",
    "integrate_batch",
    "BatchResult",
    "sweep",
    "sweep_point",
    "axis_crossings",
    "front_line_crossings",
]

# Per-step allowance for certificate increases attributable to integration
# and rounding noise.
V_MONOTONE_TOL = 1e-9


def _rises(before, after, tol: float = V_MONOTONE_TOL):
    """Where a certificate rose from ``before`` to ``after`` by more than
    ``tol``: the one rise test of the log and the batch."""
    return after > before + tol


class Termination(Enum):
    CONVERGED = "converged"
    T_MAX = "t_max"
    BARRIER_GUARD = "barrier_guard"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run: controller, gains, initial state, and numerics."""

    controller: ControllerId
    gains: Gains = Gains()
    initial: PolarState | CartesianState = PolarState(1.0, 0.0, 0.0)
    frame: str = "polar"
    dt: float = 1e-3
    t_max: float = 100.0
    stop_tol: float = 1e-4
    barrier_margin: float = 1e-9
    composite: CompositeKind = CompositeKind.ADD
    composite_order: CompositeOrder = CompositeOrder.RHO_FIRST

    def __post_init__(self) -> None:
        if self.frame not in ("polar", "cartesian"):
            raise ConfigError(f"frame must be 'polar' or 'cartesian', got {self.frame!r}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigError(f"dt must be positive, got {self.dt!r}")
        if not (self.t_max >= self.dt and math.isfinite(self.t_max)):
            raise ConfigError(f"t_max must be finite and at least dt, got {self.t_max!r}")
        if not math.isfinite(self.t_max / self.dt):
            raise ConfigError(f"t_max / dt must be finite, got {self.t_max!r} / {self.dt!r}")
        if not (self.stop_tol > 0.0 and math.isfinite(self.stop_tol)):
            raise ConfigError(f"stop_tol must be positive and finite, got {self.stop_tol!r}")
        if not 0.0 <= self.barrier_margin < math.pi:
            raise ConfigError(f"barrier_margin must lie in [0, pi), got {self.barrier_margin!r}")
        try:
            init = self.initial_polar()
        except UniparkError as e:
            raise ConfigError(f"invalid initial state: {e}") from None
        if not delta_gamma_in_space(self.space, init.delta, init.gamma):
            raise ConfigError(
                f"initial state {init} lies outside {self.space.value}, the state space "
                f"of {self.controller.value}"
            )

    @property
    def space(self) -> StateSpaceId:
        return ctl.controller_space(self.controller)

    @property
    def max_steps(self) -> int:
        """The steps from t = 0 to t_max, the integrators' one step count."""
        return int(math.ceil(self.t_max / self.dt - 1e-9))

    def initial_polar(self) -> PolarState:
        """Initial design-frame state.

        Polar initial states are taken literally.  Cartesian ones pass
        through the transform, which yields delta in (0, 2*pi]; any axis the
        controller's space constrains is then wrapped to [-pi, pi), the chart
        the barrier laws live on.  Unconstrained axes keep the unwrapped
        transform values.
        """
        if isinstance(self.initial, PolarState):
            return self.initial
        p = cartesian_to_polar(self.initial)
        space = self.space
        delta = wrap_angle(p.delta) if space.delta_constrained else p.delta
        gamma = wrap_angle(p.gamma) if space.gamma_constrained else p.gamma
        return PolarState(p.rho, delta, gamma)

    def initial_cartesian(self) -> CartesianState:
        if isinstance(self.initial, CartesianState):
            return self.initial
        return polar_to_cartesian(self.initial)

    def lyapunov(self) -> LyapunovFn:
        return LyapunovFn(logging_clf(self.controller, self.gains), self.composite, self.composite_order)


@dataclass(frozen=True)
class AxisCrossing:
    """A sign change of y between consecutive samples; x interpolated at y=0."""

    t: float
    x: float

    @property
    def in_front(self) -> bool:
        return self.x > 0.0


@dataclass
class Trajectory:
    """Sampled closed-loop run with logged certificate and metric values."""

    t: np.ndarray
    polar: np.ndarray  # (N, 3): rho, delta, gamma (continuous/unwrapped)
    cartesian: np.ndarray  # (N, 3): x, y, theta
    v: np.ndarray
    omega: np.ndarray
    V: np.ndarray
    metric: np.ndarray
    termination: Termination
    crossings: list[AxisCrossing] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def final_time(self) -> float:
        return float(self.t[-1])

    # The summaries below read inf from the log of a diverging run as an
    # honest "very large", with numpy's warnings off.

    def v_monotonicity_violations(self, tol: float = V_MONOTONE_TOL) -> int:
        with np.errstate(all="ignore"):
            return int(np.sum(_rises(self.V[:-1], self.V[1:], tol)))

    def convergence_time(self) -> float | None:
        return self.final_time if self.termination is Termination.CONVERGED else None

    def path_length(self) -> float:
        if len(self.t) < 2:
            return 0.0
        return float(np.sum(np.abs(self.v[:-1]) * np.diff(self.t)))

    def steering_effort(self) -> float:
        if len(self.t) < 2:
            return 0.0
        with np.errstate(all="ignore"):
            return float(np.sum(self.omega[:-1] ** 2 * np.diff(self.t)))

    def min_barrier_margin(self, space: StateSpaceId) -> float:
        return float(np.min(barrier_margin_values(space, self.polar[:, 1], self.polar[:, 2])))


def _finish(s: Scenario, t, polar, termination, cartesian=None) -> Trajectory:
    t = np.asarray(t)
    polar = np.asarray(polar, dtype=float).reshape(-1, 3)
    rho, delta, gamma = polar[:, 0], polar[:, 1], polar[:, 2]
    # A diverging run logs values that overflow here; inf is the honest log.
    with np.errstate(all="ignore"):
        if cartesian is None:
            cart = np.column_stack([-rho * np.cos(delta), -rho * np.sin(delta), delta - gamma])
            crossings = []
        else:
            cart = np.asarray(cartesian, dtype=float).reshape(-1, 3)
            crossings = axis_crossings(cart, s.dt)
        v, omega = ctl.closed_loop_input(s.controller, s.gains, ARRAY)(rho, delta, gamma)
        V = np.asarray(s.lyapunov().value(rho, delta, gamma), dtype=float)
        met = metric_values(ARRAY, s.space, rho, delta, gamma)
    meta = {
        "controller": s.controller.value,
        "dt": s.dt,
        "t_max": s.t_max,
        "stop_tol": s.stop_tol,
        "barrier_margin": s.barrier_margin,
        "frame": s.frame,
        "composite": s.composite.value,
        "composite_order": s.composite_order.value,
    }
    return Trajectory(
        t=t,
        polar=polar,
        cartesian=cart,
        v=v,
        omega=np.asarray(omega, dtype=float),
        V=V,
        metric=np.asarray(met, dtype=float),
        termination=termination,
        crossings=crossings,
        meta=meta,
    )


def _rk4_step(f: Callable, y: tuple[float, float, float], h: float) -> tuple[float, float, float]:
    # 0.5 * h * a evaluates as (0.5 * h) * a, so hoisting 0.5 * h is exact.
    r, d, c = y
    hh = 0.5 * h
    a1, b1, c1 = f(r, d, c)
    a2, b2, c2 = f(r + hh * a1, d + hh * b1, c + hh * c1)
    a3, b3, c3 = f(r + hh * a2, d + hh * b2, c + hh * c2)
    a4, b4, c4 = f(r + h * a3, d + h * b3, c + h * c3)
    sixth = h / 6.0
    return (
        r + sixth * (a1 + 2.0 * (a2 + a3) + a4),
        d + sixth * (b1 + 2.0 * (b2 + b3) + b4),
        c + sixth * (c1 + 2.0 * (c2 + c3) + c4),
    )


def _pose_to_polar(xp, pose, ref):
    """The polar row of ``pose`` (x, y, theta), written over ``xp``.  Both
    angles are unwrapped against those of the polar row ``ref``, so a run
    stays on the chart initial_polar() picked for the controller."""
    x, y, theta = pose
    two_pi = 2.0 * math.pi
    delta = xp.atan2(y + 0.0, x) + math.pi
    delta = delta + two_pi * xp.round((ref[1] - delta) / two_pi)
    gamma = delta - theta
    return xp.hypot(x, y), delta, gamma + two_pi * xp.round((ref[2] - gamma) / two_pi)


def _pose_field(cid: ControllerId, g: Gains, xp, ref) -> Callable:
    """The closed loop in the pose for one RK4 step from the polar row
    ``ref``, its inputs computed at each stage's :func:`_pose_to_polar` row."""
    u = ctl.closed_loop_input(cid, g, xp)

    def field(x, y, theta):
        v, omega = u(*_pose_to_polar(xp, (x, y, theta), ref))
        return v * xp.cos(theta), v * xp.sin(theta), omega

    return field


_KERNEL_IDS = itertools.count()

# Each kind of kernel's loop around its traced ``{step}`` to ``{out}``: polar
# steps floats (r, d, c), passing each step to ``extend``; array steps arrays
# (m,) into the rows R, D, C of each block[k] (3, m), through the ``{n}``
# scratch buffers ``{buffers}``; cartesian steps the pose of a row (x, y, th,
# r, d, c) and passes it with its polar row ``{polar}`` (from ``{map}``), or
# returns True on a step that lands exactly on the target.
_LOOPS = {
    "polar": ("def kernel(r, d, c, steps, extend):\n    for _ in range(steps):{step}\n"
              "        r, d, c = {out}\n        extend((r, d, c))\n"),
    "array": ("def kernel(r, d, c, block):\n    [{buffers}] = empty(({n}, len(r)))\n"
              "    for R, D, C in block:{step}\n        r, d, c = R, D, C\n"),
    "cartesian": ("def kernel(x, y, th, r, d, c, steps, extend):\n    for _ in range(steps):{step}\n"
                  "        x, y, th = {out}\n        if on_target(x, y):\n            return True{map}\n"
                  "        r, d, c = {polar}\n        extend((x, y, th, r, d, c))\n    return False\n"),
}


_LOCAL = re.compile(r"\bv\d+\b")


def _loop_body(lines, live) -> str:
    """The traced ``lines`` (expression, local) as a loop body.  A local
    read by exactly one later line, and not in ``live``, is written into
    that line in parentheses: the same operations on the same operands,
    without the store and load."""
    reads = collections.Counter(_LOCAL.findall(" ".join(expr for expr, _ in lines)))
    one, body = {}, []
    for expr, name in lines:
        expr = _LOCAL.sub(lambda v: f"({one.pop(v[0])})" if v[0] in one else v[0], expr)
        if reads[name] == 1 and name not in live:
            one[name] = expr
        else:
            body.append(f"\n        {name} = {expr}")
    return "".join(body)


# The ufunc of each traced operator, and those ndarray.__pow__ calls in
# place of ``power`` for these exponents.
_UFUNCS = {"+": "add", "-": "subtract", "*": "multiply", "/": "divide", "**": "power"}
_POWERS = {"2": "square", "0.5": "sqrt", "(-1)": "reciprocal"}
_CALL = re.compile(r"(\w+)\((.*)\)")


def _array_body(lines, outs, consts) -> tuple[str, int, dict]:
    """The traced ``lines`` (expression, local) as an array loop body, each
    one call with ``out=``: of the ufunc that computes its operator or power
    on arrays, or of the :data:`~unipark.kernels.ARRAY` primitive it names,
    so each lane sees the operations of the expression form.  The outputs
    ``outs`` go into the rows R, D, C and every other local into a scratch
    buffer ``b<i>``.  A buffer takes a new value after the line that last
    reads its old one, so no call writes over its own operands (``sinc``
    reads its argument after writing ``out``).  Each constant, a literal or
    one of ``consts``, is bound once as a 0-d float64 array ``f<i>``.
    Returns the body, the buffer count and the names it calls and reads."""
    last = {v: i for i, (expr, _) in enumerate(lines) for v in _LOCAL.findall(expr)}
    held, scope, free, body, n = dict(zip(outs, "RDC")), {}, [], [], 0
    names = {}  # each constant's text to its name

    def operand(x: str) -> str:
        if x in held or x in ("r", "d", "c"):
            return held.get(x, x)
        if x not in names:
            names[x] = f"f{len(names)}"
            scope[names[x]] = np.asarray(consts[x] if x in consts else float(x.strip("()")), dtype=float)
        return names[x]

    for i, (expr, name) in enumerate(lines):
        if call := _CALL.fullmatch(expr):
            fn, args = call[1], call[2].split(", ")
        elif expr[0] == "-":
            fn, args = "negative", [expr[1:]]
        else:
            a, op, b = expr.split(" ")
            fn, args = (_POWERS[b], [a]) if op == "**" and b in _POWERS else (_UFUNCS[op], [a, b])
        scope[fn] = getattr(ARRAY if fn in TRACED else np, fn)
        args = ", ".join(map(operand, args))
        if name not in held:
            if not free:
                free.append(f"b{n}")
                n += 1
            held[name] = free.pop()
        body.append(f"\n        {fn}({args}, out={held[name]})  # {name} = {expr}")
        free += [held[v] for v in dict.fromkeys([*_LOCAL.findall(expr), name])
                 if last.get(v, i) == i and v not in outs]
    return "".join(body), n, scope


@lru_cache(maxsize=64)
def _rk4_kernel(cid: ControllerId, g: Gains, h: float, loop: str = "polar") -> Callable:
    """The RK4 of ``cid``'s closed loop at step ``h`` compiled into the
    ``loop`` of :data:`_LOOPS`, the one stepper of both integrators: :func:`_rk4_step`
    over the closed-loop field (Cartesian: :func:`_pose_field`, then
    :func:`_pose_to_polar`) traced through :data:`~unipark.kernels.TRACE`,
    the same float operations in the same order calling the same primitives
    (ARRAY's in the array loop), with ``g`` and ``h`` folded and repeated
    expressions computed once, so a step is bitwise the interpreted one and
    raises in the step where it does.  The polar and Cartesian loops write
    every local read once into its reader (:func:`_loop_body`); the array
    loop computes each line into a buffer (:func:`_array_body`).  Its
    source is in :mod:`linecache`, as ``<rk4 law #n>``, while the kernel
    lives."""
    tape = Tape()
    if loop == "cartesian":
        ref = (None, Sym(tape, "d"), Sym(tape, "c"))
        out = _rk4_step(_pose_field(cid, g, TRACE, ref), tuple(Sym(tape, v) for v in ("x", "y", "th")), h)
    else:
        out = _rk4_step(ctl.closed_loop_field(cid, g, TRACE), tuple(Sym(tape, v) for v in "rdc"), h)
    n = len(tape.lines)
    polar = ", ".join(map(tape.text, _pose_to_polar(TRACE, out, ref))) if loop == "cartesian" else ""
    outs = list(map(tape.text, out))
    lines = list(tape.lines.items())
    if loop == "array":
        step, buffers, scope = _array_body(lines, outs, tape.consts)
        src = _LOOPS[loop].format(step=step, n=buffers, buffers=", ".join(f"b{i}" for i in range(buffers)))
        scope["empty"] = np.empty
    else:
        # The outputs stay live, and so do the step's locals that the map reads.
        live = set(_LOCAL.findall(" ".join([*outs, polar, *(expr for expr, _ in lines[n:])])))
        src = _LOOPS[loop].format(step=_loop_body(lines[:n], live), out=", ".join(outs),
                                  map=_loop_body(lines[n:], set(_LOCAL.findall(polar))), polar=polar)
        scope = {name: getattr(SCALAR, name) for name in re.findall(r"(\w+)\(", " ".join(tape.lines))}
        scope |= tape.consts | {"on_target": on_target}
    if "si" in scope:
        _load_si()  # in a sweep's caller, whose forked workers then inherit scipy
    filename = f"<rk4 {cid.value} #{next(_KERNEL_IDS)}>"
    exec(compile(src, filename, "exec"), scope)
    kernel = scope["kernel"]
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    weakref.finalize(kernel, linecache.cache.pop, filename, None)
    return kernel


def _kernel_rows(kernel: Callable, args: list, steps: int, width: int) -> tuple[np.ndarray, bool]:
    """The rows of ``width`` floats that a polar or Cartesian ``kernel`` of
    :func:`_rk4_kernel` passes on in ``steps`` steps from the row ``args``,
    as a (steps, width) block, and whether the run landed exactly on the
    target (the block then ends before the landing step), under the
    module's one stage-error policy: NaN rows from a raising step on.  Every
    scalar step of both integrators is taken here."""
    rows: list[float] = []
    try:
        landed = bool(kernel(*args, steps, rows.extend))
    except (ArithmeticError, ValueError):
        landed = False
    n = len(rows) // width
    block = np.full((n if landed else steps, width), np.nan)
    block[:n] = np.fromiter(rows, float, len(rows)).reshape(n, width)
    return block, landed


# A batch's block takes at most this many steps, and at most this many
# lane-steps (steps times active runs): the block buffer and the monitors'
# (K, m) temporaries then stay within a few MiB.  A scalar run's block takes
# this many steps, or a sixteenth of the steps it has kept from 1024 on.
_BLOCK_STEPS = 64
_BLOCK_LANE_STEPS = 16384

# The batch steps at most this many active runs one at a time with the polar
# kernel, and more with the array kernel.  An array step costs 24-53 us
# at 1 to 48 runs, a scalar run-step 1.0-1.9 us (glofo, whose Si is slow,
# 4.5 us).  At 16 runs the scalar steps take 0.58-0.76 of the array steps'
# time (glofo 2.1); they break even at 24-32 runs, but moving the constant
# moves the last bits of runs that cross from the array kernel.  Per 64-step
# block, metric-ball starts, unit gains, dt 0.01, 2-vCPU VM.
_SCALAR_RUNS = 16

# A batch steps at least this many active runs on every usable CPU
# (_split_blocks): the narrowest width at which splitting did not lose in
# wall time.  A globa batch of 40 steps that no run leaves, forking
# included, ran at 0.44x one process's speed split at 256 runs, 0.51x at
# 512, 1.01x at 1024 and 1.03x at 2048; whole metric-ball batches to
# t_max 100 ran at 0.87x at 512 runs (split from 512), and at 1.22x at 2048
# and 1.49x at 3001 runs (split from 1024).  Medians of 21 alternating
# calls, dt 0.01, 2-vCPU VM.
_SPLIT_RUNS = 1024


# How a run ends, by the code of _block_stops; 0, going on, ends it at t_max.
_ENDINGS = (Termination.T_MAX, Termination.CONVERGED, Termination.BARRIER_GUARD, Termination.NUMERIC)
_CONVERGED, _GUARD, _NUMERIC = 1, 2, 3


def _block_stops(space: StateSpaceId, states: np.ndarray, polar: np.ndarray, barrier_margin: float,
                 stop_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """How each of m runs ends in a block of K steps, the one decision of
    both integrators, from the stepped chart states (K, 3, m) and the polar
    rows they map to (the same array in the polar chart).

    A row ends its run when its chart state is not finite (numeric), else
    when a constrained angle has magnitude ``pi - barrier_margin`` or more
    (barrier guard), else when its array metric, the value the log and the
    batch report, is below ``stop_tol`` (converged).  Returns ``kept`` and
    ``code`` (m,): the rows each run keeps (all K while it goes on, up to
    and including a converging row, up to a numeric or guard row) and the
    index of its ending in :data:`_ENDINGS`, 0 while it goes on.  Call it
    under ``np.errstate(all="ignore")``.

    Most blocks end no run, and are answered from a few whole-block
    reductions: every state finite, every constrained angle below the limit
    and every rho at least ``stop_tol`` (the metric adds non-negative terms
    to rho, so it is at least rho).  A block of no rows ends no run.
    """
    steps, _, m = states.shape
    limit = math.pi - barrier_margin
    rho, delta, gamma = polar[:, 0], polar[:, 1], polar[:, 2]
    angles = constrained_angles(space, delta, gamma)
    if (np.isfinite(states).all() and rho.min(initial=np.inf) >= stop_tol
            and all(np.abs(a).max(initial=0.0) < limit for a in angles)):
        return np.full(m, steps), np.zeros(m, dtype=int)
    # Each row's code, a later rule overriding an earlier one.
    codes = (metric_values(ARRAY, space, rho, delta, gamma) < stop_tol) * _CONVERGED
    for a in angles:
        codes[np.abs(a) >= limit] = _GUARD
    codes[~np.isfinite(states).all(axis=1)] = _NUMERIC
    first = (codes > 0).argmax(axis=0)
    code = codes[first, np.arange(m)]
    return np.where(code > 0, first + (code == _CONVERGED), steps), code


def integrate(s: Scenario) -> Trajectory:
    """Run the scenario in the chart selected by ``s.frame``.

    The run's log holds one row per step: its polar row, or in the
    Cartesian chart its pose followed by its polar row.  Each block is
    :func:`_kernel_rows` of the chart's kernel from the last row, over
    ``_BLOCK_STEPS`` steps, or a sixteenth of the k steps kept so far once
    that is more, to at most t_max; the run keeps the rows
    :func:`_block_stops` gives it and ends as it says, the steps past them
    discarded.  The per-block cost is then spread over a long run, which
    steps at most k/16 + ``_BLOCK_STEPS`` steps past its end.  A Cartesian
    step that lands exactly on the target ends the run as converged,
    unlogged.
    """
    p0 = s.initial_polar()
    row = [p0.rho, p0.delta, p0.gamma]
    if s.frame == "cartesian":
        c0 = s.initial_cartesian()
        if on_target(c0.x, c0.y):
            raise ConfigError("cartesian integration requires a nonzero initial position")
        row = [c0.x, c0.y, c0.theta, *row]
    kernel = _rk4_kernel(s.controller, s.gains, s.dt, s.frame)
    log = [np.array([row])]
    n_max, space, k = s.max_steps, s.space, 0
    end = _CONVERGED if metric_values(ARRAY, space, p0.rho, p0.delta, p0.gamma) < s.stop_tol else 0
    with np.errstate(all="ignore"):
        while not end and k < n_max:
            steps = min(max(_BLOCK_STEPS, k // 16), n_max - k)
            block, landed = _kernel_rows(kernel, log[-1][-1].tolist(), steps, len(row))
            kept, code = _block_stops(space, block[:, :3, None], block[:, -3:, None], s.barrier_margin,
                                      s.stop_tol)
            keep = int(kept[0])
            end = int(code[0]) or (_CONVERGED if landed else 0)
            log.append(block[:keep])
            k += keep
    log = np.concatenate(log)
    return _finish(s, np.arange(len(log)) * s.dt, log[:, -3:], _ENDINGS[end],
                   cartesian=log[:, :3] if s.frame == "cartesian" else None)


def axis_crossings(cartesian: np.ndarray, dt: float) -> list[AxisCrossing]:
    """Every sign change of y between consecutive rows of a fixed-step
    Cartesian log (N, 3), with t and x linearly interpolated at y = 0."""
    x = cartesian[:, 0]
    y = cartesian[:, 1]
    out: list[AxisCrossing] = []
    with np.errstate(all="ignore"):
        sign_change = (y[:-1] * y[1:] < 0.0) | ((y[1:] == 0.0) & (y[:-1] != 0.0))
        for i in np.flatnonzero(sign_change):
            frac = y[i] / (y[i] - y[i + 1])
            out.append(AxisCrossing(t=float((i + frac) * dt), x=float(x[i] + frac * (x[i + 1] - x[i]))))
    return out


def front_line_crossings(traj: Trajectory) -> list[AxisCrossing]:
    """Crossings of {y = 0} with x > 0, interpolated from the logged
    Cartesian samples (usable for polar-chart runs too)."""
    return [c for c in axis_crossings(traj.cartesian, traj.meta["dt"]) if c.in_front]


# ---------------------------------------------------------------------------
# Vectorised batch integration across many initial states.
# ---------------------------------------------------------------------------


@dataclass
class BatchResult:
    """Streaming diagnostics of a batch of runs sharing one scenario setup.

    Each run ends at its first terminating step, with the termination rules
    of :func:`integrate`; ``final_states`` is the last state it logs (the one
    before a guard trip or a numeric stop), and only summary statistics are
    stored.  The counters and extrema take in the initial state and every
    stepped state up to the end, the converging step included; a step that
    trips the barrier guard or is not finite is not counted.
    """

    converged: np.ndarray
    convergence_time: np.ndarray
    v_violations: np.ndarray
    min_barrier_margin: np.ndarray
    max_abs_delta: np.ndarray
    max_abs_gamma: np.ndarray
    barrier_trips: np.ndarray
    numeric_failures: np.ndarray
    final_states: np.ndarray
    final_metric: np.ndarray
    extra_v_violations: np.ndarray | None = None  # (n_extra, N) when monitored


def integrate_batch(
    s: Scenario,
    initial_states: np.ndarray,
    extra_lyapunov: Sequence[LyapunovFn] = (),
) -> BatchResult:
    """Integrate many polar initial states (N, 3) under one scenario setup.

    Its kernels come from the generator of :func:`integrate`'s, and
    lockstep equivalence tests in the suite tie the two paths together.
    ``extra_lyapunov`` adds further certificates whose per-step monotonicity
    violations are counted alongside the scenario's own.

    The runs still going on are stepped in blocks and checked once per
    block, as the module docstring describes; the kernel depends only on
    how many go on, so results are deterministic, and a batch of at most
    ``_SCALAR_RUNS`` runs equals :func:`integrate` run by run, bit for bit,
    a raising stage included.  A wider batch steps in the array loop, where
    numpy's ``tan`` and ``arctan`` and its squares (``np.square``, ``x*x``,
    for the polar loop's ``x ** 2``, libm's ``pow``) round a few arguments
    differently, so its runs may differ in the last bits.  Each run holds
    its ending code of :func:`_block_stops` and the step of its last kept
    row.  Its counters and extrema take in the rows it keeps, and its state
    becomes the last of them.  The flags and convergence times are read off
    the codes at the end, the margins off the extrema.

    While at least ``_SPLIT_RUNS`` runs go on and more than one CPU is
    usable, the blocks are stepped in shares of the runs, by the caller and
    by forked workers (:func:`_split_blocks`), as the module docstring
    describes; the result is bitwise one process's.  ``_SPLIT_RUNS`` is the
    narrowest width at which split blocks did not lose to one process in
    wall time, timed on globa batches of 256 to 2048 runs that none of them
    leaves (its comment gives the figures).
    """
    ys = np.array(initial_states, dtype=float).reshape(-1, 3).T.copy()  # (3, N)
    n = ys.shape[1]
    space = s.space
    monitors = [s.lyapunov(), *extra_lyapunov]
    # Monitors sharing one certificate V_dg evaluate it once per block.
    clfs = list(dict.fromkeys(fn.clf for fn in monitors))
    clf_of = [clfs.index(fn.clf) for fn in monitors]

    viol = np.zeros((len(monitors), n), dtype=int)
    max_ad = np.abs(ys[1])
    max_ag = np.abs(ys[2])

    # Certificates like cosh(.) overflow to inf on extreme starts; inf is an
    # honest "very large" for the monotonicity counters, so warnings are off.
    with np.errstate(all="ignore"):
        prev = [np.asarray(fn.value(ys[0], ys[1], ys[2]), dtype=float) for fn in monitors]
        end = np.where(metric_values(ARRAY, space, ys[0], ys[1], ys[2]) < s.stop_tol, _CONVERGED, 0)
    end_step = np.zeros(n, dtype=int)
    n_max = s.max_steps
    h = s.dt

    def step_block(lanes: np.ndarray, k: int, m: int) -> tuple[np.ndarray, int]:
        """Step the runs ``lanes`` one block from step k, its length and
        kernel set by the m runs of the whole batch still going on; return
        those of ``lanes`` still going on, and the step after the block."""
        steps = min(_BLOCK_STEPS, max(1, _BLOCK_LANE_STEPS // m), n_max - k)
        if not lanes.size:  # a share whose runs have all ended
            return lanes, k + steps
        block = np.empty((steps, 3, lanes.size))
        if m <= _SCALAR_RUNS:  # run by run, as integrate steps the polar chart
            kernel = _rk4_kernel(s.controller, s.gains, h, "polar")
            for j, run in enumerate(ys[:, lanes].T.tolist()):
                block[:, :, j] = _kernel_rows(kernel, run, steps, 3)[0]
        else:
            _rk4_kernel(s.controller, s.gains, h, "array")(*ys[:, lanes], block)
        rho, delta, gamma = block[:, 0], block[:, 1], block[:, 2]

        kept, code = _block_stops(space, block, block, s.barrier_margin, s.stop_tol)
        counted = np.arange(steps)[:, None] < kept

        max_ad[lanes] = np.maximum(max_ad[lanes], np.where(counted, np.abs(delta), -np.inf).max(axis=0))
        max_ag[lanes] = np.maximum(max_ag[lanes], np.where(counted, np.abs(gamma), -np.inf).max(axis=0))
        rho_sq = rho**2
        v_dg = [clf.value(delta, gamma) for clf in clfs]
        for i, fn in enumerate(monitors):
            v = np.asarray(fn.of_parts(rho_sq, v_dg[clf_of[i]]), dtype=float)
            before = np.concatenate([prev[i][None, lanes], v[:-1]])
            viol[i, lanes] += (counted & _rises(before, v)).sum(axis=0)
            prev[i][lanes] = v[-1]

        # A run's state is its last kept row, the one integrate logs last.
        moved = np.flatnonzero(kept)
        ys[:, lanes[moved]] = block[kept[moved] - 1, :, moved].T
        ended = code > 0
        end[lanes[ended]] = code[ended]
        end_step[lanes[ended]] = k + kept[ended]
        return lanes[~ended], k + steps

    lanes, k = np.flatnonzero(end == 0), 0  # the runs still going on, and the steps they took
    with np.errstate(all="ignore"):
        if lanes.size >= _SPLIT_RUNS and _usable_cpus() > 1:
            _rk4_kernel(s.controller, s.gains, h, "array")  # compiled once, for the workers too
            lanes, k = _split_blocks(step_block, lanes, n_max, [ys, viol, max_ad, max_ag, *prev, end, end_step])
        while k < n_max and lanes.size:
            lanes, k = step_block(lanes, k, lanes.size)
        final_metric = metric_values(ARRAY, space, ys[0], ys[1], ys[2])

    converged = end == _CONVERGED
    return BatchResult(
        converged=converged,
        convergence_time=np.where(converged, end_step * h, np.nan),
        v_violations=viol[0],
        # Exact: pi - x rounds to a value that never grows with x, so the
        # least margin over the counted rows is pi minus their largest |angle|.
        min_barrier_margin=barrier_margin_values(space, max_ad, max_ag),
        max_abs_delta=max_ad,
        max_abs_gamma=max_ag,
        barrier_trips=end == _GUARD,
        numeric_failures=end == _NUMERIC,
        final_states=ys.T.copy(),
        final_metric=final_metric,
        extra_v_violations=viol[1:] if len(monitors) > 1 else None,
    )


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------


@dataclass
class SweepRecord:
    """Per-grid-point summary of one run."""

    index: int
    initial: tuple[float, float, float]
    termination: str
    convergence_time: float | None
    path_length: float
    steering_effort: float
    min_barrier_margin: float
    v_violations: int
    front_crossings: int
    error: str | None = None


def sweep_point(base: Scenario, index: int, initial) -> tuple[SweepRecord, Trajectory | None]:
    """Integrate ``base`` from one grid point, once.

    Returns the point's record and its trajectory.  A point that cannot be
    run is recorded in the ``error`` field, with ``None`` for the
    trajectory, rather than raised.
    """
    start = astuple(initial)
    try:
        traj = integrate(replace(base, initial=initial))
    except UniparkError as e:
        return SweepRecord(
            index=index,
            initial=start,
            termination="error",
            convergence_time=None,
            path_length=math.nan,
            steering_effort=math.nan,
            min_barrier_margin=math.nan,
            v_violations=0,
            front_crossings=0,
            error=str(e),
        ), None
    return SweepRecord(
        index=index,
        initial=start,
        termination=traj.termination.value,
        convergence_time=traj.convergence_time(),
        path_length=traj.path_length(),
        steering_effort=traj.steering_effort(),
        min_barrier_margin=traj.min_barrier_margin(base.space),
        v_violations=traj.v_monotonicity_violations(),
        front_crossings=len(front_line_crossings(traj)),
        error=None,
    ), traj


def _deal(fn: Callable, items: Sequence, i: int, token: tuple) -> list:
    """``(i, fn(items[i]))`` for item ``i``, then each next index read from ``token``."""
    out = []
    while i < len(items):
        out.append((i, fn(items[i])))
        i = int.from_bytes(os.read(token[0], 8), "little")
        os.write(token[1], (i + 1).to_bytes(8, "little"))
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on: the most processes a forked map or
    a split batch runs on.  1 where there is no ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fork(work: Callable, out: int, close: Sequence[int]) -> int:
    """Fork a worker that closes the descriptors ``close`` and pickles
    ``work()``, or the exception it raises, to the pipe ``out``; it leaves
    only through ``os._exit``.  Returns its pid."""
    pid = os.fork()
    if pid == 0:
        try:
            for fd in close:
                os.close(fd)
            try:
                result = work()
            except Exception as e:
                result = e
            with open(out, "wb") as fh:
                fh.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
            os._exit(0)
        finally:
            os._exit(1)
    return pid


def _take(fd: int):
    """What a :func:`_fork` worker pickled to the pipe ``fd``, read to its
    end; an exception it sent, or its ending without a result, is raised."""
    with open(fd, "rb", closefd=False) as fh:
        try:
            out = pickle.load(fh)
        except EOFError:
            out = RuntimeError("a forked worker ended without a result")
    if isinstance(out, Exception):
        raise out
    return out


def _reap(pids: Sequence[int], fds: Sequence[int]) -> None:
    """Close ``fds``, then kill and reap every worker of ``pids``."""
    for fd in fds:
        os.close(fd)
    for pid in pids:
        os.kill(pid, signal.SIGKILL)  # a no-op on an exited worker, unreaped until here
        os.waitpid(pid, 0)


def _forked_map(fn: Callable, items: Sequence) -> list:
    """``[fn(x) for x in items]`` over n workers, n = min(usable CPUs, items).  Worker
    w takes item w, then whichever is free first takes the next, whose index is the
    one 8-byte record of the ``token`` pipe.  Worker 0 is the caller; the others are
    forked (``fn`` need not pickle) and pickle their ``(index, result)`` pairs, or
    exception, raised here, to a pipe drained before they are killed and reaped.  The
    caller unpickles each pipe as it reads it, so it holds each result once.  A
    worker that raises sets the index to the end, so the others take no more items."""
    n = max(1, min(_usable_cpus(), len(items)))
    token = os.pipe()
    os.write(token[1], n.to_bytes(8, "little"))
    pids, fds = [], []

    def work(w: int) -> list:
        try:
            return _deal(fn, items, w, token)
        except Exception:
            # Every worker stops at its next read of the index.
            os.read(token[0], 8)
            os.write(token[1], len(items).to_bytes(8, "little"))
            raise

    try:
        for w in range(1, n):
            fd, wfd = os.pipe()
            fds.append(fd)
            try:
                pids.append(_fork(partial(work, w), wfd, fds))
            finally:
                os.close(wfd)
        done = _deal(fn, items, 0, token)
        for fd in fds:
            done += _take(fd)
    finally:
        _reap(pids, (*fds, *token))
    return [r for _, r in sorted(done, key=lambda pair: pair[0])]


# The record a split batch's worker sends in place of a count when its
# pickled result or exception follows.
_END = b"\xff" * 8


def _split_blocks(step_block: Callable, lanes: np.ndarray, n_max: int, runs: list) -> tuple[np.ndarray, int]:
    """Step the runs ``lanes`` of a batch from step 0 while at least
    ``_SPLIT_RUNS`` of them go on: dealt in contiguous shares to the caller
    and to forked workers, one process per usable CPU and per
    ``_SPLIT_RUNS // 2`` runs.  Before each block each worker sends the
    caller its share's count of runs going on, and the caller sends back
    the batch's, from which every process's ``step_block(share, k, m)``
    sets the block's length and kernel as one process would.  When that
    count drops below ``_SPLIT_RUNS``, or at ``n_max``, each worker sends
    its share's entries of ``runs`` (arrays indexed by run on their last
    axis, which ``step_block`` changes only at its own runs) and its runs
    going on, and exits.  Returns the runs going on and the step reached."""
    shares = np.array_split(lanes, min(_usable_cpus(), lanes.size // (_SPLIT_RUNS // 2)))
    ups, downs, pids = [], [], []

    def work(share: np.ndarray, up: int, down: int) -> tuple:
        def total(count: int) -> int:
            os.write(up, count.to_bytes(8, "little"))
            return int.from_bytes(os.read(down, 8), "little")

        try:
            going_on, _ = _share_blocks(step_block, share, n_max, total)
            return going_on, [a[..., share] for a in runs]
        finally:
            os.write(up, _END)

    def receive(fd: int):
        record = os.read(fd, 8)
        return int.from_bytes(record, "little") if record and record != _END else _take(fd)

    def total(count: int) -> int:
        count += sum(receive(fd) for fd in ups)
        for fd in downs:
            os.write(fd, count.to_bytes(8, "little"))
        return count

    try:
        for share in shares[1:]:
            up, up_w = os.pipe()
            down_r, down = os.pipe()
            ups.append(up)
            downs.append(down)
            try:
                pids.append(_fork(partial(work, share, up_w, down_r), up_w, [*ups, *downs]))
            finally:
                os.close(up_w)
                os.close(down_r)
        lanes, k = _share_blocks(step_block, shares[0], n_max, total)
        for fd, share in zip(ups, shares[1:]):
            going_on, parts = receive(fd)
            for a, part in zip(runs, parts):
                a[..., share] = part
            lanes = np.concatenate([lanes, going_on])
    finally:
        _reap(pids, [*ups, *downs])
    return lanes, k


def _share_blocks(step_block: Callable, lanes: np.ndarray, n_max: int, total: Callable) -> tuple[np.ndarray, int]:
    """One process's loop of :func:`_split_blocks` over its share ``lanes``,
    ``total(count)`` giving the batch's count of runs going on."""
    k = 0
    while k < n_max and (m := total(lanes.size)) >= _SPLIT_RUNS:
        lanes, k = step_block(lanes, k, m)
    return lanes, k


def _compile_kernels(bases: Sequence[Scenario]) -> None:
    """Compile the kernel of each base of a sweep in the caller, before
    :func:`_forked_map` deals out its points.  The workers inherit the
    kernels, and so scipy: :func:`_rk4_kernel` loads Si for a kernel that
    calls ``si`` (glofo's), here once, where a worker would lose it on exit."""
    for b in bases:
        _rk4_kernel(b.controller, b.gains, b.dt, b.frame)


def sweep(base: Scenario, grid: Sequence) -> list[SweepRecord]:
    """The :func:`sweep_point` records of every initial state in ``grid``,
    in grid order; :func:`_forked_map` deals each point to the first free
    worker, and workers return only records."""
    if len(grid) == 0:
        raise ConfigError("sweep grid is empty")
    _compile_kernels([base])
    return _forked_map(lambda point: sweep_point(base, *point)[0], list(enumerate(grid)))
