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
:func:`integrate` has its chart's fill take up to K steps of one run with
no check in between, returned as float arrays; :func:`integrate_batch`
compacts many runs under one setup to those still active and fills K steps
of them.  One termination test, :func:`_block_stops`, then finds each run's
first terminating step in the (K, runs) block.  The steps taken past it are
discarded, so every result is bitwise that of testing after every step.
Certificate values, controls and metrics of a scalar run are evaluated
vectorised over its stored states once it has ended; the batch checks its
monitors once per block.

One scalar fill, :func:`_scalar_block`, steps runs one at a time: it is the
polar chart's fill, and the batch's while at most ``_SCALAR_RUNS`` runs are
active (more are stepped at once on arrays, because an array step costs
about the same whatever its length).  A batch of at most
``_SCALAR_RUNS`` runs is therefore bitwise :func:`integrate` run by run.  A
run that crosses from the array fill differs only in the last bits (numpy's
``tan`` and ``arctan`` round a few arguments differently from ``math``'s),
so its last bits depend on when its batch thins below the constant; a
chaotic run in a large batch, such as bopa or barfli at dt >= 0.2, may
still take a different exit than in :func:`integrate`.

The Cartesian chart's fill steps the pose and rebuilds a continuous polar
state by unwrapping the transformed angles against the previous step.
After a Cartesian-chart run, every crossing of the x-axis is read off the
logged poses with the linearly interpolated crossing time and abscissa,
supporting the front-line (x > 0, y = 0) avoidance analysis.  No smoothing
is applied: the curvature discontinuity of the underlying feedback is
preserved in the log.

One policy holds for a step that raises: a stage (or the Cartesian map)
that raises ``ArithmeticError`` or ``ValueError``, a :class:`UniparkError`
included, leaves NaN rows from that step on, so the block test ends the run
there as numeric; any other error propagates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import controllers as ctl
from .controllers import ControllerId, Gains
from .errors import ConfigError, UniparkError
from .kernels import ARRAY, wrap_angle
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
        v = s.gains.k1 * rho * np.cos(gamma)
        omega = 0.5 * s.gains.k1 * np.sin(2.0 * gamma) + ctl.steering_tilde_many(
            s.controller, s.gains, delta, gamma
        )
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


def _scalar_block(f: Callable, y: np.ndarray, h: float, steps: int) -> np.ndarray:
    """``steps`` scalar RK4 steps of the field ``f`` from each run of ``y``
    (3, m), one run at a time, as a (steps, 3, m) block: the layout of
    :func:`_rk4_block` and :func:`_block_stops`.  It is the batch's scalar
    fill, and at m = 1 the polar chart's fill of :func:`integrate`.  A run
    whose stage raises ``ArithmeticError`` or ``ValueError`` has NaN rows
    from that step on, so the block test ends it as numeric; any other
    error propagates."""
    block = np.full((steps, 3, y.shape[1]), np.nan)
    for j, state in enumerate(y.T.tolist()):
        rows: list[float] = []
        try:
            for _ in range(steps):
                state = _rk4_step(f, state, h)
                rows.extend(state)
        except (ArithmeticError, ValueError):
            pass
        block[: len(rows) // 3, :, j] = np.fromiter(rows, float, len(rows)).reshape(-1, 3)
    return block


def _polar_fill(s: Scenario):
    """The polar chart's fill ``fill(y, p, steps) -> (states, polar rows,
    landed)``: the scalar fill of one run, whose states are its polar rows."""
    f = ctl.closed_loop_field(s.controller, s.gains)

    def fill(y, p, steps):
        block = _scalar_block(f, y, s.dt, steps)
        return block, block, False

    return fill


def _unwrap_near(angle: float, ref: float) -> float:
    two_pi = 2.0 * math.pi
    return angle + two_pi * round((ref - angle) / two_pi)


def _cartesian_chart(s: Scenario):
    """Cartesian kinematics, the feedback computed through the polar transform
    at every stage: the initial pose, ``field_at`` and ``to_polar``."""
    c0 = s.initial_cartesian()
    if c0.x * c0.x + c0.y * c0.y == 0.0:
        raise ConfigError("cartesian integration requires a nonzero initial position")
    tilde = ctl.make_steering_tilde(s.controller, s.gains)
    k1 = s.gains.k1

    # Both angles are unwrapped against the previous step's values, so the
    # run stays on the chart initial_polar() picked for the controller.
    def polar_cont(x: float, y: float, theta: float, ref):
        delta = _unwrap_near(math.atan2(y + 0.0, x) + math.pi, ref[1])
        return math.hypot(x, y), delta, _unwrap_near(delta - theta, ref[2])

    def field_at(ref):
        def field(x: float, y: float, theta: float):
            rho, delta, gamma = polar_cont(x, y, theta, ref)
            v = k1 * rho * math.cos(gamma)
            omega = 0.5 * k1 * math.sin(2.0 * gamma) + tilde(delta, gamma)
            return v * math.cos(theta), v * math.sin(theta), omega

        return field

    def to_polar(c, ref):
        # A step that lands exactly on the target has no polar angles.
        if c[0] * c[0] + c[1] * c[1] == 0.0:
            return None
        return polar_cont(*c, ref)

    return (c0.x, c0.y, c0.theta), field_at, to_polar


def _cartesian_fill(s: Scenario):
    """The initial pose (3, 1) and the Cartesian chart's fill: RK4 steps of
    the pose ``y``, each mapped to the polar row that continues ``p``, with
    NaN rows from a raising step on, as in :func:`_scalar_block`.  A step
    that lands exactly on the target has no polar angles: the blocks end
    before it, and ``landed`` is set."""
    c0, field_at, to_polar = _cartesian_chart(s)

    def fill(y, p, steps):
        y, p = y[:, 0].tolist(), p[:, 0].tolist()
        rows: list[float] = []
        landed = False
        try:
            for _ in range(steps):
                y = _rk4_step(field_at(p), y, s.dt)
                p = to_polar(y, p)
                if p is None:
                    landed = True
                    break
                rows.extend((*y, *p))
        except (ArithmeticError, ValueError):
            pass
        block = np.full((len(rows) // 6 if landed else steps, 2, 3, 1), np.nan)
        block[: len(rows) // 6, :, :, 0] = np.fromiter(rows, float, len(rows)).reshape(-1, 2, 3)
        # Copies: a kept pose must not hold its block's polar rows alive.
        return block[:, 0].copy(), block[:, 1].copy(), landed

    return np.reshape(c0, (3, 1)), fill


# A block takes at most this many steps, and at most this many lane-steps
# (steps times active runs): the block buffer and the monitors' (K, m)
# temporaries then stay within a few MiB.
_BLOCK_STEPS = 64
_BLOCK_LANE_STEPS = 16384

# The batch steps at most this many active runs one at a time with the
# scalar RK4, and more on arrays.  An array step costs 55-130 us whatever
# its length, a scalar run-step 2.5-13 us, depending on the law.  At 16 runs
# the scalar fill of a block takes 0.6-0.9 of the array fill's time for ten
# of the eleven laws (glofo, whose scalar Si is slow, 1.9); the two break
# even at 20-32 runs (glofo at 12).  Measured per 64-step block on
# metric-ball starts, unit gains, dt 0.01, shared 2-vCPU VM.
_SCALAR_RUNS = 16


def _block_stops(space: StateSpaceId, states: np.ndarray, polar: np.ndarray, limit: float, stop_tol: float):
    """The termination test of both integrators on a block of K steps of m
    runs: the stepped chart states (K, 3, m) and the polar rows they map to
    (the same array in the polar chart).

    A row ends its run when its chart state is not finite (numeric), else
    when a constrained angle has magnitude ``limit`` or more (barrier
    guard), else when its array metric, the value the log and the batch
    report, is below ``stop_tol`` (converged).  Returns ``bad`` and
    ``tripped`` (K, m) and ``stop`` (m,): the first row that ends each run,
    K where none does.  Call it under ``np.errstate(all="ignore")``.

    Most blocks end no run, and are answered from a few whole-block
    reductions: every state finite, every constrained angle below
    ``limit`` and every rho at least ``stop_tol`` (the metric adds
    non-negative terms to rho, so it is at least rho).  A block of no rows
    ends no run.
    """
    steps, _, m = states.shape
    rho, delta, gamma = polar[:, 0], polar[:, 1], polar[:, 2]
    angles = constrained_angles(space, delta, gamma)
    if (np.isfinite(states).all() and rho.min(initial=np.inf) >= stop_tol
            and all(np.abs(a).max(initial=0.0) < limit for a in angles)):
        return np.zeros((steps, m), dtype=bool), np.zeros((steps, m), dtype=bool), np.full(m, steps)
    bad = ~np.isfinite(states).all(axis=1)
    tripped = np.zeros_like(bad)
    for a in angles:
        tripped |= np.abs(a) >= limit
    tripped &= ~bad
    ends = bad | tripped | (metric_values(ARRAY, space, rho, delta, gamma) < stop_tol)
    return bad, tripped, np.where(ends.any(axis=0), ends.argmax(axis=0), steps)


def integrate(s: Scenario) -> Trajectory:
    """Run the scenario in the chart selected by ``s.frame``.

    The chart's fill takes a speculative block of up to ``_BLOCK_STEPS``
    steps; :func:`_block_stops` then finds the first step that ends the
    run, and the steps past it are discarded.  A step whose stage raises
    ends the run under the module's one policy, as in
    :func:`integrate_batch`.  A Cartesian step that lands exactly on the
    target ends the run as converged, unlogged.
    """
    p0 = s.initial_polar()
    p = np.array([[p0.rho], [p0.delta], [p0.gamma]])
    y, fill = _cartesian_fill(s) if s.frame == "cartesian" else (p, _polar_fill(s))
    states, polar = [y[None]], [p[None]]
    n_max = int(math.ceil(s.t_max / s.dt - 1e-9))
    space = s.space
    limit = math.pi - s.barrier_margin
    k = 0
    reason = Termination.CONVERGED if metric_values(ARRAY, space, p0.rho, p0.delta, p0.gamma) < s.stop_tol else None
    with np.errstate(all="ignore"):
        while reason is None and k < n_max:
            sb, pb, landed = fill(states[-1][-1], polar[-1][-1], min(_BLOCK_STEPS, n_max - k))
            bad, tripped, stop = _block_stops(space, sb, pb, limit, s.stop_tol)
            keep = int(stop[0])
            if keep < len(sb):
                reason = (Termination.NUMERIC if bad[keep, 0] else
                          Termination.BARRIER_GUARD if tripped[keep, 0] else Termination.CONVERGED)
                keep += reason is Termination.CONVERGED  # a converging row is logged
            elif landed:
                reason = Termination.CONVERGED
            states.append(sb[:keep])
            polar.append(pb[:keep])
            k += keep
    polar = np.concatenate(polar)
    return _finish(s, np.arange(len(polar)) * s.dt, polar, reason or Termination.T_MAX,
                   cartesian=np.concatenate(states) if s.frame == "cartesian" else None)


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


def _rk4_block(field: Callable, y: np.ndarray, h: float, steps: int) -> np.ndarray:
    """``steps`` RK4 steps of every lane of ``y`` (3, m), with the arithmetic
    of :func:`_rk4_step`; returns the stepped states as a (steps, 3, m)
    block, the layout :func:`_block_stops` tests.

    It is kept apart from :func:`_rk4_step`, which :func:`integrate` calls
    on tuples once per step, because its stage buffer is faster on arrays:
    ``batch_grid`` ``run_steps_per_s`` median 1.83e6 against 1.74e6 (10 of
    10 alternating pairs, shared 2-vCPU VM)."""
    m = y.shape[1]
    block = np.empty((steps, 3, m))
    stage = np.empty((4, 3, m))

    def f(i: int, x: np.ndarray) -> np.ndarray:
        stage[i, 0], stage[i, 1], stage[i, 2] = field(x[0], x[1], x[2])
        return stage[i]

    for k in range(steps):
        k1s = f(0, y)
        k2s = f(1, y + 0.5 * h * k1s)
        k3s = f(2, y + 0.5 * h * k2s)
        k4s = f(3, y + h * k3s)
        y = np.add(y, (h / 6.0) * (k1s + 2.0 * (k2s + k3s) + k4s), out=block[k])
    return block


def integrate_batch(
    s: Scenario,
    initial_states: np.ndarray,
    extra_lyapunov: Sequence[LyapunovFn] = (),
) -> BatchResult:
    """Integrate many polar initial states (N, 3) under one scenario setup.

    Arithmetic mirrors :func:`integrate` (same RK4, same field, written once
    in :func:`~unipark.controllers.closed_loop_field`); lockstep
    equivalence tests in the suite tie the two paths together.
    ``extra_lyapunov`` adds further certificates whose per-step monotonicity
    violations are counted alongside the scenario's own.

    The runs still active are stepped in blocks of K steps and checked once
    per block, as the module docstring describes: on arrays while more than
    ``_SCALAR_RUNS`` are active, one at a time with the scalar RK4 of
    :func:`integrate` once the batch has thinned to that many.  The choice
    depends only on the active-run count, so results are deterministic, and
    a batch of at most ``_SCALAR_RUNS`` runs equals :func:`integrate` run by
    run, bit for bit.  A stage that raises ends its run as :func:`integrate`
    does: as numeric at that step for ``ArithmeticError`` or ``ValueError``
    (a :class:`UniparkError` too), and any other error propagates.
    """
    ys = np.array(initial_states, dtype=float).reshape(-1, 3).T.copy()  # (3, N)
    n = ys.shape[1]
    space = s.space
    field = ctl.closed_loop_field(s.controller, s.gains, ARRAY)
    scalar_field = ctl.closed_loop_field(s.controller, s.gains)
    monitors = [s.lyapunov(), *extra_lyapunov]
    # Monitors sharing one certificate V_dg evaluate it once per block.
    clfs = list(dict.fromkeys(fn.clf for fn in monitors))
    clf_of = [clfs.index(fn.clf) for fn in monitors]

    barrier_trips = np.zeros(n, dtype=bool)
    numeric_failures = np.zeros(n, dtype=bool)
    conv_time = np.full(n, np.nan)
    viol = np.zeros((len(monitors), n), dtype=int)
    max_ad = np.abs(ys[1])
    max_ag = np.abs(ys[2])

    # Certificates like cosh(.) overflow to inf on extreme starts; inf is an
    # honest "very large" for the monotonicity counters, so warnings are off.
    with np.errstate(all="ignore"):
        prev = [np.asarray(fn.value(ys[0], ys[1], ys[2]), dtype=float) for fn in monitors]
        converged = metric_values(ARRAY, space, ys[0], ys[1], ys[2]) < s.stop_tol
    min_margin = np.minimum(np.full(n, np.inf), barrier_margin_values(space, ys[1], ys[2]))
    conv_time[converged] = 0.0
    active = ~converged

    n_max = int(math.ceil(s.t_max / s.dt - 1e-9))
    h = s.dt
    limit = math.pi - s.barrier_margin
    k = 0  # steps taken by the runs still active
    with np.errstate(all="ignore"):
        while k < n_max and active.any():
            lanes = np.flatnonzero(active)
            m = lanes.size
            steps = min(_BLOCK_STEPS, max(1, _BLOCK_LANE_STEPS // m), n_max - k)
            if m <= _SCALAR_RUNS:
                block = _scalar_block(scalar_field, ys[:, lanes], h, steps)
            else:
                block = _rk4_block(field, ys[:, lanes], h, steps)
            rho, delta, gamma = block[:, 0], block[:, 1], block[:, 2]

            bad, tripped, stop = _block_stops(space, block, block, limit, s.stop_tol)
            ok = ~(bad | tripped)
            ended = stop < steps
            counted = (np.arange(steps)[:, None] <= stop) & ok

            max_ad[lanes] = np.maximum(max_ad[lanes], np.where(counted, np.abs(delta), -np.inf).max(axis=0))
            max_ag[lanes] = np.maximum(max_ag[lanes], np.where(counted, np.abs(gamma), -np.inf).max(axis=0))
            margin = np.where(counted, barrier_margin_values(space, delta, gamma), np.inf)
            min_margin[lanes] = np.minimum(min_margin[lanes], margin.min(axis=0))
            rho_sq = rho**2
            v_dg = [clf.value(delta, gamma) for clf in clfs]
            for i, fn in enumerate(monitors):
                v = np.asarray(fn.of_parts(rho_sq, v_dg[clf_of[i]]), dtype=float)
                before = np.concatenate([prev[i][None, lanes], v[:-1]])
                viol[i, lanes] += (counted & _rises(before, v)).sum(axis=0)
                prev[i][lanes] = v[-1]

            # Keep the state before a guard trip or a numeric stop, as integrate logs.
            row = np.minimum(stop, steps - 1)
            row -= ended & ~ok[row, np.arange(m)]
            ys[:, lanes[row >= 0]] = block[row[row >= 0], :, np.flatnonzero(row >= 0)].T
            at = np.flatnonzero(ended)
            end, run = stop[at], lanes[at]
            numeric_failures[run] = bad[end, at]
            barrier_trips[run] = tripped[end, at]
            conv = ok[end, at]
            converged[run] = conv
            conv_time[run[conv]] = (k + 1 + end[conv]) * h
            active[run] = False
            k += steps
        final_metric = metric_values(ARRAY, space, ys[0], ys[1], ys[2])

    return BatchResult(
        converged=converged,
        convergence_time=conv_time,
        v_violations=viol[0],
        min_barrier_margin=min_margin,
        max_abs_delta=max_ad,
        max_abs_gamma=max_ag,
        barrier_trips=barrier_trips,
        numeric_failures=numeric_failures,
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


def _initial_tuple(initial) -> tuple[float, float, float]:
    if isinstance(initial, PolarState):
        return (initial.rho, initial.delta, initial.gamma)
    return (initial.x, initial.y, initial.theta)


def sweep_point(base: Scenario, index: int, initial) -> tuple[SweepRecord, Trajectory | None]:
    """Integrate ``base`` from one grid point, once.

    Returns the point's record and its trajectory.  A point that cannot be
    run is recorded in the ``error`` field, with ``None`` for the
    trajectory, rather than raised.
    """
    start = _initial_tuple(initial)
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


def sweep(base: Scenario, grid: Sequence) -> list[SweepRecord]:
    """The :func:`sweep_point` records of every initial state in ``grid``,
    in grid order; each trajectory is dropped as soon as it is summarised."""
    if len(grid) == 0:
        raise ConfigError("sweep grid is empty")
    return [sweep_point(base, i, initial)[0] for i, initial in enumerate(grid)]
