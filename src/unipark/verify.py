"""Numerical certificate verification.

Runs, per steering family: positive-definiteness sampling, analytic-gradient
checks against central finite differences, closed-form rate checks (exact
match for the forwarding/backstepping rates, domination for the Young-bounded
passivity rates), barrier blow-up checks, Jacobian checks against finite
differences of the nonlinear closed loops, pole-assignment round trips (one
block draw per family, the linearization formulas run on arrays), and the
two scalar appendix inequalities on a dense grid.

Every check returns a :class:`CheckResult` with its worst margin so reports
stay machine-readable; :func:`run_all` aggregates them into the JSON report
emitted by the CLI.  From 5000 samples on it runs the checks as jobs in
forked workers, one per usable CPU, each job replaying its stretch of the
serial random draws, so the report equals one process's.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import controllers as ctl
from .controllers import ControllerId, Gains
from .errors import ConfigError
from .kernels import ARRAY, _load_si
from .linearization import (
    _FAMILY_OF,
    DesignFamily,
    PoleSpec,
    assign_gains,
    block_roots,
    family_of_controller,
    gain_branches,
    jacobian,
)
from .lyapunov import (
    RateKind,
    SteeringClf,
    _appendix_slacks,
    _appendix_terms,
    steering_clf,
    steering_directional_derivative,
)
from .simulate import _forked_map
from .spaces import StateSpaceId

__all__ = [
    "CheckResult",
    "sample_interior",
    "sample_metric_ball",
    "positive_definiteness_check",
    "gradient_check",
    "rate_check",
    "barrier_blowup_check",
    "jacobian_fd_check",
    "eigenvalue_error",
    "pole_roundtrip_check",
    "lemma_grid_check",
    "strict_gain_sets",
    "run_all",
]

GRAD_RTOL = 1e-6
RATE_EQ_RTOL = 1e-9
RATE_DOM_SLACK = -1e-12
JACOBIAN_ATOL = 1e-6
POLE_ROUNDTRIP_TOL = 1e-10
LEMMA_SLACK = -1e-12
LEMMA_GAINS = range(1, 11)
# The lemma grid's 40001 points are taken in blocks of this many.  The
# whole grid's temporaries, about 2.3 MiB per gain, could be handed back to
# the kernel after each gain and faulted in again by the next, which made
# repeated in-process verify calls about 10 % slower in some processes; a
# block's (64 KiB each) mostly stay in the allocator's free lists.  Smaller
# blocks add numpy calls: at 4096 points a 2000-sample run took about 4 %
# longer in a process where the whole grid did not fault.
_LEMMA_BLOCK = 8192

# Runs of fewer samples keep their jobs in the calling process.  On one core
# they take well under 0.1 s (about 60 ms at 2000 samples on a 2-vCPU VM), so
# a fork saves tens of milliseconds at most, and it makes the run's time hang
# on a second core's load, which the caller cannot see: perfbench's
# calibrated timing of the 2000-sample verify probe spread about five times
# as widely across runs forked as in one process.
_FORK_MIN_SAMPLES = 5000


@dataclass
class CheckResult:
    name: str
    subject: str
    passed: bool
    worst: float
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Keep records JSON-serialisable regardless of numpy scalar leakage.
        self.passed = bool(self.passed)
        self.worst = float(self.worst)

    def to_record(self) -> dict:
        # Field by field: asdict deep-copies the sample records leaf by leaf,
        # about 5 of the 65 ms of a serial 2000-sample run_all.  Nested
        # details are shared with the result.
        return {"name": self.name, "subject": self.subject, "passed": self.passed,
                "worst": self.worst, "details": dict(self.details)}


def sample_interior(space: StateSpaceId, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 2) samples of (delta, gamma) strictly inside ``space``.

    Unconstrained axes draw from [-3, 3]; constrained axes from [-2.9, 2.9],
    a safe distance from the barrier so finite differences have room.
    """
    d_hi = 2.9 if space.delta_constrained else 3.0
    g_hi = 2.9 if space.gamma_constrained else 3.0
    return np.column_stack([rng.uniform(-d_hi, d_hi, n), rng.uniform(-g_hi, g_hi, n)])


def sample_metric_ball(
    space: StateSpaceId, n: int, rng: np.random.Generator, max_metric: float = 10.0
) -> np.ndarray:
    """(n, 3) polar states with metric in (0.3, max_metric], inside ``space``."""
    m = rng.uniform(0.3, max_metric, n)
    w = rng.dirichlet((1.0, 1.0, 1.0), n)
    signs = rng.choice((-1.0, 1.0), size=(n, 2))
    rho = w[:, 0] * m
    big_d = w[:, 1] * m * signs[:, 0]
    big_g = w[:, 2] * m * signs[:, 1]
    delta = 2.0 * np.arctan(0.5 * big_d) if space.delta_constrained else big_d
    gamma = 2.0 * np.arctan(0.5 * big_g) if space.gamma_constrained else big_g
    return np.column_stack([rho, delta, gamma])


def strict_gain_sets(n: int, rng: np.random.Generator) -> list[Gains]:
    """Random positive gain sets satisfying k1*k3 >= k2^2 exactly by
    construction (k2 drawn below sqrt(k1*k3))."""
    out = []
    for _ in range(n):
        k1 = rng.uniform(0.4, 3.0)
        k3 = rng.uniform(0.4, 3.0)
        k2 = math.sqrt(k1 * k3) * rng.uniform(0.3, 1.0)
        out.append(Gains(k1=k1, k2=k2, k3=k3, k4=rng.uniform(0.4, 3.0)))
    return out


def positive_definiteness_check(clf: SteeringClf, samples: np.ndarray) -> CheckResult:
    """V(0,0) = 0 and V > 0 at every off-origin sample."""
    v0 = float(clf.value(0.0, 0.0))
    vals = np.asarray(clf.value(samples[:, 0], samples[:, 1]))
    worst = float(np.min(vals))
    passed = abs(v0) < 1e-14 and worst > 0.0
    return CheckResult(
        "positive_definiteness", clf.controller.value, passed, worst, {"value_at_origin": v0}
    )


def gradient_check(clf: SteeringClf, samples: np.ndarray) -> CheckResult:
    """Analytic gradient vs central finite differences, relative error below
    GRAD_RTOL."""
    d, c = samples[:, 0], samples[:, 1]
    gd, gc = clf.grad(d, c)
    hd = 1e-6 * np.maximum(1.0, np.abs(d))
    hc = 1e-6 * np.maximum(1.0, np.abs(c))
    fd_d = (clf.value(d + hd, c) - clf.value(d - hd, c)) / (2.0 * hd)
    fd_c = (clf.value(d, c + hc) - clf.value(d, c - hc)) / (2.0 * hc)
    scale = np.maximum(1.0, np.maximum(np.abs(fd_d), np.abs(fd_c)))
    err = np.maximum(np.abs(gd - fd_d), np.abs(gc - fd_c)) / scale
    worst = float(np.max(err))
    return CheckResult("gradient_fd", clf.controller.value, worst < GRAD_RTOL, worst)


def rate_check(clf: SteeringClf, samples: np.ndarray) -> CheckResult:
    """Closed-form rate vs the directional derivative along the steering
    subsystem: equal to RATE_EQ_RTOL for equality-flag families, dominating
    with slack >= RATE_DOM_SLACK for upper-bound families."""
    d, c = samples[:, 0], samples[:, 1]
    vdot = np.asarray(steering_directional_derivative(clf, d, c))
    rate = np.asarray(clf.rate(d, c))
    if clf.rate_kind is RateKind.EQUALITY:
        err = np.abs(vdot - rate) / np.maximum(1.0, np.abs(rate))
        worst = float(np.max(err))
        return CheckResult("rate_equality", clf.controller.value, worst < RATE_EQ_RTOL, worst)
    slack = rate - vdot
    worst = float(np.min(slack))
    return CheckResult("rate_domination", clf.controller.value, worst >= RATE_DOM_SLACK, worst)


_BLOWUP_EXPONENTS = np.arange(1, 9)


def barrier_blowup_check(clf: SteeringClf) -> CheckResult:
    """V diverges monotonically along approach sequences to each constrained
    axis boundary (angle = pi - 10^-i)."""
    space = clf.space
    seqs = []
    approach = math.pi - 10.0 ** (-_BLOWUP_EXPONENTS.astype(float))
    if space.delta_constrained:
        seqs.append(("delta", clf.value(approach, np.full_like(approach, 0.5))))
        seqs.append(("delta-", clf.value(-approach, np.full_like(approach, 0.5))))
    if space.gamma_constrained:
        seqs.append(("gamma", clf.value(np.full_like(approach, 0.5), approach)))
        seqs.append(("gamma-", clf.value(np.full_like(approach, 0.5), -approach)))
    if not seqs:
        return CheckResult("barrier_blowup", clf.controller.value, True, math.inf,
                           {"note": "no constrained axis"})
    worst = math.inf
    ok = True
    for _, vals in seqs:
        vals = np.asarray(vals, dtype=float)
        ok &= bool(np.all(np.diff(vals) > 0.0)) and vals[-1] > 1e6
        worst = min(worst, float(vals[-1]))
    return CheckResult("barrier_blowup", clf.controller.value, ok, worst)


# Controllers covered by the closed-form Jacobians, in the order of the
# linearization family table.
JACOBIAN_CONTROLLERS: tuple[ControllerId, ...] = tuple(_FAMILY_OF)


def jacobian_fd_check(cid: ControllerId, g: Gains) -> CheckResult:
    """Analytic closed-loop Jacobian vs a central finite-difference Jacobian
    of the nonlinear closed loop at (1e-6, 0, 0)."""
    family = family_of_controller(cid)
    analytic = jacobian(family, g)
    f = ctl.closed_loop_field(cid, g)
    p0 = np.array([1e-6, 0.0, 0.0])
    h = 1e-6
    fd = np.zeros((3, 3))
    for j in range(3):
        dp = np.zeros(3)
        dp[j] = h
        hi = f(*(p0 + dp))
        lo = f(*(p0 - dp))
        fd[:, j] = (np.asarray(hi) - np.asarray(lo)) / (2.0 * h)
    worst = float(np.max(np.abs(fd - analytic)))
    return CheckResult(
        "jacobian_fd", cid.value, worst < JACOBIAN_ATOL, worst, {"family": family.value}
    )


# Doubles one pole request draws, per family.
_POLE_DRAWS = {f: 5 if f is DesignFamily.BACKSTEPPING else 3 for f in DesignFamily}


def _pole_block(family: DesignFamily, u: np.ndarray) -> tuple:
    """p1, re2, im2, re3, im3 and the backstepping epsilon (else None) of the
    requests -p1, -(re2 + i*im2), -(re3 + i*im3) drawn from the rows of u:
    3 doubles each, 5 for backstepping (its pair kind and epsilon).  Each
    ``Generator.uniform(lo, hi)`` is lo + (hi - lo)*u of the double it draws."""
    p1 = 0.2 + (3.0 - 0.2) * u[:, 0]
    if family is DesignFamily.PASSIVITY:  # conjugate pairs with damping <= 1/2
        re = 0.2 + (2.0 - 0.2) * u[:, 1]
        im = math.sqrt(3.0) * re * (1.0 + 1.5 * u[:, 2])
        return p1, re, im, re, -im, None
    pair = 0.2 + (3.0 - 0.2) * (u[:, 1:3] if family is DesignFamily.FORWARDING else u[:, 2:4])
    lo, hi = pair.min(axis=1), pair.max(axis=1)
    if family is DesignFamily.FORWARDING:
        return p1, lo, 0.0 * lo, hi, 0.0 * hi, None
    real = u[:, 1] < 0.5  # else a conjugate pair
    re = 0.2 + (2.0 - 0.2) * u[:, 2]
    im = np.where(real, 0.0, 0.1 + (2.0 - 0.1) * u[:, 3])
    re2, re3 = np.where(real, lo, re), np.where(real, hi, re)
    return p1, re2, im, re3, -im, (0.05 + (0.95 - 0.05) * u[:, 4]) * re2


def eigenvalue_error(achieved, wanted):
    """Largest distance between achieved and wanted eigenvalues under the
    pairing that makes it smallest, over the last axis: a float for one
    triple, else an array.  Every ordering of the achieved values is tried,
    so a conjugate pair whose real parts differ in the last digits is still
    matched to its own request."""
    a, w = (np.asarray(z, dtype=complex) for z in (achieved, wanted))
    d = a[..., :, None] - w[..., None, :]
    d = np.hypot(d.real, d.imag)  # d[..., i, j] = |a_i - w_j|
    cols = list(range(a.shape[-1]))
    return np.min([d[..., order, cols].max(axis=-1) for order in itertools.permutations(cols)], axis=0)


def pole_roundtrip_check(
    family: DesignFamily, rng: np.random.Generator, n: int = 1000
) -> CheckResult:
    """assign_gains -> jacobian -> eigenvalues reproduces n random requests,
    drawn as one ``rng.random((n, k))`` block and run through the
    linearization formulas on arrays.  The first sample a check's mask flags
    is replayed through assign_gains, which raises as a sample-by-sample loop
    would; a gain set only not strictly passive fails the check there."""
    u = rng.random((n, _POLE_DRAWS[family]))
    p1, re2, im2, re3, im3, eps = _pole_block(family, u)
    wanted = np.stack([-p1, -re2, -re3], -1) + 1j * np.stack([0.0 * p1, -im2, -im3], -1)
    err = np.zeros(n)
    with np.errstate(all="ignore"):
        flagged = ~((p1 > 0.0) & np.isfinite(p1) & (re2 > 0.0) & (re3 > 0.0))  # PoleSpec
        if eps is not None:  # backstepping's epsilon range
            flagged |= ~((0.0 < eps) & (eps < re2))
        # p2 = p3 gives forwarding two equal branches: both check and measure the one.
        for k1, k2, k3, k4, broken in gain_branches(ARRAY, family, p1, re2, im2, re3, im3, eps):
            ks = np.stack(np.broadcast_arrays(k1, k2, k3, k4))
            flagged |= broken | ~(np.isfinite(ks) & (ks > 0.0)).all(axis=0)
            if family is DesignFamily.PASSIVITY:
                flagged |= Gains.passivity_broken(k1, k2, k3)  # Gains.strict_passivity
            r2, i2, r3, i3 = block_roots(ARRAY, family, k1, k2, k3, k4)
            achieved = np.stack([-k1, r2, r3], -1) + 1j * np.stack([0.0 * k1, i2, i3], -1)
            err = np.fmax(err, eigenvalue_error(achieved, wanted))
    i = int(flagged.argmax()) if flagged.any() else n
    worst = np.fmax.reduce(err[: i + 1], initial=0.0)
    if i < n:
        poles = PoleSpec(float(p1[i]), complex(re2[i], im2[i]), complex(re3[i], im3[i]))
        assign_gains(family, poles, epsilon=None if eps is None else float(eps[i]))
        return CheckResult("pole_roundtrip", family.value, False, worst,
                           {"note": "strict-mode output violated k1*k3 >= k2^2"})
    return CheckResult("pole_roundtrip", family.value, worst < POLE_ROUNDTRIP_TOL, worst)


def lemma_grid_check() -> CheckResult:
    """Both appendix inequalities on the grid k in {1..10}, x in [-20, 20]
    at step 1e-3, taken ``_LEMMA_BLOCK`` points at a time, each block's
    gain-independent terms computed once for all ten gains."""
    x = np.arange(-20.0, 20.0 + 0.5 * 1e-3, 1e-3)
    worst = math.inf
    for i in range(0, len(x), _LEMMA_BLOCK):
        block = x[i:i + _LEMMA_BLOCK]
        terms = _appendix_terms(block)
        for k in LEMMA_GAINS:
            s1, s2 = _appendix_slacks(float(k), block, *terms)
            worst = min(worst, np.min(s1), np.min(s2))
    return CheckResult("lemma_grid", "appendix", worst >= LEMMA_SLACK, worst)


def certificate_samples(clf: SteeringClf, pts: np.ndarray) -> list[dict]:
    """Per-sample certificate records (V, rate, flag, slack margin) for the
    first 20 points, for the machine-readable report."""
    pts = pts[:20]
    d, c = pts[:, 0], pts[:, 1]
    v = np.asarray(clf.value(d, c), dtype=float)
    rate = np.asarray(clf.rate(d, c), dtype=float)
    vdot = np.asarray(steering_directional_derivative(clf, d, c), dtype=float)
    return [
        {
            "delta": float(d[i]),
            "gamma": float(c[i]),
            "V": float(v[i]),
            "rate": float(rate[i]),
            "flag": clf.rate_kind.value,
            "margin": float(rate[i] - vdot[i]),
        }
        for i in range(len(pts))
    ]


def _generator(state: dict) -> np.random.Generator:
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    return rng


def _law_checks(cid: ControllerId, gain_sets: list[Gains], samples: int, state: dict) -> list[dict]:
    """The records of one law, drawing its samples from ``state`` on: per
    gain set, positive definiteness, gradient and rate at one
    :func:`sample_interior` draw; then the barrier blow-up at unit gains and
    the Jacobian check at the second gain set."""
    rng = _generator(state)
    checks: list[CheckResult] = []
    for gi, g in enumerate(gain_sets):
        clf = steering_clf(cid, g)
        pts = sample_interior(clf.space, samples, rng)
        for res in (
            positive_definiteness_check(clf, pts),
            gradient_check(clf, pts),
            rate_check(clf, pts),
        ):
            res.details["gain_set"] = gi
            if gi == 0 and res.name == "positive_definiteness":
                res.details["sample_records"] = certificate_samples(clf, pts)
            checks.append(res)
    checks.append(barrier_blowup_check(steering_clf(cid, Gains())))
    checks.append(jacobian_fd_check(cid, gain_sets[1]))
    return [c.to_record() for c in checks]


def _pole_checks(family: DesignFamily, n: int, state: dict) -> list[dict]:
    return [pole_roundtrip_check(family, _generator(state), n).to_record()]


def run_all(seed: int = 0, samples: int = 1000) -> dict:
    """Full verification sweep over unit gains and 3 random strict gain
    sets; returns a JSON-ready report.

    The checks run as one job per law, in the table order, then one per
    pole family, then one for the lemma grid, in forked workers that each
    take the next job when free (:func:`unipark.simulate._forked_map`) from
    ``_FORK_MIN_SAMPLES`` samples on, and the report equals one process's.
    Each job draws its stretch of the one serial stream from a copy of the
    generator's state, which the caller advances past it (a PCG64 double is
    one 64-bit output); the caller draws only the gain sets."""
    if samples < 1:
        raise ConfigError(f"samples must be at least 1, got {samples}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    gain_sets = [Gains()] + strict_gain_sets(3, rng)
    jobs: list[Callable] = []
    for cid in JACOBIAN_CONTROLLERS:
        jobs.append(functools.partial(_law_checks, cid, gain_sets, samples, rng.bit_generator.state))
        rng.bit_generator.advance(len(gain_sets) * 2 * samples)  # sample_interior: 2 per sample
    n = max(100, samples)
    for family in DesignFamily:
        jobs.append(functools.partial(_pole_checks, family, n, rng.bit_generator.state))
        rng.bit_generator.advance(n * _POLE_DRAWS[family])
    jobs.append(lambda: [lemma_grid_check().to_record()])
    if samples >= _FORK_MIN_SAMPLES:
        _load_si()  # for glofo's job: a worker that loaded scipy would lose it on exit
        results = _forked_map(lambda job: job(), jobs)
    else:
        results = [job() for job in jobs]
    records = [r for recs in results for r in recs]
    return {
        "schema_version": 1,
        "seed": seed,
        "samples": samples,
        "checks": records,
        "all_passed": all(r["passed"] for r in records),
    }
