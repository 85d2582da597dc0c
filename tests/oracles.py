"""Independent oracles for the steering laws, their certificates, and the
pole round trips.

Each law and each certificate V_dg is transliterated here directly from its
closed form using mpmath at 40 significant digits, with mpmath's own sine
integral; the certificates are written per law in ``tan(angle/2)``, not in
the package's warped family form.  These oracles
share no code with the package implementation, so agreement to 1e-12 is a
genuine cross-check and not a tautology.

:func:`pole_roundtrip_reference` is the pole round-trip check one sample at
a time: scalar draws, the scalar :func:`~unipark.linearization.assign_gains`
and :func:`~unipark.linearization.jacobian_eigenvalues`, and a Python
sorted error.  It checks the batched check's block draw, masks, pairing and
reduction bit for bit; the gain and root formulas it shares with it.  (The
check pairs eigenvalues by the best ordering; on its draws, whose conjugate
pairs are exact, that is the sorted pairing.)

:func:`integrate_reference` is the scalar integrator as a per-step loop,
which tests every stepped state before it takes the next step; the blocked
:func:`~unipark.simulate.integrate` must log the same run bit for bit.

:func:`verify_report_reference` is :func:`~unipark.verify.run_all` as one
serial loop drawing from one generator, in one process; the forked jobs,
each replaying its stretch of the draws, must report the same bytes.

:func:`trajectory_csv_reference` and :func:`trajectory_json_reference` write
a trajectory one value at a time, with ``repr`` and ``json.dump``, and
:func:`polyline_reference` formats polyline vertices one at a time; the CLI
writers and :func:`~unipark.svg.render_paths` must match them byte for byte.
"""

from __future__ import annotations

import io
import json
import math

import mpmath as mp
import numpy as np

from unipark.cli import CSV_COLUMNS, SCHEMA_VERSION
from unipark.errors import UniparkError
from unipark.controllers import closed_loop_field
from unipark.kernels import ARRAY, SCALAR
from unipark.linearization import DesignFamily, PoleSpec, assign_gains, jacobian_eigenvalues
from unipark.simulate import Termination, _finish, _pose_field, _pose_to_polar
from unipark.spaces import constrained_angles, metric_values, on_target
from unipark import verify as vf

mp.mp.dps = 40


def _sinc(a):
    return mp.mpf(1) if a == 0 else mp.sin(a) / a


def _psi(z, gamma):
    if z == 0:
        return mp.cos(2 * gamma)
    return (mp.sin(2 * z - 2 * gamma) + mp.sin(2 * gamma)) / (2 * z)


def tilde_genova(k, d, c):
    return k["k2"] * c + k["k3"] * _sinc(2 * c) * d


def tilde_bolsa(k, d, c):
    return k["k2"] * mp.sin(c) + k["k3"] * mp.cos(c) / (1 + mp.tan(c / 2) ** 2) ** 2 * d


def tilde_bopa(k, d, c):
    s = mp.tan(d / 2)
    return k["k2"] * c + 2 * k["k3"] * _sinc(2 * c) * (1 + s**2) * s


def tilde_bagal(k, d, c):
    s = mp.tan(d / 2)
    return k["k2"] * mp.sin(c) + 2 * k["k3"] * mp.cos(c) / (1 + mp.tan(c / 2) ** 2) ** 2 * (1 + s**2) * s


def tilde_glofo(k, d, c):
    zeta = d + k["k1"] / (2 * k["k2"]) * mp.si(2 * c)
    return k["k2"] * c + k["k3"] * _sinc(2 * c) * zeta


def tilde_bofo(k, d, c):
    zeta = d + k["k1"] / k["k2"] * mp.sin(c)
    return k["k2"] * mp.sin(c) + k["k3"] * mp.cos(c) / (1 + mp.tan(c / 2) ** 2) ** 2 * zeta


def tilde_globa(k, d, c):
    z = c + mp.atan(2 * k["k2"] * d) / 2
    return (
        k["k4"] * z
        + k["k1"] / 2 * k["k2"] / (1 + 4 * k["k2"] ** 2 * d**2) * mp.sin(2 * c)
        + k["k3"] * _psi(z, c) * d
    )


def tilde_barfli(k, d, c):
    s = mp.tan(d / 2)
    z = c + mp.atan(4 * k["k2"] * s) / 2
    return (
        k["k4"] * z
        + k["k1"] / 2 * k["k2"] * (1 + s**2) / (1 + 16 * k["k2"] ** 2 * s**2) * mp.sin(2 * c)
        + 2 * k["k3"] * _psi(z, c) * (1 + s**2) * s
    )


def omega_globa_interp(k, d, c):
    z = c + mp.atan(2 * k["k2"] * d) / 2
    n2 = 1 + 4 * k["k2"] ** 2 * d**2
    n = mp.sqrt(n2)
    b = 1 + k["k2"] / n2
    p = _psi(z, c)
    cc = p * n - k["k1"] * k["k2"] / k["k3"] * b
    return (k["k4"] + k["k3"] / (2 * k["k2"]) * cc**2 / n + k["k1"] * abs(p) * b) * z


def omega_globa_cons(k, d, c):
    z = c + mp.atan(2 * k["k2"] * d) / 2
    k5 = k["k1"] * (1 + k["k2"]) * (1 + k["k1"] * k["k2"] * (1 + k["k2"]) / k["k3"])
    return (k["k4"] + k5 + k["k3"] / k["k2"] * (1 + 4 * k["k2"] ** 2 * d**2)) * z


def omega_libac(k, d, c):
    z = c + d / 2
    return (
        k["k3"] * z
        + 3 * k["k1"] / 4 * mp.sin(2 * c)
        + k["k2"] * mp.tan(d / 2) / (1 + mp.cos(d)) * _psi(z, c)
    )


# Laws stated directly as the total steering input.
DIRECT_TOTAL = {"globa-interp", "globa-cons", "libac"}

TILDE_ORACLES = {
    "genova": tilde_genova,
    "bolsa": tilde_bolsa,
    "bopa": tilde_bopa,
    "bagal": tilde_bagal,
    "glofo": tilde_glofo,
    "bofo": tilde_bofo,
    "globa": tilde_globa,
    "barfli": tilde_barfli,
    "globa-interp": omega_globa_interp,
    "globa-cons": omega_globa_cons,
    "libac": omega_libac,
}


def steering_total_oracle(name: str, k: dict, d, c):
    """Total steering input at 40-digit precision."""
    law = TILDE_ORACLES[name](k, mp.mpf(d), mp.mpf(c))
    if name in DIRECT_TOTAL:
        return law
    return k["k1"] / 2 * mp.sin(2 * mp.mpf(c)) + law


def steering_tilde_oracle(name: str, k: dict, d, c):
    """Post-cancellation steering term at 40-digit precision."""
    law = TILDE_ORACLES[name](k, mp.mpf(d), mp.mpf(c))
    if name in DIRECT_TOTAL:
        return law - k["k1"] / 2 * mp.sin(2 * mp.mpf(c))
    return law


# ---------------------------------------------------------------------------
# Certificates V_dg(delta, gamma), one per law, with q = sqrt(k1/k3),
# s = tan(delta/2) and t = tan(gamma/2).
# ---------------------------------------------------------------------------


def _q(k):
    return mp.sqrt(mp.mpf(k["k1"]) / k["k3"])


def _quadratic_weight(k, u):
    q = _q(k)
    return k["k3"] * (1 + (2 * q**2 + u) / (2 * q * k["k2"])) * u


def _cubic_weight(k, a, u):
    return a / (3 * k["k2"] * _q(k) ** 2) * ((1 + u) ** 3 - 1)


def v_genova(k, d, c):
    q = _q(k)
    return _quadratic_weight(k, d**2 + q**2 * c**2) + (d + q * c) ** 2


def v_bolsa(k, d, c):
    q, t = _q(k), mp.tan(c / 2)
    return _quadratic_weight(k, d**2 + 4 * q**2 * t**2) + (d + 2 * q * t) ** 2


def v_bopa(k, d, c):
    q, s = _q(k), mp.tan(d / 2)
    a = max(k["k1"] * q, mp.sqrt(mp.mpf(k["k1"]) * k["k3"]))
    return _cubic_weight(k, a, 4 * s**2 + q**2 * c**2) + (2 * s + q * c) ** 2


def v_bagal(k, d, c):
    q, s, t = _q(k), mp.tan(d / 2), mp.tan(c / 2)
    a = max(k["k1"] * q, mp.sqrt(mp.mpf(k["k1"]) * k["k2"]))
    return _cubic_weight(k, a, 4 * s**2 + 4 * q**2 * t**2) + (2 * s + 2 * q * t) ** 2


def v_glofo(k, d, c):
    zeta = d + k["k1"] / (2 * k["k2"]) * mp.si(2 * c)
    return zeta**2 + _q(k) ** 2 * c**2


def v_bofo(k, d, c):
    zeta = d + k["k1"] / k["k2"] * mp.sin(c)
    return zeta**2 + 4 * _q(k) ** 2 * mp.tan(c / 2) ** 2


def v_globa(k, d, c):
    z = c + mp.atan(2 * k["k2"] * d) / 2
    return d**2 + _q(k) ** 2 * z**2


def v_barfli(k, d, c):
    s = mp.tan(d / 2)
    z = c + mp.atan(4 * k["k2"] * s) / 2
    return 4 * s**2 + _q(k) ** 2 * z**2


def v_libac(k, d, c):
    return k["k2"] / k["k3"] * mp.tan(d / 2) ** 2 + _q(k) ** 2 * (c + d / 2) ** 2


# The certificate each law's simulations log; the two globa variants log
# globa's.
V_ORACLES = {
    "genova": v_genova,
    "bolsa": v_bolsa,
    "bopa": v_bopa,
    "bagal": v_bagal,
    "glofo": v_glofo,
    "bofo": v_bofo,
    "globa": v_globa,
    "globa-interp": v_globa,
    "globa-cons": v_globa,
    "barfli": v_barfli,
    "libac": v_libac,
}


def certificate_oracle(name: str, k: dict, d, c):
    """Logged certificate V_dg at 40-digit precision."""
    return V_ORACLES[name](k, mp.mpf(d), mp.mpf(c))


# ---------------------------------------------------------------------------
# Pole round trips, one sample at a time.
# ---------------------------------------------------------------------------


def sample_poles(family: DesignFamily, rng) -> PoleSpec:
    """One request, drawn with scalar ``rng`` calls."""
    p1 = rng.uniform(0.2, 3.0)
    if family is DesignFamily.PASSIVITY:
        re = rng.uniform(0.2, 2.0)
        im = math.sqrt(3.0) * re * (1.0 + rng.uniform(0.0, 1.5))
        return PoleSpec(p1, complex(re, im), complex(re, -im))
    if family is DesignFamily.FORWARDING:
        p2, p3 = sorted(rng.uniform(0.2, 3.0, 2))
        return PoleSpec(p1, p2, p3)
    if rng.random() < 0.5:
        p2, p3 = sorted(rng.uniform(0.2, 3.0, 2))
        return PoleSpec(p1, p2, p3)
    re = rng.uniform(0.2, 2.0)
    im = rng.uniform(0.1, 2.0)
    return PoleSpec(p1, complex(re, im), complex(re, -im))


def sorted_eigenvalue_error(achieved, poles: PoleSpec) -> float:
    """Largest distance between the achieved and the requested eigenvalues,
    both sorted by (real, imag)."""
    key = lambda z: (z.real, z.imag)
    wanted = sorted(poles.as_eigenvalues(), key=key)
    return max(abs(a - w) for a, w in zip(sorted(achieved, key=key), wanted))


def pole_roundtrip_reference(family: DesignFamily, rng, n: int, tol: float) -> tuple[bool, float]:
    """(passed, worst) of n round trips, one sample at a time.  An error
    raised at sample i carries ``sample_index = i``; a passivity gain set
    that is not strictly passive ends the loop failed, as at sample i."""
    worst = 0.0
    for i in range(n):
        try:
            poles = sample_poles(family, rng)
            kwargs = {}
            if family is DesignFamily.BACKSTEPPING:
                kwargs["epsilon"] = rng.uniform(0.05, 0.95) * poles.p2.real
            for g in assign_gains(family, poles, **kwargs):
                worst = max(worst, sorted_eigenvalue_error(jacobian_eigenvalues(family, g), poles))
                if family is DesignFamily.PASSIVITY and not g.strict_passivity:
                    return False, worst
        except UniparkError as e:
            e.sample_index = i
            raise
    return worst < tol, worst


# ---------------------------------------------------------------------------
# The scalar integrator, one step at a time.
# ---------------------------------------------------------------------------


def _rk4_step_reference(f, y, h):
    a1, b1, c1 = f(*y)
    a2, b2, c2 = f(y[0] + 0.5 * h * a1, y[1] + 0.5 * h * b1, y[2] + 0.5 * h * c1)
    a3, b3, c3 = f(y[0] + 0.5 * h * a2, y[1] + 0.5 * h * b2, y[2] + 0.5 * h * c2)
    a4, b4, c4 = f(y[0] + h * a3, y[1] + h * b3, y[2] + h * c3)
    sixth = h / 6.0
    return (
        y[0] + sixth * (a1 + 2.0 * (a2 + a3) + a4),
        y[1] + sixth * (b1 + 2.0 * (b2 + b3) + b4),
        y[2] + sixth * (c1 + 2.0 * (c2 + c3) + c4),
    )


def integrate_reference(s):
    """The trajectory of scenario ``s``, tested after every step: the
    array metric of the last logged state, then t_max, then the RK4 step (an
    ArithmeticError or ValueError, a UniparkError too, is a numeric stop),
    then the stepped state's finiteness, its polar map and the barrier
    guard."""
    p0 = s.initial_polar()
    p = (p0.rho, p0.delta, p0.gamma)
    if s.frame == "cartesian":
        c0 = s.initial_cartesian()
        y = (c0.x, c0.y, c0.theta)
        field_at = lambda ref: _pose_field(s.controller, s.gains, SCALAR, ref)  # noqa: E731
        to_polar = lambda q, ref: None if on_target(q[0], q[1]) else _pose_to_polar(SCALAR, q, ref)  # noqa: E731
    else:
        f = closed_loop_field(s.controller, s.gains)
        y, field_at, to_polar = p, (lambda ref: f), (lambda q, ref: q)
    states = [y]
    polar = [p]
    times = [0.0]
    n_max = int(math.ceil(s.t_max / s.dt - 1e-9))
    space = s.space
    limit = math.pi - s.barrier_margin
    k = 0
    while True:
        with np.errstate(all="ignore"):
            converged = metric_values(ARRAY, space, *p) < s.stop_tol
        if converged:
            reason = Termination.CONVERGED
            break
        if k >= n_max:
            reason = Termination.T_MAX
            break
        try:
            y_next = _rk4_step_reference(field_at(p), y, s.dt)
        except (ArithmeticError, ValueError):
            reason = Termination.NUMERIC
            break
        k += 1
        if not all(map(math.isfinite, y_next)):
            reason = Termination.NUMERIC
            break
        p_next = to_polar(y_next, p)
        if p_next is None:
            reason = Termination.CONVERGED
            break
        if any(abs(a) >= limit for a in constrained_angles(space, p_next[1], p_next[2])):
            reason = Termination.BARRIER_GUARD
            break
        y, p = y_next, p_next
        states.append(y)
        polar.append(p)
        times.append(k * s.dt)
    return _finish(s, times, polar, reason, cartesian=states if s.frame == "cartesian" else None)


# ---------------------------------------------------------------------------
# Trajectory writers and polylines, one value at a time.
# ---------------------------------------------------------------------------


def _trajectory_rows(traj):
    for i in range(len(traj.t)):
        yield (
            traj.t[i],
            traj.cartesian[i, 0],
            traj.cartesian[i, 1],
            traj.cartesian[i, 2],
            traj.polar[i, 0],
            traj.polar[i, 1],
            traj.polar[i, 2],
            traj.v[i],
            traj.omega[i],
            traj.V[i],
            traj.metric[i],
        )


def trajectory_csv_reference(traj) -> str:
    """The trajectory CSV, one ``repr`` per value."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(repr(float(v)) for v in row) for row in _trajectory_rows(traj)]
    return "\n".join(lines) + "\n"


def trajectory_json_reference(traj) -> str:
    """The trajectory JSON, the whole payload through ``json.dump``."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "meta": traj.meta,
        "termination": traj.termination.value,
        "columns": list(CSV_COLUMNS),
        "data": [[float(v) for v in row] for row in _trajectory_rows(traj)],
        "axis_crossings": [
            {"t": c.t, "x": c.x, "in_front": c.in_front} for c in traj.crossings
        ],
    }
    fh = io.StringIO()
    json.dump(payload, fh, indent=2, sort_keys=True)
    return fh.getvalue() + "\n"


def polyline_reference(paths, target=(0.0, 0.0, 0.0), size: int = 640) -> list[str]:
    """The ``points`` of each path's polyline in the frame ``render_paths``
    draws ``paths`` in, one vertex at a time."""
    arrs = [np.asarray(p.cartesian, dtype=float).reshape(-1, 3) for p in paths]
    xs = [target[0]] + [float(f(a[:, 0])) for a in arrs for f in (np.min, np.max)]
    ys = [target[1]] + [float(f(a[:, 1])) for a in arrs for f in (np.min, np.max)]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    pad = 0.08 * max(x_hi - x_lo, y_hi - y_lo, 1e-6)
    x_lo, x_hi, y_lo, y_hi = x_lo - pad, x_hi + pad, y_lo - pad, y_hi + pad
    scale = (size - 70) / max(x_hi - x_lo, y_hi - y_lo)
    h = int((y_hi - y_lo) * scale) + 70
    sx = lambda x: 50.0 + (x - x_lo) * scale
    sy = lambda y: (h - 40.0) - (y - y_lo) * scale
    return [" ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(a[:, 0], a[:, 1])) for a in arrs]


def verify_report_reference(seed: int, samples: int) -> dict:
    """The verify report, every check run in turn in this process."""
    rng = np.random.default_rng(seed)
    gain_sets = [vf.Gains()] + vf.strict_gain_sets(3, rng)
    checks = []
    for cid in vf.JACOBIAN_CONTROLLERS:
        for gi, g in enumerate(gain_sets):
            clf = vf.steering_clf(cid, g)
            pts = vf.sample_interior(clf.space, samples, rng)
            for res in (vf.positive_definiteness_check(clf, pts), vf.gradient_check(clf, pts),
                        vf.rate_check(clf, pts)):
                res.details["gain_set"] = gi
                if gi == 0 and res.name == "positive_definiteness":
                    res.details["sample_records"] = vf.certificate_samples(clf, pts)
                checks.append(res)
        checks.append(vf.barrier_blowup_check(vf.steering_clf(cid, vf.Gains())))
        checks.append(vf.jacobian_fd_check(cid, gain_sets[1]))
    for family in DesignFamily:
        checks.append(vf.pole_roundtrip_check(family, rng, n=max(100, samples)))
    checks.append(vf.lemma_grid_check())
    return {
        "schema_version": 1,
        "seed": seed,
        "samples": samples,
        "checks": [c.to_record() for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
