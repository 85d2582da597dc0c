"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from oracles import steering_tilde_oracle
from unipark.controllers import (
    ControllerId,
    Gains,
    all_controller_ids,
    controller_space,
    steering_tilde,
)
from unipark.errors import InfeasiblePolesError
from unipark.kernels import wrap_angle
from unipark.linearization import DesignFamily, PoleSpec, assign_gains
from unipark.lyapunov import (
    STRICT_FAMILIES,
    CompositeKind,
    CompositeOrder,
    LyapunovFn,
    appendix_bounds_slack,
    logging_clf,
)
from unipark.simulate import (
    Scenario,
    Termination,
    front_line_crossings,
    integrate,
    integrate_batch,
)
from unipark.spaces import CartesianState, PolarState
from unipark.verify import (
    JACOBIAN_CONTROLLERS,
    gradient_check,
    jacobian_fd_check,
    pole_roundtrip_check,
    positive_definiteness_check,
    rate_check,
    sample_interior,
    sample_metric_ball,
    strict_gain_sets,
)

UNIT = Gains()
FIG5_GAINS = Gains(k1=1.0, k2=1.0, k3=0.1, k4=1.0)

# Representative controllers for the composite-certificate criterion: one
# per design family.
COMPOSITE_REPS = (ControllerId.GENOVA, ControllerId.GLOFO, ControllerId.GLOBA)

# Pose set in the style of the front-line comparison figure: a ring of
# radius 2 with heading 0, with the on-axis front pose split into two
# slightly off-axis ones so the barrier controllers can start there too.
FIG5_POSES = [CartesianState(2.0, 0.4, 0.0), CartesianState(2.0, -0.4, 0.0)] + [
    CartesianState(2.0 * math.cos(a), 2.0 * math.sin(a), 0.0)
    for a in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)[1:]
]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# --------------------------------------------------------------------------
# 1. Closed-form evaluation fidelity of the eleven steering laws.
# --------------------------------------------------------------------------


def sample_pairs(cid, rng, n):
    space = controller_space(cid)
    d_hi = math.pi - 0.05 if space.delta_constrained else 4.0
    g_hi = math.pi - 0.05 if space.gamma_constrained else 4.0
    return np.column_stack([rng.uniform(-d_hi, d_hi, n), rng.uniform(-g_hi, g_hi, n)])


SPEC_EXAMPLES = [
    # (controller, delta, gamma, expected omega_tilde)
    (ControllerId.GENOVA, 1.0, 0.0, 1.0),
    (ControllerId.GENOVA, 1.0, math.pi / 4, math.pi / 4 + 2.0 / math.pi),
    (ControllerId.BOLSA, 1.0, 0.0, 1.0),
    (ControllerId.BOPA, math.pi / 2, 0.0, 4.0),
    (ControllerId.GLOFO, 1.0, 0.0, 1.0),
    (ControllerId.GLOBA, 0.0, math.pi / 4, math.pi / 4 + 0.5),
]


def test_criterion_1_closed_form_fidelity():
    rng = np.random.default_rng(100)
    gains = Gains(k1=1.3, k2=0.8, k3=1.6, k4=1.1)
    kd = {"k1": gains.k1, "k2": gains.k2, "k3": gains.k3, "k4": gains.k4}
    worst = 0.0
    for cid in all_controller_ids():
        for d, c in sample_pairs(cid, rng, 20):
            want = float(steering_tilde_oracle(cid.value, kd, d, c))
            got = steering_tilde(cid, gains, d, c)
            err = abs(got - want) / max(1e-30, abs(want)) if want != 0 else abs(got)
            worst = max(worst, err)
    examples_ok = True
    for cid, d, c, want in SPEC_EXAMPLES:
        got = steering_tilde(cid, UNIT, d, c)
        examples_ok &= abs(got - want) <= 1e-12 * max(1.0, abs(want))
    for cid in all_controller_ids():
        examples_ok &= steering_tilde(cid, UNIT, 0.0, 0.0) == 0.0
    ok = worst < 1e-12 and examples_ok
    report(1, ok, f"11 laws x 20 oracle pairs, worst rel err {worst:.2e} (tol 1e-12); "
                  f"spec examples {'ok' if examples_ok else 'failed'}")


# --------------------------------------------------------------------------
# 2. Strict-CLF certificate suite.
# --------------------------------------------------------------------------


def test_criterion_2_certificates():
    t0 = time.time()
    rng = np.random.default_rng(200)
    gain_sets = [UNIT] + strict_gain_sets(3, rng)
    worst_grad = 0.0
    worst_eq = 0.0
    worst_slack = math.inf
    min_v = math.inf
    for cid in STRICT_FAMILIES:
        for g in gain_sets:
            from unipark.lyapunov import steering_clf

            clf = steering_clf(cid, g)
            pts = sample_interior(clf.space, 1000, rng)
            pd = positive_definiteness_check(clf, pts)
            gr = gradient_check(clf, pts)
            rt = rate_check(clf, pts)
            assert pd.passed and gr.passed and rt.passed, (cid, pd, gr, rt)
            min_v = min(min_v, pd.worst)
            worst_grad = max(worst_grad, gr.worst)
            if rt.name == "rate_equality":
                worst_eq = max(worst_eq, rt.worst)
            else:
                worst_slack = min(worst_slack, rt.worst)
    dt = time.time() - t0
    ok = worst_grad < 1e-6 and worst_eq < 1e-9 and worst_slack >= -1e-12 and min_v > 0
    report(2, ok, "8 CLFs x 4 gain sets x 1000 samples: "
                  f"min V {min_v:.2e}, grad err {worst_grad:.2e} (<1e-6), "
                  f"equality err {worst_eq:.2e} (<1e-9), "
                  f"domination slack {worst_slack:.2e} (>=-1e-12) in {dt:.1f}s")
    assert dt < 60.0


# --------------------------------------------------------------------------
# 3 & 8. Convergence grids and composite-certificate monotonicity.
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def convergence_batches():
    rng = np.random.default_rng(300)
    results = {}
    for cid in all_controller_ids():
        grid = sample_metric_ball(controller_space(cid), 100, rng)
        s = Scenario(controller=cid, gains=UNIT, initial=PolarState(1.0, 0.0, 0.0),
                     dt=1e-3, t_max=100.0, stop_tol=1e-4)
        extras = []
        if cid in COMPOSITE_REPS:
            extras = [
                LyapunovFn(logging_clf(cid, UNIT), kind, order)
                for kind in CompositeKind
                for order in CompositeOrder
            ]
        results[cid] = integrate_batch(s, grid, extra_lyapunov=extras)
    return results


def test_criterion_3_convergence(convergence_batches):
    all_ok = True
    details = []
    for cid, br in convergence_batches.items():
        ok = bool(br.converged.all()) and int(br.v_violations.sum()) == 0
        ok &= not br.barrier_trips.any() and not br.numeric_failures.any()
        all_ok &= ok
        details.append(f"{cid.value}:{int(br.converged.sum())}/100"
                       f"{'' if ok else '!'}")
    tmax = max(float(np.nanmax(br.convergence_time)) for br in convergence_batches.values())
    report(3, all_ok, "100-point metric<=10 grids, unit gains, dt=1e-3: "
                      f"all converged by t={tmax:.1f} (<=100) with 0 certificate "
                      f"violations [{', '.join(details)}]")


def test_converged_iff_final_metric_below_tol(convergence_batches):
    # The batch decides convergence on the metric it reports.
    for br in convergence_batches.values():
        np.testing.assert_array_equal(br.converged, br.final_metric < 1e-4)


def test_criterion_8_composite_family(convergence_batches):
    total = 0
    ok = True
    for cid in COMPOSITE_REPS:
        br = convergence_batches[cid]
        assert br.extra_v_violations is not None
        total += int(br.extra_v_violations.sum())
        ok &= br.extra_v_violations.shape[0] == len(CompositeKind) * len(CompositeOrder)
    ok &= total == 0
    report(8, ok, "7 composite forms x 2 argument orders x 3 controllers along the "
                  f"criterion-3 trajectories: {total} monotonicity violations")


# --------------------------------------------------------------------------
# 4. Barrier invariance.
# --------------------------------------------------------------------------


def test_criterion_4_barrier_invariance():
    near = math.pi - 0.1
    ok = True
    notes = []
    # gamma barrier: bounded steering terms, unit gains, standard step.
    for cid in (ControllerId.BOLSA, ControllerId.BOFO, ControllerId.BAGAL):
        for sign in (1.0, -1.0):
            s = Scenario(controller=cid, gains=UNIT,
                         initial=PolarState(1.0, -sign * 0.8, sign * near),
                         dt=1e-3, t_max=100.0)
            tr = integrate(s)
            max_g = float(np.abs(tr.polar[:, 2]).max())
            good = max_g < math.pi and tr.termination is Termination.CONVERGED
            ok &= good
            notes.append(f"{cid.value} g0={sign * near:+.2f} max|g|={max_g:.4f}")
    # delta barrier: the superlinear repulsion is stiff, so the runs use the
    # figure gain set (k3 = 0.1) and a finer step over a short horizon.
    for cid in (ControllerId.BOPA, ControllerId.BARFLI, ControllerId.BAGAL):
        for sign in (1.0, -1.0):
            s = Scenario(controller=cid, gains=FIG5_GAINS,
                         initial=PolarState(1.0, sign * near, sign * 0.5),
                         dt=1e-4, t_max=10.0)
            tr = integrate(s)
            max_d = float(np.abs(tr.polar[:, 1]).max())
            good = max_d < math.pi and tr.termination in (
                Termination.CONVERGED, Termination.T_MAX
            )
            ok &= good
            notes.append(f"{cid.value} d0={sign * near:+.2f} max|d|={max_d:.4f}")
    report(4, ok, "barrier starts at +-(pi-0.1): max excursions stay below pi with "
                  f"zero guard trips [{'; '.join(notes[:3])}; ...]")


# --------------------------------------------------------------------------
# 5. Front-line avoidance.
# --------------------------------------------------------------------------


def test_criterion_5_front_line():
    crossings = {}
    terminations = {}
    for cid in (ControllerId.BARFLI, ControllerId.BAGAL, ControllerId.GLOBA):
        per_pose = []
        terms = []
        for pose in FIG5_POSES:
            s = Scenario(controller=cid, gains=FIG5_GAINS, initial=pose,
                         frame="polar", dt=1e-3, t_max=150.0)
            tr = integrate(s)
            per_pose.append(len(front_line_crossings(tr)))
            terms.append(tr.termination)
        crossings[cid] = per_pose
        terminations[cid] = terms
    barrier_ok = (
        sum(crossings[ControllerId.BARFLI]) == 0
        and sum(crossings[ControllerId.BAGAL]) == 0
    )
    globa_crosses = sum(crossings[ControllerId.GLOBA]) > 0
    no_trips = all(
        t is not Termination.BARRIER_GUARD
        for ts in terminations.values()
        for t in ts
    )
    ok = barrier_ok and globa_crosses and no_trips
    report(5, ok, f"{len(FIG5_POSES)}-pose set, gains (1,1,0.1,1): barfli/bagal front "
                  f"crossings 0/0, globa crossings {sum(crossings[ControllerId.GLOBA])} (>0)")


# --------------------------------------------------------------------------
# 6. Linearization and eigenvalue assignment.
# --------------------------------------------------------------------------


def test_criterion_6_linearization():
    worst_fd = 0.0
    for cid in JACOBIAN_CONTROLLERS:
        res = jacobian_fd_check(cid, Gains(k1=1.2, k2=0.7, k3=1.5, k4=0.9))
        assert res.passed, res
        worst_fd = max(worst_fd, res.worst)
    rng = np.random.default_rng(600)
    worst_rt = 0.0
    for family in DesignFamily:
        res = pole_roundtrip_check(family, rng, n=1000)
        assert res.passed, res
        worst_rt = max(worst_rt, res.worst)
    # Strict-mode infeasibility exactly when k2^2 > k1*k3.
    exactness = True
    for _ in range(200):
        p1 = rng.uniform(0.2, 3.0)
        if rng.random() < 0.5:
            p2, p3 = rng.uniform(0.2, 3.0, 2)
            spec = PoleSpec(p1, p2, p3)
            k2sq = (spec.p2 + spec.p3).real ** 2
            k1k3 = (spec.p2 * spec.p3).real
        else:
            re = rng.uniform(0.2, 2.0)
            im = rng.uniform(0.05, 3.0)
            spec = PoleSpec(p1, complex(re, im), complex(re, -im))
            k2sq = (2 * re) ** 2
            k1k3 = re * re + im * im
        try:
            assign_gains(DesignFamily.PASSIVITY, spec, strict=True)
            raised = False
        except InfeasiblePolesError:
            raised = True
        should_raise = k2sq > k1k3 * (1.0 + 1e-12)
        exactness &= raised == should_raise
    ok = worst_fd < 1e-6 and worst_rt < 1e-10 and exactness
    report(6, ok, f"8 nonlinear loops match their Jacobians to {worst_fd:.2e} (<1e-6); "
                  f"1000 pole round-trips per family to {worst_rt:.2e} (<1e-10); "
                  f"strict infeasibility raised exactly when k2^2 > k1*k3: {exactness}")


# --------------------------------------------------------------------------
# 7. Appendix inequalities on the full grid.
# --------------------------------------------------------------------------


def test_criterion_7_appendix_grid():
    t0 = time.time()
    x = np.arange(-20.0, 20.0 + 5e-4, 1e-3)
    worst = math.inf
    for k in range(1, 11):
        s1, s2 = appendix_bounds_slack(float(k), x)
        worst = min(worst, float(np.min(s1)), float(np.min(s2)))
    ok = worst >= -1e-12
    report(7, ok, f"both inequalities, k in 1..10, x in [-20,20] step 1e-3: "
                  f"min slack {worst:.2e} (>= -1e-12) in {time.time() - t0:.1f}s")


# --------------------------------------------------------------------------
# 9. Cartesian attractivity.
# --------------------------------------------------------------------------


def test_criterion_9_cartesian_attractivity():
    coords = np.linspace(-2.0, 2.0, 5)
    headings = np.linspace(-math.pi, math.pi, 5)
    inits = []
    for x in coords:
        for y in coords:
            if x == 0.0 and y == 0.0:
                continue
            for th in headings:
                p = Scenario(
                    controller=ControllerId.GENOVA, gains=UNIT,
                    initial=CartesianState(float(x), float(y), float(th)),
                ).initial_polar()
                inits.append((p.rho, p.delta, p.gamma))
    s = Scenario(controller=ControllerId.GENOVA, gains=UNIT,
                 initial=PolarState(1.0, 0.0, 0.0), dt=1e-3, t_max=100.0, stop_tol=1e-4)
    br = integrate_batch(s, np.array(inits))
    rho = br.final_states[:, 0]
    delta = br.final_states[:, 1]
    gamma = br.final_states[:, 2]
    x = -rho * np.cos(delta)
    y = -rho * np.sin(delta)
    theta = np.array([wrap_angle(t) for t in (delta - gamma)])
    final_sum = np.abs(x) + np.abs(y) + np.abs(theta)
    ok = bool(br.converged.all()) and float(final_sum.max()) < 1e-3
    report(9, ok, f"genova from {len(inits)} poses on [-2,2]^2 x [-pi,pi]: all "
                  f"converged by t=100; max final |x|+|y|+|theta| = {final_sum.max():.2e} (<1e-3)")


# --------------------------------------------------------------------------
# 10. Chart consistency.
# --------------------------------------------------------------------------


def test_criterion_10_chart_consistency():
    trs = {}
    for frame in ("polar", "cartesian"):
        s = Scenario(controller=ControllerId.GENOVA, gains=UNIT,
                     initial=CartesianState(0.0, -1.0, 0.0), frame=frame,
                     dt=1e-3, t_max=10.0, stop_tol=1e-14)
        trs[frame] = integrate(s)
    n = min(len(trs["polar"].t), len(trs["cartesian"].t))
    chart_err = float(np.abs(trs["polar"].polar[:n] - trs["cartesian"].polar[:n]).max())

    s = Scenario(controller=ControllerId.GENOVA, gains=UNIT,
                 initial=PolarState(0.5, 0.0, 0.0), dt=1e-3, t_max=5.0, stop_tol=1e-14)
    tr = integrate(s)
    radial_err = float(np.abs(tr.polar[:, 0] - 0.5 * np.exp(-tr.t)).max())
    ok = chart_err < 1e-6 and radial_err < 1e-6
    report(10, ok, f"polar/cartesian agreement over [0,10]: {chart_err:.2e} (<1e-6); "
                   f"radial run vs 0.5*exp(-t): {radial_err:.2e} (<1e-6)")
