"""Per-layer measurements at fixed sizes, independent of workload and seed.

Every measurement calls a public function of one layer on inputs made here
from a fixed generator, inside a span named ``<layer>.<function>``, and
reports the median of a few repeats, timed at the reference speed of
:class:`common.Meter`.  Per-element figures divide by the
array size N (1, 100 or 10 000).  The CLI writer costs are the time of a
``unipark simulate`` call with one output format minus the time of the
same integration without the CLI, per row written.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from common import LAWS, call_cli, median_seconds

REPEATS = 5
SIZES = {"n1": 1, "n100": 100, "n10k": 10_000}
# Calls per timing at each size, so every timing lasts a few milliseconds.
CALLS = {"n1": 200, "n100": 100, "n10k": 3}
POSE = (1.3, -0.7, 0.4)
VERIFY_SAMPLES = 10_000


def measure(up, meter, out: Path) -> dict[str, tuple[float, str]]:
    rng = np.random.default_rng(20251115)
    m: dict[str, tuple[float, str]] = {}
    ctl, lyap, lin, sim, spaces, kernels = (
        up.controllers, up.lyapunov, up.linearization, up.simulate, up.spaces, up.kernels,
    )
    gains = ctl.Gains()
    cids = [ctl.ControllerId(law) for law in LAWS]

    def per_call(fn, calls: int, span: str) -> float:
        return median_seconds(fn, REPEATS, meter, span) / calls

    # kernels: scalar calls.
    xs = rng.uniform(-3.0, 3.0, 1000).tolist()
    gs = rng.uniform(-3.0, 3.0, 1000).tolist()
    pairs = list(zip(xs, gs))
    for name, fn in (("sinc", kernels.sinc), ("sine_integral", kernels.sine_integral)):
        m[f"kernels.{name}_ns"] = (per_call(lambda f=fn: [f(x) for x in xs], len(xs), f"kernels.{name}") * 1e9, "ns")
    psi = kernels.psi
    m["kernels.psi_ns"] = (per_call(lambda: [psi(z, c) for z, c in pairs], len(pairs), "kernels.psi") * 1e9, "ns")

    # spaces: metric over the four state spaces, and the polar transform.
    space_ids = list(spaces.StateSpaceId)
    states = [(spaces.PolarState(abs(z) + 0.1, 0.6 * z, 0.6 * c), space_ids[i % 4])
              for i, (z, c) in enumerate(pairs)]
    metric_fn = spaces.metric
    m["spaces.metric_ns"] = (per_call(lambda: [metric_fn(p, s) for p, s in states], len(states),
                                      "spaces.metric") * 1e9, "ns")
    carts = [spaces.CartesianState(z, c, 0.5 * z) for z, c in pairs]
    to_polar = spaces.cartesian_to_polar
    m["spaces.cartesian_to_polar_ns"] = (per_call(lambda: [to_polar(c) for c in carts], len(carts),
                                                  "spaces.cartesian_to_polar") * 1e9, "ns")

    # controllers: scalar law and field per call, averaged over the 11 laws;
    # vectorised law per element at three sizes.
    angles = [(0.6 * z, 0.6 * c) for z, c in pairs[:100]]
    total = ctl.steering_total
    secs = sum(per_call(lambda cid=cid: [total(cid, gains, d, c) for d, c in angles], len(angles),
                        "controllers.steering_total") for cid in cids)
    m["controllers.steering_total_ns"] = (secs / len(cids) * 1e9, "ns")
    fields = [ctl.closed_loop_field(cid, gains) for cid in cids]
    secs = sum(per_call(lambda f=f: [f(1.0, d, c) for d, c in angles], len(angles), "controllers.field")
               for f in fields)
    m["controllers.field_ns"] = (secs / len(fields) * 1e9, "ns")
    arrays = {}
    for tag, n in SIZES.items():
        rho = rng.uniform(0.1, 3.0, n)
        d = rng.uniform(-2.0, 2.0, n)
        c = rng.uniform(-2.0, 2.0, n)
        arrays[tag] = (rho, d, c)
        many = ctl.steering_tilde_many
        secs = sum(per_call(lambda cid=cid: [many(cid, gains, d, c) for _ in range(CALLS[tag])], CALLS[tag],
                            "controllers.steering_tilde_many") for cid in cids)
        m[f"controllers.tilde_many_ns_per_elem.{tag}"] = (secs / len(cids) / n * 1e9, "ns/elem")

    # lyapunov: certificate value, gradient and rate per element, averaged
    # over the 11 logging certificates; the 14 composites of one law per
    # family at N = 100.
    fns = [lyap.LyapunovFn(lyap.logging_clf(cid, gains)) for cid in cids]
    for what, tags in (("value", ("n100", "n10k")), ("grad", ("n10k",)), ("rate", ("n10k",))):
        for tag in tags:
            rho, d, c = arrays[tag]
            secs = sum(per_call(lambda f=getattr(fn, what): [f(rho, d, c) for _ in range(CALLS[tag])],
                                CALLS[tag], f"lyapunov.{what}") for fn in fns)
            m[f"lyapunov.{what}_ns_per_elem.{tag}"] = (secs / len(fns) / SIZES[tag] * 1e9, "ns/elem")
    rho, d, c = arrays["n100"]
    composites = [lyap.LyapunovFn(lyap.logging_clf(ctl.ControllerId(law), gains), k, o)
                  for law in ("genova", "glofo", "globa") for k in lyap.CompositeKind for o in lyap.CompositeOrder]
    secs = sum(per_call(lambda f=fn.value: [f(rho, d, c) for _ in range(CALLS["n100"])], CALLS["n100"],
                        "lyapunov.composite_value") for fn in composites)
    m["lyapunov.composite_value_ns_per_elem.n100"] = (secs / len(composites) / 100 * 1e9, "ns/elem")

    # linearization: pole assignment and closed-form eigenvalues per call.
    specs = []
    for family in lin.DesignFamily:
        for _ in range(50):
            p1 = rng.uniform(0.3, 3.0)
            if family is lin.DesignFamily.PASSIVITY:
                re = rng.uniform(0.2, 2.0)
                im = math.sqrt(3.0) * re * rng.uniform(1.0, 2.0)
                specs.append((family, lin.PoleSpec(p1, complex(re, im), complex(re, -im))))
            else:
                p2, p3 = sorted(rng.uniform(0.3, 3.0, 2))
                specs.append((family, lin.PoleSpec(p1, p2, p3)))
    assign = lin.assign_gains
    m["linearization.assign_gains_us"] = (per_call(lambda: [assign(f, s) for f, s in specs], len(specs),
                                                   "linearization.assign_gains") * 1e6, "us")
    solved = [(f, assign(f, s)[0]) for f, s in specs]
    eig = lin.jacobian_eigenvalues
    m["linearization.jacobian_eigenvalues_us"] = (per_call(lambda: [eig(f, g) for f, g in solved], len(solved),
                                                           "linearization.jacobian_eigenvalues") * 1e6, "us")

    # simulate: scalar RK4 per step in each chart over the 11 laws, the
    # post-hoc logging per row, the batch per step, and a sweep per point.
    start = spaces.CartesianState(*POSE)
    trajs = {}
    for frame in ("polar", "cartesian"):
        secs = steps = 0.0
        for cid in cids:
            s = sim.Scenario(controller=cid, gains=gains, initial=start, frame=frame, dt=0.01)
            tr, _, ref = meter.time(lambda s=s: sim.integrate(s), "simulate.integrate")
            secs += ref
            steps += len(tr.t) - 1
            if frame == "polar":
                trajs[cid] = (s, tr)
        m[f"simulate.integrate_us_per_step.{frame}"] = (secs / steps * 1e6, "us/step")
    secs = rows = 0.0
    for cid, (s, tr) in trajs.items():
        fn = s.lyapunov()
        r, d, c = tr.polar.T.copy()

        def log(cid=cid, fn=fn, r=r, d=d, c=c):
            ctl.steering_tilde_many(cid, gains, d, c)
            fn.value(r, d, c)

        secs += median_seconds(log, REPEATS, meter, "simulate.logging")
        rows += len(r)
    m["simulate.logging_us_per_row"] = (secs / rows * 1e6, "us/row")
    globa = ctl.ControllerId("globa")
    for tag in ("n100", "n10k"):
        grid = up.verify.sample_metric_ball(ctl.controller_space(globa), SIZES[tag], rng, max_metric=4.0)
        # 40 steps; no start reaches the 1e-12 stop tolerance that soon.
        s = sim.Scenario(controller=globa, gains=gains, dt=0.01, t_max=0.4, stop_tol=1e-12)
        secs = median_seconds(lambda s=s, grid=grid: sim.integrate_batch(s, grid), 3, meter,
                              "simulate.integrate_batch")
        m[f"simulate.batch_us_per_step.{tag}"] = (secs / 40 * 1e6, "us/step")
    ring = [spaces.CartesianState(1.5 * math.cos(a), 1.5 * math.sin(a), 0.0)
            for a in (0.25 * math.pi, 0.75 * math.pi, 1.25 * math.pi, 1.75 * math.pi)]
    base = sim.Scenario(controller=globa, gains=gains, dt=0.01, t_max=120.0)
    secs = median_seconds(lambda: sim.sweep(base, ring), 3, meter, "simulate.sweep")
    m["simulate.sweep_ms_per_point"] = (secs / len(ring) * 1e3, "ms/point")

    # verify: one timing per kind of check, at the certify sample count,
    # averaged over the 8 strict certificates (or 3 design families).
    clfs = [lyap.steering_clf(cid, gains) for cid in lyap.STRICT_FAMILIES]
    samples = {clf.controller: up.verify.sample_interior(clf.space, VERIFY_SAMPLES, rng) for clf in clfs}
    vf = up.verify
    for name, fn in (("positive_definiteness", vf.positive_definiteness_check),
                     ("gradient", vf.gradient_check), ("rate", vf.rate_check)):
        secs = sum(median_seconds(lambda fn=fn, clf=clf: fn(clf, samples[clf.controller]), 3, meter,
                                  f"verify.{name}") for clf in clfs)
        m[f"verify.{name}_ms"] = (secs / len(clfs) * 1e3, "ms")
    secs = sum(median_seconds(lambda clf=clf: vf.barrier_blowup_check(clf), 3, meter, "verify.barrier_blowup")
               for clf in clfs)
    m["verify.barrier_blowup_ms"] = (secs / len(clfs) * 1e3, "ms")
    secs = sum(median_seconds(lambda cid=cid: vf.jacobian_fd_check(cid, gains), 3, meter, "verify.jacobian_fd")
               for cid in vf.JACOBIAN_CONTROLLERS)
    m["verify.jacobian_fd_ms"] = (secs / len(vf.JACOBIAN_CONTROLLERS) * 1e3, "ms")
    secs = sum(meter.time(lambda f=family: vf.pole_roundtrip_check(f, np.random.default_rng(3), n=VERIFY_SAMPLES),
                          "verify.pole_roundtrip")[2] for family in lin.DesignFamily)
    m["verify.pole_roundtrip_ms"] = (secs / len(lin.DesignFamily) * 1e3, "ms")
    m["verify.lemma_grid_ms"] = (median_seconds(vf.lemma_grid_check, 3, meter, "verify.lemma_grid") * 1e3, "ms")

    # cli: writer cost per row; svg: drawing cost per vertex.
    s, tr = trajs[ctl.ControllerId("genova")]
    rows = len(tr.t)
    t_int = median_seconds(lambda: sim.integrate(s), 3, meter, "simulate.integrate")
    base_argv = ["simulate", "--controller", "genova", f"--init-cart={POSE[0]},{POSE[1]},{POSE[2]}",
                 "--dt", "0.01", "--out", str(out / "layers-cli")]
    for fmt in ("csv", "json"):
        t_cli = float(np.median([call_cli(up.cli, base_argv + ["--format", fmt], meter)[2] for _ in range(3)]))
        m[f"cli.{fmt}_us_per_row"] = ((t_cli - t_int) / rows * 1e6, "us/row")
    paths = [up.svg.SvgPath(t.cartesian) for _, t in trajs.values()]
    vertices = sum(len(p.cartesian) for p in paths)
    secs = median_seconds(lambda: [up.svg.render_paths([p]) for p in paths], 3, meter, "svg.render_paths")
    m["svg.render_us_per_vertex"] = (secs / vertices * 1e6, "us/vertex")
    return m
