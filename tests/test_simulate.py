import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

import unipark.controllers as ctl
import unipark.simulate
from oracles import integrate_reference
from unipark.controllers import ControllerId, Gains, closed_loop_field, open_loop_field
from unipark.errors import ConfigError, DomainError, SingularityError
from unipark.kernels import SCALAR, wrap_angle
from unipark.lyapunov import CompositeKind
from unipark.simulate import (
    Scenario,
    Termination,
    axis_crossings,
    front_line_crossings,
    integrate,
    integrate_batch,
    sweep,
)
from unipark.spaces import CartesianState, PolarState, StateSpaceId, barrier_margin_values, metric_values

UNIT = Gains()


def scenario(cid=ControllerId.GENOVA, **kw):
    defaults = dict(controller=cid, gains=UNIT, initial=PolarState(1.0, 0.5, -0.5),
                    dt=1e-3, t_max=50.0)
    defaults.update(kw)
    return Scenario(**defaults)


class TestVectorFields:
    def test_closed_loop_examples(self):
        genova = closed_loop_field(ControllerId.GENOVA, UNIT)
        assert genova(1.0, 0.0, 0.0) == pytest.approx((-1.0, 0.0, 0.0))
        r, d, _ = closed_loop_field(ControllerId.BOFO, UNIT)(1.0, 0.0, math.pi / 2)
        assert r == pytest.approx(0.0, abs=1e-15)
        assert d == pytest.approx(0.0, abs=1e-15)
        assert genova(1.0, 1.0, 0.0) == pytest.approx((-1.0, 0.0, -1.0))

    def test_open_loop_singularity(self):
        with pytest.raises(SingularityError):
            open_loop_field(PolarState(0.0, 0.0, 0.0), 1.0, 0.0)


class TestScenarioValidation:
    def test_bad_frame(self):
        with pytest.raises(ConfigError):
            scenario(frame="spherical")

    def test_bad_dt(self):
        with pytest.raises(ConfigError):
            scenario(dt=0.0)
        with pytest.raises(ConfigError):
            scenario(dt=1.0, t_max=0.5)

    @pytest.mark.parametrize("numerics", [
        dict(t_max=math.nan), dict(t_max=math.inf),
        dict(stop_tol=math.nan), dict(stop_tol=math.inf), dict(stop_tol=0.0),
        dict(barrier_margin=-5.0), dict(barrier_margin=math.pi), dict(barrier_margin=math.nan),
    ])
    def test_bad_numerics(self, numerics):
        with pytest.raises(ConfigError):
            scenario(**numerics)

    def test_initial_outside_space(self):
        with pytest.raises(ConfigError):
            scenario(cid=ControllerId.BOPA, initial=PolarState(1.0, math.pi, 0.0))

    def test_cartesian_initial_wrapped_for_barrier_spaces(self):
        s = scenario(cid=ControllerId.BARFLI, initial=CartesianState(2.0, 0.4, 0.0))
        p = s.initial_polar()
        assert abs(p.delta) < math.pi
        # unconstrained controller keeps the raw (0, 2*pi] angle
        s2 = scenario(cid=ControllerId.GLOBA, initial=CartesianState(2.0, 0.4, 0.0))
        assert s2.initial_polar().delta > math.pi

    def test_zero_position_cartesian_rejected(self):
        with pytest.raises(ConfigError):
            Scenario(controller=ControllerId.GENOVA, initial=CartesianState(0.0, 0.0, 1.0),
                     frame="cartesian")


class TestIntegrate:
    def test_pure_radial_decay(self):
        s = scenario(initial=PolarState(0.5, 0.0, 0.0), dt=1e-3, t_max=2.0, stop_tol=1e-12)
        tr = integrate(s)
        i = int(np.searchsorted(tr.t, 1.0))
        assert tr.t[i] == pytest.approx(1.0, abs=1e-12)
        assert tr.polar[i, 0] == pytest.approx(0.5 * math.exp(-1.0), abs=1e-6)

    def test_gain_scales_decay(self):
        g = Gains(k1=2.0)
        s = scenario(gains=g, initial=PolarState(0.5, 0.0, 0.0), dt=1e-3, t_max=1.0,
                     stop_tol=1e-12)
        tr = integrate(s)
        assert tr.polar[-1, 0] == pytest.approx(0.5 * math.exp(-2.0 * tr.t[-1]), abs=1e-6)

    def test_origin_terminates_immediately(self):
        s = scenario(initial=PolarState(0.0, 0.0, 0.0))
        tr = integrate(s)
        assert tr.termination is Termination.CONVERGED
        assert len(tr.t) == 1

    def test_rho_nonincreasing(self):
        tr = integrate(scenario(cid=ControllerId.GLOBA, initial=PolarState(2.0, 2.0, -1.0)))
        assert np.all(np.diff(tr.polar[:, 0]) <= 1e-12)

    def test_theta_identity(self):
        tr = integrate(scenario(initial=PolarState(1.0, 1.0, 0.5), t_max=5.0))
        np.testing.assert_allclose(
            tr.cartesian[:, 2], tr.polar[:, 1] - tr.polar[:, 2], atol=1e-12
        )

    def test_v_monotone(self):
        tr = integrate(scenario(cid=ControllerId.BOLSA, initial=PolarState(1.5, 1.0, 2.0)))
        assert tr.v_monotonicity_violations() == 0
        assert tr.termination is Termination.CONVERGED

    def test_step_size_robustness(self):
        # Halving dt changes the state at t = 2 by far less than 1e-6, and
        # the error contracts at the expected 4th-order rate.
        end = {}
        for dt in (2e-3, 1e-3, 5e-4):
            s = scenario(cid=ControllerId.GLOBA, initial=PolarState(1.5, 1.0, -0.8),
                         dt=dt, t_max=2.0, stop_tol=1e-14)
            tr = integrate(s)
            end[dt] = tr.polar[-1]
        d_coarse = np.abs(end[2e-3] - end[5e-4]).max()
        d_fine = np.abs(end[1e-3] - end[5e-4]).max()
        assert np.abs(end[2e-3] - end[1e-3]).max() < 1e-6
        ratio = d_coarse / max(d_fine, 1e-18)
        assert ratio > 8.0  # 4th order would give ~16 with exact Richardson

    @pytest.mark.parametrize("frame", ["polar", "cartesian"])
    def test_barrier_guard_trips_cleanly(self, frame):
        # An artificially wide guard margin trips on a healthy trajectory.
        s = scenario(cid=ControllerId.BOLSA, initial=PolarState(1.0, 0.5, 2.5),
                     barrier_margin=2.0, frame=frame)
        tr = integrate(s)
        assert tr.termination is Termination.BARRIER_GUARD
        assert np.all(np.isfinite(tr.polar))

    @pytest.mark.parametrize("frame", ["polar", "cartesian"])
    def test_numeric_termination(self, frame):
        # A grotesquely large step destabilises RK4 and the run reports it.
        s = scenario(cid=ControllerId.GLOBA_CONS, initial=PolarState(1.0, 3.0, 2.0),
                     dt=900.0, t_max=3600.0, frame=frame)
        tr = integrate(s)
        assert tr.termination in (Termination.NUMERIC, Termination.T_MAX)
        assert np.all(np.isfinite(tr.polar))


class TestChartConsistency:
    def test_polar_vs_cartesian(self):
        init = CartesianState(0.0, -1.0, 0.0)
        trs = {}
        for frame in ("polar", "cartesian"):
            s = Scenario(controller=ControllerId.GENOVA, gains=UNIT, initial=init,
                         frame=frame, dt=1e-3, t_max=10.0, stop_tol=1e-14)
            trs[frame] = integrate(s)
        n = min(len(trs["polar"].t), len(trs["cartesian"].t))
        err = np.abs(trs["polar"].polar[:n] - trs["cartesian"].polar[:n]).max()
        assert err < 1e-6
        err_c = np.abs(trs["polar"].cartesian[:n] - trs["cartesian"].cartesian[:n]).max()
        assert err_c < 1e-6

    def test_wrapped_initial_angles(self):
        # Poses where initial_polar() wraps an angle the raw transform puts
        # outside [-pi, pi): the Cartesian chart has to stay on that branch.
        cases = [(cid, CartesianState(-1.0, 1.0, 0.0)) for cid in (
            ControllerId.BOLSA, ControllerId.BOFO, ControllerId.BOPA,
            ControllerId.BARFLI, ControllerId.LIBAC)]
        cases.append((ControllerId.BAGAL, CartesianState(-1.0, 1.0, 3.0)))
        for cid, init in cases:
            trs = {}
            for frame in ("polar", "cartesian"):
                s = Scenario(controller=cid, gains=UNIT, initial=init, frame=frame, dt=1e-2)
                trs[frame] = integrate(s)
            cart = trs["cartesian"]
            assert cart.termination is Termination.CONVERGED, cid
            assert cart.v_monotonicity_violations() == 0, cid
            n = min(len(cart.t), len(trs["polar"].t))
            assert np.abs(cart.polar[:n] - trs["polar"].polar[:n]).max() < 1e-8, cid

    def test_cartesian_convergence(self):
        s = Scenario(controller=ControllerId.GENOVA, gains=UNIT,
                     initial=CartesianState(0.0, -1.0, 0.0), frame="cartesian",
                     dt=1e-3, t_max=100.0)
        tr = integrate(s)
        assert tr.termination is Termination.CONVERGED
        x, y, th = tr.cartesian[-1]
        assert abs(x) + abs(y) + abs(wrap_angle(th)) < 1e-3

    def test_crossing_bookkeeping(self):
        s = Scenario(controller=ControllerId.GLOBA, gains=Gains(k1=1, k2=1, k3=0.1, k4=1),
                     initial=CartesianState(2.0, 0.4, 0.0), frame="cartesian",
                     dt=1e-3, t_max=120.0)
        tr = integrate(s)
        assert len(tr.crossings) == 2
        # The recorded crossings are exactly what the finder reads off the log.
        assert tr.crossings == axis_crossings(tr.cartesian, s.dt)
        assert integrate(replace(s, frame="polar")).crossings == []
        post = front_line_crossings(tr)
        assert len(post) >= 1
        for c in post:
            assert c.x > 0.0 and c.in_front


def assert_same_run(got, want):
    """Every logged array, the termination and the crossings, bit for bit."""
    for name in ("t", "polar", "cartesian", "v", "omega", "V", "metric"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert got.termination is want.termination
    crossings = [np.array([(c.t, c.x) for c in tr.crossings]).tobytes() for tr in (got, want)]
    assert crossings[0] == crossings[1]


def raising_law(cid, exc, at_step):
    """The law table entry of ``cid`` with a law that raises ``exc`` on the
    first RK4 stage of scalar step ``at_step`` (counted from 1); each step
    evaluates the law four times, and every other call, array calls as in
    the post-hoc log too, passes through."""
    law = ctl._LAWS[cid]
    calls = [0]

    def fn(xp, g, d, c):
        if xp is SCALAR:
            calls[0] += 1
            if calls[0] == 4 * (at_step - 1) + 1:
                raise exc
        return law.fn(xp, g, d, c)

    return law._replace(fn=fn)


@pytest.fixture(params=[1, 7, None], ids=["block1", "block7", "block_default"])
def block_steps(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(unipark.simulate, "_BLOCK_STEPS", request.param)
    return request.param


FRAMES = ["polar", "cartesian"]


class TestBlockedIntegrate:
    """integrate steps in speculative blocks and tests each block once; its
    runs must be those of the per-step reference loop bit for bit."""

    @pytest.mark.parametrize("frame", FRAMES)
    @pytest.mark.parametrize("cid", list(ControllerId), ids=lambda c: c.value)
    def test_every_law(self, cid, frame, block_steps):
        # 600 steps: a multiple of neither 64 nor 7.
        s = Scenario(controller=cid, initial=CartesianState(-1.2, -0.7, 0.4), frame=frame,
                     dt=0.02, t_max=12.0)
        assert_same_run(integrate(s), integrate_reference(s))

    @pytest.mark.parametrize("frame", FRAMES)
    def test_converged_at_start(self, frame, block_steps):
        s = scenario(frame=frame, stop_tol=10.0)
        tr = integrate(s)
        assert tr.termination is Termination.CONVERGED and len(tr.t) == 1
        assert_same_run(tr, integrate_reference(s))

    @pytest.mark.parametrize("frame", FRAMES)
    def test_t_max_inside_a_block(self, frame, block_steps):
        s = scenario(initial=PolarState(1.2, 0.7, -0.4), frame=frame, dt=0.01, t_max=1.0)
        tr = integrate(s)
        assert tr.termination is Termination.T_MAX and len(tr.t) == 101
        assert_same_run(tr, integrate_reference(s))

    @pytest.mark.parametrize("frame", FRAMES)
    @pytest.mark.parametrize("start", [(1.0, 3.0, 2.0), (3.0, -2.5, 2.8)])
    def test_guard_trip(self, start, frame, block_steps):
        s = scenario(cid=ControllerId.BAGAL, initial=PolarState(*start), frame=frame, dt=0.2)
        tr = integrate(s)
        assert tr.termination is Termination.BARRIER_GUARD
        assert_same_run(tr, integrate_reference(s))

    @pytest.mark.parametrize("frame, want", [("polar", Termination.NUMERIC),
                                             ("cartesian", Termination.T_MAX)])
    def test_diverging_step(self, frame, want, block_steps):
        s = scenario(cid=ControllerId.GLOBA_CONS, initial=PolarState(1.0, 3.0, 2.0), frame=frame,
                     dt=900.0, t_max=18000.0)
        tr = integrate(s)
        assert tr.termination is want
        assert_same_run(tr, integrate_reference(s))

    def test_converges_on_the_logged_metric(self, block_steps):
        # On bagal's warped axes numpy's tan rounds some metrics one bit
        # below math.tan's.  With stop_tol at such a row's math.tan metric,
        # the run converges at that row in both integrators: its logged
        # metric is below stop_tol, and no earlier row's is.
        s = scenario(cid=ControllerId.BAGAL, initial=PolarState(1.0, 2.0, -1.5), dt=0.01,
                     t_max=8.0, stop_tol=1e-300)
        log = integrate_reference(s)
        exact = np.array([metric_values(SCALAR, s.space, *row) for row in log.polar.tolist()])
        lowest = np.minimum.accumulate(np.concatenate([[np.inf], log.metric[:-1]]))
        rows = np.flatnonzero((log.metric < exact) & (exact <= lowest))
        if rows.size == 0:
            pytest.skip("numpy's tan agrees with math.tan on every row of this run")
        row = int(rows[0])
        s = replace(s, stop_tol=float(exact[row]))
        tr = integrate(s)
        assert tr.termination is Termination.CONVERGED and len(tr.t) == row + 1
        assert tr.metric[-1] < s.stop_tol
        assert_same_run(tr, integrate_reference(s))
        br = integrate_batch(s, log.polar[:1])
        assert br.converged[0] and br.convergence_time[0] == tr.final_time
        assert br.final_metric[0] == tr.metric[-1]

    @pytest.mark.parametrize("frame", FRAMES)
    @pytest.mark.parametrize("exc", [DomainError("law outside its domain"), OverflowError("stage"),
                                     ZeroDivisionError("stage")], ids=lambda e: type(e).__name__)
    @pytest.mark.parametrize("when", ["before_trip", "after_trip"])
    def test_raising_step(self, monkeypatch, exc, when, frame, block_steps):
        # bagal from here trips the guard a few steps in, inside the first
        # block at the default block length.  A step that raises before the
        # trip ends the run as numeric, whatever it raises; one after the
        # trip is never reached.
        s = scenario(cid=ControllerId.BAGAL, initial=PolarState(3.0, -2.5, 2.8), frame=frame, dt=0.2)
        trip = len(integrate_reference(s).t)
        assert trip >= 3
        at_step = trip - 1 if when == "before_trip" else trip + 1

        def run(integrator):
            with monkeypatch.context() as mp:
                mp.setitem(ctl._LAWS, ControllerId.BAGAL, raising_law(ControllerId.BAGAL, exc, at_step))
                return integrator(s)

        got, want = run(integrate), run(integrate_reference)
        assert want.termination is (Termination.NUMERIC if when == "before_trip"
                                    else Termination.BARRIER_GUARD)
        assert_same_run(got, want)


# libac from here at dt 1: stage 2 of the first RK4 step lands on delta = pi
# exactly, where 1 + cos(delta) == 0 and the law divides by zero.
LIBAC_DIVIDES = (1.0, 2.891592653589793, 0.7853981633974483)


class TestStageErrorPolicy:
    """Both integrators end a run as numeric at a step whose stage raises
    ArithmeticError or ValueError, and let any other error through."""

    def test_libac_division_by_zero(self, block_steps):
        s = scenario(cid=ControllerId.LIBAC, initial=PolarState(*LIBAC_DIVIDES), dt=1.0, t_max=10.0)
        with pytest.raises(ZeroDivisionError):
            ctl.closed_loop_field(s.controller, s.gains)(1.0, math.pi, 0.5)
        tr = integrate(s)
        assert tr.termination is Termination.NUMERIC
        assert tr.polar.tolist() == [list(LIBAC_DIVIDES)]
        assert_same_run(tr, integrate_reference(s))
        br = integrate_batch(s, [LIBAC_DIVIDES])
        assert br.numeric_failures.tolist() == [True]
        assert not (br.converged[0] or br.barrier_trips[0])
        assert br.final_states.tolist() == [list(LIBAC_DIVIDES)]

    @pytest.mark.parametrize("integrator", ["polar", "cartesian", "batch"])
    def test_other_errors_propagate(self, monkeypatch, integrator):
        start = (3.0, -2.5, 2.8)
        s = scenario(cid=ControllerId.BAGAL, initial=PolarState(*start), dt=0.2,
                     frame="polar" if integrator == "batch" else integrator)
        exc = RuntimeError("not a numeric failure")
        monkeypatch.setitem(ctl._LAWS, ControllerId.BAGAL, raising_law(ControllerId.BAGAL, exc, 2))
        with pytest.raises(RuntimeError) as e:
            integrate_batch(s, [start]) if integrator == "batch" else integrate(s)
        assert e.value is exc


class TestLoggedMetricDecides:
    """A run converges on the metric its log reports: every row before the
    last is at or above stop_tol, and a converged run's last row is below."""

    @pytest.mark.parametrize("frame", FRAMES)
    @pytest.mark.parametrize("cid", list(ControllerId), ids=lambda c: c.value)
    def test_every_law(self, cid, frame):
        s = Scenario(controller=cid, initial=CartesianState(-1.2, -0.7, 0.4), frame=frame,
                     dt=0.02, t_max=40.0, stop_tol=1e-2)
        first = integrate(s)
        at = float(first.metric[len(first.t) // 2])
        # A tolerance at a logged metric, and one ulp above it, put the
        # decision on that row: it must run on past it, and stop there at
        # the latest.
        for tol in (s.stop_tol, at, float(np.nextafter(at, np.inf))):
            tr = integrate(replace(s, stop_tol=tol))
            assert tr.termination is Termination.CONVERGED
            assert (tr.metric[:-1] >= tol).all() and tr.metric[-1] < tol


# Batches whose runs end in every termination kind; each run agrees with the
# scalar loop on every BatchResult field.  Starts are polar (rho, delta, gamma).
# A batch of at most simulate._SCALAR_RUNS runs steps each of them with the
# scalar RK4 and so equals integrate bit for bit; bopa and barfli at dt 0.2
# are chaotic, and ULP-level differences of the array kernels would grow
# until the two paths took different exits.
BAGAL_STARTS = [(1.0, 0.5, -0.3), (1.0, 2.9, 2.9), (1.0, 3.0, 2.0), (3.0, -2.5, 2.8),
                (0.5, 1.0, 3.1), (2.0, 3.1, -3.1)]
LOCKSTEP_CASES = {
    # 3 converged runs and 3 barrier-guard trips.
    "bagal": (ControllerId.BAGAL, 0.2, 30.0, BAGAL_STARTS),
    "bopa": (ControllerId.BOPA, 0.2, 30.0, BAGAL_STARTS),
    "barfli": (ControllerId.BARFLI, 0.2, 30.0, BAGAL_STARTS),
    # Steps so large that every run ends in a numeric stop.
    "globa-cons": (ControllerId.GLOBA_CONS, 900.0, 18000.0,
                   [(1.0, 3.0, 2.0), (1.0, 0.5, -0.3), (2.0, -1.0, 1.0), (0.5, 2.0, -2.5)]),
    # Every run still active at t_max.
    "genova": (ControllerId.GENOVA, 0.01, 2.0,
               [(1.0, 0.5, -0.5), (2.0, 3.0, 1.0), (0.5, -2.0, 2.0), (1.5, 1.0, -1.0)]),
    # 80 runs, so the batch starts on arrays and thins to the scalar fill
    # while some runs are still active.
    "bagal-grid": (ControllerId.BAGAL, 0.05, 30.0,
                   [(r, d, c) for r in (0.5, 1.0, 2.0, 3.0) for d in (-3.0, -1.5, 0.0, 1.5, 3.0)
                    for c in (-2.8, -1.0, 1.0, 2.8)]),
}
LOCKSTEP_KINDS = {
    "bagal": {Termination.CONVERGED, Termination.BARRIER_GUARD},
    "bopa": {Termination.CONVERGED, Termination.BARRIER_GUARD, Termination.T_MAX},
    "barfli": {Termination.CONVERGED, Termination.BARRIER_GUARD, Termination.T_MAX},
    "globa-cons": {Termination.NUMERIC},
    "genova": {Termination.T_MAX},
    "bagal-grid": {Termination.CONVERGED, Termination.BARRIER_GUARD},
}
THINNING = "bagal-grid"


def lockstep_batch(name):
    """The scenario, the starts (N, 3) and the batch result of one case."""
    cid, dt, t_max, starts = LOCKSTEP_CASES[name]
    s = Scenario(controller=cid, gains=UNIT, dt=dt, t_max=t_max)
    starts = np.array(starts)
    return s, starts, integrate_batch(s, starts)


def assert_lockstep(s, starts, br, exact):
    """Every BatchResult field of each run against its integrate run: bit
    for bit if ``exact``, else the floats within 1e-9.  Returns the set of
    terminations."""
    if exact:
        def same(a, b):
            return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()
    else:
        def same(a, b):
            return np.allclose(a, b, rtol=0.0, atol=1e-9)
    kinds = set()
    for i, start in enumerate(starts):
        tr = integrate(replace(s, initial=PolarState(*start)))
        kinds.add(tr.termination)
        assert br.converged[i] == (tr.termination is Termination.CONVERGED)
        assert br.barrier_trips[i] == (tr.termination is Termination.BARRIER_GUARD)
        assert br.numeric_failures[i] == (tr.termination is Termination.NUMERIC)
        if tr.termination is Termination.CONVERGED:
            assert same(br.convergence_time[i], tr.convergence_time())
        else:
            assert math.isnan(br.convergence_time[i])
        assert br.v_violations[i] == tr.v_monotonicity_violations()
        assert same(br.min_barrier_margin[i], tr.min_barrier_margin(s.space))
        assert same(br.max_abs_delta[i], np.abs(tr.polar[:, 1]).max())
        assert same(br.max_abs_gamma[i], np.abs(tr.polar[:, 2]).max())
        # Both paths end at the last state before a guard trip or a
        # numeric stop.
        assert same(br.final_states[i], tr.polar[-1])
        assert same(br.final_metric[i], tr.metric[-1])
        assert br.converged[i] == (br.final_metric[i] < s.stop_tol)
    return kinds


@pytest.fixture(params=[None, 0], ids=["scalar_runs_default", "array_only"])
def scalar_runs(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(unipark.simulate, "_SCALAR_RUNS", request.param)
    return request.param


class TestBatch:
    @pytest.mark.parametrize("name", [name for name in LOCKSTEP_CASES if name != THINNING])
    def test_lockstep_every_field(self, name):
        s, starts, br = lockstep_batch(name)
        assert len(starts) <= unipark.simulate._SCALAR_RUNS
        assert assert_lockstep(s, starts, br, exact=True) == LOCKSTEP_KINDS[name]

    def test_lockstep_thinning(self, monkeypatch, scalar_runs):
        # The fill switches from arrays to the scalar RK4 mid-run, unless
        # the constant is 0 and every block is stepped on arrays.  Only the
        # batch's fills are counted: integrate fills with _scalar_block too.
        fills = set()
        for name in ("_rk4_block", "_scalar_block"):
            def spy(*args, fill=getattr(unipark.simulate, name), name=name):
                fills.add(name)
                return fill(*args)

            monkeypatch.setattr(unipark.simulate, name, spy)
        s, starts, br = lockstep_batch(THINNING)
        assert fills == ({"_rk4_block"} if scalar_runs == 0 else {"_rk4_block", "_scalar_block"})
        assert len(starts) > unipark.simulate._SCALAR_RUNS
        assert assert_lockstep(s, starts, br, exact=False) == LOCKSTEP_KINDS[THINNING]

    @pytest.mark.parametrize("exc", [DomainError("law outside its domain"), OverflowError("stage"),
                                     ZeroDivisionError("stage")], ids=lambda e: type(e).__name__)
    @pytest.mark.parametrize("at_step", [1, 5])
    def test_raising_stage(self, monkeypatch, exc, at_step):
        # The scalar fill steps one run at a time, the first one first, so
        # the law raises in the first run's step at_step.  That run ends as
        # numeric there, with the state of the step before, and the others
        # are untouched.
        s, starts, plain = lockstep_batch("bagal")
        log = integrate(replace(s, initial=PolarState(*starts[0])))
        assert len(log.t) > at_step + 1
        monkeypatch.setitem(ctl._LAWS, ControllerId.BAGAL, raising_law(ControllerId.BAGAL, exc, at_step))
        br = integrate_batch(s, starts)
        assert br.numeric_failures[0] and not (br.converged[0] or br.barrier_trips[0])
        assert math.isnan(br.convergence_time[0])
        assert br.final_states[0].tobytes() == log.polar[at_step - 1].tobytes()
        assert br.final_metric[0] == log.metric[at_step - 1]
        assert br.max_abs_delta[0] == np.abs(log.polar[:at_step, 1]).max()
        assert br.max_abs_gamma[0] == np.abs(log.polar[:at_step, 2]).max()
        assert br.min_barrier_margin[0] == np.min(
            barrier_margin_values(s.space, log.polar[:at_step, 1], log.polar[:at_step, 2]))
        assert br.v_violations[0] == np.sum(log.V[1:at_step] > log.V[:at_step - 1] + unipark.simulate.V_MONOTONE_TOL)
        for f in dataclasses.fields(br):
            got, want = getattr(br, f.name), getattr(plain, f.name)
            assert (got is None) == (want is None), f.name
            if got is not None:
                assert got[1:].tobytes() == want[1:].tobytes(), f.name

    def test_matches_scalar(self):
        inits = np.array([[1.5, 1.0, -0.5], [0.8, -2.0, 0.7]])
        s = scenario(cid=ControllerId.BOFO, initial=PolarState(1.0, 0.0, 0.0), t_max=60.0)
        br = integrate_batch(s, inits)
        for i, init in enumerate(inits):
            tr = integrate(scenario(cid=ControllerId.BOFO, initial=PolarState(*init), t_max=60.0))
            assert br.converged[i] == (tr.termination is Termination.CONVERGED)
            assert br.convergence_time[i] == pytest.approx(tr.convergence_time(), abs=1e-9)
            assert br.v_violations[i] == tr.v_monotonicity_violations()
            np.testing.assert_allclose(br.final_states[i], tr.polar[-1], atol=1e-9)

    def test_extra_lyapunov_monitoring(self):
        from unipark.lyapunov import LyapunovFn, logging_clf

        inits = np.array([[1.0, 0.8, -0.4]])
        s = scenario(cid=ControllerId.GENOVA, t_max=30.0)
        extras = [
            LyapunovFn(logging_clf(ControllerId.GENOVA, UNIT), kind, order)
            for kind in CompositeKind
            for order in list(type(s.composite_order))
        ]
        br = integrate_batch(s, inits, extra_lyapunov=extras)
        assert br.extra_v_violations is not None
        assert br.extra_v_violations.shape == (len(extras), 1)
        assert br.extra_v_violations.sum() == 0


class TestSweep:
    def test_single_point_matches_integrate(self):
        base = scenario(cid=ControllerId.GLOBA, t_max=40.0)
        recs = sweep(base, [PolarState(1.2, 0.7, -0.3)])
        tr = integrate(scenario(cid=ControllerId.GLOBA, initial=PolarState(1.2, 0.7, -0.3),
                                t_max=40.0))
        assert len(recs) == 1
        r = recs[0]
        assert r.termination == tr.termination.value
        assert r.convergence_time == pytest.approx(tr.convergence_time())
        assert r.path_length == pytest.approx(tr.path_length())
        assert r.steering_effort == pytest.approx(tr.steering_effort())
        assert r.v_violations == 0

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep(scenario(), [])

    def test_failure_recorded_not_raised(self):
        base = scenario(cid=ControllerId.BOPA, t_max=5.0)
        recs = sweep(base, [PolarState(1.0, math.pi, 0.0)])
        assert recs[0].error is not None
        assert recs[0].termination == "error"


class TestFigurePoses:
    def test_globa_converges_from_ring_poses(self):
        # Cartesian ring poses with unit gains: the global backstepping law
        # parks from every one of them well before the horizon.
        for a in (math.pi / 4, math.pi, -math.pi / 2):
            s = Scenario(controller=ControllerId.GLOBA, gains=UNIT,
                         initial=CartesianState(2 * math.cos(a), 2 * math.sin(a), 0.0),
                         dt=1e-3, t_max=100.0)
            tr = integrate(s)
            assert tr.termination is Termination.CONVERGED
            assert tr.metric[-1] < 1e-4


class TestBarrierMargins:
    def test_min_margin_reported(self):
        tr = integrate(scenario(cid=ControllerId.BAGAL, initial=PolarState(1.0, 2.0, -1.5)))
        m = tr.min_barrier_margin(StateSpaceId.S3)
        assert 0.0 < m <= math.pi - 2.0 + 1e-9

    def test_unconstrained_margin_infinite(self):
        tr = integrate(scenario(cid=ControllerId.GENOVA, t_max=5.0))
        assert tr.min_barrier_margin(StateSpaceId.S) == math.inf
