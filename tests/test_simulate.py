import contextlib
import dataclasses
import gc
import linecache
import math
import os
import re
import signal
import traceback
from dataclasses import astuple, replace

import numpy as np
import pytest

import unipark.controllers as ctl
import unipark.simulate
from oracles import integrate_reference
from unipark.controllers import ControllerId, Gains, closed_loop_field, open_loop_field
from unipark.errors import ConfigError, DomainError, SingularityError
from unipark.kernels import ARRAY, SCALAR, TRACE, Sym, Tape, wrap_angle
from unipark.lyapunov import CompositeKind, CompositeOrder, LyapunovFn, logging_clf
from unipark.simulate import (
    Scenario,
    Termination,
    axis_crossings,
    front_line_crossings,
    integrate,
    integrate_batch,
    sweep,
)
from unipark.spaces import (
    CartesianState,
    PolarState,
    StateSpaceId,
    barrier_margin_values,
    metric_values,
    polar_to_cartesian,
)
from unipark.verify import sample_metric_ball, strict_gain_sets

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

    @pytest.mark.parametrize("t_max, dt", [(1e300, 1e-300), (100.0, 1e-320)])
    def test_step_count_overflows(self, t_max, dt):
        with pytest.raises(ConfigError, match="t_max / dt"):
            scenario(t_max=t_max, dt=dt)

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

    @pytest.mark.parametrize("frame", ["polar", "cartesian"])
    def test_tiny_position_accepted(self, frame):
        # x*x underflows to 0 here, yet the start is off the target.
        s = Scenario(controller=ControllerId.GENOVA, initial=CartesianState(1e-200, 0.0, 0.0),
                     frame=frame, dt=0.01, t_max=1.0)
        assert s.initial_polar() == PolarState(1e-200, math.pi, math.pi)
        tr = integrate(s)
        assert tr.termination is Termination.T_MAX and len(tr.t) == 101
        assert_same_run(tr, integrate_reference(s))


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


@contextlib.contextmanager
def raising_step(exc, at_step):
    """bagal's scalar step ``at_step`` (counted from 1) raising ``exc`` in
    its first stage, in either chart.  A compiled kernel calls no law at run
    time, so SCALAR.tan raises, on the first of its eight calls in that
    step: two per RK4 stage, none merged in the kernel (see
    ``test_bagal_step_calls_tan_eight_times``), and every other call passes
    through.  The kernel cache is cleared around the patch, so the kernels
    compiled under it call the patched tan and none outlives it."""
    with pytest.MonkeyPatch.context() as mp:
        tan, calls = SCALAR.tan, [0]

        def counted(a):
            calls[0] += 1
            if calls[0] == 8 * (at_step - 1) + 1:
                raise exc
            return tan(a)

        mp.setattr(SCALAR, "tan", counted)
        unipark.simulate._rk4_kernel.cache_clear()
        try:
            yield
        finally:
            unipark.simulate._rk4_kernel.cache_clear()


@pytest.fixture(params=[1, 7, None], ids=["block1", "block7", "block_default"])
def block_steps(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(unipark.simulate, "_BLOCK_STEPS", request.param)
    return request.param


FRAMES = ["polar", "cartesian"]


class TestBlockStops:
    """_block_stops decides how every run of a block ends: the rows it keeps
    and the index of its ending in _ENDINGS (T_MAX, the run going on, at 0)."""

    @staticmethod
    def stops(space, *runs, barrier_margin=1e-9, stop_tol=1e-4):
        # runs: one list of (rho, delta, gamma) rows per run, all of one length.
        block = np.array(runs, dtype=float).reshape(len(runs), -1, 3).transpose(1, 2, 0)
        with np.errstate(all="ignore"):
            kept, code = unipark.simulate._block_stops(space, block, block, barrier_margin, stop_tol)
        return kept.tolist(), [unipark.simulate._ENDINGS[c] for c in code]

    @pytest.fixture
    def metric_calls(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return metric_values(*args)

        monkeypatch.setattr(unipark.simulate, "metric_values", counted)
        return calls

    def test_nothing_ends_on_the_fast_path(self, metric_calls):
        runs = [[(1.0, 0.5, -0.5), (0.9, 3.0, -3.0), (0.8, 0.1, 0.1)],
                [(2.0, -1.0, 1.0), (1.9, -1.1, 1.1), (1.8, -1.2, 1.2)]]
        assert self.stops(StateSpaceId.S3, *runs) == ([3, 3], [Termination.T_MAX] * 2)
        assert metric_calls == []

    def test_nothing_ends_on_the_slow_path(self, metric_calls):
        # rho below stop_tol takes the block to the metric, which is above it.
        runs = [[(1e-3, 0.5, -0.5), (1e-5, 0.4, -0.4)], [(1.0, 0.5, 0.5), (0.9, 0.4, 0.4)]]
        assert self.stops(StateSpaceId.S3, *runs) == ([2, 2], [Termination.T_MAX] * 2)
        assert metric_calls == [1]

    @pytest.mark.parametrize("space, axis", [(StateSpaceId.S2, 1), (StateSpaceId.S1, 2)])
    def test_guard_row_not_kept(self, space, axis):
        # A constrained angle at pi - barrier_margin trips the guard; one an
        # ulp inside it does not, nor does the limit on the free axis.
        ok = (1.0, 0.1, 0.1)
        rows = [list(ok) for _ in range(3)]
        rows[0][axis] = -(math.pi - 0.5)
        rows[1][axis] = float(np.nextafter(math.pi - 0.5, 0.0))
        rows[2][3 - axis] = math.pi - 0.5
        runs = [[ok, ok, tuple(row), ok] for row in rows]
        assert self.stops(space, *runs, barrier_margin=0.5) == (
            [2, 4, 4], [Termination.BARRIER_GUARD, Termination.T_MAX, Termination.T_MAX])

    def test_converging_row_kept(self):
        runs = [[(1.0, 0.1, 0.1), (5e-5, 0.0, 0.0), (1.0, 0.1, 0.1)],
                [(1.0, 0.1, 0.1), (0.5, 0.05, 0.05), (4e-5, 1e-5, -1e-5)]]
        assert self.stops(StateSpaceId.S3, *runs) == ([2, 3], [Termination.CONVERGED] * 2)

    @pytest.mark.parametrize("row", [(math.nan, 3.5, 0.1), (math.inf, -3.5, 0.1), (1.0, math.inf, 0.1),
                                     (1.0, 0.1, -math.inf)],
                             ids=["nan_rho", "inf_rho", "inf_delta", "inf_gamma"])
    def test_non_finite_past_the_guard_is_numeric(self, row):
        runs = [[(1.0, 0.1, 0.1), (1.0, 3.5, 3.5), row], [(1.0, 0.1, 0.1), row, (1.0, 0.1, 0.1)]]
        assert self.stops(StateSpaceId.S3, *runs, barrier_margin=1.0) == (
            [1, 1], [Termination.BARRIER_GUARD, Termination.NUMERIC])
        assert self.stops(StateSpaceId.S3, [row], [(1.0, 0.1, 0.1)]) == (
            [0, 1], [Termination.NUMERIC, Termination.T_MAX])

    def test_zero_rows(self):
        block = np.empty((0, 3, 2))
        kept, code = unipark.simulate._block_stops(StateSpaceId.S3, block, block, 1e-9, 1e-4)
        assert kept.tolist() == [0, 0] and code.tolist() == [0, 0]


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

    @pytest.mark.parametrize("before", [0, 5])
    def test_cartesian_landing(self, monkeypatch, before):
        # A kernel that passes `before` rows, then lands exactly on the
        # target: the run ends converged, the landing step unlogged.
        rows = [(*astuple(polar_to_cartesian(p)), *astuple(p))
                for p in (PolarState(1.0 - 0.1 * i, 0.5, -0.5) for i in range(1, before + 1))]

        def fake(cid, g, h, loop="polar"):
            assert loop == "cartesian"

            def kernel(*args):
                for row in rows:
                    args[-1](row)
                return True

            return kernel

        monkeypatch.setattr(unipark.simulate, "_rk4_kernel", fake)
        tr = integrate(scenario(frame="cartesian"))
        assert tr.termination is Termination.CONVERGED and len(tr.t) == before + 1
        assert tr.cartesian[1:].tolist() == [list(row[:3]) for row in rows]
        assert tr.polar[1:].tolist() == [list(row[3:]) for row in rows]

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
    def test_raising_step(self, exc, when, frame, block_steps):
        # bagal from here trips the guard a few steps in, inside the first
        # block at the default block length.  A step that raises before the
        # trip ends the run as numeric, whatever it raises; one after the
        # trip is never reached.
        s = scenario(cid=ControllerId.BAGAL, initial=PolarState(3.0, -2.5, 2.8), frame=frame, dt=0.2)
        trip = len(integrate_reference(s).t)
        assert trip >= 3
        at_step = trip - 1 if when == "before_trip" else trip + 1

        def run(integrator):
            with raising_step(exc, at_step):
                return integrator(s)

        got, want = run(integrate), run(integrate_reference)
        assert want.termination is (Termination.NUMERIC if when == "before_trip"
                                    else Termination.BARRIER_GUARD)
        assert_same_run(got, want)


# Runs of over 3000 steps, by their ending: genova converges at step 3412 at
# dt 0.005 and stops at t_max after 3500 steps at dt 1e-3; bagal at the front
# line figure's gains trips the guard as an angle reaches 1.238, at step 3222.
# Each ends inside a block grown past _BLOCK_STEPS at the default length.
LONG_RUNS = {
    Termination.CONVERGED: dict(dt=0.005),
    Termination.T_MAX: dict(t_max=3.5),
    Termination.BARRIER_GUARD: dict(cid=ControllerId.BAGAL, gains=Gains(1.0, 1.0, 0.1, 1.0),
                                    initial=CartesianState(-1.5, 1.5, 0.0), dt=5e-4,
                                    barrier_margin=math.pi - 1.238),
}


@pytest.fixture
def fill_steps(monkeypatch):
    """The ``steps`` argument of every block of _kernel_rows that integrate
    steps."""
    calls = []
    kernel_rows = unipark.simulate._kernel_rows

    def spy(kernel, args, steps, width):
        calls.append(steps)
        return kernel_rows(kernel, args, steps, width)

    monkeypatch.setattr(unipark.simulate, "_kernel_rows", spy)
    return calls


class TestGrownBlocks:
    """Past 16 * _BLOCK_STEPS kept steps, integrate's blocks take a sixteenth
    of the steps kept; a run ending inside one is still the reference's."""

    @pytest.mark.parametrize("frame", FRAMES)
    @pytest.mark.parametrize("ending", list(LONG_RUNS), ids=lambda e: e.value)
    def test_ends_inside_a_grown_block(self, ending, frame, fill_steps):
        s = scenario(frame=frame, **LONG_RUNS[ending])
        tr = integrate(s)
        assert tr.termination is ending and len(tr.t) > 3000
        *_, grown, last = fill_steps
        assert grown > unipark.simulate._BLOCK_STEPS
        if ending is Termination.T_MAX:  # t_max cut the last block short
            assert sum(fill_steps) == len(tr.t) - 1 and last < grown
        else:  # the ending row is not the last block's last
            assert last >= grown and len(tr.t) < sum(fill_steps)
        assert_same_run(tr, integrate_reference(s))

    @pytest.mark.parametrize("frame", FRAMES)
    @pytest.mark.parametrize("ending", list(LONG_RUNS), ids=lambda e: e.value)
    def test_steps_past_the_end(self, ending, frame, fill_steps, block_steps):
        tr = integrate(scenario(frame=frame, **LONG_RUNS[ending]))
        kept = len(tr.t) - 1
        assert sum(fill_steps) <= kept + kept // 16 + unipark.simulate._BLOCK_STEPS
        assert max(fill_steps) > unipark.simulate._BLOCK_STEPS


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
    def test_other_errors_propagate(self, integrator):
        start = (3.0, -2.5, 2.8)
        s = scenario(cid=ControllerId.BAGAL, initial=PolarState(*start), dt=0.2,
                     frame="polar" if integrator == "batch" else integrator)
        exc = RuntimeError("not a numeric failure")
        with raising_step(exc, 2), pytest.raises(RuntimeError) as e:
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


# The compiled RK4 kernels of each law against the interpreted _rk4_step over
# closed_loop_field, on floats and on these starts as the lanes of one array:
# an ordinary start, the bagal guard-trip start, two near-barrier starts, the
# libac start whose stage divides by zero at dt 1, and the start on which
# globa-cons diverges at dt 900.
KERNEL_STARTS = [(1.0, 0.5, -0.3), (3.0, -2.5, 2.8), (1.0, math.pi - 1e-6, 1e-6 - math.pi),
                 (0.5, 3.1, 3.1), (1.0, 2.891592653589793, 0.7853981633974483), (1.0, 3.0, 2.0)]
KERNEL_GAINS = {"unit": UNIT, "fig5": Gains(1.0, 1.0, 0.1, 1.0),
                "strict": strict_gain_sets(1, np.random.default_rng(15))[0]}


def stepped(step, y, n):
    """The rows of up to ``n`` steps ``step(y, count, extend)`` from ``y``,
    and the type of the ArithmeticError or ValueError that cut them short
    (None if none did)."""
    rows = []
    try:
        step(y, n, rows.extend)
    except (ArithmeticError, ValueError) as e:
        return np.array(rows), type(e)
    return np.array(rows), None


def interpreted(f, h):
    def step(y, n, extend):
        for _ in range(n):
            y = unipark.simulate._rk4_step(f, y, h)
            extend(y)

    return step


class TestRk4Kernel:
    """Each law's compiled kernels step bit for bit as the interpreted RK4
    does, raise what it raises at the same step, and show their own source
    lines in tracebacks."""

    @pytest.mark.parametrize("gains", list(KERNEL_GAINS), ids=str)
    @pytest.mark.parametrize("cid", list(ControllerId), ids=lambda c: c.value)
    def test_bitwise_interpreted(self, cid, gains):
        g = KERNEL_GAINS[gains]
        lanes = tuple(np.array(KERNEL_STARTS).T)
        for h in (1e-3, 0.01, 0.2, 1.0, 900.0):
            kernel = unipark.simulate._rk4_kernel(cid, g, h)
            step = interpreted(closed_loop_field(cid, g), h)
            for y in KERNEL_STARTS:
                got, got_exc = stepped(lambda y, n, extend: kernel(*y, n, extend), y, 100)
                want, want_exc = stepped(step, y, 100)
                assert got.tobytes() == want.tobytes() and got_exc is want_exc, (h, y)
                if h == 900.0:  # every law diverges: a step raises or leaves the floats
                    assert want_exc is ValueError or not np.isfinite(want).all(), y
                if cid is ControllerId.LIBAC and gains != "strict" and h == 1.0 and y == KERNEL_STARTS[4]:
                    assert want_exc is ZeroDivisionError and len(want) == 0
            block, rows = np.empty((100, 3, len(KERNEL_STARTS))), []
            with np.errstate(all="ignore"):
                unipark.simulate._rk4_kernel(cid, g, h, "array")(*lanes, block)
                interpreted(closed_loop_field(cid, g, ARRAY), h)(lanes, 100, rows.append)
            assert block.tobytes() == np.array(rows).tobytes(), h

    @pytest.mark.parametrize("cid", list(ControllerId), ids=lambda c: c.value)
    def test_array_kernel_at_batch_sizes(self, monkeypatch, cid):
        # Seeded metric-ball lanes at the lengths a batch steps, plus
        # KERNEL_STARTS: each block is bitwise the interpreted ARRAY step's,
        # through the kernel's reused buffers, and blocks where only some
        # lanes take sinc's Taylor branch occur in every law that calls it.
        sinc, partial = ARRAY.sinc, []

        def spy(a, out=None):
            small = np.abs(a) < 1e-4
            partial.append(out is not None and small.any() and not small.all())
            return sinc(a, out)

        monkeypatch.setattr(ARRAY, "sinc", spy)
        rng = np.random.default_rng(25)
        for m in (1, 17, 301, 3001):
            starts = sample_metric_ball(ctl.controller_space(cid), m, rng, max_metric=4.0)
            lanes = tuple(np.concatenate([starts, KERNEL_STARTS]).T.copy())
            for h in (0.01, 1.0):
                block, rows = np.empty((64, 3, len(lanes[0]))), []
                with np.errstate(all="ignore"):
                    unipark.simulate._rk4_kernel.__wrapped__(cid, UNIT, h, "array")(*lanes, block)
                    interpreted(closed_loop_field(cid, UNIT, ARRAY), h)(lanes, 64, rows.append)
                assert block.tobytes() == np.array(rows).tobytes(), (m, h)
        if partial:  # the law calls sinc
            assert any(partial)

    @pytest.mark.parametrize("loop", ["polar", "cartesian"])
    def test_bagal_step_calls_tan_eight_times(self, loop):
        # raising_step counts on it: two calls per RK4 stage, none merged.
        kernel = unipark.simulate._rk4_kernel(ControllerId.BAGAL, UNIT, 0.2, loop)
        src = "".join(linecache.getlines(kernel.__code__.co_filename))
        assert len(re.findall(r"\btan\(", src)) == 8

    @pytest.mark.parametrize("loop", ["polar", "array", "cartesian"])
    @pytest.mark.parametrize("cid", [ControllerId.GLOBA, ControllerId.GLOBA_INTERP, ControllerId.BARFLI,
                                     ControllerId.LIBAC], ids=lambda c: c.value)
    def test_psi_traced_as_sinc_and_cos(self, cid, loop):
        # psi is composed of its namespace's sinc and cos, so a kernel calls
        # those and no Python psi, and shares the law's 2.0 * gamma.
        kernel = unipark.simulate._rk4_kernel(cid, UNIT, 0.01, loop)
        src = "".join(linecache.getlines(kernel.__code__.co_filename))
        assert src and "psi(" not in src
        assert re.search(r"\bsinc\(", src) and re.search(r"\bcos\(", src)
        if loop != "cartesian":  # the first stage's gamma is the argument c
            assert len(re.findall(r"= 2\.0 \* c\n", src)) == 1

    @pytest.mark.parametrize("loop", ["polar", "array", "cartesian"])
    def test_one_use_locals_inlined(self, loop):
        # Every stored local is read twice or more, or only by the loop's
        # line that takes a step's output.
        kernel = unipark.simulate._rk4_kernel(ControllerId.BAGAL, UNIT, 0.01, loop)
        code = [line.strip() for line in linecache.getlines(kernel.__code__.co_filename)]
        if loop == "array":
            # Each traced line is one call into a scratch buffer or an output
            # row instead, the buffers far fewer than the lines.
            calls = code[code.index("for R, D, C in block:") + 1:code.index("r, d, c = R, D, C")]
            assert len(calls) > 10
            assert all(re.fullmatch(r"\w+\((\w+, )*out=(b\d+|R|D|C)\)  # v\d+ = .+", line) for line in calls)
            assert [line.split("out=")[1][0] for line in calls if "out=b" not in line] == ["R", "D", "C"]
            assert len(re.findall(r"\bb\d+\b", code[1])) < len(calls) / 4
            return
        defs = [line.split(" = ", 1)[0] for line in code if re.match(r"v\d+ = ", line)]
        assert len(defs) > 10
        for name in defs:
            readers = [line for line in code if not line.startswith(f"{name} = ")
                       and re.search(rf"\b{name}\b", line)]
            reads = sum(len(re.findall(rf"\b{name}\b", line)) for line in readers)
            assert reads != 1 or re.match(r"(r, d, c|x, y, th) = ", readers[0]), name

    def test_unit_gain_products_folded(self):
        kernel = unipark.simulate._rk4_kernel(ControllerId.GENOVA, UNIT, 0.01)
        src = linecache.getlines(kernel.__code__.co_filename)
        assert src and not [line for line in src if re.search(r"\b1\.0 \*|\* 1\.0\b", line)]
        # An int times 1.0 is a float, so what may be an int keeps the product.
        tape = Tape()
        x = Sym(tape, "x")
        n = TRACE.round(x)
        half, quotient = n + 0.5, n / 2
        assert 1.0 * x is x and x * 1.0 is x and half * 1.0 is half and 1.0 * quotient is quotient
        assert (1.0 * n).name == "v3" and (TRACE.abs(-n + 1) * 1.0).name == "v7"
        assert list(tape.lines) == ["round(x)", "v0 + 0.5", "v0 / 2", "1.0 * v0", "-v0", "v4 + 1",
                                    "abs(v5)", "v6 * 1.0"]
        # An int 1 leaves any value as it is, and an int -1 negates an int;
        # -1 keeps its product with a float, whose NaN it leaves unflipped.
        assert 1 * x is x and half * 1 is half and 1 * n is n and n * 1 is n
        assert (-1) * n is not n and ((-1) * n).name == (n * (-1)).name == "v4"
        assert ((-1.0) * x).name == "v8" and (x * (-1.0)).name == "v9" and ((-1) * x).name == "v10"
        assert ((-1.0) * n).name == "v11"
        assert list(tape.lines)[8:] == ["(-1.0) * x", "x * (-1.0)", "(-1) * x", "(-1.0) * v0"]

    def test_raising_primitive(self):
        # The compiled kernel raises where the interpreted step does: in
        # the first stage of step 5, after four logged steps.
        f, h = closed_loop_field(ControllerId.BAGAL, UNIT), 0.2
        ends = []
        for compiled in (True, False):
            with raising_step(OverflowError("stage"), 5):
                if compiled:
                    kernel = unipark.simulate._rk4_kernel(ControllerId.BAGAL, UNIT, h)
                    step = lambda y, n, extend: kernel(*y, n, extend)  # noqa: E731
                else:
                    step = interpreted(f, h)
                ends.append(stepped(step, (1.0, 0.5, -0.3), 10))
        (got, got_exc), (want, want_exc) = ends
        assert got_exc is want_exc is OverflowError
        assert len(got) == len(want) == 4 * 3
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("law", [
        lambda xp, g, d, c: c if c > 0.0 else -c,
        lambda xp, g, d, c: xp.sin(c) * (d == c),
        lambda xp, g, d, c: min(c, d),
    ], ids=["branch", "equality", "min"])
    def test_branching_law_fails_at_trace(self, monkeypatch, law):
        monkeypatch.setitem(ctl._LAWS, ControllerId.GENOVA, ctl._LAWS[ControllerId.GENOVA]._replace(fn=law))
        unipark.simulate._rk4_kernel.cache_clear()
        try:
            with pytest.raises(TypeError, match="traced value"):
                unipark.simulate._rk4_kernel(ControllerId.GENOVA, UNIT, 0.01)
        finally:
            unipark.simulate._rk4_kernel.cache_clear()

    def test_traced_value_has_no_truth_or_order(self):
        tape = Tape()
        x, y = Sym(tape, "x"), Sym(tape, "y")
        for probe in (bool, lambda a: a < y, lambda a: a <= 1.0, lambda a: a > y, lambda a: a >= 0,
                      lambda a: a == y, lambda a: a != 2.0, lambda a: 1.0 < a):
            with pytest.raises(TypeError):
                probe(x)
        # Repeated expressions share one line; operand order is kept, and
        # a negative literal stays one operand.
        assert (x * 2.0).name == (x * 2.0).name != (2.0 * x).name
        assert ((-2.0) ** x).name == "v2"
        assert list(tape.lines) == ["x * 2.0", "2.0 * x", "(-2.0) ** x"]

    def test_traceback_shows_kernel_line(self):
        s = scenario(cid=ControllerId.BAGAL, initial=PolarState(1.0, 0.5, -0.3), dt=0.2)
        with raising_step(RuntimeError("in a primitive"), 3), pytest.raises(RuntimeError) as e:
            integrate(s)
        frame = traceback.extract_tb(e.value.__traceback__)[-2]
        assert frame.filename.startswith("<rk4 bagal #")
        # One-use locals are written into their reader, so the line may hold
        # the tan call's argument too.
        assert re.match(r"v\d+ = .*\btan\(", frame.line)
        assert "= tan(" in "".join(traceback.format_exception(e.value))

    def test_source_released_with_kernel(self):
        kernel = unipark.simulate._rk4_kernel.__wrapped__(ControllerId.GLOBA, UNIT, 0.01)
        name = kernel.__code__.co_filename
        assert linecache.getline(name, 1).startswith("def kernel(r, d, c, steps, extend):")
        del kernel
        gc.collect()
        assert name not in linecache.cache


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


# The wide-batch contract's bound on final states, relative to the largest
# component: a few last-bit differences per step, carried through at most
# t_max / dt = 600 steps of a contracting loop, stay far below it.
WIDE_BATCH_RTOL = 1e-9


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
        # The fill switches from the array kernel to the scalar one mid-run,
        # unless the constant is 0 and every block is stepped on arrays.
        # Only the batch's kernels are counted: integrate runs polar ones.
        loops, kernel = set(), unipark.simulate._rk4_kernel

        def spy(cid, g, h, loop="polar"):
            loops.add(loop)
            return kernel(cid, g, h, loop)

        monkeypatch.setattr(unipark.simulate, "_rk4_kernel", spy)
        s, starts, br = lockstep_batch(THINNING)
        assert loops == ({"array"} if scalar_runs == 0 else {"array", "polar"})
        assert len(starts) > unipark.simulate._SCALAR_RUNS
        assert assert_lockstep(s, starts, br, exact=False) == LOCKSTEP_KINDS[THINNING]

    @pytest.mark.parametrize("exc", [DomainError("law outside its domain"), OverflowError("stage"),
                                     ZeroDivisionError("stage")], ids=lambda e: type(e).__name__)
    @pytest.mark.parametrize("at_step", [1, 5])
    def test_raising_stage(self, exc, at_step):
        # The scalar fill steps one run at a time, the first one first, so
        # the law raises in the first run's step at_step.  That run ends as
        # numeric there, with the state of the step before, and the others
        # are untouched.
        s, starts, plain = lockstep_batch("bagal")
        log = integrate(replace(s, initial=PolarState(*starts[0])))
        assert len(log.t) > at_step + 1
        with raising_step(exc, at_step):
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

    @pytest.mark.parametrize("cid, lanes", [(cid, 64) for cid in ControllerId] + [(ControllerId.BAGAL, 1000)],
                             ids=lambda v: getattr(v, "value", v))
    def test_wide_batch_contract(self, cid, lanes):
        # Wider than _SCALAR_RUNS, a batch steps in the array loop, where
        # numpy's tan, arctan and squares may round the last bit differently
        # from libm's: each run ends as integrate's does, at the same step,
        # in a state within WIDE_BATCH_RTOL of the largest component of
        # integrate's.  The bound was fixed before the test first ran.
        s = Scenario(controller=cid, gains=UNIT, dt=0.05, t_max=30.0)
        starts = sample_metric_ball(ctl.controller_space(cid), lanes, np.random.default_rng([27, lanes]))
        assert lanes > unipark.simulate._SCALAR_RUNS
        br = integrate_batch(s, starts)
        for i, start in enumerate(starts):
            tr = integrate(replace(s, initial=PolarState(*start)))
            assert br.converged[i] == (tr.termination is Termination.CONVERGED)
            assert br.barrier_trips[i] == (tr.termination is Termination.BARRIER_GUARD)
            assert br.numeric_failures[i] == (tr.termination is Termination.NUMERIC)
            t_conv = tr.convergence_time() if tr.termination is Termination.CONVERGED else math.nan
            assert np.float64(br.convergence_time[i]).tobytes() == np.float64(t_conv).tobytes()
            final = tr.polar[-1]
            assert np.abs(br.final_states[i] - final).max() <= WIDE_BATCH_RTOL * np.abs(final).max()

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


@pytest.fixture
def forks(monkeypatch):
    """The pids ``os.fork`` returns to this process."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def assert_same_batch(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert (x is None) == (y is None), f.name
        if x is not None:
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name


class RaisingMonitor(LyapunovFn):
    """A certificate whose block values raise once a block holds a run
    with rho above 10."""

    def of_parts(self, rho_sq, v_dg):
        if (rho_sq > 100.0).any():
            raise ValueError("a run left the monitored ball")
        return super().of_parts(rho_sq, v_dg)


class RisingFirst(LyapunovFn):
    """A certificate whose value at the start is -inf, so each run counts a
    rise in its first step, and one more wherever a block starts from that
    value again rather than from the run's last."""

    def value(self, rho, delta, gamma):
        return np.full(np.shape(rho), -np.inf)


class TestSplitBatch:
    # A batch of at least _SPLIT_RUNS runs is dealt over the usable CPUs,
    # the caller and a forked worker per share, and equals the batch run in
    # one process bit for bit.
    @pytest.fixture(autouse=True)
    def deadline(self):
        # A process left waiting on a pipe fails the test rather than hangs it.
        def expire(signum, frame):
            raise TimeoutError("the batch took over 60 s")

        before = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, before)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_every_field_with_composite_monitors(self, monkeypatch, forks, cpus):
        # Every run goes on to t_max, where the workers send their runs back;
        # the runs at the target end at the start and are in no share.
        s = Scenario(controller=ControllerId.GLOBA, gains=UNIT, dt=0.01, t_max=2.0)
        clf = logging_clf(s.controller, UNIT)
        extras = [LyapunovFn(clf, kind, order) for kind in CompositeKind for order in CompositeOrder]
        n = 3 * unipark.simulate._SPLIT_RUNS // 2 + 64
        starts = sample_metric_ball(ctl.controller_space(s.controller), n, np.random.default_rng([35, n]),
                                    max_metric=4.0)
        starts[::97] = 0.0
        monkeypatch.setattr(unipark.simulate, "_usable_cpus", lambda: cpus)
        split = integrate_batch(s, starts, extra_lyapunov=extras)
        assert len(forks) == cpus - 1
        monkeypatch.setattr(unipark.simulate, "_usable_cpus", lambda: 1)
        assert_same_batch(split, integrate_batch(s, starts, extra_lyapunov=extras))
        assert split.converged.sum() == len(starts[::97])

    def test_thinning_past_both_constants(self, monkeypatch, forks):
        # The batch thins below _SPLIT_RUNS, where the workers send their
        # runs back, monitors' last values included, and then to
        # _SCALAR_RUNS and fewer, stepped run by run; the runs of the
        # lockstep bagal case, last, trip the barrier guard in the worker's
        # share.
        widths, stops = [], unipark.simulate._block_stops

        def spy(space, states, *args):
            widths.append(states.shape[2])
            return stops(space, states, *args)

        monkeypatch.setattr(unipark.simulate, "_block_stops", spy)
        s = Scenario(controller=ControllerId.BAGAL, gains=UNIT, dt=0.05, t_max=30.0)
        ball = sample_metric_ball(ctl.controller_space(s.controller), unipark.simulate._SPLIT_RUNS + 64,
                                  np.random.default_rng(35), max_metric=4.0)
        starts = np.concatenate([ball, BAGAL_STARTS])
        extras = [RisingFirst(logging_clf(s.controller, UNIT))]
        monkeypatch.setattr(unipark.simulate, "_usable_cpus", lambda: 2)
        split = integrate_batch(s, starts, extra_lyapunov=extras)
        assert len(forks) == 1
        widths.clear()
        monkeypatch.setattr(unipark.simulate, "_usable_cpus", lambda: 1)
        assert_same_batch(split, integrate_batch(s, starts, extra_lyapunov=extras))
        assert split.extra_v_violations[0, split.converged].min() >= 1
        # The runs going on, block by block, in one process.
        wide, narrow = unipark.simulate._SPLIT_RUNS, unipark.simulate._SCALAR_RUNS
        assert widths[0] >= wide and any(narrow < w < wide for w in widths) and widths[-1] <= narrow
        assert split.barrier_trips[-len(BAGAL_STARTS):].any() and split.converged.any()

    def test_one_process_without_fork(self, monkeypatch):
        # Where os has no fork, split batches and forked maps run in the caller.
        monkeypatch.delattr(os, "fork")
        assert unipark.simulate._usable_cpus() == 1
        assert unipark.simulate._forked_map(lambda x: -x, range(5)) == [0, -1, -2, -3, -4]

    @pytest.mark.parametrize("lane", [0, -1], ids=["caller_share", "worker_share"])
    def test_raising_monitor(self, monkeypatch, forks, lane):
        # The error is raised in the caller, and every worker is reaped.
        s = Scenario(controller=ControllerId.GLOBA, gains=UNIT, dt=0.01, t_max=2.0)
        starts = sample_metric_ball(ctl.controller_space(s.controller), unipark.simulate._SPLIT_RUNS,
                                    np.random.default_rng(35), max_metric=4.0)
        starts[lane] = (20.0, 0.5, 0.5)
        monkeypatch.setattr(unipark.simulate, "_usable_cpus", lambda: 2)
        with pytest.raises(ValueError, match="^a run left the monitored ball$"):
            integrate_batch(s, starts, extra_lyapunov=[RaisingMonitor(logging_clf(s.controller, UNIT))])
        assert len(forks) == 1
        for pid in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


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
