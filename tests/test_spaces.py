import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipark.errors import BarrierDomainError, TransformError
from unipark.kernels import half_tan, wrap_angle
from unipark.spaces import (
    CartesianState,
    IntegratorState,
    PolarState,
    StateSpaceId,
    barrier_terms_cartesian,
    cartesian_to_polar,
    from_integrator,
    metric,
    polar_to_cartesian,
    to_integrator,
    wrap_angles,
)

POSE = st.floats(-5, 5, allow_nan=False)


class TestCartesianToPolar:
    def test_behind_below(self):
        p = cartesian_to_polar(CartesianState(0.0, -1.0, 0.0))
        assert (p.rho, p.delta, p.gamma) == pytest.approx((1.0, math.pi / 2, math.pi / 2))

    def test_on_negative_axis(self):
        p = cartesian_to_polar(CartesianState(-1.0, 0.0, 0.0))
        assert (p.rho, p.delta, p.gamma) == pytest.approx((1.0, 2 * math.pi, 2 * math.pi))

    def test_zero_distance_rejected(self):
        with pytest.raises(TransformError):
            cartesian_to_polar(CartesianState(0.0, 0.0, 1.0))

    @pytest.mark.parametrize("x, y", [(1e-200, 0.0), (0.0, -1e-200), (-5e-324, 5e-324)])
    def test_underflowing_distance_accepted(self, x, y):
        # x*x + y*y underflows to 0 here, yet the pose is off the target.
        p = cartesian_to_polar(CartesianState(x, y, 0.0))
        assert p.rho == math.hypot(x, y) > 0.0

    @given(POSE, POSE, POSE)
    @settings(max_examples=400)
    def test_roundtrip(self, x, y, th):
        if x * x + y * y < 1e-12:
            return
        c = CartesianState(x, y, th)
        back = polar_to_cartesian(cartesian_to_polar(c))
        assert back.x == pytest.approx(x, abs=1e-12)
        assert back.y == pytest.approx(y, abs=1e-12)
        # theta returns modulo 2*pi
        assert wrap_angle(back.theta - th) == pytest.approx(0.0, abs=1e-12)

    def test_general_target(self):
        target = CartesianState(1.0, -2.0, 0.7)
        c = CartesianState(2.5, 0.5, -0.3)
        p = cartesian_to_polar(c, target)
        assert p.rho == pytest.approx(math.hypot(1.5, 2.5), rel=1e-15)
        assert p.delta == pytest.approx(math.atan2(2.5, 1.5) - 0.7 + math.pi)
        assert p.gamma == pytest.approx(p.delta - (-0.3) + 0.7)
        # reduces to the origin-target transform when target is the origin
        p0 = cartesian_to_polar(c, CartesianState(0.0, 0.0, 0.0))
        p1 = cartesian_to_polar(c)
        assert (p0.rho, p0.delta, p0.gamma) == (p1.rho, p1.delta, p1.gamma)


class TestPolarToCartesian:
    def test_origin_maps_to_origin(self):
        c = polar_to_cartesian(PolarState(0.0, 0.0, 0.0))
        assert (c.x, c.y, c.theta) == (0.0, 0.0, 0.0)

    def test_example(self):
        c = polar_to_cartesian(PolarState(1.0, math.pi / 2, math.pi / 2))
        assert (c.x, c.y, c.theta) == pytest.approx((0.0, -1.0, 0.0), abs=1e-15)

    def test_pi_delta(self):
        c = polar_to_cartesian(PolarState(2.0, math.pi, 0.0))
        assert (c.x, c.y, c.theta) == pytest.approx((2.0, 0.0, math.pi), abs=1e-15)


class TestWrapAngles:
    def test_two_pi_wraps_to_zero(self):
        w = wrap_angles(PolarState(1.0, 2 * math.pi, 0.0))
        assert w.delta == pytest.approx(0.0, abs=1e-12)

    def test_identity_on_fundamental_domain(self):
        p = PolarState(1.0, -2.0, 3.0)
        w = wrap_angles(p)
        assert w.delta == pytest.approx(-2.0)
        assert w.gamma == pytest.approx(3.0)
        w2 = wrap_angles(PolarState(1.0, -2.0, 3.0 + 2 * math.pi))
        assert w2.gamma == pytest.approx(3.0, abs=1e-12)

    def test_three_pi(self):
        w = wrap_angles(PolarState(1.0, 0.0, 3 * math.pi))
        assert w.gamma == pytest.approx(-math.pi, abs=1e-12)

    @given(st.floats(-30, 30), st.floats(-30, 30))
    @settings(max_examples=200)
    def test_idempotent(self, d, g):
        p = PolarState(1.0, d, g)
        once = wrap_angles(p)
        twice = wrap_angles(once)
        assert (twice.delta, twice.gamma) == (once.delta, once.gamma)


class TestIntegratorChart:
    def test_examples(self):
        s = to_integrator(PolarState(1.0, 0.0, 0.0))
        assert (s.xi, s.eta, s.theta) == pytest.approx((-1.0, 0.0, 0.0))
        s = to_integrator(PolarState(1.0, math.pi / 2, math.pi / 2))
        assert (s.xi, s.eta, s.theta) == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)

    def test_matches_cartesian_expressions(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x, y, th = rng.uniform(-3, 3, 3)
            if x * x + y * y < 1e-6:
                continue
            p = cartesian_to_polar(CartesianState(x, y, th))
            s = to_integrator(p)
            assert s.xi == pytest.approx(x * math.cos(th) + y * math.sin(th), abs=1e-12)
            assert s.eta == pytest.approx(x * math.sin(th) - y * math.cos(th), abs=1e-12)

    def test_roundtrip_on_xi_negative_chart(self):
        rng = np.random.default_rng(4)
        n = 0
        while n < 200:
            rho = rng.uniform(0.1, 5)
            d = rng.uniform(-3, 3)
            g = rng.uniform(-1.4, 1.4)  # cos(gamma) > 0 -> xi < 0
            p = PolarState(rho, d, g)
            back = from_integrator(to_integrator(p))
            assert back.rho == pytest.approx(rho, abs=1e-12)
            assert back.delta == pytest.approx(d, abs=1e-12)
            assert back.gamma == pytest.approx(g, abs=1e-12)
            n += 1

    def test_wrong_chart_rejected(self):
        with pytest.raises(TransformError):
            from_integrator(IntegratorState(0.5, 0.0, 0.0))


class TestMetric:
    def test_zero_at_origin(self):
        for ss in StateSpaceId:
            assert metric(PolarState(0.0, 0.0, 0.0), ss) == 0.0

    def test_examples(self):
        assert metric(PolarState(1.0, 0.0, math.pi / 2), StateSpaceId.S1) == pytest.approx(3.0)
        assert metric(PolarState(1.0, math.pi / 2, 0.0), StateSpaceId.S2) == pytest.approx(3.0)

    def test_zero_only_at_origin(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            rho = rng.uniform(0, 2)
            d = rng.uniform(-3, 3)
            g = rng.uniform(-3, 3)
            if rho == 0 and d == 0 and g == 0:
                continue
            m = metric(PolarState(rho, d, g), StateSpaceId.S)
            assert m > 0 or (rho, d, g) == (0, 0, 0)

    def test_monotone_in_each_component(self):
        base = metric(PolarState(1.0, 0.5, -0.5), StateSpaceId.S3)
        assert metric(PolarState(1.5, 0.5, -0.5), StateSpaceId.S3) > base
        assert metric(PolarState(1.0, 0.9, -0.5), StateSpaceId.S3) > base
        assert metric(PolarState(1.0, 0.5, -0.9), StateSpaceId.S3) > base

    def test_barrier_domain(self):
        with pytest.raises(BarrierDomainError):
            metric(PolarState(1.0, math.pi, 0.0), StateSpaceId.S2)
        with pytest.raises(BarrierDomainError):
            metric(PolarState(1.0, 0.0, -math.pi), StateSpaceId.S1)
        # unconstrained axes accept any value
        assert metric(PolarState(1.0, 10.0, -20.0), StateSpaceId.S) == 31.0


class TestBarrierTermsCartesian:
    def test_example(self):
        td, tg = barrier_terms_cartesian(CartesianState(0.0, -1.0, 0.0))
        assert (td, tg) == pytest.approx((1.0, 1.0))

    def test_negative_axis(self):
        td, tg = barrier_terms_cartesian(CartesianState(-1.0, 0.0, 0.0))
        assert (td, tg) == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_agrees_with_polar_half_tangents(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 10_000:
            x, y, th = rng.uniform(-4, 4, 3)
            if math.hypot(x, y) < 1e-3:
                continue
            p = wrap_angles(cartesian_to_polar(CartesianState(x, y, th)))
            if abs(p.delta) > math.pi - 1e-3 or abs(p.gamma) > math.pi - 1e-3:
                continue
            td, tg = barrier_terms_cartesian(CartesianState(x, y, th))
            assert td == pytest.approx(half_tan(p.delta), rel=1e-10, abs=1e-10)
            assert tg == pytest.approx(half_tan(p.gamma), rel=1e-10, abs=1e-10)
            checked += 1

    def test_boundary_errors(self):
        with pytest.raises(BarrierDomainError):
            barrier_terms_cartesian(CartesianState(1.0, 0.0, 0.5))  # on {x>0, y=0}
        with pytest.raises(BarrierDomainError):
            # pointing exactly away from the target: gamma = +-pi
            barrier_terms_cartesian(CartesianState(-1.0, 0.0, math.pi))
        with pytest.raises(TransformError):
            barrier_terms_cartesian(CartesianState(0.0, 0.0, 0.0))
