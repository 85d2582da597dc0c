import math

import numpy as np
import pytest

from oracles import steering_tilde_oracle
from unipark.controllers import (
    ControlInput,
    ControllerId,
    Gains,
    closed_loop_field,
    closed_loop_input,
    controller_space,
    heading_only,
    open_loop_field,
    reverse_parking_wrap,
    steering_tilde,
    steering_tilde_many,
    steering_total,
    velocity,
    velocity_cartesian,
    z_globa,
    zeta_glofo,
)
from unipark.errors import BarrierDomainError, DomainError, SingularityError
from unipark.kernels import SCALAR
from unipark.spaces import PolarState, StateSpaceId

UNIT = Gains()
GLOBAL_IDS = (
    ControllerId.GENOVA,
    ControllerId.GLOFO,
    ControllerId.GLOBA,
    ControllerId.GLOBA_INTERP,
    ControllerId.GLOBA_CONS,
)
GAMMA_BOUNDED = (ControllerId.BOLSA, ControllerId.BOFO, ControllerId.BAGAL)
DELTA_BARRIER = (ControllerId.BOPA, ControllerId.BARFLI, ControllerId.BAGAL)


def sample_inside(cid, rng, n, span=2.8):
    space = controller_space(cid)
    d_hi = min(span, math.pi - 0.2) if space.delta_constrained else span
    g_hi = min(span, math.pi - 0.2) if space.gamma_constrained else span
    return np.column_stack([rng.uniform(-d_hi, d_hi, n), rng.uniform(-g_hi, g_hi, n)])


class TestGains:
    def test_positivity_enforced(self):
        with pytest.raises(DomainError):
            Gains(k1=0.0)
        with pytest.raises(DomainError):
            Gains(k3=-1.0)

    def test_derived_quantities(self):
        g = Gains(k1=4.0, k3=1.0)
        assert g.q == 2.0
        assert UNIT.k5 == pytest.approx(6.0)  # 1*(1+1)*(1+2)

    def test_strictness_flag(self):
        assert Gains(k1=1, k2=1, k3=1).strict_passivity
        assert not Gains(k1=1, k2=2, k3=1).strict_passivity


class TestVelocity:
    def test_examples(self):
        assert velocity(PolarState(2.0, 0.0, math.pi / 3), 1.0) == pytest.approx(1.0)
        assert velocity(PolarState(1.0, 0.0, math.pi), 1.0) == pytest.approx(-1.0)

    def test_cartesian_form_matches(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            x, y, th = rng.uniform(-3, 3, 3)
            if math.hypot(x, y) < 1e-6:
                continue
            from unipark.spaces import CartesianState, cartesian_to_polar

            p = cartesian_to_polar(CartesianState(x, y, th))
            assert velocity(p, 1.7) == pytest.approx(
                velocity_cartesian(x, y, th, 1.7), rel=1e-12, abs=1e-12
            )


class TestSteeringExamples:
    def test_genova(self):
        assert steering_tilde(ControllerId.GENOVA, UNIT, 1.0, 0.0) == pytest.approx(1.0)
        assert steering_tilde(ControllerId.GENOVA, UNIT, 1.0, math.pi / 4) == pytest.approx(
            math.pi / 4 + 2.0 / math.pi, rel=1e-15
        )

    def test_bolsa(self):
        assert steering_tilde(ControllerId.BOLSA, UNIT, 1.0, 0.0) == pytest.approx(1.0)

    def test_bopa(self):
        assert steering_tilde(ControllerId.BOPA, UNIT, math.pi / 2, 0.0) == pytest.approx(4.0)

    def test_glofo(self):
        assert steering_tilde(ControllerId.GLOFO, UNIT, 1.0, 0.0) == pytest.approx(1.0)
        assert zeta_glofo(SCALAR, UNIT, 1.0, 0.0) == pytest.approx(1.0)

    def test_globa(self):
        got = steering_tilde(ControllerId.GLOBA, UNIT, 0.0, math.pi / 4)
        assert got == pytest.approx(math.pi / 4 + 0.5, rel=1e-15)
        assert z_globa(SCALAR, UNIT, 0.0, math.pi / 4) == pytest.approx(math.pi / 4)

    def test_all_zero_at_origin(self):
        for cid in ControllerId:
            assert steering_tilde(cid, UNIT, 0.0, 0.0) == 0.0
            assert steering_total(cid, UNIT, 0.0, 0.0) == 0.0

    def test_total_split(self):
        got = steering_total(ControllerId.GENOVA, UNIT, 0.0, math.pi / 4)
        assert got == pytest.approx(0.5 * math.sin(math.pi / 2) + math.pi / 4)

    def test_libac_vanishes_with_z(self):
        assert steering_total(ControllerId.LIBAC, UNIT, 0.0, 0.0) == 0.0

    def test_conservative_k5(self):
        g = Gains(k1=1.0, k2=1.0, k3=1.0)
        assert g.k5 == pytest.approx(1.0 * 2.0 * 3.0)

    def test_interpretable_gain_factor_at_origin(self):
        # omega(0, eps)/eps tends to k4 + (k3/2k2)*C^2/N + k1*|psi|*B with
        # N = 1, B = 1 + k2, psi = 1, C = 1 - (k1 k2 / k3)(1 + k2).
        g = Gains(k1=0.7, k2=1.3, k3=2.0, k4=0.9)
        b = 1.0 + g.k2
        c = 1.0 - g.k1 * g.k2 / g.k3 * b
        factor = g.k4 + g.k3 / (2 * g.k2) * c * c + g.k1 * b
        eps = 1e-7
        got = steering_total(ControllerId.GLOBA_INTERP, g, 0.0, eps) / eps
        assert got == pytest.approx(factor, rel=1e-5)


class TestSteeringProperties:
    def test_oracle_agreement(self):
        rng = np.random.default_rng(8)
        gains = [UNIT, Gains(k1=2.0, k2=0.8, k3=1.5, k4=1.2)]
        for cid in ControllerId:
            for g in gains:
                kd = {"k1": g.k1, "k2": g.k2, "k3": g.k3, "k4": g.k4}
                for d, c in sample_inside(cid, rng, 25):
                    want = float(steering_tilde_oracle(cid.value, kd, d, c))
                    got = steering_tilde(cid, g, d, c)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12), cid

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(9)
        for g in (UNIT, Gains(k1=2.0, k2=0.8, k3=1.5, k4=1.2)):
            for cid in ControllerId:
                pts = sample_inside(cid, rng, 200)
                vec = steering_tilde_many(cid, g, pts[:, 0], pts[:, 1])
                sca = np.array([steering_tilde(cid, g, d, c) for d, c in pts])
                np.testing.assert_allclose(vec, sca, rtol=1e-12, atol=1e-13)

    def test_odd_symmetry(self):
        rng = np.random.default_rng(10)
        for cid in ControllerId:
            for d, c in sample_inside(cid, rng, 50):
                plus = steering_tilde(cid, UNIT, d, c)
                minus = steering_tilde(cid, UNIT, -d, -c)
                assert plus == pytest.approx(-minus, rel=1e-10, abs=1e-12), cid

    def test_gamma_bounded_laws(self):
        # sup over gamma in (-pi, pi) at fixed delta is finite and modest.
        g_grid = np.linspace(-math.pi + 1e-6, math.pi - 1e-6, 20001)
        for cid in GAMMA_BOUNDED:
            d = 0.3 if cid is ControllerId.BAGAL else 5.0
            vals = steering_tilde_many(cid, UNIT, np.full_like(g_grid, d), g_grid)
            assert np.all(np.isfinite(vals))
            assert np.max(np.abs(vals)) < 10.0 * (1.0 + abs(d))

    def test_delta_barrier_divergence(self):
        # |omega_tilde| diverges monotonically as |delta| -> pi at fixed gamma.
        deltas = math.pi - 10.0 ** (-np.linspace(1, 8, 8))
        for cid in DELTA_BARRIER:
            vals = np.abs(steering_tilde_many(cid, UNIT, deltas, np.full_like(deltas, 0.4)))
            assert np.all(np.diff(vals) > 0)
            assert vals[-1] > 1e6

    def test_global_laws_defined_far_out(self):
        for cid in GLOBAL_IDS:
            v = steering_tilde(cid, UNIT, 1e3, -1e3)
            assert math.isfinite(v)

    def test_barrier_domain_raises(self):
        with pytest.raises(BarrierDomainError):
            steering_tilde(ControllerId.BOPA, UNIT, math.pi, 0.0)
        with pytest.raises(BarrierDomainError):
            steering_total(ControllerId.BOLSA, UNIT, 0.0, -math.pi)

    def test_glofo_matches_genova_delta_slope_at_origin(self):
        # Both laws contribute the same k3*delta term at the origin; their
        # gamma slopes differ (k2 vs k2 + k1*k3/k2).
        h = 1e-7
        for g in (UNIT, Gains(k1=2.0, k2=0.5, k3=1.0)):
            slope_genova = (
                steering_tilde(ControllerId.GENOVA, g, h, 0.0)
                - steering_tilde(ControllerId.GENOVA, g, -h, 0.0)
            ) / (2 * h)
            slope_glofo = (
                steering_tilde(ControllerId.GLOFO, g, h, 0.0)
                - steering_tilde(ControllerId.GLOFO, g, -h, 0.0)
            ) / (2 * h)
            assert slope_genova == pytest.approx(g.k3, rel=1e-8)
            assert slope_glofo == pytest.approx(g.k3, rel=1e-8)
            gs_genova = (
                steering_tilde(ControllerId.GENOVA, g, 0.0, h)
                - steering_tilde(ControllerId.GENOVA, g, 0.0, -h)
            ) / (2 * h)
            gs_glofo = (
                steering_tilde(ControllerId.GLOFO, g, 0.0, h)
                - steering_tilde(ControllerId.GLOFO, g, 0.0, -h)
            ) / (2 * h)
            assert gs_genova == pytest.approx(g.k2, rel=1e-7)
            assert gs_glofo == pytest.approx(g.k2 + g.k1 * g.k3 / g.k2, rel=1e-7)

    def test_closed_loop_input(self):
        # The velocity law and the total steering input of each law.
        g = Gains(k1=2.0, k2=0.8, k3=1.5, k4=1.2)
        for cid in ControllerId:
            v, omega = closed_loop_input(cid, g)(1.5, 0.5, -0.3)
            assert v == velocity(PolarState(1.5, 0.5, -0.3), g.k1)
            assert omega == pytest.approx(steering_total(cid, g, 0.5, -0.3), rel=1e-15, abs=1e-15)


class TestHeadingOnly:
    def test_values(self):
        assert heading_only(1.0, 2.0, "linear") == -2.0
        assert heading_only(math.pi / 2, 1.0, "sine") == pytest.approx(-1.0)
        assert heading_only(math.pi / 2, 1.0, "half_tan") == pytest.approx(-1.0)

    def test_lyapunov_rates(self):
        # linear/sine: V' = -2 k0 V; half_tan: V' = -k0 (1 + V/4) V.
        k0, h = 0.8, 1e-6
        th = 0.9
        v_lin = th * th
        vdot = ((th + h * heading_only(th, k0, "linear")) ** 2 - v_lin) / h
        assert vdot == pytest.approx(-2 * k0 * v_lin, rel=1e-5)
        v_tan = 4 * math.tan(th / 2) ** 2

        def v_of(t):
            return 4 * math.tan(t / 2) ** 2

        vdot = (v_of(th + h * heading_only(th, k0, "sine")) - v_tan) / h
        assert vdot == pytest.approx(-2 * k0 * v_tan, rel=1e-5)
        vdot = (v_of(th + h * heading_only(th, k0, "half_tan")) - v_tan) / h
        assert vdot == pytest.approx(-k0 * (1 + v_tan / 4) * v_tan, rel=1e-5)

    def test_domain(self):
        with pytest.raises(BarrierDomainError):
            heading_only(3.5, 1.0, "sine")
        with pytest.raises(BarrierDomainError):
            heading_only(-math.pi, 1.0, "half_tan")
        with pytest.raises(DomainError):
            heading_only(0.1, 1.0, "cubic")
        assert heading_only(10.0, 1.0, "linear") == -10.0


class TestReverseParking:
    def test_negates_v_only(self):
        u = reverse_parking_wrap(ControlInput(1.0, 0.5))
        assert (u.v, u.omega) == (-1.0, 0.5)

    def test_involution(self):
        u = ControlInput(0.3, -0.2)
        assert reverse_parking_wrap(reverse_parking_wrap(u)) == u

    def test_zero_velocity_fixed(self):
        u = reverse_parking_wrap(ControlInput(0.0, 0.7))
        assert (u.v, u.omega) == (0.0, 0.7)


class TestFields:
    def test_closed_loop_examples(self):
        f = closed_loop_field(ControllerId.GENOVA, UNIT)
        assert f(1.0, 0.0, 0.0) == pytest.approx((-1.0, 0.0, 0.0))
        r, d, c = f(1.0, 0.0, math.pi / 2)
        assert r == pytest.approx(0.0, abs=1e-15)
        assert d == pytest.approx(0.0, abs=1e-15)
        assert f(1.0, 1.0, 0.0) == pytest.approx((-1.0, 0.0, -1.0))

    def test_regular_at_zero_rho(self):
        f = closed_loop_field(ControllerId.GLOBA, UNIT)
        assert f(0.0, 0.5, -0.2)[0] == 0.0

    def test_open_loop(self):
        p = PolarState(2.0, 0.3, 0.6)
        r, d, c = open_loop_field(p, 1.5, 0.4)
        assert r == pytest.approx(-1.5 * math.cos(0.6))
        assert d == pytest.approx(1.5 / 2.0 * math.sin(0.6))
        assert c == pytest.approx(d - 0.4)

    def test_open_loop_singularity(self):
        with pytest.raises(SingularityError):
            open_loop_field(PolarState(0.0, 0.0, 0.0), 1.0, 0.0)

    def test_controller_spaces(self):
        assert controller_space(ControllerId.GENOVA) is StateSpaceId.S
        assert controller_space(ControllerId.BOLSA) is StateSpaceId.S1
        assert controller_space(ControllerId.BARFLI) is StateSpaceId.S2
        assert controller_space(ControllerId.BAGAL) is StateSpaceId.S3
        assert controller_space(ControllerId.LIBAC) is StateSpaceId.S2
