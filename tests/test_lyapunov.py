import math

import numpy as np
import pytest

from oracles import certificate_oracle
from unipark.controllers import ControllerId, Gains, backstep_z, steering_tilde_many
from unipark.errors import DomainError
from unipark.kernels import SCALAR
from unipark.lyapunov import (
    STRICT_FAMILIES,
    CompositeKind,
    CompositeOrder,
    LyapunovFn,
    RateKind,
    appendix_bounds_check,
    appendix_bounds_slack,
    composite,
    directional_derivative,
    genova_nonstrict,
    logging_clf,
    steering_clf,
    storage_energy,
)
from unipark.spaces import StateSpaceId
from unipark.verify import (
    gradient_check,
    positive_definiteness_check,
    rate_check,
    sample_interior,
    strict_gain_sets,
)

UNIT = Gains()
RNG = np.random.default_rng(11)


def tilde_fn(cid, g):
    return lambda d, c: steering_tilde_many(cid, g, d, c)


class TestValues:
    def test_all_zero_at_origin(self):
        for cid in STRICT_FAMILIES:
            clf = steering_clf(cid, UNIT)
            assert float(clf.value(0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
            fn = LyapunovFn(clf)
            assert float(fn.value(0.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_genova_example(self):
        clf = steering_clf(ControllerId.GENOVA, UNIT)
        assert float(clf.value(1.0, 0.0)) == pytest.approx(3.5)
        fn = LyapunovFn(clf)
        assert float(fn.value(1.0, 1.0, 0.0)) == pytest.approx(4.5)

    def test_genova_matches_expanded_form(self):
        # rho^2 + (delta^2 + gamma^2 + 2)^2/2 - 2 + (delta + gamma)^2 at unit
        # gains, checked at the tabulated point and at random ones.
        fn = LyapunovFn(steering_clf(ControllerId.GENOVA, UNIT))

        def expanded(r, d, c):
            return r * r + 0.5 * (d * d + c * c + 2.0) ** 2 - 2.0 + (d + c) ** 2

        assert float(fn.value(1.0, 1.0, 0.0)) == pytest.approx(expanded(1.0, 1.0, 0.0))
        assert expanded(1.0, 1.0, 0.0) == pytest.approx(4.5)
        for r, d, c in RNG.uniform(-2, 2, (50, 3)):
            assert float(fn.value(abs(r), d, c)) == pytest.approx(
                expanded(abs(r), d, c), rel=1e-12
            )

    def test_glofo_example(self):
        fn = LyapunovFn(steering_clf(ControllerId.GLOFO, UNIT))
        assert float(fn.value(1.0, 1.0, 0.0)) == pytest.approx(2.0)

    def test_values_match_oracle(self):
        # Every logged certificate, written in warped family form, against
        # its per-law tan(angle/2) transliteration at 40 digits.
        rng = np.random.default_rng(5)
        for g in (UNIT, Gains(k1=2.0, k2=0.8, k3=1.5, k4=1.2), Gains(k1=0.7, k2=0.5, k3=2.3, k4=0.6)):
            kd = {"k1": g.k1, "k2": g.k2, "k3": g.k3, "k4": g.k4}
            for cid in ControllerId:
                clf = logging_clf(cid, g)
                for d, c in sample_interior(clf.space, 40, rng):
                    want = float(certificate_oracle(cid.value, kd, d, c))
                    assert float(clf.value(d, c)) == pytest.approx(want, rel=1e-12), cid

    def test_positive_definite_sampled(self):
        for cid in STRICT_FAMILIES:
            clf = steering_clf(cid, UNIT)
            res = positive_definiteness_check(clf, sample_interior(clf.space, 500, RNG))
            assert res.passed, res

    def test_lower_bounded_by_metric_squared_near_origin(self):
        # V >= c * (|Delta| + |Gamma|)^2 on a small neighbourhood.
        from unipark.spaces import metric_delta_gamma

        for cid in STRICT_FAMILIES:
            clf = steering_clf(cid, UNIT)
            for _ in range(200):
                d, c = RNG.uniform(-0.1, 0.1, 2)
                m = metric_delta_gamma(clf.space, d, c)
                if m == 0.0:
                    continue
                assert float(clf.value(d, c)) >= 1e-3 * m * m


class TestRates:
    def test_flags(self):
        for cid, kind in (
            (ControllerId.GENOVA, RateKind.UPPER_BOUND),
            (ControllerId.BOLSA, RateKind.UPPER_BOUND),
            (ControllerId.BOPA, RateKind.UPPER_BOUND),
            (ControllerId.BAGAL, RateKind.UPPER_BOUND),
            (ControllerId.GLOFO, RateKind.EQUALITY),
            (ControllerId.BOFO, RateKind.EQUALITY),
            (ControllerId.GLOBA, RateKind.EQUALITY),
            (ControllerId.BARFLI, RateKind.EQUALITY),
        ):
            assert steering_clf(cid, UNIT).rate_kind is kind

    def test_glofo_example(self):
        clf = steering_clf(ControllerId.GLOFO, UNIT)
        assert float(clf.rate(1.0, 0.0)) == pytest.approx(-2.0)

    def test_globa_examples(self):
        clf = steering_clf(ControllerId.GLOBA, UNIT)
        assert float(clf.rate(0.0, 0.0)) == 0.0
        gamma_for_z0 = -0.5 * math.atan(2.0)
        assert float(clf.rate(1.0, gamma_for_z0)) == pytest.approx(-2.0 / math.sqrt(5.0))

    def test_equality_families_match_directional_derivative(self):
        for cid in STRICT_FAMILIES:
            clf = steering_clf(cid, UNIT)
            if clf.rate_kind is not RateKind.EQUALITY:
                continue
            res = rate_check(clf, sample_interior(clf.space, 500, RNG))
            assert res.passed and res.name == "rate_equality", res

    def test_upper_bound_families_dominate(self):
        for g in [UNIT] + strict_gain_sets(2, RNG):
            for cid in STRICT_FAMILIES:
                clf = steering_clf(cid, g)
                if clf.rate_kind is not RateKind.UPPER_BOUND:
                    continue
                res = rate_check(clf, sample_interior(clf.space, 500, RNG))
                assert res.passed and res.name == "rate_domination", res

    def test_gradients_match_finite_differences(self):
        for cid in ControllerId:
            clf = logging_clf(cid, UNIT)
            res = gradient_check(clf, sample_interior(clf.space, 300, RNG))
            assert res.passed, res

    def test_corrupted_gradient_detected(self):
        clf = steering_clf(ControllerId.GENOVA, UNIT)

        def bad_grad(d, c):
            gd, gc = clf.grad(d, c)
            return gd * 1.001, gc

        res = gradient_check(clf, sample_interior(clf.space, 100, RNG), grad_fn=bad_grad)
        assert not res.passed


class TestBarrierBehaviour:
    def test_blowup_families(self):
        approach = math.pi - 10.0 ** (-np.arange(1.0, 8.0))
        gamma_side = (ControllerId.BOLSA, ControllerId.BOFO, ControllerId.BAGAL)
        delta_side = (ControllerId.BOPA, ControllerId.BARFLI, ControllerId.BAGAL)
        for cid in gamma_side:
            clf = steering_clf(cid, UNIT)
            vals = np.asarray(clf.value(np.full_like(approach, 0.3), approach))
            assert np.all(np.diff(vals) > 0) and vals[-1] > 1e6
        for cid in delta_side:
            clf = steering_clf(cid, UNIT)
            vals = np.asarray(clf.value(approach, np.full_like(approach, 0.3)))
            assert np.all(np.diff(vals) > 0) and vals[-1] > 1e6


class TestComposite:
    def test_zero_at_origin_all_seven(self):
        for kind in CompositeKind:
            for order in CompositeOrder:
                fn = composite(steering_clf(ControllerId.GENOVA, UNIT), kind, order)
                assert float(fn.value(0.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_cosh_value(self):
        # cosh(1) + 0 - 1 evaluated with rho^2 = 1, V_dg = 0.
        fn = composite(steering_clf(ControllerId.GLOBA, UNIT), CompositeKind.COSH)
        assert float(fn.value(1.0, 0.0, 0.0)) == pytest.approx(0.5430806348152437, rel=1e-12)

    def test_add_reproduces_default(self):
        clf = steering_clf(ControllerId.BOFO, UNIT)
        fn = composite(clf, CompositeKind.ADD)
        for r, d, c in RNG.uniform(0.1, 1.5, (30, 3)):
            assert float(fn.value(r, d, c)) == pytest.approx(
                r * r + float(clf.value(d, c)), rel=1e-14
            )

    def test_of_parts_is_value(self):
        # The batch monitors evaluate V_dg once per certificate and combine
        # it through of_parts; that must be value() bit for bit.
        r, d, c = RNG.uniform(-3.0, 3.0, (3, 200))
        clf = logging_clf(ControllerId.GLOFO, UNIT)
        for kind in CompositeKind:
            for order in CompositeOrder:
                fn = LyapunovFn(clf, kind, order)
                got = fn.of_parts(r**2, clf.value(d, c))
                assert got.tobytes() == fn.value(r, d, c).tobytes(), (kind, order)

    def test_full_gradient_matches_fd(self):
        for kind in CompositeKind:
            for order in CompositeOrder:
                fn = composite(steering_clf(ControllerId.GLOBA, UNIT), kind, order)
                for r, d, c in RNG.uniform(0.2, 1.6, (10, 3)):
                    gr, gd, gc = fn.grad(r, d, c)
                    h = 1e-6
                    fr = (float(fn.value(r + h, d, c)) - float(fn.value(r - h, d, c))) / (2 * h)
                    fd = (float(fn.value(r, d + h, c)) - float(fn.value(r, d - h, c))) / (2 * h)
                    fc = (float(fn.value(r, d, c + h)) - float(fn.value(r, d, c - h))) / (2 * h)
                    assert float(gr) == pytest.approx(fr, rel=1e-5, abs=1e-8)
                    assert float(gd) == pytest.approx(fd, rel=1e-5, abs=1e-8)
                    assert float(gc) == pytest.approx(fc, rel=1e-5, abs=1e-8)

    def test_composite_rate_dominates_directional_derivative(self):
        from unipark.controllers import closed_loop_field

        for kind in (CompositeKind.CROSS, CompositeKind.EXP_PROD, CompositeKind.SQRT):
            for cid in (ControllerId.GENOVA, ControllerId.GLOBA):
                fn = composite(steering_clf(cid, UNIT), kind, CompositeOrder.V_FIRST)
                f = closed_loop_field(cid, UNIT)

                def field(r, d, c):
                    return f(float(r), float(d), float(c))

                for r, d, c in RNG.uniform(-1.5, 1.5, (40, 3)):
                    r = abs(r)
                    vdot = float(directional_derivative(fn, field, r, d, c))
                    rate, flag = fn.rate(r, d, c)
                    if flag is RateKind.EQUALITY:
                        assert vdot == pytest.approx(float(rate), rel=1e-9, abs=1e-12)
                    else:
                        assert vdot <= float(rate) + 1e-12

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            from unipark.lyapunov import _cal_value

            _cal_value("nonsense", 1.0, 1.0)


class TestGenovaNonstrict:
    def test_origin(self):
        v, r = genova_nonstrict(UNIT, 0.0, 0.0, 0.0)
        assert float(v) == 0.0 and float(r) == 0.0

    def test_example(self):
        v, r = genova_nonstrict(UNIT, 1.0, 1.0, 0.0)
        assert float(v) == pytest.approx(2.0)
        assert float(r) == pytest.approx(-2.0)

    def test_nonstrictness_on_gamma_zero_slice(self):
        # rate vanishes at rho = 0, gamma = 0 for any delta
        for d in (0.5, 1.0, 7.0):
            _, r = genova_nonstrict(UNIT, 0.0, d, 0.0)
            assert float(r) == 0.0

    def test_rate_is_exact(self):
        from unipark.controllers import closed_loop_field

        f = closed_loop_field(ControllerId.GENOVA, UNIT)
        h = 1e-6
        for r0, d0, c0 in RNG.uniform(0.2, 1.5, (40, 3)):
            v0, rate = genova_nonstrict(UNIT, r0, d0, c0)
            dr, dd, dc = f(r0, d0, c0)
            v1, _ = genova_nonstrict(UNIT, r0 + h * dr, d0 + h * dd, c0 + h * dc)
            fd = (float(v1) - float(v0)) / h
            assert fd == pytest.approx(float(rate), rel=1e-4, abs=1e-6)


class TestEnergyDissipation:
    def test_energy_rate_along_passivity_loops(self):
        # dU/dt = -2 k2 q^2 Gamma^2 along each passivity closed loop.
        cases = {
            ControllerId.GENOVA: StateSpaceId.S,
            ControllerId.BOLSA: StateSpaceId.S1,
            ControllerId.BOPA: StateSpaceId.S2,
            ControllerId.BAGAL: StateSpaceId.S3,
        }
        g = Gains(k1=1.3, k2=0.9, k3=1.9)
        h = 1e-6
        for cid, space in cases.items():
            for _ in range(60):
                d, c = RNG.uniform(-2.0, 2.0, 2)
                dd = 0.5 * g.k1 * math.sin(2 * c)
                dc = -float(steering_tilde_many(cid, g, d, c))
                u_plus = float(storage_energy(space, g, d + h * dd, c + h * dc))
                u_minus = float(storage_energy(space, g, d - h * dd, c - h * dc))
                big_g = 2.0 * math.tan(0.5 * c) if space.gamma_constrained else c
                expected = -2.0 * g.k2 * g.q**2 * big_g**2
                assert (u_plus - u_minus) / (2 * h) == pytest.approx(expected, rel=1e-6, abs=1e-8)


class TestPsiZIdentity:
    def test_transform_form_of_psi(self):
        # Along either backstepping transform, psi(z, gamma) equals its
        # Delta-dressed form
        #   (sinc(2z) + 2 k2 Delta (1 - cos 2z)/(2z)) / sqrt(1 + 4 k2^2 Delta^2).
        from unipark.kernels import psi, sinc

        g = Gains(k1=1.0, k2=0.9, k3=1.3, k4=1.0)
        for _ in range(300):
            d, c = RNG.uniform(-2.5, 2.5, 2)
            for cid in (ControllerId.GLOBA, ControllerId.BARFLI):
                big_d = d if cid is ControllerId.GLOBA else 2.0 * math.tan(0.5 * d)
                z = backstep_z(cid, g, d, c)
                if abs(z) < 1e-6:
                    continue
                n = math.sqrt(1.0 + 4.0 * g.k2**2 * big_d**2)
                dressed = (sinc(2 * z) + 2 * g.k2 * big_d * (1 - math.cos(2 * z)) / (2 * z)) / n
                assert psi(z, c) == pytest.approx(dressed, rel=1e-10, abs=1e-12)

    def test_sin_two_gamma_identity(self):
        # sin(2*gamma) = 2*(psi(z, gamma)*z - k2*Delta/N) for the
        # backstepping transforms of globa (Delta = delta) and barfli
        # (Delta = 2*tan(delta/2)), with N = sqrt(1 + 4*k2^2*Delta^2).
        from unipark.kernels import psi

        g = Gains(k1=1.1, k2=0.7, k3=1.4, k4=1.0)
        for _ in range(300):
            d, c = RNG.uniform(-2.5, 2.5, 2)
            for cid in (ControllerId.GLOBA, ControllerId.BARFLI):
                big_d = d if cid is ControllerId.GLOBA else 2.0 * math.tan(0.5 * d)
                z = backstep_z(cid, g, d, c)
                n = math.sqrt(1.0 + 4.0 * g.k2**2 * big_d**2)
                lhs = math.sin(2.0 * c)
                rhs = 2.0 * (psi(z, c) * z - g.k2 * big_d / n)
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestLoggingCertificates:
    def test_libac_rate_is_exact(self):
        clf = logging_clf(ControllerId.LIBAC, Gains(k1=1.2, k2=0.6, k3=1.7))
        assert clf.rate_kind is RateKind.EQUALITY
        res = rate_check(clf, sample_interior(clf.space, 400, RNG))
        assert res.passed, res

    def test_backstepping_variants_dominate(self):
        for cid in (ControllerId.GLOBA_INTERP, ControllerId.GLOBA_CONS):
            clf = logging_clf(cid, UNIT)
            assert clf.rate_kind is RateKind.UPPER_BOUND
            res = rate_check(clf, sample_interior(clf.space, 400, RNG))
            assert res.passed, res

    def test_strict_families_share_logging_certificates(self):
        for cid in STRICT_FAMILIES:
            assert logging_clf(cid, UNIT).controller is cid

    def test_steering_clf_rejects_variants(self):
        with pytest.raises(DomainError):
            steering_clf(ControllerId.LIBAC, UNIT)


def _components(clf, xp, d, c):
    """Value, both gradient components and rate of ``clf`` over ``xp``."""
    g, ss = clf.gains, clf.space
    return (clf._value(xp, g, ss, d, c), *clf._grad(xp, g, ss, d, c), clf._rate(xp, g, ss, d, c))


class TestNamespaces:
    @pytest.mark.parametrize("namespace", ["scalar", "sympy"])
    def test_certificates_match_array(self, namespace):
        # Every certificate is written once over xp, so SCALAR and a sympy
        # namespace evaluate the same closed forms SteeringClf does over
        # ARRAY.  Expressions are built in symbols, then evaluated to 30
        # digits.
        if namespace == "sympy":
            pytest.importorskip("sympy")
            from symbolic import DELTA, GAMMA, SYMBOLIC, at

        rng = np.random.default_rng(13)
        for g in (UNIT, *strict_gain_sets(1, rng)):
            for cid in ControllerId:
                clf = logging_clf(cid, g)
                pts = sample_interior(clf.space, 4, rng)
                d, c = pts[:, 0], pts[:, 1]
                want = np.stack([clf.value(d, c), *clf.grad(d, c), clf.rate(d, c)], axis=1)
                if namespace == "scalar":
                    got = [_components(clf, SCALAR, float(a), float(b)) for a, b in pts]
                else:
                    exprs = _components(clf, SYMBOLIC, DELTA, GAMMA)
                    got = [[at(e, float(a), float(b)) for e in exprs] for a, b in pts]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=cid.value)


class TestAppendixBounds:
    def test_k1_x0(self):
        s1, s2 = appendix_bounds_slack(1.0, 0.0)
        assert float(s1) == pytest.approx(0.0, abs=1e-15)  # exact equality here
        assert float(s2) == pytest.approx(1.0)
        assert appendix_bounds_check(1.0, 0.0) == (True, True)

    def test_k1_half_pi(self):
        # first inequality: 1 - sin(pi)/pi = 1 <= pi^2/4
        s1, _ = appendix_bounds_slack(1.0, math.pi / 2)
        assert float(s1) == pytest.approx(math.pi**2 / 4.0 - 1.0, rel=1e-12)

    def test_requires_k_at_least_one(self):
        with pytest.raises(DomainError):
            appendix_bounds_check(0.5, 1.0)

    def test_grid_smoke(self):
        x = np.arange(-5.0, 5.0, 1e-2)
        for k in (1.0, 2.0, 10.0):
            s1, s2 = appendix_bounds_slack(k, x)
            assert float(np.min(s1)) >= -1e-12
            assert float(np.min(s2)) >= -1e-12
