import math

import numpy as np
import pytest

from oracles import pole_roundtrip_reference, sample_poles
from unipark import linearization, verify
from unipark.controllers import Gains
from unipark.errors import DomainError, InfeasiblePolesError
from unipark.linearization import (
    DesignFamily,
    PoleSpec,
    assign_gains,
    jacobian,
    jacobian_eigenvalues,
)
from unipark.verify import (
    JACOBIAN_CONTROLLERS,
    POLE_ROUNDTRIP_TOL,
    eigenvalue_error,
    jacobian_fd_check,
    pole_roundtrip_check,
)

UNIT = Gains()


class TestJacobians:
    def test_passivity_structure(self):
        np.testing.assert_allclose(
            jacobian(DesignFamily.PASSIVITY, UNIT),
            [[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, -1.0]],
        )

    def test_forwarding_entry_and_eigs(self):
        j = jacobian(DesignFamily.FORWARDING, UNIT)
        assert j[2, 2] == pytest.approx(-2.0)
        eigs = jacobian_eigenvalues(DesignFamily.FORWARDING, UNIT)
        assert sorted(z.real for z in eigs) == pytest.approx([-1.0, -1.0, -1.0])
        assert all(z.imag == 0 for z in eigs)

    def test_backstepping_entries(self):
        j = jacobian(DesignFamily.BACKSTEPPING, UNIT)
        assert j[2, 1] == pytest.approx(-2.0)  # -(k3 + k2*k4)
        assert j[2, 2] == pytest.approx(-2.0)  # -(k1*k2 + k4)

    def test_matches_nonlinear_fd_for_all_mapped_controllers(self):
        for cid in JACOBIAN_CONTROLLERS:
            res = jacobian_fd_check(cid, Gains(k1=1.4, k2=0.8, k3=1.1, k4=1.3))
            assert res.passed and res.worst < 1e-6, res


class TestPoleSpec:
    def test_real_ordering_canonicalised(self):
        spec = PoleSpec(1.0, 3.0, 2.0)
        assert spec.p2.real == 2.0 and spec.p3.real == 3.0

    def test_conjugate_ordering_canonicalised(self):
        spec = PoleSpec(1.0, complex(0.5, -0.7), complex(0.5, 0.7))
        assert spec.p2.imag > 0

    def test_rejects_non_conjugate(self):
        with pytest.raises(DomainError):
            PoleSpec(1.0, complex(0.5, 0.7), complex(0.6, -0.7))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            PoleSpec(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            PoleSpec(1.0, complex(-0.5, 0.7), complex(-0.5, -0.7))


class TestAssignGains:
    def test_passivity_example(self):
        spec = PoleSpec(1.0, complex(0.5, math.sqrt(3) / 2), complex(0.5, -math.sqrt(3) / 2))
        (g,) = assign_gains(DesignFamily.PASSIVITY, spec)
        assert (g.k1, g.k2) == pytest.approx((1.0, 1.0))
        assert g.k3 == pytest.approx(1.0)
        assert g.strict_passivity  # equality boundary counts as satisfied

    def test_passivity_strict_rejects_real_pairs(self):
        with pytest.raises(InfeasiblePolesError):
            assign_gains(DesignFamily.PASSIVITY, PoleSpec(1.0, 1.0, 1.0))

    def test_passivity_nonstrict_accepts_real_pairs(self):
        (g,) = assign_gains(DesignFamily.PASSIVITY, PoleSpec(1.0, 1.0, 1.0), strict=False)
        assert (g.k1, g.k2, g.k3) == pytest.approx((1.0, 2.0, 1.0))
        assert not g.strict_passivity

    def test_passivity_strict_rejects_overdamped_complex(self):
        # |Im| < sqrt(3)*Re means damping > 1/2, so k2^2 > k1*k3.
        spec = PoleSpec(1.0, complex(1.0, 0.5), complex(1.0, -0.5))
        with pytest.raises(InfeasiblePolesError):
            assign_gains(DesignFamily.PASSIVITY, spec)

    def test_forwarding_two_branches(self):
        sols = assign_gains(DesignFamily.FORWARDING, PoleSpec(1.0, 2.0, 3.0))
        assert sorted(g.k2 for g in sols) == pytest.approx([2.0, 3.0])
        for g in sols:
            assert g.k3 == pytest.approx(6.0)

    def test_forwarding_equal_poles_single_branch(self):
        sols = assign_gains(DesignFamily.FORWARDING, PoleSpec(1.0, 2.0, 2.0))
        assert len(sols) == 1

    @pytest.mark.parametrize("p2", [0.3, 1.0, 2.7])
    def test_forwarding_near_equal_poles_round_trip(self, p2):
        # The discriminant of the gamma-block quadratic cancels for nearly
        # equal poles; the factored roots keep the round trip exact.
        spec = PoleSpec(1.3, p2, p2 * (1.0 + 1e-9))
        for g in assign_gains(DesignFamily.FORWARDING, spec):
            assert eigenvalue_error(jacobian_eigenvalues(DesignFamily.FORWARDING, g), spec.as_eigenvalues()) < POLE_ROUNDTRIP_TOL

    def test_eigenvalue_error_pairs_by_best_ordering(self):
        # A conjugate pair whose real parts differ in the last digits: sorted
        # by (real, imag), the conjugate of the request pairs crosswise.
        wanted = np.array([-1.0, complex(-0.5, -2.0), complex(-0.5 + 1e-15, 2.0)])
        stack = np.stack([wanted.conj(), wanted[[2, 0, 1]] + 1e-9, wanted[[0, 2, 1]] + 3e-9j])
        assert eigenvalue_error(stack, wanted) == pytest.approx([1e-15, 1e-9, 3e-9], abs=1e-14)
        assert eigenvalue_error(wanted.conj(), wanted) < 1e-14

    def test_forwarding_rejects_complex(self):
        spec = PoleSpec(1.0, complex(1.0, 1.0), complex(1.0, -1.0))
        with pytest.raises(InfeasiblePolesError):
            assign_gains(DesignFamily.FORWARDING, spec)

    def test_backstepping_example(self):
        (g,) = assign_gains(DesignFamily.BACKSTEPPING, PoleSpec(1.0, 2.0, 3.0), epsilon=0.5)
        assert (g.k1, g.k2, g.k3, g.k4) == pytest.approx((1.0, 1.5, 0.75, 3.5))
        eigs = jacobian_eigenvalues(DesignFamily.BACKSTEPPING, g)
        assert sorted(z.real for z in eigs) == pytest.approx([-3.0, -2.0, -1.0])

    def test_backstepping_epsilon_default_and_bounds(self):
        (g,) = assign_gains(DesignFamily.BACKSTEPPING, PoleSpec(1.0, 2.0, 3.0))
        assert g.k2 == pytest.approx((2.0 - 0.1) / 1.0)  # default epsilon 0.1
        with pytest.raises(InfeasiblePolesError):
            assign_gains(DesignFamily.BACKSTEPPING, PoleSpec(1.0, 2.0, 3.0), epsilon=2.5)

    def test_backstepping_complex_pair(self):
        spec = PoleSpec(2.0, complex(0.8, 1.1), complex(0.8, -1.1))
        (g,) = assign_gains(DesignFamily.BACKSTEPPING, spec, epsilon=0.3)
        eigs = sorted(jacobian_eigenvalues(DesignFamily.BACKSTEPPING, g), key=lambda z: (z.real, z.imag))
        want = sorted(spec.as_eigenvalues(), key=lambda z: (z.real, z.imag))
        for a, b in zip(eigs, want):
            assert abs(a - b) < 1e-12


class TestRoundTrips:
    @pytest.mark.parametrize("family", list(DesignFamily))
    def test_random_feasible_specs(self, family):
        res = pole_roundtrip_check(family, np.random.default_rng(12), n=200)
        assert res.passed and res.worst < 1e-10, res


class ScriptedRng:
    """Hands out the doubles of ``u`` in order, through ``random`` and
    ``uniform`` computed as numpy's Generator computes them."""

    def __init__(self, u):
        self.u, self.pos = np.asarray(u, dtype=float).ravel(), 0

    def random(self, size=None):
        k = 1 if size is None else int(np.prod(size))
        out, self.pos = self.u[self.pos:self.pos + k], self.pos + k
        return float(out[0]) if size is None else out.reshape(size)

    def uniform(self, lo, hi, size=None):
        return lo + (hi - lo) * self.random(size)


DRAWS = {DesignFamily.PASSIVITY: 3, DesignFamily.FORWARDING: 3, DesignFamily.BACKSTEPPING: 5}


def _sabotage(monkeypatch, column, change):
    """Apply ``change`` to one column of every branch of gain_branches
    (k1..k4, then the broken flag) in the samples with p1 > 2.9, in both the
    scalar and the batched path."""
    real = linearization.gain_branches

    def gain_branches(xp, family, p1, *rest):
        return tuple(
            tuple(xp.where(p1 > 2.9, change(v), v) if j == column else v for j, v in enumerate(branch))
            for branch in real(xp, family, p1, *rest)
        )

    monkeypatch.setattr(linearization, "gain_branches", gain_branches)
    monkeypatch.setattr(verify, "gain_branches", gain_branches)


class TestBatchedRoundTrips:
    """The batched check against the per-sample reference loop."""

    @pytest.mark.parametrize("n", [1, 100, 10000])
    @pytest.mark.parametrize("seed", [0, 600, 935547811])
    @pytest.mark.parametrize("family", list(DesignFamily))
    def test_bitwise_equal_to_reference(self, family, seed, n):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        passed, worst = pole_roundtrip_reference(family, ref_rng, n, POLE_ROUNDTRIP_TOL)
        res = pole_roundtrip_check(family, rng, n=n)
        assert res.worst == worst and res.passed == passed
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("family", list(DesignFamily))
    def test_block_draw_is_the_scalar_draw(self, family):
        n = 2000
        p1, re2, im2, re3, im3, eps = verify._pole_block(family, np.random.default_rng(7).random((n, DRAWS[family])))
        rng = np.random.default_rng(7)
        for i in range(n):
            spec = sample_poles(family, rng)
            assert (p1[i], complex(re2[i], im2[i]), complex(re3[i], im3[i])) == (spec.p1, spec.p2, spec.p3)
            if family is DesignFamily.BACKSTEPPING:
                assert eps[i] == rng.uniform(0.05, 0.95) * spec.p2.real

    # (family, what is forced, expected error).  A scripted case sets doubles
    # of sample 37; a sabotaged one changes a gain of every sample with
    # p1 > 2.9.
    FORCED = [
        (DesignFamily.PASSIVITY, ("script", {2: -0.5}), InfeasiblePolesError),  # damping > 1/2
        (DesignFamily.PASSIVITY, ("script", {0: -1.0}), DomainError),  # p1 < 0
        (DesignFamily.FORWARDING, ("script", {1: 1e300, 2: 1e300}), InfeasiblePolesError),  # k3 = inf
        (DesignFamily.FORWARDING, ("sabotage", 0, lambda k: 0.0 * k), DomainError),  # k1 = 0
        (DesignFamily.BACKSTEPPING, ("script", {4: 1.5}), InfeasiblePolesError),  # epsilon > Re p2
        # A conjugate pair with epsilon < 0 still has positive gains.
        (DesignFamily.BACKSTEPPING, ("script", {1: 0.9, 4: -0.5}), InfeasiblePolesError),
        (DesignFamily.BACKSTEPPING, ("sabotage", 3, lambda k: -k), DomainError),  # k4 < 0
    ]

    @pytest.mark.parametrize("family, force, error", FORCED)
    def test_forced_check_fires_at_reference_sample(self, monkeypatch, family, force, error):
        n, k = 200, DRAWS[family]
        u = np.random.default_rng(3).random((n, k))
        if force[0] == "script":
            for column, value in force[1].items():
                u[37, column] = value
        else:
            _sabotage(monkeypatch, *force[1:])
        replayed = []
        real_spec = verify.PoleSpec
        monkeypatch.setattr(verify, "PoleSpec", lambda *a: replayed.append(a[0]) or real_spec(*a))
        with pytest.raises(error) as ref:
            pole_roundtrip_reference(family, ScriptedRng(u), n, POLE_ROUNDTRIP_TOL)
        with pytest.raises(error) as got:
            pole_roundtrip_check(family, ScriptedRng(u), n=n)
        i = ref.value.sample_index
        assert i == (37 if force[0] == "script" else int(np.argmax(0.2 + 2.8 * u[:, 0] > 2.9)))
        assert str(got.value) == str(ref.value)
        assert replayed == [0.2 + (3.0 - 0.2) * u[i, 0]]

    def test_not_strictly_passive_ends_failed_at_reference_sample(self, monkeypatch):
        # A cleared broken flag lets the loop build gains with k2^2 > k1*k3.
        real = linearization.gain_branches

        def gain_branches(xp, family, p1, *rest):
            ((k1, k2, k3, k4, _),) = real(xp, family, p1, *rest)
            return ((k1, k2, xp.where(p1 > 2.9, 0.1 * k3, k3), k4, False),)

        monkeypatch.setattr(linearization, "gain_branches", gain_branches)
        monkeypatch.setattr(verify, "gain_branches", gain_branches)
        u = np.random.default_rng(3).random((200, 3))
        passed, worst = pole_roundtrip_reference(DesignFamily.PASSIVITY, ScriptedRng(u), 200, POLE_ROUNDTRIP_TOL)
        res = pole_roundtrip_check(DesignFamily.PASSIVITY, ScriptedRng(u), n=200)
        assert not passed and not res.passed and res.worst == worst > 1e-3
        assert res.details == {"note": "strict-mode output violated k1*k3 >= k2^2"}
