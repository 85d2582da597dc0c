import math

import numpy as np
import pytest

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
            assert eigenvalue_error(jacobian_eigenvalues(DesignFamily.FORWARDING, g), spec) < POLE_ROUNDTRIP_TOL

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
