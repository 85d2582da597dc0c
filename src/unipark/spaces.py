"""Coordinate frames, the four steering state spaces, and their metrics.

The design frame is polar: ``rho`` is the distance to the target, ``delta``
the polar angle of the vehicle position about the target (shifted so
``delta = 0`` is directly behind the target), and ``gamma`` the line-of-sight
angle between the heading and the bearing to the target (``gamma = 0`` faces
the target).  With the target at the origin facing +x:

    rho   = hypot(x, y)
    delta = atan2(y, x) + pi          (range (0, 2*pi] before wrapping)
    gamma = delta - theta

and the inverse, continuous everywhere including rho = 0:

    x = -rho*cos(delta),  y = -rho*sin(delta),  theta = delta - gamma.

Unwrapped angles are the canonical internal representation; wrapping to
[-pi, pi) is an explicit, opt-in operation (:func:`wrap_angles`) because the
globally-defined steering laws live on unwrapped angles while the barrier
laws need the fundamental domain.

The reverse-parking convention phase-shifts both angles by -pi, namely
delta_hat = atan2(y, x) and gamma_hat = atan2(y, x) - theta; note the
heading is subtracted in gamma_hat exactly as in gamma = delta - theta (a
gamma_hat without the -theta term would not be an angle error at all).
Wrapping those shifted angles to [-pi, pi) is the same arithmetic as
:func:`wrap_angles` applied to the standard pair, which is what this module
implements; reverse parking itself only needs the velocity sign flip
(:func:`unipark.controllers.reverse_parking_wrap`).

Four state spaces are used, differing in which angles are constrained to
(-pi, pi):

    ========  ===========  ===========  =====================  =============
    id        delta        gamma        Delta                  Gamma
    ========  ===========  ===========  =====================  =============
    S         all reals    all reals    delta                  gamma
    S1        all reals    |gamma|<pi   delta                  2*tan(gamma/2)
    S2        |delta|<pi   all reals    2*tan(delta/2)         gamma
    S3        |delta|<pi   |gamma|<pi   2*tan(delta/2)         2*tan(gamma/2)
    ========  ===========  ===========  =====================  =============

Each space carries the metric ``rho + |Delta| + |Gamma|``, which blows up on
the barrier boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BarrierDomainError, TransformError
from .kernels import SCALAR, wrap_angle

__all__ = [
    "CartesianState",
    "PolarState",
    "IntegratorState",
    "StateSpaceId",
    "BARRIER_ANGLE_LIMIT",
    "cartesian_to_polar",
    "polar_to_cartesian",
    "wrap_angles",
    "to_integrator",
    "from_integrator",
    "constrained_angles",
    "warp_delta_gamma",
    "barrier_margin_values",
    "delta_gamma_in_space",
    "check_in_space",
    "metric",
    "metric_values",
    "metric_delta_gamma",
    "barrier_terms_cartesian",
]

# Barrier-domain errors are raised this close to |angle| = pi so tan(./2)
# stays finite in double precision.
BARRIER_ANGLE_LIMIT = math.pi - 1e-12

# Half-tangent magnitude at the barrier limit (about 2e12); Cartesian-side
# barrier terms beyond this correspond to angles outside the limit.
_BARRIER_TAN_LIMIT = math.tan(0.5 * BARRIER_ANGLE_LIMIT)


@dataclass(frozen=True)
class CartesianState:
    """Pose (x, y, theta) of the vehicle; heading is unwrapped."""

    x: float
    y: float
    theta: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "theta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise TransformError(f"CartesianState.{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class PolarState:
    """Design-frame state (rho, delta, gamma); angles unwrapped."""

    rho: float
    delta: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("rho", "delta", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise TransformError(f"PolarState.{name} must be finite, got {v!r}")
        if self.rho < 0.0:
            raise TransformError(f"PolarState.rho must be >= 0, got {self.rho!r}")


@dataclass(frozen=True)
class IntegratorState:
    """Nonholonomic-integrator coordinates (xi, eta, theta)."""

    xi: float
    eta: float
    theta: float


class StateSpaceId(Enum):
    """Which of the four steering state spaces a law or certificate lives on."""

    S = "S"
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"

    def __init__(self, value: str) -> None:
        # Plain member attributes rather than properties: a property that
        # compares enum members costs about 0.3 us, and the scalar loop reads
        # these flags several times per step.
        self.delta_constrained = value in ("S2", "S3")
        self.gamma_constrained = value in ("S1", "S3")


_ORIGIN = CartesianState(0.0, 0.0, 0.0)


def cartesian_to_polar(c: CartesianState, target: CartesianState = _ORIGIN) -> PolarState:
    """Transform a pose to polar coordinates relative to ``target``.

    Undefined (raises :class:`TransformError`) when the vehicle sits exactly
    on the target position.  The returned ``delta`` lies in (0, 2*pi] and
    ``gamma = delta - theta + theta*``; use :func:`wrap_angles` for the
    [-pi, pi) representatives.
    """
    dx = c.x - target.x
    dy = c.y - target.y
    if dx * dx + dy * dy == 0.0:
        raise TransformError("polar transform undefined at zero distance to target")
    rho = math.hypot(dx, dy)
    # +0.0 normalises -0.0 so the branch cut lands on delta = 2*pi exactly.
    delta = math.atan2(dy + 0.0, dx) - target.theta + math.pi
    gamma = delta - c.theta + target.theta
    return PolarState(rho, delta, gamma)


def polar_to_cartesian(p: PolarState) -> CartesianState:
    """Inverse transform; continuous everywhere, maps the origin to the origin."""
    return CartesianState(
        -p.rho * math.cos(p.delta),
        -p.rho * math.sin(p.delta),
        p.delta - p.gamma,
    )


def wrap_angles(p: PolarState) -> PolarState:
    """Wrap delta and gamma to [-pi, pi); rho unchanged.  Idempotent.

    This shifts the Cartesian discontinuity of the transform onto the rays
    the barrier laws repel from (|delta| = pi: crossing {x > 0, y = 0};
    |gamma| = pi: pointing directly away from the target).
    """
    return PolarState(p.rho, wrap_angle(p.delta), wrap_angle(p.gamma))


def to_integrator(p: PolarState) -> IntegratorState:
    """Map to nonholonomic-integrator coordinates xi = -rho*cos(gamma),
    eta = rho*sin(gamma), theta = delta - gamma."""
    return IntegratorState(
        -p.rho * math.cos(p.gamma),
        p.rho * math.sin(p.gamma),
        p.delta - p.gamma,
    )


def from_integrator(s: IntegratorState) -> PolarState:
    """Inverse of :func:`to_integrator` on the chart xi < 0 (|gamma| < pi/2)."""
    rho = math.hypot(s.xi, s.eta)
    if s.xi >= 0.0:
        raise TransformError("integrator inverse chart requires xi < 0")
    gamma = -math.atan(s.eta / s.xi)
    return PolarState(rho, s.theta + gamma, gamma)


def constrained_angles(ss: StateSpaceId, delta, gamma) -> tuple:
    """The angles of the pair, delta first, that ``ss`` confines to
    (-pi, pi): the one constrained-axis rule.  Scalars and arrays alike."""
    d = (delta,) if ss.delta_constrained else ()
    return d + (gamma,) if ss.gamma_constrained else d


def warp_delta_gamma(xp, ss: StateSpaceId, delta, gamma):
    """(Delta, Gamma) over the primitive namespace ``xp``: 2*tan(angle/2) on
    each axis ``ss`` constrains, the angle itself on the others."""
    big_d = 2.0 * xp.tan(0.5 * delta) if ss.delta_constrained else delta
    big_g = 2.0 * xp.tan(0.5 * gamma) if ss.gamma_constrained else gamma
    return big_d, big_g


def barrier_margin_values(ss: StateSpaceId, delta, gamma):
    """pi - |angle|, minimised elementwise over the angles ``ss``
    constrains; inf when it constrains none."""
    margin = math.inf
    for a in constrained_angles(ss, delta, gamma):
        margin = np.minimum(margin, math.pi - np.abs(a))
    return margin


def delta_gamma_in_space(
    ss: StateSpaceId, delta: float, gamma: float, limit: float = BARRIER_ANGLE_LIMIT
) -> bool:
    """True when every angle that ``ss`` constrains has magnitude below
    ``limit``.  The default keeps tan(angle/2) finite; the integrators pass
    pi minus their barrier-guard margin."""
    for a in constrained_angles(ss, delta, gamma):
        if abs(a) >= limit:
            return False
    return True


def check_in_space(ss: StateSpaceId, delta: float, gamma: float) -> None:
    if not delta_gamma_in_space(ss, delta, gamma):
        raise BarrierDomainError(
            f"(delta, gamma) = ({delta!r}, {gamma!r}) is outside {ss.value} "
            "(< pi required on its constrained angles)"
        )


def metric_values(xp, ss: StateSpaceId, rho, delta, gamma):
    """rho + |Delta| + |Gamma| over the primitive namespace ``xp``
    (:data:`~unipark.kernels.SCALAR` or :data:`~unipark.kernels.ARRAY`), with
    no domain check.  Summed as (rho + |Delta|) + |Gamma|, the order the
    integrators' termination tests have always used."""
    big_d, big_g = warp_delta_gamma(xp, ss, delta, gamma)
    return rho + xp.abs(big_d) + xp.abs(big_g)


def metric_delta_gamma(ss: StateSpaceId, delta: float, gamma: float) -> float:
    """|Delta| + |Gamma| for the angle pair in space ``ss``."""
    check_in_space(ss, delta, gamma)
    return metric_values(SCALAR, ss, 0.0, delta, gamma)


def metric(p: PolarState, ss: StateSpaceId) -> float:
    """State-space metric rho + |Delta| + |Gamma|; zero only at the origin."""
    check_in_space(ss, p.delta, p.gamma)
    return metric_values(SCALAR, ss, p.rho, p.delta, p.gamma)


def barrier_terms_cartesian(c: CartesianState) -> tuple[float, float]:
    """(tan(delta/2), tan(gamma/2)) computed directly from the Cartesian pose.

    tan(delta/2) = -y / (hypot(x, y) - x)
    tan(gamma/2) = (x*sin(theta) - y*cos(theta))
                   / (hypot(x, y) - x*cos(theta) - y*sin(theta))

    Equal to ``half_tan`` of the wrapped polar angles wherever both sides are
    defined.  Raises on the target itself and on the boundary rays where a
    denominator vanishes (delta or gamma at +-pi, including the 0/0
    configurations).
    """
    rho = math.hypot(c.x, c.y)
    if rho == 0.0:
        raise TransformError("barrier terms undefined at zero distance to target")

    # tan(delta/2): pick the algebraic form that avoids cancellation.
    if c.x < 0.0:
        tan_half_delta = -c.y / (rho - c.x)
    elif c.y != 0.0:
        tan_half_delta = -(rho + c.x) / c.y
    else:
        raise BarrierDomainError("tan(delta/2) diverges on the ray {x >= 0, y = 0}")

    xi = c.x * math.cos(c.theta) + c.y * math.sin(c.theta)
    eta = c.x * math.sin(c.theta) - c.y * math.cos(c.theta)
    if xi <= 0.0:
        tan_half_gamma = eta / (rho - xi)
    elif eta != 0.0:
        tan_half_gamma = (rho + xi) / eta
    else:
        raise BarrierDomainError("tan(gamma/2) diverges when the heading points away from the target")

    # Enforce the same margin as the angle-side checks: beyond it the pose is
    # within 1e-12 of a barrier ray.
    if abs(tan_half_delta) >= _BARRIER_TAN_LIMIT:
        raise BarrierDomainError("pose within the barrier margin of delta = +-pi")
    if abs(tan_half_gamma) >= _BARRIER_TAN_LIMIT:
        raise BarrierDomainError("pose within the barrier margin of gamma = +-pi")
    return tan_half_delta, tan_half_gamma
