"""The forward-velocity law, the steering split, and all steering families.

Velocity module
---------------
The forward velocity is always ``v = k1 * rho * cos(gamma)`` (equivalently
``-k1*(x*cos(theta) + y*sin(theta))`` in Cartesian form).  It is bidirectional,
never discontinuous away from the origin, and decouples the distance:
``rho' = -k1 * rho * cos(gamma)^2``.  On ``rho > 0`` the remaining steering
subsystem is

    delta' = (k1/2) * sin(2*gamma)
    gamma' = (k1/2) * sin(2*gamma) - omega,

independent of rho, so steering is designed separately.  Most laws use the
cancellation split ``omega = (k1/2)*sin(2*gamma) + omega_tilde`` and design
``omega_tilde(delta, gamma)`` for ``gamma' = -omega_tilde``.

Steering families (Table-style overview; z and zeta are defined per law):

    ==============  =====  ==========================================
    id              space  omega_tilde (or total omega where noted)
    ==============  =====  ==========================================
    genova          S      k2*g + k3*sinc(2g)*d
    bolsa           S1     k2*sin(g) + k3*cos(g)/(1+tan(g/2)^2)^2 * d
    bopa            S2     k2*g + 2*k3*sinc(2g)*(1+tan(d/2)^2)*tan(d/2)
    bagal           S3     k2*sin(g) + 2*k3*cos(g)/(1+tan(g/2)^2)^2
                             * (1+tan(d/2)^2)*tan(d/2)
    glofo           S      k2*g + k3*sinc(2g)*zeta,
                             zeta = d + (k1/2k2)*Si(2g)
    bofo            S1     k2*sin(g) + k3*cos(g)/(1+tan(g/2)^2)^2 * zeta,
                             zeta = d + (k1/k2)*sin(g)
    globa           S      k4*z + (k1/2)*k2*sin(2g)/(1+4k2^2 d^2)
                             + k3*psi(z,g)*d,  z = g + arctan(2k2*d)/2
    barfli          S2     k4*z + (k1/2)*k2*(1+tan(d/2)^2)*sin(2g)
                             / (1+16k2^2 tan(d/2)^2)
                             + 2*k3*psi(z,g)*(1+tan(d/2)^2)*tan(d/2),
                             z = g + arctan(4k2*tan(d/2))/2
    globa-interp    S      total omega = (k4 + (k3/2k2)*C^2/N + k1*|psi|*B)*z
    globa-cons      S      total omega = (k4 + k5 + (k3/k2)*(1+4k2^2 d^2))*z
    libac           S2     total omega = k3*z + (3k1/4)*sin(2g)
                             + k2*tan(d/2)/(1+cos d)*psi(z,g),  z = g + d/2
    ==============  =====  ==========================================

``globa-interp``, ``globa-cons`` and ``libac`` are stated directly as the
total steering input; for uniformity their ``steering_tilde`` is defined as
``omega - (k1/2)*sin(2*gamma)`` so that ``gamma' = -omega_tilde`` holds for
every id.

The general passivity template dividing by the derivative of the barrier
storage is singular at gamma = 0 and is deliberately not exposed; only its
four concrete closed forms above (genova, bolsa, bopa, bagal) are.

Gain conventions: all gains are positive.  For the passivity laws the
strictness condition ``k1*k3 >= k2^2`` is reported as a flag, not enforced,
so the non-strict regime stays explorable.  ``q = sqrt(k1/k3)`` and the
conservative-backstepping gain ``k5 = k1*(1+k2)*(1 + k1*k2*(1+k2)/k3)`` are
derived quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import BarrierDomainError, DomainError, SingularityError
from .kernels import ARRAY, SCALAR
from .spaces import PolarState, StateSpaceId, check_in_space

__all__ = [
    "Gains",
    "ControllerId",
    "ControlInput",
    "controller_space",
    "velocity",
    "velocity_cartesian",
    "steering_tilde",
    "steering_total",
    "steering_tilde_many",
    "heading_only",
    "reverse_parking_wrap",
    "closed_loop_field",
    "closed_loop_input",
    "open_loop_field",
]


@dataclass(frozen=True)
class Gains:
    """Feedback gains; k1 drives velocity, k2..k4 steering, k0 heading-only.

    k5 is derived from (k1, k2, k3) for the conservative backstepping law.
    """

    k1: float = 1.0
    k2: float = 1.0
    k3: float = 1.0
    k4: float = 1.0
    k0: float = 1.0

    def __post_init__(self) -> None:
        for name in ("k0", "k1", "k2", "k3", "k4"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"gain {name} must be a positive finite number, got {v!r}")

    @property
    def q(self) -> float:
        return math.sqrt(self.k1 / self.k3)

    @property
    def k5(self) -> float:
        return self.k1 * (1.0 + self.k2) * (1.0 + self.k1 * self.k2 * (1.0 + self.k2) / self.k3)

    @property
    def strict_passivity(self) -> bool:
        """Whether k1*k3 >= k2^2 (needed by the passivity strict certificates)."""
        return not Gains.passivity_broken(self.k1, self.k2, self.k3)

    @staticmethod
    def passivity_broken(k1, k2, k3):
        """Whether gains (floats or arrays) miss k1*k3 >= k2^2, tolerating the
        rounding of pole-assigned gains at equality (damping 1/2)."""
        return k2 * k2 * (1.0 - 1e-12) > k1 * k3


@dataclass(frozen=True)
class ControlInput:
    """Forward velocity (bidirectional) and steering rate."""

    v: float
    omega: float


class ControllerId(Enum):
    GENOVA = "genova"
    BOLSA = "bolsa"
    BOPA = "bopa"
    BAGAL = "bagal"
    GLOFO = "glofo"
    BOFO = "bofo"
    GLOBA = "globa"
    GLOBA_INTERP = "globa-interp"
    GLOBA_CONS = "globa-cons"
    BARFLI = "barfli"
    LIBAC = "libac"


def controller_space(cid: ControllerId) -> StateSpaceId:
    return _LAWS[cid].space


def velocity(p: PolarState, k1: float) -> float:
    """v = k1 * rho * cos(gamma); negative when backing toward the target."""
    return k1 * p.rho * math.cos(p.gamma)


def velocity_cartesian(x: float, y: float, theta: float, k1: float) -> float:
    """Cartesian form of the same law: -k1*(x*cos(theta) + y*sin(theta))."""
    return -k1 * (x * math.cos(theta) + y * math.sin(theta))


# ---------------------------------------------------------------------------
# Forwarding residuals zeta and backstepping residuals z, written over a
# primitive namespace ``xp`` like the laws below; the certificates in
# :mod:`unipark.lyapunov` are built on them too.
# ---------------------------------------------------------------------------


def zeta_glofo(xp, g: Gains, d, c):
    return d + g.k1 / (2.0 * g.k2) * xp.si(2.0 * c)


def zeta_bofo(xp, g: Gains, d, c):
    return d + g.k1 / g.k2 * xp.sin(c)


def z_globa(xp, g: Gains, d, c):
    """The residual of globa, globa-interp and globa-cons."""
    return c + 0.5 * xp.atan(2.0 * g.k2 * d)


def z_barfli(xp, g: Gains, d, c):
    """globa's residual at barfli's warped Delta = 2*tan(delta/2).  The warp
    is written out: calling ``warp_delta_gamma`` here made the scalar barfli
    law about 45 % slower (Python 3.11, 2-vCPU VM)."""
    return z_globa(xp, g, 2.0 * xp.tan(0.5 * d), c)


def z_libac(xp, g: Gains, d, c):
    return c + 0.5 * d


# ---------------------------------------------------------------------------
# The steering laws, each written once over a primitive namespace ``xp``
# (:data:`unipark.kernels.SCALAR` or :data:`unipark.kernels.ARRAY`).  Each
# returns omega_tilde unless its table row says it is stated as total omega.
# ---------------------------------------------------------------------------


def _genova(xp, g: Gains, d, c):
    return g.k2 * c + g.k3 * xp.sinc(2.0 * c) * d


def _bolsa(xp, g: Gains, d, c):
    t2 = xp.tan(0.5 * c) ** 2
    return g.k2 * xp.sin(c) + g.k3 * xp.cos(c) / (1.0 + t2) ** 2 * d


def _bopa(xp, g: Gains, d, c):
    s = xp.tan(0.5 * d)
    return g.k2 * c + 2.0 * g.k3 * xp.sinc(2.0 * c) * (1.0 + s * s) * s


def _bagal(xp, g: Gains, d, c):
    s = xp.tan(0.5 * d)
    t2 = xp.tan(0.5 * c) ** 2
    return g.k2 * xp.sin(c) + 2.0 * g.k3 * xp.cos(c) / (1.0 + t2) ** 2 * (1.0 + s * s) * s


def _glofo(xp, g: Gains, d, c):
    zeta = zeta_glofo(xp, g, d, c)
    return g.k2 * c + g.k3 * xp.sinc(2.0 * c) * zeta


def _bofo(xp, g: Gains, d, c):
    zeta = zeta_bofo(xp, g, d, c)
    t2 = xp.tan(0.5 * c) ** 2
    return g.k2 * xp.sin(c) + g.k3 * xp.cos(c) / (1.0 + t2) ** 2 * zeta


def _globa(xp, g: Gains, d, c):
    z = z_globa(xp, g, d, c)
    n2 = 1.0 + 4.0 * g.k2 * g.k2 * d * d
    return g.k4 * z + 0.5 * g.k1 * g.k2 / n2 * xp.sin(2.0 * c) + g.k3 * xp.psi(z, c) * d


def _barfli(xp, g: Gains, d, c):
    s = xp.tan(0.5 * d)
    z = z_barfli(xp, g, d, c)
    n2 = 1.0 + 16.0 * g.k2 * g.k2 * s * s
    sec2 = 1.0 + s * s
    return (
        g.k4 * z
        + 0.5 * g.k1 * g.k2 * sec2 / n2 * xp.sin(2.0 * c)
        + 2.0 * g.k3 * xp.psi(z, c) * sec2 * s
    )


def _globa_interp(xp, g: Gains, d, c):
    z = z_globa(xp, g, d, c)
    n2 = 1.0 + 4.0 * g.k2 * g.k2 * d * d
    n = xp.sqrt(n2)
    b = 1.0 + g.k2 / n2
    p = xp.psi(z, c)
    cc = p * n - g.k1 * g.k2 / g.k3 * b
    return (g.k4 + 0.5 * g.k3 / g.k2 * cc * cc / n + g.k1 * xp.abs(p) * b) * z


def _globa_cons(xp, g: Gains, d, c):
    z = z_globa(xp, g, d, c)
    n2 = 1.0 + 4.0 * g.k2 * g.k2 * d * d
    return (g.k4 + g.k5 + g.k3 / g.k2 * n2) * z


def _libac(xp, g: Gains, d, c):
    z = z_libac(xp, g, d, c)
    s = xp.tan(0.5 * d)
    return (
        g.k3 * z
        + 0.75 * g.k1 * xp.sin(2.0 * c)
        + g.k2 * s / (1.0 + xp.cos(d)) * xp.psi(z, c)
    )


class _Law(NamedTuple):
    space: StateSpaceId
    total: bool  # stated directly as the total steering input omega
    fn: Callable


_LAWS: dict[ControllerId, _Law] = {
    ControllerId.GENOVA: _Law(StateSpaceId.S, False, _genova),
    ControllerId.BOLSA: _Law(StateSpaceId.S1, False, _bolsa),
    ControllerId.BOPA: _Law(StateSpaceId.S2, False, _bopa),
    ControllerId.BAGAL: _Law(StateSpaceId.S3, False, _bagal),
    ControllerId.GLOFO: _Law(StateSpaceId.S, False, _glofo),
    ControllerId.BOFO: _Law(StateSpaceId.S1, False, _bofo),
    ControllerId.GLOBA: _Law(StateSpaceId.S, False, _globa),
    ControllerId.GLOBA_INTERP: _Law(StateSpaceId.S, True, _globa_interp),
    ControllerId.GLOBA_CONS: _Law(StateSpaceId.S, True, _globa_cons),
    ControllerId.BARFLI: _Law(StateSpaceId.S2, False, _barfli),
    # libac's backstepping transform constrains only delta; gamma is left
    # unwrapped and its excursions are recorded empirically, not asserted.
    ControllerId.LIBAC: _Law(StateSpaceId.S2, True, _libac),
}


def steering_tilde(cid: ControllerId, g: Gains, delta: float, gamma: float) -> float:
    """omega_tilde(delta, gamma): the steering term after the cancellation
    split, so the closed-loop line-of-sight dynamics are gamma' = -omega_tilde.

    Raises :class:`BarrierDomainError` outside the id's state space.
    """
    check_in_space(_LAWS[cid].space, delta, gamma)
    return _tilde_fn(cid)(SCALAR, g, delta, gamma)


def steering_total(cid: ControllerId, g: Gains, delta: float, gamma: float) -> float:
    """Total steering input omega = (k1/2)*sin(2*gamma) + omega_tilde.

    globa-interp, globa-cons and libac are stated directly as the total
    omega and are returned verbatim.
    """
    law = _LAWS[cid]
    check_in_space(law.space, delta, gamma)
    omega = law.fn(SCALAR, g, delta, gamma)
    if law.total:
        return omega
    return 0.5 * g.k1 * math.sin(2.0 * gamma) + omega


def _tilde_fn(cid: ControllerId) -> Callable:
    """omega_tilde(xp, g, d, c) of ``cid``: the law itself, or a law stated
    as the total omega minus (k1/2)*sin(2*gamma)."""
    law = _LAWS[cid]
    fn = law.fn
    if not law.total:
        return fn

    def tilde(xp, g: Gains, d, c):
        return fn(xp, g, d, c) - 0.5 * g.k1 * xp.sin(2.0 * c)

    return tilde


def steering_tilde_many(
    cid: ControllerId, g: Gains, delta: np.ndarray, gamma: np.ndarray
) -> np.ndarray:
    """Vectorised omega_tilde over arrays of (delta, gamma).  No domain checks."""
    d = np.asarray(delta, dtype=float)
    c = np.asarray(gamma, dtype=float)
    return _tilde_fn(cid)(ARRAY, g, d, c)


# ---------------------------------------------------------------------------
# rho = 0 heading-only designs and the reverse-parking wrapper.
# ---------------------------------------------------------------------------

_HEADING_VARIANTS = ("linear", "sine", "half_tan")


def heading_only(theta: float, k0: float, variant: str = "linear") -> float:
    """Steering to turn the vehicle in place to theta = 0 (used when rho = 0,
    where the polar angles are undefined).

    linear:   omega = -k0*theta       on R,        V = theta^2,        V' = -2*k0*V
    sine:     omega = -k0*sin(theta)  on (-pi,pi), V = 4*tan^2(th/2),  V' = -2*k0*V
    half_tan: omega = -k0*tan(th/2)   on (-pi,pi), V = 4*tan^2(th/2),  V' = -k0*(1+V/4)*V

    The sine law is defined on all of R but has spurious equilibria at odd
    multiples of pi, so it is restricted to (-pi, pi) here too.
    """
    if variant not in _HEADING_VARIANTS:
        raise DomainError(f"unknown heading variant {variant!r}; expected one of {_HEADING_VARIANTS}")
    if variant == "linear":
        return -k0 * theta
    if abs(theta) >= math.pi:
        raise BarrierDomainError(f"heading variant {variant!r} requires |theta| < pi")
    if variant == "sine":
        return -k0 * math.sin(theta)
    return -k0 * math.tan(0.5 * theta)


def reverse_parking_wrap(u: ControlInput) -> ControlInput:
    """Adapt a forward-parking control to the reverse-parking angle
    convention: negate v, keep omega."""
    return ControlInput(-u.v, u.omega)


# ---------------------------------------------------------------------------
# Polar vector fields.
# ---------------------------------------------------------------------------


def closed_loop_field(cid: ControllerId, g: Gains, xp=SCALAR) -> Callable[[float, float, float], tuple]:
    """Closed-loop polar field under the velocity law and steering law ``cid``:

        rho'   = -k1 * rho * cos(gamma)^2
        delta' = (k1/2) * sin(2*gamma)
        gamma' = -omega_tilde(delta, gamma)

    written over the primitive namespace ``xp``: floats with the default
    :data:`~unipark.kernels.SCALAR`, elementwise over arrays with
    :data:`~unipark.kernels.ARRAY`.  The (delta, gamma) block is
    rho-independent, and the rho/rho cancellation is built in, so there is
    no singularity at rho = 0.
    """
    tilde = _tilde_fn(cid)

    def field(rho, delta, gamma):
        cg = xp.cos(gamma)
        return -g.k1 * rho * cg * cg, 0.5 * g.k1 * xp.sin(2.0 * gamma), -tilde(xp, g, delta, gamma)

    return field


def closed_loop_input(cid: ControllerId, g: Gains, xp=SCALAR) -> Callable[[float, float, float], tuple]:
    """The closed-loop inputs (v, omega) at a polar state under steering law
    ``cid``, written over ``xp`` like :func:`closed_loop_field`; no checks."""
    tilde = _tilde_fn(cid)

    def u(rho, delta, gamma):
        return g.k1 * rho * xp.cos(gamma), 0.5 * g.k1 * xp.sin(2.0 * gamma) + tilde(xp, g, delta, gamma)

    return u


def open_loop_field(p: PolarState, v: float, omega: float) -> tuple[float, float, float]:
    """Open-loop polar dynamics under external inputs (v, omega):

        rho' = -v*cos(gamma), delta' = (v/rho)*sin(gamma),
        gamma' = (v/rho)*sin(gamma) - omega.

    Raises :class:`SingularityError` at rho below 1e-9 because of the v/rho
    terms.
    """
    if p.rho <= 1e-9:
        raise SingularityError("open-loop polar field is singular at rho = 0")
    ratio = v / p.rho * math.sin(p.gamma)
    return (-v * math.cos(p.gamma), ratio, ratio - omega)
