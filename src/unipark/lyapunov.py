"""Strict (barrier) Lyapunov certificates for the steering designs.

Every steering family carries a positive-definite, radially unbounded
function ``V_dg(delta, gamma)`` of the angle pair alone (the steering
subsystem is rho-independent) together with a closed-form decrease rate
along the closed loop.  The forwarding and backstepping rates are exact time
derivatives and carry the ``EQUALITY`` flag; the passivity-family rates are
obtained through Young-type bounds and carry ``UPPER_BOUND`` (the true
derivative lies at or below them; tests must not assert equality there).

Each barrier certificate is the unconstrained certificate of its design
family evaluated in the warped coordinates ``(Delta, Gamma)`` of its state
space (:func:`unipark.spaces.warp_delta_gamma`).  With ``q = sqrt(k1/k3)``:

    passivity     W(U) + z^2,  U = Delta^2 + q^2*Gamma^2,  z = Delta + q*Gamma
    forwarding    zeta^2 + q^2*Gamma^2
    backstepping  Delta^2 + q^2*z^2,  z = gamma + atan(2*k2*Delta)/2

Gradients are one chain rule through ``J = 1 + (Delta/2)^2`` (likewise for
Gamma) on each constrained axis, ``J = 1`` elsewhere.  The closed-form rates
stay per law, each its own bound, and read tan(angle/2) as Delta/2 or
Gamma/2 from the same warp; libac keeps its own certificate.

Full-state certificates are built modularly as composites
``V(rho, delta, gamma) = calV(rho^2, V_dg)`` (or with the arguments swapped),
for any scalar combiner ``calV`` that is zero at zero, positive elsewhere,
radially unbounded, and has positive partial derivatives off the origin.
Seven ready-made combiners are provided (:class:`CompositeKind`); the
default ``r + s`` reproduces the plain additive certificates.

Each per-family function is written once over a primitive namespace ``xp``,
as the laws are; :class:`SteeringClf` passes ``ARRAY``.  All evaluators are
pure; gradients are hand-derived closed forms guarded by finite-difference
tests, keeping the artifact free of automatic differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .controllers import (
    ControllerId,
    Gains,
    controller_space,
    steering_tilde_many,
    z_globa,
    z_libac,
    zeta_bofo,
    zeta_glofo,
)
from .errors import ConfigError, DomainError
from .kernels import ARRAY
from .spaces import StateSpaceId, warp_delta_gamma

__all__ = [
    "RateKind",
    "CompositeKind",
    "CompositeOrder",
    "SteeringClf",
    "LyapunovFn",
    "steering_clf",
    "logging_clf",
    "composite",
    "genova_nonstrict",
    "directional_derivative",
    "storage_energy",
    "appendix_bounds_slack",
    "STRICT_FAMILIES",
]


class RateKind(Enum):
    EQUALITY = "equality"
    UPPER_BOUND = "upper_bound"


# ---------------------------------------------------------------------------
# Per-family V_dg.  Value, gradient and rate all take (xp, g: Gains, ss, d, c)
# like the laws; a rate's s = tan(delta/2), t = tan(gamma/2) are Delta/2, Gamma/2.
# ---------------------------------------------------------------------------


def _warp_slopes(ss: StateSpaceId, big_d, big_g):
    """J = dDelta/ddelta and dGamma/dgamma: 1 + (Delta/2)^2, i.e.
    sec^2(angle/2), on each axis ``ss`` constrains and 1 on the others."""
    jd = 1.0 + (0.5 * big_d) ** 2 if ss.delta_constrained else 1.0
    jg = 1.0 + (0.5 * big_g) ** 2 if ss.gamma_constrained else 1.0
    return jd, jg


def _storage(g: Gains, big_d, big_g):
    q = g.q
    return big_d * big_d + q * q * big_g * big_g


def _passivity_weight(g: Gains, U):
    """W(U) = k3*(1 + (2q^2 + U)/(2 q k2))*U and dW/dU for the genova/bolsa
    certificates."""
    q = g.q
    w = g.k3 * (1.0 + (2.0 * q * q + U) / (2.0 * q * g.k2)) * U
    wp = g.k3 * (1.0 + (q * q + U) / (q * g.k2))
    return w, wp


# The two cubic certificates use different constants: bopa's takes
# sqrt(k1*k3) (equal to k3*q) while bagal's takes sqrt(k1*k2).  Easy to
# conflate; each family keeps its own.
def _a_bopa(g: Gains) -> float:
    return max(g.k1 * g.q, math.sqrt(g.k1 * g.k3))


def _a_bagal(g: Gains) -> float:
    return max(g.k1 * g.q, math.sqrt(g.k1 * g.k2))


def _cubic_weight(a_of: Callable) -> Callable:
    """W(U) = a~*((1 + U)^3 - 1), a~ = a/(3*k2*q^2), and dW/dU for the
    bopa/bagal certificates."""

    def weight(g: Gains, U):
        a_tilde = a_of(g) / (3.0 * g.k2 * g.q * g.q)
        return a_tilde * ((1.0 + U) ** 3 - 1.0), 3.0 * a_tilde * (1.0 + U) ** 2

    return weight


def _passivity(weight: Callable) -> tuple[Callable, Callable]:
    """W(U) + z^2 with U = Delta^2 + q^2*Gamma^2 and z = Delta + q*Gamma; genova
    (Aicardi et al., IEEE RAM 1995) is the unwarped case."""

    def value(xp, g, ss, d, c):
        big_d, big_g = warp_delta_gamma(xp, ss, d, c)
        w, _ = weight(g, _storage(g, big_d, big_g))
        z = big_d + g.q * big_g
        return w + z * z

    def grad(xp, g, ss, d, c):
        big_d, big_g = warp_delta_gamma(xp, ss, d, c)
        jd, jg = _warp_slopes(ss, big_d, big_g)
        _, wp = weight(g, _storage(g, big_d, big_g))
        q = g.q
        z = big_d + q * big_g
        dd = wp * 2.0 * big_d * jd + 2.0 * z * jd
        dc = wp * 2.0 * q * q * big_g * jg + 2.0 * q * z * jg
        return dd, dc

    return value, grad


def _forwarding(zeta: Callable, slope: Callable) -> tuple[Callable, Callable]:
    """zeta^2 + q^2*Gamma^2 for zeta = delta + (k1/k2)*phi(gamma), where
    ``slope(xp, c)`` is phi'(gamma); delta is never constrained here."""

    def value(xp, g, ss, d, c):
        _, big_g = warp_delta_gamma(xp, ss, d, c)
        z = zeta(xp, g, d, c)
        return z * z + g.q * g.q * big_g * big_g

    def grad(xp, g, ss, d, c):
        big_d, big_g = warp_delta_gamma(xp, ss, d, c)
        _, jg = _warp_slopes(ss, big_d, big_g)
        q = g.q
        z = zeta(xp, g, d, c)
        return 2.0 * z, 2.0 * z * g.k1 / g.k2 * slope(xp, c) + 2.0 * q * q * big_g * jg

    return value, grad


def _backstepping_value(xp, g, ss, d, c):
    """Delta^2 + q^2*z^2 with z = gamma + atan(2*k2*Delta)/2; gamma is never
    constrained here."""
    big_d, _ = warp_delta_gamma(xp, ss, d, c)
    z = z_globa(xp, g, big_d, c)
    return big_d * big_d + g.q * g.q * z * z


def _backstepping_grad(xp, g, ss, d, c):
    big_d, big_g = warp_delta_gamma(xp, ss, d, c)
    jd, _ = _warp_slopes(ss, big_d, big_g)
    q = g.q
    z = z_globa(xp, g, big_d, c)
    n2 = 1.0 + 4.0 * g.k2 * g.k2 * big_d * big_d
    return 2.0 * big_d * jd + 2.0 * q * q * z * g.k2 * jd / n2, 2.0 * q * q * z


def _genova_rate(xp, g, ss, d, c):
    q = g.q
    z = d + q * c
    return -2.0 * g.k1 * g.k2 * c * c - 1.5 * g.k2 * z * z - 2.0 * g.k1 * q * c**4


def _bolsa_rate(xp, g, ss, d, c):
    q = g.q
    t = 0.5 * warp_delta_gamma(xp, ss, d, c)[1]
    v0 = 4.0 * t * t
    return -2.0 * g.k1 * g.k2 * v0 - 1.5 * g.k2 * (d + q * t) ** 2 - 2.0 * g.k1 * q * v0 * v0


def _bopa_rate(xp, g, ss, d, c):
    q = g.q
    s = 0.5 * warp_delta_gamma(xp, ss, d, c)[0]
    return -1.5 * g.k2 * (s + q * c) ** 2 - 4.0 * _a_bopa(g) * q * q * c**4


def _bagal_rate(xp, g, ss, d, c):
    q = g.q
    big_d, big_g = warp_delta_gamma(xp, ss, d, c)
    s, t = 0.5 * big_d, 0.5 * big_g
    return -16.0 * _a_bagal(g) * q * q * t**4 - 1.5 * g.k2 * (s + q * t) ** 2


def _glofo_rate(xp, g, ss, d, c):
    zeta = zeta_glofo(xp, g, d, c)
    w = g.k3 / g.k2 * xp.sinc(2.0 * c) * zeta
    return -g.k1 * g.k2 / g.k3 * (w * w + c * c + (w + c) ** 2)


def _bofo_rate(xp, g, ss, d, c):
    t = 0.5 * warp_delta_gamma(xp, ss, d, c)[1]
    zeta = zeta_bofo(xp, g, d, c)
    w = g.k3 / g.k2 * xp.cos(c) / (1.0 + t * t) * zeta
    return -g.k1 * g.k2 / g.k3 * (w * w + 4.0 * t * t + (w + 2.0 * t) ** 2)


def _globa_rate(weight: float) -> Callable:
    """-weight*k1*k2*d^2/sqrt(1 + 4*k2^2*d^2) - 2*q^2*k4*z^2: globa's exact
    rate at weight 2, and at weight 1 the Young-bounded decrease of the
    interpretable and conservative variants, which reuse its certificate."""

    def rate(xp, g, ss, d, c):
        q = g.q
        z = z_globa(xp, g, d, c)
        n = xp.sqrt(1.0 + 4.0 * g.k2 * g.k2 * d * d)
        return -weight * g.k1 * g.k2 * d * d / n - 2.0 * q * q * g.k4 * z * z

    return rate


def _barfli_rate(xp, g, ss, d, c):
    q = g.q
    big_d, _ = warp_delta_gamma(xp, ss, d, c)
    s = 0.5 * big_d
    z = z_globa(xp, g, big_d, c)
    n = xp.sqrt(1.0 + 16.0 * g.k2 * g.k2 * s * s)
    return -8.0 * g.k1 * g.k2 * (1.0 + s * s) * s * s / n - 2.0 * g.k4 * q * q * z * z


# libac: pairing the law with the plain 4*tan^2(delta/2) barrier only
# cancels its cross term at the special gain ratio k2 = 4*k3.  Re-deriving
# the cancellation gives the gain-weighted variant below, whose decrease is
# exact for all gains:
#   V = (k2/k3)*tan^2(delta/2) + q^2*(gamma + delta/2)^2
#   V' = -(k1*k2/k3)*tan^2(delta/2) - 2*k1*(gamma + delta/2)^2


def _libac_value(xp, g, ss, d, c):
    s = 0.5 * warp_delta_gamma(xp, ss, d, c)[0]
    z = z_libac(xp, g, d, c)
    return g.k2 / g.k3 * s * s + g.q * g.q * z * z


def _libac_grad(xp, g, ss, d, c):
    big_d, big_g = warp_delta_gamma(xp, ss, d, c)
    jd, _ = _warp_slopes(ss, big_d, big_g)
    q = g.q
    z = z_libac(xp, g, d, c)
    return g.k2 / g.k3 * (0.5 * big_d) * jd + q * q * z, 2.0 * q * q * z


def _libac_rate(xp, g, ss, d, c):
    s = 0.5 * warp_delta_gamma(xp, ss, d, c)[0]
    z = z_libac(xp, g, d, c)
    return -g.k1 * g.k2 / g.k3 * s * s - 2.0 * g.k1 * z * z


_FamilyFns = tuple[Callable, Callable, Callable, RateKind]

_QUADRATIC = _passivity(_passivity_weight)
_BACKSTEPPING = (_backstepping_value, _backstepping_grad)
_GLOFO = _forwarding(zeta_glofo, lambda xp, c: xp.sinc(2.0 * c))
_BOFO = _forwarding(zeta_bofo, lambda xp, c: xp.cos(c))

_FAMILIES: dict[ControllerId, _FamilyFns] = {
    ControllerId.GENOVA: (*_QUADRATIC, _genova_rate, RateKind.UPPER_BOUND),
    ControllerId.BOLSA: (*_QUADRATIC, _bolsa_rate, RateKind.UPPER_BOUND),
    ControllerId.BOPA: (*_passivity(_cubic_weight(_a_bopa)), _bopa_rate, RateKind.UPPER_BOUND),
    ControllerId.BAGAL: (*_passivity(_cubic_weight(_a_bagal)), _bagal_rate, RateKind.UPPER_BOUND),
    ControllerId.GLOFO: (*_GLOFO, _glofo_rate, RateKind.EQUALITY),
    ControllerId.BOFO: (*_BOFO, _bofo_rate, RateKind.EQUALITY),
    ControllerId.GLOBA: (*_BACKSTEPPING, _globa_rate(2.0), RateKind.EQUALITY),
    ControllerId.GLOBA_INTERP: (*_BACKSTEPPING, _globa_rate(1.0), RateKind.UPPER_BOUND),
    ControllerId.GLOBA_CONS: (*_BACKSTEPPING, _globa_rate(1.0), RateKind.UPPER_BOUND),
    ControllerId.BARFLI: (*_BACKSTEPPING, _barfli_rate, RateKind.EQUALITY),
    ControllerId.LIBAC: (_libac_value, _libac_grad, _libac_rate, RateKind.EQUALITY),
}

_LOGGING_ONLY = (ControllerId.GLOBA_INTERP, ControllerId.GLOBA_CONS, ControllerId.LIBAC)
STRICT_FAMILIES: tuple[ControllerId, ...] = tuple(c for c in _FAMILIES if c not in _LOGGING_ONLY)


@dataclass(frozen=True)
class SteeringClf:
    """Certificate V_dg(delta, gamma) for one steering family.

    ``rate`` returns the closed-form decrease along the steering subsystem
    delta' = (k1/2)sin(2*gamma), gamma' = -omega_tilde; whether it is exact
    or an upper bound is recorded in ``rate_kind``.
    """

    controller: ControllerId
    gains: Gains
    space: StateSpaceId
    rate_kind: RateKind
    _value: Callable = field(repr=False)
    _grad: Callable = field(repr=False)
    _rate: Callable = field(repr=False)

    def value(self, delta, gamma):
        return self._value(ARRAY, self.gains, self.space, np.asarray(delta, float), np.asarray(gamma, float))

    def grad(self, delta, gamma):
        return self._grad(ARRAY, self.gains, self.space, np.asarray(delta, float), np.asarray(gamma, float))

    def rate(self, delta, gamma):
        return self._rate(ARRAY, self.gains, self.space, np.asarray(delta, float), np.asarray(gamma, float))


def steering_clf(cid: ControllerId, gains: Gains) -> SteeringClf:
    """The strict certificate belonging to one of the eight core steering
    families."""
    if cid not in STRICT_FAMILIES:
        raise DomainError(
            f"{cid.value} has no strict certificate of its own; use logging_clf for the derived one"
        )
    return logging_clf(cid, gains)


def logging_clf(cid: ControllerId, gains: Gains) -> SteeringClf:
    """Certificate used to log V along simulations, defined for all eleven
    controllers (the backstepping variants reuse or adapt the globa/barfli
    certificates)."""
    value, grad, rate, kind = _FAMILIES[cid]
    return SteeringClf(cid, gains, controller_space(cid), kind, value, grad, rate)


# ---------------------------------------------------------------------------
# Composite certificates V(rho, delta, gamma) = calV(rho^2, V_dg).
# ---------------------------------------------------------------------------


class CompositeKind(Enum):
    """The seven ready-made combiners calV(r, s)."""

    ADD = "add"            # r + s
    LOG = "log"            # ln(1 + r) + s
    EXPM1 = "expm1"        # e^r - 1 + s
    EXP_PROD = "exp-prod"  # (1 + r)e^s - 1
    CROSS = "cross"        # r + s + r s
    COSH = "cosh"          # cosh(r) + s - 1
    SQRT = "sqrt"          # sqrt(1 + r) + sqrt(1 + s) - 2


class CompositeOrder(Enum):
    RHO_FIRST = "rho-first"  # calV(rho^2, V_dg)
    V_FIRST = "v-first"      # calV(V_dg, rho^2)


# Each combiner's value calV(r, s) and its partials (dcalV/dr, dcalV/ds);
# ``one`` is an array of ones shaped like r.
_COMBINERS: dict[CompositeKind, tuple[Callable, Callable]] = {
    CompositeKind.ADD: (lambda r, s: r + s,
                        lambda r, s, one: (one, one)),
    CompositeKind.LOG: (lambda r, s: np.log1p(r) + s,
                        lambda r, s, one: (1.0 / (1.0 + r), one)),
    CompositeKind.EXPM1: (lambda r, s: np.expm1(r) + s,
                          lambda r, s, one: (np.exp(r), one)),
    CompositeKind.EXP_PROD: (lambda r, s: (1.0 + r) * np.exp(s) - 1.0,
                             lambda r, s, one: ((es := np.exp(s)), (1.0 + r) * es)),
    CompositeKind.CROSS: (lambda r, s: r + s + r * s,
                          lambda r, s, one: (1.0 + s, 1.0 + r)),
    CompositeKind.COSH: (lambda r, s: np.cosh(r) + s - 1.0,
                         lambda r, s, one: (np.sinh(r), one)),
    CompositeKind.SQRT: (lambda r, s: np.sqrt(1.0 + r) + np.sqrt(1.0 + s) - 2.0,
                         lambda r, s, one: (0.5 / np.sqrt(1.0 + r), 0.5 / np.sqrt(1.0 + s))),
}


def _combiner(kind: CompositeKind) -> tuple[Callable, Callable]:
    try:
        return _COMBINERS[kind]
    except (KeyError, TypeError):
        raise DomainError(f"unknown composite kind {kind!r}") from None


def _cal_value(kind: CompositeKind, r, s):
    return _combiner(kind)[0](r, s)


def _cal_partials(kind: CompositeKind, r, s):
    return _combiner(kind)[1](r, s, np.ones_like(np.asarray(r, float)))


@dataclass(frozen=True)
class LyapunovFn:
    """Full-state certificate V(rho, delta, gamma) = calV(rho^2, V_dg) (or
    with swapped arguments).  Gradients come from the chain rule; the
    closed-form rate inherits the equality/upper-bound flag of V_dg."""

    clf: SteeringClf
    kind: CompositeKind = CompositeKind.ADD
    order: CompositeOrder = CompositeOrder.RHO_FIRST

    def _ordered(self, rho_sq, v_dg):
        if self.order is CompositeOrder.RHO_FIRST:
            return rho_sq, v_dg
        return v_dg, rho_sq

    def _args(self, rho, delta, gamma):
        return self._ordered(np.asarray(rho, float) ** 2, self.clf.value(delta, gamma))

    def value(self, rho, delta, gamma):
        return _cal_value(self.kind, *self._args(rho, delta, gamma))

    def of_parts(self, rho_sq, v_dg):
        """V from precomputed rho^2 and V_dg = ``clf.value(delta, gamma)``,
        bit for bit :meth:`value`, so certificates sharing one ``clf`` can
        evaluate it once."""
        return _cal_value(self.kind, *self._ordered(rho_sq, v_dg))

    def _partials(self, rho, delta, gamma):
        """dcalV/d(rho^2) and dcalV/dV_dg."""
        return self._ordered(*_cal_partials(self.kind, *self._args(rho, delta, gamma)))

    def grad(self, rho, delta, gamma):
        rho = np.asarray(rho, float)
        p_rho, p_v = self._partials(rho, delta, gamma)
        gd, gc = self.clf.grad(delta, gamma)
        return p_rho * 2.0 * rho, p_v * gd, p_v * gc

    def rate(self, rho, delta, gamma):
        """Closed-form rate along the full closed loop (the rho part
        d(rho^2)/dt = -2*k1*rho^2*cos^2(gamma) is exact)."""
        rho = np.asarray(rho, float)
        gamma_arr = np.asarray(gamma, float)
        p_rho, p_v = self._partials(rho, delta, gamma)
        k1 = self.clf.gains.k1
        rho_rate = -2.0 * k1 * rho * rho * np.cos(gamma_arr) ** 2
        return p_rho * rho_rate + p_v * self.clf.rate(delta, gamma), self.clf.rate_kind


_PROBE_POINTS = ((0.25, 0.25), (1.0, 2.0), (3.0, 0.5))


def composite(
    clf: SteeringClf,
    kind: CompositeKind = CompositeKind.ADD,
    order: CompositeOrder = CompositeOrder.RHO_FIRST,
) -> LyapunovFn:
    """Build a composite certificate, checking the contracts at probe points:
    calV(0,0) = 0 with positive partials off the origin, and V_dg zero at the
    origin, positive and growing along rays elsewhere."""
    if abs(float(_cal_value(kind, 0.0, 0.0))) > 1e-15:
        raise ConfigError(f"composite {kind.value} violates calV(0,0) = 0")
    for r, s in _PROBE_POINTS:
        pa, pb = _cal_partials(kind, r, s)
        if not (pa > 0.0 and pb > 0.0):
            raise ConfigError(
                f"composite {kind.value} has a non-positive partial at probe ({r}, {s})"
            )
    if abs(float(clf.value(0.0, 0.0))) > 1e-14:
        raise ConfigError("V_dg is not zero at the origin")
    ray = np.linspace(0.15, min(2.8, math.pi - 0.25), 8)
    for dd, gg in ((ray, 0.3 * ray), (-0.4 * ray, ray), (ray, -ray)):
        vals = np.asarray(clf.value(dd, gg), dtype=float)
        if not (np.all(vals > 0.0) and vals[-1] > vals[0]):
            raise ConfigError("V_dg failed the positive-definite/unboundedness probe")
    return LyapunovFn(clf, kind, order)


# ---------------------------------------------------------------------------
# Non-strict genova certificate, directional derivatives, energy, bounds.
# ---------------------------------------------------------------------------


def genova_nonstrict(g: Gains, rho, delta, gamma):
    """The classic non-strict certificate V_G = rho^2 + k3*(delta^2 +
    q^2*gamma^2) and its exact rate -2*k1*rho^2*cos^2(gamma) -
    2*k1*k2*gamma^2 (negative semi-definite only: it vanishes on
    {rho = 0, gamma = 0} regardless of delta)."""
    rho = np.asarray(rho, float)
    delta = np.asarray(delta, float)
    gamma = np.asarray(gamma, float)
    q = g.q
    value = rho * rho + g.k3 * (delta * delta + q * q * gamma * gamma)
    rate = -2.0 * g.k1 * rho * rho * np.cos(gamma) ** 2 - 2.0 * g.k1 * g.k2 * gamma * gamma
    return value, rate


def directional_derivative(fn: LyapunovFn, f: Callable, rho, delta, gamma):
    """grad V . f for a full-state field f(rho, delta, gamma) -> 3 components."""
    gr, gd, gc = fn.grad(rho, delta, gamma)
    fr, fd, fc = f(rho, delta, gamma)
    return gr * fr + gd * fd + gc * fc


def steering_directional_derivative(clf: SteeringClf, delta, gamma):
    """grad V_dg . (delta', gamma') along the steering subsystem closed by
    the certificate's own law, gamma' = -omega_tilde(delta, gamma)."""
    gd, gc = clf.grad(delta, gamma)
    gamma = np.asarray(gamma, float)
    omega_tilde = steering_tilde_many(clf.controller, clf.gains, delta, gamma)
    return gd * 0.5 * clf.gains.k1 * np.sin(2.0 * gamma) - gc * omega_tilde


def storage_energy(space: StateSpaceId, g: Gains, delta, gamma):
    """Passivity storage U = Delta^2 + q^2*Gamma^2 in the given space's
    coordinates.  Along any of the four passivity closed loops,
    dU/dt = -2*k2*q^2*Gamma^2."""
    return _storage(g, *warp_delta_gamma(ARRAY, space, np.asarray(delta, float), np.asarray(gamma, float)))


def appendix_bounds_slack(k, x):
    """Slacks (RHS - LHS) of the two scalar inequalities used by the
    passivity proofs, valid for all k >= 1:

        1 - k*sin(2x)/(2x) <= k*x^2
        1 - k*cos(x)*(1 + cos(x)) <= 2*(1 + k)*tan^2(x/2)
    """
    k = np.asarray(k, float)
    x = np.asarray(x, float)
    if np.any(k < 1.0):
        raise DomainError("appendix bounds require k >= 1")
    return _appendix_slacks(k, x, *_appendix_terms(x))


def _appendix_terms(x):
    """The gain-independent terms of the appendix inequalities at x:
    sinc(2x), cos(x) and tan(x/2)^2."""
    return ARRAY.sinc(2.0 * x), np.cos(x), np.tan(0.5 * x) ** 2


def _appendix_slacks(k, x, sinc_2x, cx, tan2_half_x):
    """:func:`appendix_bounds_slack` from the terms of :func:`_appendix_terms`."""
    s1 = k * x * x - (1.0 - k * sinc_2x)
    s2 = 2.0 * (1.0 + k) * tan2_half_x - (1.0 - k * cx * (1.0 + cx))
    return s1, s2

