"""Closed-loop Jacobians at the target and gain solvers for prescribed poles.

Around (rho, delta, gamma) = 0 every closed loop linearises to

    [rho']     [-k1   0    0 ] [rho  ]
    [delta'] = [ 0    0    k1] [delta]
    [gamma']   [ 0   -a   -b ] [gamma]

with (a, b) depending on the design family:

    passivity     (genova, bolsa, bopa, bagal):  a = k3,            b = k2
    forwarding    (glofo, bofo):                 a = k3,            b = k2 + k1*k3/k2
    backstepping  (globa, barfli):               a = k3 + k2*k4,    b = k1*k2 + k4

The -k1 mode decouples, so the eigenvalues are -k1 and the roots of
lambda^2 + b*lambda + k1*a, solved in closed form rather than with a general
eigensolver.

Gain assignment for requested eigenvalues {-p1, -p2, -p3}:

* passivity:    k1 = p1, k2 = p2 + p3, k3 = p2*p3/p1.  In strict mode the
  certificate condition k1*k3 >= k2^2 forces the (p2, p3) pair to be complex
  with damping ratio <= 1/2; real pairs are infeasible there.
* forwarding:   the 2x2 block factors as (lambda + k2)(lambda + k1*k3/k2), so
  the block's eigenvalues are always real; both branches
  k2 = max(p2, p3) and k2 = min(p2, p3) are returned (with k3 = p2*p3/p1),
  and complex pairs are infeasible.
* backstepping: four gains, three conditions (k1 = p1, k1*k2 + k4 = p2 + p3,
  k3 + k2*k4 = p2*p3/p1), leaving a one-parameter family indexed by
  epsilon in (0, Re p2):

      k2 = (Re(p2) - eps)/p1,   k4 = Re(p3) + eps,
      k3 = (eps^2 + (p3 - p2)*eps)/p1          for real p2 <= p3,
      k3 = (eps^2 + Im(p2)^2)/p1               for p2 = conj(p3).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .controllers import ControllerId, Gains
from .errors import DomainError, InfeasiblePolesError

__all__ = [
    "DesignFamily",
    "PoleSpec",
    "family_of_controller",
    "jacobian",
    "jacobian_eigenvalues",
    "assign_gains",
]


class DesignFamily(Enum):
    PASSIVITY = "passivity"
    FORWARDING = "forwarding"
    BACKSTEPPING = "backstepping"


_FAMILY_OF: dict[ControllerId, DesignFamily] = {
    ControllerId.GENOVA: DesignFamily.PASSIVITY,
    ControllerId.BOLSA: DesignFamily.PASSIVITY,
    ControllerId.BOPA: DesignFamily.PASSIVITY,
    ControllerId.BAGAL: DesignFamily.PASSIVITY,
    ControllerId.GLOFO: DesignFamily.FORWARDING,
    ControllerId.BOFO: DesignFamily.FORWARDING,
    ControllerId.GLOBA: DesignFamily.BACKSTEPPING,
    ControllerId.BARFLI: DesignFamily.BACKSTEPPING,
}


def family_of_controller(cid: ControllerId) -> DesignFamily:
    """Design family of the eight controllers covered by the pole formulas."""
    try:
        return _FAMILY_OF[cid]
    except KeyError:
        raise DomainError(f"{cid.value} is not covered by the pole-assignment formulas") from None


@dataclass(frozen=True)
class PoleSpec:
    """Requested closed-loop eigenvalues -p1, -p2, -p3.

    p1 is real positive; (p2, p3) are either two positive reals or a
    conjugate pair with positive real part, canonically ordered with
    Im(p2) >= 0 (complex) or p2 <= p3 (real).
    """

    p1: float
    p2: complex
    p3: complex

    def __post_init__(self) -> None:
        if not (self.p1 > 0.0 and math.isfinite(self.p1)):
            raise DomainError(f"p1 must be a positive real, got {self.p1!r}")
        p2, p3 = complex(self.p2), complex(self.p3)
        if p2.imag == 0.0 and p3.imag == 0.0:
            if not (p2.real > 0.0 and p3.real > 0.0):
                raise DomainError("real p2, p3 must be positive")
            if p2.real > p3.real:
                p2, p3 = p3, p2
        else:
            if abs(p3 - p2.conjugate()) > 1e-12 * max(1.0, abs(p2)):
                raise DomainError("complex p2, p3 must be a conjugate pair")
            if p2.real <= 0.0:
                raise DomainError("complex pair must have positive real part")
            if p2.imag < 0.0:
                p2, p3 = p3, p2
        object.__setattr__(self, "p2", p2)
        object.__setattr__(self, "p3", p3)

    @property
    def is_complex_pair(self) -> bool:
        return self.p2.imag != 0.0

    def as_eigenvalues(self) -> tuple[complex, complex, complex]:
        return (-self.p1 + 0j, -self.p2, -self.p3)


def _block_entries(family: DesignFamily, g: Gains) -> tuple[float, float]:
    if family is DesignFamily.PASSIVITY:
        return g.k3, g.k2
    if family is DesignFamily.FORWARDING:
        return g.k3, g.k2 + g.k1 * g.k3 / g.k2
    if family is DesignFamily.BACKSTEPPING:
        return g.k3 + g.k2 * g.k4, g.k1 * g.k2 + g.k4
    raise DomainError(f"unknown design family {family!r}")


def jacobian(family: DesignFamily, g: Gains) -> np.ndarray:
    """Closed-loop Jacobian at the origin in (rho, delta, gamma) ordering."""
    a, b = _block_entries(family, g)
    return np.array(
        [
            [-g.k1, 0.0, 0.0],
            [0.0, 0.0, g.k1],
            [0.0, -a, -b],
        ]
    )


def jacobian_eigenvalues(family: DesignFamily, g: Gains) -> tuple[complex, complex, complex]:
    """Eigenvalues of :func:`jacobian`, via the decoupled -k1 mode and the
    quadratic lambda^2 + b*lambda + k1*a in closed form.

    The forwarding block's roots are returned in their factored form
    -k2 and -k1*k3/k2: the discriminant b^2 - 4*k1*a = (k2 - k1*k3/k2)^2
    cancels to about sqrt(eps) relative accuracy when the two are close."""
    if family is DesignFamily.FORWARDING:
        r2, r3 = -g.k2, -g.k1 * g.k3 / g.k2
        return (-g.k1 + 0j, complex(max(r2, r3)), complex(min(r2, r3)))
    a, b = _block_entries(family, g)
    disc = b * b - 4.0 * g.k1 * a
    root = cmath.sqrt(disc)
    lam2 = (-b + root) / 2.0
    lam3 = (-b - root) / 2.0
    return (-g.k1 + 0j, lam2, lam3)


def assign_gains(
    family: DesignFamily,
    poles: PoleSpec,
    *,
    strict: bool = True,
    epsilon: float | None = None,
    k0: float = 1.0,
) -> tuple[Gains, ...]:
    """Gains realising the requested closed-loop eigenvalues.

    Returns a tuple because the forwarding family has two valid branches;
    passivity and backstepping return a single solution.  ``strict`` only
    affects passivity, where it additionally demands k1*k3 >= k2^2;
    ``epsilon`` only affects backstepping (default min(0.1, Re(p2)/2)).

    Raises :class:`InfeasiblePolesError` naming the violated relation when
    the request cannot be met.
    """
    p1 = poles.p1
    if family is DesignFamily.PASSIVITY:
        k2 = (poles.p2 + poles.p3).real
        k3 = (poles.p2 * poles.p3).real / p1
        # Tolerate rounding at the damping-1/2 boundary where k2^2 = k1*k3
        # holds exactly; genuine real-pair violations exceed it by >= 4x.
        if strict and k2 * k2 > p1 * k3 * (1.0 + 1e-12):
            raise InfeasiblePolesError(
                "passivity strict mode needs k1*k3 >= k2^2, i.e. a conjugate pole pair "
                f"with damping <= 1/2; got k2^2 = {k2 * k2:.6g} > k1*k3 = {p1 * k3:.6g}"
            )
        return (Gains(k1=p1, k2=k2, k3=k3, k0=k0),)

    if family is DesignFamily.FORWARDING:
        if poles.is_complex_pair:
            raise InfeasiblePolesError(
                "forwarding cannot realise a complex pair: the gamma-block factors as "
                "(lambda + k2)(lambda + k1*k3/k2), so k2 + k1*k3/k2 = p2 + p3 has no "
                "positive solution off the real axis"
            )
        p2, p3 = poles.p2.real, poles.p3.real
        k3 = p2 * p3 / p1
        out = []
        for k2 in (0.5 * (p2 + p3 + abs(p2 - p3)), 0.5 * (p2 + p3 - abs(p2 - p3))):
            if abs(k2 + p1 * k3 / k2 - (p2 + p3)) > 1e-9 * max(1.0, p2 + p3):
                raise InfeasiblePolesError(
                    "forwarding consistency k2 + k1*k3/k2 = p2 + p3 failed"
                )
            out.append(Gains(k1=p1, k2=k2, k3=k3, k0=k0))
        if out[0].k2 == out[1].k2:
            return (out[0],)
        return tuple(out)

    if family is DesignFamily.BACKSTEPPING:
        re2 = poles.p2.real
        if epsilon is None:
            epsilon = min(0.1, 0.5 * re2)
        if not 0.0 < epsilon < re2:
            raise InfeasiblePolesError(
                f"backstepping epsilon must lie in (0, Re(p2)) = (0, {re2:.6g}), got {epsilon!r}"
            )
        k2 = (re2 - epsilon) / p1
        k4 = poles.p3.real + epsilon
        if poles.is_complex_pair:
            k3 = (epsilon * epsilon + poles.p2.imag ** 2) / p1
        else:
            k3 = (epsilon * epsilon + (poles.p3.real - poles.p2.real) * epsilon) / p1
        return (Gains(k1=p1, k2=k2, k3=k3, k4=k4, k0=k0),)

    raise DomainError(f"unknown design family {family!r}")
