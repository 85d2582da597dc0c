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

The gains (:func:`gain_branches`) and roots (:func:`block_roots`) are written
once over a kernels namespace: floats here, arrays in ``verify``, same doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .controllers import ControllerId, Gains
from .errors import DomainError, InfeasiblePolesError
from .kernels import SCALAR

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


def _block_entries(family: DesignFamily, k1, k2, k3, k4) -> tuple:
    if family is DesignFamily.PASSIVITY:
        return k3, k2
    if family is DesignFamily.FORWARDING:
        return k3, k2 + k1 * k3 / k2
    if family is DesignFamily.BACKSTEPPING:
        return k3 + k2 * k4, k1 * k2 + k4
    raise DomainError(f"unknown design family {family!r}")


def jacobian(family: DesignFamily, g: Gains) -> np.ndarray:
    """Closed-loop Jacobian at the origin in (rho, delta, gamma) ordering."""
    a, b = _block_entries(family, g.k1, g.k2, g.k3, g.k4)
    return np.array(
        [
            [-g.k1, 0.0, 0.0],
            [0.0, 0.0, g.k1],
            [0.0, -a, -b],
        ]
    )


def block_roots(xp, family: DesignFamily, k1, k2, k3, k4) -> tuple:
    """(Re, Im, Re, Im) of the roots of lambda^2 + b*lambda + k1*a, with the
    arithmetic of :func:`cmath.sqrt`, except forwarding's factored -k2 and
    -k1*k3/k2 (larger first): its discriminant (k2 - k1*k3/k2)^2 cancels to
    about sqrt(eps) relative accuracy when the two are close."""
    if family is DesignFamily.FORWARDING:
        r2, r3, zero = -k2, -k1 * k3 / k2, 0.0 * k2
        return xp.where(r3 > r2, r3, r2), zero, xp.where(r3 < r2, r3, r2), zero
    a, b = _block_entries(family, k1, k2, k3, k4)
    disc = b * b - 4.0 * k1 * a
    root = xp.sqrt(xp.abs(disc))
    real, imag = xp.where(disc < 0.0, 0.0, root), xp.where(disc < 0.0, root, 0.0)
    return (-b + real) / 2.0, imag / 2.0, (-b - real) / 2.0, (0.0 - imag) / 2.0


def jacobian_eigenvalues(family: DesignFamily, g: Gains) -> tuple[complex, complex, complex]:
    """Eigenvalues of :func:`jacobian`: -k1 and the :func:`block_roots`."""
    re2, im2, re3, im3 = block_roots(SCALAR, family, g.k1, g.k2, g.k3, g.k4)
    return (-g.k1 + 0j, complex(re2, im2), complex(re3, im3))


def gain_branches(xp, family: DesignFamily, p1, re2, im2, re3, im3, epsilon=None, strict=True) -> tuple:
    """(k1, k2, k3, k4, broken) of each branch for the poles -p1,
    -(re2 + i*im2), -(re3 + i*im3), over floats or arrays: the formulas of
    the module docstring, and whether the branch misses the relation it must
    meet (k1*k3 >= k2^2 in strict passivity, k2 + k1*k3/k2 = p2 + p3)."""
    if family is DesignFamily.PASSIVITY:
        k2, k3 = re2 + re3, (re2 * re3 - im2 * im3) / p1
        return ((p1, k2, k3, 1.0, strict & Gains.passivity_broken(p1, k2, k3)),)
    if family is DesignFamily.FORWARDING:
        k3, total, spread = re2 * re3 / p1, re2 + re3, xp.abs(re2 - re3)
        tol = 1e-9 * xp.where(total > 1.0, total, 1.0)
        return tuple((p1, k2, k3, 1.0, xp.abs(k2 + p1 * k3 / k2 - total) > tol)
                     for k2 in (0.5 * (total + spread), 0.5 * (total - spread)))
    if family is DesignFamily.BACKSTEPPING:
        shift = xp.where(im2 != 0.0, im2 * im2, (re3 - re2) * epsilon)
        return ((p1, (re2 - epsilon) / p1, (epsilon * epsilon + shift) / p1, re3 + epsilon, False),)
    raise DomainError(f"unknown design family {family!r}")


def assign_gains(
    family: DesignFamily,
    poles: PoleSpec,
    *,
    strict: bool = True,
    epsilon: float | None = None,
) -> tuple[Gains, ...]:
    """Gains realising the requested closed-loop eigenvalues.

    Returns a tuple because the forwarding family has two valid branches;
    passivity and backstepping return a single solution.  ``strict`` only
    affects passivity, where it additionally demands k1*k3 >= k2^2;
    ``epsilon`` only affects backstepping (default min(0.1, Re(p2)/2)).

    Raises :class:`InfeasiblePolesError` naming the violated relation when
    the request cannot be met.
    """
    p1, p2, p3 = poles.p1, poles.p2, poles.p3
    if family is DesignFamily.FORWARDING and poles.is_complex_pair:
        raise InfeasiblePolesError(
            "forwarding cannot realise a complex pair: the gamma-block factors as "
            "(lambda + k2)(lambda + k1*k3/k2), so k2 + k1*k3/k2 = p2 + p3 has no "
            "positive solution off the real axis"
        )
    if family is DesignFamily.BACKSTEPPING:
        if epsilon is None:
            epsilon = min(0.1, 0.5 * p2.real)
        if not 0.0 < epsilon < p2.real:
            raise InfeasiblePolesError(
                f"backstepping epsilon must lie in (0, Re(p2)) = (0, {p2.real:.6g}), got {epsilon!r}"
            )
    out = []
    for k1, k2, k3, k4, broken in gain_branches(SCALAR, family, p1, p2.real, p2.imag, p3.real, p3.imag,
                                                epsilon, strict):
        if broken:
            raise InfeasiblePolesError(
                "passivity strict mode needs k1*k3 >= k2^2, i.e. a conjugate pole pair "
                f"with damping <= 1/2; got k2^2 = {k2 * k2:.6g} > k1*k3 = {p1 * k3:.6g}"
                if family is DesignFamily.PASSIVITY
                else "forwarding consistency k2 + k1*k3/k2 = p2 + p3 failed"
            )
        out.append(Gains(k1=k1, k2=k2, k3=k3, k4=k4))
    return tuple(out) if out[0].k2 != out[-1].k2 else (out[0],)
