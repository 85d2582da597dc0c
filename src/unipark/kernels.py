"""Scalar special functions shared by the steering laws and their certificates.

All kernels are pure total functions of their float arguments, with no global
state, so they are safe for unrestricted concurrent use.  They operate on
plain Python floats.

:data:`SCALAR` and :data:`ARRAY` are the two primitive namespaces (``sin``,
``cos``, ``tan``, ``atan``, ``sqrt``, ``abs``, ``sinc``, ``psi``, ``si``,
``where``) that the laws, metrics, certificates and pole formulas are written
over once: the scalar one is made of :mod:`math` and the kernels below, the
array one of their numpy/scipy counterparts.

Conventions
-----------
* ``sinc(a) = sin(a)/a`` with ``sinc(0) = 1``; bounded in [-0.21724, 1].
* ``Si(a)`` is the sine integral, the antiderivative of ``sinc`` from 0.
* ``psi(z, gamma) = [sin(2z - 2*gamma) + sin(2*gamma)] / (2z)``, extended
  continuously across ``z = 0`` where it equals ``cos(2*gamma)``.  The
  sum-to-product identity gives the equivalent form
  ``sinc(z) * cos(z - 2*gamma)``, which is what the small-``z`` branch uses;
  it shows directly that ``|psi| <= 1``.
"""

from __future__ import annotations

import math
from types import ModuleType

import numpy as np
from scipy.special import sici as _sici

from .errors import BarrierDomainError, DomainError

__all__ = ["sinc", "sine_integral", "psi", "half_tan", "wrap_angle", "SCALAR", "ARRAY"]

# Below this magnitude sin(a)/a loses accuracy to cancellation; the 3-term
# Taylor polynomial is exact to well under 1e-20 there.
_SINC_TAYLOR_THRESHOLD = 1e-4

# Below this magnitude psi switches to its analytic limit branch.
_PSI_LIMIT_THRESHOLD = 1e-6


def _require_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return float(value)


def sinc(a: float) -> float:
    """sin(a)/a with the removable singularity at a = 0 filled in.

    Even in ``a``.  For |a| < 1e-4 the Taylor polynomial
    ``1 - a^2/6 + a^4/120`` is used to avoid cancellation.
    """
    if not math.isfinite(a):
        _require_finite("a", a)
    if abs(a) < _SINC_TAYLOR_THRESHOLD:
        a2 = a * a
        return 1.0 - a2 / 6.0 + a2 * a2 / 120.0
    return math.sin(a) / a


def sine_integral(a: float) -> float:
    """Sine integral Si(a) = integral of sinc from 0 to a.  Odd in ``a``.

    Backed by the scipy ``sici`` routine (series + asymptotic expansions,
    absolute error well under 1e-12 across the real line); the test-suite
    oracle is independent adaptive quadrature of :func:`sinc`.
    """
    a = _require_finite("a", a)
    si, _ = _sici(a)
    return float(si)


def psi(z: float, gamma: float) -> float:
    """The bounded virtual-input coefficient of the backstepping designs.

    psi(z, gamma) = [sin(2z - 2*gamma) + sin(2*gamma)] / (2z), continuous at
    z = 0 with psi(0, gamma) = cos(2*gamma).  Satisfies |psi| <= 1 and
    psi(0, n*pi) = 1 for integer n.
    """
    if not (math.isfinite(z) and math.isfinite(gamma)):
        _require_finite("z", z)
        _require_finite("gamma", gamma)
    if abs(z) < _PSI_LIMIT_THRESHOLD:
        # Limit branch via the product identity sinc(z) * cos(z - 2*gamma).
        return sinc(z) * math.cos(z - 2.0 * gamma)
    return (math.sin(2.0 * z - 2.0 * gamma) + math.sin(2.0 * gamma)) / (2.0 * z)


def half_tan(a: float) -> float:
    """tan(a/2), the barrier term of the constrained state spaces.

    Monotone increasing on (-pi, pi) and divergent at the endpoints; raises
    outside that interval because the barrier certificates are undefined
    there.
    """
    a = _require_finite("a", a)
    if abs(a) >= math.pi:
        raise BarrierDomainError(f"half_tan requires |a| < pi, got {a!r}")
    return math.tan(0.5 * a)


def wrap_angle(a: float) -> float:
    """Wrap an angle to its representative in [-pi, pi)."""
    a = _require_finite("a", a)
    w = math.fmod(a + math.pi, 2.0 * math.pi)
    if w < 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def _namespace(name: str, **primitives) -> ModuleType:
    # A module object rather than a SimpleNamespace: CPython specialises
    # attribute loads on modules, so ``xp.sin`` costs what ``math.sin`` does
    # in the scalar integration loops.
    ns = ModuleType(f"{__name__}.{name}")
    ns.__dict__.update(primitives)
    return ns


def _sinc_array(a):
    return np.sinc(a / np.pi)


SCALAR = _namespace(
    "SCALAR",
    sin=math.sin, cos=math.cos, tan=math.tan, atan=math.atan, sqrt=math.sqrt, abs=abs,
    sinc=sinc, psi=psi, si=sine_integral, where=lambda cond, a, b: a if cond else b,
)

ARRAY = _namespace(
    "ARRAY",
    sin=np.sin, cos=np.cos, tan=np.tan, atan=np.arctan, sqrt=np.sqrt, abs=np.abs,
    sinc=_sinc_array,
    # The product form sinc(z)*cos(z - 2*gamma) needs no branch at z = 0.
    psi=lambda z, gamma: _sinc_array(z) * np.cos(z - 2.0 * gamma),
    si=lambda a: _sici(a)[0], where=np.where,
)
