"""A sympy primitive namespace, so the laws and certificates written over
``xp`` build expressions in the symbols ``DELTA`` and ``GAMMA``.

It is made with ``kernels._namespace`` like ``SCALAR`` and ``ARRAY`` and has
their names: ``sin``, ``cos``, ``tan``, ``atan``, ``sqrt``, ``abs``
(``Abs``) and ``si`` (``Si``); ``sinc`` as a ``Piecewise`` that fills in
sinc(0) = 1; the product-form ``psi`` = sinc(z)*cos(z - 2*gamma); and
``where`` as a ``Piecewise``.  Importing it needs sympy; a test that uses it
skips without it.
"""

import sympy as sp

from unipark.kernels import _namespace


def _sinc(a):
    return sp.Piecewise((sp.Integer(1), sp.Eq(a, 0)), (sp.sin(a) / a, True))


SYMBOLIC = _namespace(
    "SYMBOLIC",
    sin=sp.sin, cos=sp.cos, tan=sp.tan, atan=sp.atan, sqrt=sp.sqrt, abs=sp.Abs,
    sinc=_sinc, psi=lambda z, gamma: _sinc(z) * sp.cos(z - 2 * gamma), si=sp.Si,
    where=lambda cond, a, b: sp.Piecewise((a, cond), (b, True)),
)

DELTA, GAMMA = sp.symbols("delta gamma", real=True)


def at(expr, delta: float, gamma: float) -> float:
    """``expr`` at (DELTA, GAMMA) = (delta, gamma), evaluated to 30 digits."""
    return float(expr.evalf(30, subs={DELTA: delta, GAMMA: gamma}))
