"""Scalar special functions shared by the steering laws and their certificates.

All kernels are pure total functions of their float arguments.  They operate
on plain Python floats.  The module's one piece of global state is whether Si
is loaded: scipy, whose ``sici`` is the one Si routine, is imported on the
first evaluation of Si, or by a caller that will evaluate it
(:func:`_load_si`), not with the package, so a process that never uses Si
(a run of any law but glofo, ``unipark gains``) never imports it.  Loading is
idempotent and changes no value, so the kernels stay safe for unrestricted
concurrent use.

:data:`SCALAR` and :data:`ARRAY` are the two primitive namespaces (``sin``,
``cos``, ``tan``, ``atan``, ``sqrt``, ``abs``, ``sinc``, ``si``, ``where``)
that the laws, metrics, certificates and pole formulas are written over once:
the scalar one is made of :mod:`math` and the kernels below, the array one of
their numpy/scipy counterparts with the same ``sinc`` rule, whose ``sinc``
and ``si`` also write into an ``out`` array as its ufuncs do; the scalar one
also has ``atan2``, ``hypot`` and ``round`` for the Cartesian chart.  A
third, :data:`TRACE`, run on :class:`Sym` values, records code written over
any of them but ``where`` as straight-line Python on a :class:`Tape`, which
``simulate._rk4_kernel`` compiles over the scalar or the array ones.  Each
namespace's ``psi`` is composed of its own ``sinc`` and ``cos``, so a trace
records it as those two calls.

Conventions
-----------
* ``sinc(a) = sin(a)/a`` with ``sinc(0) = 1``; bounded in [-0.21724, 1].
* ``Si(a)`` is the sine integral, the antiderivative of ``sinc`` from 0.
* ``psi(z, gamma) = [sin(2z - 2*gamma) + sin(2*gamma)] / (2z)``, extended
  continuously across ``z = 0`` where it equals ``cos(2*gamma)``.  It is
  computed in the product form ``sinc(z) * cos(z - 2*gamma)`` that the
  sum-to-product identity gives: that form needs no branch at ``z = 0``,
  does not cancel as ``z`` shrinks, and shows directly that ``|psi| <= 1``.
"""

from __future__ import annotations

import math
from types import ModuleType

import numpy as np

from .errors import BarrierDomainError, DomainError

__all__ = ["sinc", "sine_integral", "psi", "half_tan", "wrap_angle", "SCALAR", "ARRAY"]

# Below this magnitude sin(a)/a loses accuracy to cancellation, and
# 1 - a^2/6 is sinc's Taylor polynomial: the next term, a^4/120 < 1e-18, is
# under half an ulp of it, so adding it would never change the result.
_SINC_TAYLOR_THRESHOLD = 1e-4


def _require_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return float(value)


def sinc(a: float) -> float:
    """sin(a)/a with the removable singularity at a = 0 filled in.

    Even in ``a``.  For |a| < 1e-4 the Taylor polynomial ``1 - a^2/6`` is
    used to avoid cancellation.
    """
    if not math.isfinite(a):
        _require_finite("a", a)
    if abs(a) < _SINC_TAYLOR_THRESHOLD:
        return 1.0 - a * a / 6.0
    return math.sin(a) / a


def sine_integral(a: float) -> float:
    """Sine integral Si(a) = integral of sinc from 0 to a.  Odd in ``a``.

    Backed by the scipy ``sici`` routine (series + asymptotic expansions,
    absolute error well under 1e-12 across the real line), which the first
    use of Si imports (:func:`_load_si`); the test-suite oracle is
    independent adaptive quadrature of :func:`sinc`.
    """
    a = _require_finite("a", a)
    si, _ = _sici(a)
    return float(si)


def _sici(a, out=(None, None)):
    """Stands in for scipy's ``sici`` until :func:`_load_si` replaces it."""
    _load_si()
    return _sici(a, out=out)


def _load_si() -> None:
    """Import scipy's ``sici`` as ``_sici``.

    The first Si evaluation calls this through ``_sici``.  A forked worker
    that loads scipy loses it when it exits, so a caller loads it before
    dealing out work that evaluates Si.
    """
    global _sici
    from scipy.special import sici as _sici


def psi(z: float, gamma: float) -> float:
    """The bounded virtual-input coefficient of the backstepping designs.

    psi(z, gamma) = [sin(2z - 2*gamma) + sin(2*gamma)] / (2z), continuous at
    z = 0 with psi(0, gamma) = cos(2*gamma).  Computed as :data:`SCALAR`'s
    ``psi``, the product form ``sinc(z) * cos(z - 2*gamma)``: it needs no
    branch at z = 0 and is within 1e-15 of the exact value at every z (the
    sum form loses up to 2e-10 to cancellation near |z| = 1e-6).  Satisfies
    |psi| <= 1 and psi(0, n*pi) = 1 for integer n.
    """
    if not (math.isfinite(z) and math.isfinite(gamma)):
        _require_finite("z", z)
        _require_finite("gamma", gamma)
    return SCALAR.psi(z, gamma)


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
    """A primitive namespace, given psi composed of its own sinc and cos."""
    # A module object rather than a SimpleNamespace: CPython specialises
    # attribute loads on modules, so ``xp.sin`` costs what ``math.sin`` does
    # in the scalar integration loops.
    ns = ModuleType(f"{__name__}.{name}")
    ns.__dict__.update(primitives)
    ns.psi = lambda z, gamma: ns.sinc(z) * ns.cos(z - 2.0 * gamma)
    return ns


def _sinc_array(a, out=None):
    """:func:`sinc`'s rule elementwise, into ``out`` if given (an array
    apart from ``a``): the Taylor polynomial where |a| < 1e-4, sin(a)/a
    elsewhere.  The threshold is tested on min |a|, taken into ``out``, so
    the test allocates nothing; a NaN min takes the masked rule, which
    divides where |a| is NaN too."""
    if np.abs(a, out=out).min(initial=np.inf) >= _SINC_TAYLOR_THRESHOLD:
        return np.divide(np.sin(a, out=out), a, out=out)
    small = np.abs(a) < _SINC_TAYLOR_THRESHOLD
    # The masked divide skips 0/0; np.errstate would double a short call.
    taylor = np.subtract(1.0, np.divide(np.multiply(a, a, out=out), 6.0, out=out), out=out)
    return np.divide(np.sin(a), a, out=np.asarray(taylor), where=~small)


SCALAR = _namespace(
    "SCALAR",
    sin=math.sin, cos=math.cos, tan=math.tan, atan=math.atan, sqrt=math.sqrt, abs=abs,
    sinc=sinc, si=sine_integral, where=lambda cond, a, b: a if cond else b,
    atan2=math.atan2, hypot=math.hypot, round=round,
)

ARRAY = _namespace(
    "ARRAY",
    sin=np.sin, cos=np.cos, tan=np.tan, atan=np.arctan, sqrt=np.sqrt, abs=np.abs,
    sinc=_sinc_array, si=lambda a, out=None: _sici(a, out=(out, None))[0], where=np.where,
)


# The primitives a traced expression may call; compiled code calls SCALAR's
# or ARRAY's.
TRACED = ("sin", "cos", "tan", "atan", "sqrt", "abs", "sinc", "si", "atan2", "hypot", "round")


class Tape:
    """Straight-line code recorded by :class:`Sym` values: ``lines`` maps
    each expression, in the order first met, to the local it is computed
    into (an expression met again reuses it: every operation is pure), and
    ``consts`` binds the constants no literal spells, such as inf."""

    def __init__(self) -> None:
        self.lines: dict[str, str] = {}
        self.consts: dict[str, object] = {}

    def text(self, x) -> str:
        if isinstance(x, Sym):
            return x.name
        if type(x) in (int, float) and math.isfinite(x):
            r = repr(x)  # round-trips the exact value and type
            return f"({r})" if r[0] == "-" else r
        name = f"k{len(self.consts)}"
        self.consts[name] = x
        return name

    def emit(self, expr: str, whole: bool = False) -> "Sym":
        return Sym(self, self.lines.setdefault(expr, f"v{len(self.lines)}"), whole)


class Sym:
    """A traced float, or with ``whole`` one that may be an int (made by
    ``round``, kept by int arithmetic).  Each arithmetic operation on it and
    each :data:`TRACE` primitive of it is recorded on its tape, operands in
    the order given, so constants fold by the float operations of untraced
    code; a value times 1 or a float times 1.0 is that value, and an int
    times -1 its negation.  Branching on or comparing it raises
    ``TypeError``."""

    __slots__ = ("tape", "name", "whole")
    __array_ufunc__ = None  # numpy scalars defer to the reflected methods

    def __init__(self, tape: Tape, name: str, whole: bool = False) -> None:
        self.tape, self.name, self.whole = tape, name, whole

    def __neg__(self) -> "Sym":
        return self.tape.emit(f"-{self.name}", self.whole)

    def _no_value(self, *_):
        raise TypeError("a traced value cannot be branched on or compared")

    __bool__ = __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _no_value


def _operator(op: str, reflected: bool):
    def apply(a: Sym, b) -> Sym:
        # Exact folds only: x * 1 is x, but times 1.0 an int becomes a float;
        # x * -1 is -x for an int x alone, since negating a NaN flips its
        # sign bit where multiplying keeps it.
        if op == "*" and (type(b) is int or type(b) is float and not a.whole):
            if b == 1 or b == -1 and a.whole:
                return a if b == 1 else -a
        x, y = (a.tape.text(b), a.name) if reflected else (a.name, a.tape.text(b))
        whole = op != "/" and a.whole and getattr(b, "whole", type(b) is not float)
        return a.tape.emit(f"{x} {op} {y}", whole)

    return apply


for _op, _name in (("+", "add"), ("-", "sub"), ("*", "mul"), ("/", "truediv"), ("**", "pow")):
    setattr(Sym, f"__{_name}__", _operator(_op, False))
    setattr(Sym, f"__r{_name}__", _operator(_op, True))


def _recorder(name: str):
    def record(*args):
        tape = next((a.tape for a in args if isinstance(a, Sym)), None)
        if tape is None:  # no traced argument: a constant
            return getattr(SCALAR, name)(*args)
        whole = name == "round" or name == "abs" and args[0].whole
        return tape.emit(f"{name}({', '.join(map(tape.text, args))})", whole)

    return record


TRACE = _namespace("TRACE", **{name: _recorder(name) for name in TRACED})
