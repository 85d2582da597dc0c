"""40-digit reference values of the eleven steering laws, used to check the
omega column of trajectory outputs.

Each law is written out from its closed form with mpmath, including mpmath's
own sine integral, so it shares no code with the package under test.  The
functions return the total steering input omega; for the laws designed
through the cancellation split this is (k1/2)*sin(2*gamma) + omega_tilde.
"""

from __future__ import annotations

import mpmath as mp

_DPS = 40


def _sinc(a):
    return mp.mpf(1) if a == 0 else mp.sin(a) / a


def _psi(z, c):
    if z == 0:
        return mp.cos(2 * c)
    return (mp.sin(2 * z - 2 * c) + mp.sin(2 * c)) / (2 * z)


def _gamma_weight(c):
    """cos(gamma) / (1 + tan^2(gamma/2))^2, the bounded gamma factor."""
    return mp.cos(c) / (1 + mp.tan(c / 2) ** 2) ** 2


def _barrier(d):
    """(1 + tan^2(delta/2)) * tan(delta/2), the delta barrier factor."""
    s = mp.tan(d / 2)
    return (1 + s * s) * s


def _tilde(law, k1, k2, k3, k4, d, c):
    if law == "genova":
        return k2 * c + k3 * _sinc(2 * c) * d
    if law == "bolsa":
        return k2 * mp.sin(c) + k3 * _gamma_weight(c) * d
    if law == "bopa":
        return k2 * c + 2 * k3 * _sinc(2 * c) * _barrier(d)
    if law == "bagal":
        return k2 * mp.sin(c) + 2 * k3 * _gamma_weight(c) * _barrier(d)
    if law == "glofo":
        zeta = d + k1 / (2 * k2) * mp.si(2 * c)
        return k2 * c + k3 * _sinc(2 * c) * zeta
    if law == "bofo":
        zeta = d + k1 / k2 * mp.sin(c)
        return k2 * mp.sin(c) + k3 * _gamma_weight(c) * zeta
    if law == "globa":
        z = c + mp.atan(2 * k2 * d) / 2
        return (k4 * z + k1 * k2 / (2 * (1 + 4 * k2 * k2 * d * d)) * mp.sin(2 * c)
                + k3 * _psi(z, c) * d)
    if law == "barfli":
        s = mp.tan(d / 2)
        z = c + mp.atan(4 * k2 * s) / 2
        sec2 = 1 + s * s
        return (k4 * z + k1 * k2 * sec2 / (2 * (1 + 16 * k2 * k2 * s * s)) * mp.sin(2 * c)
                + 2 * k3 * _psi(z, c) * sec2 * s)
    raise KeyError(law)


def _direct_total(law, k1, k2, k3, k4, d, c):
    if law == "globa-interp":
        z = c + mp.atan(2 * k2 * d) / 2
        n2 = 1 + 4 * k2 * k2 * d * d
        n = mp.sqrt(n2)
        b = 1 + k2 / n2
        p = _psi(z, c)
        cc = p * n - k1 * k2 / k3 * b
        return (k4 + k3 / (2 * k2) * cc * cc / n + k1 * abs(p) * b) * z
    if law == "globa-cons":
        z = c + mp.atan(2 * k2 * d) / 2
        k5 = k1 * (1 + k2) * (1 + k1 * k2 * (1 + k2) / k3)
        return (k4 + k5 + k3 / k2 * (1 + 4 * k2 * k2 * d * d)) * z
    if law == "libac":
        z = c + d / 2
        return (k3 * z + 3 * k1 / 4 * mp.sin(2 * c)
                + k2 * mp.tan(d / 2) / (1 + mp.cos(d)) * _psi(z, c))
    raise KeyError(law)


DIRECT_TOTAL = frozenset({"globa-interp", "globa-cons", "libac"})


def omega(law: str, gains: tuple[float, float, float, float], delta: float, gamma: float) -> float:
    """Total steering input of ``law`` at (delta, gamma), rounded to a float."""
    with mp.workdps(_DPS):
        k1, k2, k3, k4 = (mp.mpf(k) for k in gains)
        d, c = mp.mpf(delta), mp.mpf(gamma)
        if law in DIRECT_TOTAL:
            return float(_direct_total(law, k1, k2, k3, k4, d, c))
        return float(k1 / 2 * mp.sin(2 * c) + _tilde(law, k1, k2, k3, k4, d, c))
