"""``repr`` of a float64 table, computed in numpy.

:func:`repr_rows` writes a table as CSV rows in which each value is
``repr(value)`` byte for byte: the shortest decimal that reads back to the
same double, the nearest such one, a tie to the even digit (Python's ``'r'``
format).  The digits come from Schubfach (R. Giulietti, *The Schubfach way
to render doubles*, 2020), in the integer arithmetic of Java's
``DoubleToDecimal``, on uint64 lanes.  A table with a non-finite or
subnormal value is written with ``repr`` itself.

Each value is laid out in a frame of six little-endian words, 48 bytes:

    byte  0      "-"                  bytes 40-41  "e" and the exponent's sign
    bytes 1-5    "0.000"              bytes 42-44  the exponent's 3 digits
    byte  6      the first digit d0   byte  45     the separator
    bytes 7-39   "." then d1 . d2 . d3 . ... d16 .

from the 17 digits d0...d16 of the decimal (trailing zeros included).  A
table row per (sign, digit count, layout) marks the bytes of the value's
text, and one compaction of the chunk keeps them: "-" only for a negative
value, "0.000" cut to "0." and its zeros for 1e-4 <= |v| < 1, one of the
dots, and the exponent only in scientific layout, which Python uses for
exponents below -4 and above 15.
"""

from __future__ import annotations

import functools

import numpy as np

_K_MIN = -324  # floor(log10(2^q)) at the least exponent, q = -1074
_MASK63 = (1 << 63) - 1
_LOW32 = 0xFFFFFFFF
# Layouts: 0-19 positional with exponent -4..15, 20 and 21 scientific with a
# 2- and a 3-digit exponent.
_LAYOUTS = 22
_FRAME_BYTES = 48
_FRAME_HEAD = int.from_bytes(b"-0.000\x00.", "little")


@functools.cache
def _tables():
    """The 126-bit Schubfach multipliers g(k) split into 63-bit halves, the
    4-digit and 3-digit ASCII words, the last nonzero digit of each 4-digit
    group, and the keep masks.  Built on first use, off the import path."""
    g = []
    for k in range(_K_MIN, 293):
        r = ((-k * 913124641741) >> 38) - 125  # floor(log2 10^-k) - 125
        g.append((10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1)
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)
    g0 = np.array([x & _MASK63 for x in g], dtype=np.uint64)
    i = np.arange(10000, dtype=np.uint64)
    digits = [i // 1000, i // 100 % 10, i // 10 % 10, i % 10]
    dotted = sum((d + 48) << np.uint64(16 * j) for j, d in enumerate(digits)) | np.uint64(0x2E002E002E002E00)
    three = sum((d + 48) << np.uint64(8 * j) for j, d in enumerate(digits[1:]))[:1000]
    # The index among d1..d16 of a group's last nonzero digit, 0 for none.
    nz = np.select([digits[3] != 0, digits[2] != 0, digits[1] != 0, i != 0], [4, 3, 2, 1], 0)
    last = [np.where(nz > 0, nz + 4 * j, 0).astype(np.uint8) for j in range(4)]
    neg, n, layout = np.indices((2, 17, _LAYOUTS)).reshape(3, -1, 1)  # n: digits after d0
    e = layout - 4
    sci = layout >= 20
    b = np.arange(_FRAME_BYTES)
    digit = np.where(b == 6, 0, np.where((b >= 8) & (b < 40) & (b % 2 == 0), b // 2 - 3, -1))
    dot = np.where((b >= 7) & (b < 40) & (b % 2 == 1), b // 2 - 3, -1)  # the dot after that digit
    keep = (b == 0) & (neg == 1) | (b == 45)
    keep |= (digit >= 0) & (digit <= np.where(sci | (e < 0), n, np.maximum(n, e + 1)))
    keep |= (dot >= 0) & np.where(sci, (dot == 0) & (n > 0), dot == e)
    keep |= ~sci & (e < 0) & (b >= 1) & (b < 2 - e)
    keep |= sci & (b >= 40) & (b <= 44) & ((b != 42) | (layout == 21))
    return g1, g0, dotted, three, last, keep


def _mul_high(ah, al, bh, bl):
    """The high 64 bits of the product of (ah 2^32 + al) and (bh 2^32 + bl),
    from 32-bit halves; bh < 2^31."""
    t = ah * bl + (al * bl >> 32)
    u = al * bh + (t & _LOW32)
    return ah * bh + (t >> 32) + (u >> 32)


def _round_to_odd(g1, g1h, g1l, g0h, g0l, cp):
    """g cp / 2^127 rounded to odd, with g = g1 2^63 + g0 (Java's ``rop``)."""
    ch, cl = cp >> 32, cp & _LOW32
    z = (g1 * cp >> 1) + _mul_high(g0h, g0l, ch, cl)
    return _mul_high(g1h, g1l, ch, cl) + (z >> 63) | ((z & _MASK63) + _MASK63) >> 63


def _shortest(mag):
    """(d, e): the shortest decimal that reads back to each double of
    magnitude bits ``mag`` (finite, normal or zero), the nearest of those,
    as its 17 digits d0 d1 ... d16 in d (trailing zeros included) and the
    exponent e of d0."""
    g1t, g0t, *_ = _tables()
    zero = mag == 0
    mag = mag | zero * np.uint64(0x3FF0000000000000)  # 0 is written as 1, then its digits cleared
    biased = (mag >> 52).astype(np.int64)
    c = mag & (1 << 52) - 1 | 1 << 52
    q = biased - 1075  # the value is c 2^q
    irregular = (c == 1 << 52) & (biased > 1)  # the double below is half as far as the one above
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10((3/4 or 1) 2^q))
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    g1, g0 = g1t.take(k - _K_MIN), g0t.take(k - _K_MIN)
    g = (g1, g1 >> 32, g1 & _LOW32, g0 >> 32, g0 & _LOW32)
    # 4 v 10^-k and the rounding interval's ends; an end is in the interval
    # only for an even c, so an odd c moves both ends inward by one.
    odd = c & 1
    cb = c << 2
    vb = _round_to_odd(*g, cb << h)
    vbl = _round_to_odd(*g, cb - 2 + irregular << h) + odd
    vbr = _round_to_odd(*g, cb + 2 << h) - odd
    s = vb >> 2
    # The one multiple of 10^(k+1) in the interval if there is one, else the
    # one of s and s + 1 (times 10^k) in it, else the nearer, a tie to even.
    s10 = s // 10 * 10
    low10 = vbl <= s10 << 2
    high10 = s10 + 10 << 2 <= vbr
    mid = 4 * s + 2
    take_s = (vbl <= s << 2) & ~((s + 1 << 2 <= vbr) & ((vb > mid) | (vb == mid) & (s & 1 == 1)))
    r = np.where(low10 ^ high10, np.where(high10, s10 + 10, s10), s + 1 - take_s)
    wide = r >= 10**16  # r has 16 or 17 digits
    return np.where(wide, r, r * 10) * ~zero, k + 15 + wide


def _frames(d, e, rows, cols):
    """The frames of the decimals (d, e) as (rows, cols, 48) bytes, and
    the digit count and layout of each as n * _LAYOUTS + layout."""
    _, _, dotted, three, last, _ = _tables()
    d0 = d // 10**16
    tail = d - d0 * 10**16
    hi = tail // 10**8
    lo = tail - hi * 10**8
    hi4, lo4 = hi // 10**4, lo // 10**4
    groups = (hi4, hi - hi4 * 10**4, lo4, lo - lo4 * 10**4)
    n = np.maximum(np.maximum(last[0].take(groups[0]), last[1].take(groups[1])),
                   np.maximum(last[2].take(groups[2]), last[3].take(groups[3])))
    big = np.abs(e)
    layout = np.where((e < -4) | (e > 15), 20 + (big >= 100), e + 4)
    frame = np.empty((rows, cols, 6), dtype="<u8")
    frame[..., 0] = (_FRAME_HEAD | d0 + 48 << 48).reshape(rows, cols)
    for j, group in enumerate(groups):
        frame[..., j + 1] = dotted.take(group).reshape(rows, cols)
    # "e-ddd" or "e+ddd"
    exponent = np.where(e < 0, np.uint64(0x2D65), np.uint64(0x2B65)) | three.take(big) << 16
    frame[..., 5] = exponent.reshape(rows, cols)
    text = frame.view(np.uint8).reshape(rows, cols, _FRAME_BYTES)
    text[:, :, 45] = ord(",")
    text[:, -1, 45] = ord("\n")
    return text, n.astype(np.int64) * _LAYOUTS + layout


def repr_rows(chunk: np.ndarray) -> str:
    """The rows of the float64 table ``chunk`` as CSV, each value ``repr``."""
    rows, cols = chunk.shape
    bits = np.ascontiguousarray(chunk, dtype=np.float64).view(np.uint64).ravel()
    mag = bits & _MASK63
    if not (((mag >> 52) - 1 < 2046) | (mag == 0)).all():  # NaN, inf or subnormal
        return ((",".join(["%s"] * cols) + "\n") * rows) % tuple(map(repr, chunk.ravel().tolist()))
    text, kind = _frames(*_shortest(mag), rows, cols)
    *_, keep = _tables()
    mask = keep.take((bits >> 63).astype(np.int64) * (17 * _LAYOUTS) + kind, axis=0)
    return np.compress(mask.ravel(), text.ravel()).tobytes().decode("ascii")
