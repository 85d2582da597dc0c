"""Minimal self-contained SVG rendering of parking trajectories.

One drawing shows (x, y) paths with periodic heading ticks, the target pose
marker at the origin (arrow along the target heading), and labelled axes.
No external assets, scripts, or fonts beyond generic sans-serif.

The document is produced as a stream of text pieces, each polyline a chunk
of ``_CHUNK_VERTICES`` vertices at a time.  :func:`write_svg` writes the
pieces straight to a file, so memory is bounded by the kept paths, not by
the document; :func:`render_paths` joins the same pieces into a string.

A chunk's ``"%.2f"`` text is written from digit tables (:func:`_points_text`),
with no Python object per coordinate: on [0, 999) the conversion is the
count of hundredths ``rint(100 v)`` in decimal, except within an ulp of a
tie, where ``"%.2f"`` itself decides.  A drawing whose padded extent would
overflow is laid out in halved coordinates, its axes still labelled in
world units.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["SvgPath", "palette_color", "render_paths", "write_svg"]

# The longer side of the drawing, in px.
_SIZE = 640
# Polyline vertices formatted per piece, so a piece stays small however long
# the path.
_CHUNK_VERTICES = 1024
# One "%.2f" value is one little-endian word: bytes 0-3 hold the integer part
# 0-999 as "ddd.", bytes 4-5 the hundredths as "ff", byte 6 the separator.  A
# 1 in _KEEP_BYTES marks a byte written, so leading zeros and byte 7 drop.
_WHOLE = np.arange(1000, dtype="<u8")
_WHOLE_WORDS = ((_WHOLE // 100 + 48) | (_WHOLE // 10 % 10 + 48) << 8 | (_WHOLE % 10 + 48) << 16
                | ord(".") << 24)
_HUNDREDTHS_WORDS = (_WHOLE[:100] // 10 + 48) << 32 | (_WHOLE[:100] % 10 + 48) << 40
_KEEP_BYTES = (_WHOLE >= 100).astype("<u8") | (_WHOLE >= 10).astype("<u8") << 8 | 0x0001010101010000
_SEPARATORS = np.array([ord(","), ord(" ")], dtype="<u8") << 48
_COLORS = ("#d62728", "#1f77b4", "#17becf", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def palette_color(i: int) -> str:
    """The i-th colour of the drawing palette, cycling."""
    return _COLORS[i % len(_COLORS)]


@dataclass
class SvgPath:
    """One trajectory to draw: Cartesian samples (N, 3) and a label."""

    cartesian: np.ndarray
    label: str = ""
    color: str | None = None


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12:
        # The steps' rounding can leave the origin's tick far from 0 when they
        # are huge; the only tick within half a step of 0 is 0, signed as t.
        out.append(round(t, 12) if abs(t) >= step / 2 else math.copysign(0.0, t))
        t += step
    return out


def render_paths(paths: list[SvgPath]) -> str:
    """Render trajectories to an SVG string of at most ``_SIZE`` px a side, with
    about 25 heading dashes per path and the target pose at the origin.

    The string is the pieces :func:`write_svg` streams, joined; it holds the
    whole document, so write files with :func:`write_svg`."""
    return "".join(_pieces(paths))


def write_svg(path: Path, paths: list[SvgPath]) -> None:
    """Write the drawing of :func:`render_paths` to ``path``, piece by piece.

    Each polyline is formatted ``_CHUNK_VERTICES`` vertices at a time, from
    digit tables with no Python object per coordinate, so memory beyond the
    kept paths stays bounded however long they are; the bytes equal
    ``render_paths(paths)``."""
    with open(path, "w") as fh:
        fh.writelines(_pieces(paths))


def _points_text(screen: np.ndarray) -> str:
    """``"%.2f,%.2f"`` of each row of the (n, 2) ``screen``, joined by spaces."""
    v = screen.ravel()
    if not (v < 999.0).all() or np.signbit(v).any():  # NaN, -0.0 and negatives too
        return " ".join(["%.2f,%.2f"] * len(screen)) % tuple(v.tolist())
    t = v * 100.0
    n = np.rint(t)
    # fl(100 v) is within half an ulp of 100 v, so rint rounds 100 v itself
    # unless t lies within an ulp of a tie.
    near = np.abs(t - n) >= 0.5 - np.spacing(t)
    n = n.astype(np.int64)
    n[near] = [int(("%.2f" % x).replace(".", "")) for x in v[near].tolist()]
    whole, hundredths = np.divmod(n, 100)
    words = (_WHOLE_WORDS[whole] | _HUNDREDTHS_WORDS[hundredths]).reshape(-1, 2) | _SEPARATORS
    # Byte-swapped operands give native words; the bytes are read little-endian.
    text = words.astype("<u8", copy=False).view(np.uint8).ravel()[_KEEP_BYTES[whole].view(np.bool_)]
    return text.tobytes()[:-1].decode("ascii")


def _pieces(paths: list[SvgPath]) -> Iterator[str]:
    """The SVG document of ``paths`` as consecutive text pieces."""
    arrs = [np.asarray(p.cartesian, dtype=float).reshape(-1, 3) for p in paths]
    xs = [0.0]
    ys = [0.0]
    for arr in arrs:
        xs.extend((float(arr[:, 0].min()), float(arr[:, 0].max())))
        ys.extend((float(arr[:, 1].min()), float(arr[:, 1].max())))
    # The drawing is laid out in world units times ``unit``, halved while the
    # padded extent overflows; at a quarter any finite coordinates fit.
    for unit in (1.0, 0.5, 0.25):
        x_lo, x_hi = min(xs) * unit, max(xs) * unit
        y_lo, y_hi = min(ys) * unit, max(ys) * unit
        span = max(x_hi - x_lo, y_hi - y_lo, 1e-6)
        pad = 0.08 * span
        x_lo, x_hi = x_lo - pad, x_hi + pad
        y_lo, y_hi = y_lo - pad, y_hi + pad
        span_x, span_y = x_hi - x_lo, y_hi - y_lo
        if math.isfinite(span_x) and math.isfinite(span_y):
            break
    if unit != 1.0:
        arrs = [arr * (unit, unit, 1.0) for arr in arrs]
    scale = (_SIZE - 70) / max(span_x, span_y)
    w = int(span_x * scale) + 70
    h = int(span_y * scale) + 70

    # sx and sy take floats or arrays, with the same arithmetic on each.
    def sx(x):
        return 50.0 + (x - x_lo) * scale

    def sy(y):
        # SVG y grows downward; world y grows upward.
        return (h - 40.0) - (y - y_lo) * scale

    # Every element ends its line except the closing tag.
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">\n'
    )
    yield f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>\n'
    # Axes with tick labels.
    ax_y = sy(y_lo)
    ax_x = sx(x_lo)
    yield (
        f'<line x1="{sx(x_lo):.1f}" y1="{ax_y:.1f}" x2="{sx(x_hi):.1f}" y2="{ax_y:.1f}" '
        'stroke="#444" stroke-width="1"/>\n'
    )
    yield (
        f'<line x1="{ax_x:.1f}" y1="{sy(y_lo):.1f}" x2="{ax_x:.1f}" y2="{sy(y_hi):.1f}" '
        'stroke="#444" stroke-width="1"/>\n'
    )
    # Axis labels read world units; a tick past the largest float has none.
    for t in (t for t in _ticks(x_lo, x_hi) if math.isfinite(t / unit)):
        yield (
            f'<line x1="{sx(t):.1f}" y1="{ax_y:.1f}" x2="{sx(t):.1f}" y2="{ax_y + 4:.1f}" '
            'stroke="#444" stroke-width="1"/>\n'
        )
        yield (
            f'<text x="{sx(t):.1f}" y="{ax_y + 16:.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle" fill="#444">{t / unit:g}</text>\n'
        )
    for t in (t for t in _ticks(y_lo, y_hi) if math.isfinite(t / unit)):
        yield (
            f'<line x1="{ax_x - 4:.1f}" y1="{sy(t):.1f}" x2="{ax_x:.1f}" y2="{sy(t):.1f}" '
            'stroke="#444" stroke-width="1"/>\n'
        )
        yield (
            f'<text x="{ax_x - 7:.1f}" y="{sy(t) + 4:.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end" fill="#444">{t / unit:g}</text>\n'
        )
    yield (
        f'<text x="{sx(x_hi):.1f}" y="{ax_y + 32:.1f}" font-family="sans-serif" '
        'font-size="12" text-anchor="end" fill="#222">x [m]</text>\n'
    )
    yield (
        f'<text x="{ax_x + 6:.1f}" y="{sy(y_hi) - 8:.1f}" font-family="sans-serif" '
        'font-size="12" fill="#222">y [m]</text>\n'
    )

    # Trajectories.
    for i, (p, arr) in enumerate(zip(paths, arrs)):
        color = p.color or palette_color(i)
        yield '<polyline points="'
        for start in range(0, len(arr), _CHUNK_VERTICES):
            chunk = arr[start:start + _CHUNK_VERTICES]
            screen = np.column_stack((sx(chunk[:, 0]), sy(chunk[:, 1])))
            yield (" " if start else "") + _points_text(screen)
        yield f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
        stride = max(1, len(arr) // 25)
        tick_len = 0.025 * span
        for j in range(0, len(arr), stride):
            x, y, th = arr[j]
            yield (
                f'<line x1="{sx(x):.2f}" y1="{sy(y):.2f}" '
                f'x2="{sx(x + tick_len * math.cos(th)):.2f}" '
                f'y2="{sy(y + tick_len * math.sin(th)):.2f}" '
                f'stroke="{color}" stroke-width="0.8" opacity="0.7"/>\n'
            )
        # Start marker.
        yield (
            f'<circle cx="{sx(arr[0, 0]):.2f}" cy="{sy(arr[0, 1]):.2f}" r="3" '
            f'fill="{color}"/>\n'
        )

    # Target pose: filled arrow at the origin along +x.
    a_len = 0.06 * span
    a_wid = 0.022 * span
    yield (
        '<polygon points="'
        f'{sx(a_len):.2f},{sy(0.0):.2f} {sx(0.0):.2f},{sy(a_wid):.2f} '
        f'{sx(0.0):.2f},{sy(-a_wid):.2f}" fill="black"/>\n'
    )
    yield f'<circle cx="{sx(0.0):.2f}" cy="{sy(0.0):.2f}" r="2.5" fill="black"/>\n'

    # Legend for labelled paths (one entry per distinct label).
    seen: dict[str, str] = {}
    for i, p in enumerate(paths):
        if p.label and p.label not in seen:
            seen[p.label] = p.color or palette_color(i)
    for row, (label, color) in enumerate(seen.items()):
        ly = 20 + 16 * row
        yield (
            f'<line x1="{w - 130}" y1="{ly}" x2="{w - 110}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>\n'
        )
        yield (
            f'<text x="{w - 104}" y="{ly + 4}" font-family="sans-serif" font-size="12" '
            f'fill="#222">{label}</text>\n'
        )
    yield "</svg>"
