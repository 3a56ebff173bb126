"""Minimal self-contained SVG line plots; no plotting dependency.

Output is deterministic: fixed palette, fixed layout, coordinates rounded to
two decimals.
"""

from __future__ import annotations

import math

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 36
_MARGIN_BOTTOM = 46
_WIDTH = 720
_HEIGHT = 460
_TICKS = 5


def _nice_ticks(lo: float, hi: float) -> list:
    """Round tick values over [lo, hi]; line_plot widens an empty range, so lo < hi."""
    raw = (hi - lo) / (_TICKS - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if raw <= m * mag)
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return ticks


def line_plot(x, series, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """SVG document plotting each (label, values) pair in series against x."""
    x = [float(v) for v in x]
    series = [(label, [float(v) for v in ys]) for label, ys in series]
    x_lo, x_hi = min(x), max(x)
    all_y = [v for _, ys in series for v in ys]
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(v: float) -> float:
        return _MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return _MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.2f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15" fill="#202020">{title}</text>')

    for tick in _nice_ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(f'<line x1="{px:.2f}" y1="{_MARGIN_TOP}" x2="{px:.2f}" '
                     f'y2="{_MARGIN_TOP + plot_h}" stroke="#e0e0e0" stroke-width="1"/>')
        parts.append(f'<text x="{px:.2f}" y="{_MARGIN_TOP + plot_h + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="11" '
                     f'fill="#404040">{tick:g}</text>')
    for tick in _nice_ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{py:.2f}" '
                     f'x2="{_MARGIN_LEFT + plot_w}" y2="{py:.2f}" '
                     f'stroke="#e0e0e0" stroke-width="1"/>')
        parts.append(f'<text x="{_MARGIN_LEFT - 8}" y="{py + 4:.2f}" '
                     f'text-anchor="end" font-family="sans-serif" font-size="11" '
                     f'fill="#404040">{tick:g}</text>')

    parts.append(f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="#404040" stroke-width="1"/>')
    if xlabel:
        parts.append(f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{_HEIGHT - 8}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="12" '
                     f'fill="#202020">{xlabel}</text>')
    if ylabel:
        cy = _MARGIN_TOP + plot_h / 2
        parts.append(f'<text x="16" y="{cy:.2f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12" fill="#202020" '
                     f'transform="rotate(-90 16 {cy:.2f})">{ylabel}</text>')

    for idx, (label, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in zip(x, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.6"/>')
        ly = _MARGIN_TOP + 14 + 16 * idx
        lx = _MARGIN_LEFT + plot_w - 120
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.6"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11" fill="#202020">{label}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
