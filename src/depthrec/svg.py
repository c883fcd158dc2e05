"""Minimal static SVG rendering of curves in the plane.

Fixed 800x600 view box with a y-up world transform (screen y is flipped
around the data bounding box).  Output is deterministic: no ids, no
timestamps, fixed 6-significant-digit coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SvgCurve", "SvgMarker", "render_svg"]

WIDTH, HEIGHT = 800, 600
MARGIN = 40.0
MARKER_RADIUS = 4.0


@dataclass(frozen=True)
class SvgCurve:
    xs: np.ndarray
    ys: np.ndarray
    color: str = "#4878cf"
    width: float = 1.5
    label: str = ""


@dataclass(frozen=True)
class SvgMarker:
    x: float
    y: float
    color: str = "#222222"


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_svg(curves: list[SvgCurve], markers: list[SvgMarker] | None = None) -> str:
    markers = markers or []
    all_x = np.concatenate([np.asarray(c.xs, dtype=float) for c in curves]
                           + [np.array([m.x for m in markers] or [0.0])])
    all_y = np.concatenate([np.asarray(c.ys, dtype=float) for c in curves]
                           + [np.array([m.y for m in markers] or [0.0])])
    x_lo, x_hi = float(np.min(all_x)), float(np.max(all_x))
    y_lo, y_hi = float(np.min(all_y)), float(np.max(all_y))
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    scale = min((WIDTH - 2 * MARGIN) / (x_hi - x_lo),
                (HEIGHT - 2 * MARGIN) / (y_hi - y_lo))

    def to_screen(x, y):
        sx = MARGIN + (x - x_lo) * scale
        sy = HEIGHT - MARGIN - (y - y_lo) * scale  # y-up
        return sx, sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    for curve in curves:
        xs = np.asarray(curve.xs, dtype=float)
        ys = np.asarray(curve.ys, dtype=float)
        n = min(len(xs), len(ys))
        if n < 2:
            continue
        # whole arrays: elementwise, the same float operations as per point
        pxs, pys = to_screen(xs[:n], ys[:n])
        d = "M " + " L ".join(map("{:.6g},{:.6g}".format, pxs.tolist(), pys.tolist()))
        parts.append(f'<path d="{d}" fill="none" stroke="{curve.color}" '
                     f'stroke-width="{curve.width}"/>')
    for marker in markers:
        sx, sy = to_screen(marker.x, marker.y)
        parts.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="{MARKER_RADIUS}" '
                     f'fill="none" stroke="{marker.color}" stroke-width="1.5"/>')
    legend_y = 44.0
    for curve in curves:
        if not curve.label:
            continue
        parts.append(f'<line x1="{MARGIN}" y1="{legend_y - 4:.0f}" x2="{MARGIN + 28}" '
                     f'y2="{legend_y - 4:.0f}" stroke="{curve.color}" stroke-width="{curve.width}"/>')
        parts.append(f'<text x="{MARGIN + 34}" y="{legend_y:.0f}" font-family="sans-serif" '
                     f'font-size="12">{curve.label}</text>')
        legend_y += 16.0
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
