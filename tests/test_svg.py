"""SVG rendering: byte equality with the per-point renderer it replaced."""

import numpy as np
from hypothesis import given, settings, strategies as st

from depthrec.svg import HEIGHT, MARGIN, WIDTH, SvgCurve, SvgMarker, render_svg


def _render_svg_oracle(curves, markers=None, title=""):
    """The renderer that mapped every curve point through to_screen in Python."""
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
        return MARGIN + (x - x_lo) * scale, HEIGHT - MARGIN - (y - y_lo) * scale

    def fmt(v):
        return f"{v:.6g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="16">{title}</text>')
    for curve in curves:
        pts = [to_screen(float(x), float(y)) for x, y in zip(curve.xs, curve.ys)]
        if len(pts) < 2:
            continue
        d = "M " + " L ".join(f"{fmt(px)},{fmt(py)}" for px, py in pts)
        dash = ' stroke-dasharray="6 4"' if curve.dashed else ""
        parts.append(f'<path d="{d}" fill="none" stroke="{curve.color}" '
                     f'stroke-width="{curve.width}"{dash}/>')
    for marker in markers:
        sx, sy = to_screen(marker.x, marker.y)
        parts.append(f'<circle cx="{fmt(sx)}" cy="{fmt(sy)}" r="{marker.radius}" '
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


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 60), min_size=1, max_size=4),
       st.integers(0, 3), st.booleans())
def test_render_svg_equals_per_point_renderer(seed, lengths, n_markers, ragged):
    rng = np.random.default_rng(seed)
    curves = []
    for i, n in enumerate(lengths):
        scale = 10.0 ** rng.integers(-8, 8)
        xs = rng.normal(size=n) * scale
        ys = rng.normal(size=n + (i % 2 if ragged else 0)) * scale  # zip stops early
        curves.append(SvgCurve(xs, ys, dashed=bool(i % 2), label=f"c{i}" if i else ""))
    markers = [SvgMarker(float(x), float(y)) for x, y in rng.normal(size=(n_markers, 2))]
    assert render_svg(curves, markers) == _render_svg_oracle(curves, markers)


def test_render_svg_flat_curve_equals_per_point_renderer():
    # a constant curve widens its degenerate bounding box by one unit each way
    curves = [SvgCurve(np.full(5, 2.0), np.linspace(0.0, 1.0, 5)),
              SvgCurve([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])]
    assert render_svg(curves, title="flat") == _render_svg_oracle(curves, title="flat")
