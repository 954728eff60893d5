"""Deterministic SVG rendering of drawings.

Rendering converts exact rationals to fixed-precision decimals at the last
moment; the output is never parsed back, so this is the one lossy edge of
the pipeline.  Identical drawings produce byte-identical SVG.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List

from .drawing import PolylineDrawing
from .geometry import Point

SCALE = 40
MARGIN = 20
PRECISION = 4
VERTEX_RADIUS = Fraction(1, 8)


def render_segments_svg(polylines: Dict[str, List[Point]]) -> str:
    """Bare rendering of labeled polylines (used for --trace step dumps)."""
    return _svg(polylines, {})


def render_svg(d: PolylineDrawing) -> str:
    return _svg(d.polylines, d.positions)


def _svg(polylines: Dict[str, List[Point]], positions: Dict[str, Point]) -> str:
    """SVG of the polylines, framed around them and the positions, with a
    circle per position."""
    points = [p for pts in polylines.values() for p in pts] + list(positions.values())
    if not points:
        return '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 100 100"></svg>\n'
    xs = sorted({p.x for p in points})
    ys = sorted({p.y for p in points})
    lo_x, hi_x, lo_y, hi_y = xs[0], xs[-1], ys[0], ys[-1]
    width = (hi_x - lo_x) * SCALE + 2 * MARGIN
    height = (hi_y - lo_y) * SCALE + 2 * MARGIN
    # Each distinct coordinate is formatted once; the y-axis is flipped,
    # since SVG grows downward.
    fx = {x: _fmt((x - lo_x) * SCALE + MARGIN) for x in xs}
    fy = {y: _fmt((hi_y - y) * SCALE + MARGIN) for y in ys}

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        '<g fill="none" stroke="black" stroke-width="1.5">',
    ]
    for e in sorted(polylines):
        path = " ".join(f"{fx[p.x]},{fy[p.y]}" for p in polylines[e])
        lines.append(f'<polyline points="{path}"><title>{e}</title></polyline>')
    lines.append("</g>")
    if positions:
        lines.append('<g fill="white" stroke="black" stroke-width="1">')
        r = _fmt(SCALE * VERTEX_RADIUS)
        for v in sorted(positions):
            p = positions[v]
            lines.append(
                f'<circle cx="{fx[p.x]}" cy="{fy[p.y]}" r="{r}"><title>{v}</title></circle>'
            )
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _fmt(q: Fraction) -> str:
    value = float(q)
    s = f"{value:.{PRECISION}f}"
    return s.rstrip("0").rstrip(".") if "." in s else s
