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
    lo_x, hi_x = min(p.x for p in points), max(p.x for p in points)
    lo_y, hi_y = min(p.y for p in points), max(p.y for p in points)
    width = (hi_x - lo_x) * SCALE + 2 * MARGIN
    height = (hi_y - lo_y) * SCALE + 2 * MARGIN

    def tx(p):
        return (p.x - lo_x) * SCALE + MARGIN

    def ty(p):
        # Flip the y-axis: SVG grows downward.
        return (hi_y - p.y) * SCALE + MARGIN

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        '<g fill="none" stroke="black" stroke-width="1.5">',
    ]
    for e in sorted(polylines):
        path = " ".join(f"{_fmt(tx(p))},{_fmt(ty(p))}" for p in polylines[e])
        lines.append(f'<polyline points="{path}"><title>{e}</title></polyline>')
    lines.append("</g>")
    if positions:
        lines.append('<g fill="white" stroke="black" stroke-width="1">')
        r = _fmt(SCALE * VERTEX_RADIUS)
        for v in sorted(positions):
            p = positions[v]
            lines.append(
                f'<circle cx="{_fmt(tx(p))}" cy="{_fmt(ty(p))}" r="{r}"><title>{v}</title></circle>'
            )
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _fmt(q: Fraction) -> str:
    value = float(q)
    s = f"{value:.{PRECISION}f}"
    return s.rstrip("0").rstrip(".") if "." in s else s
