"""Hand-built instances that violate the normalization postconditions.

Each builder returns a valid 1-plane embedded graph whose planarization
has a dummy cutvertex or a dummy 2-separator, for exercising the
re-embedding surgery.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from slopeforge.geometry import Point
from slopeforge.model import EmbeddedGraph, PlaneGraph
from slopeforge.verify import embedding_from_geometry

F = Fraction


def _pt(x, y) -> Point:
    return Point(F(x), F(y))


# Convex arcs (local coordinates) completing a cycle whose two anchor
# vertices sit at (0, 0) and (0, 4); the arc extends toward negative x.
_ARCS = {
    3: [(-5, 2)],
    4: [(-4, 5), (-5, -1)],
    5: [(-4, 5), (-7, 2), (-4, -1)],
    6: [(-3, 5), (-6, 4), (-7, 1), (-4, -1)],
}


def _cycle_block(prefix: str, k: int, anchor_x, mirror: bool):
    """A convex k-cycle whose anchors {prefix}0, {prefix}1 face the middle."""
    sign = -1 if mirror else 1
    pos = {
        f"{prefix}0": _pt(anchor_x, 0),
        f"{prefix}1": _pt(anchor_x, 4),
    }
    for j, (dx, dy) in enumerate(_ARCS[k], start=2):
        pos[f"{prefix}{j}"] = Point(F(anchor_x) + sign * F(dx), F(dy))
    edges = {}
    for i in range(k):
        edges[f"{prefix}cyc{i}"] = (f"{prefix}{i}", f"{prefix}{(i + 1) % k}")
    return pos, edges


def two_blocks_crossed(k1: int = 3, k2: int = 3) -> EmbeddedGraph:
    """Two cycle blocks joined only by a pair of crossing edges.

    The crossing dummy is a cutvertex of the planarization; normalization
    must uncross it.
    """
    pos_a, edges_a = _cycle_block("a", k1, -16, mirror=False)
    pos_b, edges_b = _cycle_block("b", k2, 16, mirror=True)
    pos = {**pos_a, **pos_b}
    edges = {**edges_a, **edges_b}
    edges["j1"] = ("a0", "b1")
    edges["j2"] = ("a1", "b0")
    g = embedding_from_geometry(pos, edges)
    assert len(g.crossings()) == 1
    return g


def chain_blocks_crossed(k: int = 3) -> EmbeddedGraph:
    """Three cycle blocks joined by two crossing pairs (two dummy cutvertices)."""
    pos_a, edges_a = _cycle_block("a", k, -36, mirror=False)
    pos_b, edges_b = _cycle_block("b", k, 36, mirror=True)
    pos = {**pos_a, **pos_b}
    edges = {**edges_a, **edges_b}
    pos["m0"], pos["m1"], pos["m2"], pos["m3"] = _pt(-4, 0), _pt(-4, 4), _pt(4, 4), _pt(4, 0)
    for i in range(4):
        edges[f"mcyc{i}"] = (f"m{i}", f"m{(i + 1) % 4}")
    edges["j1"] = ("a0", "m1")
    edges["j2"] = ("a1", "m0")
    edges["j3"] = ("m3", "b1")
    edges["j4"] = ("m2", "b0")
    g = embedding_from_geometry(pos, edges)
    assert len(g.crossings()) == 2
    return g


def crossed_prism() -> EmbeddedGraph:
    """Triangular prism drawn with two rungs crossing.

    The graph is 3-connected but the planarization has the 2-separator
    {z, dummy}: normalization must restore a 3-connected planarization.
    """
    pos = {
        "a": _pt(0, 0),
        "b": _pt(2, 0),
        "c": _pt(1, 1),
        "x": _pt(3, -2),
        "y": _pt(-1, -2),
        "z": _pt(1, -5),
    }
    edges = {
        "ab": ("a", "b"), "ac": ("a", "c"), "bc": ("b", "c"),
        "xy": ("x", "y"), "xz": ("x", "z"), "yz": ("y", "z"),
        "ax": ("a", "x"), "by": ("b", "y"), "cz": ("c", "z"),
    }
    polylines = {
        "cz": [pos["c"], _pt(-3, 1), _pt(-3, -5), pos["z"]],
    }
    g = embedding_from_geometry(pos, edges, polylines)
    assert len(g.crossings()) == 1
    return g


def pendant_triangle_crossed() -> EmbeddedGraph:
    """A triangle and a single edge pair crossing into a path stub."""
    pos = {
        "a0": _pt(-8, 0), "a1": _pt(-8, 4), "a2": _pt(-12, 2),
        "p": _pt(8, 0), "q": _pt(8, 4),
    }
    edges = {
        "t0": ("a0", "a1"), "t1": ("a1", "a2"), "t2": ("a2", "a0"),
        "j1": ("a0", "q"), "j2": ("a1", "p"),
        "pq": ("p", "q"),
    }
    g = embedding_from_geometry(pos, edges)
    assert len(g.crossings()) == 1
    return g


def two_crossing_edges() -> EmbeddedGraph:
    """The edges e = a-b and f = c-d, crossing at the dummy _x0: every dart
    of the one face is a fragment, so uncrossing deletes the whole outer
    boundary."""
    plane = PlaneGraph(
        vertices=["_x0", "a", "b", "c", "d"],
        real={"a", "b", "c", "d"},
        edges={"e1": ("a", "_x0"), "e2": ("_x0", "b"), "f1": ("c", "_x0"), "f2": ("_x0", "d")},
        rotation={"_x0": ["e1", "f1", "e2", "f2"], "a": ["e1"], "b": ["e2"], "c": ["f1"], "d": ["f2"]},
        fragment_of={"e1": "e", "e2": "e", "f1": "f", "f2": "f"},
    )
    plane.outer = ("e1", "a")
    return EmbeddedGraph.from_plane(plane)


def adversarial_suite() -> List[Tuple[str, EmbeddedGraph]]:
    """At least twenty instances with dummy cutvertices or dummy 2-cuts."""
    out: List[Tuple[str, EmbeddedGraph]] = []
    for k1 in (3, 4, 5):
        for k2 in (3, 4, 5):
            out.append((f"two_blocks_{k1}_{k2}", two_blocks_crossed(k1, k2)))
    for k in (3, 4):
        out.append((f"chain_blocks_{k}", chain_blocks_crossed(k)))
    out.append(("crossed_prism", crossed_prism()))
    out.append(("pendant_triangle", pendant_triangle_crossed()))

    # Mirrored variants double the corpus and exercise both orientations.
    base = list(out)
    for name, g in base:
        mirrored = _mirror(g)
        out.append((f"{name}_mirror", mirrored))
    return out


def _mirror(g: EmbeddedGraph) -> EmbeddedGraph:
    plane = g.plane.copy()
    for v in plane.rotation:
        plane.rotation[v] = list(reversed(plane.rotation[v]))
    return EmbeddedGraph.from_plane(plane)
