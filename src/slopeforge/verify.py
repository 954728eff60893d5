"""Geometric validator: measure a drawing and check it against a profile.

The validator never looks inside a drawer; it re-derives everything from
the exact coordinates.  All checks are sign tests, so claims like
"crossing resolution exactly pi/2" are decided exactly, never with an
epsilon.  ``validate`` and ``embedding_of`` first clear the drawing's
common denominator once (``_on_grid``): every coordinate times the lcm of
the denominators, as an int.  Everything after that, the structure check,
the sweep, the rays, the resolutions, the slopes and the embedding, runs
on ints and does no ``Fraction`` arithmetic, 1-bend drawings included.
Only a crossing that falls between grid points would be a Fraction; on
the drawers' outputs (tests/test_number_contract.py) none does.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .drawing import PolylineDrawing
from .geometry import (
    Direction,
    IntersectKind,
    Point,
    Segment,
    SlopeKind,
    CANONICAL_SLOPES,
    angle_key,
    bend_count,
    cross,
    min_gap_eighths,
    on_segment,
    quotient,
    segment_hits,
    slope_of,
)
from .model import DUMMY_PREFIX, Dart, EmbeddedGraph, EmbeddingError, PlaneGraph, cyclic_key

PROFILES = ("ONEBEND", "TWOBEND", "STRAIGHT")


@dataclass
class ValidationReport:
    profile: str
    slope_set: Set[SlopeKind]
    slope_count: int
    max_bends: int
    min_vertex_angle: Optional[int]  # eighths of pi, None when not a multiple
    min_crossing_angle: Optional[int]
    one_planar: bool
    embedding_preserved: bool
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


class DrawingError(Exception):
    """Raised for structurally broken or non-simple drawings."""


# ---------------------------------------------------------------------------
# Pairwise segment analysis
# ---------------------------------------------------------------------------

Segments = List[Tuple[str, int, Segment]]


@dataclass
class Interactions:
    violations: List[str]
    crossings: Dict[Point, Set[str]]  # each crossing point and the edges through it
    simple: bool
    one_planar: bool


def _corner_crossing(d: PolylineDrawing, corner_edge: str, pt: Point, other_seg: Segment) -> bool:
    """A polyline corner lying inside another edge's segment is a genuine
    crossing when the two corner segments leave on opposite sides."""
    at, back, ahead = _locate(d.polylines[corner_edge], pt)
    if at % 2:
        return False
    line = other_seg.dir()
    return cross(line, back) * cross(line, ahead) < 0


def _corner_corner_crossing(d: PolylineDrawing, e1: str, e2: str, pt: Point) -> bool:
    """Both edges bend exactly at pt: they cross iff their four rays
    alternate around the point."""
    labeled = []
    for owner, e in ((1, e1), (2, e2)):
        at, back, ahead = _locate(d.polylines[e], pt)
        if at % 2:
            return False
        labeled += [(back, owner), (ahead, owner)]
    owners = [o for _, o in _sort_edge_dirs_ccw(labeled)]
    return owners in ([1, 2, 1, 2], [2, 1, 2, 1])


def require_sound(d: PolylineDrawing) -> None:
    """Raise DrawingError listing d's structural problems, if it has any."""
    problems = d.check_structure()
    if problems:
        raise DrawingError("; ".join(problems))


def _on_grid(d: PolylineDrawing) -> Tuple[PolylineDrawing, int]:
    """d on the integer grid, and its scale D: the lcm of the denominators
    of d's coordinates.  An all-int d comes back itself with D = 1;
    otherwise the copy holds every coordinate times D, as an int.

    A uniform scale by D > 0 keeps every orientation sign, primitive slope
    vector, bend, angular order of rays and lexicographic order of points,
    so the reports and the embedding read off the copy are d's, crossing
    order, dummy numbering and outer face included.  Only a printed point
    must be scaled back (_true).
    """
    points = [*d.positions.values(), *(p for pts in d.polylines.values() for p in pts)]
    if all(type(p.x) is int and type(p.y) is int for p in points):
        return d, 1
    D = math.lcm(*{c.denominator for p in points for c in (p.x, p.y)})

    def scaled(p: Point) -> Point:
        x, y = p.x, p.y
        return Point(x.numerator * (D // x.denominator), y.numerator * (D // y.denominator))

    positions = {v: scaled(p) for v, p in d.positions.items()}
    polylines = {e: [scaled(p) for p in pts] for e, pts in d.polylines.items()}
    return PolylineDrawing(d.graph, positions, polylines), D


def _true(pt: Point, D: int) -> Point:
    """A point of a drawing put on the grid by D, at the drawing's scale."""
    return Point(quotient(pt.x, D), quotient(pt.y, D))


def _survey(d: PolylineDrawing) -> Tuple[PolylineDrawing, Segments, Interactions]:
    """d on the integer grid, the grid drawing's segments, and how they
    meet.  Raises DrawingError for a structurally broken d."""
    grid, D = _on_grid(d)
    if grid.check_structure():
        require_sound(d)  # the same problems, with d's own points
    segs = grid.all_segments()
    return grid, segs, _analyze(grid, segs, D)


def _analyze(d: PolylineDrawing, segs: Segments, D: int) -> Interactions:
    """Classify all segment interactions of a drawing put on the grid by D.
    Messages print the points at the original scale."""
    violations: List[str] = []
    crossings: Dict[Point, Set[str]] = {}
    for i, j, res in segment_hits([seg for _, _, seg in segs]):
        (e1, i1, s1), (e2, i2, s2) = segs[i], segs[j]
        if e1 == e2:
            if abs(i1 - i2) == 1:
                if res.kind is not IntersectKind.SHARED_ENDPOINT:
                    violations.append(f"edge {e1} self-intersects near segment {min(i1, i2)}")
            else:
                violations.append(f"edge {e1} self-intersects (segments {i1}, {i2})")
            continue
        pt = res.point
        if res.kind is IntersectKind.OVERLAP:
            violations.append(f"edges {e1} and {e2} overlap")
            continue
        if res.kind is IntersectKind.TOUCH:
            # A transversal crossing where one edge has its bend exactly at
            # the crossing point is a legal proper intersection.
            if not (_corner_crossing(d, e1, pt, s2) or _corner_crossing(d, e2, pt, s1)):
                violations.append(f"edges {e1} and {e2} touch at {_true(pt, D)} (non-simple)")
                continue
        elif res.kind is IntersectKind.SHARED_ENDPOINT:
            ends2 = d.graph.edges[e2]
            if any(v in ends2 and d.positions.get(v) == pt for v in d.graph.edges[e1]):
                continue
            if not _corner_corner_crossing(d, e1, e2, pt):
                violations.append(
                    f"edges {e1} and {e2} meet at {_true(pt, D)}, not a common endpoint (non-simple)"
                )
                continue
        crossings.setdefault(pt, set()).update((e1, e2))
    simple = not violations
    one_planar = True
    for pt, edges_here in sorted(crossings.items()):
        if len(edges_here) > 2:
            violations.append(f"more than two edges cross at {_true(pt, D)}")
            simple = False
    per_pair = Counter(
        tuple(sorted(edges_here)) for edges_here in crossings.values() if len(edges_here) == 2
    )
    for (e1, e2), k in sorted(per_pair.items()):
        if k > 1:
            violations.append(f"edges {e1} and {e2} cross {k} times")
            simple = False
        if set(d.graph.edges[e1]) & set(d.graph.edges[e2]):
            violations.append(f"adjacent edges {e1} and {e2} cross (share two points)")
            simple = False
    per_edge = Counter(e for pair in per_pair.elements() for e in pair)
    for e, k in sorted(per_edge.items()):
        if k > 1:
            violations.append(f"edge {e} is crossed {k} times (1-planarity violated)")
            one_planar = False
    one_planar = one_planar and simple
    return Interactions(violations, crossings, simple, one_planar)


def _locate(pts: Sequence[Point], pt: Point) -> Tuple[int, Direction, Direction]:
    """Where pt lies on the polyline pts, and the directions from pt toward
    the polyline's start and toward its end.

    The place is 2*i at the bend pts[i], else 2*i + 1 on the first segment i
    whose closed span holds pt; at a segment end one direction is zero.
    """
    if pt in pts[1:-1]:
        i = pts.index(pt)
        at, back, ahead = 2 * i, pts[i - 1], pts[i + 1]
    else:
        for i in range(len(pts) - 1):
            if on_segment(pt, Segment(pts[i], pts[i + 1])):
                break
        else:
            raise DrawingError(f"point {pt} is not on the polyline")
        at, back, ahead = 2 * i + 1, pts[i], pts[i + 1]
    return at, (back.x - pt.x, back.y - pt.y), (ahead.x - pt.x, ahead.y - pt.y)


# ---------------------------------------------------------------------------
# The ray table
# ---------------------------------------------------------------------------

# A ray leaves a vertex or a crossing point along an edge, toward the edge's
# first end "a" or its second end "b".
Ray = Tuple[Direction, str, str]


@dataclass
class RayTable:
    """The rays at every vertex and every crossing point, each list sorted
    counterclockwise from the east.  The resolutions and the induced
    rotations are both read from these lists."""

    oriented: Dict[str, List[Point]]  # each polyline, from its edge's first end
    at_vertex: Dict[str, List[Ray]]
    at_crossing: Dict[Point, List[Ray]]  # in sorted point order
    crossing_at: Dict[str, int]  # a crossing's place on its edge's oriented polyline


def _rays(d: PolylineDrawing, crossings: Dict[Point, Set[str]]) -> RayTable:
    oriented: Dict[str, List[Point]] = {}
    at_vertex: Dict[str, List[Ray]] = {v: [] for v in d.graph.vertices}
    for e, (a, b) in sorted(d.graph.edges.items()):
        pts = d.polylines[e]
        if pts[0] != d.positions[a]:
            pts = pts[::-1]
        oriented[e] = pts
        at_vertex[a].append(((pts[1].x - pts[0].x, pts[1].y - pts[0].y), e, "a"))
        at_vertex[b].append(((pts[-2].x - pts[-1].x, pts[-2].y - pts[-1].y), e, "b"))
    at_crossing: Dict[Point, List[Ray]] = {}
    crossing_at: Dict[str, int] = {}
    for pt, edges_here in sorted(crossings.items()):
        here = at_crossing[pt] = []
        for e in sorted(edges_here):
            # Located on the polyline as drawn: one that runs back over
            # itself can pass pt twice, and _locate reads the first pass.
            pts = d.polylines[e]
            at, back, ahead = _locate(pts, pt)
            ends = "ab" if pts is oriented[e] else "ba"
            crossing_at[e] = at if ends == "ab" else 2 * len(pts) - 2 - at
            here += [(back, e, ends[0]), (ahead, e, ends[1])]
    return RayTable(
        oriented,
        {v: _sort_edge_dirs_ccw(here) for v, here in at_vertex.items()},
        {pt: _sort_edge_dirs_ccw(here) for pt, here in at_crossing.items()},
        crossing_at,
    )


def _sort_edge_dirs_ccw(dir_edges: Sequence[Tuple]):
    return sorted(dir_edges, key=lambda ray: angle_key(ray[0]))


def _min_resolution(rays: Dict[object, List[Ray]]) -> Optional[int]:
    """Largest k with every angle between neighbouring rays >= k*pi/4, at
    every point; None if two rays at a point coincide.  The gaps are read
    from the rays in the order they come, counterclockwise from the east,
    with any zero direction last, as _sort_edge_dirs_ccw sorts them."""
    eighths = [min_gap_eighths([ray[0] for ray in here]) for here in rays.values()]
    return None if None in eighths else min(eighths, default=4)


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


def _slope_summary(segs: Segments) -> Tuple[Set[SlopeKind], int]:
    """The slope kinds and the number of distinct slopes, from one pass."""
    slopes = {slope_of(seg) for _, _, seg in segs}
    return {s.kind for s in slopes}, len({s.vec for s in slopes})


def max_bends(d: PolylineDrawing) -> int:
    return max((bend_count(pts) for pts in d.polylines.values()), default=0)


# ---------------------------------------------------------------------------
# Embedding extraction
# ---------------------------------------------------------------------------


def embedding_of(d: PolylineDrawing) -> EmbeddedGraph:
    """The 1-plane embedding induced by the geometry, computed exactly.

    Raises DrawingError for non-simple drawings (overlaps, touches, double
    crossings), identifying an offending pair.
    """
    grid, _, inter = _survey(d)
    if inter.violations:
        raise DrawingError(inter.violations[0])
    return _embedding_from(grid, _rays(grid, inter.crossings))


def _embedding_from(d: PolylineDrawing, rays: RayTable) -> EmbeddedGraph:
    """embedding_of for a structurally sound drawing whose analysis found
    no violations, from its ray table.  Each crossed edge e is crossed once,
    and becomes the fragments e$a and e$b, which meet at a dummy there."""
    dummy_at = dict(zip(rays.at_crossing, _fresh_ids(set(d.graph.vertices))))
    crossing_of = {e: pt for pt, here in rays.at_crossing.items() for _, e, _ in here}

    def piece(e: str, end: str) -> str:
        return f"{e}${end}" if e in crossing_of else e

    edges: Dict[str, Tuple[str, str]] = {}
    fragment_of: Dict[str, str] = {}
    positions: Dict[str, Point] = dict(d.positions)
    at_dummy: Dict[str, List[str]] = {}
    for e, (a, b) in sorted(d.graph.edges.items()):
        if e not in crossing_of:
            edges[e] = (a, b)
            continue
        pt = crossing_of[e]
        x = dummy_at[pt]
        ea, eb = piece(e, "a"), piece(e, "b")
        edges[ea], edges[eb] = (a, x), (x, b)
        fragment_of[ea] = fragment_of[eb] = e
        positions[x] = pt
        at_dummy[x] = [piece(f, end) for _, f, end in rays.at_crossing[pt]]
    rotation = {v: [piece(e, end) for _, e, end in here] for v, here in rays.at_vertex.items()}
    rotation.update(at_dummy)

    plane = PlaneGraph(
        vertices=list(d.graph.vertices) + sorted(at_dummy),
        real=set(d.graph.vertices),
        edges=edges,
        rotation=rotation,
        fragment_of=fragment_of,
    )
    plane.outer = _outer_face_dart(plane, positions, rays.oriented, rays.crossing_at)
    return EmbeddedGraph.from_plane(plane)


def _fresh_ids(taken: Set[str]) -> Iterator[str]:
    """The dummy ids _x0, _x1, ... in order, skipping those in `taken`."""
    for i in itertools.count():
        x = f"{DUMMY_PREFIX}{i}"
        if x not in taken:
            yield x


def _outer_face_dart(
    plane: PlaneGraph,
    positions: Dict[str, Point],
    polylines: Dict[str, List[Point]],
    crossing_at: Dict[str, int],
) -> Optional[Dart]:
    """A dart with the unbounded face to its left, read at the lowest, then
    leftmost, point of the drawing: the boundary through it is that face's.
    None when there are no edges.

    polylines are the original edges oriented from their first end, and
    crossing_at says where a crossed edge's crossing lies on it (see
    _locate).  A bend wins over the lowest vertex with an edge only when it
    is strictly lower, so a bend at a crossing leaves it to the dummy there.
    """
    if not plane.edges:
        return None
    low, v = min(((positions[u].y, positions[u].x), u) for u in plane.vertices if plane.rotation[u])
    bend: Optional[Tuple[str, int]] = None
    for e in sorted(polylines):
        pts = polylines[e]
        for k in range(1, len(pts) - 1):
            if (pts[k].y, pts[k].x) < low:
                low, bend = (pts[k].y, pts[k].x), (e, k)
    if bend is None:
        # Every ray at v points into the upper half-plane, and the rotation
        # runs counterclockwise from the east: the unbounded region lies left
        # of the dart arriving along its first edge.
        e = plane.rotation[v][0]
        return (e, plane.other_end(e, v))
    e, k = bend
    at = crossing_at.get(e)
    piece = e if at is None else f"{e}$a" if 2 * k < at else f"{e}$b"
    first, second = plane.edges[piece]
    _, back, ahead = _locate(polylines[e], polylines[e][k])
    # Walk through the bend arriving along the low-angle ray: the tail is the
    # end on that side, so the unbounded region lies left of the dart.
    tail = first if angle_key(back) <= angle_key(ahead) else second
    return (piece, tail)


@dataclass
class _AbstractSpec:
    """Duck-typed stand-in for EmbeddedGraph during geometric construction."""

    vertices: List[str]
    edges: Dict[str, Tuple[str, str]]


def embedding_from_geometry(
    positions: Dict[str, Point],
    edges: Dict[str, Tuple[str, str]],
    polylines: Optional[Dict[str, List[Point]]] = None,
) -> EmbeddedGraph:
    """Build a 1-plane embedded graph from exact drawn geometry.

    Edges default to straight segments; crossings, rotations, and the outer
    face are all derived from the coordinates.  This is how the fixed
    lower-bound families are constructed: the geometry is the source of
    truth and the extraction is exact.
    """
    polys: Dict[str, List[Point]] = {}
    for e, (a, b) in edges.items():
        if polylines and e in polylines:
            pts = list(polylines[e])
            if pts[0] != positions[a]:
                pts = list(reversed(pts))
            polys[e] = pts
        else:
            polys[e] = [positions[a], positions[b]]
    spec = _AbstractSpec(vertices=sorted(positions), edges=dict(edges))
    d = PolylineDrawing(spec, dict(positions), polys)  # type: ignore[arg-type]
    return embedding_of(d)


# ---------------------------------------------------------------------------
# Embedding comparison (orientation-preserving, fixed vertex ids)
# ---------------------------------------------------------------------------


def _rotation_signature(g: EmbeddedGraph) -> Dict[str, Tuple]:
    """Per real vertex: cyclic rotation as original edge ids."""
    plane = g.plane
    sig = {}
    for v in g.vertices:
        orig = [plane.original_edge_of(e) for e in plane.rotation[v]]
        sig[v] = cyclic_key(orig)
    return sig


def _dummy_signature(g: EmbeddedGraph) -> Dict[Tuple[str, str], Tuple]:
    """Per crossing pair: the cyclic order of (edge, real-end) around it."""
    plane = g.plane
    out = {}
    for x, pair in g.crossings().items():
        entries = []
        for e in plane.rotation[x]:
            orig = plane.original_edge_of(e)
            # Which real endpoint does this fragment lead to?
            v = plane.other_end(e, x)
            entries.append((orig, v))
        out[pair] = cyclic_key(entries)
    return out


def _outer_signature(g: EmbeddedGraph) -> Tuple:
    plane = g.plane
    if plane.outer is None:
        return ()
    entries = []
    for e, tail in plane.outer_face().darts:
        orig = plane.original_edge_of(e)
        label = tail if tail in plane.real else ("#x", tuple(sorted(g.crossings()[tail])))
        entries.append((orig, label))
    return cyclic_key(entries)


def embeddings_equivalent(g1: EmbeddedGraph, g2: EmbeddedGraph) -> bool:
    """Same 1-plane embedding, outer face included, with identical vertex/edge ids.

    Orientation-preserving only: a mirror image does not compare equal.
    """
    if sorted(g1.vertices) != sorted(g2.vertices):
        return False
    if {e: tuple(sorted(ends)) for e, ends in g1.edges.items()} != {
        e: tuple(sorted(ends)) for e, ends in g2.edges.items()
    }:
        return False
    if sorted(g1.crossings().values()) != sorted(g2.crossings().values()):
        return False
    if _rotation_signature(g1) != _rotation_signature(g2):
        return False
    if _dummy_signature(g1) != _dummy_signature(g2):
        return False
    return _outer_signature(g1) == _outer_signature(g2)


# ---------------------------------------------------------------------------
# Profile validation
# ---------------------------------------------------------------------------


def validate(d: PolylineDrawing, profile: str) -> ValidationReport:
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    grid, segs, inter = _survey(d)
    rays = _rays(grid, inter.crossings)
    violations: List[str] = list(inter.violations)
    crossings = inter.crossings

    slopes, n_slopes = _slope_summary(segs)
    bends = max_bends(grid)
    v_res = _min_resolution(rays.at_vertex)
    c_res = _min_resolution(rays.at_crossing)
    one_planar = inter.one_planar

    embedding_ok = False
    if inter.simple and one_planar:
        try:
            induced = _embedding_from(grid, rays)
            embedding_ok = embeddings_equivalent(induced, d.graph)
        except (DrawingError, EmbeddingError) as exc:
            if profile == "ONEBEND":
                violations.append(f"embedding extraction failed: {exc}")

    if profile == "ONEBEND":
        if not slopes <= set(CANONICAL_SLOPES):
            violations.append(f"slope set {sorted(s.value for s in slopes)} not in the 4 canonical slopes")
        if bends > 1:
            violations.append(f"max bends {bends} > 1")
        if v_res is None or v_res < 1:
            violations.append(f"vertex resolution below pi/4 (got {v_res})")
        if crossings and (c_res is None or c_res < 1):
            violations.append(f"crossing resolution below pi/4 (got {c_res})")
        if not embedding_ok:
            violations.append("embedding not preserved")
    elif profile == "TWOBEND":
        if not slopes <= {SlopeKind.DEG0, SlopeKind.DEG90}:
            violations.append(f"slope set {sorted(s.value for s in slopes)} not in {{0, pi/2}}")
        if bends > 2:
            violations.append(f"max bends {bends} > 2")
        if v_res is None or v_res < 2:
            violations.append(f"vertex resolution below pi/2 (got {v_res})")
        if crossings and (c_res is None or c_res != 2):
            violations.append(f"crossing resolution not exactly pi/2 (got {c_res})")
    else:  # STRAIGHT
        if bends > 0:
            violations.append(f"straight-line profile but {bends} bends present")

    return ValidationReport(
        profile=profile,
        slope_set=slopes,
        slope_count=n_slopes,
        max_bends=bends,
        min_vertex_angle=v_res,
        min_crossing_angle=c_res if crossings else None,
        one_planar=one_planar,
        embedding_preserved=embedding_ok,
        violations=violations,
    )
