"""Exact rational plane geometry.

Everything in this package lives on exact rational coordinates.  The four
canonical slopes (0, pi/4, pi/2, 3pi/4 with the x-axis) are closed under
line intersection on rational points, so no rounding is ever needed and
angle/resolution claims can be decided by sign tests instead of epsilons.

A coordinate is an ``int`` when it is integral and otherwise a
``Fraction``; never a float or a bool.  docio reads integral values as
ints, the 2-bend drawer emits int ranks and the subcubic corpus generator
places its blocks on ints.  The 1-bend drawer computes on ints too: its
drawing (``onebend.Gamma``) holds every coordinate as the true value
times one drawing-wide denominator.  The validator and the embedding
extraction (``verify``) clear a drawing's common denominator once, at
entry, so they too compute on ints only, 1-bend drawings included.
Python makes an int and the Fraction of the same value compare and hash
alike, so either form gives the same results.  Only a true division can
leave the rationals (two ints give a float), so every ``/`` that
coordinates reach divides a Fraction.

Every predicate is decided on the coordinates as given: the segment
kernel (``intersect`` and the sweeps over prepared segments) reads its
orientation signs and crossing points, and the sweeps their bounding
boxes, straight off the segments, in Python's exact int and Fraction
arithmetic.  Nothing is rescaled or rounded first, so ints stay fast and
rational inputs stay exact.

``Point`` and ``Segment`` are tuple types (``typing.NamedTuple``), so
building, comparing and hashing them runs in C.  They keep the value
semantics of the frozen dataclasses they replace: the same field names,
``repr``, ``str`` and lexicographic order, and the same hash, since such a
dataclass hashes as the tuple of its fields.  So every set and dict of
points iterates in the same order as before.  Rays around a point sort by
``angle_key``, an exact key (a quarter turn and a tangent) that orders
directions counterclockwise from east.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

# An exact coordinate, or a difference or product of coordinates.
Coord = Union[int, Fraction]


def quotient(num: Coord, den: Coord) -> Coord:
    """num / den as a coordinate: an int when it is integral, else a
    Fraction.  den must not be 0."""
    q, r = divmod(num, den)
    return q if r == 0 else Fraction(num, den)


class Point(NamedTuple):
    x: Coord
    y: Coord

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


# A direction is a non-zero rational vector (dx, dy).
Direction = Tuple[Coord, Coord]


def direction(a: Point, b: Point) -> Direction:
    if a == b:
        raise ValueError("zero direction between coincident points")
    return (b.x - a.x, b.y - a.y)


def _cleared(d: Direction) -> Tuple[int, int]:
    """d times the lcm of its denominators: an integer vector on the same ray."""
    dx, dy = d
    scale = math.lcm(dx.denominator, dy.denominator)
    return dx.numerator * (scale // dx.denominator), dy.numerator * (scale // dy.denominator)


def primitive(d: Direction) -> Tuple[int, int]:
    """Reduce a rational vector to a primitive integer vector, keeping its sign."""
    ix, iy = _cleared(d)
    if ix == 0 and iy == 0:
        raise ValueError("zero direction has no primitive form")
    g = math.gcd(ix, iy)
    return ix // g, iy // g


class SlopeKind(Enum):
    DEG0 = "0"
    DEG45 = "pi/4"
    DEG90 = "pi/2"
    DEG135 = "3pi/4"
    OTHER = "other"


# The slope set used by the 1-bend drawer, in angular order.
CANONICAL_SLOPES = (SlopeKind.DEG0, SlopeKind.DEG45, SlopeKind.DEG90, SlopeKind.DEG135)


@dataclass(frozen=True)
class Slope:
    """Slope of a line: direction and reverse direction are identical."""

    kind: SlopeKind
    # Primitive integer vector normalized so that (x > 0) or (x == 0 and y > 0).
    vec: Tuple[int, int]

    @staticmethod
    def of_direction(d: Direction) -> "Slope":
        ix, iy = primitive(d)
        if ix < 0 or (ix == 0 and iy < 0):
            ix, iy = -ix, -iy
        if iy == 0:
            kind = SlopeKind.DEG0
        elif ix == 0:
            kind = SlopeKind.DEG90
        elif ix == iy:
            kind = SlopeKind.DEG45
        elif ix == -iy:
            kind = SlopeKind.DEG135
        else:
            kind = SlopeKind.OTHER
        return Slope(kind, (ix, iy))


class _SegmentFields(NamedTuple):
    a: Point
    b: Point


class Segment(_SegmentFields):
    __slots__ = ()

    def __new__(cls, a: Point, b: Point) -> "Segment":
        if a == b:
            raise ValueError(f"degenerate segment at {a}")
        return tuple.__new__(cls, (a, b))

    def dir(self) -> Direction:
        return direction(self.a, self.b)

    def bbox(self) -> Tuple[Coord, Coord, Coord, Coord]:
        return (
            min(self.a.x, self.b.x),
            min(self.a.y, self.b.y),
            max(self.a.x, self.b.x),
            max(self.a.y, self.b.y),
        )


def slope_of(seg: Segment) -> Slope:
    return Slope.of_direction(seg.dir())


def cross(d1: Direction, d2: Direction) -> Coord:
    return d1[0] * d2[1] - d1[1] * d2[0]


def dot(d1: Direction, d2: Direction) -> Coord:
    return d1[0] * d2[0] + d1[1] * d2[1]


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of triangle (a, b, c): 1 ccw, -1 cw, 0 collinear."""
    v = cross(direction(a, b), (c.x - a.x, c.y - a.y))
    return (v > 0) - (v < 0)


def on_segment(p: Point, seg: Segment) -> bool:
    """Exact containment of p in the closed segment."""
    if p == seg.a or p == seg.b:
        return True
    if orient(seg.a, seg.b, p) != 0:
        return False
    lo_x, lo_y, hi_x, hi_y = seg.bbox()
    return lo_x <= p.x <= hi_x and lo_y <= p.y <= hi_y


def strip_collinear(pts: List[Point]) -> List[Point]:
    """The polyline without repeated points and without interior points
    that it passes straight through; corners and reversals stay."""
    out = [pts[0]]
    for p in pts[1:]:
        if p != out[-1]:
            out.append(p)
    cleaned = [out[0]]
    for b, c in zip(out[1:-1], out[2:]):
        a = cleaned[-1]
        d1, d2 = (b.x - a.x, b.y - a.y), (c.x - b.x, c.y - b.y)
        if cross(d1, d2) == 0 and dot(d1, d2) > 0:
            continue
        cleaned.append(b)
    cleaned.append(out[-1])
    return cleaned


def bend_count(pts: Sequence[Point]) -> int:
    """The interior points where a polyline turns or folds back."""
    bends = 0
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        d1, d2 = (b.x - a.x, b.y - a.y), (c.x - b.x, c.y - b.y)
        if cross(d1, d2) != 0 or dot(d1, d2) < 0:
            bends += 1
    return bends


class IntersectKind(Enum):
    DISJOINT = "disjoint"
    SHARED_ENDPOINT = "shared_endpoint"
    PROPER_CROSSING = "proper_crossing"
    TOUCH = "touch"  # one segment's endpoint interior to the other
    OVERLAP = "overlap"


@dataclass(frozen=True)
class Intersection:
    kind: IntersectKind
    point: Optional[Point] = None


def line_intersection(p: Point, d1: Direction, q: Point, d2: Direction) -> Optional[Point]:
    """Intersection of two lines given by point + direction; None if parallel.
    On int points and directions the coordinates are in contract form."""
    den = cross(d1, d2)
    if den == 0:
        return None
    # p + (t / den) * d1, with t = cross(q - p, d2).
    t = cross((q.x - p.x, q.y - p.y), d2)
    return Point(quotient(p.x * den + t * d1[0], den), quotient(p.y * den + t * d1[1], den))


def _classify(s1: Segment, s2: Segment) -> Intersection:
    """intersect(s1, s2), decided by orientation signs on the segments' own
    coordinates.  Only a proper crossing point is computed; every other
    point returned is an endpoint of s1 or s2."""
    (ax, ay), (bx, by) = s1
    (cx, cy), (dx, dy) = s2
    ux, uy = bx - ax, by - ay
    vx, vy = dx - cx, dy - cy
    cr = ux * vy - uy * vx
    o1 = ux * (cy - ay) - uy * (cx - ax)  # orient(A, B, C)
    if cr == 0:
        # Parallel: either collinear or disjoint.
        if o1 != 0:
            return Intersection(IntersectKind.DISJOINT)
        p0, p1 = sorted(s1)
        q0, q1 = sorted(s2)
        lo, hi = max(p0, q0), min(p1, q1)
        if lo > hi:
            return Intersection(IntersectKind.DISJOINT)
        if lo == hi:
            # lo is the low end of one segment and hi the high end of the
            # other, so collinear segments that meet in one point meet at an
            # endpoint of both.
            return Intersection(IntersectKind.SHARED_ENDPOINT, s1.a if lo == s1.a else s1.b)
        return Intersection(IntersectKind.OVERLAP)
    o2 = ux * (dy - ay) - uy * (dx - ax)  # orient(A, B, D)
    if (o1 > 0 and o2 > 0) or (o1 < 0 and o2 < 0):
        return Intersection(IntersectKind.DISJOINT)
    o3 = vx * (ay - cy) - vy * (ax - cx)  # orient(C, D, A)
    o4 = vx * (by - cy) - vy * (bx - cx)  # orient(C, D, B)
    if (o3 > 0 and o4 > 0) or (o3 < 0 and o4 < 0):
        return Intersection(IntersectKind.DISJOINT)
    # The lines meet in one point, on both closed segments.  An endpoint of
    # one segment on the other's line is that point.
    end2 = o1 == 0 or o2 == 0
    if o3 == 0 or o4 == 0:
        kind = IntersectKind.SHARED_ENDPOINT if end2 else IntersectKind.TOUCH
        return Intersection(kind, s1.a if o3 == 0 else s1.b)
    if end2:
        return Intersection(IntersectKind.TOUCH, s2.a if o1 == 0 else s2.b)
    # A + (o3 / cr) * (B - A), as o3 = cross(C - A, D - C).
    return Intersection(
        IntersectKind.PROPER_CROSSING,
        Point(quotient(ax * cr + o3 * ux, cr), quotient(ay * cr + o3 * uy, cr)),
    )


def intersect(s1: Segment, s2: Segment) -> Intersection:
    """Exact classification of the intersection of two segments.

    TOUCH (an endpoint of one segment interior to the other) is reported
    separately from SHARED_ENDPOINT so the validator can flag non-simple
    drawings precisely.
    """
    return _classify(s1, s2)


# A segment prepared for the pair queries: the segment and its exact
# bounding box (lo_x, lo_y, hi_x, hi_y).
Prepared = Tuple[Segment, Tuple[Coord, Coord, Coord, Coord]]


def prepare(seg: Segment) -> Prepared:
    """seg prepared for the pair queries."""
    return seg, seg.bbox()


def prepare_shifted(prep: Prepared, seg: Segment, dx: Coord) -> Prepared:
    """prepare(seg) for seg, the segment of `prep` moved by dx in x: prep's
    box moved with it."""
    lo_x, lo_y, hi_x, hi_y = prep[1]
    return seg, (lo_x + dx, lo_y, hi_x + dx, hi_y)


def segment_hits(segs: Sequence[Segment]) -> Iterator[Tuple[int, int, Intersection]]:
    """Every pair of segments that is not DISJOINT, as (i, j, intersect(...)).

    A sweep in x over the segments' exact boxes, which never separate two
    segments that meet, hands each candidate pair to the exact classifier.
    Pairs come in sweep order, and j is the segment that entered the sweep
    first.
    """
    return sweep_hits([prepare(s) for s in segs])


def sweep_hits(prepared: Sequence[Prepared]) -> Iterator[Tuple[int, int, Intersection]]:
    """segment_hits on segments that are already prepared."""
    boxes = [p[1] for p in prepared]
    active: List[int] = []
    for i in sorted(range(len(prepared)), key=lambda k: boxes[k][0]):
        lo_x, lo_y, _, hi_y = boxes[i]
        seg = prepared[i][0]
        active = [j for j in active if boxes[j][2] >= lo_x]
        for j in active:
            box = boxes[j]
            if hi_y < box[1] or box[3] < lo_y:
                continue
            res = _classify(seg, prepared[j][0])
            if res.kind is not IntersectKind.DISJOINT:
                yield i, j, res
        active.append(i)


def hits_across(
    new: Sequence[Prepared], old: Sequence[Prepared]
) -> Iterator[Tuple[int, int, Intersection]]:
    """Every pair of a segment new[i] and a segment old[j] that is not
    DISJOINT, as (i, j, intersect(new[i], old[j])), in the order of `old`.

    Meant for a few new segments against many: no sort, one box test per
    old segment against the hull of the new boxes, then one per pair.
    """
    if not new:
        return
    hull_lo_x = min(p[1][0] for p in new)
    hull_lo_y = min(p[1][1] for p in new)
    hull_hi_x = max(p[1][2] for p in new)
    hull_hi_y = max(p[1][3] for p in new)
    for j, (other, (lo_x, lo_y, hi_x, hi_y)) in enumerate(old):
        if hi_x < hull_lo_x or hull_hi_x < lo_x or hi_y < hull_lo_y or hull_hi_y < lo_y:
            continue
        for i, (seg, box) in enumerate(new):
            if hi_x < box[0] or box[2] < lo_x or hi_y < box[1] or box[3] < lo_y:
                continue
            res = _classify(seg, other)
            if res.kind is not IntersectKind.DISJOINT:
                yield i, j, res

# ---------------------------------------------------------------------------
# Angles.  Directions on canonical slopes have octant indices 0..7 counting
# counterclockwise from east; the angle between two such directions is an
# exact multiple of pi/4.  General directions are compared by sign tests.
# ---------------------------------------------------------------------------

_OCTANTS = {
    (1, 0): 0,
    (1, 1): 1,
    (0, 1): 2,
    (-1, 1): 3,
    (-1, 0): 4,
    (-1, -1): 5,
    (0, -1): 6,
    (1, -1): 7,
}


def octant(d: Direction) -> Optional[int]:
    """Octant 0..7 of a canonical-slope direction, None otherwise."""
    ix, iy = primitive(d)
    sx = (ix > 0) - (ix < 0)
    sy = (iy > 0) - (iy < 0)
    if abs(ix) == abs(iy) or ix == 0 or iy == 0:
        return _OCTANTS[(sx, sy)]
    return None


def prepared_octant(prep: Prepared) -> Optional[int]:
    """octant of a prepared segment's direction, read off its coordinates."""
    (ax, ay), (bx, by) = prep[0]
    dx, dy = bx - ax, by - ay
    if dx and dy and dx != dy and dx != -dy:
        return None
    return _OCTANTS[((dx > 0) - (dx < 0), (dy > 0) - (dy < 0))]


def angle_key(d: Direction) -> Tuple[int, Coord]:
    """An exact sort key that orders non-zero directions counterclockwise
    from east: the quarter turn [k*pi/2, (k+1)*pi/2) holding d, counting
    counterclockwise from east, then the tangent of d's angle past the
    quarter's start, which grows with the angle.  Two directions get equal
    keys exactly when they lie on one ray.  The zero vector is no ray, and
    sorts after every ray."""
    dx, dy = d
    if dx > 0 and dy >= 0:
        return 0, _ratio(dy, dx)
    if dy > 0:
        return 1, _ratio(-dx, dy)
    if dx < 0:
        return 2, _ratio(-dy, -dx)
    if dy < 0:
        return 3, _ratio(dx, -dy)
    return 4, 0


def _ratio(num: Coord, den: Coord) -> Coord:
    """num / den for num >= 0 < den, as an int when it is 0 or 1."""
    if num == 0:
        return 0
    if num == den:
        return 1
    return Fraction(num, den)


def _gap_eighths(d1: Direction, d2: Direction) -> Optional[int]:
    """Largest k in 0..4 such that the counterclockwise gap from ray d1 to
    ray d2 is >= k*pi/4; None when the two rays coincide."""
    c = cross(d1, d2)
    d = dot(d1, d2)
    if c == 0:
        return 4 if d < 0 else None
    if c < 0:
        return 4  # gap in (pi, 2pi)
    # gap in (0, pi); c and d are its sine and cosine times |d1| |d2|.
    if d < 0 and c <= -d:
        return 3
    if d <= 0:
        return 2
    return 1 if c >= d else 0


def min_gap_eighths(rays: Sequence[Direction]) -> Optional[int]:
    """Largest k in 0..4 such that every consecutive angular gap between
    rays >= k*pi/4, or None when two rays coincide (zero angle, i.e.
    overlapping segments).  The rays come in counterclockwise order from
    the east, as angle_key sorts them: any zero directions, which are no
    rays (a point where an edge ends has no ray along that edge), come
    last and are dropped.  The signs the gaps are read from are exact on
    any rational input."""
    n = len(rays)
    while n and not (rays[n - 1][0] or rays[n - 1][1]):
        n -= 1
    if n < 2:
        return 4
    rays = list(rays[:n])
    best = 4
    for d1, d2 in zip(rays, rays[1:] + rays[:1]):
        k = _gap_eighths(d1, d2)
        if k is None:
            return None
        best = min(best, k)
    return best
