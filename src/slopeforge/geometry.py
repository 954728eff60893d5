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
times one drawing-wide denominator ``unit``, and hands ``unit`` to
``prepare`` so that the sweep boxes hold the true values.  The validator
and the embedding extraction (``verify``) clear a drawing's common
denominator once, at entry, so they too compute on ints only, 1-bend
drawings included.
Python makes an int and the Fraction of the same value compare and hash
alike, so either form gives the same results.  Only a true division can
leave the rationals (two ints give a float), so every ``/`` that
coordinates reach divides a Fraction.

``Point`` and ``Segment`` are tuple types (``typing.NamedTuple``), so
building, comparing and hashing them runs in C.  They keep the value
semantics of the frozen dataclasses they replace: the same field names,
``repr``, ``str`` and lexicographic order, and the same hash, since such a
dataclass hashes as the tuple of its fields.  So every set and dict of
points iterates in the same order as before.  Rays around a point sort by
``angle_key``, an exact key (a quarter turn and a tangent) that orders
directions as the comparator ``angular_compare`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

# An exact coordinate, or a difference or product of coordinates.
Coord = Union[int, Fraction]


def quotient(num: Coord, den: int) -> Coord:
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


# A segment in integer form: (L, ax, ay, bx, by), the endpoint coordinates
# times L, the lcm of their four denominators.  Each segment keeps its own L:
# one lcm over a whole drawing could grow with the number of segments.
_IntSegment = Tuple[int, int, int, int, int]


def _ints(seg: Segment) -> _IntSegment:
    a, b = seg.a, seg.b
    dax, day, dbx, dby = a.x.denominator, a.y.denominator, b.x.denominator, b.y.denominator
    L = math.lcm(dax, day, dbx, dby)
    return (
        L,
        a.x.numerator * (L // dax),
        a.y.numerator * (L // day),
        b.x.numerator * (L // dbx),
        b.y.numerator * (L // dby),
    )


def _classify(s1: Segment, f1: _IntSegment, s2: Segment, f2: _IntSegment) -> Intersection:
    """intersect(s1, s2), decided by orientation signs on the integer forms
    f1 = _ints(s1) and f2 = _ints(s2).  Only a proper crossing point is
    computed; every other point returned is an endpoint of s1 or s2."""
    L, ax, ay, bx, by = f1
    L2, cx, cy, dx, dy = f2
    if L != L2:
        # Bring both onto the common scale L * L2.
        ax, ay, bx, by = ax * L2, ay * L2, bx * L2, by * L2
        cx, cy, dx, dy = cx * L, cy * L, dx * L, dy * L
        L *= L2
    ux, uy = bx - ax, by - ay
    vx, vy = dx - cx, dy - cy
    cr = ux * vy - uy * vx
    o1 = ux * (cy - ay) - uy * (cx - ax)  # orient(A, B, C)
    if cr == 0:
        # Parallel: either collinear or disjoint.
        if o1 != 0:
            return Intersection(IntersectKind.DISJOINT)
        # Integer keys on the common scale order as the Points do.
        p0, p1 = sorted([(ax, ay), (bx, by)])
        q0, q1 = sorted([(cx, cy), (dx, dy)])
        lo, hi = max(p0, q0), min(p1, q1)
        if lo > hi:
            return Intersection(IntersectKind.DISJOINT)
        if lo == hi:
            # lo is the low end of one segment and hi the high end of the
            # other, so collinear segments that meet in one point meet at an
            # endpoint of both.
            return Intersection(IntersectKind.SHARED_ENDPOINT, s1.a if lo == (ax, ay) else s1.b)
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
    den = L * cr
    return Intersection(
        IntersectKind.PROPER_CROSSING,
        Point(quotient(ax * cr + o3 * ux, den), quotient(ay * cr + o3 * uy, den)),
    )


def intersect(s1: Segment, s2: Segment) -> Intersection:
    """Exact classification of the intersection of two segments.

    TOUCH (an endpoint of one segment interior to the other) is reported
    separately from SHARED_ENDPOINT so the validator can flag non-simple
    drawings precisely.
    """
    return _classify(s1, _ints(s1), s2, _ints(s2))


# Sweep boxes live on the grid of step 2**-_GRID_BITS: integer keys sort and
# compare fast, and a grid this fine keeps the boxes of segments that pass
# close to each other apart, so few DISJOINT pairs reach the classifier.
_GRID_BITS = 16


# A segment prepared for the pair queries: the segment, its integer form and
# its box (lo_x, lo_y, hi_x, hi_y) on the sweep grid.
Prepared = Tuple[Segment, _IntSegment, Tuple[int, int, int, int]]


def prepare(seg: Segment, unit: int = 1) -> Prepared:
    """seg prepared for the pair queries, its coordinates read as true
    values times `unit`.  The integer form keeps those units, so a proper
    crossing point comes back in them; the box holds the true values, so
    that segments sweep in the same order at any unit."""
    form = _ints(seg)
    return seg, form, _box(form, unit)


def prepare_shifted(prep: Prepared, seg: Segment, dx: int, unit: int) -> Prepared:
    """prepare(seg, unit) for seg, the segment of `prep` moved by dx in x,
    built from prep's integer form instead of seg's coordinates.  The
    coordinates and dx are ints, so the form's L is 1, and the box keeps
    its y range."""
    _, ax, ay, bx, by = prep[1]
    _, lo_y, _, hi_y = prep[2]
    ax += dx
    bx += dx
    lo_x, hi_x = (ax, bx) if ax <= bx else (bx, ax)
    box = ((lo_x << _GRID_BITS) // unit, lo_y, (hi_x << _GRID_BITS) // unit, hi_y)
    return seg, (1, ax, ay, bx, by), box


def _box(form: _IntSegment, unit: int = 1) -> Tuple[int, int, int, int]:
    L, ax, ay, bx, by = form
    # Each box coordinate v becomes floor(v * 2**_GRID_BITS), v the true
    # value.  Floor is monotone, so two grid boxes are disjoint only if the
    # exact boxes are.
    L *= unit
    ax, ay = (ax << _GRID_BITS) // L, (ay << _GRID_BITS) // L
    bx, by = (bx << _GRID_BITS) // L, (by << _GRID_BITS) // L
    return (min(ax, bx), min(ay, by), max(ax, bx), max(ay, by))


def segment_hits(segs: Sequence[Segment]) -> Iterator[Tuple[int, int, Intersection]]:
    """Every pair of segments that is not DISJOINT, as (i, j, intersect(...)).

    A sweep in x over the segments' boxes, with integer keys that never
    separate two segments that meet, hands each candidate pair to the
    exact classifier.  Pairs come in sweep order, and j is the segment
    that entered the sweep first.
    """
    return sweep_hits([prepare(s) for s in segs])


def sweep_hits(prepared: Sequence[Prepared]) -> Iterator[Tuple[int, int, Intersection]]:
    """segment_hits on segments that are already prepared."""
    boxes = [p[2] for p in prepared]
    active: List[int] = []
    for i in sorted(range(len(prepared)), key=lambda k: boxes[k][0]):
        lo_x, lo_y, _, hi_y = boxes[i]
        seg, form, _ = prepared[i]
        active = [j for j in active if boxes[j][2] >= lo_x]
        for j in active:
            box = boxes[j]
            if hi_y < box[1] or box[3] < lo_y:
                continue
            other, other_form, _ = prepared[j]
            res = _classify(seg, form, other, other_form)
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
    hull_lo_x = min(p[2][0] for p in new)
    hull_lo_y = min(p[2][1] for p in new)
    hull_hi_x = max(p[2][2] for p in new)
    hull_hi_y = max(p[2][3] for p in new)
    for j, (other, other_form, (lo_x, lo_y, hi_x, hi_y)) in enumerate(old):
        if hi_x < hull_lo_x or hull_hi_x < lo_x or hi_y < hull_lo_y or hull_hi_y < lo_y:
            continue
        for i, (seg, form, box) in enumerate(new):
            if hi_x < box[0] or box[2] < lo_x or hi_y < box[1] or box[3] < lo_y:
                continue
            res = _classify(seg, form, other, other_form)
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
    """octant of a prepared segment's direction, read off its integer form."""
    _, ax, ay, bx, by = prep[1]
    dx, dy = bx - ax, by - ay
    if dx and dy and dx != dy and dx != -dy:
        return None
    return _OCTANTS[((dx > 0) - (dx < 0), (dy > 0) - (dy < 0))]


def angular_compare(d1: Direction, d2: Direction) -> int:
    """Exact counterclockwise angular order from east: -1, 0, or 1."""
    h1, h2 = _half_turn(d1), _half_turn(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    c = cross(d1, d2)
    return 0 if c == 0 else (-1 if c > 0 else 1)


def _half_turn(d: Direction) -> int:
    dx, dy = d
    return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1


def angle_key(d: Direction) -> Tuple[int, Coord]:
    """An exact sort key that orders non-zero directions as angular_compare
    does: the quarter turn [k*pi/2, (k+1)*pi/2) holding d, counting
    counterclockwise from east, then the tangent of d's angle past the
    quarter's start, which grows with the angle.  Two directions get equal
    keys exactly when they lie on one ray.  The zero vector is no ray, and
    sorts after every ray: angular_compare ranks it after the first half
    turn and level with the whole second one, which no order can match."""
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


def sort_directions_ccw(dirs: list) -> list:
    return sorted(dirs, key=angle_key)


def _directed_gap_at_least(d1: Direction, d2: Direction, eighths: int) -> bool:
    """Counterclockwise gap from d1 to d2 is >= eighths*pi/4 (eighths in 1..4)."""
    c = cross(d1, d2)
    d = dot(d1, d2)
    if c == 0:
        return d < 0  # gap exactly pi covers any threshold up to 4
    if c > 0:
        # gap in (0, pi)
        if eighths == 4:
            return False
        if eighths == 1:
            return d <= 0 or c >= d
        if eighths == 2:
            return d <= 0
        return d < 0 and c <= -d
    # c < 0: gap in (pi, 2pi), exceeds every threshold up to pi
    return True


def min_angle_eighths_lower_bound(dirs: list) -> Optional[int]:
    """Largest k in 0..4 such that every consecutive angular gap >= k*pi/4.

    Directions are taken as rays around a common point.  A zero direction
    is no ray (a point where an edge ends has no ray along that edge) and
    is ignored.  Returns None when two rays coincide (zero angle, i.e.
    overlapping segments).  The tests run on integer vectors: a positive
    scale keeps every sign they read.
    """
    rays = [_cleared(d) for d in dirs if d[0] or d[1]]
    n = len(rays)
    if n < 2:
        return 4
    ordered = sort_directions_ccw(rays)
    best = 4
    for i in range(n):
        d1 = ordered[i]
        d2 = ordered[(i + 1) % n]
        if cross(d1, d2) == 0 and dot(d1, d2) > 0:
            return None
        k = 0
        for cand in (1, 2, 3, 4):
            if _directed_gap_at_least(d1, d2, cand):
                k = cand
            else:
                break
        best = min(best, k)
    return best
