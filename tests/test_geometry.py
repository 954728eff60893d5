from __future__ import annotations

import ast
import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest

import slopeforge
from slopeforge.geometry import (
    Intersection,
    IntersectKind,
    Point,
    Segment,
    SlopeKind,
    _gap_eighths,
    angle_key,
    cross,
    dot,
    hits_across,
    intersect,
    line_intersection,
    octant,
    on_segment,
    orient,
    prepare,
    prepare_shifted,
    prepared_octant,
    primitive,
    quotient,
    slope_of,
    strip_collinear,
    sweep_hits,
)

from builders import point, shifted
from oracles import angular_compare, min_angle_eighths_lower_bound, sort_directions_ccw


# ---------------------------------------------------------------------------
# Undirected angle classes: references for the package's directed gaps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AngleClass:
    """Undirected angle between two directions, in (0, pi].

    eighths is set when the angle is an exact multiple of pi/4 (1..4),
    None when the angle is not such a multiple ("Other").
    """

    eighths: Optional[int]


def angle_between(d1, d2) -> AngleClass:
    if (d1[0] == 0 and d1[1] == 0) or (d2[0] == 0 and d2[1] == 0):
        raise ValueError("angle of a zero direction")
    o1, o2 = octant(d1), octant(d2)
    if o1 is not None and o2 is not None:
        k = (o2 - o1) % 8
        k = min(k, 8 - k)
        if k == 0:
            # Same supporting line: angle pi if opposite rays, else 0 (invalid).
            if dot(d1, d2) < 0:
                return AngleClass(4)
            raise ValueError("zero angle between equal directions")
        return AngleClass(k)
    c, d = cross(d1, d2), dot(d1, d2)
    if c == 0:
        if d < 0:
            return AngleClass(4)
        raise ValueError("zero angle between equal directions")
    if d == 0:
        return AngleClass(2)
    return AngleClass(None)


def angle_at_least(d1, d2, eighths: int) -> bool:
    """Exact test: is the undirected ray angle between d1, d2 >= eighths*pi/4?

    Valid for eighths in {1, 2, 3, 4}; decided by cross/dot sign comparisons.
    """
    if eighths not in (1, 2, 3, 4):
        raise ValueError("eighths must be in 1..4")
    c, d = abs(cross(d1, d2)), dot(d1, d2)
    if c == 0 and d > 0:
        return False  # zero angle
    # theta in (0, pi]; tan-based comparisons.
    if eighths == 1:  # theta >= pi/4  <=>  theta in [pi/4, pi]
        return d <= 0 or c >= d
    if eighths == 2:  # theta >= pi/2
        return d <= 0
    if eighths == 3:  # theta >= 3pi/4
        return d < 0 and c <= -d
    return d < 0 and c == 0  # theta == pi


def P(x, y):
    return point(x, y)


def S(x1, y1, x2, y2):
    return Segment(P(x1, y1), P(x2, y2))


class TestSlope:
    def test_horizontal(self):
        assert slope_of(S(0, 0, 5, 0)).kind is SlopeKind.DEG0

    def test_diagonal_root(self):
        assert slope_of(S(0, 0, 3, 3)).kind is SlopeKind.DEG45

    def test_vertical(self):
        assert slope_of(S(1, 2, 1, 7)).kind is SlopeKind.DEG90

    def test_antidiagonal(self):
        assert slope_of(S(0, 0, -2, 2)).kind is SlopeKind.DEG135

    def test_other(self):
        assert slope_of(S(0, 0, 2, 1)).kind is SlopeKind.OTHER

    def test_direction_and_reverse_agree(self):
        rng = random.Random(7)
        for _ in range(200):
            a = P(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-9, 9))
            b = P(rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
            if a == b:
                continue
            assert slope_of(Segment(a, b)) == slope_of(Segment(b, a))


class TestIntersect:
    def test_symmetric_x(self):
        r = intersect(S(0, 0, 2, 2), S(0, 2, 2, 0))
        assert r.kind is IntersectKind.PROPER_CROSSING
        assert r.point == P(1, 1)

    def test_shared_endpoint(self):
        r = intersect(S(0, 0, 1, 0), S(1, 0, 2, 1))
        assert r.kind is IntersectKind.SHARED_ENDPOINT
        assert r.point == P(1, 0)

    def test_disjoint_parallel(self):
        assert intersect(S(0, 0, 1, 0), S(0, 1, 1, 1)).kind is IntersectKind.DISJOINT

    def test_overlap(self):
        assert intersect(S(0, 0, 2, 0), S(1, 0, 3, 0)).kind is IntersectKind.OVERLAP

    def test_touch(self):
        r = intersect(S(0, 0, 2, 0), S(1, 0, 1, 5))
        assert r.kind is IntersectKind.TOUCH
        assert r.point == P(1, 0)

    def test_collinear_single_point(self):
        r = intersect(S(0, 0, 1, 0), S(1, 0, 2, 0))
        assert r.kind is IntersectKind.SHARED_ENDPOINT

    def test_symmetry_randomized(self):
        rng = random.Random(13)
        for _ in range(300):
            pts = [
                P(Fraction(rng.randint(-6, 6), rng.randint(1, 3)), Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                for _ in range(4)
            ]
            if pts[0] == pts[1] or pts[2] == pts[3]:
                continue
            s1, s2 = Segment(pts[0], pts[1]), Segment(pts[2], pts[3])
            r12, r21 = intersect(s1, s2), intersect(s2, s1)
            assert r12.kind == r21.kind
            assert r12.point == r21.point

    def test_exactness_against_brute_force(self):
        # Cross-check the classifier against an independent big-integer test
        # on a dense family of tiny-coordinate segments.
        from itertools import product

        coords = [Fraction(v, 2) for v in range(-2, 3)]
        pts = [P(x, y) for x, y in product(coords[:3], coords[:3])]
        segs = [Segment(a, b) for a in pts for b in pts if a != b]
        rng = random.Random(5)
        sample = rng.sample(segs, 40)
        for s1 in sample[:20]:
            for s2 in sample[20:]:
                got = intersect(s1, s2)
                want = brute_force_classify(s1, s2)
                assert got.kind == want, (s1, s2)


def brute_force_classify(s1: Segment, s2: Segment) -> IntersectKind:
    """Independent classification via integer-scaled orientation tests."""

    def scale(p: Point):
        return (int(p.x * 12), int(p.y * 12))

    ax, ay = scale(s1.a)
    bx, by = scale(s1.b)
    cx, cy = scale(s2.a)
    dx, dy = scale(s2.b)

    def orient3(px, py, qx, qy, rx, ry):
        v = (qx - px) * (ry - py) - (qy - py) * (rx - px)
        return (v > 0) - (v < 0)

    def on(px, py, qx, qy, rx, ry):
        return (
            orient3(px, py, qx, qy, rx, ry) == 0
            and min(px, qx) <= rx <= max(px, qx)
            and min(py, qy) <= ry <= max(py, qy)
        )

    o1 = orient3(ax, ay, bx, by, cx, cy)
    o2 = orient3(ax, ay, bx, by, dx, dy)
    o3 = orient3(cx, cy, dx, dy, ax, ay)
    o4 = orient3(cx, cy, dx, dy, bx, by)
    if o1 == o2 == 0 and o3 == o4 == 0:
        common = []
        for (px, py) in [(ax, ay), (bx, by)]:
            if on(cx, cy, dx, dy, px, py):
                common.append((px, py))
        for (px, py) in [(cx, cy), (dx, dy)]:
            if on(ax, ay, bx, by, px, py) and (px, py) not in common:
                common.append((px, py))
        if not common:
            return IntersectKind.DISJOINT
        if len({c for c in common}) > 1:
            return IntersectKind.OVERLAP
        c = common[0]
        ends1 = {(ax, ay), (bx, by)}
        ends2 = {(cx, cy), (dx, dy)}
        if c in ends1 and c in ends2:
            return IntersectKind.SHARED_ENDPOINT
        return IntersectKind.TOUCH
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return IntersectKind.PROPER_CROSSING
    # Some endpoint lies on the other segment, or they miss entirely.
    hits = []
    if on(cx, cy, dx, dy, ax, ay):
        hits.append((ax, ay, True))
    if on(cx, cy, dx, dy, bx, by):
        hits.append((bx, by, True))
    if on(ax, ay, bx, by, cx, cy):
        hits.append((cx, cy, False))
    if on(ax, ay, bx, by, dx, dy):
        hits.append((dx, dy, False))
    if not hits:
        return IntersectKind.DISJOINT
    px, py, _ = hits[0]
    ends1 = {(ax, ay), (bx, by)}
    ends2 = {(cx, cy), (dx, dy)}
    if (px, py) in ends1 and (px, py) in ends2:
        return IntersectKind.SHARED_ENDPOINT
    return IntersectKind.TOUCH


def intersect_by_fractions(s1: Segment, s2: Segment) -> Intersection:
    """The reference: intersect as it was computed on Fractions before the
    integer kernel."""
    d1, d2 = s1.dir(), s2.dir()
    if cross(d1, d2) == 0:
        if orient(s1.a, s1.b, s2.a) != 0:
            return Intersection(IntersectKind.DISJOINT)
        pts = sorted([s1.a, s1.b])
        qts = sorted([s2.a, s2.b])
        lo, hi = max(pts[0], qts[0]), min(pts[1], qts[1])
        if lo > hi:
            return Intersection(IntersectKind.DISJOINT)
        if lo == hi:
            if lo in (s1.a, s1.b) and lo in (s2.a, s2.b):
                return Intersection(IntersectKind.SHARED_ENDPOINT, lo)
            return Intersection(IntersectKind.TOUCH, lo)
        return Intersection(IntersectKind.OVERLAP)
    p = line_intersection(s1.a, d1, s2.a, d2)
    assert p is not None
    if not (on_segment(p, s1) and on_segment(p, s2)):
        return Intersection(IntersectKind.DISJOINT)
    end1 = p in (s1.a, s1.b)
    end2 = p in (s2.a, s2.b)
    if end1 and end2:
        return Intersection(IntersectKind.SHARED_ENDPOINT, p)
    if end1 or end2:
        return Intersection(IntersectKind.TOUCH, p)
    return Intersection(IntersectKind.PROPER_CROSSING, p)


def _check_against_fractions(s1: Segment, s2: Segment) -> Intersection:
    """intersect agrees with the reference on (s1, s2), with either order
    and either orientation of each segment; a SHARED_ENDPOINT or TOUCH
    point is one of the input endpoints, not a recomputed copy.  Returns
    intersect(s1, s2)."""
    for x, y in ((s2, s1), (Segment(s1.b, s1.a), s2), (s1, Segment(s2.b, s2.a)), (s1, s2)):
        got, want = intersect(x, y), intersect_by_fractions(x, y)
        assert got == want, (x, y)
        if got.kind in (IntersectKind.SHARED_ENDPOINT, IntersectKind.TOUCH):
            assert any(got.point is q for q in (x.a, x.b, y.a, y.b)), (x, y)
    return got


_DENOMINATORS = (1, 2, 3, 12, 10**7 + 19, 10**13 + 37, 10**14)


def _kernel_pair(rng):
    """Two segments, the second built against the first so that every kind
    occurs: free, sharing an endpoint, starting on it, collinear with it,
    or missing it (or its line) by a tiny amount."""
    if rng.random() < 0.5:
        dens = [rng.choice(_DENOMINATORS)] * 8
    else:
        dens = [rng.choice(_DENOMINATORS) for _ in range(8)]

    def coord(k):
        return Fraction(rng.randint(-8 * dens[k], 8 * dens[k]), dens[k])

    a, b = P(coord(0), coord(1)), P(coord(2), coord(3))
    while b == a:
        b = P(coord(2), coord(3))
    s1 = Segment(a, b)
    free = P(coord(4), coord(5))
    t = Fraction(rng.randint(0, 4), 4)
    on = P(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    eps = Fraction(1, rng.choice((2**20, 2**60, 10**14)))
    kind = rng.randrange(6)
    if kind == 0:
        c, d = P(coord(6), coord(7)), free
    elif kind == 1:
        c, d = rng.choice((a, b)), free
    elif kind == 2:
        c, d = on, free
    elif kind == 3:
        f = Fraction(rng.randint(-6, 6), 4)
        c, d = on, P(on.x + f * (b.x - a.x), on.y + f * (b.y - a.y))
    elif kind == 4:
        c, d = shifted(on, rng.choice((-1, 1)) * eps, rng.choice((-1, 0, 1)) * eps), free
    else:
        dx, dy = rng.choice(((eps, 0), (0, eps), (eps, eps)))
        c, d = shifted(a, dx, dy), shifted(b, dx, dy)
    if c == d:
        d = free if free != c else shifted(c, 1)
    return s1, Segment(c, d)


class TestIntegerKernel:
    def test_matches_fractions_on_random_pairs(self):
        rng = random.Random(31)
        kinds = set()
        for _ in range(1000):
            s1, s2 = _kernel_pair(rng)
            res = _check_against_fractions(s1, s2)
            kinds.add(res.kind)
            # The same pair on ints, times the lcm of its denominators.
            scale = math.lcm(*(c.denominator for s in (s1, s2) for p in s for c in p))
            on_ints = [Segment(*(Point(int(p.x * scale), int(p.y * scale)) for p in s)) for s in (s1, s2)]
            got = intersect(*on_ints)
            assert got.kind == res.kind
            if res.point is not None:
                assert got.point == Point(res.point.x * scale, res.point.y * scale)
        assert kinds == set(IntersectKind)

    def test_matches_fractions_beyond_float_range(self):
        big = 2 ** 1100
        rng = random.Random(32)
        kinds = set()
        for _ in range(150):
            s1, s2 = _kernel_pair(rng)
            scaled = [Segment(P(s.a.x * big, s.a.y * big), P(s.b.x * big, s.b.y * big)) for s in (s1, s2)]
            res = _check_against_fractions(*scaled)
            assert res.kind == intersect(s1, s2).kind
            kinds.add(res.kind)
        assert kinds == set(IntersectKind)

    @pytest.mark.parametrize("s1, s2, kind, point", [
        # Shared endpoints, at each end of each segment.
        (S(0, 0, 1, 0), S(0, 0, 0, 1), IntersectKind.SHARED_ENDPOINT, P(0, 0)),
        (S(0, 0, 1, 0), S(1, 0, 2, 1), IntersectKind.SHARED_ENDPOINT, P(1, 0)),
        (S(1, 0, 0, 0), S(2, 1, 1, 0), IntersectKind.SHARED_ENDPOINT, P(1, 0)),
        (S(Fraction(1, 3), 0, 1, 1), S(0, 1, Fraction(1, 3), 0), IntersectKind.SHARED_ENDPOINT,
         P(Fraction(1, 3), 0)),
        # One segment's endpoint inside the other, at either end of either.
        (S(1, 0, 1, 5), S(0, 0, 2, 0), IntersectKind.TOUCH, P(1, 0)),
        (S(1, 5, 1, 0), S(0, 0, 2, 0), IntersectKind.TOUCH, P(1, 0)),
        (S(0, 0, 2, 0), S(1, 0, 1, 5), IntersectKind.TOUCH, P(1, 0)),
        (S(0, 0, 2, 0), S(1, 5, 1, 0), IntersectKind.TOUCH, P(1, 0)),
        (S(0, 0, 1, 1), S(Fraction(1, 7), Fraction(1, 7), 0, Fraction(1, 5)), IntersectKind.TOUCH,
         P(Fraction(1, 7), Fraction(1, 7))),
        # Proper crossings, on a shared and on different scales.
        (S(0, 0, 2, 2), S(0, 2, 2, 0), IntersectKind.PROPER_CROSSING, P(1, 1)),
        (S(0, 0, 1, Fraction(1, 3)), S(Fraction(1, 7), 1, Fraction(2, 5), -1),
         IntersectKind.PROPER_CROSSING, P(Fraction(19, 73), Fraction(19, 219))),
        # Collinear overlaps.
        (S(0, 0, 2, 0), S(1, 0, 3, 0), IntersectKind.OVERLAP, None),
        (S(0, 0, 3, 3), S(2, 2, 1, 1), IntersectKind.OVERLAP, None),
        (S(0, 0, 0, 1), S(0, 1, 0, 0), IntersectKind.OVERLAP, None),
        (S(0, 0, Fraction(1, 3), Fraction(1, 3)), S(Fraction(1, 7), Fraction(1, 7), 1, 1),
         IntersectKind.OVERLAP, None),
        # Collinear touches and collinear misses.
        (S(0, 0, 1, 0), S(1, 0, 2, 0), IntersectKind.SHARED_ENDPOINT, P(1, 0)),
        (S(0, 0, 1, 0), S(2, 0, 1, 0), IntersectKind.SHARED_ENDPOINT, P(1, 0)),
        (S(0, 1, 0, 2), S(0, 0, 0, 1), IntersectKind.SHARED_ENDPOINT, P(0, 1)),
        (S(0, 0, 1, 0), S(2, 0, 3, 0), IntersectKind.DISJOINT, None),
        (S(0, 0, 1, -1), S(Fraction(3, 2), Fraction(-3, 2), 2, -2), IntersectKind.DISJOINT, None),
        # Parallel and near misses by 2**-60.
        (S(0, 0, 1, 0), S(0, Fraction(1, 2**60), 1, Fraction(1, 2**60)), IntersectKind.DISJOINT, None),
        (S(0, 0, 1, 1), S(Fraction(1, 2**60), 0, 1 + Fraction(1, 2**60), 1), IntersectKind.DISJOINT, None),
        (S(0, 0, 2, 0), S(1, Fraction(1, 2**60), 1, 1), IntersectKind.DISJOINT, None),
        (S(0, 0, 2, 0), S(1, -Fraction(1, 2**60), 1, 1), IntersectKind.PROPER_CROSSING, P(1, 0)),
        (S(0, 0, 1, 0), S(1 + Fraction(1, 2**60), -1, 1 + Fraction(1, 2**60), 1), IntersectKind.DISJOINT, None),
    ])
    def test_hand_picked(self, s1, s2, kind, point):
        assert _check_against_fractions(s1, s2) == Intersection(kind, point)


class TestPrepareShifted:
    def test_equals_prepare_on_the_moved_segment(self):
        """Shifting a prepared segment by dx gives what prepare builds on
        the moved coordinates, whose box is exact: on ints, as the 1-bend
        drawing holds them, and on Fractions."""
        rng = random.Random(33)
        fractions = 0
        for _ in range(2000):
            den = rng.choice(_DENOMINATORS) if rng.random() < 0.5 else 1

            def coord():
                return quotient(rng.randint(-8 * den, 8 * den), den)

            a, b = Point(coord(), coord()), Point(coord(), coord())
            if a == b:
                continue
            s = Segment(a, b)
            dx = coord()
            moved = Segment(Point(s.a.x + dx, s.a.y), Point(s.b.x + dx, s.b.y))
            shifted = prepare_shifted(prepare(s), moved, dx)
            assert shifted == prepare(moved)
            assert shifted[1] == (min(moved.a.x, moved.b.x), min(moved.a.y, moved.b.y),
                                  max(moved.a.x, moved.b.x), max(moved.a.y, moved.b.y))
            fractions += any(type(c) is not int for p in moved for c in p)
        assert fractions >= 500

    def test_octant_of_a_prepared_segment(self):
        for dx in range(-3, 4):
            for dy in range(-3, 4):
                if dx or dy:
                    s = S(Fraction(1, 3), Fraction(2, 7), Fraction(1, 3) + dx, Fraction(2, 7) + dy)
                    assert prepared_octant(prepare(s)) == octant((Fraction(dx), Fraction(dy)))


class TestAngles:
    def test_quarter(self):
        assert angle_between((1, 0), (1, 1)) == AngleClass(1)

    def test_half(self):
        assert angle_between((1, 0), (0, 1)) == AngleClass(2)

    def test_perpendicular_diagonals(self):
        assert angle_between((1, 1), (-1, 1)) == AngleClass(2)

    def test_pi(self):
        assert angle_between((1, 0), (-1, 0)) == AngleClass(4)

    def test_other(self):
        assert angle_between((1, 0), (2, 1)) == AngleClass(None)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            angle_between((0, 0), (1, 0))

    def test_the_directed_gap_is_the_undirected_angle_below_pi(self):
        dirs = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0)]
        checked = 0
        for d1 in dirs:
            for d2 in dirs:
                if cross(d1, d2) > 0:
                    for k in (1, 2, 3, 4):
                        assert (_gap_eighths(d1, d2) >= k) == angle_at_least(d1, d2, k), (d1, d2, k)
                    checked += 1
        assert checked > 500

    def test_at_least(self):
        assert angle_at_least((1, 0), (1, 1), 1)
        assert not angle_at_least((1, 0), (2, 1), 1)
        assert angle_at_least((1, 0), (-1, 1), 2)
        assert not angle_at_least((1, 0), (1, 1), 2)
        assert angle_at_least((1, 0), (-2, 1), 2)
        assert angle_at_least((1, 0), (-1, 0), 4)

    def test_octants(self):
        assert octant((1, 0)) == 0
        assert octant((2, 2)) == 1
        assert octant((0, 3)) == 2
        assert octant((-1, 1)) == 3
        assert octant((-5, 0)) == 4
        assert octant((-2, -2)) == 5
        assert octant((0, -1)) == 6
        assert octant((3, -3)) == 7
        assert octant((2, 1)) is None

    def test_sorting_is_ccw(self):
        dirs = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
        rng = random.Random(3)
        shuffled = dirs[:]
        rng.shuffle(shuffled)
        fr = [(Fraction(a), Fraction(b)) for a, b in shuffled]
        assert [tuple(map(int, d)) for d in sort_directions_ccw(fr)] == dirs

    def test_min_angle_lower_bound(self):
        dirs = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(-1), Fraction(-1))]
        assert min_angle_eighths_lower_bound(dirs) == 2
        dirs45 = [
            (Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(1)),
            (Fraction(0), Fraction(1)),
            (Fraction(-1), Fraction(0)),
        ]
        assert min_angle_eighths_lower_bound(dirs45) == 1
        assert min_angle_eighths_lower_bound([(Fraction(1), Fraction(0)), (Fraction(1), Fraction(0))]) is None


def _direction_set():
    """The eight canonical directions, three others, some with Fraction
    components and some near 10**30, then each again scaled by 2 and by
    1/3: the copies lie on the same rays, so every ray has ties."""
    big = 10**30
    dirs = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    dirs += [(1, 2), (-3, 1), (2, -5)]
    dirs += [(Fraction(1, 3), Fraction(2, 3)), (Fraction(-5, 2), 0), (0, Fraction(-7, 3)),
             (Fraction(-1, 2), Fraction(-7, 3)), (Fraction(3, 4), Fraction(-3, 4))]
    dirs += [(big, big + 1), (big + 1, big), (-big, 1), (-big, -1), (1, -big), (big, -big - 1),
             (-1, big), (big, 1)]
    return dirs + [(2 * dx, 2 * dy) for dx, dy in dirs] + [
        (Fraction(dx, 3), Fraction(dy, 3)) for dx, dy in dirs]


def _sign(a, b) -> int:
    return (a > b) - (a < b)


class TestAngleKey:
    def test_every_pair_orders_as_the_comparator_does(self):
        dirs = _direction_set()
        keys = [angle_key(d) for d in dirs]
        ties = 0
        for (d1, k1), (d2, k2) in itertools.product(zip(dirs, keys), repeat=2):
            assert _sign(k1, k2) == angular_compare(d1, d2), (d1, d2)
            ties += k1 == k2 and d1 != d2
        assert ties >= 2 * len(dirs)

    def test_the_sort_equals_the_comparator_sort_on_repeated_directions(self):
        rng = random.Random(35)
        dirs = _direction_set()
        for _ in range(200):
            picked = [rng.choice(dirs) for _ in range(rng.randrange(2, 12))]
            picked += picked[: rng.randrange(len(picked))]
            rng.shuffle(picked)
            assert sort_directions_ccw(picked) == sorted(picked, key=functools.cmp_to_key(angular_compare))

    def test_the_zero_vector_sorts_after_every_ray(self):
        assert all(angle_key((0, 0)) > angle_key(d) for d in _direction_set())


class TestTupleValues:
    """Points and segments are tuples, with the value semantics of the
    frozen dataclasses they were: a set or dict of them keeps its order."""

    def test_a_point_hashes_as_its_coordinates(self):
        for x, y in [(1, 2), (-3, 0), (Fraction(1, 2), 7), (10**30, -(10**30))]:
            assert hash(Point(x, y)) == hash((x, y))
        a, b = Point(0, 1), Point(Fraction(1, 3), 2)
        assert hash(Segment(a, b)) == hash((a, b))

    def test_points_order_lexicographically(self):
        rng = random.Random(5)
        coords = [0, 1, -1, Fraction(1, 2), Fraction(-7, 3), 10**30]
        pts = [Point(rng.choice(coords), rng.choice(coords)) for _ in range(60)]
        assert sorted(pts) == sorted(pts, key=lambda p: (p.x, p.y))
        assert Point(1, 5) < Point(2, 0) and Point(1, 0) < Point(1, 5)

    def test_repr_and_str(self):
        assert repr(Point(1, 2)) == "Point(x=1, y=2)"
        assert str(Point(1, 2)) == "(1,2)"
        assert repr(Segment(Point(0, 0), Point(1, 0))) == "Segment(a=Point(x=0, y=0), b=Point(x=1, y=0))"

    def test_a_degenerate_segment_is_refused(self):
        p = Point(1, Fraction(5, 2))
        with pytest.raises(ValueError, match=r"^degenerate segment at \(1,5/2\)$"):
            Segment(p, p)
        with pytest.raises(ValueError, match="degenerate segment"):
            Segment(Point(3, 4), Point(Fraction(3), Fraction(8, 2)))


def primitive_by_fractions(d):
    """The reference: primitive as it was computed on Fractions."""
    dx, dy = Fraction(d[0]), Fraction(d[1])
    scale = Fraction(math.lcm(dx.denominator, dy.denominator))
    ix, iy = int(dx * scale), int(dy * scale)
    g = math.gcd(abs(ix), abs(iy))
    return ix // g, iy // g


def min_angle_by_fractions(dirs):
    """The reference: min_angle_eighths_lower_bound as it was computed on
    the Fraction directions themselves, zero directions left out."""
    dirs = [d for d in dirs if d != (0, 0)]
    n = len(dirs)
    if n < 2:
        return 4
    ordered = sort_directions_ccw(dirs)
    best = 4
    for i in range(n):
        d1 = ordered[i]
        d2 = ordered[(i + 1) % n]
        if cross(d1, d2) == 0 and dot(d1, d2) > 0:
            return None
        # A gap of pi or more clears every threshold; a smaller one is the
        # undirected angle.
        k = 4
        if cross(d1, d2) > 0:
            k = max(k for k in range(4) if k == 0 or angle_at_least(d1, d2, k))
        best = min(best, k)
    return best


class TestDirections:
    def test_primitive(self):
        assert primitive((2, 4)) == (1, 2)
        assert primitive((-6, 0)) == (-1, 0)
        assert primitive((0, Fraction(-5, 3))) == (0, -1)
        assert primitive((Fraction(-3, 4), Fraction(1, 6))) == (-9, 2)
        assert primitive((Fraction(7, 10**14), 3)) == (7, 3 * 10**14)
        with pytest.raises(ValueError):
            primitive((Fraction(0), 0))
        rng = random.Random(41)
        for _ in range(500):
            d = tuple(
                rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-10**15, 10**15), rng.randint(1, 10**14))))
                for _ in range(2)
            )
            if d[0] == 0 and d[1] == 0:
                continue
            assert primitive(d) == primitive_by_fractions(d)

    def test_min_angle_matches_fractions(self):
        rays = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
                (2, 1), (-1, 3), (5, -2)]
        rng = random.Random(42)
        results = set()
        for _ in range(400):
            dirs = []
            for _ in range(rng.randint(1, 6)):
                rx, ry = rng.choice(rays)
                if dirs and rng.random() < 0.25:
                    # An equal or an opposite ray to one already taken.
                    rx, ry = primitive(rng.choice(dirs))
                    rx, ry = rng.choice(((rx, ry), (-rx, -ry)))
                scale = Fraction(rng.randint(1, 10**14), rng.randint(1, 10**14))
                dirs.append((rx * scale, ry * scale))
            got = min_angle_eighths_lower_bound(dirs)
            assert got == min_angle_by_fractions(dirs), dirs
            results.add(got)
        assert results == {None, 0, 1, 2, 3, 4}

    def test_min_angle_keeps_the_zero_direction_answer(self):
        # A crossing at an edge's own end point can hand the validator a
        # zero direction; it is no ray, and the answer must stay the
        # Fraction one.
        for dirs, want in (([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))], 4),
                           ([(Fraction(-1), Fraction(1)), (Fraction(0), Fraction(0)),
                             (Fraction(1), Fraction(1))], 2)):
            assert min_angle_eighths_lower_bound(dirs) == min_angle_by_fractions(dirs) == want

    def test_min_angle_ignores_zero_directions_in_any_order(self):
        # A zero direction used to rank equal to every lower half-plane
        # direction, so the answer followed the order of the rays.
        for rays, want in (([(-1, -1), (1, 1), (0, 0), (-2, -2)], None),
                           ([(1, 0), (0, 0), (0, -1), (-1, 1)], 2),
                           ([(0, 0), (Fraction(-1, 3), 0), (0, 5), (1, -1)], 2)):
            answers = {min_angle_eighths_lower_bound(list(p)) for p in itertools.permutations(rays)}
            assert answers == {want}


class TestStripCollinear:
    def test_drops_straight_through_points_only(self):
        corner = [P(0, 0), P(2, 0), P(2, 0), P(4, 0), P(4, 3)]
        assert strip_collinear(corner) == [P(0, 0), P(4, 0), P(4, 3)]
        reversal = [P(0, 0), P(3, 3), P(1, 1)]
        assert strip_collinear(reversal) == reversal


def _brute_hits(segs):
    """The oracle: intersect on every pair, keyed by (lower, higher) index."""
    out = {}
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            res = intersect(segs[i], segs[j])
            if res.kind is not IntersectKind.DISJOINT:
                out[(i, j)] = res
    return out


def _swept_hits(segs):
    out = {}
    for i, j, res in sweep_hits([prepare(s) for s in segs]):
        key = (min(i, j), max(i, j))
        assert i != j and key not in out
        out[key] = res
    return out


def _segment_soup(rng, n, den):
    """n segments on coordinates of denominator den in [0, 8]: free ones, and
    ones that share an endpoint with, start on, overlap, or stop 2**-20 or
    2**-24 short of an earlier segment."""

    def free_point():
        return P(Fraction(rng.randint(0, 8 * den), den), Fraction(rng.randint(0, 8 * den), den))

    segs = []
    while len(segs) < n:
        kind = rng.randrange(5) if segs else 0
        b = free_point()
        if kind == 0:
            a = free_point()
        else:
            old = segs[rng.randrange(len(segs))]
            t = Fraction(rng.randint(0, 4), 4)
            on = P(old.a.x + t * (old.b.x - old.a.x), old.a.y + t * (old.b.y - old.a.y))
            if kind == 1:
                a = old.a
            elif kind == 2:
                a = on
            elif kind == 3:
                a = on
                b = P(on.x + 2 * (old.b.x - old.a.x), on.y + 2 * (old.b.y - old.a.y))
            else:
                eps = Fraction(1, 2 ** rng.choice((20, 24)))
                a = shifted(on, rng.choice((-1, 1)) * eps, rng.choice((-1, 0, 1)) * eps)
        if a != b:
            segs.append(Segment(a, b))
    return segs


class TestSegmentHits:
    def test_matches_brute_force_at_1bend_denominators(self):
        rng = random.Random(21)
        kinds = set()
        for _ in range(6):
            segs = _segment_soup(rng, 50, 10**14 + rng.randint(0, 10**6))
            want = _brute_hits(segs)
            assert _swept_hits(segs) == want
            kinds |= {res.kind for res in want.values()}
        assert kinds == set(IntersectKind) - {IntersectKind.DISJOINT}

    def test_matches_brute_force_beyond_float_range(self):
        big = 2 ** 1100
        with pytest.raises(OverflowError):
            float(big)
        rng = random.Random(22)
        for _ in range(3):
            segs = _segment_soup(rng, 40, rng.choice((3, 10**14 + 7)))
            scaled = [Segment(P(s.a.x * big, s.a.y * big), P(s.b.x * big, s.b.y * big)) for s in segs]
            hits = _swept_hits(scaled)
            assert hits == _brute_hits(scaled)
            assert {k: r.kind for k, r in hits.items()} == {k: r.kind for k, r in _swept_hits(segs).items()}

    def test_finer_than_the_box_grid(self):
        """Segments 2**-20 apart, finer than the 2**-16 grid the sweep
        boxes were once floored to, are told apart."""
        eps = Fraction(1, 2 ** 20)
        base = S(0, 0, 1, 0)
        touching = Segment(P(Fraction(1, 2), 0), P(Fraction(1, 2), 1))
        missing = Segment(P(Fraction(1, 2), eps), P(Fraction(1, 2), 1))
        beyond = Segment(P(1 + eps, 0), P(2, 0))
        assert _swept_hits([base, touching, missing, beyond]) == {
            (0, 1): Intersection(IntersectKind.TOUCH, P(Fraction(1, 2), 0)),
            (1, 2): Intersection(IntersectKind.OVERLAP),
        }

    def test_hits_across_matches_brute_force(self):
        """A few new segments against the rest, the soup's near misses and
        the 2**-20 case of test_finer_than_the_box_grid included."""
        rng = random.Random(24)
        eps = Fraction(1, 2 ** 20)
        fine = [S(0, 0, 1, 0), Segment(P(Fraction(1, 2), 0), P(Fraction(1, 2), 1)),
                Segment(P(Fraction(1, 2), eps), P(Fraction(1, 2), 1)), Segment(P(1 + eps, 0), P(2, 0))]
        cases = [(fine[1:], fine[:1]), (fine[2:], fine[:2]), ([], fine)]
        for _ in range(6):
            segs = _segment_soup(rng, 60, 10**14 + rng.randint(0, 10**6))
            k = rng.randint(1, 6)
            rng.shuffle(segs)
            cases.append((segs[:k], segs[k:]))
        for new, old in cases:
            want = [(i, j, intersect(a, b)) for j, b in enumerate(old) for i, a in enumerate(new)]
            found = list(hits_across([prepare(a) for a in new], [prepare(b) for b in old]))
            assert found == [hit for hit in want if hit[2].kind is not IntersectKind.DISJOINT]


def test_no_float_calls_outside_the_renderer():
    """Every module but render.py decides geometry exactly, so none of them
    converts to float."""
    package = Path(slopeforge.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "render.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
