from __future__ import annotations

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import slopeforge
from slopeforge.geometry import (
    AngleClass,
    Intersection,
    IntersectKind,
    Point,
    Segment,
    SlopeKind,
    angle_at_least,
    angle_between,
    intersect,
    min_angle_eighths_lower_bound,
    octant,
    segment_hits,
    slope_of,
    sort_directions_ccw,
    strip_collinear,
)


def P(x, y):
    return Point.of(x, y)


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


class TestStripCollinear:
    def test_drops_straight_through_points_only(self):
        corner = [P(0, 0), P(2, 0), P(2, 0), P(4, 0), P(4, 3)]
        assert strip_collinear(corner) == [P(0, 0), P(4, 0), P(4, 3)]
        reversal = [P(0, 0), P(3, 3), P(1, 1)]
        assert strip_collinear(reversal) == reversal


def _brute_hits(segs, groups=None):
    """The oracle: intersect on every pair, keyed by (lower, higher) index."""
    out = {}
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if groups is not None and groups[i] is not None and groups[i] == groups[j]:
                continue
            res = intersect(segs[i], segs[j])
            if res.kind is not IntersectKind.DISJOINT:
                out[(i, j)] = res
    return out


def _swept_hits(segs, groups=None):
    out = {}
    for i, j, res in segment_hits(segs, groups):
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
                a = on.shifted(rng.choice((-1, 1)) * eps, rng.choice((-1, 0, 1)) * eps)
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
        eps = Fraction(1, 2 ** 20)
        base = S(0, 0, 1, 0)
        touching = Segment(P(Fraction(1, 2), 0), P(Fraction(1, 2), 1))
        missing = Segment(P(Fraction(1, 2), eps), P(Fraction(1, 2), 1))
        beyond = Segment(P(1 + eps, 0), P(2, 0))
        assert _swept_hits([base, touching, missing, beyond]) == {
            (0, 1): Intersection(IntersectKind.TOUCH, P(Fraction(1, 2), 0)),
            (1, 2): Intersection(IntersectKind.OVERLAP),
        }

    def test_skips_pairs_inside_one_group(self):
        rng = random.Random(23)
        for _ in range(6):
            segs = _segment_soup(rng, 50, 10**14 + rng.randint(0, 10**6))
            groups = [rng.choice((None, 0, 1, "x")) for _ in segs]
            assert _swept_hits(segs, groups) == _brute_hits(segs, groups)


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
