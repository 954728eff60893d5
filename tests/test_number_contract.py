"""The number contract: a coordinate is an int when it is integral and
otherwise a Fraction, never a float or a bool.

docio reads integral values as ints and the 2-bend drawer emits int ranks.
An int and the Fraction of the same value must give the same reports,
embeddings and bytes, and no true division in the package may be reachable
by two ints.
"""

from __future__ import annotations

import ast
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import slopeforge
from slopeforge import docio, families, render, verify
from slopeforge.drawing import PolylineDrawing
from slopeforge.families import gen_2reg, gen_3reg18, gen_corpus, gen_crossed_k4, gen_maxdeg, gen_prism
from slopeforge.geometry import Point, line_intersection
from slopeforge.onebend import draw_onebend
from slopeforge.twobend import TwoBendError, draw_twobend
from slopeforge.verify import PROFILES, embedding_from_geometry, embedding_of, validate

from test_twobend import block_chain, cubic3con
from test_verify import _moved, _outcome, folded_edge_drawing, low_bend_drawing


def _coordinates(d: PolylineDrawing):
    for p in d.positions.values():
        yield from (p.x, p.y)
    for pts in d.polylines.values():
        for p in pts:
            yield from (p.x, p.y)


def _with(d: PolylineDrawing, num) -> PolylineDrawing:
    """d with every coordinate c replaced by num(c)."""

    def at(p: Point) -> Point:
        return Point(num(p.x), num(p.y))

    return PolylineDrawing(
        d.graph,
        {v: at(p) for v, p in d.positions.items()},
        {e: [at(p) for p in pts] for e, pts in d.polylines.items()},
    )


def _contract(c):
    """c as the contract has it: an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _twobend_drawings():
    graphs = [gen_2reg(k) for k in (1, 2, 3, 8)] + [block_chain(b) for b in (1, 3, 6)]
    drawn = [draw_twobend(g) for g in graphs]
    for n_target in (24, 32):
        for seed in range(1000, 1006):
            try:
                drawn.append(draw_twobend(cubic3con(seed, n_target)))
            except TwoBendError:
                pass
    return drawn


class TestDocio:
    @pytest.mark.parametrize("pair, value", [
        ([7, 1], 7),
        ([-7, 1], -7),
        ([0, 1], 0),
        ([4, 2], 2),
        ([3, -1], -3),
        ([-6, -3], 2),
        (["9007199254740993", "1"], 9007199254740993),
        (["18014398509481986", 2], 9007199254740993),
    ])
    def test_integral_rationals_read_as_ints(self, pair, value):
        got = docio._rat_in(pair)
        assert type(got) is int
        assert got == value

    @pytest.mark.parametrize("pair, value", [
        ([1, 2], Fraction(1, 2)),
        ([2, 4], Fraction(1, 2)),
        ([3, -6], Fraction(-1, 2)),
        (["9007199254740993", 2], Fraction(9007199254740993, 2)),
    ])
    def test_other_rationals_read_as_fractions(self, pair, value):
        got = docio._rat_in(pair)
        assert type(got) is Fraction
        assert got == value

    @pytest.mark.parametrize("pair", [[True, 1], [1, True], [1.0, 1], [1, 1.0], [1, 0], [1], "1"])
    def test_bad_rationals_are_rejected(self, pair):
        with pytest.raises(docio.DocumentError):
            docio._rat_in(pair)

    def test_a_read_drawing_holds_ints_where_integral(self):
        d = draw_onebend(gen_crossed_k4())
        back = docio.drawing_from_doc(docio.loads(docio.dumps(docio.drawing_to_doc(d))))
        assert back.positions == d.positions and back.polylines == d.polylines
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in _coordinates(back))


class TestTwoBendInts:
    def test_every_coordinate_is_an_int(self):
        drawn = _twobend_drawings()
        assert len(drawn) >= 12
        for d in drawn:
            assert all(type(c) is int for c in _coordinates(d))


class TestSubcubicInts:
    def test_the_generator_places_every_vertex_on_ints(self, monkeypatch):
        seen = []

        def recorded(positions, edges, polylines=None):
            seen.extend(c for p in positions.values() for c in (p.x, p.y))
            assert polylines is None
            return embedding_from_geometry(positions, edges, polylines)

        monkeypatch.setattr(families, "embedding_from_geometry", recorded)
        for n_target in (20, 60, 120):
            for seed in range(1000, 1006):
                gen_corpus(seed=seed, n_target=n_target, profile="subcubic")
        assert len(seen) >= 2 * 18 * 20
        assert all(type(c) is int for c in seen)


class TestLineIntersection:
    @pytest.mark.parametrize("p, d1, q, d2, want", [
        (Point(0, 0), (1, 1), Point(3, 0), (-1, 1), Point(Fraction(3, 2), Fraction(3, 2))),
        (Point(0, 0), (1, 1), Point(4, 0), (-1, 1), Point(2, 2)),
        (Point(0, 1), (1, 0), Point(5, 0), (0, 1), Point(5, 1)),
        (Point(1, 0), (2, 1), Point(0, 0), (1, 0), Point(1, 0)),
    ])
    def test_int_points_give_no_float(self, p, d1, q, d2, want):
        got = line_intersection(p, d1, q, d2)
        assert got == want
        assert not any(isinstance(c, float) for c in (got.x, got.y))

    def test_parallel_lines_meet_nowhere(self):
        assert line_intersection(Point(0, 0), (1, 1), Point(1, 0), (2, 2)) is None


def _embedding_bytes(d: PolylineDrawing) -> str:
    return docio.dumps(docio.graph_to_doc(embedding_of(d)))


class TestIntFractionEquivalence:
    """Each drawing, once with every integral coordinate an int and once with
    every coordinate a Fraction, gives equal reports under all three
    profiles, the same induced embedding document (or the same error), and
    the same drawing document and SVG bytes."""

    def test_same_reports_embeddings_and_bytes(self):
        onebend = [draw_onebend(g) for g in (gen_crossed_k4(), gen_prism(), gen_3reg18(), cubic3con(1000, 20))]
        onebend += [folded_edge_drawing(), low_bend_drawing()]
        twobend = _twobend_drawings()[:8] + [draw_twobend(gen_maxdeg(3))]
        drawings = onebend + twobend
        for d in (onebend[0], twobend[1]):
            v, w = sorted(d.positions)[:2]
            drawings.append(_moved(d, v, d.positions[w]))
        fractional = 0
        for d in drawings:
            as_int, as_fraction = _with(d, _contract), _with(d, Fraction)
            assert any(type(c) is int for c in _coordinates(as_int))
            assert all(type(c) is Fraction for c in _coordinates(as_fraction))
            fractional += any(type(c) is Fraction for c in _coordinates(as_int))
            for profile in PROFILES:
                assert _outcome(validate, as_int, profile) == _outcome(validate, as_fraction, profile)
            assert _outcome(_embedding_bytes, as_int) == _outcome(_embedding_bytes, as_fraction)
            assert docio.dumps(docio.drawing_to_doc(as_int)) == docio.dumps(docio.drawing_to_doc(as_fraction))
            assert render.render_svg(as_int) == render.render_svg(as_fraction)
            assert render.render_segments_svg(as_int.polylines) == render.render_segments_svg(
                as_fraction.polylines
            )
        assert fractional >= 2  # 1-bend drawings keep their non-integral Fractions


class TestOnGrid:
    """validate and embedding_of clear a drawing's common denominator once
    (verify._on_grid) and decide everything after on ints."""

    def test_an_int_drawing_is_its_own_grid(self):
        d = draw_twobend(gen_2reg(3))
        assert verify._on_grid(d) == (d, 1)
        assert verify._on_grid(d)[0] is d

    def test_integral_fractions_come_back_as_ints(self):
        d = draw_twobend(block_chain(3))
        grid, D = verify._on_grid(_with(d, Fraction))
        assert D == 1
        assert all(type(c) is int for c in _coordinates(grid))
        assert (grid.positions, grid.polylines) == (d.positions, d.polylines)

    def test_a_onebend_drawing_is_scaled_by_the_lcm_of_its_denominators(self):
        d = draw_onebend(cubic3con(1000, 20))
        denominators = {c.denominator for c in _coordinates(d)}
        grid, D = verify._on_grid(d)
        assert D == math.lcm(*denominators) > 1
        assert all(type(c) is int for c in _coordinates(grid))
        assert grid.graph is d.graph
        assert grid.positions == {v: Point(p.x * D, p.y * D) for v, p in d.positions.items()}
        assert grid.polylines == {e: [Point(p.x * D, p.y * D) for p in pts] for e, pts in d.polylines.items()}

    def test_no_fraction_arithmetic_after_the_grid_step(self, monkeypatch):
        drawings = [draw_onebend(g) for g in (gen_crossed_k4(), gen_prism(), gen_3reg18())]
        drawings += [draw_onebend(cubic3con(seed, n_target)) for seed, n_target in ((1000, 20), (1001, 20), (1000, 90))]
        assert sum(any(type(c) is Fraction for c in _coordinates(d)) for d in drawings) >= 4
        counted = Counter()
        after_grid = []

        def counting(name):
            op = getattr(Fraction, name)

            def wrapped(*args):
                if after_grid:
                    counted[name] += 1
                return op(*args)

            return wrapped

        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                     "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__divmod__",
                     "__neg__", "__abs__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__hash__"):
            monkeypatch.setattr(Fraction, name, counting(name))
        on_grid = verify._on_grid

        def grid_then_count(d):
            out = on_grid(d)
            after_grid.append(d)
            return out

        monkeypatch.setattr(verify, "_on_grid", grid_then_count)
        for d in drawings:
            for entry in (lambda: validate(d, "ONEBEND").passed, lambda: embedding_of(d) is not None):
                after_grid.clear()
                assert entry()
                assert len(after_grid) == 1
        assert counted == Counter()


# Every true division in the package, by (module, enclosing function,
# expression), with the reason its result stays exact: a Fraction on at
# least one side.  Two ints would give a float.
DIVISIONS = {
    ("families.py", "mapper", "(px * by - py * bx) / det"):
        "det is a Fraction: the source triangle _REF_TRIANGLE has Fraction corners",
    ("families.py", "mapper", "(ax * py - ay * px) / det"):
        "det is a Fraction: the source triangle _REF_TRIANGLE has Fraction corners",
    ("onebend.py", "_align_middle", "-m / rate"):
        "rate is Fraction(m2 - m, shift)",
    ("onebend.py", "_try_place_chain", "span / 4"):
        "span is a Fraction: the baseline y_b adds Fraction(g.unit, 2) or a Fraction(root - y_min, 2)",
}


def _divisions():
    """(module, enclosing function, expression) of every / and /= in the
    package, with repeats."""
    found = []
    for path in sorted(Path(slopeforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def walk(node, func):
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
                if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                    found.append((path.name, func, ast.unparse(child)))
                walk(child, inner)

        walk(tree, None)
    return found


def test_every_division_is_on_the_allow_list():
    found = _divisions()
    assert sorted(set(found) - set(DIVISIONS)) == [], "a new / needs a Fraction on one side and an entry here"
    assert sorted(set(DIVISIONS) - set(found)) == [], "an allow-listed / is gone; drop its entry"
