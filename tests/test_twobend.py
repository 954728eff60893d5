from __future__ import annotations

from fractions import Fraction

import pytest

from slopeforge.families import gen_2reg, gen_corpus, gen_crossed_k4, gen_prism
from slopeforge.geometry import Point, SlopeKind
from slopeforge.model import EmbeddedGraph, build_plane_graph
from slopeforge.ordering import st_order
from slopeforge.twobend import (
    OrthoDrawing,
    Staircase,
    TwoBendError,
    bridge_decomposition,
    check_invariants,
    component_plane,
    compute_ports,
    draw_component,
    draw_liu,
    draw_twobend,
    dummy_c_shapes,
    eliminate_cshapes,
    stretch_curve,
)
from slopeforge.verify import validate

from test_verify import square_graph

F = Fraction


def square_plane():
    p = square_graph()
    return p


class TestPorts:
    def test_square_ports(self):
        plane = square_plane()
        st = st_order(plane.adjacency(), "1", "3")
        ports = compute_ports(plane, st)
        # Source: outs N and E; sink: ins S and W.
        assert sorted(ports["1"].values()) == ["E", "N"]
        assert sorted(ports["3"].values()) == ["S", "W"]

    def test_dummy_ports(self):
        g = gen_crossed_k4()
        plane = g.plane
        dummy = plane.dummies()[0]
        outer = plane.outer_face().vertices()
        s = sorted(v for v in outer if v in plane.real)[0]
        t = sorted(v for v in outer if v in plane.real and v != s)[-1]
        st = st_order(plane.adjacency(), s, t)
        ports = compute_ports(plane, st)
        assert len(ports[dummy]) == 4
        assert set(ports[dummy].values()) <= {"N", "S", "E", "W"}


class TestDrawLiu:
    def test_square_shapes(self):
        plane = square_plane()
        d = draw_liu(plane, "1", "3")
        assert check_invariants(d) == []
        shapes = sorted(e.shape() for e in d.edges.values())
        assert set(shapes) <= {"I", "L", "C"}

    def test_edge_moved_across_another_breaks_i1(self):
        d = draw_liu(square_plane(), "1", "3")
        assert d.edges["e12"].points == [Point(F(0), F(1)), Point(F(1), F(1)), Point(F(1), F(2))]
        # e23 now detours left of x=1 and down across e12's horizontal at y=1.
        d.edges["e23"].points = [
            Point(F(x), F(y))
            for x, y in ((1, 2), (F(1, 2), 2), (F(1, 2), F(1, 2)), (F(3, 2), F(1, 2)), (F(3, 2), 4), (1, 4))
        ]
        i1 = [p for p in check_invariants(d) if p.startswith("I1:") and "intersect" in p]
        assert i1 == ["I1: e12 and e23 intersect (proper_crossing)"]

    def test_crossed_k4_component(self):
        g = gen_crossed_k4()
        plane = g.plane.copy()
        d = draw_component(plane, sorted(plane.real)[0])
        assert check_invariants(d) == []
        assert dummy_c_shapes(d) == []


class TestStretch:
    def test_translation_only(self):
        plane = square_plane()
        d = draw_liu(plane, "1", "3")
        before = {v: p for v, p in d.pos.items()}
        xs = sorted(p.x for p in before.values())
        curve = Staircase(xs=[xs[-1] + F(1, 2), xs[-1] + F(1, 2)], ys=[F(0)])
        stretch_curve(d, curve, F(3))
        assert d.pos == before  # everything was left of the curve

    def test_stretch_composes_additively(self):
        plane = square_plane()
        d1 = draw_liu(plane, "1", "3")
        d2 = draw_liu(plane, "1", "3")
        mid = Staircase(xs=[F(1, 2), F(1, 2)], ys=[F(1, 2)])
        stretch_curve(d1, mid, F(2))
        stretch_curve(d1, mid, F(3))
        stretch_curve(d2, mid, F(5))
        assert d1.pos == d2.pos

    def test_vertex_on_curve_rejected(self):
        plane = square_plane()
        d = draw_liu(plane, "1", "3")
        x0 = d.pos["1"].x
        with pytest.raises(TwoBendError):
            stretch_curve(d, Staircase(xs=[x0, x0], ys=[F(1, 2)]), F(1))


class TestPipeline:
    def test_c4_cycle(self):
        g = EmbeddedGraph.from_plane(square_plane())
        drawing = draw_twobend(g)
        report = validate(drawing, "TWOBEND")
        assert report.passed, report.violations
        assert report.slope_set <= {SlopeKind.DEG0, SlopeKind.DEG90}

    def test_crossed_k4(self):
        g = gen_crossed_k4()
        drawing = draw_twobend(g, check_steps=True)
        report = validate(drawing, "TWOBEND")
        assert report.passed, report.violations
        assert report.min_crossing_angle == 2

    def test_prism(self):
        drawing = draw_twobend(gen_prism(), check_steps=True)
        report = validate(drawing, "TWOBEND")
        assert report.passed, report.violations

    def test_braid(self):
        drawing = draw_twobend(gen_2reg(3), check_steps=True)
        report = validate(drawing, "TWOBEND")
        assert report.passed, report.violations

    def test_multiblock_subcubic(self):
        for g in gen_corpus(seed=4, n_target=22, profile="subcubic", count=3):
            drawing = draw_twobend(g, check_steps=True)
            report = validate(drawing, "TWOBEND")
            assert report.passed, report.violations

    def test_bridge_decomposition_counts(self):
        gs = gen_corpus(seed=2, n_target=24, profile="subcubic", count=6)
        best = max(len(bridge_decomposition(g).components) for g in gs)
        assert best >= 3
