from __future__ import annotations

import pytest

from slopeforge.drawing import PolylineDrawing
from slopeforge.geometry import Point, SlopeKind, slope_of
from slopeforge.model import EmbeddedGraph
from slopeforge.verify import (
    DrawingError,
    count_slopes,
    embedding_of,
    embeddings_equivalent,
    max_bends,
    validate,
)

from builders import build_plane_graph
from test_model import k4_one_crossing


def P(x, y):
    return Point.of(x, y)


def distinct_slope_count(d: PolylineDrawing) -> int:
    return len({slope_of(seg).vec for _, _, seg in d.all_segments()})


def path_abc() -> EmbeddedGraph:
    return EmbeddedGraph.from_plane(
        build_plane_graph(
            real_vertices=["a", "b", "c"],
            dummy_vertices=[],
            edges={"ab": ("a", "b"), "bc": ("b", "c")},
            rotation={"a": ["ab"], "b": ["ab", "bc"], "c": ["bc"]},
            fragment_of={},
            outer_dart=("ab", "a"),
        )
    )


def square_graph():
    return build_plane_graph(
        real_vertices=["1", "2", "3", "4"],
        dummy_vertices=[],
        edges={"e12": ("1", "2"), "e23": ("2", "3"), "e34": ("3", "4"), "e14": ("1", "4")},
        rotation={
            "1": ["e12", "e14"],
            "2": ["e23", "e12"],
            "3": ["e34", "e23"],
            "4": ["e34", "e14"],
        },
        fragment_of={},
        outer_dart=("e12", "2"),
    )


def square_drawing() -> PolylineDrawing:
    g = EmbeddedGraph.from_plane(square_graph())
    pos = {"1": P(0, 0), "2": P(1, 0), "3": P(1, 1), "4": P(0, 1)}
    polys = {
        "e12": [pos["1"], pos["2"]],
        "e23": [pos["2"], pos["3"]],
        "e34": [pos["3"], pos["4"]],
        "e14": [pos["1"], pos["4"]],
    }
    return PolylineDrawing(g, pos, polys)


def crossed_k4_drawing() -> PolylineDrawing:
    g = EmbeddedGraph.from_plane(k4_one_crossing())
    pos = {"1": P(0, 0), "2": P(1, 0), "3": P(1, 1), "4": P(0, 1)}
    polys = {
        "e12": [pos["1"], pos["2"]],
        "e23": [pos["2"], pos["3"]],
        "e34": [pos["3"], pos["4"]],
        "e14": [pos["1"], pos["4"]],
        "e13": [pos["1"], pos["3"]],
        "e24": [pos["2"], pos["4"]],
    }
    return PolylineDrawing(g, pos, polys)


class TestMeasurements:
    def test_square_is_twobend_clean(self):
        report = validate(square_drawing(), "TWOBEND")
        assert report.passed, report.violations
        assert report.slope_set == {SlopeKind.DEG0, SlopeKind.DEG90}
        assert report.max_bends == 0

    def test_all_horizontal_path_has_one_slope(self):
        d = PolylineDrawing(
            path_abc(),
            {"a": P(0, 0), "b": P(1, 0), "c": P(2, 0)},
            {"ab": [P(0, 0), P(1, 0)], "bc": [P(1, 0), P(2, 0)]},
        )
        assert count_slopes(d) == 1

    def test_two_other_slopes_count_apart(self):
        d = PolylineDrawing(
            path_abc(),
            {"a": P(0, 0), "b": P(1, 2), "c": P(3, 3)},
            {"ab": [P(0, 0), P(1, 2)], "bc": [P(1, 2), P(3, 3)]},
        )
        report = validate(d, "STRAIGHT")
        assert report.slope_set == {SlopeKind.OTHER}
        assert report.slope_count == distinct_slope_count(d) == 2
        assert count_slopes(d) == 1

    def test_staircase_has_two_slopes(self):
        g = EmbeddedGraph.from_plane(
            build_plane_graph(
                real_vertices=["a", "b"],
                dummy_vertices=[],
                edges={"ab": ("a", "b")},
                rotation={"a": ["ab"], "b": ["ab"]},
                fragment_of={},
                outer_dart=("ab", "a"),
            )
        )
        d = PolylineDrawing(
            g,
            {"a": P(0, 0), "b": P(2, 1)},
            {"ab": [P(0, 0), P(1, 0), P(1, 1), P(2, 1)]},
        )
        assert count_slopes(d) == 2
        assert max_bends(d) == 2

    def test_three_bend_edge_fails_twobend(self):
        g = EmbeddedGraph.from_plane(
            build_plane_graph(
                real_vertices=["a", "b"],
                dummy_vertices=[],
                edges={"ab": ("a", "b")},
                rotation={"a": ["ab"], "b": ["ab"]},
                fragment_of={},
                outer_dart=("ab", "a"),
            )
        )
        d = PolylineDrawing(
            g,
            {"a": P(0, 0), "b": P(2, 2)},
            {"ab": [P(0, 0), P(1, 0), P(1, 1), P(2, 1), P(2, 2)]},
        )
        assert max_bends(d) == 3
        report = validate(d, "TWOBEND")
        assert not report.passed
        assert any("bends" in v for v in report.violations)

    def test_straight_profile_counts_slopes(self):
        d = crossed_k4_drawing()
        report = validate(d, "STRAIGHT")
        assert report.max_bends == 0
        assert report.slope_count == 4
        assert report.passed

    def test_zero_length_segment_is_rejected_before_resolution(self):
        # Vertex directions are never zero when the angles are measured:
        # the structure check rejects a repeated polyline point first.
        d = square_drawing()
        d.polylines["e12"] = [P(0, 0), P(1, 0), P(1, 0)]
        with pytest.raises(DrawingError, match="edge e12 has a zero-length segment"):
            validate(d, "TWOBEND")

    def test_crossing_at_an_edge_end_is_measured(self):
        # e1 bends at c, where e2 starts and which e2's second segment
        # passes through: the crossing directions of e2 there include a zero
        # vector, and the report still comes out, with resolution 0.
        g = EmbeddedGraph.from_plane(
            build_plane_graph(
                real_vertices=["a", "b", "c", "d"],
                dummy_vertices=[],
                edges={"e1": ("a", "b"), "e2": ("c", "d")},
                rotation={"a": ["e1"], "b": ["e1"], "c": ["e2"], "d": ["e2"]},
                fragment_of={},
                outer_dart=("e1", "a"),
            )
        )
        pos = {"a": P(-1, 1), "b": P(1, -1), "c": P(0, 0), "d": P(-1, -1)}
        d = PolylineDrawing(
            g, pos, {"e1": [pos["a"], P(0, 0), pos["b"]], "e2": [pos["c"], P(1, 1), pos["d"]]}
        )
        report = validate(d, "ONEBEND")
        assert report.min_crossing_angle == 0
        assert "crossing resolution below pi/4 (got 0)" in report.violations


class TestEmbeddingExtraction:
    def test_triangle_unique_embedding(self):
        g = EmbeddedGraph.from_plane(
            build_plane_graph(
                real_vertices=["a", "b", "c"],
                dummy_vertices=[],
                edges={"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a")},
                rotation={"a": ["ab", "ca"], "b": ["bc", "ab"], "c": ["ca", "bc"]},
                fragment_of={},
                outer_dart=("ab", "b"),
            )
        )
        d = PolylineDrawing(
            g,
            {"a": P(0, 0), "b": P(2, 0), "c": P(1, 2)},
            {"ab": [P(0, 0), P(2, 0)], "bc": [P(2, 0), P(1, 2)], "ca": [P(1, 2), P(0, 0)]},
        )
        induced = embedding_of(d)
        assert embeddings_equivalent(induced, g)

    def test_x_crossing_recovered(self):
        d = crossed_k4_drawing()
        induced = embedding_of(d)
        assert len(induced.crossings()) == 1
        assert embeddings_equivalent(induced, d.graph)

    def test_touch_is_rejected(self):
        g = EmbeddedGraph.from_plane(
            build_plane_graph(
                real_vertices=["a", "b", "c", "d"],
                dummy_vertices=[],
                edges={"ab": ("a", "b"), "cd": ("c", "d")},
                rotation={"a": ["ab"], "b": ["ab"], "c": ["cd"], "d": ["cd"]},
                fragment_of={},
            )
        )
        d = PolylineDrawing(
            g,
            {"a": P(0, 0), "b": P(2, 0), "c": P(1, 0), "d": P(1, 2)},
            {"ab": [P(0, 0), P(2, 0)], "cd": [P(1, 0), P(1, 2)]},
        )
        with pytest.raises(DrawingError):
            embedding_of(d)

    def test_onebend_profile_passes_on_crossed_k4(self):
        d = crossed_k4_drawing()
        report = validate(d, "ONEBEND")
        assert report.passed, report.violations
        assert report.min_crossing_angle == 2
        assert report.embedding_preserved

    def test_mirror_image_is_not_embedding_preserving(self):
        d = crossed_k4_drawing()
        mirrored = PolylineDrawing(
            d.graph,
            {v: P(-p.x, p.y) for v, p in d.positions.items()},
            {e: [P(-p.x, p.y) for p in pts] for e, pts in d.polylines.items()},
        )
        induced = embedding_of(mirrored)
        assert not embeddings_equivalent(induced, d.graph)
