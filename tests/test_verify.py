from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

import oracles
from slopeforge import docio, verify
from slopeforge.drawing import PolylineDrawing
from slopeforge.families import gen_2reg, gen_3reg18, gen_corpus, gen_crossed_k4, gen_k4_embedded, gen_maxdeg, gen_prism
from slopeforge.geometry import Point, SlopeKind, slope_of
from slopeforge.model import EmbeddedGraph
from slopeforge.onebend import draw_onebend
from slopeforge.twobend import draw_twobend
from slopeforge.verify import (
    PROFILES,
    DrawingError,
    ValidationReport,
    embedding_from_geometry,
    embedding_of,
    embeddings_equivalent,
    max_bends,
    validate,
)
from slopeforge.verify import _min_resolution, _sort_edge_dirs_ccw

from adversarial import adversarial_suite
from builders import build_plane_graph, point
from oracles import min_angle_eighths_lower_bound
from test_model import k4_one_crossing


def P(x, y):
    return point(x, y)


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


def folded_edge_drawing(reverse: bool = False) -> PolylineDrawing:
    """e1 bends at c, where e2 starts and which e2 passes through again on
    its way back; reverse draws e2's polyline from d."""
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
    e2 = [pos["c"], P(1, 1), pos["d"]]
    return PolylineDrawing(g, pos, {"e1": [pos["a"], P(0, 0), pos["b"]], "e2": e2[::-1] if reverse else e2})


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
        assert validate(d, "STRAIGHT").slope_count == 1

    def test_two_other_slopes_count_apart(self):
        d = PolylineDrawing(
            path_abc(),
            {"a": P(0, 0), "b": P(1, 2), "c": P(3, 3)},
            {"ab": [P(0, 0), P(1, 2)], "bc": [P(1, 2), P(3, 3)]},
        )
        report = validate(d, "STRAIGHT")
        assert report.slope_set == {SlopeKind.OTHER}
        assert report.slope_count == distinct_slope_count(d) == 2

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
        assert validate(d, "TWOBEND").slope_count == 2
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

    def test_a_polyline_joins_its_endpoints_in_either_direction(self):
        d = square_drawing()
        d.polylines["e23"].reverse()
        assert d.check_structure() == []
        assert validate(d, "STRAIGHT").passed
        for pts in ([P(1, 0), P(2, 1), P(1, 0)], [P(1, 1), P(2, 1), P(1, 1)],
                    [P(1, 0), P(2, 1), P(2, 2)]):
            d.polylines["e23"] = pts
            assert d.check_structure() == ["polyline of e23 does not join its endpoints"]

    @pytest.mark.parametrize("profile", ["ONEBEND", "TWOBEND", "STRAIGHT"])
    @pytest.mark.parametrize("field, message", [
        ("polylines", "polyline of unknown edge zz"),
        ("positions", "position of unknown vertex zz"),
    ])
    def test_an_entry_the_graph_lacks_is_rejected(self, profile, field, message):
        d = square_drawing()
        if field == "polylines":
            d.polylines["zz"] = [P(0, 0), P(5, 5)]
        else:
            d.positions["zz"] = P(5, 5)
        with pytest.raises(DrawingError, match=f"^{message}$"):
            validate(d, profile)

    def test_crossing_at_an_edge_end_is_measured(self):
        # e1 bends at c, where e2 starts and which e2's second segment
        # passes through: the crossing directions of e2 there include a zero
        # vector, which is no ray, and the report still comes out.  The rays
        # left at c, e1's two and e2's toward (1, 1), are a quarter turn apart.
        report = validate(folded_edge_drawing(), "ONEBEND")
        assert report.min_crossing_angle == 2
        assert not any("crossing resolution" in v for v in report.violations)


def loose_edges_drawing(polylines) -> PolylineDrawing:
    """One edge per polyline, each between two vertices of its own: edge e
    runs from ea to eb."""
    edges = {e: (f"{e}a", f"{e}b") for e in polylines}
    first = min(edges)
    g = EmbeddedGraph.from_plane(
        build_plane_graph(
            real_vertices=[v for ends in edges.values() for v in ends],
            dummy_vertices=[],
            edges=edges,
            rotation={v: [e] for e, ends in edges.items() for v in ends},
            fragment_of={},
            outer_dart=(first, f"{first}a"),
        )
    )
    pos = {v: pts[end] for e, pts in polylines.items() for v, end in zip(edges[e], (0, -1))}
    return PolylineDrawing(g, pos, dict(polylines))


class TestTruePoints:
    """The validator decides on the drawing scaled to integers, and every
    message that names a point prints it at the drawing's own scale."""

    @pytest.mark.parametrize("polylines, message", [
        (
            {"e": [P(0, 0), P(8, 0)], "f": [P("63/16", 0), P("63/16", 1)]},
            "edges f and e touch at (63/16,0) (non-simple)",
        ),
        (
            {"e": [P(0, 0), P("5/2", 1), P(5, 0)], "f": [P(0, 2), P("5/2", 1), P(5, 2)]},
            "edges f and e meet at (5/2,1), not a common endpoint (non-simple)",
        ),
        (
            {"e": [P(0, 0), P(1, 1)], "f": [P(0, 1), P(1, 0)], "g": [P("1/2", 0), P("1/2", 1)]},
            "more than two edges cross at (1/2,1/2)",
        ),
    ])
    def test_interaction_messages(self, polylines, message):
        d = loose_edges_drawing(polylines)
        for profile in PROFILES:
            assert message in validate(d, profile).violations
        with pytest.raises(DrawingError, match=f"^{re.escape(message)}$"):
            embedding_of(d)

    def test_coincidence_message(self):
        d = loose_edges_drawing({"e": [P(0, 0), P("7/3", 1)], "f": [P("7/3", 1), P(3, 3)]})
        with pytest.raises(DrawingError, match=re.escape("vertices eb and fa coincide at (7/3,1)")):
            validate(d, "STRAIGHT")


class TestOnePass:
    def test_validate_reads_the_segments_and_each_crossing_once(self, monkeypatch):
        # Straight edges and one proper crossing: no corner test and no
        # lowest bend locates a point, so the only _locate calls are the
        # ray table's, one per edge through the crossing.
        calls = []
        locate, all_segments = verify._locate, PolylineDrawing.all_segments
        monkeypatch.setattr(verify, "_locate", lambda pts, pt: calls.append("locate") or locate(pts, pt))
        monkeypatch.setattr(PolylineDrawing, "all_segments", lambda d: calls.append("segments") or all_segments(d))
        report = validate(crossed_k4_drawing(), "ONEBEND")
        assert report.passed and report.embedding_preserved
        assert sorted(calls) == ["locate", "locate", "segments"]


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


def low_bend_drawing() -> PolylineDrawing:
    """The lowest point is a bend of e, which runs from b, crosses f and
    bends before it reaches a; e's polyline is drawn from a."""
    pos = {"a": P(-2, 2), "b": P(2, 3), "c": P(0, 3), "d": P(1, 1)}
    edges = {"e": ("b", "a"), "f": ("c", "d"), "ac": ("a", "c")}
    polylines = {"e": [pos["a"], P(-1, 0), pos["b"]], "f": [pos["c"], pos["d"]], "ac": [pos["a"], pos["c"]]}
    return PolylineDrawing(embedding_from_geometry(pos, edges, polylines), pos, polylines)


def _drawings():
    """1- and 2-bend drawings of the families, the adversarial suite and
    corpus graphs, and the hand-built drawings above."""
    cubic = [gen_k4_embedded(), gen_prism(), gen_crossed_k4(), gen_3reg18()]
    cubic += [gen_corpus(seed=s, n_target=12 + 4 * (s % 3), profile="cubic3con")[0] for s in range(1000, 1006)]
    subcubic = [gen_2reg(k) for k in (2, 3, 5)] + [gen_maxdeg(3)] + [g for _, g in adversarial_suite()[::4]]
    subcubic += [gen_corpus(seed=s, n_target=16, profile="subcubic")[0] for s in range(1000, 1004)]
    drawn = [draw_onebend(g) for g in cubic] + [draw_twobend(g) for g in cubic[:3] + subcubic]
    return drawn + [folded_edge_drawing(), folded_edge_drawing(reverse=True), low_bend_drawing()]


def _moved(d: PolylineDrawing, v: str, p: Point) -> PolylineDrawing:
    """d with vertex v at p, its edges' ends dragged along."""
    old = d.positions[v]
    polylines = {e: [p if q == old else q for q in pts] for e, pts in d.polylines.items()}
    return PolylineDrawing(d.graph, {**d.positions, v: p}, polylines)


def _perturbed(d: PolylineDrawing):
    """d with a vertex moved onto, or next to, another vertex, d with every
    polyline straightened to its ends, and d with every polyline drawn from
    its edge's second end."""
    names = sorted(d.positions)
    for v, w in ((names[0], names[1]), (names[-1], names[len(names) // 2])):
        at_w, at_v = d.positions[w], d.positions[v]
        yield _moved(d, v, at_w)
        near = Point(at_w.x + Fraction(at_v.x - at_w.x, 64), at_w.y + Fraction(at_v.y - at_w.y, 64))
        yield _moved(d, v, near)
    yield PolylineDrawing(d.graph, d.positions, {e: [pts[0], pts[-1]] for e, pts in d.polylines.items()})
    yield PolylineDrawing(d.graph, d.positions, {e: pts[::-1] for e, pts in d.polylines.items()})


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestRayTableOracle:
    """validate and embedding_of read the resolutions and the induced
    embedding off one sorted ray table; the oracle finds the rays once for
    the resolutions and again for the embedding."""

    def test_reports_and_embeddings_match_the_two_ray_sets(self):
        violations = []
        for base in _drawings():
            for d in [base, *_perturbed(base)]:
                for profile in PROFILES:
                    got = _outcome(validate, d, profile)
                    assert got == _outcome(oracles.validate_by_two_ray_sets, d, profile)
                    if isinstance(got, ValidationReport):
                        violations += got.violations
                got, want = _outcome(embedding_of, d), _outcome(oracles.embedding_of_by_two_ray_sets, d)
                if isinstance(got, EmbeddedGraph):
                    got, want = docio.graph_to_doc(got), docio.graph_to_doc(want)
                assert got == want
        kinds = ("overlap", "touch at", "meet at", "times", "adjacent edges", "resolution below", "crossing resolution")
        for kind in kinds:
            assert any(kind in v for v in violations), kind


class TestMinResolution:
    def test_sorted_rays_give_the_lower_bound_of_any_order(self):
        """_min_resolution reads the gaps of the rays the ray table holds
        sorted, zero rays last; min_angle_eighths_lower_bound sorts its
        rays first.  On random ray sets, zero rays, equal and opposite rays
        included, both give the same answer."""
        dirs = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
                (2, 1), (-1, 3), (5, -2), (0, 0)]
        rng = random.Random(37)
        answers = set()
        zeros = 0
        for _ in range(600):
            rays = []
            for i in range(rng.randint(0, 7)):
                dx, dy = rng.choice(dirs)
                scale = rng.choice((1, 3, Fraction(2, 7)))
                rays.append(((dx * scale, dy * scale), f"e{i}", "a"))
            zeros += any(r[0] == (0, 0) for r in rays)
            want = min_angle_eighths_lower_bound([r[0] for r in rays])
            assert _min_resolution({"p": _sort_edge_dirs_ccw(rays)}) == want, rays
            answers.add(want)
        assert answers == {None, 0, 1, 2, 3, 4}
        assert zeros >= 100
