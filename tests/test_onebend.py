from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from slopeforge import graphutil, onebend
from slopeforge.docio import drawing_to_doc, dumps
from slopeforge.families import (
    gen_corpus,
    gen_crossed_k4,
    gen_k4_embedded,
    gen_prism,
)
from slopeforge.drawing import PolylineDrawing
from slopeforge.geometry import (
    Point, Segment, SlopeKind, bend_count, octant, prepare, strip_collinear, sweep_hits,
)
from slopeforge.model import EmbeddedGraph, PlaneGraph, find_real_real_face
from slopeforge.onebend import (
    Gamma,
    OneBendDrawer,
    OneBendError,
    PORTS,
    Plan,
    _apex,
    _arrival_port,
    _blockers,
    _check_simple,
    _clear_amount,
    _middle_mismatch,
    _needed_gap,
    check_gamma,
    check_step,
    draw_onebend,
    stretch,
    stretch_cut,
)
from slopeforge.ordering import canonical_order
from slopeforge.reembed import normalize_embedding
from slopeforge.verify import max_bends, validate

from builders import gen_fig_like
from oracles import (
    apex_by_line_intersection,
    arrival_dir,
    chain_baseline_by_span,
    check_gamma_by_points,
    check_stretch,
    clear_amount_by_cases,
    cut_components_by_rebuild,
    elbows_feasible_by_cases,
    first_rightward_horizontal,
    from_stationary_end,
    horizontal_edges_by_points,
    needed_gap_by_cases,
    port_dirs_by_points,
    preds_on_contour_by_scan,
    shape_by_points,
    split_edges,
    stretch_by_fractions,
    unabsorbing_ends_by_points,
    window,
)

F = Fraction


def build_drawer(g):
    norm = normalize_embedding(g)
    plane = norm.plane.copy()
    face, (tail, head), _ = find_real_real_face(plane)
    if set(face.darts) != set(plane.outer_face().darts):
        plane = plane.with_outer(face.darts[0])
    delta = canonical_order(plane, head, tail)
    return OneBendDrawer(plane, delta)


def _base_s_t_plane():
    """Base edge v1-v2, an edge s from v1 to a, and a free edge t from c to b."""
    return PlaneGraph(
        vertices=["v1", "v2", "a", "b", "c"],
        real={"v1", "v2", "a", "b", "c"},
        edges={"base": ("v1", "v2"), "s": ("v1", "a"), "t": ("c", "b")},
        rotation={"v1": ["base", "s"], "v2": ["base"], "a": ["s"], "b": ["t"], "c": ["t"]},
        fragment_of={},
    )


def stretch_cut_by_rebuild(g, left_anchor):
    """Reference for onebend.stretch_cut: rebuilds the cut graph and its
    components on every round of the rigid-edge loop."""
    base = g.base_edge

    def cut_graph(cut):
        adj = {v: set() for v in g.pos}
        for e in g.drawn_edges():
            if e == base or e in cut:
                continue
            a, b = g.plane.edges[e]
            adj[a].add(b)
            adj[b].add(a)
        return adj

    hor = horizontal_edges_by_points(g)
    rigid = set()
    while True:
        comps = graphutil.components(cut_graph(hor - rigid))
        comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
        anchor_comp = comp_of[left_anchor]
        ia = max(
            (i for i, v in enumerate(g.contour) if comp_of[v] == anchor_comp),
            default=0,
        )
        stay_comps = {comp_of[g.contour[i]] for i in range(ia + 1)}
        contour_comps = {comp_of[v] for v in g.contour}
        if any(comp_of[v] not in stay_comps for v in g.contour):
            t_lo = max(g.pos[g.contour[i]].x for i in range(ia + 1))
            for ci, comp in enumerate(comps):
                if ci in stay_comps or ci in contour_comps:
                    continue
                if max(g.pos[v].x for v in comp) <= t_lo:
                    stay_comps.add(ci)
        left = {v for v in g.pos if comp_of[v] in stay_comps}
        newly_rigid = {
            e for e in split_edges(g, left)
            if first_rightward_horizontal(from_stationary_end(g, e, left)) is None
        }
        if not newly_rigid:
            break
        rigid |= newly_rigid
    if g.v2 in left:
        raise OneBendError("stretch cut would move the right base vertex's side leftward")
    return left


def hand_built(plane, pos, polylines, unit=1, **rest):
    """A Gamma over `unit` drawn by hand: pos maps each vertex, and
    polylines each edge, to points given as (x, y) pairs of true
    coordinates, each a multiple of 1 / unit."""

    def at(xy):
        x, y = (Fraction(c) * unit for c in xy)
        assert x.denominator == y.denominator == 1
        return Point(x.numerator, y.numerator)

    return Gamma(plane=plane, v1="v1", v2="v2", unit=unit,
                 pos={v: at(xy) for v, xy in pos.items()},
                 polylines={e: [at(xy) for xy in pts] for e, pts in polylines.items()}, **rest)


def rebuilt_segments(g):
    """Every drawn segment, built afresh, with its edge, in drawing order."""
    return [
        (e, Segment(p, q)) for e in g.drawn_edges() for p, q in zip(g.polylines[e], g.polylines[e][1:])
    ]


def blockers_by_sweep(g, new_segments, allowed_points):
    """Reference for onebend._blockers: sweeps every drawn segment, rebuilt,
    together with the new ones, and keeps the pairs of a drawn and a new
    segment that meet anywhere but at an allowed end of the new one."""
    drawn = rebuilt_segments(g)
    segs = [s for _, s in drawn] + new_segments
    blocked = set()
    for i, j, res in sweep_hits([prepare(s) for s in segs]):
        old, new = min(i, j), max(i, j)
        if new < len(drawn) or old >= len(drawn):
            continue
        seg = segs[new]
        if res.point not in allowed_points or res.point not in (seg.a, seg.b):
            blocked.add(old)
    return [drawn[k] for k in sorted(blocked)]


def assert_index_is_fresh(g):
    """The record that g._index holds for each drawn edge, the base edge's
    included, equals a rebuild from its polyline: the prepared segments,
    the shape and the end the polyline starts at.  So do the flat segment
    lists, the ports at every placed vertex and the ends of the edges that
    cannot absorb a stretch."""
    for e, pts in g.polylines.items():
        segs = [prepare(Segment(p, q)) for p, q in zip(pts, pts[1:])]
        rec = g._index[e]
        assert (rec.segs, rec.shape) == (segs, shape_by_points(pts)), e
        assert pts[0] == g.pos[rec.start], e
        assert pts[-1] == g.pos[g.plane.other_end(e, rec.start)], e
    drawn = rebuilt_segments(g)
    assert g.indexed() == ([e for e, _ in drawn], [prepare(s) for _, s in drawn])
    for v in g.pos:
        assert g.port_dirs(v) == port_dirs_by_points(g, v), v
    assert sorted(g.unabsorbing_ends()) == unabsorbing_ends_by_points(g)


def assert_cut_forest_is_fresh(g):
    """The cut forest g keeps equals a rebuild: the same components of the
    placed vertices, each vertex labelled with its own component."""
    root, members = g.cut_components()
    assert sorted(map(sorted, members.values())) == sorted(map(sorted, cut_components_by_rebuild(g)))
    assert root == {v: r for r, vs in members.items() for v in vs}
    assert all(g.component(v) == r for v, r in root.items())


class TestBase:
    def test_base_is_valid(self):
        drawer = build_drawer(gen_prism())
        drawer._draw_base(drawer.delta.sets[1])
        assert check_gamma(drawer.g) == []

    def test_base_flat_on_the_base_line(self):
        drawer = build_drawer(gen_prism())
        drawer._draw_base(drawer.delta.sets[1])
        g = drawer.g
        for v in drawer.delta.sets[1].vertices:
            assert g.pos[v].y == 0

    def test_base_low_point_is_lowest(self):
        drawer = build_drawer(gen_k4_embedded())
        drawer._draw_base(drawer.delta.sets[1])
        g = drawer.g
        base_edge = [e for e in g.polylines if len(g.polylines[e]) == 3][0]
        low = g.polylines[base_edge][1]
        assert all(low.y < p.y or p == low for p in g.pos.values() if p != low)


class TestStretch:
    def test_monotone_rightward(self):
        drawer = build_drawer(gen_prism())
        drawer._draw_base(drawer.delta.sets[1])
        for i in range(2, len(drawer.delta.sets) - 1):
            drawer._add_set(drawer.delta.sets[i])
        g = drawer.g
        before = {v: g.unscaled(p) for v, p in g.pos.items()}
        anchor = g.contour[1]
        stretch(g, stretch_cut(g, anchor), 3 * g.unit)
        for v, p in g.pos.items():
            p = g.unscaled(p)
            assert p.x >= before[v].x, "stretching moved a point leftward"
            assert p.y == before[v].y or v in (g.v1, g.v2)

    def test_invariants_survive_stretch(self):
        drawer = build_drawer(gen_prism())
        drawer._draw_base(drawer.delta.sets[1])
        for i in range(2, len(drawer.delta.sets) - 1):
            drawer._add_set(drawer.delta.sets[i])
        g = drawer.g
        stretch(g, stretch_cut(g, g.contour[1]), 5 * g.unit)
        assert check_gamma(g) == []

    def test_rejects_a_left_side_that_moves_v1_or_keeps_v2(self):
        """The base edge is drawn through a low point that holds only when
        v1 stays and v2 moves; any other `left` is refused untouched."""
        drawer = build_drawer(gen_prism())
        drawer._draw_base(drawer.delta.sets[1])
        for i in range(2, len(drawer.delta.sets) - 1):
            drawer._add_set(drawer.delta.sets[i])
        g = drawer.g
        left = stretch_cut(g, g.contour[1])
        pos, lines = dict(g.pos), dict(g.polylines)
        for bad in (left - {g.v1}, left | {g.v2}):
            with pytest.raises(OneBendError, match="keep v1 and move v2"):
                stretch(g, bad, 5 * g.unit)
            assert (g.pos, g.polylines) == (pos, lines)


class TestStretchCheck:
    def test_agrees_with_full_check_on_every_stretch(self, monkeypatch):
        seen = []
        real_stretch = onebend.stretch

        def checked_stretch(g, left, delta):
            done = real_stretch(g, left, delta)
            seen.append((bool(check_stretch(g, left)), bool(_check_simple(g))))
            return done

        monkeypatch.setattr(onebend, "stretch", checked_stretch)
        graphs = [gen_fig_like()]
        for seed in (44, 45):
            for target in (12, 16, 20, 24, 28):
                graphs += gen_corpus(seed=seed, n_target=target, profile="cubic3con", count=1)
        for g in graphs:
            draw_onebend(g)
        assert len(seen) >= 20
        assert all(new == full for new, full in seen)

    @staticmethod
    def _stretched_gamma(shift):
        """Base v1-v2, a stationary edge s with a horizontal at y=4, and an
        edge t that a stretch translated by `shift` along that line; over
        the unit 2, which holds the base edge's low point."""
        pos = {"v1": (0, 0), "v2": (10 + shift, 0), "a": (4, 4), "c": (-4 + shift, 4), "b": (-2 + shift, 4)}
        low = F(10 + shift, 2)
        polylines = {
            "base": [pos["v1"], (low, -low), pos["v2"]],
            "s": [pos["v1"], (0, 4), pos["a"]],
            "t": [pos["c"], pos["b"]],
        }
        return hand_built(_base_s_t_plane(), pos, polylines, unit=2), {"v1", "a"}

    def test_rejects_translated_segment_pushed_onto_stationary(self):
        before, _ = self._stretched_gamma(0)
        assert _check_simple(before) == []
        after, left = self._stretched_gamma(5)
        assert check_stretch(after, left)
        assert _check_simple(after)
        clear, left = self._stretched_gamma(1)
        assert check_stretch(clear, left) == [] == _check_simple(clear)


class TestRescale:
    @staticmethod
    def _drawing():
        """The contour v1, c, v2 over a base edge, with cv split by a cut
        after c and absorbing along its horizontal, and mb moving whole."""
        edges = {"base": ("v1", "v2"), "vc": ("v1", "c"), "cv": ("c", "v2"), "mb": ("m", "b")}
        rotation = {"v1": ["vc", "base"], "c": ["cv", "vc"], "v2": ["base", "cv"],
                    "b": ["mb"], "m": ["mb"]}
        plane = PlaneGraph(vertices=sorted(rotation), real=set(rotation), edges=edges,
                           rotation=rotation, fragment_of={})
        return hand_built(
            plane,
            {"v1": (0, 0), "v2": (20, 0), "c": (10, 10), "b": (5, 5), "m": (15, 17)},
            {
                "base": [(0, 0), (10, -10), (20, 0)],
                "vc": [(0, 0), (10, 10)],
                "cv": [(20, 0), (30, 10), (10, 10)],
                "mb": [(5, 5), (3, 5), (15, 17)],
            },
            contour=["v1", "c", "v2"],
        )

    def test_stretches_off_the_grid_match_the_fraction_reference(self):
        """Stretched by 1/3, then 1/2, then 2/7, the int drawing rescales
        and keeps the points, shapes and boxes (in its units) that Fraction
        coordinates give; every record is current and every coordinate an
        int."""
        g = self._drawing()
        pos = {v: g.unscaled(p) for v, p in g.pos.items()}
        lines = {e: [g.unscaled(p) for p in pts] for e, pts in g.polylines.items()}
        units = []
        for amount in (F(1, 3), F(1, 2), F(2, 7)):
            left = stretch_cut(g, "v1")
            assert left == {"v1", "c"}
            pos, lines = stretch_by_fractions(g.plane, "v1", "v2", pos, lines, left, amount)
            moved = stretch(g, left, amount * g.unit)
            units.append(g.unit)
            assert moved == amount * g.unit
            assert {v: g.unscaled(p) for v, p in g.pos.items()} == pos
            assert {e: [g.unscaled(p) for p in pts] for e, pts in g.polylines.items()} == lines
            for e, pts in lines.items():
                rec = g._index[e]
                assert rec.shape == shape_by_points(pts), e
                assert [s[1] for s in rec.segs] == [tuple(c * g.unit for c in prepare(Segment(p, q))[1])
                                                    for p, q in zip(pts, pts[1:])]
            assert_index_is_fresh(g)
            assert all(type(c) is int for p in g.pos.values() for c in (p.x, p.y))
        # The low point lies half of v2's x right of v1: 1/3 and then the low
        # point's 1/2 (v2 at 20 + 1/3) rescale by 6 and the headroom; the low
        # point's 1/2 again (v2 at 20 + 5/6) fits in the headroom; 2/7
        # rescales by 7 and the headroom.
        h = 2 ** onebend._HEADROOM
        assert units == [6 * h, 6 * h, 42 * h * h]

    # onebend-cubic's 40 inputs (perfbench's ONEBEND_TIERS), where 90/1024
    # and 90/1029 fail.
    ONEBEND_CUBIC = [(20, seed) for seed in range(1000, 1033)] + [
        (90, seed) for seed in range(1024, 1030)] + [(200, 13)]

    def test_outputs_do_not_depend_on_the_starting_unit(self, monkeypatch):
        """A drawer whose Gamma starts at unit 3 or 640 gives the bytes, or
        the failure message, of one that starts at 1: every output divides
        by the unit and every check is homogeneous in the coordinates,
        which is what lets a rescale take headroom."""
        inputs = sorted(set(self.ONEBEND_CUBIC) | {(90, seed) for seed in range(1000, 1040)})
        graphs = [gen_corpus(seed=seed, n_target=n_target, profile="cubic3con", count=1)[0]
                  for n_target, seed in inputs]

        def outcomes():
            out = []
            for graph in graphs:
                try:
                    out.append(dumps(drawing_to_doc(draw_onebend(graph))))
                except OneBendError as exc:
                    out.append(str(exc))
            return out

        at_1 = outcomes()
        assert sum(not out.startswith("{") for out in at_1) == 6
        for unit in (3, 640):
            made = []

            def starting_at_unit(**fields):
                made.append(Gamma(unit=unit, **fields))
                return made[-1]

            monkeypatch.setattr(onebend, "Gamma", starting_at_unit)
            assert outcomes() == at_1, unit
            assert len(made) == len(graphs) and all(g.unit % unit == 0 for g in made)

    def test_a_rescale_leaves_every_int_a_multiple_of_the_headroom(self, monkeypatch):
        """Right after every rescale inside grid_ints, every stored
        coordinate (the positions, the polylines, the records' segments
        and boxes) and every int grid_ints returns is a multiple of
        2**_HEADROOM."""
        real_grid_ints = Gamma.grid_ints
        step = 2 ** onebend._HEADROOM
        rescales = 0

        def checked_grid_ints(g, values):
            nonlocal rescales
            unit = g.unit
            out = real_grid_ints(g, values)
            if g.unit != unit:
                rescales += 1
                stored = [c for p in g.pos.values() for c in p]
                stored += [c for pts in g.polylines.values() for p in pts for c in p]
                for rec in g._index.values():
                    for seg, box in rec.segs:
                        stored += [*seg.a, *seg.b, *box]
                assert all(c % step == 0 for c in stored + out)
            return out

        monkeypatch.setattr(Gamma, "grid_ints", checked_grid_ints)
        for n_target, seed in self.ONEBEND_CUBIC:
            try:
                draw_onebend(gen_corpus(seed=seed, n_target=n_target, profile="cubic3con", count=1)[0])
            except OneBendError:
                assert (n_target, seed) in ((90, 1024), (90, 1029))
        assert rescales >= 40


def _state(g):
    return dict(g.pos), {e: list(p) for e, p in g.polylines.items()}, list(g.contour)


def _drawing_stages(graph):
    """The drawer after its base and after each later set but the last."""
    drawer = build_drawer(graph)
    drawer._draw_base(drawer.delta.sets[1])
    yield drawer
    for cs in drawer.delta.sets[2:-1]:
        drawer._add_set(cs)
        yield drawer


class TestStretchPlan:
    GRAPH = dict(seed=44, n_target=24, profile="cubic3con", count=1)

    def test_cut_leaves_the_drawing_unchanged(self):
        cuts = 0
        for drawer in _drawing_stages(gen_corpus(**self.GRAPH)[0]):
            g = drawer.g
            before = _state(g)
            for v in g.contour:
                try:
                    stretch_cut(g, v)
                    cuts += 1
                except OneBendError:
                    pass
                assert _state(g) == before
        assert cuts >= 20

    def test_cut_that_keeps_the_target_changes_nothing(self, monkeypatch):
        for drawer in _drawing_stages(gen_corpus(**self.GRAPH)[0]):
            g = drawer.g
            before = _state(g)
            with monkeypatch.context() as m:
                m.setattr(onebend, "stretch", None)  # must not be reached
                for left_v, right_v in zip(g.contour[1:], g.contour):
                    assert not drawer._stretch_between(left_v, right_v, F(2))
                    assert _state(g) == before

    def test_cut_matches_a_rebuild_per_round(self, monkeypatch):
        """The union-find stretch_cut keeps the same set as the reference at
        every cut the drawer makes, and refuses the same cuts."""
        real_cut = onebend.stretch_cut
        cuts = 0

        def both(g, left_anchor):
            nonlocal cuts
            cuts += 1
            try:
                expected = stretch_cut_by_rebuild(g, left_anchor)
            except OneBendError as exc:
                with pytest.raises(OneBendError, match=str(exc)):
                    real_cut(g, left_anchor)
                raise
            left = real_cut(g, left_anchor)
            assert left == expected
            return left

        monkeypatch.setattr(onebend, "stretch_cut", both)
        graphs = [gen_fig_like()]
        for target in (16, 20, 24, 28):
            graphs += gen_corpus(seed=44, n_target=target, profile="cubic3con", count=1)
        graphs += gen_corpus(seed=13, n_target=200, profile="cubic3con", count=1)
        graphs += gen_corpus(seed=1033, n_target=90, profile="cubic3con", count=1)
        for g in graphs:
            draw_onebend(g)
        assert cuts >= 100

    def test_a_rigid_edge_merges_a_buried_component_with_one_right_of_the_cut(self):
        """The contour v1, c, v2 splits after c, at x = 10.  Below it, b at
        x = 5 and m at x = 15 lie in components of their own, joined by an
        edge whose only horizontal runs leftward from b.  The first round
        keeps b and moves m; that edge cannot absorb, so it turns rigid, and
        b moves with m."""
        edges = {"base": ("v1", "v2"), "vc": ("v1", "c"), "cv": ("c", "v2"), "mb": ("m", "b")}
        rotation = {"v1": ["vc", "base"], "c": ["cv", "vc"], "v2": ["base", "cv"],
                    "b": ["mb"], "m": ["mb"]}
        plane = PlaneGraph(vertices=sorted(rotation), real=set(rotation), edges=edges,
                           rotation=rotation, fragment_of={})
        g = hand_built(
            plane,
            {"v1": (0, 0), "v2": (20, 0), "c": (10, 10), "b": (5, 5), "m": (15, 17)},
            {
                "base": [(0, 0), (10, -10), (20, 0)],
                "vc": [(0, 0), (10, 10)],
                "cv": [(10, 10), (30, 10), (20, 0)],
                "mb": [(5, 5), (3, 5), (15, 17)],
            },
            contour=["v1", "c", "v2"],
        )
        assert stretch_cut(g, "v1") == {"v1", "c"} == stretch_cut_by_rebuild(g, "v1")

    def test_align_amount_matches_a_probe_stretch(self, monkeypatch):
        """_align_middle reads its amount off the anchor positions; stretching
        a copy of the drawing by 4 and measuring the mismatch again must give
        the same amount, for the same cut."""
        real_stretch = onebend.stretch
        real_align = OneBendDrawer._align_middle
        applied = []
        compared = []

        def probe_amounts(g, pl, pr, pm):
            """The amounts in g's units; the probe is 4 units long."""
            probe = 4 * g.unit
            m = _middle_mismatch(g.pos, pl, pr, pm)
            out = {}
            for cut, must_move in ((pl.anchor, pm.anchor), (pm.anchor, pr.anchor)):
                trial = Gamma(
                    plane=g.plane, v1=g.v1, v2=g.v2, pos=dict(g.pos),
                    polylines={e: list(p) for e, p in g.polylines.items()},
                    contour=list(g.contour), unit=g.unit,
                )
                try:
                    left = stretch_cut(trial, cut)
                except OneBendError:
                    continue
                if must_move in left:
                    continue
                real_stretch(trial, left, probe)
                m2 = _middle_mismatch(trial.pos, pl, pr, pm)
                if m2 is not None:
                    m2 = Fraction(m2 * g.unit, trial.unit)  # back in g's units
                if m2 is not None and m2 != m:
                    out[frozenset(left)] = -m / (Fraction(m2 - m) / probe)
            return out

        def recorded_stretch(g, left, delta):
            applied.append((frozenset(left), delta))
            return real_stretch(g, left, delta)

        def checked_align(self, pl, pr, pm):
            expected = probe_amounts(self.g, pl, pr, pm)
            start = len(applied)
            done = real_align(self, pl, pr, pm)
            for left, delta in applied[start:]:
                assert expected.get(left) == delta
                compared.append(delta)
            return done

        monkeypatch.setattr(onebend, "stretch", recorded_stretch)
        monkeypatch.setattr(OneBendDrawer, "_align_middle", checked_align)
        for target, seed in ((200, 13), (20, 1000), (20, 1001)):
            draw_onebend(gen_corpus(seed=seed, n_target=target, profile="cubic3con", count=1)[0])
        assert len(compared) >= 1


class TestStepCheck:
    def test_agrees_with_full_check_at_every_step(self, monkeypatch):
        """check_step reports what check_gamma and the checker on rebuilt
        segments report, at every step."""
        seen = []
        real_check_step = onebend.check_step

        def both(g, old):
            problems = real_check_step(g, old)
            assert check_gamma_by_points(g) == problems
            seen.append((problems, check_gamma(g)))
            return problems

        monkeypatch.setattr(onebend, "check_step", both)
        graphs = []
        for seed in range(60, 84):
            target = (12, 16, 20, 24)[seed % 4]
            graphs += gen_corpus(seed=seed, n_target=target, profile="cubic3con", count=1)
        for g in graphs:
            draw_onebend(g)
        assert len(graphs) >= 20 and len(seen) >= 100
        assert all(step == full for step, full in seen)

    def test_the_recorded_span_is_the_contour_diff(self, monkeypatch):
        """The span each step hands check_step is the span of the contour
        that differs from the one before the step, widened by one vertex
        on each side; after the base, the whole contour."""
        spans = []
        real_check_step = onebend.check_step
        last = {"g": None, "contour": None}

        def recorded(g, span):
            if g is last["g"]:
                assert span == window(last["contour"], g.contour), "span differs from the contour diff"
            else:
                assert span == (0, len(g.contour) - 1), "the base step checks less than the contour"
            last.update(g=g, contour=list(g.contour))
            spans.append(span)
            return real_check_step(g, span)

        monkeypatch.setattr(onebend, "check_step", recorded)
        for seed in range(60, 84):
            target = (12, 16, 20, 24)[seed % 4]
            draw_onebend(gen_corpus(seed=seed, n_target=target, profile="cubic3con", count=1)[0])
        assert len(spans) >= 100 and any(hi - lo > 2 for lo, hi in spans)

    def test_agrees_with_full_check_on_larger_contours(self, monkeypatch):
        """The same on 70- to 90-vertex graphs, and on the two known failing
        inputs up to the P6 and P4b breaks that stop them."""
        seen = []
        real_check_step = onebend.check_step

        def both(g, old):
            problems = real_check_step(g, old)
            assert check_gamma_by_points(g) == problems
            seen.append((problems, check_gamma(g)))
            return problems

        monkeypatch.setattr(onebend, "check_step", both)
        inputs = [(1024, 90), (1025, 90), (1026, 90), (499, 32)]
        for seed, target in inputs:
            g = gen_corpus(seed=seed, n_target=target, profile="cubic3con", count=1)[0]
            try:
                draw_onebend(g)
            except OneBendError:
                assert seed in (1024, 499)
        assert all(step == full for step, full in seen)
        assert sum(1 for step, _ in seen if step) == 2
        assert len(seen) >= 100

    def test_the_predecessors_are_the_contour_scans(self, monkeypatch):
        """_preds_on_contour reads the members' own rotations.  At every
        step of the two corpora above it gives the list the scan of every
        contour vertex's rotation gives, in contour order."""
        seen = []
        preds_on_contour = OneBendDrawer._preds_on_contour

        def both(drawer, members):
            got = preds_on_contour(drawer, members)
            assert got == preds_on_contour_by_scan(drawer, members), members
            seen.append(len(got))
            return got

        monkeypatch.setattr(OneBendDrawer, "_preds_on_contour", both)
        inputs = [(seed, (12, 16, 20, 24)[seed % 4]) for seed in range(60, 84)]
        inputs += [(1024, 90), (1025, 90), (1026, 90), (499, 32)]
        for seed, target in inputs:
            g = gen_corpus(seed=seed, n_target=target, profile="cubic3con", count=1)[0]
            try:
                draw_onebend(g)
            except OneBendError:
                assert seed in (1024, 499)
        assert len(seen) >= 300 and set(seen) >= {2, 3}, (len(seen), set(seen))

    @staticmethod
    def _step_onto_c_and_e(spare_at_c):
        """A drawing whose contour v1, a, b, c, e, d, v2 passes its checks,
        then the step that draws w on the contour between c and e.

        The path from v1 to b holds a vertical, so P4(c) must separate
        them: v1 lies in the cut-graph component of a, i, d and e, and b in
        that of c.  The new edges cw and ew join the two.  With
        `spare_at_c`, c keeps a free edge, so it stays attachable with the
        upper port NE in use.  Returns the drawing and the contour span
        the step replaced, from c to e.
        """
        edges = {
            "base": ("v1", "v2"), "s": ("v1", "a"), "h": ("a", "b"), "bc": ("b", "c"),
            "ce": ("c", "e"), "ed": ("e", "d"), "dv2": ("d", "v2"), "v1i": ("v1", "i"),
            "id": ("i", "d"), "ub": ("b", "yb"), "cw": ("c", "w"), "ew": ("e", "w"),
            "wz": ("w", "z"), "uc": ("c", "yc"),
        }
        rotation = {
            "v1": ["v1i", "s", "base"], "v2": ["dv2", "base"], "a": ["h", "s"],
            "b": ["ub", "h", "bc"], "c": ["ce", "cw", "uc", "bc"], "e": ["ew", "ce", "ed"],
            "d": ["dv2", "ed", "id"], "i": ["v1i", "id"], "w": ["wz", "cw", "ew"],
            "yb": ["ub"], "yc": ["uc"], "z": ["wz"],
        }
        if not spare_at_c:
            rotation["c"].remove("uc")
            del rotation["yc"], edges["uc"]
        plane = PlaneGraph(vertices=sorted(rotation), real=set(rotation), edges=edges,
                           rotation=rotation, fragment_of={})
        g = hand_built(
            plane,
            {"v1": (0, 0), "v2": (40, 0), "a": (2, 10), "b": (8, 10), "c": (12, 10),
             "e": (16, 10), "d": (20, 6), "i": (4, 4)},
            {
                "base": [(0, 0), (20, -20), (40, 0)],
                "s": [(0, 0), (0, 8), (2, 10)],
                "h": [(2, 10), (8, 10)],
                "bc": [(8, 10), (10, 8), (12, 10)],
                "ce": [(12, 10), (16, 10)],
                "ed": [(16, 10), (20, 6)],
                "dv2": [(20, 6), (34, 6), (40, 0)],
                "v1i": [(0, 0), (4, 4)],
                "id": [(4, 4), (11, -3), (20, 6)],
            },
            contour=["v1", "a", "b", "c", "e", "d", "v2"],
        )
        assert check_step(g, (0, len(g.contour) - 1)) == [] == check_gamma(g)
        g.pos["w"] = Point(14, 12)
        g.draw("cw", [Point(12, 10), Point(14, 12)])
        g.draw("ew", [Point(16, 10), Point(14, 12)])
        g.contour = ["v1", "a", "b", "c", "w", "e", "d", "v2"]
        return g, (3, 5)

    def test_p4c_rechecks_a_pair_outside_the_window(self):
        """The step leaves its window sound; the full check finds the pair
        before it that the new edges joined."""
        g, span = self._step_onto_c_and_e(spare_at_c=False)
        assert check_step(g, span) == []
        problems = check_gamma(g)
        assert problems == ["P4c: no all-horizontal cut separates v1 from b"]
        assert problems == check_gamma_by_points(g)

    def test_end_predecessor_that_stays_attachable_is_rechecked(self):
        g, span = self._step_onto_c_and_e(spare_at_c=True)
        assert check_step(g, span) == []
        problems = check_gamma(g)
        assert problems == [
            "P4c: no all-horizontal cut separates v1 from b",
            "P5: attachable real c has occupied upper ports ['NE']",
        ]
        assert problems == check_gamma_by_points(g)

    def test_new_point_outside_the_base_wedge_gets_the_full_p3(self):
        """Over the unit 2, the message names the point in true coordinates."""
        g = self._gamma_with_new_edge([(-2, 2), (-2, 4)], unit=2)
        problems = check_gamma(g)
        assert problems == [f"P3: {Point(-2, 2)} lies on a base support line"]
        assert problems == check_gamma_by_points(g)

    def test_a_vertical_before_the_first_horizontal_is_found_from_either_end(self):
        """The contour path v1, a, v2 runs N, E, then E, S.  Read from v1 it
        climbs before its first horizontal, and so it does read from v2;
        both ends are attachable with their diagonal upper port free."""
        edges = {"base": ("v1", "v2"), "s": ("v1", "a"), "t": ("a", "v2"),
                 "sy": ("v1", "y"), "tz": ("v2", "z")}
        rotation = {"v1": ["base", "sy", "s"], "v2": ["tz", "base", "t"], "a": ["s", "t"],
                    "y": ["sy"], "z": ["tz"]}
        plane = PlaneGraph(vertices=sorted(rotation), real=set(rotation), edges=edges,
                           rotation=rotation, fragment_of={})
        g = hand_built(
            plane,
            {"v1": (0, 0), "v2": (10, 0), "a": (4, 4)},
            {
                "base": [(0, 0), (5, -5), (10, 0)],
                "s": [(0, 0), (0, 4), (4, 4)],
                "t": [(4, 4), (10, 4), (10, 0)],
            },
            contour=["v1", "a", "v2"],
        )
        p4a = [
            "P4a: vertical before any horizontal between v1 and v2",
            "P4a: vertical before any horizontal between v2 and v1 (reverse)",
        ]
        # The whole contour, as after the base, and the span of the step
        # that put a between v1 and v2: the same three vertices.
        assert check_step(g, (0, len(g.contour) - 1)) == p4a
        assert check_step(g, (0, 2)) == p4a
        problems = check_gamma(g)
        assert problems == p4a + [
            "P5: attachable real v1 has occupied upper ports ['N']",
            "P5: attachable real v2 has occupied upper ports ['N']",
        ]
        assert problems == check_gamma_by_points(g)

    def test_full_check_after_the_final_vertex_only(self, monkeypatch):
        drawer = build_drawer(gen_corpus(seed=61, n_target=16, profile="cubic3con", count=1)[0])
        full, steps = [], []
        real_check_gamma, real_check_step = onebend.check_gamma, onebend.check_step

        def counted_full(g):
            full.append(drawer.steps)
            return real_check_gamma(g)

        def counted_step(g, old):
            steps.append(drawer.steps)
            return real_check_step(g, old)

        monkeypatch.setattr(onebend, "check_gamma", counted_full)
        monkeypatch.setattr(onebend, "check_step", counted_step)
        drawer.run()
        n = drawer.steps
        assert full == [n]
        assert steps == list(range(1, n))

    @staticmethod
    def _gamma_with_new_edge(t_pts, unit=1):
        """Base v1-v2, an old edge s with a horizontal at y=4, and an edge t
        just drawn along t_pts; over `unit`."""
        pos = {"v1": (0, 0), "v2": (10, 0), "a": (4, 4), "c": t_pts[0], "b": t_pts[-1]}
        polylines = {
            "base": [pos["v1"], (5, -5), pos["v2"]],
            "s": [pos["v1"], (0, 4), pos["a"]],
            "t": t_pts,
        }
        return hand_built(_base_s_t_plane(), pos, polylines, unit=unit)

    def test_rejects_new_edge_crossing_an_old_segment(self):
        clear = self._gamma_with_new_edge([(6, 2), (6, 3)])
        assert check_gamma(clear) == []
        crossing = self._gamma_with_new_edge([(2, 2), (2, 6)])
        problems = check_gamma(crossing)
        assert "simple: t and s intersect improperly (proper_crossing)" in problems
        assert problems == check_gamma_by_points(crossing)

    def test_rejects_new_edge_off_the_slopes(self):
        g = self._gamma_with_new_edge([(6, 2), (6, 3), (7, 5), (7, 6)])
        problems = check_gamma(g)
        assert "P1: segment of t off the canonical slopes" in problems
        assert problems == check_gamma_by_points(g)

    def test_a_reversal_is_not_a_bend(self):
        """t runs up, back down over itself and up again: no bend, as the
        coordinates count bends, but its segments overlap."""
        g = self._gamma_with_new_edge([(6, 2), (6, 5), (6, 3), (6, 6)])
        problems = check_gamma(g)
        assert not any(p.startswith("P2") for p in problems)
        assert "simple: t and t intersect improperly (overlap)" in problems
        assert problems == check_gamma_by_points(g)

    @pytest.mark.parametrize("t_pts, bends", [
        ([(6, 2), (6, 3), (7, 5), (8, 7), (8, 8)], 2),
        ([(6, 2), (6, 3), (7, 5), (8, 8), (8, 9)], 3),
    ])
    def test_segments_off_the_slopes_bend_as_the_coordinates_say(self, t_pts, bends):
        """t leaves both ends vertically, with two segments off the canonical
        slopes between.  They have no octant: on one line they make no bend,
        and on two lines they make one."""
        g = self._gamma_with_new_edge(t_pts)
        problems = check_gamma(g)
        assert "P1: segment of t off the canonical slopes" in problems
        assert g.edge_bend_count("t") == bends
        assert f"P2: edge t has {bends} bends" in problems
        assert problems == check_gamma_by_points(g)

    def test_a_fold_off_the_slopes_is_a_bend(self):
        """t climbs off the slopes to (8, 7) and folds back along that line
        to (7, 5): a turn, a fold and a turn, which the drawer, the
        polyline count and the validator all count as 3 bends."""
        g = self._gamma_with_new_edge([(6, 2), (6, 3), (8, 7), (7, 5), (7, 6)])
        pts = g.polylines["t"]
        assert g.edge_bend_count("t") == bend_count(pts) == 3
        assert max_bends(PolylineDrawing(EmbeddedGraph(g.plane), {}, {"t": pts})) == 3
        problems = check_gamma(g)
        assert "P2: edge t has 3 bends" in problems
        assert problems == check_gamma_by_points(g)

    @staticmethod
    def _gamma_with_third_edge_at_v1(port_end):
        """Base v1-v2 and an edge s from v1 to a drawn before; an edge u just
        drawn from v1 to c = port_end.  The rotation at v1 is base, s, u, and
        base leaves v1 on SE and s on N, so u must leave between N and SE."""
        plane = PlaneGraph(
            vertices=["v1", "v2", "a", "c"],
            real={"v1", "v2", "a", "c"},
            edges={"base": ("v1", "v2"), "s": ("v1", "a"), "u": ("v1", "c")},
            rotation={"v1": ["base", "s", "u"], "v2": ["base"], "a": ["s"], "c": ["u"]},
            fragment_of={},
        )
        pos = {"v1": (0, 0), "v2": (10, 0), "a": (4, 4), "c": port_end}
        polylines = {
            "base": [pos["v1"], (5, -5), pos["v2"]],
            "s": [pos["v1"], (0, 4), pos["a"]],
            "u": [pos["v1"], pos["c"]],
        }
        return hand_built(plane, pos, polylines)

    def test_rejects_new_edge_out_of_rotation_order(self):
        in_order = self._gamma_with_third_edge_at_v1((-2, 0))
        assert check_gamma(in_order) == []
        out_of_order = self._gamma_with_third_edge_at_v1((2, 2))
        problems = check_gamma(out_of_order)
        assert "rotation at v1 not preserved" in problems
        assert problems == check_gamma_by_points(out_of_order)


class TestSegmentIndex:
    # The last six are among the few inputs whose placements meet blockers.
    INPUTS = [(90, seed) for seed in range(1024, 1029)] + [
        (200, 13), (32, 499), (90, 1033), (32, 403), (32, 421), (32, 1074), (32, 1133), (32, 1140)]

    def test_queries_match_the_sweeps_at_every_step_and_attempt(self, monkeypatch):
        """At every placement attempt and every step check, the index equals
        a rebuild, and at every attempt the blocked segments equal those of
        the sweep over rebuilt segments."""
        real_blockers, real_check_step = onebend._blockers, onebend.check_step
        attempts, steps, blocked, broken = 0, 0, 0, 0

        def checked_blockers(g, new_segments, allowed_points):
            nonlocal attempts, blocked
            attempts += 1
            assert_index_is_fresh(g)
            expected = blockers_by_sweep(g, new_segments, allowed_points)
            found = real_blockers(g, new_segments, allowed_points)
            assert found == expected
            blocked += bool(found)
            return found

        def checked_step(g, old):
            nonlocal steps, broken
            steps += 1
            assert_index_is_fresh(g)
            problems = real_check_step(g, old)
            broken += bool(problems)
            return problems

        monkeypatch.setattr(onebend, "_blockers", checked_blockers)
        monkeypatch.setattr(onebend, "check_step", checked_step)
        for target, seed in self.INPUTS:
            g = gen_corpus(seed=seed, n_target=target, profile="cubic3con", count=1)[0]
            try:
                draw_onebend(g)
            except OneBendError:
                assert seed in (1024, 499)
        assert attempts >= 400 and blocked >= 6
        assert steps >= 400 and broken == 2

    def test_message_names_the_pair_the_sweep_meets_first(self):
        """t crosses the horizontal of s and, lower down, the base edge.  The
        base edge comes first in drawing order, but the sweep meets s first."""
        g = TestStepCheck._gamma_with_new_edge([(1, 6), (1, 2), (1, -3)])
        problems = check_gamma(g)
        simple = [p for p in problems if p.startswith("simple:")]
        assert simple == ["simple: t and s intersect improperly (proper_crossing)"]
        assert problems == check_gamma_by_points(g)

    def test_new_edges_meeting_each_other_are_caught(self):
        """Two new edges that cross only each other, over the unit 2."""
        g = TestStepCheck._gamma_with_new_edge([(6, 2), (6, 3)], unit=2)
        g.plane.edges["u"] = ("a", "v2")
        g.plane.rotation["a"].append("u")
        g.plane.rotation["v2"].append("u")
        g.draw("u", [g.pos["a"], Point(11, 5), Point(15, 5), g.pos["v2"]])
        problems = check_gamma(g)
        assert problems[-1] == "simple: t and u intersect improperly (proper_crossing)"
        assert problems == check_gamma_by_points(g)

    def test_coinciding_vertices_without_a_meeting_pair_are_caught(self):
        """Over the unit 2, the message names the point in true coordinates."""
        g = TestStepCheck._gamma_with_new_edge([(6, 2), (6, 3)], unit=2)
        del g.polylines["t"]
        g.pos["b"] = g.pos["c"]
        problems = check_gamma(g)
        assert problems[-1] == f"simple: vertices b and c coincide at {Point(6, 2)}"
        assert problems == check_gamma_by_points(g)

    def test_a_stretch_prepares_only_what_it_reshapes(self, monkeypatch):
        """A stretch prepares the segments of its split edges and the two of
        the base edge, which it draws anew, and shifts those of the edges it
        translates; every record, the base edge's included, is then
        current."""
        real_prepare = onebend.prepare
        prepared = []
        stretches = 0

        def counted_prepare(seg):
            prepared.append(seg)
            return real_prepare(seg)

        monkeypatch.setattr(onebend, "prepare", counted_prepare)
        for drawer in _drawing_stages(gen_corpus(**TestStretchPlan.GRAPH)[0]):
            g = drawer.g
            for v in g.contour[:-1]:
                assert_index_is_fresh(g)
                try:
                    left = stretch_cut(g, v)
                except OneBendError:
                    continue
                split = split_edges(g, left)
                start = len(prepared)
                assert drawer._stretch_between(v, g.v2, F(3))
                assert len(prepared) - start == 2 + sum(len(g.polylines[e]) - 1 for e in split)
                assert_index_is_fresh(g)
                stretches += 1
        assert stretches >= 20

    def test_records_are_carried_through_every_stretch(self, monkeypatch):
        """After every stretch and every rescale, each record, the base
        edge's included, equals a rebuild."""
        real_stretch = onebend.stretch
        real_scale = Gamma._scale
        stretches = scales = 0

        def checked_stretch(g, left, delta):
            nonlocal stretches
            done = real_stretch(g, left, delta)
            assert_index_is_fresh(g)
            stretches += 1
            return done

        def checked_scale(g, k):
            nonlocal scales
            real_scale(g, k)
            assert_index_is_fresh(g)
            scales += 1

        monkeypatch.setattr(onebend, "stretch", checked_stretch)
        monkeypatch.setattr(Gamma, "_scale", checked_scale)
        inputs = [(20, seed) for seed in (*range(1000, 1007), 1013)] + [(90, 1031), (90, 1028)]
        for target, seed in inputs:
            draw_onebend(gen_corpus(seed=seed, n_target=target, profile="cubic3con", count=1)[0])
        assert stretches >= 100 and scales >= 10


class TestKeptStructures:
    """The cut forest, the flat segment index and the unabsorbing ends,
    which Gamma keeps across steps and writes only through draw and
    redraw."""

    INPUTS = [(200, 13)] + [(90, seed) for seed in range(1025, 1029)]

    def test_match_a_rebuild_at_every_step_and_after_a_rescale(self, monkeypatch):
        """After every step of the drawer, and after a rescale of each
        finished drawing, the components equal a rebuild over the drawn
        edges other than the base edge and the horizontal-bearing ones, and
        the flat index and the unabsorbing ends equal rebuilds from the
        polylines."""
        real_post_step = OneBendDrawer._post_step
        steps = 0

        def checked_post_step(self, label):
            nonlocal steps
            assert_cut_forest_is_fresh(self.g)
            assert_index_is_fresh(self.g)
            steps += 1
            return real_post_step(self, label)

        monkeypatch.setattr(OneBendDrawer, "_post_step", checked_post_step)
        graphs = [gen_fig_like()] + [
            gen_corpus(seed=seed, n_target=target, profile="cubic3con", count=1)[0]
            for target, seed in self.INPUTS]
        for graph in graphs:
            g = onebend._run_pipeline(graph)[0].g
            labels, _ = g.indexed()
            g._scale(3)
            assert g.indexed()[0] is labels
            assert_cut_forest_is_fresh(g)
            assert_index_is_fresh(g)
        assert steps >= 300

    def test_a_vertex_no_uncut_edge_reaches_is_a_component_of_its_own(self):
        """Over the base edge, s from v1 to a, and t from c to b: before t
        is drawn, b and c are placed and reached by no drawn edge; once
        drawn, t joins them unless it has a horizontal segment, and the
        base edge joins nothing."""
        for t, joined in (([(4, 4), (6, 6)], True), ([(4, 4), (6, 4), (8, 6)], False)):
            g = hand_built(_base_s_t_plane(),
                           {"v1": (0, 0), "v2": (10, 0), "a": (0, 4), "c": (4, 4), "b": t[-1]},
                           {"base": [(0, 0), (5, -5), (10, 0)], "s": [(0, 0), (0, 4)]})
            assert_cut_forest_is_fresh(g)
            assert len({g.component(v) for v in g.pos}) == 4
            g.draw("t", [Point(*xy) for xy in t])
            assert_cut_forest_is_fresh(g)
            assert_index_is_fresh(g)
            assert (g.component("b") == g.component("c")) == joined
            assert g.component("v1") == g.component("a") != g.component("v2")


class TestBlockers:
    @staticmethod
    def _drawing():
        """Segments in drawing order: base (0,0)-(5,-5) and (5,-5)-(10,0),
        s (0,0)-(0,4) and (0,4)-(4,4), t (6,2)-(6,3)."""
        return TestStepCheck._gamma_with_new_edge([(6, 2), (6, 3)])

    @staticmethod
    def _segs(*coords):
        return [Segment(Point(F(x1), F(y1)), Point(F(x2), F(y2))) for x1, y1, x2, y2 in coords]

    def test_blocked_segments_once_each_in_drawing_order(self):
        g = self._drawing()
        drawn = rebuilt_segments(g)
        new = self._segs((3, 6, 3, -10), (1, 5, 1, 3))
        assert _blockers(g, new, set()) == [drawn[0], drawn[3]]

    def test_hits_at_allowed_points_do_not_block(self):
        g = self._drawing()
        a = g.pos["a"]
        new = self._segs((4, 4, 4, 8), (4, 8, 8, 8))
        assert _blockers(g, new, {a}) == []
        assert _blockers(g, new, set()) == [rebuilt_segments(g)[3]]

    def test_a_ray_through_another_anchor_blocks(self):
        """A ray from v1 up NE through the anchor a, which ends the
        horizontal of s: a is allowed only where a new segment ends."""
        g = self._drawing()
        drawn = rebuilt_segments(g)
        allowed = {g.pos["v1"], g.pos["a"]}
        assert _blockers(g, self._segs((0, 0, 4, 4)), allowed) == []
        assert _blockers(g, self._segs((0, 0, 6, 6)), allowed) == [drawn[3]]

    def test_new_vertex_on_an_existing_point_blocks(self):
        g = self._drawing()
        drawn = rebuilt_segments(g)
        allowed = {g.pos["a"]}
        on_s = self._segs((4, 4, 2, 6), (2, 6, 2, 4))
        assert _blockers(g, on_s, allowed) == [drawn[3]]
        on_v2 = self._segs((4, 4, 10, 10), (10, 10, 10, 0))
        assert _blockers(g, on_v2, allowed) == [drawn[1]]


class TestChainBaseline:
    def test_rays_that_cross_above_the_higher_anchor_get_no_baseline(self):
        """The left anchor a = (10, 0) takes NW and the right anchor b takes
        N.  With b at (0, 5), a's ray is right of b at b's height and
        crosses b's column at y = 10, so no baseline keeps the two
        connections apart.  With b at (6, 5), the rays diverge from b's
        height up, and the baseline lies half a unit above b."""
        drawer = build_drawer(gen_prism())
        pl = Plan("a", "s", "NW", corner=False)
        pr = Plan("b", "t", "N", corner=False)
        drawer.g = hand_built(_base_s_t_plane(), {"a": (10, 0), "b": (0, 5)}, {})
        assert drawer._chain_baseline(pl, pr) is None
        drawer.g = hand_built(_base_s_t_plane(), {"a": (10, 0), "b": (6, 5)}, {})
        assert drawer._chain_baseline(pl, pr) == F(11, 2)


class TestRayModel:
    """The step geometry read off the port lines, against its case tables
    (see oracles), on every pair of upward ports and seeded int and
    Fraction anchors."""

    PAIRS = list(itertools.product(onebend.UP_PORTS, repeat=2))

    @staticmethod
    def _coord(rng, fractions):
        c = rng.randint(-12, 12)
        return Fraction(c, rng.choice((1, 2, 3, 4))) if fractions else c

    def _cases(self):
        """(pos, unit) over anchors a, b and m, each seed once with ints and
        once with Fractions; every third seed puts b at a's height."""
        for seed in range(60):
            for fractions in (False, True):
                rng = random.Random(seed)
                pos = {v: Point(self._coord(rng, fractions), self._coord(rng, fractions))
                       for v in "abm"}
                if seed % 3 == 0:
                    pos["b"] = Point(pos["b"].x, pos["a"].y)
                yield pos, rng.choice((1, 2, 6))

    @staticmethod
    def _same(new, old):
        """new() and old() give equal values, or raise equal messages."""
        try:
            expected = old()
        except OneBendError as exc:
            with pytest.raises(OneBendError) as info:
                new()
            assert str(info.value) == str(exc)
            return
        assert new() == expected

    def test_apex_needed_gap_and_mismatch_match_the_case_tables(self):
        nones = raises = 0
        for pos, unit in self._cases():
            g = SimpleNamespace(pos=pos, unit=unit)
            for lp, rp in self.PAIRS:
                pl, pr = Plan("a", "s", lp, corner=False), Plan("b", "t", rp, corner=False)
                old = apex_by_line_intersection(pos, pl, pr)
                assert _apex(pos, pl, pr) == old
                nones += old is None
                w = pos["m"]
                for mp in onebend.UP_PORTS:
                    pm = Plan("m", "u", mp, corner=False)
                    want = None if old is None else old.x - (w.x + onebend.DIRS[mp][0] * (old.y - w.y))
                    assert _middle_mismatch(pos, pl, pr, pm) == want
                for extra in (1, 3):
                    self._same(lambda: _needed_gap(g, pl, pr, extra),
                               lambda: needed_gap_by_cases(g, pl, pr, extra))
                raises += onebend.DIRS[lp][0] <= onebend.DIRS[rp][0]
        assert nones > 100 and raises > 100

    def test_chain_baselines_match_the_span_form(self):
        drawer = build_drawer(gen_prism())
        nones = 0
        for pos, unit in self._cases():
            drawer.g = SimpleNamespace(pos=pos, unit=unit)
            for lp, rp in self.PAIRS:
                pl, pr = Plan("a", "s", lp, corner=False), Plan("b", "t", rp, corner=False)
                old = chain_baseline_by_span(drawer.g, pl, pr)
                assert drawer._chain_baseline(pl, pr) == old
                nones += old is None
        assert nones > 100

    def test_clear_amounts_and_elbows_match_the_case_tables(self):
        """The elbow apexes lie beyond, on and short of each bend, and at
        the anchor's height."""
        drawer = build_drawer(gen_prism())
        outcomes = []
        for pos, unit in self._cases():
            drawer.g = g = SimpleNamespace(pos=pos, unit=unit)
            seg = Segment(pos["m"], Point(pos["m"].x + 3, pos["b"].y))
            for port in onebend.UP_PORTS:
                plan = Plan("a", "s", port, corner=False)
                assert _clear_amount(g, plan, seg) == clear_amount_by_cases(g, plan, seg)
            a = pos["a"]
            shifts = ((5, 2), (-5, 2), (2, 2), (-2, 2), (1, 2), (3, 0))
            for port, (dx, dy) in itertools.product(("NE", "NW"), shifts):
                apex = Point(a.x + dx, a.y + dy)
                plans = [Plan("a", "s", port, corner=False, style="elbow"),
                         Plan("b", "t", "N", corner=False)]
                old = elbows_feasible_by_cases(pos, apex, plans)
                assert drawer._elbows_feasible(apex, plans) == old
                outcomes.append(old)
        assert outcomes.count(True) > 200 and outcomes.count(False) > 500

    def test_arrival_ports_are_the_octants_of_the_arrival_directions(self):
        """A ray arrives at an apex on its line above its anchor, an elbow
        at any apex."""
        checked = 0
        for pos, _ in self._cases():
            for lp, rp in self.PAIRS:
                pl, pr = Plan("a", "s", lp, corner=False), Plan("b", "t", rp, corner=False)
                apex = _apex(pos, pl, pr)
                if apex is None:
                    continue
                plans = [pl, pr] + [Plan("m", "u", p, corner=False, style="elbow") for p in ("NE", "NW")]
                for plan in plans:
                    old = PORTS[octant(arrival_dir(plan, pos[plan.anchor], apex))]
                    assert _arrival_port(pos, plan, apex) == old
                    checked += 1
        assert checked > 500


class TestChainSpacing:
    def test_the_step_is_the_largest_power_of_two_units_that_fits(self):
        """n steps of unit * 2**k fit in the width, and n steps of twice that
        do not, over widths on either side of the powers of two."""
        for unit in (1, 3, 12):
            for n in (1, 2, 3, 7):
                for width in (F(1, 5), F(1, 2), F(3, 4), 1, F(7, 3), 8, 9, 1000, F(4097, 2)):
                    width *= n * unit
                    step = onebend._dyadic_step(width, n, unit)
                    k = F(step, unit)
                    assert k.numerator & (k.numerator - 1) == 0 == k.denominator & (k.denominator - 1)
                    assert n * step <= width < 2 * n * step

    def test_members_after_the_first_sit_a_step_apart_and_the_last_at_the_right_end(self, monkeypatch):
        """Every chain of three or more members a draw commits lies on its
        baseline with a power-of-two multiple of the unit between
        neighbours, save the last gap, which is at least one step."""
        real = OneBendDrawer._replace_contour
        chains = 0

        def checked(self, u_l, u_r, members):
            nonlocal chains
            if len(members) > 2:
                chains += 1
                xs = [self.g.pos[z].x for z in members]
                gaps = [F(b - a, self.g.unit) for a, b in zip(xs, xs[1:])]
                assert len({self.g.pos[z].y for z in members}) == 1
                step = gaps[0]
                assert step.numerator & (step.numerator - 1) == 0 == step.denominator & (step.denominator - 1)
                assert gaps[:-1] == [step] * (len(gaps) - 1) and gaps[-1] >= step
            return real(self, u_l, u_r, members)

        monkeypatch.setattr(OneBendDrawer, "_replace_contour", checked)
        for seed in range(1024, 1030):
            try:
                draw_onebend(gen_corpus(seed=seed, n_target=90, profile="cubic3con", count=1)[0])
            except OneBendError:
                pass
        assert chains >= 5


class TestPipeline:
    @pytest.mark.parametrize(
        "gen", [gen_k4_embedded, gen_prism, gen_crossed_k4, gen_fig_like]
    )
    def test_fixture_graphs(self, gen):
        d = draw_onebend(gen())
        report = validate(d, "ONEBEND")
        assert report.passed, report.violations
        assert report.slope_set <= {
            SlopeKind.DEG0, SlopeKind.DEG45, SlopeKind.DEG90, SlopeKind.DEG135
        }
        assert report.max_bends <= 1
        assert report.min_vertex_angle >= 1
        assert report.embedding_preserved

    def test_crossing_resolution_exact(self):
        d = draw_onebend(gen_crossed_k4())
        report = validate(d, "ONEBEND")
        assert report.min_crossing_angle is not None
        assert report.min_crossing_angle >= 1

    def test_per_step_checker_runs(self):
        drawer = build_drawer(gen_fig_like())
        drawer.run()
        assert drawer.steps >= 3 and drawer.trace is None

    def test_trace_holds_true_coordinates(self):
        """The last step of the trace is the drawing, though the drawer
        ended over a unit above 1."""
        g = gen_corpus(seed=1001, n_target=20, profile="cubic3con", count=1)[0]
        drawer, d = onebend._run_pipeline(g, trace=True)
        assert drawer.g.unit > 1
        last = drawer.trace[-1]
        for e, pts in d.polylines.items():
            if e in last:
                line = strip_collinear(last[e])
                assert pts in (line, line[::-1]), e

    def test_rejects_non_cubic(self):
        from slopeforge.families import gen_2reg

        with pytest.raises(OneBendError):
            draw_onebend(gen_2reg(2))

    def test_corpus_graphs(self):
        for g in gen_corpus(seed=77, n_target=14, profile="cubic3con", count=3):
            d = draw_onebend(g)
            report = validate(d, "ONEBEND")
            assert report.passed, report.violations

    def test_a_draw_validates_the_plane_once(self, monkeypatch):
        g = gen_crossed_k4()
        calls = []
        validate_plane = PlaneGraph.validate
        monkeypatch.setattr(PlaneGraph, "validate", lambda plane: calls.append(1) or validate_plane(plane))
        d = draw_onebend(g)
        # The normalizer's validation; the drawing reuses its original edges.
        assert len(calls) == 1
        assert d.graph.edges == d.graph.plane.original_edges()

    def test_deterministic(self):
        g = gen_fig_like()
        d1 = draw_onebend(g)
        d2 = draw_onebend(g)
        assert d1.positions == d2.positions
        assert d1.polylines == d2.polylines


class TestRepairBytes:
    """The output bytes of cubic3con drawings that reach each repair the
    drawer keeps, so that a change to one of them shows; the smallest
    table inputs that reach each."""

    @pytest.mark.parametrize("n_target, seed, digest", [
        pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in [
            # _align_middle's cut (pl, pm), then its cut (pm, pr).
            (20, 1000, "a61453d8efd88f355bae43c4ecd55d2bcf12f260411bc15d2eaab48ea9debcf8"),
            (20, 1001, "6d97d175f3c5abd3fd6e6d7535acb54dfd1bd09546e9a829987221ea86c16dbe"),
            # A _try_place attempt that runs all MAX_REPAIRS rounds.
            (20, 1006, "7fe389ab095adbe2c2c3390669c96562ddba594c02625edea2c18fb1dc09d680"),
            # _resolve_blocker's left branch, then its right branch.
            (32, 1074, "2c527b79e33fd25858b0bc46db8e76cffbf7a3c4c55ea4de0d4d0ae940bb6627"),
            (32, 1140, "b883bac7ca141a5517a74a9afad79b9ae9ff4c9f9b49d1b4216cc528fe2ad23f"),
            # _resolve_blocker from a chain attempt.
            (32, 1133, "657bb89981460415918ec21c2a93e555c8a50c62bb0c35084da669fe50fdfcfb"),
            # A chain attempt that fails before another port pair places it.
            (32, 1009, "77e4289e6f37cf258c536146339f654c0a33af913b3c4ddccecbda7a1588f892"),
        ]
    ])
    def test_drawing_bytes_are_pinned(self, n_target, seed, digest):
        g = gen_corpus(seed=seed, n_target=n_target, profile="cubic3con", count=1)[0]
        assert hashlib.sha256(dumps(drawing_to_doc(draw_onebend(g))).encode()).hexdigest() == digest


class TestOneBendInts:
    def test_every_stored_coordinate_is_an_int_after_every_step(self, monkeypatch):
        """After every step of cubic3con draws, every coordinate in the
        positions, the polylines and every edge record (its segments and
        their boxes) is an int, not a bool; after every draw,
        each record, the base edge's included, equals a rebuild."""
        real_post_step = OneBendDrawer._post_step
        real_draw = Gamma.draw
        steps = draws = 0
        units = set()

        def ints(values):
            return all(type(c) is int for c in values)

        def checked_post_step(self, label):
            nonlocal steps
            g = self.g
            steps += 1
            units.add(g.unit)
            assert ints(c for p in g.pos.values() for c in (p.x, p.y))
            assert ints(c for pts in g.polylines.values() for p in pts for c in (p.x, p.y))
            for rec in g._index.values():
                for seg, box in rec.segs:
                    assert ints((seg.a.x, seg.a.y, seg.b.x, seg.b.y) + box)
            return real_post_step(self, label)

        def checked_draw(g, e, pts):
            nonlocal draws
            real_draw(g, e, pts)
            assert_index_is_fresh(g)
            draws += 1

        monkeypatch.setattr(OneBendDrawer, "_post_step", checked_post_step)
        monkeypatch.setattr(Gamma, "draw", checked_draw)
        for n_target in (12, 20, 32):
            for seed in range(1000, 1020):
                g = gen_corpus(seed=seed, n_target=n_target, profile="cubic3con", count=1)[0]
                try:
                    draw_onebend(g)
                except OneBendError:
                    pass
        assert steps >= 500 and draws >= 1000 and max(units) > 1


class TestOneBendBytes:
    """One digest over the 1-bend outputs of cubic3con inputs: each
    drawing's document, or the message of a draw that fails."""

    INPUTS = [(n, seed) for n in (12, 20, 32, 40) for seed in range(1000, 1030)] + [
        (90, seed) for seed in range(1024, 1030)] + [(32, 404), (32, 499)]

    def test_outputs_are_pinned(self):
        h = hashlib.sha256()
        failed = 0
        for n_target, seed in self.INPUTS:
            g = gen_corpus(seed=seed, n_target=n_target, profile="cubic3con", count=1)[0]
            try:
                out = dumps(drawing_to_doc(draw_onebend(g)))
            except OneBendError as exc:
                out = str(exc)
                failed += 1
            h.update(out.encode() + b"\n")
        assert failed == 4
        assert h.hexdigest() == "448e5980b09e9da3fc173e7ee9b56a1637db5b8772124ed56a61f0ca5034cb64"


class TestTierOutcomes:
    def test_n90_fails_on_six_seeds_of_forty(self):
        """Over cubic3con n_target=90, seeds 1000-1039, the draws that fail
        are exactly these six, each with its kind of message, and every
        other drawing validates."""
        failed = {}
        for seed in range(1000, 1040):
            g = gen_corpus(seed=seed, n_target=90, profile="cubic3con", count=1)[0]
            try:
                d = draw_onebend(g)
            except OneBendError as exc:
                failed[seed] = str(exc)
                continue
            report = validate(d, "ONEBEND")
            assert report.passed, (seed, report.violations)
        placed, broken = "could not place ", "invariants broken after "
        expected = {1002: placed, 1011: broken, 1012: broken, 1018: broken, 1024: broken, 1029: placed}
        assert sorted(failed) == sorted(expected)
        assert all(failed[seed].startswith(start) for seed, start in expected.items()), failed


# Inputs the 1-bend drawer fails on today, with the error each one raises:
# (n_target, seed, message) for cubic3con graphs.
KNOWN_FAILURES = [
    (90, 1002, "could not place _x0: ports NW/NE failed"),
    (90, 1029, "could not place _x1: ports NW/NE failed"),
    (90, 1011, "invariants broken after set 25: "
               "[\"P6: dummy _x1 base ports ['S', 'SW'] not in the case table\"]"),
    (90, 1012, "invariants broken after set 41: "
               "[\"P6: dummy _x3 base ports ['S', 'SW'] not in the case table\"]"),
    (90, 1018, "invariants broken after set 37: "
               "[\"P6: dummy _x2 base ports ['S', 'SW'] not in the case table\"]"),
    (90, 1024, "invariants broken after set 43: "
               "[\"P6: dummy _x0 base ports ['S', 'SE'] not in the case table\"]"),
    (200, 7, "could not place v120: ports N/NE failed"),
    (200, 8, "could not place _x0: ports NW/NE failed"),
    (200, 9, "invariants broken after set 78: "
             "['P4b: no horizontal on the contour between v74 and v34']"),
    (200, 11, "could not place _x5: ports NW/NE failed"),
    (32, 404, "could not place _x1: ports NW/NE failed"),
    (32, 499, "invariants broken after set 14: "
              "['P4b: no horizontal on the contour between v4 and v9']"),
]


class TestKnownFailures:
    """Each known failure must fail with exactly its message: a changed
    message fails the test, and a fix shows up as a strict XPASS."""

    @pytest.mark.xfail(strict=True, raises=OneBendError)
    @pytest.mark.parametrize(
        "n_target, seed, message",
        [pytest.param(*case, id=f"n{case[0]}-seed{case[1]}") for case in KNOWN_FAILURES],
    )
    def test_draws_and_validates(self, n_target, seed, message):
        g = gen_corpus(seed=seed, n_target=n_target, profile="cubic3con", count=1)[0]
        try:
            d = draw_onebend(g)
        except OneBendError as exc:
            assert str(exc) == message
            raise
        report = validate(d, "ONEBEND")
        assert report.passed, report.violations


# Inputs whose outer face holds a dummy, so that the canonical ordering may
# end at it: (n_target, seed, face index in faces()) of the normalized
# cubic3con planarization, redrawn with that face outside, and the dummy
# the drawer stops at.  No corpus graph ends at a dummy, since the
# generator keeps crossings off the outer face.
FINAL_DUMMY_INPUTS = [
    (12, 1000, 3, "_x0"),
    (20, 1000, 9, "_x0"),
    (40, 1011, 16, "_x1"),
]


class TestFinalDummy:
    @pytest.mark.xfail(strict=True, raises=OneBendError)
    @pytest.mark.parametrize(
        "n_target, seed, face, dummy",
        [pytest.param(*case, id=f"n{case[0]}-seed{case[1]}-face{case[2]}")
         for case in FINAL_DUMMY_INPUTS],
    )
    def test_draws_and_validates(self, n_target, seed, face, dummy):
        g = gen_corpus(seed=seed, n_target=n_target, profile="cubic3con", count=1)[0]
        plane = normalize_embedding(g).plane
        outer = plane.faces()[face]
        assert any(plane.is_dummy(v) for v in outer.vertices())
        h = EmbeddedGraph.from_plane(plane.with_outer(outer.darts[0]))
        try:
            d = draw_onebend(h)
        except OneBendError as exc:
            assert str(exc) == f"the final vertex {dummy} is a dummy; no placement is built for it"
            raise
        report = validate(d, "ONEBEND")
        assert report.passed, report.violations
