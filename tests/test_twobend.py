from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest

from slopeforge import graphutil, twobend
from slopeforge.docio import drawing_to_doc, dumps
from slopeforge.drawing import PolylineDrawing
from slopeforge.families import gen_2reg, gen_corpus, gen_crossed_k4, gen_prism
from slopeforge.geometry import Point, SlopeKind
from slopeforge.model import EmbeddedGraph
from slopeforge.onebend import draw_onebend
from slopeforge.ordering import st_order
from slopeforge.reembed import normalize_embedding
from slopeforge.twobend import (
    DIR,
    PORT_ROT,
    ROT,
    Assembled,
    OrthoDrawing,
    TwoBendError,
    bridge_decomposition,
    check_invariants,
    component_plane,
    compute_ports,
    draw_component,
    draw_liu,
    draw_twobend,
    dummy_c_shapes,
    stretch_curve,
)
from slopeforge.verify import embedding_from_geometry, validate

from oracles import eliminate_cshapes_by_staircase
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

    def test_draw_liu_leaves_int_ranks(self):
        d = draw_liu(square_plane(), "1", "3")
        points = list(d.pos.values()) + [p for e in d.edges.values() for p in e.points]
        coords = [c for p in points for c in (p.x, p.y)]
        assert all(type(c) is int for c in coords)
        assert sorted(p.y for p in d.pos.values()) == [0, 1, 2, 3]  # st-ranks less one

    def test_edge_moved_across_another_breaks_i1(self):
        d = draw_liu(square_plane(), "1", "3")
        assert d.edges["e12"].points == [Point(0, 0), Point(1, 0), Point(1, 1)]
        # e23 now detours left of x=1 and down across e12's horizontal at y=0.
        d.edges["e23"].points = [
            Point(F(x), F(y))
            for x, y in ((1, 1), (F(1, 2), 1), (F(1, 2), F(-1, 2)), (F(3, 2), F(-1, 2)), (F(3, 2), 3), (1, 3))
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
        right = max(p.x for p in before.values()) + 1
        stretch_curve(d, right, right, 0, 3)
        assert d.pos == before  # everything was left of the cut

    def test_stretch_composes_additively(self):
        plane = square_plane()
        d1 = draw_liu(plane, "1", "3")
        d2 = draw_liu(plane, "1", "3")
        # Below the jog at 3/2 every column moves, above it only x > 0.
        stretch_curve(d1, 0, 0, 1, 2)
        stretch_curve(d1, 0, 0, 1, 3)
        stretch_curve(d2, 0, 0, 1, 5)
        assert d1.pos == d2.pos
        assert d1.edges == d2.edges
        jog = F(3, 2)
        assert d2.edges["e14"].points == [Point(5, 0), Point(5, jog), Point(0, jog), Point(0, 2)]

    def test_non_integer_cut_rejected(self):
        d = draw_liu(square_plane(), "1", "3")
        for cut in ((F(1, 2), 1, 0), (0, F(1, 2), 0), (0, 1, F(1, 2)), (F(0), 1, 0)):
            with pytest.raises(TwoBendError, match="integer columns and rows"):
                stretch_curve(d, *cut, 1)


def ranked_drawing(d: OrthoDrawing):
    """d's points with both axes ranked, and each edge's ends and ports."""
    at, _ = twobend._rank_points(list(d.pos.values()) + [p for e in d.edges.values() for p in e.points])
    edges = {k: (e.tail, e.head, e.out_port, e.in_port, [at(p) for p in e.points]) for k, e in d.edges.items()}
    return {v: at(p) for v, p in d.pos.items()}, edges


class TestEliminationOracle:
    def test_matches_the_staircase_elimination(self, monkeypatch):
        """Every elimination run on the components of a cubic3con corpus
        gives the staircase oracle's drawing up to ranks, or its error."""
        eliminate = twobend.eliminate_cshapes
        counts = {"eliminations": 0, "flips": 0, "drawings": 0, "errors": 0}

        def counted(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)
            return call

        def both(d):
            ref = OrthoDrawing(d.plane, d.t, dict(d.pos), {
                k: dataclasses.replace(e, points=list(e.points)) for k, e in d.edges.items()
            })
            try:
                eliminate_cshapes_by_staircase(ref)
                want = ranked_drawing(ref)
            except TwoBendError as exc:
                want = str(exc)
            try:
                steps = eliminate(d)
            except TwoBendError as exc:
                assert str(exc) == want
                counts["errors"] += 1
                raise
            assert ranked_drawing(d) == want
            counts["drawings"] += steps > 0
            return steps

        monkeypatch.setattr(twobend, "eliminate_cshapes", both)
        monkeypatch.setattr(twobend, "_eliminate_into_dummy", counted("eliminations", twobend._eliminate_into_dummy))
        monkeypatch.setattr(twobend, "_flip_180", counted("flips", twobend._flip_180))
        for n_target in (24, 32, 40):
            for seed in range(1000, 1040):
                draw_twobend(cubic3con(seed, n_target))
        assert counts["eliminations"] >= 50, counts
        assert counts["flips"] > 0 and counts["drawings"] > 0 and counts["errors"] > 0, counts

    def test_a_c_shape_left_after_the_pass_raises(self, monkeypatch):
        """The pass visits the dummy-incident C-shapes found at its start;
        one still there at its end is named in the error."""
        monkeypatch.setattr(twobend, "_eliminate_cshape", lambda d, eid: None)
        with pytest.raises(TwoBendError, match=r"s=r1: C-shape elimination left \['x1\$a'\]"):
            draw_twobend(cubic3con(1035, 24))


class TestPipeline:
    def test_c4_cycle(self):
        g = EmbeddedGraph.from_plane(square_plane())
        drawing = draw_twobend(g)
        report = validate(drawing, "TWOBEND")
        assert report.passed, report.violations
        assert report.slope_set <= {SlopeKind.DEG0, SlopeKind.DEG90}

    def test_crossed_k4(self):
        g = gen_crossed_k4()
        drawing = draw_twobend(g)
        report = validate(drawing, "TWOBEND")
        assert report.passed, report.violations
        assert report.min_crossing_angle == 2

    def test_prism(self):
        drawing = draw_twobend(gen_prism())
        report = validate(drawing, "TWOBEND")
        assert report.passed, report.violations

    def test_braid(self):
        drawing = draw_twobend(gen_2reg(3))
        report = validate(drawing, "TWOBEND")
        assert report.passed, report.violations

    def test_multiblock_subcubic(self):
        for g in gen_corpus(seed=4, n_target=22, profile="subcubic", count=3):
            drawing = draw_twobend(g)
            report = validate(drawing, "TWOBEND")
            assert report.passed, report.violations

    def test_bridge_decomposition_runs_one_dfs(self, monkeypatch):
        calls = []
        dfs = graphutil.blocks_and_cut_vertices
        monkeypatch.setattr(graphutil, "blocks_and_cut_vertices", lambda *a: calls.append(a) or dfs(*a))
        tree = bridge_decomposition(gen_corpus(seed=2, n_target=24, profile="subcubic", count=1)[0])
        assert len(calls) == 1
        assert len(tree.components) == len(tree.bridges) + 1

    def test_bridge_decomposition_counts(self):
        gs = gen_corpus(seed=2, n_target=24, profile="subcubic", count=6)
        best = max(len(bridge_decomposition(g).components) for g in gs)
        assert best >= 3


# ---------------------------------------------------------------------------
# The rank-grid assembly against the integer-scaling assembly it replaced
# ---------------------------------------------------------------------------


def assemble_by_scaling(drawings, tree, bridge_ids) -> Assembled:
    """The scaling assembly: before each child is placed, every point placed
    so far is multiplied by k = 2(w + h) + 8, w and h the child's extent, and
    the child goes one unit from its parent vertex."""
    out = Assembled({}, {}, {})

    def add_component(i, transform, theta):
        d = drawings[i]
        for v, p in d.pos.items():
            if v in d.plane.real:
                out.pos[v] = transform(p)
        for e in d.edges.values():
            out.polylines[e.edge_id] = [transform(p) for p in e.points]
        for v in d.plane.real:
            rotated = {PORT_ROT[theta][p] for p in d.ports_at(v)}
            out.used_ports.setdefault(v, set()).update(rotated)

    def scale_all(k):
        for v in list(out.pos):
            p = out.pos[v]
            out.pos[v] = Point(p.x * k, p.y * k)
        for e in list(out.polylines):
            out.polylines[e] = [Point(p.x * k, p.y * k) for p in out.polylines[e]]

    order = tree.order()
    add_component(order[0], lambda p: p, 0)
    for i in order[1:]:
        _, v_i, u_j = tree.parent[i]
        d = drawings[i]
        used = out.used_ports.get(v_i, set())
        port = [p for p in ("N", "E", "W", "S") if p not in used][0]
        theta = {"E": 90, "N": 180, "W": 270, "S": 0}[port]
        rot = ROT[theta]
        child_pts = [rot(d.pos[v]) for v in d.pos]
        for e in d.edges.values():
            child_pts.extend(rot(p) for p in e.points)
        w = max(p.x for p in child_pts) - min(p.x for p in child_pts)
        h = max(p.y for p in child_pts) - min(p.y for p in child_pts)
        scale_all(int(2 * (w + h) + 8))
        base = out.pos[v_i]
        dx, dy = DIR[port]
        target = Point(base.x + dx, base.y + dy)
        anchor = rot(d.pos[u_j])
        shift = (target.x - anchor.x, target.y - anchor.y)

        def transform(p, rot=rot, shift=shift):
            q = rot(p)
            return Point(q.x + shift[0], q.y + shift[1])

        add_component(i, transform, theta)
        out.polylines[bridge_ids[(v_i, u_j)]] = [base, target]
        out.used_ports.setdefault(v_i, set()).add(port)
        out.used_ports.setdefault(u_j, set()).add(PORT_ROT[theta]["N"])
    return out


def rank_compressed(d: PolylineDrawing) -> PolylineDrawing:
    """d with each coordinate replaced by its rank among the distinct values
    of its axis."""
    pts = list(d.positions.values()) + [p for line in d.polylines.values() for p in line]
    xs = {x: F(i) for i, x in enumerate(sorted({p.x for p in pts}))}
    ys = {y: F(i) for i, y in enumerate(sorted({p.y for p in pts}))}
    return PolylineDrawing(
        d.graph,
        {v: Point(xs[p.x], ys[p.y]) for v, p in d.positions.items()},
        {e: [Point(xs[p.x], ys[p.y]) for p in line] for e, line in d.polylines.items()},
    )


def drawing_by_scaling(g: EmbeddedGraph) -> PolylineDrawing:
    """draw_twobend with the scaling assembly and no rank compression."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(twobend, "assemble", assemble_by_scaling)
        mp.setattr(twobend, "_rank_grid", lambda d: d)
        return draw_twobend(g)


def grid_bits(d: PolylineDrawing) -> int:
    """Bit length of the largest |coordinate| once denominators are cleared."""
    coords = [c for p in d.positions.values() for c in (p.x, p.y)]
    coords += [c for line in d.polylines.values() for p in line for c in (p.x, p.y)]
    den = math.lcm(*(c.denominator for c in coords))
    return max(abs(c.numerator * (den // c.denominator)).bit_length() for c in coords)


def block_chain(blocks: int) -> EmbeddedGraph:
    """Cycle blocks of 4..9 vertices in convex position, joined into a path
    by bridges; blocks of five or more get a chord, odd-numbered blocks of
    six or more a second chord crossing it."""
    pos, edges, prev, offset = {}, {}, None, 0
    for b in range(blocks):
        m = 4 + (5 * b) % 6
        names = [f"c{b}_{i}" for i in range(m)]
        for i, v in enumerate(names):
            pos[v] = Point(F(offset + i), F(i * i))
        for i in range(m):
            edges[f"cy{b}_{i}"] = (names[i], names[(i + 1) % m])
        if m >= 5:
            edges[f"ch{b}_a"] = (names[1], names[3])
        if m >= 6 and b % 2:
            edges[f"ch{b}_b"] = (names[2], names[4])
        if prev is not None:
            edges[f"br{b}"] = (prev, names[0])
        prev = names[-1]
        offset += m + 3
    return embedding_from_geometry(pos, edges)


def cubic3con(seed: int, n_target: int) -> EmbeddedGraph:
    return gen_corpus(seed=seed, n_target=n_target, profile="cubic3con", count=1)[0]


def edge_deleted(seed: int, n_target: int) -> EmbeddedGraph:
    """A cubic3con graph's 1-bend drawing with about a tenth of its edges
    deleted, keeping it connected, re-read as a 1-plane graph."""
    g = cubic3con(seed, n_target)
    d = draw_onebend(g)
    edges = dict(g.edges)
    for e in random.Random(seed).sample(sorted(edges), len(edges)):
        if len(edges) <= 0.9 * len(g.edges):
            break
        rest = {k: ab for k, ab in edges.items() if k != e}
        adj = {v: set() for v in g.vertices}
        for a, b in rest.values():
            adj[a].add(b)
            adj[b].add(a)
        if graphutil.is_connected(adj):
            edges = rest
    return embedding_from_geometry(d.positions, edges, {e: d.polylines[e] for e in edges})


def check_rank_grid(g: EmbeddedGraph) -> None:
    """draw_twobend's bytes equal the rank compression of the scaling
    assembly's drawing; the drawing validates on a grid of at most
    2 log2(n) + 4 bits."""
    drawing = draw_twobend(g)
    assert dumps(drawing_to_doc(drawing)) == dumps(drawing_to_doc(rank_compressed(drawing_by_scaling(g))))
    report = validate(drawing, "TWOBEND")
    assert report.passed, report.violations
    n = len(g.vertices)
    assert grid_bits(drawing) <= 2 * math.log2(n) + 4, (n, grid_bits(drawing))


class TestComponentPlanes:
    def test_every_component_plane_validates(self):
        # draw_twobend validates no component plane; each must be valid as
        # cut, and each edge must be part of an original edge inside comp.
        graphs = [gen_2reg(k) for k in (1, 2, 3, 8, 20)]
        graphs += [g for n_target in (20, 60) for seed in range(1000, 1006)
                   for g in gen_corpus(seed=seed, n_target=n_target, profile="subcubic")]
        multi = 0
        for g in graphs:
            norm = normalize_embedding(g)
            for comp in bridge_decomposition(norm).components:
                sub = component_plane(norm, comp)
                sub.validate()
                assert all(set(norm.edges[sub.original_edge_of(e)]) <= comp for e in sub.edges)
                multi += len(sub.vertices) > 1
        assert multi >= 20


class TestRankGrid:
    @pytest.mark.parametrize("k", [8, 16, 24, 32, 48, 64])
    def test_braids(self, k):
        check_rank_grid(gen_2reg(k))

    @pytest.mark.parametrize("blocks", [10, 20, 40])
    def test_block_chains(self, blocks):
        g = block_chain(blocks)
        assert len(bridge_decomposition(g).components) == blocks
        check_rank_grid(g)

    @pytest.mark.parametrize("n_target", [20, 40, 60, 120])
    def test_subcubic_corpus(self, n_target):
        for seed in range(1000, 1004):
            check_rank_grid(gen_corpus(seed=seed, n_target=n_target, profile="subcubic", count=1)[0])

    def test_edge_deleted_cubic3con(self, monkeypatch):
        calls = []
        eliminate = twobend._eliminate_into_dummy

        def counted(d, eid):
            calls.append(eid)
            return eliminate(d, eid)

        monkeypatch.setattr(twobend, "_eliminate_into_dummy", counted)
        inputs = [(seed, 40) for seed in range(1000, 1012)] + [(1000, 90), (1001, 90)]
        for seed, n_target in inputs:
            check_rank_grid(edge_deleted(seed, n_target))
        assert calls, "no input reached C-shape elimination"

    def test_chain_grid_stays_small(self):
        """The old assembly needed a new factor per block: 40 blocks took
        more than 100 bits."""
        g = block_chain(40)
        assert grid_bits(drawing_by_scaling(g)) > 100
        assert grid_bits(draw_twobend(g)) <= 8


class TestLaterSourceBytes:
    """The output bytes of edge-deleted inputs with a component that the
    first source on its outer face does not draw, so that a change to the
    source order or to the outer face shows."""

    @pytest.mark.parametrize("n_target, seed, digest", [
        (20, 1011, "ccb537fa819afdd3f9a2d155b9980dbc21a1ba40a733fc39ed4a764fd0a2e785"),
        (40, 1011, "b1900e74109f6d1cfd282eca7233c4efbc8af15073bd756fbae1ca9010ec6e70"),
        (40, 1015, "ad2573e4cd30f89a9de0316056f92c8b0388deaee8bb7dbad386a60ada1ac4a4"),
        (90, 1007, "13ff3587dd0bfba0e9114a1438e239702d1c7d9fd5431fbadf3aec75e35d8db4"),
    ])
    def test_drawing_bytes_are_pinned(self, monkeypatch, n_target, seed, digest):
        sources = []
        draw = twobend.draw_liu

        def counted(plane, s, t):
            sources.append(s)
            return draw(plane, s, t)

        monkeypatch.setattr(twobend, "draw_liu", counted)
        g = edge_deleted(seed, n_target)
        d = draw_twobend(g)
        drawn = [c for c in bridge_decomposition(g).components if len(c) > 1]
        assert len(sources) > len(drawn)
        assert hashlib.sha256(dumps(drawing_to_doc(d)).encode()).hexdigest() == digest


class TestCubic3conBytes:
    def test_drawing_bytes_are_pinned(self):
        """The sha256 over the 2-bend drawings of cubic3con graphs, with
        each failure's message in place of its drawing."""
        h = hashlib.sha256()
        for n_target in (24, 32, 40):
            for seed in range(1000, 1020):
                g = cubic3con(seed, n_target)
                try:
                    out = dumps(drawing_to_doc(draw_twobend(g)))
                except TwoBendError as exc:
                    out = f"TwoBendError: {exc}"
                h.update(f"{n_target}/{seed}\n{out}\n".encode())
        assert h.hexdigest() == "24c0187e2cf2471db54205cfb820968cfa32fd77a430025ea3a46d658b18db0b"


# Inputs the 2-bend drawer fails on today: the builder and (n_target, seed)
# of the input, the component's attachment vertex, the C-shape elimination
# every source on its outer face fails at, and those sources.
KNOWN_FAILURES = [
    (edge_deleted, 60, 1055, "r0", "cannot eliminate x7$a: blocker g11<> enters its head at E",
     ["r1", "r3", "v13", "v20", "v21", "v27", "v31", "v32", "v40", "v41", "v44", "v45", "v47"]),
    # The smallest known failing cubic3con input: 26 vertices.
    (cubic3con, 32, 1077, "r0", "cannot eliminate x1$b: blocker g5<> enters its head at E",
     ["v0", "v18", "v19", "v21", "v3"]),
]


class TestKnownFailures:
    """Each known failure must fail with exactly its message: a changed
    message fails the test, and a fix shows up as a strict XPASS."""

    @pytest.mark.xfail(strict=True, raises=TwoBendError)
    @pytest.mark.parametrize(
        "build, n_target, seed, u_i, reason, sources",
        [pytest.param(*case, id=f"{case[0].__name__}-n{case[1]}-seed{case[2]}") for case in KNOWN_FAILURES],
    )
    def test_draws_and_validates(self, build, n_target, seed, u_i, reason, sources):
        g = build(seed, n_target)
        try:
            d = draw_twobend(g)
        except TwoBendError as exc:
            errors = [f"s={s}: {reason}" for s in sources]
            assert str(exc) == f"no source candidate worked for component at {u_i}: {errors}"
            raise
        report = validate(d, "TWOBEND")
        assert report.passed, report.violations
