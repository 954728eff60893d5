from __future__ import annotations

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
    TwoBendError,
    bridge_decomposition,
    check_invariants,
    component_plane,
    compute_ports,
    draw_component,
    draw_liu,
    draw_twobend,
    stretch_curve,
)
from slopeforge.verify import embedding_from_geometry, validate

from oracles import InvariantRounds
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
        assert set(shapes) <= {"I", "L", "C", "Z"}

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


class TestPortRule:
    def test_no_c_or_z_at_a_dummy(self, monkeypatch):
        """Every draw_liu drawing draw_component tries, on every component
        of a cubic3con and a subcubic corpus, passes check_invariants and
        has no C- or Z-shaped edge with a dummy end."""
        rounds = InvariantRounds()
        rounds.install(monkeypatch)
        graphs = [cubic3con(seed, n_target) for n_target in (24, 32, 40) for seed in range(1000, 1040)]
        graphs += [gen_corpus(seed=seed, n_target=n_target, profile="subcubic", count=1)[0]
                   for n_target in (20, 60) for seed in range(1000, 1020)]
        for g in graphs:
            draw_twobend(g)
        assert rounds.problems == [] and rounds.dummy_bends == []
        assert rounds.drawings >= len(graphs)


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

    def test_edge_deleted_cubic3con(self):
        inputs = [(seed, 40) for seed in range(1000, 1012)] + [(1000, 90), (1001, 90)]
        crossed = 0
        for seed, n_target in inputs:
            g = edge_deleted(seed, n_target)
            check_rank_grid(g)
            crossed += bool(g.crossings())
        assert crossed, "no input has a crossing"

    def test_chain_grid_stays_small(self):
        """The old assembly needed a new factor per block: 40 blocks took
        more than 100 bits."""
        g = block_chain(40)
        assert grid_bits(drawing_by_scaling(g)) > 100
        assert grid_bits(draw_twobend(g)) <= 8


class TestLaterSourceBytes:
    """The output bytes of each input, and the sources draw_liu is called
    at, so that a change to the source order or to the outer face shows.
    The one component of cubic3con 90/1062 (80 vertices) the first source
    on its outer face, v12, does not draw (the 2-SAT forces edge x0$a into
    a C or a Z at its dummy) and v15 does. The edge_deleted inputs needed a
    later source while dummy C-shapes were eliminated after drawing; each
    id ends with the sha256 of that drawing. The port rule draws each of
    their components from its first source."""

    @pytest.mark.parametrize("build, n_target, seed, tried, digest", [
        pytest.param(edge_deleted, 20, 1011, ["r2"],
                     "1817c24deb701fd670497b45e742829d6a614393234af6b303507e7eebf8ea12",
                     id="20-1011-ccb537fa819afdd3f9a2d155b9980dbc21a1ba40a733fc39ed4a764fd0a2e785"),
        pytest.param(edge_deleted, 40, 1011, ["r1"],
                     "d05f7cf2f297c9a77ca6a5bb226a92ef779b43be7de9177c066edaf14d4eb8d3",
                     id="40-1011-b1900e74109f6d1cfd282eca7233c4efbc8af15073bd756fbae1ca9010ec6e70"),
        pytest.param(edge_deleted, 40, 1015, ["r3", "v11"],
                     "5077b724679dc9e7ed8f20e30187c2a3d464b8e18f8ec969b26e7fd9c8943146",
                     id="40-1015-ad2573e4cd30f89a9de0316056f92c8b0388deaee8bb7dbad386a60ada1ac4a4"),
        pytest.param(edge_deleted, 90, 1007, ["r1"],
                     "a38f928744388497b0b4fb0fcccc01c4f0b035fe5a05bc1978a43224e4180c01",
                     id="90-1007-13ff3587dd0bfba0e9114a1438e239702d1c7d9fd5431fbadf3aec75e35d8db4"),
        pytest.param(cubic3con, 90, 1062, ["v12", "v15"],
                     "a35e4372cc2249771c05539e40f70e598eb8f0a2761655e9c852d12436c07441",
                     id="cubic3con-90-1062"),
    ])
    def test_drawing_bytes_are_pinned(self, monkeypatch, build, n_target, seed, tried, digest):
        sources = []
        draw = twobend.draw_liu

        def counted(plane, s, t):
            sources.append(s)
            return draw(plane, s, t)

        monkeypatch.setattr(twobend, "draw_liu", counted)
        g = build(seed, n_target)
        d = draw_twobend(g)
        drawn = [c for c in bridge_decomposition(g).components if len(c) > 1]
        assert sources == tried
        assert (len(sources) > len(drawn)) == (build is cubic3con)
        assert hashlib.sha256(dumps(drawing_to_doc(d)).encode()).hexdigest() == digest


class TestCubic3conBytes:
    def test_drawing_bytes_are_pinned(self):
        """The sha256 over the 2-bend drawings of cubic3con graphs."""
        h = hashlib.sha256()
        for n_target in (24, 32, 40):
            for seed in range(1000, 1020):
                out = dumps(drawing_to_doc(draw_twobend(cubic3con(seed, n_target))))
                h.update(f"{n_target}/{seed}\n{out}\n".encode())
        assert h.hexdigest() == "5dd4ab2ebd6dfbc5bab063eece29c310af9d3c98c45ce5e29b288597e33893b9"


class TestFormerFailures:
    """Inputs on which every source failed while dummy C-shapes were
    eliminated after drawing: "blocker ... enters its head at E"."""

    @pytest.mark.parametrize("build, n_target, seed", [
        (edge_deleted, 60, 1055),
        (cubic3con, 32, 1077),  # 26 vertices
    ], ids=["edge_deleted-n60-seed1055", "cubic3con-n32-seed1077"])
    def test_draws_and_validates(self, build, n_target, seed):
        report = validate(draw_twobend(build(seed, n_target)), "TWOBEND")
        assert report.passed, report.violations
