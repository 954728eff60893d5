"""Orthogonal 2-bend drawings of subcubic 1-plane graphs (2 slopes, RAC).

Per biconnected piece, vertices go one per row in st-order and every edge
rises through a dedicated column, entering and leaving through ports
assigned from the embedding (outgoing N/E/W, incoming S/W/E).  Each
vertex's port pattern or its left-right mirror is chosen by 2-SAT so that
no edge with a crossing dummy at an end leaves and enters through
horizontal ports: such an edge is an I or an L, so each original edge
keeps at most two bends once the dummies are replaced by crossing points.
Edges between real vertices may be I, L, C or Z.  Components are finally
glued along the bridge decomposition tree with quarter-turn rotations on a
rank grid: each component is read as the ranks of its coordinates, nested
in a pocket of its parent, and the result is rank-compressed in both
axes, so every coordinate is an integer below the number of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Set, Tuple

from . import graphutil
from .drawing import PolylineDrawing, finished_polylines, improper_hits
from .geometry import Point, Segment, quotient, segment_hits
from .model import Dart, EmbeddedGraph, EmbeddingError, PlaneGraph, cyclic_key
from .ordering import StOrdering, st_order
from .reembed import normalize_embedding

OUT_PORTS = {1: ["N"], 2: ["N", "E"], 3: ["N", "E", "W"]}
IN_PORTS = {1: ["S"], 2: ["S", "W"], 3: ["S", "W", "E"]}
PORT_ANGLE = {"E": 0, "N": 1, "W": 2, "S": 3}  # ccw order


class TwoBendError(Exception):
    pass


@dataclass
class OrthoEdge:
    edge_id: str
    tail: str
    head: str
    out_port: str
    in_port: str
    points: List[Point]

    def shape(self) -> str:
        pair = (self.out_port, self.in_port)
        if pair == ("N", "S"):
            return "I"
        if pair in (("N", "W"), ("N", "E"), ("E", "S"), ("W", "S")):
            return "L"
        if pair in (("E", "E"), ("W", "W")):
            return "C"
        if pair in (("E", "W"), ("W", "E")):
            return "Z"
        return "?"


@dataclass
class OrthoDrawing:
    plane: PlaneGraph
    t: str
    pos: Dict[str, Point]
    edges: Dict[str, OrthoEdge]

    def port_maps(self) -> Dict[str, Dict[str, str]]:
        """Each vertex's port -> edge id map, from one pass over the edges:
        at a vertex, an edge's ends are read in edge order, tail first."""
        out: Dict[str, Dict[str, str]] = {}
        for e in self.edges.values():
            out.setdefault(e.tail, {})[e.out_port] = e.edge_id
            out.setdefault(e.head, {})[e.in_port] = e.edge_id
        return out


def _opposite(port: str) -> str:
    return {"N": "S", "S": "N", "E": "W", "W": "E"}[port]


# ---------------------------------------------------------------------------
# Port assignment from the embedding
# ---------------------------------------------------------------------------


def _edge_dir(plane: PlaneGraph, st: StOrdering, e: str) -> Tuple[str, str]:
    a, b = plane.edges[e]
    return (a, b) if st.sigma[a] < st.sigma[b] else (b, a)


def _variant_patterns(n_in: int, n_out: int) -> List[Tuple[List[str], List[str]]]:
    """(outs, ins) port patterns for a degree profile: the standard pattern
    and, where one exists, its left-right mirror."""
    base = (OUT_PORTS.get(n_out, []), IN_PORTS.get(n_in, []))
    variants = [base]
    mirror = {"E": "W", "W": "E", "N": "N", "S": "S"}
    m_outs = sorted((mirror[p] for p in base[0]), key=lambda p: PORT_ANGLE[p])
    m_ins = sorted((mirror[p] for p in base[1]), key=lambda p: PORT_ANGLE[p])
    if (m_outs, m_ins) != (sorted(base[0], key=lambda p: PORT_ANGLE[p]),
                           sorted(base[1], key=lambda p: PORT_ANGLE[p])):
        if not set(m_outs) & set(m_ins):
            variants.append((m_outs, m_ins))
    return variants


# Each degree profile's pattern variants, as (ports in ccw order, whether
# each is an out port), built once for every profile up to degree 3 each way.
_PROFILES = {
    (n_in, n_out): [
        (ports_ccw, tuple(p in outs for p in ports_ccw))
        for outs, ins in _variant_patterns(n_in, n_out)
        for ports_ccw in [tuple(sorted(outs + ins, key=PORT_ANGLE.get))]
    ]
    for n_in in range(4)
    for n_out in range(4)
}


def compute_ports(plane: PlaneGraph, st: StOrdering) -> Dict[str, Dict[str, str]]:
    """Per vertex: edge id -> port, derived from the rotation.

    Outgoing edges use the N, E, W ports and incoming S, W, E (by count);
    which edge gets which port is pinned by matching the counterclockwise
    port order against the vertex rotation.  Each pattern also admits a
    left-right mirror; eliminate_cshapes picks per-vertex variants so that
    no edge with a dummy end is a C- or a Z-shape.  Source/sink ambiguity
    is resolved so the free gap faces the outer face.
    """
    outer = set(plane.outer_face().darts) if plane.outer is not None else set()
    per_vertex: Dict[str, List[Dict[str, str]]] = {}
    for v in plane.vertices:
        rot = plane.rotation[v]
        flags = tuple(_edge_dir(plane, st, e)[0] == v for e in rot)
        n_out = flags.count(True)
        n_in = len(flags) - n_out
        if n_out > 3 or n_in > 3:
            raise TwoBendError(f"vertex {v} exceeds the supported degree pattern")
        options: List[Dict[str, str]] = []
        k = len(rot)
        for ports_ccw, want_flags in _PROFILES[n_in, n_out]:
            matches = [off for off in range(k) if flags[off:] + flags[:off] == want_flags]
            if not matches:
                continue
            chosen = matches[0]
            if len(matches) > 1:
                chosen = _disambiguate(plane, v, rot, matches, ports_ccw, outer)
            options.append({rot[(chosen + i) % k]: ports_ccw[i] for i in range(k)})
        if not options:
            raise TwoBendError(f"rotation at {v} is inconsistent with its in/out pattern")
        per_vertex[v] = options

    return eliminate_cshapes(plane, st, per_vertex)


def eliminate_cshapes(
    plane: PlaneGraph, st: StOrdering, per_vertex: Dict[str, List[Dict[str, str]]]
) -> Dict[str, Dict[str, str]]:
    """Pick a pattern variant per vertex via 2-SAT, so that no edge with a
    dummy end is a C- or a Z-shape.

    Variable x_v is true when vertex v uses the mirrored pattern.  Every
    (tail variant, head variant) combination that would give an edge with
    a dummy end two horizontal ports contributes a clause forbidding it: a
    C or a Z spends two bends, and a fragment of a crossed edge may spend
    only one.
    """
    names = sorted(v for v in per_vertex if len(per_vertex[v]) > 1)
    var_of = {v: i + 1 for i, v in enumerate(names)}
    clauses: List[Tuple[int, int]] = []

    def variant_literals(v: str) -> List[Tuple[int, int]]:
        # (variant index, literal that is true exactly in this variant).
        if v in var_of:
            return [(0, -var_of[v]), (1, var_of[v])]
        return [(0, 0)]

    for e in sorted(plane.edges):
        tail, head = _edge_dir(plane, st, e)
        for tvar, tlit in variant_literals(tail):
            for hvar, hlit in variant_literals(head):
                out_port = per_vertex[tail][tvar][e]
                in_port = per_vertex[head][hvar][e]
                horizontal = out_port in ("E", "W") and in_port in ("E", "W")
                if not horizontal or not (plane.is_dummy(tail) or plane.is_dummy(head)):
                    continue
                if tlit == 0 and hlit == 0:
                    raise TwoBendError(f"edge {e} is forced into an illegal shape")
                if tlit == 0:
                    clauses.append((-hlit, -hlit))
                elif hlit == 0:
                    clauses.append((-tlit, -tlit))
                else:
                    clauses.append((-tlit, -hlit))

    solution = graphutil.two_sat(len(names), clauses)
    if solution is None:
        raise TwoBendError(
            "no port variant assignment keeps every edge at a dummy free of C- and Z-shapes"
        )
    result: Dict[str, Dict[str, str]] = {}
    for v, options in per_vertex.items():
        if v in var_of and solution[var_of[v] - 1]:
            result[v] = options[1]
        else:
            result[v] = options[0]
    return result


def _disambiguate(plane, v, rot, matches, ports_ccw, outer) -> int:
    """Pick the rotation offset whose free gap faces the outer face."""
    k = len(rot)
    # The free gap sits between consecutive ccw ports with an angular hole
    # containing N (all-in vertex) or S (all-out).  With the ccw port list,
    # that's the wrap-around corner: between the last listed port's edge and
    # the first listed port's edge when the hole spans the wrap, otherwise
    # between the specific neighbors of the hole.
    hole = "N" if "N" not in ports_ccw else "S"
    order = sorted([*ports_ccw, hole], key=lambda p: PORT_ANGLE[p])
    hi = order.index(hole)
    before = order[hi - 1]
    i_before = ports_ccw.index(before)
    for off in matches:
        # outer holds the outer face's darts, and a dart lies on one face.
        if (rot[(off + i_before) % k], v) in outer:
            return off
    return matches[0]


# ---------------------------------------------------------------------------
# Row-based drawing (the biconnected-case algorithm)
# ---------------------------------------------------------------------------


def draw_liu(plane: PlaneGraph, s: str, t: str) -> OrthoDrawing:
    """Orthogonal drawing of a biconnected planarized component.

    One row per st-rank; every edge rises in its own column; ports follow
    the embedding.  The result satisfies I1 to I6 by Liu, Morgana and
    Simeone's construction (Discrete Appl. Math. 1998).
    """
    adj = plane.adjacency()
    st = st_order(adj, s, t)
    ports = compute_ports(plane, st)
    order = st.order()
    rank = st.sigma

    pos: Dict[str, Point] = {}
    pending: List[Tuple[str, int, List[Point]]] = []  # (edge, col, prefix)
    edges_out: Dict[str, OrthoEdge] = {}
    # Columns are ints.  The first vertex sits at 0, and each new column
    # lies halfway to its neighbour on the frontier, or to `spacing` beyond
    # the frontier's end.  Divided by spacing / 2, the columns placed by the
    # k-th vertex have denominators dividing 2 ** k, so with len(order)
    # vertices every halving is exact.
    spacing = 2 ** (len(order) + 1)

    for v in order:
        y = rank[v]
        rot_ports = ports[v]
        in_edges = [e for e, p in rot_ports.items() if p in ("S", "W", "E") and _edge_dir(plane, st, e)[1] == v]
        out_edges = [e for e, p in rot_ports.items() if _edge_dir(plane, st, e)[0] == v]
        if v == order[0]:
            x = 0
            pos[v] = Point(x, y)
        else:
            idxs = sorted(i for i, (e, _, _) in enumerate(pending) if e in in_edges)
            if not idxs or idxs != list(range(idxs[0], idxs[0] + len(idxs))):
                raise TwoBendError(f"incoming edges of {v} are not consecutive on the frontier")
            block = pending[idxs[0] : idxs[-1] + 1]
            by_port = {rot_ports[e]: (e, c, pre) for e, c, pre in block}
            want_order = [p for p in ("W", "S", "E") if p in by_port]
            if [rot_ports[e] for e, _, _ in block] != want_order:
                raise TwoBendError(f"frontier order at {v} does not match its port pattern")
            x = by_port["S"][1]
            pos[v] = Point(x, y)
            for e, c, pre in block:
                p = rot_ports[e]
                pts = list(pre)
                riser_top = Point(c, y)
                if pts[-1] != riser_top:
                    pts.append(riser_top)
                if p != "S":
                    pts.append(Point(x, y))
                tail, head = _edge_dir(plane, st, e)
                edges_out[e] = OrthoEdge(e, tail, head, _stub_port(pre), p, pts)
            del pending[idxs[0] : idxs[-1] + 1]
            insert_at = idxs[0]
        if v == order[0]:
            insert_at = 0
        # New stubs in frontier order W, N, E.
        left_bound = pending[insert_at - 1][1] if insert_at > 0 else x - spacing
        right_bound = pending[insert_at][1] if insert_at < len(pending) else x + spacing
        new_stubs: List[Tuple[str, int, List[Point]]] = []
        out_by_port = {rot_ports[e]: e for e in out_edges}
        if "W" in out_by_port:
            col = (left_bound + x) // 2
            e = out_by_port["W"]
            new_stubs.append((e, col, [Point(x, y), Point(col, y)]))
        if "N" in out_by_port:
            e = out_by_port["N"]
            new_stubs.append((e, x, [Point(x, y)]))
        if "E" in out_by_port:
            col = (x + right_bound) // 2
            e = out_by_port["E"]
            new_stubs.append((e, col, [Point(x, y), Point(col, y)]))
        pending[insert_at:insert_at] = new_stubs

    if pending:
        raise TwoBendError("frontier not empty after the sink was placed")

    # Only the order of the coordinates matters from here on, so the
    # drawing is kept on int ranks; the rows are the st-ranks less one.
    at = _rank_points(list(pos.values()) + [p for e in edges_out.values() for p in e.points])
    for e in edges_out.values():
        e.points = [at(p) for p in e.points]
    return OrthoDrawing(plane=plane, t=t, pos={v: at(p) for v, p in pos.items()}, edges=edges_out)


def _stub_port(prefix: List[Point]) -> str:
    if len(prefix) == 1:
        return "N"
    return "E" if prefix[1].x > prefix[0].x else "W"


def _ranks(values: Iterable) -> Dict:
    """Each distinct value's rank in increasing order: 0, 1, 2, ...

    Every segment of an orthogonal drawing is axis-parallel, so replacing
    each coordinate by its rank in its axis keeps every incidence,
    crossing, port and right angle."""
    return {v: i for i, v in enumerate(sorted(set(values)))}


def _rank_points(points: List[Point]) -> Callable[[Point], Point]:
    """The map sending each of `points` to the int ranks of its coordinates
    in their axes."""
    xr = _ranks(p.x for p in points)
    yr = _ranks(p.y for p in points)
    return lambda p: Point(xr[p.x], yr[p.y])


# ---------------------------------------------------------------------------
# Invariant checker (I1) - (I6)
# ---------------------------------------------------------------------------


def check_invariants(d: OrthoDrawing) -> List[str]:
    problems: List[str] = []
    # I1a: orthogonal segments and catalog shapes.
    for e in d.edges.values():
        pts = e.points
        for i in range(len(pts) - 1):
            if pts[i].x != pts[i + 1].x and pts[i].y != pts[i + 1].y:
                problems.append(f"I1: {e.edge_id} has a non-orthogonal segment")
        if e.shape() == "?":
            problems.append(f"I1: {e.edge_id} uses ports {e.out_port}->{e.in_port} outside the catalog")
        if pts[0] != d.pos[e.tail] or pts[-1] != d.pos[e.head]:
            problems.append(f"I1: {e.edge_id} does not join its endpoints")
    # I1b: planarity of the component drawing.
    problems.extend(_planarity_problems(d))
    # I2: t on the outer face with a free N port.
    top = max(p.y for p in d.pos.values())
    if d.pos[d.t].y != top:
        problems.append("I2: the sink is not topmost")
    ports = d.port_maps()
    if "N" in ports.get(d.t, {}):
        problems.append("I2: the sink's N port is not free")
    # I3: y-monotone from source to target.
    for e in d.edges.values():
        ys = [p.y for p in e.points]
        if any(b < a for a, b in zip(ys, ys[1:])):
            problems.append(f"I3: {e.edge_id} is not y-monotone")
    # I4: bends.
    for e in d.edges.values():
        bends = len(e.points) - 2
        if bends > 2:
            problems.append(f"I4: {e.edge_id} has {bends} bends")
        if bends == 2 and e.shape() not in ("C", "Z"):
            problems.append(f"I4: {e.edge_id} has 2 bends but is no C- or Z-shape")
    # I5 / I6: no C or Z at a dummy.
    for e in d.edges.values():
        if e.shape() not in ("C", "Z"):
            continue
        if d.plane.is_dummy(e.head):
            problems.append(f"I5: {e.shape()}-shape {e.edge_id} into dummy {e.head}")
        if d.plane.is_dummy(e.tail):
            problems.append(f"I6: {e.shape()}-shape {e.edge_id} out of dummy {e.tail}")
    # Crossing validity: same-edge fragments occupy opposite ports at dummies.
    for x in d.plane.dummies():
        at = ports.get(x, {})
        by_orig: Dict[str, List[str]] = {}
        for port, e in at.items():
            by_orig.setdefault(d.plane.original_edge_of(e), []).append(port)
        for orig, ps in by_orig.items():
            if len(ps) == 2 and _opposite(ps[0]) != ps[1]:
                problems.append(f"fragments of {orig} not at opposite ports of {x}")
        # Rotation preserved at the crossing.
        drawn = [at[p] for p in ("E", "N", "W", "S") if p in at]
        if len(drawn) == 4 and cyclic_key(drawn) != cyclic_key(d.plane.rotation[x]):
            problems.append(f"rotation at dummy {x} not preserved")
    return problems


def _planarity_problems(d: OrthoDrawing) -> List[str]:
    labels: List[str] = []
    segs: List[Segment] = []
    for eid in sorted(d.edges):
        pts = d.edges[eid].points
        segs += [Segment(p, q) for p, q in zip(pts, pts[1:])]
        labels += [eid] * (len(pts) - 1)
    ends = {eid: (e.tail, e.head) for eid, e in d.edges.items()}
    hits = improper_hits(segment_hits(segs), labels, ends, d.pos)
    return [
        f"I1: {labels[i]} and {labels[j]} intersect ({res.kind.value})"
        for i, j, res in sorted((min(i, j), max(i, j), res) for i, j, res in hits)
    ]


# ---------------------------------------------------------------------------
# Stretching along a one-jog cut
# ---------------------------------------------------------------------------


def stretch_curve(d: OrthoDrawing, x_low: int, x_high: int, y: int, delta: int) -> None:
    """Move everything right of a one-jog cut rightward by delta.

    The cut rises between columns x_low - 1 and x_low, jogs at y + 1/2 and
    rises on between columns x_high and x_high + 1: a point moves iff
    p.x >= x_low below the jog, or p.x > x_high at or above it.  A vertical
    segment whose two ends move differently crosses the jog and gains two
    jog points on it; horizontal segments just get longer.  Planarity,
    shapes of untouched edges, and y-monotonicity are preserved.  No
    package code calls it; the benchmark traces it by this name.
    """
    if delta <= 0:
        raise ValueError("stretch amount must be positive")
    if not all(isinstance(c, int) for c in (x_low, x_high, y)):
        raise TwoBendError("stretch cut must run between integer columns and rows")
    jog = quotient(2 * y + 1, 2)

    def moved(p: Point) -> Point:
        if (p.x >= x_low) if p.y < jog else (p.x > x_high):
            return Point(p.x + delta, p.y)
        return p

    for v, p in d.pos.items():
        d.pos[v] = moved(p)
    for e in d.edges.values():
        pts = [moved(e.points[0])]
        for a, b in zip(e.points, e.points[1:]):
            q = moved(b)
            if a.x == b.x and pts[-1].x != q.x:
                pts += [Point(pts[-1].x, jog), Point(q.x, jog)]
            pts.append(q)
        e.points = pts


# ---------------------------------------------------------------------------
# Bridge decomposition and assembly
# ---------------------------------------------------------------------------


@dataclass
class BridgeTree:
    components: List[Set[str]]           # real vertex sets
    bridges: List[Tuple[str, str]]       # abstract bridge edges (a, b)
    root: int
    parent: Dict[int, Tuple[int, str, str]]  # comp -> (parent comp, v_i, u_j)
    attach: Dict[int, str]               # comp -> u_i

    def order(self) -> List[int]:
        out = [self.root]
        seen = {self.root}
        while len(out) < len(self.components):
            for i in range(len(self.components)):
                if i in seen or i not in self.parent:
                    continue
                if self.parent[i][0] in seen:
                    out.append(i)
                    seen.add(i)
        return out


def bridge_decomposition(g: EmbeddedGraph) -> BridgeTree:
    found, parts = graphutil.bridges_and_components(g.abstract_adjacency())
    bridges = sorted(tuple(sorted(b)) for b in found)
    comps = sorted((sorted(c) for c in parts), key=lambda c: c[0])
    comp_sets = [set(c) for c in comps]
    comp_of = {v: i for i, c in enumerate(comp_sets) for v in c}
    root = 0
    parent: Dict[int, Tuple[int, str, str]] = {}
    attach: Dict[int, str] = {root: sorted(comp_sets[root])[0]}
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for i in frontier:
            for a, b in bridges:
                for (va, ub) in ((a, b), (b, a)):
                    j = comp_of[ub]
                    if comp_of[va] == i and j not in seen:
                        parent[j] = (i, va, ub)
                        attach[j] = ub
                        seen.add(j)
                        nxt.append(j)
        frontier = nxt
    if len(seen) != len(comp_sets):
        raise TwoBendError("bridge decomposition did not reach every component")
    return BridgeTree(comp_sets, bridges, root, parent, attach)


def component_plane(g: EmbeddedGraph, comp: Set[str],
                    crossings: Dict[str, Tuple[str, str]]) -> PlaneGraph:
    """Induced planarization of one 2-edge-connected component: its real
    vertices and the dummies of the crossings inside it (see
    PlaneGraph.induced), crossings being g.crossings(), read once for all
    components.  No outer face is recorded: draw_component picks one at
    the attachment vertex.  It is not validated again: the plane it is cut
    from is, and tests/test_twobend.py validates the cut planes of braids
    and subcubic corpus inputs."""
    dummies = set()
    for x, (e1, e2) in crossings.items():
        ends = set(g.edges[e1]) | set(g.edges[e2])
        if ends <= comp:
            dummies.add(x)
        elif ends & comp:
            raise TwoBendError("a crossing spans two components (input not normalized)")
    return g.plane.induced(comp | dummies)


def _outer_face(sub: PlaneGraph, u_i: str) -> Tuple[Dart, ...]:
    """The face at u_i with the most real vertices, ties broken by least
    dart, traced from the darts leaving u_i."""
    faces = [sub.trace_face((e, u_i)).darts for e in sub.rotation[u_i]]
    return min(
        faces, key=lambda darts: (-len({v for _, v in darts if v in sub.real}), min(darts))
    )


def draw_component(sub: PlaneGraph, u_i: str) -> OrthoDrawing:
    """Draw one component with t = u_i: records _outer_face as sub's outer
    face, by the walk's first dart, and tries each source on the walk until
    draw_liu's drawing passes check_invariants: the 2-bend drawer's one
    check."""
    if len(sub.vertices) == 1:
        v = sub.vertices[0]
        return OrthoDrawing(plane=sub, t=v, pos={v: Point(0, 0)}, edges={})
    walk = _outer_face(sub, u_i)
    sub.outer = walk[0]
    errors = []
    for s in sorted({v for _, v in walk if v in sub.real and v != u_i}):
        try:
            d = draw_liu(sub, s, u_i)
        except (TwoBendError, EmbeddingError, ValueError) as exc:
            errors.append(f"s={s}: {exc}")
            continue
        problems = check_invariants(d)
        if problems:
            errors.append(f"s={s}: {problems[:2]}")
            continue
        return d
    raise TwoBendError(f"no source candidate worked for component at {u_i}: {errors}")


ROT = {
    0: lambda p: p,
    90: lambda p: Point(-p.y, p.x),
    180: lambda p: Point(-p.x, -p.y),
    270: lambda p: Point(p.y, -p.x),
}
PORT_ROT = {0: {"N": "N", "S": "S", "E": "E", "W": "W"},
            90: {"N": "W", "W": "S", "S": "E", "E": "N"},
            180: {"N": "S", "S": "N", "E": "W", "W": "E"},
            270: {"N": "E", "E": "S", "S": "W", "W": "N"}}
DIR = {"N": (0, 1), "S": (0, -1), "E": (1, 0), "W": (-1, 0)}


@dataclass
class Assembled:
    pos: Dict[str, Point]
    polylines: Dict[str, List[Point]]     # planarization-level edges
    used_ports: Dict[str, Set[str]]       # real vertex -> used ports


def assemble(
    drawings: Dict[int, OrthoDrawing],
    tree: BridgeTree,
    bridge_ids: Dict[Tuple[str, str], str],
) -> Assembled:
    """Glue per-component drawings along the bridge tree on a rank grid.

    draw_liu leaves each component on the int ranks of its coordinates in
    each axis, from 0.  Children are rotated by quarter turns so the
    attachment vertex's free N port faces its parent, and the bridge is
    one child unit long.  A component's unit is the product of the factors
    2(w + h) + 8 of the components placed after it, w and h being a
    component's largest x and largest y, bends included, so each child
    lies in a pocket of its parent's grid that nothing placed later
    enters.  Every point is placed once, with int coordinates.
    """
    order = tree.order()
    unit: Dict[int, int] = {}
    u = 1
    for i in reversed(order):
        d = drawings[i]
        pts = list(d.pos.values()) + [p for e in d.edges.values() for p in e.points]
        unit[i] = u
        u *= 2 * (max(p.x for p in pts) + max(p.y for p in pts)) + 8
    out = Assembled({}, {}, {})

    def add_component(i: int, place: Callable[[Point], Point], theta: int) -> None:
        d = drawings[i]
        for v in d.plane.real:
            out.pos[v] = place(d.pos[v])
        for e in d.edges.values():
            out.polylines[e.edge_id] = [place(p) for p in e.points]
            for v, port in ((e.tail, e.out_port), (e.head, e.in_port)):
                if v in d.plane.real:
                    out.used_ports.setdefault(v, set()).add(PORT_ROT[theta][port])

    root_unit = unit[order[0]]
    add_component(order[0], lambda p: Point(root_unit * p.x, root_unit * p.y), 0)
    for i in order[1:]:
        _, v_i, u_j = tree.parent[i]
        used = out.used_ports.get(v_i, set())
        free = [p for p in ("N", "E", "W", "S") if p not in used]
        if not free:
            raise TwoBendError(f"no free port at {v_i} for a bridge (degree > 4?)")
        port = free[0]
        # Rotate the child so its free N port points back toward v_i.
        theta = {"E": 90, "N": 180, "W": 270, "S": 0}[port]
        rot = ROT[theta]
        base = out.pos[v_i]
        dx, dy = DIR[port]
        anchor = rot(drawings[i].pos[u_j])
        k = unit[i]
        ox, oy = base.x + k * (dx - anchor.x), base.y + k * (dy - anchor.y)

        def place(p, rot=rot, k=k, ox=ox, oy=oy):
            q = rot(p)
            return Point(ox + k * q.x, oy + k * q.y)

        add_component(i, place, theta)
        out.polylines[bridge_ids[(v_i, u_j)]] = [base, out.pos[u_j]]
        out.used_ports.setdefault(v_i, set()).add(port)
        out.used_ports.setdefault(u_j, set()).add(PORT_ROT[theta]["N"])
    return out


def draw_twobend(g: EmbeddedGraph) -> PolylineDrawing:
    """2-bend orthogonal drawing of a subcubic 1-plane graph."""
    if not g.is_subcubic():
        raise TwoBendError("input must be subcubic")
    adj = g.abstract_adjacency()
    if not graphutil.is_connected(adj):
        raise TwoBendError("input must be connected")
    norm = normalize_embedding(g)
    if not norm.vertices:
        return PolylineDrawing(graph=norm, positions={}, polylines={})
    tree = bridge_decomposition(norm)
    bridge_ids: Dict[Tuple[str, str], str] = {}
    bridge_set = {tuple(sorted(x)) for x in tree.bridges}
    for e, (a, b) in norm.edges.items():
        if tuple(sorted((a, b))) in bridge_set:
            bridge_ids[(a, b)] = e
            bridge_ids[(b, a)] = e
    drawings: Dict[int, OrthoDrawing] = {}
    crossings = norm.crossings()
    for i, comp in enumerate(tree.components):
        sub = component_plane(norm, comp, crossings)
        drawings[i] = draw_component(sub, tree.attach[i])
    assembled = assemble(drawings, tree, bridge_ids)

    polylines = finished_polylines(norm, assembled.polylines, assembled.pos)
    positions = {v: assembled.pos[v] for v in norm.vertices}
    return _rank_grid(PolylineDrawing(graph=norm, positions=positions, polylines=polylines))


def _rank_grid(d: PolylineDrawing) -> PolylineDrawing:
    """d with every coordinate replaced by its int rank in its axis."""
    pts = list(d.positions.values()) + [p for line in d.polylines.values() for p in line]
    at = _rank_points(pts)
    return PolylineDrawing(
        graph=d.graph,
        positions={v: at(p) for v, p in d.positions.items()},
        polylines={e: [at(p) for p in line] for e, line in d.polylines.items()},
    )
