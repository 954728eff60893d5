"""Brute-force references that only the tests use.

validate_by_tracing is PlaneGraph.validate as it was before it counted
face orbits: Euler's check on the traced faces() list and the components
of the adjacency, and original_edges through original_edge_of.  The tests
require PlaneGraph.validate to give the same message, or the same dict in
the same key order, on generated, adversarial and mutated planes.

normalized_reembedding_exists decides, for small instances, whether a
normalized re-embedding exists at all, by enumerating crossing sets and
testing planarity of the kite-augmented planarization, where a wheel gadget
at each dummy forces the rotation to alternate in every planar embedding.
The planarity test is Demoucron-Malgrange-Pertuiset, face by face: clarity
beats asymptotics at this size.

normalize_by_retracing makes the normalizer's surgeries the slow, direct
way: every uncrossing works on a copy, decides each re-inserted edge by
tracing the faces at its two corners, and validates the whole plane.  The
tests require reembed.normalize_embedding, which decides each uncrossing
from the components of G - x, to give the same plane.

outer_face_by_pieces finds the outer face of a drawing's induced embedding
by cutting every original polyline into one polyline per planarization
edge and re-sorting the piece directions at the lowest point.  The tests
require verify's reading of that point off the original polylines and the
sorted rotation to give the same darts, from the same start.

check_gamma_by_points is the 1-bend checker with P1 to P4 decided on
segments rebuilt from the polylines, and ports read off the coordinates,
where onebend reads the shapes its edge records carry.  The tests require
it to report what onebend.check_gamma reports, and both of them what
onebend.check_step reports, at every step.  window is the span check_step
once read off a diff of the contours before and after a step; the tests
require it to equal the span the drawer records when it commits the step.

count_dummy_cutvertices and verify_canonical check the normalizer's and
the canonical ordering's contracts directly: the dummies among the
planarization's cutvertices, and conditions (i) to (v) on every prefix
graph.  vertex_order lists an ordering's vertices set by set.

angular_compare is the comparator that once sorted rays: the half turn,
then the sign of one cross product.  The tests require geometry.angle_key
to order every pair of directions as it does.  min_angle_eighths_lower_bound
is geometry.min_gap_eighths on rays in any order, sorted first; the tests
require the validator's scan of the rays it holds sorted to equal it.

stretch_by_fractions is the 1-bend stretch on true Fraction coordinates,
read off the polylines.  The tests require onebend.stretch, which works on
ints over one drawing-wide unit and rescales them when an amount or the
base edge's low point falls off that grid, to give the same points.

check_stretch is the re-sweep the 1-bend drawer once ran after every
stretch, undoing a stretch it rejected.  A stretch along a stretch_cut
keeps the drawing simple by the shift lemma, so the drawer no longer runs
it; the tests run it after every stretch on the corpora and require that
it reject none.

canonical_order_by_retracing is the canonical ordering by trial: each
candidate is removed from private copies of the adjacency and rotations,
the whole contour is retraced, and a snapshot is restored when the
candidate is refused.  The tests require ordering.canonical_order, which
decides each candidate by one walk of the faces its removal merges, to
give the same sets and kinds.

validate_by_two_ray_sets and embedding_of_by_two_ray_sets are the
validator as it was before the ray table: the crossing table holds one
(edge, segment index, segment) item per segment through a point, the
resolutions orient the polylines and locate the crossings themselves, and
the embedding extraction derives the same rays a second time.  The tests
require verify.validate and verify.embedding_of, which find and sort each
ray once, to give the same reports and the same embeddings or errors.

InvariantRounds runs the 2-bend invariant checker on every drawing
draw_liu returns, and lists each edge with a dummy end and two horizontal
ports.  The drawer checks only the drawing it keeps; the tests require
that both find nothing on the corpora.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from slopeforge import graphutil, onebend, twobend
from slopeforge.drawing import PolylineDrawing, join_fragments
from slopeforge.geometry import (
    CANONICAL_SLOPES,
    Direction,
    IntersectKind,
    Point,
    Segment,
    SlopeKind,
    angle_key,
    cross,
    min_gap_eighths,
    octant,
    on_segment,
    segment_hits,
    slope_of,
    sweep_hits,
)
from slopeforge.graphutil import Adj
from slopeforge.model import DUMMY_PREFIX, Dart, EmbeddedGraph, EmbeddingError, PlaneGraph, connectivity
from slopeforge.ordering import CanonicalOrdering, CanonicalSet, OrderingError, _base_outer_dart
from slopeforge.reembed import (
    ReembedError,
    _alternates,
    _check_same_abstract_graph,
    _flip_component,
    dummy_two_cuts,
)
from slopeforge.verify import (
    PROFILES,
    DrawingError,
    Interactions,
    ValidationReport,
    _corner_corner_crossing,
    _corner_crossing,
    _locate,
    _outer_face_dart,
    _slope_summary,
    _sort_edge_dirs_ccw,
    embeddings_equivalent,
    max_bends,
)


def validate_by_tracing(plane: PlaneGraph) -> Dict[str, Tuple[str, str]]:
    """PlaneGraph.validate as it was: every check in the same order, with
    Euler's check on the faces() list and the components of the
    adjacency, and the outer face record traced."""
    vids = set(plane.vertices)
    if len(vids) != len(plane.vertices):
        raise EmbeddingError("duplicate vertex ids")
    if not plane.real <= vids:
        raise EmbeddingError("real flag on unknown vertex")
    seen_pairs: Set[FrozenSet[str]] = set()
    incident: Dict[str, Set[str]] = {v: set() for v in plane.vertices}
    for e, (a, b) in plane.edges.items():
        if a == b:
            raise EmbeddingError(f"self-loop {e}")
        if a not in vids or b not in vids:
            raise EmbeddingError(f"edge {e} has unknown endpoint")
        pair = frozenset((a, b))
        if pair in seen_pairs:
            raise EmbeddingError(f"multi-edge between {a} and {b}")
        seen_pairs.add(pair)
        incident[a].add(e)
        incident[b].add(e)
    for v in plane.vertices:
        rot = plane.rotation.get(v)
        if rot is None:
            raise EmbeddingError(f"no rotation for {v}")
        if set(rot) != incident[v] or len(rot) != len(incident[v]):
            raise EmbeddingError(f"rotation at {v} does not list its incident edges")
    original = _validate_dummies_by_scan(plane)
    n, m = len(plane.vertices), len(plane.edges)
    f = len(plane.faces()) + sum(1 for v in plane.vertices if not plane.rotation[v])
    c = len(graphutil.components(plane.adjacency()))
    if n - m + f != 2 * c:
        raise EmbeddingError(f"Euler check failed: V={n} E={m} F={f} C={c} (V-E+F != 2C)")
    if plane.outer is not None:
        plane.trace_face(plane.outer)  # raises unless the record is a dart
    return original


def _validate_dummies_by_scan(plane: PlaneGraph) -> Dict[str, Tuple[str, str]]:
    for x in plane.dummies():
        rot = plane.rotation[x]
        if len(rot) != 4:
            raise EmbeddingError(f"dummy {x} has degree {len(rot)}, expected 4")
        origs = [plane.original_edge_of(e) for e in rot]
        if origs[0] != origs[2] or origs[1] != origs[3] or origs[0] == origs[1]:
            raise EmbeddingError(f"rotation at dummy {x} does not alternate its two edges")
        for e in rot:
            if e not in plane.fragment_of:
                raise EmbeddingError(f"edge {e} at dummy {x} is not a fragment")
            if plane.is_dummy(plane.other_end(e, x)):
                raise EmbeddingError(f"edge {e} joins two dummies (edge crossed twice)")
    for orig, k in Counter(plane.fragment_of.values()).items():
        if k != 2:
            raise EmbeddingError(f"original edge {orig} split into {k} fragments")
    for e in plane.fragment_of:
        if e not in plane.edges or sum(v not in plane.real for v in plane.edges[e]) != 1:
            raise EmbeddingError(f"fragment {e} is not an edge with exactly one dummy end")
    ends: Dict[str, List[str]] = {}
    for e, (a, b) in sorted(plane.edges.items()):
        for v in (a, b):
            if v in plane.real:
                ends.setdefault(plane.original_edge_of(e), []).append(v)
    out: Dict[str, Tuple[str, str]] = {}
    for orig, vs in ends.items():
        if len(vs) != 2:
            raise EmbeddingError(f"original edge {orig} has {len(vs)} real endpoints")
        out[orig] = (vs[0], vs[1])
    return out


def normalized_reembedding_exists(g: EmbeddedGraph, max_vertices: int = 10) -> bool:
    """Decide by enumeration whether some 1-planar re-embedding of the
    abstract graph has no dummy cutvertex (and a 3-connected planarization
    when the graph is 3-connected), using at most the current number of
    crossings.

    A crossing set is realizable iff the planarization augmented with a
    subdivided rim 4-cycle around every dummy is planar: the wheel forces
    the rotation at the dummy to alternate in any planar embedding.
    """
    if len(g.vertices) > max_vertices:
        raise ReembedError(f"oracle limited to {max_vertices} vertices")
    edges = {e: tuple(ab) for e, ab in g.edges.items()}
    want_3con = connectivity(g) >= 3
    names = sorted(edges)
    independent = [
        (e1, e2)
        for i, e1 in enumerate(names)
        for e2 in names[i + 1 :]
        if not set(edges[e1]) & set(edges[e2])
    ]
    max_cross = len(g.crossings())

    def realizable(matching: Sequence[Tuple[str, str]]) -> bool:
        verts = set(g.vertices)
        new_adj: Dict[str, Set[str]] = {v: set() for v in verts}
        crossed = {e for pair in matching for e in pair}

        def add(u, v):
            new_adj.setdefault(u, set()).add(v)
            new_adj.setdefault(v, set()).add(u)

        for e, (u, v) in edges.items():
            if e not in crossed:
                add(u, v)
        plain_adj = {u: set(vs) for u, vs in new_adj.items()}
        for idx, (e1, e2) in enumerate(matching):
            x = f"@x{idx}"
            a, b = edges[e1]
            c, d = edges[e2]
            for u in (a, b, c, d):
                add(x, u)
                plain_adj.setdefault(x, set()).add(u)
                plain_adj.setdefault(u, set()).add(x)
            # Subdivided rim cycle a-c-b-d forcing alternation at x.
            for j, (p, q) in enumerate(((a, c), (c, b), (b, d), (d, a))):
                r = f"@r{idx}_{j}"
                add(p, r)
                add(r, q)
        if not is_planar(new_adj):
            return False
        # Structural checks on the plain planarization (no rims).
        dummies = {v for v in plain_adj if v.startswith("@x")}
        cuts = graphutil.articulation_points(plain_adj)
        if cuts & dummies:
            return False
        if want_3con and graphutil.vertex_connectivity(plain_adj) < 3:
            return False
        return True

    def search(start: int, chosen: List[Tuple[str, str]], used: Set[str]) -> bool:
        if realizable(chosen):
            return True
        if len(chosen) >= max_cross:
            return False
        for i in range(start, len(independent)):
            e1, e2 = independent[i]
            if e1 in used or e2 in used:
                continue
            if search(i + 1, chosen + [(e1, e2)], used | {e1, e2}):
                return True
        return False

    return search(0, [], set())


# ---------------------------------------------------------------------------
# Normalization by retracing faces
# ---------------------------------------------------------------------------


def count_dummy_cutvertices(plane: PlaneGraph) -> int:
    cuts = graphutil.articulation_points(plane.adjacency())
    return sum(1 for v in cuts if plane.is_dummy(v))


def normalize_by_retracing(g: EmbeddedGraph) -> EmbeddedGraph:
    """reembed.normalize_embedding, with each surgery on a copy that is
    validated in full, and each re-insertion decided by a face test."""
    plane = g.plane.copy()
    three_connected = connectivity(g) >= 3
    budget = len(plane.dummies()) + 1
    while budget >= 0:
        cuts = sorted(
            v for v in graphutil.articulation_points(plane.adjacency()) if plane.is_dummy(v)
        )
        if cuts:
            plane = _checked_uncross(plane, cuts[0])
            budget -= 1
            continue
        if three_connected:
            pairs = dummy_two_cuts(plane)
            if pairs:
                plane = _fix_two_cut_by_retracing(plane, pairs)
                budget -= 1
                continue
        break
    if budget < 0:
        raise ReembedError("normalization made no progress within its crossing budget")
    out = EmbeddedGraph.from_plane(plane)
    _check_same_abstract_graph(g, out)
    return out


def uncross_by_retracing(plane: PlaneGraph, x: str) -> Optional[PlaneGraph]:
    """A copy of plane with dummy x uncrossed, or None when some re-added
    edge would join two corners of one component on different faces."""
    plane = plane.copy()
    old_walk = () if plane.outer is None else plane.outer_face().darts
    ends: Dict[str, List[str]] = {}
    corner: Dict[str, int] = {}
    for frag in plane.rotation[x]:
        u = plane.other_end(frag, x)
        ends.setdefault(plane.fragment_of[frag], []).append(u)
        corner[u] = plane.rotation[u].index(frag)
        plane.rotation[u].remove(frag)
        del plane.edges[frag]
        del plane.fragment_of[frag]
    plane.vertices.remove(x)
    del plane.rotation[x]
    for orig, (a, b) in ends.items():
        ia, ib = corner[a], corner[b]
        comp_a = next(c for c in graphutil.components(plane.adjacency()) if a in c)
        if b in comp_a:
            fa = _corner_face(plane, a, ia)
            fb = _corner_face(plane, b, ib)
            if fa is not None and fb is not None and set(fa) != set(fb):
                return None
        plane.edges[orig] = (a, b)
        plane.rotation[a].insert(ia % max(1, len(plane.rotation[a]) + 1), orig)
        plane.rotation[b].insert(ib % max(1, len(plane.rotation[b]) + 1), orig)
    refresh_outer_after_surgery(plane, old_walk)
    return plane


def refresh_outer_after_surgery(plane: PlaneGraph, old_walk: Sequence[Dart]) -> None:
    """Record plane's outer face after a surgery by retracing the old one:
    the first dart of the old outer walk that survived the surgery, else,
    when none did, the first face of the first vertex.  No record when
    there was no old walk."""
    if not old_walk:
        return
    for e, tail in old_walk:
        if e in plane.edges and tail in plane.rotation:
            plane.outer = (e, tail)
            return
    v = plane.vertices[0]
    plane.outer = (plane.rotation[v][0], v)


def _checked_uncross(plane: PlaneGraph, x: str) -> PlaneGraph:
    out = uncross_by_retracing(plane, x)
    if out is None:
        raise ReembedError(f"could not re-insert edges of crossing {x} without a crossing")
    out.validate()
    return out


def _corner_face(plane: PlaneGraph, v: str, idx: int) -> Optional[Tuple]:
    """The darts of the face occupying the corner before rotation index idx
    at v; None at an isolated vertex."""
    rot = plane.rotation[v]
    if not rot:
        return None
    return plane.trace_face((rot[(idx - 1) % len(rot)], v)).darts


def _fix_two_cut_by_retracing(plane: PlaneGraph, pairs: Sequence[Tuple[str, str]]) -> PlaneGraph:
    adj = plane.adjacency()
    for w, x in pairs:
        for comp in sorted(graphutil.components(adj, removed={w, x}), key=lambda c: sorted(c)[0]):
            flipped = _flip_component(plane, comp, w, x)
            if flipped is None or _alternates(flipped, x):
                continue
            return _checked_uncross(flipped, x)
    raise ReembedError("3-connectivity fix: no split component flip removes a dummy 2-cut")


# ---------------------------------------------------------------------------
# Planarity (Demoucron-Malgrange-Pertuiset)
# ---------------------------------------------------------------------------


def is_planar(adj: Adj) -> bool:
    return all(_demoucron(graphutil.adjacency({v for e in b for v in e}, b))
               for b in graphutil.blocks_and_cut_vertices(adj)[0])


def _demoucron(adj: Adj) -> bool:
    """Planarity of a biconnected simple graph by face-by-face embedding."""
    n = len(adj)
    m = sum(len(ns) for ns in adj.values()) // 2
    if n <= 4 or m <= n + 2:
        return True
    if m > 3 * n - 6:
        return False

    cycle = _find_cycle(adj)
    embedded_v: Set[str] = set(cycle)
    embedded_e: Set[FrozenSet[str]] = {
        frozenset((cycle[i], cycle[(i + 1) % len(cycle)])) for i in range(len(cycle))
    }
    faces: List[List[str]] = [list(cycle), list(reversed(cycle))]

    def fragments() -> List[Tuple[Set[str], Set[FrozenSet[str]], Set[str]]]:
        # A fragment: component of G - embedded vertices, plus its attachments,
        # or a single non-embedded edge between embedded vertices (a chord).
        frags = []
        seen: Set[str] = set()
        for v in sorted(adj):
            if v in embedded_v or v in seen:
                continue
            comp = {v}
            stack = [v]
            seen.add(v)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y in embedded_v or y in seen:
                        continue
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
            edges: Set[FrozenSet[str]] = set()
            contacts: Set[str] = set()
            for x in comp:
                for y in adj[x]:
                    edges.add(frozenset((x, y)))
                    if y in embedded_v:
                        contacts.add(y)
            frags.append((comp, edges, contacts))
        for v in sorted(embedded_v):
            for w in sorted(adj[v]):
                if w in embedded_v and frozenset((v, w)) not in embedded_e and v < w:
                    frags.append((set(), {frozenset((v, w))}, {v, w}))
        return frags

    while True:
        frags = fragments()
        if not frags:
            return True
        chosen = None
        chosen_faces = None
        for frag in frags:
            admissible = [i for i, f in enumerate(faces) if frag[2] <= set(f)]
            if not admissible:
                return False
            if len(admissible) == 1:
                chosen, chosen_faces = frag, admissible
                break
        if chosen is None:
            chosen = frags[0]
            chosen_faces = [i for i, f in enumerate(faces) if chosen[2] <= set(f)]
        comp, edges, contacts = chosen
        face_idx = chosen_faces[0]
        path = _alpha_path(adj, comp, contacts)
        _embed_path(faces, face_idx, path)
        embedded_v.update(path)
        for i in range(len(path) - 1):
            embedded_e.add(frozenset((path[i], path[i + 1])))


def _find_cycle(adj: Adj) -> List[str]:
    start = sorted(adj)[0]
    parent: Dict[str, Optional[str]] = {start: None}
    on_path: Set[str] = {start}
    stack: List[Tuple[str, List[str]]] = [(start, sorted(adj[start], reverse=True))]
    while stack:
        v, todo = stack[-1]
        if todo:
            w = todo.pop()
            if w not in parent:
                parent[w] = v
                on_path.add(w)
                stack.append((w, sorted(adj[w], reverse=True)))
            elif w != parent[v] and w in on_path:
                cyc = [v]
                x = v
                while x != w:
                    x = parent[x]  # type: ignore[assignment]
                    cyc.append(x)
                return cyc
        else:
            stack.pop()
            on_path.discard(v)
    raise ValueError("acyclic graph has trivial planarity")


def _alpha_path(adj: Adj, comp: Set[str], contacts: Set[str]) -> List[str]:
    """A path through the fragment between two distinct contact vertices."""
    contacts_sorted = sorted(contacts)
    a = contacts_sorted[0]
    if not comp:
        return [a, contacts_sorted[1]]
    starts = sorted(w for w in adj[a] if w in comp)
    first = starts[0]
    parent: Dict[str, Optional[str]] = {first: None}
    stack = [first]
    target = None
    while stack:
        v = stack.pop()
        hits = sorted(w for w in adj[v] if w in contacts and w != a)
        if hits:
            target = hits[0]
            tail = [target, v]
            x = v
            while parent[x] is not None:
                x = parent[x]  # type: ignore[assignment]
                tail.append(x)
            tail.append(a)
            return list(reversed(tail))
        for w in sorted(adj[v]):
            if w in comp and w not in parent:
                parent[w] = v
                stack.append(w)
    raise ValueError("fragment with fewer than two contacts")


def _embed_path(faces: List[List[str]], face_idx: int, path: List[str]) -> None:
    face = faces.pop(face_idx)
    a, b = path[0], path[-1]
    ia = face.index(a)
    rotated = face[ia:] + face[:ia]
    ib = rotated.index(b)
    inner = path[1:-1]
    side1 = rotated[: ib + 1] + list(reversed(inner))
    side2 = rotated[ib:] + [rotated[0]] + inner
    faces.append(side1)
    faces.append(side2)


# ---------------------------------------------------------------------------
# Outer face by planarization pieces
# ---------------------------------------------------------------------------


def outer_face_by_pieces(plane: PlaneGraph, positions: Dict[str, Point], d: PolylineDrawing):
    """Darts of the unbounded face of the embedding induced by d, located via
    the bottommost drawing point of the pieces; () when there are no edges.
    positions holds every vertex of plane, dummies at their crossings."""
    if not plane.edges:
        return ()
    pieces = _plane_polylines(plane, positions, d)
    best: Optional[Tuple[Fraction, Fraction]] = None
    best_kind: Optional[Tuple] = None  # ("vertex", v) or ("bend", edge, index)
    for v in plane.vertices:
        key = (positions[v].y, positions[v].x)
        if best is None or key < best:
            best, best_kind = key, ("vertex", v)
    for e in sorted(pieces):
        for i, p in enumerate(pieces[e][1:-1], start=1):
            key = (p.y, p.x)
            if best is None or key < best:
                best, best_kind = key, ("bend", e, i)
    assert best_kind is not None
    if best_kind[0] == "vertex":
        v = best_kind[1]
        dirs = []
        for e in plane.rotation[v]:
            pts = pieces[e]
            if pts[0] != positions[v]:
                pts = list(reversed(pts))
            dirs.append(((pts[1].x - pts[0].x, pts[1].y - pts[0].y), e))
        ordered = _sort_edge_dirs_ccw(dirs)
        e_min = ordered[0][1]
        return plane.trace_face((e_min, plane.other_end(e_min, v))).darts
    _, e, i = best_kind
    pts = pieces[e]
    p = pts[i]
    d_prev = (pts[i - 1].x - p.x, pts[i - 1].y - p.y)
    d_next = (pts[i + 1].x - p.x, pts[i + 1].y - p.y)
    lo = sort_directions_ccw([d_prev, d_next])[0]
    va, vb = plane.edges[e]
    # Walk through the bend arriving along the low-angle ray: the tail is the
    # endpoint on that side, so the unbounded region lies left of the dart.
    tail = va if lo == d_prev else vb
    return plane.trace_face((e, tail)).darts


def _plane_polylines(plane: PlaneGraph, positions: Dict[str, Point], d: PolylineDrawing) -> Dict[str, List[Point]]:
    """Polyline per planarization edge, oriented from its first endpoint."""
    out: Dict[str, List[Point]] = {}
    for e, (va, vb) in plane.edges.items():
        orig = plane.original_edge_of(e)
        pts = list(d.polylines[orig])
        a_id, b_id = d.graph.edges[orig]
        if pts[0] != d.positions[a_id]:
            pts = list(reversed(pts))
        pa, pb = positions[va], positions[vb]
        if e == orig:
            piece = pts
        else:
            # Fragment: cut the original polyline at the crossing point.
            cut = pa if va not in plane.real else pb
            idx = _locate_on_polyline(pts, cut)
            first = pts[: idx + 1] + [cut]
            second = [cut] + pts[idx + 1 :]
            piece = first if (first[0] == pa or first[0] == pb) else second
        if piece[0] != pa:
            piece = list(reversed(piece))
        out[e] = _dedup(piece)
    return out


def _locate_on_polyline(pts: List[Point], p: Point) -> int:
    for i in range(len(pts) - 1):
        if on_segment(p, Segment(pts[i], pts[i + 1])):
            return i
    raise DrawingError(f"point {p} not on polyline")


def _dedup(pts: List[Point]) -> List[Point]:
    out = [pts[0]]
    for p in pts[1:]:
        if p != out[-1]:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# The 1-bend checker on rebuilt segments
# ---------------------------------------------------------------------------


def shape_by_points(pts: List[Point]) -> Tuple[Optional[int], ...]:
    """The octant of each segment of a polyline, None off the slopes."""
    return tuple(octant((q.x - p.x, q.y - p.y)) for p, q in zip(pts, pts[1:]))


def port_dirs_by_points(g: onebend.Gamma, v: str) -> Dict[str, str]:
    """Drawn edge id -> port name at v, from the coordinates."""
    out = {}
    p = g.pos[v]
    for e in g.plane.rotation[v]:
        pts = g.polylines.get(e)
        if not pts:
            continue
        q = pts[1] if pts[0] == p else pts[-2]
        o = octant((q.x - p.x, q.y - p.y))
        if o is None:
            raise onebend.OneBendError(f"edge {e} leaves {v} off the canonical slopes")
        out[e] = onebend.PORTS[o]
    return out


def horizontal_edges_by_points(g: onebend.Gamma) -> Set[str]:
    base = g.base_edge
    return {
        e for e, pts in g.polylines.items()
        if e != base and any(p.y == q.y for p, q in zip(pts, pts[1:]))
    }


def unabsorbing_ends_by_points(g: onebend.Gamma) -> List[Tuple[str, str]]:
    """Reference for the unabsorbing ends Gamma keeps, sorted: the ends
    (a, b) of each horizontal-bearing edge whose polyline, read from a,
    has no rightward horizontal segment."""
    out = []
    for e in horizontal_edges_by_points(g):
        for a in g.plane.edges[e]:
            if first_rightward_horizontal(from_stationary_end(g, e, {a})) is None:
                out.append((a, g.plane.other_end(e, a)))
    return sorted(out)


def cut_components_by_rebuild(g: onebend.Gamma) -> List[Set[str]]:
    """Reference for the cut forest Gamma keeps: the components of the
    placed vertices over the drawn edges other than the base edge and the
    horizontal-bearing ones, the latter read off the points."""
    base = g.base_edge
    hor = horizontal_edges_by_points(g)
    adj: Dict[str, Set[str]] = {v: set() for v in g.pos}
    for e in g.polylines:
        if e != base and e not in hor:
            a, b = g.plane.edges[e]
            adj[a].add(b)
            adj[b].add(a)
    return graphutil.components(adj)


def from_stationary_end(g: onebend.Gamma, e: str, left: Set[str]) -> List[Point]:
    """The polyline of a split edge, oriented from its end in `left`."""
    a, b = g.plane.edges[e]
    pts = g.polylines[e]
    return pts if pts[0] == g.pos[a if a in left else b] else pts[::-1]


def first_rightward_horizontal(pts: List[Point]) -> Optional[int]:
    for i in range(len(pts) - 1):
        if pts[i].y == pts[i + 1].y and pts[i + 1].x > pts[i].x:
            return i
    return None


def stretch_by_fractions(
    plane: PlaneGraph, v1: str, v2: str, pos: Dict[str, Point],
    polylines: Dict[str, List[Point]], left: Set[str], delta: Fraction,
) -> Tuple[Dict[str, Point], Dict[str, List[Point]]]:
    """pos and polylines, in Fractions, after moving every vertex outside
    `left` right by delta: an edge with no end in `left` moves whole, an
    edge with one end in it lengthens its first rightward horizontal from
    that end and is drawn from it, and the base edge dips from v1 and v2 to
    where their SE and SW rays meet."""
    base = onebend._edge_between(plane, v1, v2)

    def moved(p: Point) -> Point:
        return Point(p.x + delta, p.y)

    new_pos = {v: p if v in left else moved(p) for v, p in pos.items()}
    new_lines = {}
    for e, pts in polylines.items():
        a, b = plane.edges[e]
        if e == base:
            continue
        if a in left and b in left:
            new_lines[e] = list(pts)
        elif a not in left and b not in left:
            new_lines[e] = [moved(p) for p in pts]
        else:
            stay = pos[a if a in left else b]
            line = list(pts) if pts[0] == stay else pts[::-1]
            k = first_rightward_horizontal(line)
            line = line[: k + 1] + [moved(p) for p in line[k + 1 :]]
            new_lines[e] = line
    p1, p2 = new_pos[v1], new_pos[v2]
    t = Fraction(p2.x - p2.y - p1.x + p1.y, 2)
    new_lines[base] = [p1, Point(p1.x + t, p1.y - t), p2]
    return new_pos, new_lines


def check_stretch(g: onebend.Gamma, left: Set[str]) -> List[str]:
    """onebend._check_simple restricted to the segment pairs that the
    stretch which kept `left` in place can have moved relative to each
    other.

    Edges with both ends in `left` stayed, edges with neither end in it
    moved rigidly; split edges and the base edge were drawn anew.  Two
    segments that both stayed, or both moved rigidly, keep their relative
    position, so only pairs with a reshaped segment, or of one stationary
    and one translated segment, are tested.  On a drawing that was simple
    before the stretch it rejects exactly what _check_simple rejects.
    """
    stationary, translated, reshaped = 0, 1, None
    base = g.base_edge
    labels, prepared = g.indexed()
    group_of = {}
    for e in set(labels):
        a, b = g.plane.edges[e]
        if e == base or (a in left) != (b in left):
            group_of[e] = reshaped
        else:
            group_of[e] = stationary if a in left else translated
    groups = [group_of[e] for e in labels]
    hits = ((i, j, res) for i, j, res in sweep_hits(prepared)
            if groups[i] is reshaped or groups[i] != groups[j])
    return onebend._improper_pairs(g, labels, hits)


def preds_on_contour_by_scan(drawer: onebend.OneBendDrawer, members: List[str]) -> List[str]:
    """The contour vertices adjacent to a member, found by scanning every
    contour vertex's rotation."""
    plane = drawer.plane
    member_set = set(members)
    preds = []
    for v in drawer.g.contour:
        for e in plane.rotation[v]:
            if plane.other_end(e, v) in member_set:
                preds.append(v)
                break
    return preds


def window(old: List[str], new: List[str]) -> Tuple[int, int]:
    """The index span [lo, hi] of contour `new` that differs from contour
    `old`, widened by one vertex on each side.  The vertices after hi are
    those after hi - len(new) + len(old) in `old`."""
    n = min(len(old), len(new))
    p = 0
    while p < n and old[p] == new[p]:
        p += 1
    s = 0
    while s < n - p and old[-1 - s] == new[-1 - s]:
        s += 1
    return max(p - 1, 0), min(len(new) - s, len(new) - 1)


def check_gamma_by_points(g: onebend.Gamma) -> List[str]:
    """onebend.check_gamma with P1 to P4 on rebuilt segments."""
    return (
        _p1_by_points(g) + _p2_by_points(g) + _p3_by_points(g) + check_p4_by_points(g)
        + onebend._check_p5(g) + onebend._check_p6(g) + onebend._check_rotations(g)
        + onebend._check_simple(g)
    )


def _p1_by_points(g: onebend.Gamma) -> List[str]:
    return [
        f"P1: segment of {e} off the canonical slopes"
        for e in g.drawn_edges() for p, q in zip(g.polylines[e], g.polylines[e][1:])
        if slope_of(Segment(p, q)).kind is SlopeKind.OTHER
    ]


def _count_bends(pts: Sequence[Point]) -> int:
    """The turns of a polyline; on an edge with a segment off the four
    slopes, where no shape is read, a fold back is a bend too."""
    off = any(slope_of(Segment(p, q)).kind is SlopeKind.OTHER for p, q in zip(pts, pts[1:]))
    bends = 0
    for i in range(1, len(pts) - 1):
        d1 = (pts[i].x - pts[i - 1].x, pts[i].y - pts[i - 1].y)
        d2 = (pts[i + 1].x - pts[i].x, pts[i + 1].y - pts[i].y)
        if d1[0] * d2[1] - d1[1] * d2[0] != 0 or (off and d1[0] * d2[0] + d1[1] * d2[1] < 0):
            bends += 1
    return bends


def _p2_by_points(g: onebend.Gamma) -> List[str]:
    out = []
    seen: Set[str] = set()
    for e in g.drawn_edges():
        orig = g.plane.original_edge_of(e)
        if orig in seen:
            continue
        seen.add(orig)
        pts = join_fragments(g.plane, g.polylines, orig)
        if pts and _count_bends(pts) > 1:
            out.append(f"P2: edge {orig} has {_count_bends(pts)} bends")
    return out


def _p3_by_points(g: onebend.Gamma) -> List[str]:
    base = g.base_edge
    if base not in g.polylines:
        return ["P3: base edge not drawn"]
    pts = g.polylines[base]
    if len(pts) != 3:
        return [f"P3: base edge drawn with {len(pts) - 2} bends"]
    out = []
    p1, low, p2 = pts
    if slope_of(Segment(p1, low)).kind is not SlopeKind.DEG135:
        out.append("P3: left base segment not on the SE port slope")
    if slope_of(Segment(low, p2)).kind is not SlopeKind.DEG45:
        out.append("P3: right base segment not on the SW port slope")
    all_points = onebend._all_drawing_points(g)
    for q in all_points:
        if q != low and q.y <= low.y:
            out.append(f"P3: {g.unscaled(q)} not above the base low point")
            break
    for q in all_points:
        if q not in (p1, p2, low) and (q.y - p1.y == -(q.x - p1.x) or q.y - p2.y == q.x - p2.x):
            out.append(f"P3: {g.unscaled(q)} lies on a base support line")
            break
    return out


def check_p4_by_points(g: onebend.Gamma) -> List[str]:
    """P4 on the contour path segments: (a) and (b) at every pair of
    consecutive attachable contour vertices, then (c), separation by the
    horizontal-bearing edges, at the pairs whose path has a vertical."""
    out, cut = [], []
    contour = g.contour
    for iu, iv in onebend._attachable_pairs(g, 0, len(contour) - 1):
        u, v = contour[iu], contour[iv]
        path = contour[iu : iv + 1]
        segs = _contour_path_segments(g, path)
        if (
            not g.plane.is_dummy(u)
            and not g.plane.is_dummy(v)
            and g.attachable(u)
            and g.attachable(v)
        ):
            has_horizontal = any(s.a.y == s.b.y for s in segs)
            has_vertical = any(s.a.x == s.b.x for s in segs)
            if not has_horizontal and has_vertical:
                out.append(f"P4b: no horizontal on the contour between {u} and {v}")
        plain = _without_vertical_edges(g, path, segs)
        if g.attachable(u) and not _port_used(g, u, "NE"):
            if not _p4a_ok(plain):
                out.append(f"P4a: vertical before any horizontal between {u} and {v}")
        if g.attachable(v) and not _port_used(g, v, "NW"):
            if not _p4a_ok([Segment(s.b, s.a) for s in reversed(plain)]):
                out.append(f"P4a: vertical before any horizontal between {v} and {u} (reverse)")
        if any(s.a.x == s.b.x for s in plain):
            cut.append((u, v))
    if cut:
        comp_of = {v: i for i, comp in enumerate(cut_components_by_rebuild(g)) for v in comp}
        for u, v in cut:
            if comp_of[u] == comp_of[v]:
                out.append(f"P4c: no all-horizontal cut separates {u} from {v}")
    return out


def _port_used(g: onebend.Gamma, v: str, port: str) -> bool:
    return port in port_dirs_by_points(g, v).values() and not g.plane.is_dummy(v)


def _without_vertical_edges(g: onebend.Gamma, path: List[str], segs: List[Segment]) -> List[Segment]:
    """Drop segments of edges drawn as single vertical segments."""
    vertical_edges = set()
    for a, b in zip(path, path[1:]):
        pts = g.polylines[onebend._edge_between(g.plane, a, b)]
        if len(pts) == 2 and pts[0].x == pts[1].x:
            vertical_edges.add((pts[0], pts[1]))
            vertical_edges.add((pts[1], pts[0]))
    return [s for s in segs if (s.a, s.b) not in vertical_edges]


def _contour_path_segments(g: onebend.Gamma, path: List[str]) -> List[Segment]:
    segs: List[Segment] = []
    for a, b in zip(path, path[1:]):
        pts = list(g.polylines[onebend._edge_between(g.plane, a, b)])
        if pts[0] != g.pos[a]:
            pts.reverse()
        segs.extend(Segment(p, q) for p, q in zip(pts, pts[1:]))
    return segs


def _p4a_ok(segs: List[Segment]) -> bool:
    seen_horizontal = False
    for s in segs:
        if s.a.y == s.b.y:
            seen_horizontal = True
        elif s.a.x == s.b.x and s.b.y > s.a.y and not seen_horizontal:
            return False
    return True


class _RetracingBuilder:
    """The reverse removal by trial: private copies of the adjacency and
    rotations, each candidate removed, the whole contour retraced, and a
    snapshot restored when the candidate is refused."""

    def __init__(self, plane: PlaneGraph, v1: str, v2: str):
        self.plane = plane
        self.v1 = v1
        self.v2 = v2
        self.adj: Dict[str, Set[str]] = {v: set() for v in plane.vertices}
        self.edge_id: Dict[Tuple[str, str], str] = {}
        for e, (a, b) in plane.edges.items():
            self.adj[a].add(b)
            self.adj[b].add(a)
            self.edge_id[(a, b)] = e
            self.edge_id[(b, a)] = e
        self.rotation: Dict[str, List[str]] = {v: list(r) for v, r in plane.rotation.items()}
        self.alive: Set[str] = set(plane.vertices)
        self.full_degree: Dict[str, int] = {v: len(plane.rotation[v]) for v in plane.vertices}
        outer = plane.outer_face()
        self.base_dart = self._base_dart(outer)
        self.contour: List[str] = self._trace_contour()

    def _base_dart(self, outer) -> Dart:
        for e, tail in outer.darts:
            head = self.plane.dart_head((e, tail))
            if {tail, head} == {self.v1, self.v2}:
                return (e, tail)
        raise OrderingError(f"edge ({self.v1},{self.v2}) is not on the outer face")

    def degree(self, v: str) -> int:
        return len(self.adj[v])

    def has_successor(self, v: str) -> bool:
        return self.degree(v) < self.full_degree[v]

    # -- face tracing on the live subgraph --------------------------------

    def _next_dart(self, d: Dart) -> Dart:
        e, tail = d
        a, b = self.plane.edges[e]
        head = b if tail == a else a
        rot = self.rotation[head]
        i = rot.index(e)
        nxt = rot[(i - 1) % len(rot)]
        return (nxt, head)

    def _trace_contour(self) -> List[str]:
        seq: List[str] = []
        d = self.base_dart
        limit = 4 * len(self.edge_id) + 8
        while True:
            seq.append(d[1])
            d = self._next_dart(d)
            if d == self.base_dart:
                return seq
            if len(seq) > limit:
                raise OrderingError("outer face trace does not close")

    # -- removal / restore --------------------------------------------------

    def remove(self, verts: Sequence[str]):
        saved = {
            "rot": {},
            "adj": {},
            "verts": list(verts),
        }
        touched: Set[str] = set()
        for z in verts:
            touched.add(z)
            touched.update(self.adj[z])
        for u in touched:
            saved["rot"][u] = list(self.rotation[u])
            saved["adj"][u] = set(self.adj[u])
        for z in verts:
            for w in list(self.adj[z]):
                self.adj[w].discard(z)
                e = self.edge_id[(z, w)]
                if e in self.rotation[w]:
                    self.rotation[w].remove(e)
            self.adj[z] = set()
            self.rotation[z] = []
            self.alive.discard(z)
        return saved

    def restore(self, saved) -> None:
        for u, rot in saved["rot"].items():
            self.rotation[u] = list(rot)
        for u, a in saved["adj"].items():
            self.adj[u] = set(a)
        for z in saved["verts"]:
            self.alive.add(z)

    # -- candidate enumeration ----------------------------------------------

    def candidates(self, first: bool) -> List[CanonicalSet]:
        on_contour = []
        seen: Set[str] = set()
        for v in self.contour:
            if v not in seen:
                seen.add(v)
                on_contour.append(v)
        out: List[CanonicalSet] = []
        if first:
            for v in on_contour:
                if v in (self.v1, self.v2):
                    continue
                if self.v1 in self.adj[v]:
                    out.append(CanonicalSet("singleton", [v]))
            out.sort(key=lambda s: s.vertices[0])
            return out
        contour_set = set(on_contour)
        deg2 = {v for v in on_contour if self.degree(v) == 2 and v not in (self.v1, self.v2)}
        runs = self._deg2_runs(on_contour, deg2)
        in_long_run: Set[str] = set()
        for run in runs:
            if len(run) >= 2:
                out.append(CanonicalSet("chain", run))
                in_long_run.update(run)
        for v in on_contour:
            if v in (self.v1, self.v2) or v in in_long_run:
                continue
            if not self.has_successor(v):
                continue
            out.append(CanonicalSet("singleton", [v]))
        out.sort(key=lambda s: min(s.vertices))
        return out

    def _deg2_runs(self, on_contour: List[str], deg2: Set[str]) -> List[List[str]]:
        n = len(on_contour)
        if not deg2:
            return []
        anchors = [i for i, v in enumerate(on_contour) if v not in deg2]
        if not anchors:
            return [list(on_contour)]
        runs: List[List[str]] = []
        cur: List[str] = []
        start = anchors[0]
        for k in range(1, n + 1):
            v = on_contour[(start + k) % n]
            if v in deg2:
                cur.append(v)
            elif cur:
                runs.append(cur)
                cur = []
        if cur:
            runs.append(cur)
        return runs

    def try_remove(self, cand: CanonicalSet) -> bool:
        """Remove cand if the contour stays a simple cycle; False if not."""
        verts = cand.vertices
        vs = set(verts)
        if cand.kind == "chain":
            ends_preds = []
            for z in (verts[0], verts[-1]):
                preds = [w for w in self.adj[z] if w not in vs]
                if len(preds) != 1:
                    return False
                ends_preds.append(preds[0])
            if len(verts) > 1 and ends_preds[0] == ends_preds[1]:
                return False
            for z in verts[1:-1]:
                if any(w not in vs for w in self.adj[z]):
                    return False
            if not all(self.has_successor(z) for z in verts):
                return False
        saved = self.remove(verts)
        try:
            contour = self._trace_contour()
        except (OrderingError, ValueError):
            self.restore(saved)
            return False
        ok = (
            len(set(contour)) == len(contour)
            and self.v1 in contour
            and self.v2 in contour
            and all(v in self.alive for v in contour)
        )
        if len(self.alive) == 2:
            ok = set(contour) == {self.v1, self.v2}
        if not ok:
            self.restore(saved)
            return False
        self.contour = contour
        return True


def canonical_order_by_retracing(plane: PlaneGraph, v1: str, v2: str) -> CanonicalOrdering:
    """ordering.canonical_order by trial removal and retracing; the
    same candidate order and accept rule."""
    if not plane.is_triconnected():
        raise OrderingError("canonical ordering needs a 3-connected plane graph")
    if v2 not in (plane.other_end(e, v1) for e in plane.rotation[v1]):
        raise OrderingError(f"({v1},{v2}) is not an edge")
    b = _RetracingBuilder(plane, v1, v2)
    removed_sets: List[CanonicalSet] = []
    while len(b.alive) > 2:
        cand = next((c for c in b.candidates(first=not removed_sets) if b.try_remove(c)), None)
        if cand is None:
            raise OrderingError(f"no canonical ordering: dead end at contour {b.contour}")
        removed_sets.append(cand)
    return CanonicalOrdering(sets=[CanonicalSet("base", [v1, v2])] + removed_sets[::-1],
                             v1=v1, v2=v2)


def vertex_order(ordering: CanonicalOrdering) -> List[str]:
    return [v for s in ordering.sets for v in s.vertices]


def verify_canonical(plane: PlaneGraph, ordering: CanonicalOrdering) -> Tuple[bool, List[str]]:
    """Check conditions (i)-(v) directly on every prefix graph.

    Internal 3-connectivity is read off the faces of G_i: no separating
    pair of G_i may have both vertices inside C_i (see
    PlaneGraph.separating_pairs).
    """
    problems: List[str] = []
    sets = ordering.sets
    v1, v2 = ordering.v1, ordering.v2

    if not sets or sets[0].vertices != [v1, v2]:
        return False, ["(i) first set is not {v1, v2}"]
    outer_vertices = set(plane.outer_face().vertices())
    if v1 not in outer_vertices or v2 not in outer_vertices:
        problems.append("(i) v1, v2 not on the outer face")
    adj_full = plane.adjacency()
    if v2 not in adj_full[v1]:
        problems.append("(i) (v1, v2) is not an edge")
    order = vertex_order(ordering)
    if sorted(order) != sorted(plane.vertices):
        problems.append("partition does not cover the vertex set exactly")
        return False, problems
    last = sets[-1]
    if len(last.vertices) != 1:
        problems.append("(ii) last set is not a singleton")
    else:
        vn = last.vertices[0]
        if vn not in outer_vertices:
            problems.append("(ii) vn not on the outer face")
        if vn not in adj_full[v1]:
            problems.append("(ii) (v1, vn) is not an edge")

    try:
        base_dart = _base_outer_dart(plane, v1, v2)
    except OrderingError as exc:
        return False, [str(exc)]

    # Incremental prefixes.
    placed: Set[str] = set()
    contour_of: Dict[int, List[str]] = {}
    for i, cs in enumerate(sets):
        placed.update(cs.vertices)
        sub = {v: adj_full[v] & placed for v in placed}
        if i == 0:
            continue
        gi = plane.induced(placed)
        try:
            contour = gi.trace_face(base_dart).vertices()
        except (OrderingError, EmbeddingError, ValueError, KeyError) as exc:
            problems.append(f"(iii) G_{i + 1}: {exc}")
            break
        contour_of[i] = contour
        if len(set(contour)) != len(contour):
            problems.append(f"(iii) C_{i + 1} is not a simple cycle")
        if not graphutil.is_biconnected(sub) and len(placed) > 2:
            problems.append(f"(iv) G_{i + 1} is not 2-connected")
        interior = placed - set(contour)
        bad = [uw for uw in gi.separating_pairs() or () if interior.issuperset(uw)]
        if bad:
            problems.append(
                f"(iv) G_{i + 1} not internally 3-connected: interior pair ({bad[0][0]}, {bad[0][1]})"
            )

    # Condition (v) per set.
    placed = set(sets[0].vertices)
    for i in range(1, len(sets)):
        cs = sets[i]
        prev_contour = contour_of.get(i - 1) if i >= 2 else [v1, v2]
        cur_contour = contour_of.get(i, [])
        is_last = i == len(sets) - 1
        if cs.kind == "singleton" or len(cs.vertices) == 1:
            z = cs.vertices[0]
            if cur_contour and z not in cur_contour:
                problems.append(f"(v) singleton {z} not on C_{i + 1}")
            succ = [w for w in adj_full[z] if w not in placed and w != z]
            if not is_last and not succ:
                problems.append(f"(v-a) singleton {z} has no successor")
            preds = [w for w in adj_full[z] if w in placed]
            if len(preds) < 2:
                problems.append(f"(v-a) singleton {z} has fewer than two predecessors")
        else:
            chain = cs.vertices
            prevc = set(prev_contour or [])
            for idx, z in enumerate(chain):
                preds = [w for w in adj_full[z] if w in placed]
                succ = [w for w in adj_full[z] if w not in placed and w not in chain]
                if idx in (0, len(chain) - 1):
                    if len(preds) != 1 or (preds and preds[0] not in prevc):
                        problems.append(f"(v-b) chain end {z} lacks exactly one contour predecessor")
                else:
                    if preds:
                        problems.append(f"(v-b) chain interior {z} has a predecessor")
                if not is_last and not succ:
                    problems.append(f"(v-b) chain vertex {z} has no successor")
        placed.update(cs.vertices)

    return not problems, problems


# ---------------------------------------------------------------------------
# The 2-bend invariants on every drawing draw_liu returns
# ---------------------------------------------------------------------------


class InvariantRounds:
    """A stand-in for twobend.draw_liu that runs twobend.check_invariants on
    each drawing it returns and keeps what it finds.

    It also keeps, as dummy_bends, every edge with a dummy end that leaves
    and enters through horizontal ports, read off the ports alone: a C or a
    Z there would give its crossed edge more than two bends.
    """

    def __init__(self) -> None:
        self.drawings = 0
        self.problems: List[str] = []
        self.dummy_bends: List[str] = []
        self._draw_liu = twobend.draw_liu

    def install(self, monkeypatch) -> None:
        monkeypatch.setattr(twobend, "draw_liu", self.draw)

    def draw(self, plane: PlaneGraph, s: str, t: str) -> twobend.OrthoDrawing:
        d = self._draw_liu(plane, s, t)
        self.drawings += 1
        self.problems += twobend.check_invariants(d)
        horizontal = ("E", "W")
        self.dummy_bends += [
            e.edge_id for e in d.edges.values()
            if e.out_port in horizontal and e.in_port in horizontal
            and (plane.is_dummy(e.tail) or plane.is_dummy(e.head))
        ]
        return d


# ---------------------------------------------------------------------------
# The angular order by comparison
# ---------------------------------------------------------------------------


def sort_directions_ccw(dirs: list) -> list:
    return sorted(dirs, key=angle_key)


def min_angle_eighths_lower_bound(dirs: list) -> Optional[int]:
    """Largest k in 0..4 such that every consecutive angular gap >= k*pi/4.

    Directions are taken as rays around a common point, in any order; the
    sorting form of geometry.min_gap_eighths.  A zero direction is no ray
    and is ignored.  Returns None when two rays coincide.
    """
    return min_gap_eighths(sort_directions_ccw(dirs))


def angular_compare(d1: Direction, d2: Direction) -> int:
    """Exact counterclockwise angular order from east: -1, 0, or 1."""
    h1, h2 = _half_turn(d1), _half_turn(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    c = cross(d1, d2)
    return 0 if c == 0 else (-1 if c > 0 else 1)


def _half_turn(d: Direction) -> int:
    dx, dy = d
    return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1


# ---------------------------------------------------------------------------
# The validator with two sets of ray helpers
# ---------------------------------------------------------------------------


def analyze_by_items(d: PolylineDrawing) -> Interactions:
    """Classify all segment interactions of a drawing."""
    violations: List[str] = []
    crossings: Dict[Point, List[Tuple[str, int, Segment]]] = {}
    segs = d.all_segments()
    for i, j, res in segment_hits([seg for _, _, seg in segs]):
        (e1, i1, s1), (e2, i2, s2) = segs[i], segs[j]
        if e1 == e2:
            if abs(i1 - i2) == 1:
                if res.kind is not IntersectKind.SHARED_ENDPOINT:
                    violations.append(f"edge {e1} self-intersects near segment {min(i1, i2)}")
            else:
                violations.append(f"edge {e1} self-intersects (segments {i1}, {i2})")
            continue
        if res.kind is IntersectKind.OVERLAP:
            violations.append(f"edges {e1} and {e2} overlap")
        elif res.kind is IntersectKind.TOUCH:
            pt = res.point
            # A transversal crossing where one edge has its bend exactly at
            # the crossing point is a legal proper intersection.
            if _corner_crossing(d, e1, pt, s2) or _corner_crossing(d, e2, pt, s1):
                entry = crossings.setdefault(pt, [])
                for item in ((e1, i1, s1), (e2, i2, s2)):
                    if item not in entry:
                        entry.append(item)
            else:
                violations.append(f"edges {e1} and {e2} touch at {pt} (non-simple)")
        elif res.kind is IntersectKind.SHARED_ENDPOINT:
            a1, b1 = d.graph.edges[e1]
            a2, b2 = d.graph.edges[e2]
            shared = {a1, b1} & {a2, b2}
            pt = res.point
            if any(d.positions.get(v) == pt for v in shared):
                pass
            elif _corner_corner_crossing(d, e1, e2, pt):
                entry = crossings.setdefault(pt, [])
                for item in ((e1, i1, s1), (e2, i2, s2)):
                    if item not in entry:
                        entry.append(item)
            else:
                violations.append(
                    f"edges {e1} and {e2} meet at {pt}, not a common endpoint (non-simple)"
                )
        elif res.kind is IntersectKind.PROPER_CROSSING:
            pt = res.point
            entry = crossings.setdefault(pt, [])
            for item in ((e1, i1, s1), (e2, i2, s2)):
                if item not in entry:
                    entry.append(item)
    simple = not violations
    one_planar = True
    for pt, items in sorted(crossings.items()):
        edges_here = sorted({e for e, _, _ in items})
        if len(edges_here) > 2:
            violations.append(f"more than two edges cross at {pt}")
            simple = False
    per_pair: Dict[Tuple[str, str], List[Point]] = {}
    for pt, items in crossings.items():
        edges_here = sorted({e for e, _, _ in items})
        if len(edges_here) == 2:
            per_pair.setdefault((edges_here[0], edges_here[1]), []).append(pt)
    for (e1, e2), pts in sorted(per_pair.items()):
        if len(pts) > 1:
            violations.append(f"edges {e1} and {e2} cross {len(pts)} times")
            simple = False
        a1, b1 = d.graph.edges[e1]
        a2, b2 = d.graph.edges[e2]
        if {a1, b1} & {a2, b2}:
            violations.append(f"adjacent edges {e1} and {e2} cross (share two points)")
            simple = False
    per_edge: Dict[str, int] = {}
    for (e1, e2), pts in per_pair.items():
        per_edge[e1] = per_edge.get(e1, 0) + len(pts)
        per_edge[e2] = per_edge.get(e2, 0) + len(pts)
    for e, k in sorted(per_edge.items()):
        if k > 1:
            violations.append(f"edge {e} is crossed {k} times (1-planarity violated)")
            one_planar = False
    one_planar = one_planar and simple
    return Interactions(violations, crossings, simple, one_planar)


def vertex_direction_sets(d: PolylineDrawing) -> Dict[str, List[Direction]]:
    dirs: Dict[str, List[Direction]] = {v: [] for v in d.graph.vertices}
    for e, (a, b) in d.graph.edges.items():
        pts = d.polylines[e]
        if pts[0] != d.positions[a]:
            pts = list(reversed(pts))
        dirs[a].append((pts[1].x - pts[0].x, pts[1].y - pts[0].y))
        dirs[b].append((pts[-2].x - pts[-1].x, pts[-2].y - pts[-1].y))
    return dirs


def min_vertex_resolution(d: PolylineDrawing) -> Optional[int]:
    """Largest k with every vertex angle >= k*pi/4; None if some angle is 0."""
    best = 4
    for v, dirs in sorted(vertex_direction_sets(d).items()):
        if len(dirs) < 2:
            continue
        k = min_angle_eighths_lower_bound(dirs)
        if k is None:
            return None
        best = min(best, k)
    return best


def crossing_directions(d: PolylineDrawing, pt: Point, items) -> List[Direction]:
    """The four ray directions of the two edges at a crossing point."""
    dirs: List[Direction] = []
    for e in sorted({e for e, _, _ in items}):
        dirs.extend(_locate(d.polylines[e], pt)[1:])
    return dirs


def min_crossing_resolution(d: PolylineDrawing, crossings=None) -> Optional[int]:
    if crossings is None:
        crossings = analyze_by_items(d).crossings
    best = 4
    for pt, items in sorted(crossings.items()):
        dirs = crossing_directions(d, pt, items)
        k = min_angle_eighths_lower_bound(dirs)
        if k is None:
            return None
        best = min(best, k)
    return best


def embedding_of_by_two_ray_sets(d: PolylineDrawing) -> EmbeddedGraph:
    structural = d.check_structure()
    if structural:
        raise DrawingError("; ".join(structural))
    inter = analyze_by_items(d)
    if inter.violations:
        raise DrawingError(inter.violations[0])
    return embedding_from_by_rederiving(d, inter.crossings)


def embedding_from_by_rederiving(
    d: PolylineDrawing, crossings: Dict[Point, List[Tuple[str, int, Segment]]]
) -> EmbeddedGraph:
    """embedding_of for a structurally sound drawing whose analysis found
    no violations and these crossings."""
    # Crossing points per edge (a corner crossing reports one point twice).
    per_edge: Dict[str, Set[Point]] = {e: set() for e in d.graph.edges}
    pair_of: Dict[Point, Tuple[str, str]] = {}
    for pt, items in crossings.items():
        edges_here = sorted({e for e, _, _ in items})
        pair_of[pt] = (edges_here[0], edges_here[1])
        for e, _, _ in items:
            per_edge[e].add(pt)

    dummy_id: Dict[Point, str] = {}
    for i, pt in enumerate(sorted(pair_of)):
        dummy_id[pt] = f"{DUMMY_PREFIX}{i}"

    edges: Dict[str, Tuple[str, str]] = {}
    fragment_of: Dict[str, str] = {}
    endpoint_dirs: Dict[str, List[Tuple[Direction, str]]] = {v: [] for v in d.graph.vertices}
    dummy_dirs: Dict[str, List[Tuple[Direction, str]]] = {}
    positions: Dict[str, Point] = dict(d.positions)
    oriented: Dict[str, List[Point]] = {}
    crossing_at: Dict[str, int] = {}

    for e, (a, b) in sorted(d.graph.edges.items()):
        pts = d.polylines[e]
        if pts[0] != d.positions[a]:
            pts = list(reversed(pts))
        oriented[e] = pts
        marks = sorted(per_edge[e])
        if not marks:
            edges[e] = (a, b)
            endpoint_dirs[a].append(((pts[1].x - pts[0].x, pts[1].y - pts[0].y), e))
            endpoint_dirs[b].append(((pts[-2].x - pts[-1].x, pts[-2].y - pts[-1].y), e))
            continue
        # 1-planarity was already enforced: exactly one crossing on e.
        pt = marks[0]
        x = dummy_id[pt]
        ea, eb = f"{e}$a", f"{e}$b"
        edges[ea] = (a, x)
        edges[eb] = (x, b)
        fragment_of[ea] = e
        fragment_of[eb] = e
        positions[x] = pt
        endpoint_dirs[a].append(((pts[1].x - pts[0].x, pts[1].y - pts[0].y), ea))
        endpoint_dirs[b].append(((pts[-2].x - pts[-1].x, pts[-2].y - pts[-1].y), eb))
        crossing_at[e], toward_a, toward_b = _locate(pts, pt)
        dummy_dirs.setdefault(x, [])
        dummy_dirs[x].append((toward_a, ea))
        dummy_dirs[x].append((toward_b, eb))

    rotation: Dict[str, List[str]] = {}
    for v, dir_edges in list(endpoint_dirs.items()) + list(dummy_dirs.items()):
        ordered = _sort_edge_dirs_ccw(dir_edges)
        rotation[v] = [e for _, e in ordered]

    plane = PlaneGraph(
        vertices=list(d.graph.vertices) + sorted(dummy_dirs),
        real=set(d.graph.vertices),
        edges=edges,
        rotation=rotation,
        fragment_of=fragment_of,
    )
    plane.outer = _outer_face_dart(plane, positions, oriented, crossing_at)
    return EmbeddedGraph.from_plane(plane)


def validate_by_two_ray_sets(d: PolylineDrawing, profile: str) -> ValidationReport:
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    structural = d.check_structure()
    if structural:
        raise DrawingError("; ".join(structural))

    inter = analyze_by_items(d)
    violations: List[str] = list(inter.violations)
    crossings = inter.crossings

    slopes, n_slopes = _slope_summary(d.all_segments())
    bends = max_bends(d)
    v_res = min_vertex_resolution(d)
    c_res = min_crossing_resolution(d, crossings)
    one_planar = inter.one_planar

    embedding_ok = False
    if inter.simple and one_planar:
        try:
            induced = embedding_from_by_rederiving(d, crossings)
            embedding_ok = embeddings_equivalent(induced, d.graph)
        except (DrawingError, EmbeddingError) as exc:
            if profile == "ONEBEND":
                violations.append(f"embedding extraction failed: {exc}")

    if profile == "ONEBEND":
        if not slopes <= set(CANONICAL_SLOPES):
            violations.append(f"slope set {sorted(s.value for s in slopes)} not in the 4 canonical slopes")
        if bends > 1:
            violations.append(f"max bends {bends} > 1")
        if v_res is None or v_res < 1:
            violations.append(f"vertex resolution below pi/4 (got {v_res})")
        if crossings and (c_res is None or c_res < 1):
            violations.append(f"crossing resolution below pi/4 (got {c_res})")
        if not embedding_ok:
            violations.append("embedding not preserved")
    elif profile == "TWOBEND":
        if not slopes <= {SlopeKind.DEG0, SlopeKind.DEG90}:
            violations.append(f"slope set {sorted(s.value for s in slopes)} not in {{0, pi/2}}")
        if bends > 2:
            violations.append(f"max bends {bends} > 2")
        if v_res is None or v_res < 2:
            violations.append(f"vertex resolution below pi/2 (got {v_res})")
        if crossings and (c_res is None or c_res != 2):
            violations.append(f"crossing resolution not exactly pi/2 (got {c_res})")
    else:  # STRAIGHT
        if bends > 0:
            violations.append(f"straight-line profile but {bends} bends present")

    return ValidationReport(
        profile=profile,
        slope_set=slopes,
        slope_count=n_slopes,
        max_bends=bends,
        min_vertex_angle=v_res,
        min_crossing_angle=c_res if crossings else None,
        one_planar=one_planar,
        embedding_preserved=embedding_ok,
        violations=violations,
    )
