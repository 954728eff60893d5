"""Generators: lower-bound families and a randomized input corpus.

The fixed families are constructed geometrically with exact rational
coordinates and their embeddings extracted from the drawing, so adjacency,
rotation system, and crossing pattern come from one source of truth.
The corpus generator works combinatorially, in place: it grows a random
cubic 3-connected 1-plane graph from K4 by one move, which subdivides two
edges of an inner face and joins the new vertices across that face, by
one edge (an edge pair) or by two edges crossing at a new dummy (a
crossing gadget).  The face the move splits is read off the face record.
A failed move or profile check raises.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import graphutil
from .geometry import Point
from .model import (
    DUMMY_PREFIX,
    Dart,
    EmbeddedGraph,
    EmbeddingError,
    FaceRecord,
    PlaneGraph,
    connectivity,
    find_real_real_face,
    is_cubic,
)
from .verify import embedding_from_geometry

F = Fraction


def _pt(x, y) -> Point:
    return Point(F(x), F(y))


# ---------------------------------------------------------------------------
# Small fixed inputs
# ---------------------------------------------------------------------------


def gen_k4_embedded() -> EmbeddedGraph:
    """Planar K4: outer face a 3-cycle, no crossings, 3-connected cubic."""
    pos = {"a": _pt(0, 0), "b": _pt(4, 0), "c": _pt(2, 3), "d": _pt(2, 1)}
    edges = {
        "ab": ("a", "b"),
        "ac": ("a", "c"),
        "ad": ("a", "d"),
        "bc": ("b", "c"),
        "bd": ("b", "d"),
        "cd": ("c", "d"),
    }
    return embedding_from_geometry(pos, edges)


def gen_prism() -> EmbeddedGraph:
    """Triangular prism, plane, crossing-free."""
    pos = {
        "x": _pt(0, 0), "y": _pt(8, 0), "z": _pt(4, 7),
        "a": _pt(3, 2), "b": _pt(5, 2), "c": _pt(4, 4),
    }
    edges = {
        "ab": ("a", "b"), "ac": ("a", "c"), "bc": ("b", "c"),
        "xy": ("x", "y"), "xz": ("x", "z"), "yz": ("y", "z"),
        "ax": ("a", "x"), "by": ("b", "y"), "cz": ("c", "z"),
    }
    return embedding_from_geometry(pos, edges)


def gen_crossed_k4() -> EmbeddedGraph:
    """K4 drawn with one crossing: (1,3) x (2,4) inside the square."""
    pos = {"1": _pt(0, 0), "2": _pt(4, 0), "3": _pt(4, 4), "4": _pt(0, 4)}
    edges = {
        "e12": ("1", "2"), "e23": ("2", "3"), "e34": ("3", "4"), "e14": ("1", "4"),
        "e13": ("1", "3"), "e24": ("2", "4"),
    }
    return embedding_from_geometry(pos, edges)


# ---------------------------------------------------------------------------
# 2-regular braid family (n = 2k + 2)
# ---------------------------------------------------------------------------


def gen_2reg(k: int) -> EmbeddedGraph:
    """The braided cycle a1..a_{k+1}, b_{k+1}..b1 with k crossings.

    2-regular, 2-connected, 1-plane; the strands swap at every step, which
    is what forces ever-increasing slopes in straight-line drawings.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pos: Dict[str, Point] = {}
    for i in range(1, k + 2):
        s = 1 if i % 2 == 1 else -1
        pos[f"a{i}"] = _pt(4 * (i - 1), s)
        pos[f"b{i}"] = _pt(4 * (i - 1), -s)
    edges: Dict[str, Tuple[str, str]] = {}
    for i in range(1, k + 1):
        edges[f"ea{i}"] = (f"a{i}", f"a{i + 1}")
        edges[f"eb{i}"] = (f"b{i}", f"b{i + 1}")
    edges["left"] = ("a1", "b1")
    edges["right"] = (f"a{k + 1}", f"b{k + 1}")
    g = embedding_from_geometry(pos, edges)
    if len(g.crossings()) != k:
        raise EmbeddingError("braid family produced a wrong crossing count")
    return g


# ---------------------------------------------------------------------------
# The 18-slope family and its max-degree extension
# ---------------------------------------------------------------------------

_A = [_pt(0, 0), _pt(90, 0), _pt(45, 78)]

# Inner-web pattern in a reference triangle (P1, P2, P3): up to three extra
# vertices, each adjacent to all of P1, P2, P3, drawn 1-plane with crossing
# pairs (f2-P3 x f1-P1), (f3-P3 x f1-P2), (f3-P1 x f2-P2).
_REF_TRIANGLE = (_pt(0, 0), _pt(8, 0), _pt(4, 8))
_REF_WEB = [_pt(4, F(8, 3)), _pt(3, F(4, 3)), _pt(5, F(3, 2))]


def _frame_point(frame, along, out) -> Point:
    a, _, d, n = frame
    along, out = F(along), F(out)
    return Point(a.x + along * d[0] + out * n[0], a.y + along * d[1] + out * n[1])


def _gadget_frames():
    frames = []
    for i in range(3):
        a = _A[i]
        a_next = _A[(i + 1) % 3]
        d = (F(a_next.x - a.x, 90), F(a_next.y - a.y, 90))
        n = (d[1], -d[0])  # outward normal for the ccw triangle a1, a2, a3
        frames.append((a, a_next, d, n))
    return frames


def _barycentric_map(src, dst):
    s1, s2, s3 = src
    d1, d2, d3 = dst
    ax, ay = s2.x - s1.x, s2.y - s1.y
    bx, by = s3.x - s1.x, s3.y - s1.y
    det = ax * by - ay * bx

    def mapper(p: Point) -> Point:
        px, py = p.x - s1.x, p.y - s1.y
        u = (px * by - py * bx) / det
        v = (ax * py - ay * px) / det
        return Point(
            d1.x + u * (d2.x - d1.x) + v * (d3.x - d1.x),
            d1.y + u * (d2.y - d1.y) + v * (d3.y - d1.y),
        )

    return mapper


def gen_maxdeg(delta: int) -> EmbeddedGraph:
    """3-connected 1-plane graph whose nine special vertices have degree delta.

    delta = 3 gives the 18-slope family: 3-regular, 3-connected, 1-plane,
    containing the three increasing-slope chains (a_i,b_i), (a_i,c_i),
    (c_i,d_i), (c_i,e_i), (e_i,d_i), (e_i,a_{i+1}).  Every added unit of
    degree attaches one more web vertex per gadget, adjacent to three
    specials, drawn 1-plane inside the ring (up to 3) or outside it (2 more).
    """
    if delta < 3:
        raise ValueError("delta must be >= 3")
    if delta > 8:
        raise ValueError("delta > 8 is not supported by the fixed web layout")
    m = delta - 3
    m_in = min(m, 3)
    m_zone = m - m_in

    pos: Dict[str, Point] = {}
    edges: Dict[str, Tuple[str, str]] = {}
    polylines: Dict[str, List[Point]] = {}

    frames = _gadget_frames()
    z = _pt(45, 26)
    pos["z"] = z
    for i in range(3):
        j = i + 1
        frame = frames[i]
        pos[f"a{j}"] = _A[i]
        pos[f"c{j}"] = _frame_point(frame, 30, 0)
        pos[f"e{j}"] = _frame_point(frame, 60, 0)
        pos[f"d{j}"] = _frame_point(frame, 45, 15)
        pos[f"b{j}"] = Point(_A[i].x + 2 * (_A[i].x - z.x), _A[i].y + 2 * (_A[i].y - z.y))

    for i in range(3):
        j = i + 1
        jn = (i + 1) % 3 + 1
        edges[f"ring_ac{j}"] = (f"a{j}", f"c{j}")
        edges[f"ring_ce{j}"] = (f"c{j}", f"e{j}")
        edges[f"ring_ea{j}"] = (f"e{j}", f"a{jn}")
        edges[f"bump_cd{j}"] = (f"c{j}", f"d{j}")
        edges[f"bump_de{j}"] = (f"e{j}", f"d{j}")
        edges[f"spoke{j}"] = (f"d{j}", "z")
        edges[f"spur{j}"] = (f"a{j}", f"b{j}")
        edges[f"btri{j}"] = (f"b{j}", f"b{jn}")

    for i in range(3):
        j = i + 1
        jn = (i + 1) % 3 + 1
        tri_dst = (pos[f"e{j}"], pos[f"a{jn}"], pos[f"c{jn}"])
        mapper = _barycentric_map(_REF_TRIANGLE, tri_dst)
        for t in range(m_in):
            fv = f"fi{j}_{t}"
            pos[fv] = mapper(_REF_WEB[t])
            edges[f"{fv}_p1"] = (fv, f"e{j}")
            edges[f"{fv}_p2"] = (fv, f"a{jn}")
            edges[f"{fv}_p3"] = (fv, f"c{jn}")

    for i in range(3):
        j = i + 1
        frame = frames[i]
        if m_zone >= 1:
            f1 = f"fz{j}_0"
            pos[f1] = _frame_point(frame, 45, 40)
            edges[f"{f1}_pa"] = (f1, f"a{j}")
            edges[f"{f1}_pc"] = (f1, f"c{j}")
            edges[f"{f1}_pe"] = (f1, f"e{j}")
        if m_zone >= 2:
            f2 = f"fz{j}_1"
            pos[f2] = _frame_point(frame, 20, 8)
            edges[f"{f2}_pa"] = (f2, f"a{j}")
            edges[f"{f2}_pc"] = (f2, f"c{j}")
            edges[f"{f2}_pe"] = (f2, f"e{j}")
            # Route above the bump apex; crosses f1's c-claw exactly once.
            polylines[f"{f2}_pe"] = [pos[f2], _frame_point(frame, 45, 25), pos[f"e{j}"]]

    g = embedding_from_geometry(pos, edges, polylines)
    _check_maxdeg(g, delta)
    return g


def _check_maxdeg(g: EmbeddedGraph, delta: int) -> None:
    degs = g.degrees()
    specials = {f"{kind}{j}" for kind in "ace" for j in (1, 2, 3)}
    for v in sorted(degs):
        want = delta if v in specials else 3
        if degs[v] != want:
            raise AssertionError(f"{v} has degree {degs[v]}, wanted {want}")
    if connectivity(g) != 3:
        raise AssertionError("max-degree family lost 3-connectivity")


def gen_3reg18() -> EmbeddedGraph:
    """3-regular 3-connected 1-plane graph with the three 6-edge slope chains."""
    return gen_maxdeg(3)


# ---------------------------------------------------------------------------
# Random corpus
# ---------------------------------------------------------------------------


def gen_corpus(seed: int, n_target: int, profile: str, count: int = 1) -> List[EmbeddedGraph]:
    """Deterministic corpus of valid drawer inputs.

    profile "cubic3con": cubic, 3-connected, 1-plane, with a 3-connected
    planarization and a crossing-free outer face edge.  profile "subcubic":
    connected subcubic 1-plane graphs built from cycle blocks (some with a
    crossing chord pair) joined by bridges, plus pendant vertices.
    """
    if profile not in ("cubic3con", "subcubic"):
        raise ValueError(f"unknown corpus profile {profile!r}")
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(f"{seed}/{n_target}/{profile}")
    gen = _gen_cubic3con if profile == "cubic3con" else _gen_subcubic
    return [gen(rng, n_target) for _ in range(count)]


# -- cubic 3-connected profile ------------------------------------------------


def _gen_cubic3con(rng: random.Random, n_target: int) -> EmbeddedGraph:
    record = _K4_SKELETON.copy()
    counters: IdCounters = {}
    while len(record.plane.vertices) + 4 <= n_target:
        crossing = rng.random() < 0.25 and len(record.plane.vertices) >= 6
        _grow(record, counters, rng, crossing)
    # The insertions keep the plane valid; this validates it once, in full.
    plane = record.plane
    g = EmbeddedGraph.from_plane(plane)
    adj = g.abstract_adjacency()
    if not is_cubic(adj):
        raise EmbeddingError("corpus graph not cubic")
    if connectivity(adj) != 3:
        raise EmbeddingError("corpus graph not 3-connected")
    _check_planarization(record)
    find_real_real_face(plane)
    return g


def _check_planarization(record: FaceRecord) -> None:
    """Raise unless the recorded plane is 3-connected, decided from the
    faces the record holds."""
    if not record.is_triconnected():
        raise EmbeddingError("planarization not 3-connected")


def _k4_plane_skeleton() -> PlaneGraph:
    pos = {"r0": _pt(0, 0), "r1": _pt(4, 0), "r2": _pt(2, 3), "r3": _pt(2, 1)}
    edges = {
        "g0": ("r0", "r1"), "g1": ("r0", "r2"), "g2": ("r0", "r3"),
        "g3": ("r1", "r2"), "g4": ("r1", "r3"), "g5": ("r2", "r3"),
    }
    return embedding_from_geometry(pos, edges).plane


# Every cubic3con graph grows from a copy of this record.
_K4_SKELETON = FaceRecord.of(_k4_plane_skeleton())


# For each id prefix: the least number `_fresh` hands out next, and the
# blocked numbers above it.  The insertions advance it as they add ids.
IdCounters = Dict[str, Tuple[int, FrozenSet[int]]]


def _fresh(plane: PlaneGraph, prefix: str, counters: IdCounters) -> str:
    # The least i such that no id starts with prefix + str(i); prefix
    # matching keeps ids of subdivided-away edges reserved forever.  An id
    # blocks exactly the i whose digits are a prefix of the ASCII digit run
    # after `prefix`; a run that starts with 0 blocks only 0.
    if prefix not in counters:
        blocked = set()
        for key in chain(plane.vertices, plane.edges, plane.fragment_of.values()):
            if not key.startswith(prefix):
                continue
            i = 0
            for ch in key[len(prefix):]:
                if not "0" <= ch <= "9":
                    break
                i = 10 * i + int(ch)
                blocked.add(i)
                if i == 0:
                    break
        i = 0
        while i in blocked:
            i += 1
        counters[prefix] = (i, frozenset(b for b in blocked if b > i))
    # The plane gains ids only from these counters, or ids that extend one
    # they handed out ("g3<", "x1$a"), which block no new number.
    i, above = counters[prefix]
    nxt = i + 1
    while nxt in above:
        nxt += 1
    counters[prefix] = (nxt, above)
    return f"{prefix}{i}"


def _subdivide(plane: PlaneGraph, e: str, new_v: str) -> Tuple[str, str]:
    """Replace e = (a, b) with (a, new_v), (new_v, b); returns the two pieces."""
    if e in plane.fragment_of:
        raise EmbeddingError("cannot subdivide a fragment")
    a, b = plane.edges.pop(e)
    e1, e2 = f"{e}<", f"{e}>"
    plane.edges[e1] = (a, new_v)
    plane.edges[e2] = (new_v, b)
    plane.vertices.append(new_v)
    plane.real.add(new_v)
    plane.rotation[new_v] = [e1, e2]
    plane.rotation[a][plane.rotation[a].index(e)] = e1
    plane.rotation[b][plane.rotation[b].index(e)] = e2
    if plane.outer is not None and plane.outer[0] == e:
        plane.outer = (e1, a) if plane.outer[1] == a else (e2, b)
    return e1, e2


def _subdivide_dart(plane: PlaneGraph, dart: Dart, new_v: str) -> Tuple[str, str]:
    """Subdivide so new_v is adjacent to the dart's tail; returns
    (tail piece, head piece)."""
    e, tail = dart
    e1, e2 = _subdivide(plane, e, new_v)
    if tail in plane.edges[e1]:
        return e1, e2
    return e2, e1


def _insert_into_corner(plane: PlaneGraph, v: str, face_darts, new_edge: str) -> None:
    """Insert new_edge at v in the corner this face occupies at v."""
    for idx, d in enumerate(face_darts):
        prev = face_darts[idx - 1]
        if d[1] == v and plane.other_end(prev[0], prev[1]) == v:
            e_in, e_out = prev[0], d[0]
            rot = plane.rotation[v]
            i = rot.index(e_in)
            if rot[(i - 1) % len(rot)] != e_out and len(rot) > 1:
                # The face's corner must sit between e_out and e_in.
                raise EmbeddingError("face darts inconsistent with rotation")
            rot.insert(i, new_edge)
            return
    raise EmbeddingError(f"{v} has no corner on the chosen face")


def _grow(record: FaceRecord, counters: IdCounters, rng: random.Random, crossing: bool) -> None:
    """The cubic-preserving growth move: subdivide two edges of one inner
    face, each once for an edge pair or twice for a crossing gadget, and
    join the new vertices across the face.  Edits record, its plane and
    counters in place."""
    name, cuts, join = (("a crossing gadget", 2, _join_by_crossing) if crossing
                        else ("an edge-pair insertion", 1, _join_by_edge))
    plane = record.plane
    inner = record.inner_faces()
    rng.shuffle(inner)
    for darts in inner:
        d1, d2 = _pick_two_edges(plane, darts, rng)
        if d1 is None:
            continue
        record.forget_edges([d1[0], d2[0]])
        new: List[str] = []
        for dart in (d1, d2):
            for _ in range(cuts):
                v = _fresh(plane, "v", counters)
                tail_piece, head_piece = _subdivide_dart(plane, dart, v)
                if not new:
                    first = (tail_piece, dart[1])
                new.append(v)
                dart = (head_piece, v)
        record.trace_new()
        # The picked face is left of its dart's tail piece, and lists the
        # new vertices in order.
        key = record.face_of[first]
        face = record.darts[key]
        record.forget_face(key)
        join(plane, counters, new, face)
        record.trace_new()
        # No face of a 3-connected plane but the working face meets both
        # subdivided edges, so the joins left the outer face as _subdivide
        # recorded it.
        return
    raise EmbeddingError(f"no face admits {name}")


def _join_by_edge(plane: PlaneGraph, counters: IdCounters, new: List[str],
                  face: Sequence[Dart]) -> None:
    """Join the two new vertices by one edge across the face."""
    va, vb = new
    bridge = _fresh(plane, "g", counters)
    plane.edges[bridge] = (va, vb)
    _insert_into_corner(plane, va, face, bridge)
    _insert_into_corner(plane, vb, face, bridge)


def _join_by_crossing(plane: PlaneGraph, counters: IdCounters, new: List[str],
                      face: Sequence[Dart]) -> None:
    """Join the four new vertices, in face order (p, q, r, s), by the
    interleaved chords (p, r) and (q, s), crossing at a new dummy."""
    p, q, r, s = new
    ex1 = _fresh(plane, "x", counters)
    fa, fb = f"{ex1}$a", f"{ex1}$b"
    plane.fragment_of.update({fa: ex1, fb: ex1})
    ex2 = _fresh(plane, "x", counters)
    fc, fd = f"{ex2}$a", f"{ex2}$b"
    plane.fragment_of.update({fc: ex2, fd: ex2})
    dummy = _fresh(plane, DUMMY_PREFIX, counters)
    plane.vertices.append(dummy)
    plane.edges[fa] = (p, dummy)
    plane.edges[fb] = (dummy, r)
    plane.edges[fc] = (q, dummy)
    plane.edges[fd] = (dummy, s)
    for v, enew in ((p, fa), (q, fc), (r, fb), (s, fd)):
        _insert_into_corner(plane, v, face, enew)
    plane.rotation[dummy] = [fa, fc, fb, fd]


def _pick_two_edges(plane: PlaneGraph, darts: Sequence[Dart], rng: random.Random):
    """Two darts of the face on distinct unfragmented edges, or (None, None)."""
    usable = [d for d in darts if d[0] not in plane.fragment_of]
    if len({d[0] for d in usable}) < 2:
        return None, None
    d1, d2 = rng.sample(usable, 2)
    if d1[0] == d2[0]:
        return None, None
    return d1, d2


# -- subcubic profile ----------------------------------------------------------


def _gen_subcubic(rng: random.Random, n_target: int) -> EmbeddedGraph:
    """Blocks (cycles, some with a crossing chord pair) joined by bridges."""
    pos: Dict[str, Point] = {}
    edges: Dict[str, Tuple[str, str]] = {}
    offset = 0
    prev_attach: Optional[str] = None
    block_idx = 0
    total = 0
    want_blocks = max(1, min(6, n_target // 6 + (1 if rng.random() < 0.5 else 0)))
    while block_idx < want_blocks and total < n_target + 6:
        m = rng.randint(4, 9)
        with_cross = m >= 6 and rng.random() < 0.6
        names = [f"b{block_idx}_{i}" for i in range(m)]
        for i in range(m):
            pos[names[i]] = Point(offset + i, i * i)
        for i in range(m):
            edges[f"cyc{block_idx}_{i}"] = (names[i], names[(i + 1) % m])
        if with_cross:
            edges[f"ch{block_idx}_a"] = (names[1], names[3])
            edges[f"ch{block_idx}_b"] = (names[2], names[4])
        elif m >= 5 and rng.random() < 0.4:
            edges[f"ch{block_idx}_a"] = (names[1], names[3])
        if prev_attach is not None:
            edges[f"br{block_idx}"] = (prev_attach, names[0])
        prev_attach = names[m - 1]
        offset += m + 3
        total += m
        block_idx += 1
    # Occasionally hang single-vertex components below chord-free vertices.
    pend = 0
    for bname in list(pos):
        if pend >= 2 or rng.random() > 0.15:
            continue
        deg = sum(1 for ab in edges.values() if bname in ab)
        if deg <= 2 and pos[bname].y == 0:
            pv = f"p{pend}"
            pos[pv] = Point(pos[bname].x, -2 - pend)
            edges[f"pb{pend}"] = (bname, pv)
            pend += 1
    g = embedding_from_geometry(pos, edges)
    if not g.is_subcubic():
        raise EmbeddingError("subcubic corpus graph exceeded degree 3")
    if not graphutil.is_connected(g.abstract_adjacency()):
        raise EmbeddingError("subcubic corpus graph disconnected")
    return g
