"""Combinatorial model of 1-plane graphs and their planarizations.

The primary structure is the planarization: a plane graph with a rotation
system, real/dummy vertex flags, and a fragment map sending each edge
incident to a dummy to the original edge it is half of.  A 1-planar
embedding is only unambiguous through its planarization, so input files
describe the planarization directly and the abstract 1-plane view
(vertices, edges, crossing pairs) is reconstructed from it.

Rotations are counterclockwise lists of edge ids.  A dart is a pair
(edge id, tail vertex); the face to the left of a dart is traced by the
rule next(u -> v) = the ccw-successor at v of the reversed dart.  The outer
face is recorded by one dart, the face to its left, as a doubly connected
edge list names a face by one half-edge (Muller and Preparata 1978): its
walk is traced on demand (outer_face()), so a surgery keeps the record
exact by keeping that one dart alive.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from . import graphutil

DUMMY_PREFIX = "_x"

Dart = Tuple[str, str]  # (edge id, tail vertex id)


class EmbeddingError(Exception):
    """Raised when data does not describe a consistent 1-plane embedding."""


def cyclic_key(seq: Sequence) -> Tuple:
    """The least rotation of seq: two lists of distinct items are in the
    same cyclic order exactly when their keys are equal."""
    return min((tuple(seq[i:]) + tuple(seq[:i]) for i in range(len(seq))), default=())


@dataclass
class Face:
    """A face as the cyclic list of darts on its boundary."""

    darts: Tuple[Dart, ...]

    def vertices(self) -> List[str]:
        return [d[1] for d in self.darts]

    def __len__(self) -> int:
        return len(self.darts)


@dataclass
class PlaneGraph:
    """A plane graph with rotation system, vertex flags, and fragment map."""

    vertices: List[str]
    real: Set[str]
    edges: Dict[str, Tuple[str, str]]
    rotation: Dict[str, List[str]]
    fragment_of: Dict[str, str]
    outer: Optional[Dart] = None  # the outer face is the face to its left

    # ---- basic queries -------------------------------------------------

    def is_dummy(self, v: str) -> bool:
        return v not in self.real

    def other_end(self, edge_id: str, v: str) -> str:
        a, b = self.edges[edge_id]
        if v == a:
            return b
        if v == b:
            return a
        raise KeyError(f"{v} is not an endpoint of {edge_id}")

    def degree(self, v: str) -> int:
        return len(self.rotation[v])

    def neighbors(self, v: str) -> List[str]:
        return [self.other_end(e, v) for e in self.rotation[v]]

    def adjacency(self) -> graphutil.Adj:
        return graphutil.adjacency(self.vertices, self.edges.values())

    def darts(self) -> List[Dart]:
        out = []
        for e, (a, b) in self.edges.items():
            out.append((e, a))
            out.append((e, b))
        return out

    def dart_head(self, d: Dart) -> str:
        return self.other_end(d[0], d[1])

    def next_in_face(self, d: Dart) -> Dart:
        """Next dart of the face to the left of d (rotations are ccw)."""
        head = self.dart_head(d)
        rot = self.rotation[head]
        i = rot.index(d[0])
        nxt = rot[(i - 1) % len(rot)]
        return (nxt, head)

    def trace_face(self, start: Dart) -> Face:
        """The face to the left of start, as its darts from start on: the
        walk of next_in_face, with its lookups done in place."""
        edges, rotation = self.edges, self.rotation
        limit = 4 * len(edges) + 4
        darts = [start]
        e, tail = start
        while True:
            a, b = edges[e]
            if tail == a:
                tail = b
            elif tail == b:
                tail = a
            else:
                raise KeyError(f"{tail} is not an endpoint of {e}")
            rot = rotation[tail]
            e = rot[rot.index(e) - 1]
            d = (e, tail)
            if d == start:
                return Face(tuple(darts))
            darts.append(d)
            if len(darts) > limit:
                raise EmbeddingError("face trace does not close; rotation system broken")

    def faces(self) -> List[Face]:
        """Every face, each traced once from its first dart in darts() order."""
        seen: Set[Dart] = set()
        out: List[Face] = []
        for d in self.darts():
            if d in seen:
                continue
            f = self.trace_face(d)
            seen.update(f.darts)
            out.append(f)
        return out

    def separating_pairs(self) -> Optional[List[Tuple[str, str]]]:
        """The separating pairs (u, v), u < v, of a 2-connected simple plane
        graph, sorted, read off its faces in O(sum of deg(v)^2) time.

        Two faces f != g through u and v hold a closed curve through f, u,
        g, v that meets the graph only at u and v.  Unless f and g are the
        two sides of an edge uv, an edge at u other than uv lies on each
        side of it, so {u, v} separates.  Conversely, if {u, v} separates
        the graph into parts A and B, the rotation at u meets both, and the
        faces at u between two edges of different kinds pass through v;
        one of them lies between an edge into A and an edge into B, so it
        is not a side of the edge uv.  The rotations must list each
        vertex's incident edges, as validate() checks.  None when the graph
        has loops or multi-edges, is not connected, has a face boundary
        that is not a cycle (a connected graph with a cut vertex), or has
        rotations that break Euler's formula.
        """
        return _separating_pairs(self, [f.darts for f in self.faces()])

    def is_triconnected(self) -> bool:
        """Whether the graph is 3-connected: at least 4 vertices and no
        separating pair (see separating_pairs).  A graph whose separating
        pairs are not read off its faces is decided by
        graphutil.vertex_connectivity; for a simple plane graph that is one
        that is disconnected or has a cut vertex, which one DFS finds.
        """
        return _triconnected(self, self.separating_pairs)

    def outer_face(self) -> Face:
        if self.outer is None:
            raise EmbeddingError("no outer face recorded")
        return self.trace_face(self.outer)

    def with_outer(self, dart: Dart) -> "PlaneGraph":
        g = self.copy()
        g.outer = dart
        return g

    def copy(self) -> "PlaneGraph":
        return PlaneGraph(
            vertices=list(self.vertices),
            real=set(self.real),
            edges=dict(self.edges),
            rotation={v: list(r) for v, r in self.rotation.items()},
            fragment_of=dict(self.fragment_of),
            outer=self.outer,
        )

    def induced(self, keep: Set[str]) -> "PlaneGraph":
        """The sub-plane on the vertices in keep, sorted, with the edges
        between them and no outer face recorded."""
        vertices = sorted(keep)
        edges = {e: ab for e, ab in self.edges.items() if ab[0] in keep and ab[1] in keep}
        return PlaneGraph(
            vertices=vertices,
            real=self.real & keep,
            edges=edges,
            rotation={v: [e for e in self.rotation[v] if e in edges] for v in vertices},
            fragment_of={e: o for e, o in self.fragment_of.items() if e in edges},
        )

    # ---- the original (abstract, 1-plane) view -------------------------

    def dummies(self) -> List[str]:
        return [v for v in self.vertices if v not in self.real]

    def original_edge_of(self, edge_id: str) -> str:
        return self.fragment_of.get(edge_id, edge_id)

    def original_edges(self) -> Dict[str, Tuple[str, str]]:
        """Original edge id -> (real endpoint, real endpoint)."""
        ends: Dict[str, List[str]] = {}
        real, fragment_of = self.real, self.fragment_of
        for e, (a, b) in sorted(self.edges.items()):
            if a in real:
                vs = [a, b] if b in real else [a]
            elif b in real:
                vs = [b]
            else:
                continue
            orig = fragment_of.get(e, e)
            have = ends.get(orig)
            if have is None:
                ends[orig] = vs
            else:
                have += vs
        out: Dict[str, Tuple[str, str]] = {}
        for orig, vs in ends.items():
            if len(vs) != 2:
                raise EmbeddingError(f"original edge {orig} has {len(vs)} real endpoints")
            out[orig] = (vs[0], vs[1])
        return out

    def crossing_pairs(self) -> Dict[str, Tuple[str, str]]:
        """Dummy id -> the unordered pair of original edge ids crossing there."""
        out: Dict[str, Tuple[str, str]] = {}
        for x in self.dummies():
            origs = sorted({self.original_edge_of(e) for e in self.rotation[x]})
            if len(origs) != 2:
                raise EmbeddingError(f"dummy {x} does not join exactly two original edges")
            out[x] = (origs[0], origs[1])
        return out

    def fragments_of_original(self, orig: str) -> List[str]:
        return sorted(e for e, o in self.fragment_of.items() if o == orig)

    # ---- validation -----------------------------------------------------

    def validate(self) -> Dict[str, Tuple[str, str]]:
        """Raise EmbeddingError unless this is the planarization of a
        1-plane graph, and the trace's KeyError unless the outer face
        record is a dart of it; return original_edges(), which the check
        builds.

        One linear pass that traces no face as a list: the darts of the
        i-th edge (a, b) are numbered 2i (tail a) and 2i + 1 (tail b), the
        rotations give next_in_face as a list over those numbers, and
        Euler's check counts its orbits, the faces (Muller and Preparata's
        face cycles), and the components of a union-find over the edges."""
        vertices, edges, rotation = self.vertices, self.edges, self.rotation
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise EmbeddingError("duplicate vertex ids")
        if not self.real <= index.keys():
            raise EmbeddingError("real flag on unknown vertex")
        leaving: Dict[str, Dict[str, int]] = {v: {} for v in vertices}
        seen_pairs: Set[Tuple[str, str]] = set()
        for i, (e, (a, b)) in enumerate(edges.items()):
            if a == b:
                raise EmbeddingError(f"self-loop {e}")
            if a not in index or b not in index:
                raise EmbeddingError(f"edge {e} has unknown endpoint")
            pair = (a, b) if a < b else (b, a)
            if pair in seen_pairs:
                raise EmbeddingError(f"multi-edge between {a} and {b}")
            seen_pairs.add(pair)
            leaving[a][e] = 2 * i
            leaving[b][e] = 2 * i + 1
        for v in vertices:
            rot = rotation.get(v)
            if rot is None:
                raise EmbeddingError(f"no rotation for {v}")
            out = leaving[v]
            if len(rot) != len(out) or set(rot) != out.keys():
                raise EmbeddingError(f"rotation at {v} does not list its incident edges")
        original = self._validate_dummies()
        self._check_euler(index, leaving)
        if self.outer is not None and self.outer[0] not in leaving.get(self.outer[1], ()):
            self.trace_face(self.outer)  # raises: the outer face record is no dart
        return original

    def _validate_dummies(self) -> Dict[str, Tuple[str, str]]:
        real, edges, fragment_of = self.real, self.edges, self.fragment_of
        for x in self.dummies():
            rot = self.rotation[x]
            if len(rot) != 4:
                raise EmbeddingError(f"dummy {x} has degree {len(rot)}, expected 4")
            origs = [fragment_of.get(e, e) for e in rot]
            if origs[0] != origs[2] or origs[1] != origs[3] or origs[0] == origs[1]:
                raise EmbeddingError(f"rotation at dummy {x} does not alternate its two edges")
            for e in rot:
                if e not in fragment_of:
                    raise EmbeddingError(f"edge {e} at dummy {x} is not a fragment")
                a, b = edges[e]
                if (b if a == x else a) not in real:
                    raise EmbeddingError(f"edge {e} joins two dummies (edge crossed twice)")
        # Each original edge is covered by 0 or exactly 2 fragments.
        for orig, k in Counter(fragment_of.values()).items():
            if k != 2:
                raise EmbeddingError(f"original edge {orig} split into {k} fragments")
        for e in fragment_of:
            ab = edges.get(e)
            if ab is None or (ab[0] in real) == (ab[1] in real):
                raise EmbeddingError(f"fragment {e} is not an edge with exactly one dummy end")
        return self.original_edges()

    def _validate_euler(self) -> None:
        """validate's Euler check alone, for rotations that list each
        vertex's incident edges."""
        leaving: Dict[str, Dict[str, int]] = {v: {} for v in self.vertices}
        for i, (e, (a, b)) in enumerate(self.edges.items()):
            leaving[a][e] = 2 * i
            leaving[b][e] = 2 * i + 1
        self._check_euler({v: i for i, v in enumerate(self.vertices)}, leaving)

    def _check_euler(self, index: Dict[str, int], leaving: Dict[str, Dict[str, int]]) -> None:
        """Check V - E + F = 2C, counting the orbits of next_in_face over
        the dart numbers; leaving[v][e] is the number of e's dart with tail v.

        Faces are counted per component, so each component contributes its
        own copy of the unbounded face.  An edgeless vertex has no dart, but
        it is a component with one face."""
        succ = [0] * (2 * len(self.edges))
        faces = 0
        for v, out in leaving.items():
            rot = self.rotation[v]
            if not rot:
                faces += 1
                continue
            # The dart into v along rot[k] is followed by the dart out
            # along rot[k - 1]; the two darts of an edge differ in bit 0.
            prev = out[rot[-1]]
            for e in rot:
                d = out[e]
                succ[d ^ 1] = prev
                prev = d
        seen = bytearray(len(succ))
        for s in range(len(succ)):
            if not seen[s]:
                faces += 1
                d = s
                while not seen[d]:
                    seen[d] = 1
                    d = succ[d]
        parent = list(range(len(index)))
        components = len(index)
        for a, b in self.edges.values():
            i, j = index[a], index[b]
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if i != j:
                parent[i] = j
                components -= 1
        n, m = len(index), len(self.edges)
        if n - m + faces != 2 * components:
            raise EmbeddingError(
                f"Euler check failed: V={n} E={m} F={faces} C={components} (V-E+F != 2C)"
            )


@dataclass
class FaceRecord:
    """The faces of a plane graph, kept through local surgery instead of
    retraced: the face record of a doubly connected edge list (Muller and
    Preparata 1978).

    Each edge has a creation number, and the rank of a dart (e, t) is
    2 * number(e), plus 1 when t is not edges[e][0].  Live edges sit in
    plane.edges in creation order, so rank order is darts() order.  A face
    is keyed by the rank of its least dart and lists its darts from there,
    so the faces in key order are exactly what faces() returns.

    Before a surgery, forget the faces it will change: forget_edges for
    the faces through the edges it deletes, forget_face for any other.  The
    surgery may then delete those edges, append edges to plane.edges and
    change rotations, as long as every live dart of a forgotten face ends
    on a face through an appended edge; trace_new records those faces.
    """

    plane: PlaneGraph
    number: Dict[str, int]  # edge id -> creation number
    face_of: Dict[Dart, int]  # dart -> key of the face to its left
    darts: Dict[int, Tuple[Dart, ...]]  # face key -> darts from its least dart
    numbered: int = 0  # creation numbers handed out so far

    @staticmethod
    def of(plane: PlaneGraph) -> "FaceRecord":
        record = FaceRecord(plane, {}, {}, {})
        record.trace_new()
        return record

    def copy(self) -> "FaceRecord":
        """A record of a copy of the plane; neither shares mutable state."""
        return FaceRecord(self.plane.copy(), dict(self.number), dict(self.face_of),
                          dict(self.darts), self.numbered)

    def inner_faces(self) -> List[Tuple[Dart, ...]]:
        """The darts of each face but the recorded outer one, in faces() order."""
        outer = None if self.plane.outer is None else self.face_of[self.plane.outer]
        return [self.darts[k] for k in sorted(self.darts) if k != outer]

    def forget_face(self, key: int) -> None:
        for d in self.darts.pop(key):
            del self.face_of[d]

    def forget_edges(self, edges: Iterable[str]) -> None:
        """Forget the faces through these edges and the edges' numbers,
        before a surgery deletes them."""
        for e in edges:
            for tail in self.plane.edges[e]:
                key = self.face_of.get((e, tail))
                if key is not None:
                    self.forget_face(key)
            del self.number[e]

    def trace_new(self) -> None:
        """Number the edges appended since the last call, in dict order,
        and record the faces through them."""
        new: List[str] = []
        for e in reversed(self.plane.edges):
            if e in self.number:
                break
            new.append(e)
        new.reverse()
        for i, e in enumerate(new, self.numbered):
            self.number[e] = i
        self.numbered += len(new)
        for e in new:
            for tail in self.plane.edges[e]:
                if (e, tail) not in self.face_of:
                    self._add_face((e, tail))

    def is_triconnected(self) -> bool:
        """PlaneGraph.is_triconnected, read off the recorded faces instead
        of tracing them."""
        return _triconnected(self.plane, lambda: _separating_pairs(self.plane, list(self.darts.values())))

    def _add_face(self, start: Dart) -> None:
        darts = self.plane.trace_face(start).darts
        number, edges = self.number, self.plane.edges
        ranks = [2 * number[e] + (tail != edges[e][0]) for e, tail in darts]
        key = min(ranks)
        i = ranks.index(key)
        self.darts[key] = darts[i:] + darts[:i]
        for d in darts:
            self.face_of[d] = key


def _separating_pairs(plane: PlaneGraph,
                      faces: Sequence[Sequence[Dart]]) -> Optional[List[Tuple[str, str]]]:
    """PlaneGraph.separating_pairs, given the darts of every face."""
    adj = plane.adjacency()
    m = len(plane.edges)
    if sum(len(ns) for ns in adj.values()) != 2 * m or not graphutil.is_connected(adj):
        return None
    face_of: Dict[Dart, int] = {}
    for i, darts in enumerate(faces):
        if len({d[1] for d in darts}) != len(darts):
            return None
        for d in darts:
            face_of[d] = i
    if len(adj) - m + len(faces) != 2:
        return None
    # With every face a cycle, the deg(v) faces at v are distinct.
    shared: Dict[Tuple[int, int], List[str]] = {}
    for v in plane.vertices:
        for pair in combinations(sorted(face_of[(e, v)] for e in plane.rotation[v]), 2):
            shared.setdefault(pair, []).append(v)
    sides = {tuple(sorted(ab)): tuple(sorted((face_of[(e, ab[0])], face_of[(e, ab[1])])))
             for e, ab in plane.edges.items()}
    pairs = {uv for pair, vs in shared.items() if len(vs) > 1
             for uv in combinations(sorted(vs), 2) if sides.get(uv) != pair}
    return sorted(pairs)


def _triconnected(plane: PlaneGraph, pairs_of) -> bool:
    """is_triconnected, with the separating pairs from pairs_of()."""
    pairs = pairs_of() if len(plane.vertices) >= 4 else None
    if pairs is None:
        return graphutil.vertex_connectivity(plane.adjacency()) >= 3
    return not pairs


@dataclass
class EmbeddedGraph:
    """A 1-plane graph: the abstract graph together with its planarization."""

    plane: PlaneGraph
    original: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    @staticmethod
    def from_plane(plane: PlaneGraph) -> "EmbeddedGraph":
        return EmbeddedGraph(plane=plane, original=plane.validate())

    @property
    def vertices(self) -> List[str]:
        return [v for v in self.plane.vertices if v in self.plane.real]

    @property
    def edges(self) -> Dict[str, Tuple[str, str]]:
        return self.original

    def crossings(self) -> Dict[str, Tuple[str, str]]:
        return self.plane.crossing_pairs()

    def abstract_adjacency(self) -> graphutil.Adj:
        return graphutil.adjacency(self.vertices, self.original.values())

    def degrees(self) -> Dict[str, int]:
        adj = self.abstract_adjacency()
        return {v: len(adj[v]) for v in adj}

    def is_cubic(self) -> bool:
        return is_cubic(self.abstract_adjacency())

    def is_subcubic(self) -> bool:
        return all(d <= 3 for d in self.degrees().values())

    def validate(self) -> None:
        self.plane.validate()


def is_cubic(adj: graphutil.Adj) -> bool:
    """Whether every vertex of the adjacency has exactly three neighbours."""
    return all(len(ns) == 3 for ns in adj.values())


def connectivity(adj_or_graph, cap: int = 3) -> int:
    """Vertex connectivity with the distinctions 0, 1, 2, 3, at most cap.

    No package caller passes cap; it stays because perfbench's corpus-gen
    workload passes cap=3."""
    if isinstance(adj_or_graph, EmbeddedGraph):
        adj = adj_or_graph.abstract_adjacency()
    else:
        adj = adj_or_graph
    return min(graphutil.vertex_connectivity(adj), cap)


def find_real_real_face(p: PlaneGraph) -> Tuple[Face, Tuple[str, str], str]:
    """A face with an edge joining two consecutive real vertices.

    Returns (face, (v1, v2), edge id).  Prefers the recorded outer face; only
    when it has no such edge are all faces traced and scanned in
    deterministic order.  For subcubic 1-plane input the counting argument
    guarantees existence; if nothing is found the input violates that
    invariant and an EmbeddingError is raised.
    """

    def candidates() -> Iterator[Face]:
        if p.outer is not None:
            yield p.outer_face()
        yield from sorted(p.faces(), key=lambda f: tuple(sorted(d[0] for d in f.darts)))

    for face in candidates():
        best: Optional[Tuple[str, Tuple[str, str], Dart]] = None
        for d in face.darts:
            e, tail = d
            head = p.dart_head(d)
            if tail in p.real and head in p.real:
                if best is None or e < best[0]:
                    best = (e, (tail, head), d)
        if best is not None:
            return face, best[1], best[0]
    raise EmbeddingError("no face with two consecutive real vertices (input invariant violated)")
