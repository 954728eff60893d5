"""Vertex orderings driving the drawers.

Canonical ordering of a 3-connected plane graph: an ordered partition into
singletons and chains, built here by reverse removal from the full graph.
A removal is accepted when the new outer face is again a simple cycle
through the base edge; 2-connectivity and internal 3-connectivity of the
smaller graph then follow from the same properties of the larger one (a
separated part would have had to attach through the removed vertex, whose
neighbors all land on the new contour).  The removal is greedy: a
3-connected plane graph always has a removable candidate (Kant 1996), so a
dead end raises instead of backtracking.

st-ordering of a biconnected graph: Even-Tarjan numbering, re-exported
with validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from . import graphutil
from .model import Dart, EmbeddingError, PlaneGraph


class OrderingError(Exception):
    pass


@dataclass
class CanonicalSet:
    kind: str  # "singleton" | "chain"
    vertices: List[str]  # in contour order, left to right

    def __iter__(self):
        return iter(self.vertices)


@dataclass
class CanonicalOrdering:
    sets: List[CanonicalSet]
    v1: str
    v2: str

    @property
    def vn(self) -> str:
        return self.sets[-1].vertices[0]

    def vertex_order(self) -> List[str]:
        return [v for s in self.sets for v in s.vertices]


@dataclass
class StOrdering:
    sigma: Dict[str, int]
    s: str
    t: str

    def rank(self, v: str) -> int:
        return self.sigma[v]

    def order(self) -> List[str]:
        return sorted(self.sigma, key=lambda v: self.sigma[v])


# ---------------------------------------------------------------------------
# Canonical ordering by reverse removal
# ---------------------------------------------------------------------------


class _Builder:
    """Mutable reverse-removal state over a copy of the plane graph."""

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


def canonical_order(plane: PlaneGraph, v1: str, v2: str) -> CanonicalOrdering:
    """Canonical ordering of a 3-connected plane graph with base edge (v1, v2).

    Greedy and deterministic: each step removes the first candidate, by
    smallest vertex id, whose removal leaves the contour a simple cycle
    through the base edge; chains are maximal.  For a 3-connected plane
    graph such a candidate always exists (Kant 1996).  Raises OrderingError
    when the preconditions fail, or at a dead end, naming its contour.
    """
    if not plane.is_triconnected():
        raise OrderingError("canonical ordering needs a 3-connected plane graph")
    if v2 not in (plane.other_end(e, v1) for e in plane.rotation[v1]):
        raise OrderingError(f"({v1},{v2}) is not an edge")
    b = _Builder(plane, v1, v2)
    removed_sets: List[CanonicalSet] = []
    while len(b.alive) > 2:
        cand = next((c for c in b.candidates(first=not removed_sets) if b.try_remove(c)), None)
        if cand is None:
            raise OrderingError(f"no canonical ordering: dead end at contour {b.contour}")
        removed_sets.append(cand)
    return CanonicalOrdering(sets=[CanonicalSet("base", [v1, v2])] + removed_sets[::-1],
                             v1=v1, v2=v2)


# ---------------------------------------------------------------------------
# Full condition checker
# ---------------------------------------------------------------------------


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
    order = ordering.vertex_order()
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
        gi = _induced_plane(plane, placed)
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


def _induced_plane(plane: PlaneGraph, keep: Set[str]) -> PlaneGraph:
    edges = {e: ab for e, ab in plane.edges.items() if ab[0] in keep and ab[1] in keep}
    rotation = {
        v: [e for e in plane.rotation[v] if e in edges] for v in plane.vertices if v in keep
    }
    return PlaneGraph(
        vertices=[v for v in plane.vertices if v in keep],
        real={v for v in plane.real if v in keep},
        edges=edges,
        rotation=rotation,
        fragment_of={e: o for e, o in plane.fragment_of.items() if e in edges},
    )


def _base_outer_dart(plane: PlaneGraph, v1: str, v2: str) -> Dart:
    """The dart of edge (v1, v2) lying on the outer face.

    Removing vertices above only ever grows that face, so the same dart
    traces the contour C_i of every prefix graph.
    """
    for e, tail in plane.outer_face().darts:
        head = plane.dart_head((e, tail))
        if {tail, head} == {v1, v2}:
            return (e, tail)
    raise OrderingError("(i) edge (v1, v2) is not on the outer face")


# ---------------------------------------------------------------------------
# st-ordering
# ---------------------------------------------------------------------------


def st_order(adj: graphutil.Adj, s: str, t: str) -> StOrdering:
    """st-ordering of a biconnected graph; s, t should be adjacent but any
    distinct pair works (a virtual edge is used internally)."""
    sigma = graphutil.st_numbering(adj, s, t)
    problems = graphutil.verify_st_numbering(adj, s, t, sigma)
    if problems:
        raise OrderingError("; ".join(problems))
    return StOrdering(sigma=sigma, s=s, t=t)
