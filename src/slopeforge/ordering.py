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

Each candidate is decided before anything is edited, by one local face
walk.  Let the contour C be the outer face's darts from the base dart, so
C[0] and C[1] are the base, and let the candidate occupy C[i..j].  The walk
starts at the contour dart into C[i-1] and follows PlaneGraph.next_in_face,
skipping the candidate's edges, up to the old contour dart out of C[j+1].
The candidate is accepted iff the walk repeats no vertex and meets no
contour vertex but C[i-1], its first; the new contour is then C[:i-1] +
walk + C[j+1:].  This is exact: the face walk is a permutation of the
remaining darts, and a removal changes the next-dart choice only where the
old choice was a candidate's edge.  On the contour that happens only at
the dart into C[i-1], so every other old contour dart outside the span
keeps its successor.  The darts from the one out of C[j+1] round to the
one into C[i-1] therefore stay on one new face, the outer one, in the same
cyclic order, and that face runs on from the dart into C[i-1] until it
comes back to the dart out of C[j+1]: the darts in between are the walk.

st-ordering of a biconnected graph: Even-Tarjan numbering, re-exported
with validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Optional, Set, Tuple

from . import graphutil
from .model import Dart, PlaneGraph, find_real_real_face


class OrderingError(Exception):
    pass


@dataclass
class CanonicalSet:
    kind: str  # "singleton" | "chain"
    vertices: List[str]  # in contour order, left to right


@dataclass
class CanonicalOrdering:
    sets: List[CanonicalSet]
    v1: str
    v2: str


@dataclass
class StOrdering:
    sigma: Dict[str, int]
    s: str
    t: str

    def order(self) -> List[str]:
        return sorted(self.sigma, key=lambda v: self.sigma[v])


# ---------------------------------------------------------------------------
# Canonical ordering by reverse removal
# ---------------------------------------------------------------------------


class _Builder:
    """Reverse-removal state: one copy of the plane graph, which loses each
    accepted candidate, and its contour C as the darts of the outer face
    from the base dart.  The copy's live vertices are its rotation keys."""

    def __init__(self, plane: PlaneGraph, v1: str, v2: str):
        self.plane = plane.copy()
        self.v1 = v1
        self.v2 = v2
        self.full_degree: Dict[str, int] = {v: len(r) for v, r in plane.rotation.items()}
        self._set_contour(list(plane.trace_face(_base_outer_dart(plane, v1, v2)).darts))

    def _set_contour(self, darts: List[Dart]) -> None:
        self.darts = darts
        self.contour: List[str] = [d[1] for d in darts]
        self.pos: Dict[str, int] = {v: k for k, v in enumerate(self.contour)}

    def has_successor(self, v: str) -> bool:
        return self.plane.degree(v) < self.full_degree[v]

    def candidates(self, first: bool) -> List[CanonicalSet]:
        base = (self.v1, self.v2)
        if first:
            return sorted((CanonicalSet("singleton", [v]) for v in self.contour
                           if v not in base and self.v1 in self.plane.neighbors(v)),
                          key=lambda s: s.vertices[0])
        # C[0] and C[1] are the base, so no run of degree-2 vertices wraps.
        runs = [list(run) for deg2, run in groupby(
            self.contour, lambda v: v not in base and self.plane.degree(v) == 2) if deg2]
        out = [CanonicalSet("chain", run) for run in runs if len(run) >= 2]
        in_chain = {v for s in out for v in s.vertices}
        out += [CanonicalSet("singleton", [v]) for v in self.contour
                if v not in base and v not in in_chain and self.has_successor(v)]
        out.sort(key=lambda s: min(s.vertices))
        return out

    def try_remove(self, cand: CanonicalSet) -> bool:
        """Remove cand if the contour stays a simple cycle; False if not.
        The walk of the merged faces decides before the plane is edited."""
        verts = cand.vertices
        vs = set(verts)
        plane = self.plane
        if cand.kind == "chain":
            ends_preds = []
            for z in (verts[0], verts[-1]):
                preds = [w for w in plane.neighbors(z) if w not in vs]
                if len(preds) != 1:
                    return False
                ends_preds.append(preds[0])
            if len(verts) > 1 and ends_preds[0] == ends_preds[1]:
                return False
            for z in verts[1:-1]:
                if any(w not in vs for w in plane.neighbors(z)):
                    return False
            if not all(self.has_successor(z) for z in verts):
                return False
        i, j = self.pos[verts[0]], self.pos[verts[-1]]
        walk = self._merged_walk(self.darts[i - 2], self.darts[(j + 1) % len(self.darts)], vs)
        if walk is None:
            return False
        for z in verts:
            for e in plane.rotation.pop(z):
                w = plane.other_end(e, z)
                if w in plane.rotation:
                    plane.rotation[w].remove(e)
                del plane.edges[e]
        self._set_contour(self.darts[:i - 1] + walk + self.darts[j + 1:])
        return True

    def _merged_walk(self, start: Dart, stop: Dart, gone: Set[str]) -> Optional[List[Dart]]:
        """The darts after start and before stop on the face that removing
        gone opens, by the plane's next-dart rule with gone's edges skipped.
        A dart into gone is replaced by the next one clockwise at its tail,
        which is the successor of the dart reversed.  None as soon as a
        vertex repeats or, after the first (start's head), a vertex lies on
        the contour."""
        plane = self.plane
        walk: List[Dart] = []
        seen: Set[str] = set()
        d = start
        while True:
            d = plane.next_in_face(d)
            head = plane.dart_head(d)
            while head in gone:
                d = plane.next_in_face((d[0], head))
                head = plane.dart_head(d)
            if d == stop:
                return walk
            if walk and (d[1] in seen or d[1] in self.pos):
                return None
            seen.add(d[1])
            walk.append(d)


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
    while len(b.plane.rotation) > 2:
        cand = next((c for c in b.candidates(first=not removed_sets) if b.try_remove(c)), None)
        if cand is None:
            raise OrderingError(f"no canonical ordering: dead end at contour {b.contour}")
        removed_sets.append(cand)
    return CanonicalOrdering(sets=[CanonicalSet("base", [v1, v2])] + removed_sets[::-1],
                             v1=v1, v2=v2)


def canonical_order_on_real_edge(plane: PlaneGraph) -> Tuple[PlaneGraph, CanonicalOrdering]:
    """The plane with a face holding an edge between two real vertices as
    its outer face (see model.find_real_real_face), and its canonical
    ordering on that edge.  The plane is copied only when its outer face
    changes.  The outer walk passes the base edge right to left, so the
    dart's head is the left base vertex v1 and its tail the right one."""
    face, (tail, head), _ = find_real_real_face(plane)
    if set(face.darts) != set(plane.outer_face().darts):
        plane = plane.with_outer(face.darts[0])
    return plane, canonical_order(plane, head, tail)


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
