"""Embedding normalization: no dummy cutvertices, 3-connectivity preserved.

A dummy vertex that is a cutvertex of the planarization represents a
crossing that can be undone: deleting the dummy splits the graph locally,
which gives enough rotation freedom to re-insert both original edges
crossing-free.  When the abstract graph is 3-connected but the
planarization still has a 2-separator through a dummy, flipping a split
component between the two separator vertices turns that crossing into a
touching, which the same surgery removes: delete the dummy, then re-add
each original edge at the corners its fragments leave.  Each surgery
strictly decreases the crossing count, so the loop terminates.  An
uncrossing edits the working plane in place (a flip works on a copy, which
replaces it only when the flip is taken), and the whole plane is validated
once, when the result is built.

The normalizer always uncrosses the least dummy cutvertex, and finds it
without a search of the whole plane per uncrossing.  One lowpoint DFS
(Hopcroft and Tarjan) gives the blocks and the cutvertices; a heap keeps
the dummy ones.  Uncrossing a cutvertex x takes that status from no other
vertex v: x and its neighbors other than v lie in one component C of
G - v, and the re-added edges a-b and c-d join only vertices of C or v, so
each other component of G - v stays one.  It can give the status, but only to
vertices of the blocks that held x.  Those blocks meet the rest of the
graph only at single cutvertices, so no cycle runs from them into another
block, and the other blocks stay blocks.  So after each uncrossing one DFS
of the plane restricted to those blocks' vertices, x left out and a-b and
c-d in, gives their new blocks and cutvertices.  That status does grow:
in tests/test_reembed.py's uncrossing_makes_a_cutvertex, _x0 and _x1 both
cross edges at a and c, and uncrossing _x1 leaves _x0 the only link
between a's side and c's, so _x0 becomes a cutvertex and is uncrossed
before _x2.  Uncrossing in the order of the first list of cutvertices
instead would end with another edge order.  The outer face is recorded
by one dart (see model), and an uncrossing moves it in O(1) only when it
was a fragment at x: to the first dart after it on its face that is on no
fragment at x, whose face is the old outer face with x's corners joined.
A flip mirrors rotations and keeps that dart, so its face is the flipped
plane's face to the dart's left, and the record never goes stale.

The rule for an uncrossing: it fails iff x's rotation alternates and all
four neighbors of x lie in one component of G - x.  Let x's edges be a-b
and c-d.  Deleting x merges the faces around x into one face F.  Each
component of G - x that meets x bounds F along one closed walk, which
passes its corners at x's neighbors in x's rotation order.  The edge a-b,
re-added first, lies in F.  If a and b lie in different components, it
joins two walks and splits no face, so c-d fits too.  If they lie in one
component, a-b is a chord of that walk and splits F in two.  The walk of
any other component lies wholly on one side, so c-d fails only if c and d
lie on the same walk as a and b and interleave with them along it, that
is, around x.  One search of G - x decides the rule, and no face is
traced.  A dummy cutvertex has neighbors in at least two components, so
it always meets the rule and is uncrossed with no search.  _fix_two_cut
runs the search on each flip: there x is no cutvertex, so the rule holds
exactly when the flip has stopped x's rotation alternating.

The tests cross-check this against a brute-force existence oracle on small
instances, and the whole normalizer against one that decides each
re-insertion by tracing faces (tests/oracles.py).
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from . import graphutil
from .model import EmbeddedGraph, EmbeddingError, PlaneGraph, connectivity


class ReembedError(Exception):
    pass


def dummy_two_cuts(plane: PlaneGraph) -> List[Tuple[str, str]]:
    """Separating pairs (w, x) of a 2-connected planarization with x a
    dummy: dummies in plane order, each one's partners sorted."""
    pairs = plane.separating_pairs()
    if pairs is None:
        raise ReembedError("dummy 2-cuts are read off a 2-connected planarization")
    # The pairs (u, v) are sorted with u < v, so each vertex's partners
    # come in order: first those below it, then those above.
    partners: Dict[str, List[str]] = {}
    for u, v in pairs:
        partners.setdefault(u, []).append(v)
        partners.setdefault(v, []).append(u)
    return [(w, x) for x in plane.dummies() for w in partners.get(x, ())]


def normalize_embedding(g: EmbeddedGraph) -> EmbeddedGraph:
    """Re-embed so that no cutvertex of the planarization is a dummy and,
    for 3-connected graphs, the planarization is 3-connected.

    The abstract graph (vertices, edges, degrees) is unchanged and the
    crossing count never increases.
    """
    plane = g.plane.copy()
    start_crossings = len(plane.dummies())
    three_connected = connectivity(g) >= 3
    budget = start_crossings + 1
    cuts = _DummyCuts(plane)
    while budget >= 0:
        if cuts.heap:
            cuts.uncross_least()
            budget -= 1
            continue
        if three_connected:
            pairs = dummy_two_cuts(plane)
            if pairs:
                plane = _fix_two_cut(plane, pairs)
                cuts = _DummyCuts(plane)
                budget -= 1
                continue
        break
    if budget < 0:
        raise ReembedError("normalization made no progress within its crossing budget")
    out = EmbeddedGraph.from_plane(plane)
    _check_same_abstract_graph(g, out)
    return out


class _DummyCuts:
    """A plane's blocks and a heap of its dummy cutvertices, kept through
    its uncrossings by one lowpoint DFS of the whole plane and then one of
    the blocks that held each uncrossed dummy (see the module docstring)."""

    def __init__(self, plane: PlaneGraph) -> None:
        self.plane = plane
        # Each vertex's blocks, a block as its vertex set: two blocks share
        # at most one vertex, so the set names the block.
        self.blocks_at: Dict[str, Set[FrozenSet[str]]] = {v: set() for v in plane.vertices}
        self.heap: List[str] = []
        self._queued: Set[str] = set()
        self._add(plane.adjacency())

    def _add(self, adj: graphutil.Adj) -> None:
        """Record the blocks of adj, a subgraph of the plane whose blocks
        are blocks of the plane, and queue its dummy cutvertices."""
        blocks, cuts = graphutil.blocks_and_cut_vertices(adj)
        for block in blocks:
            verts = frozenset(v for edge in block for v in edge)
            for v in verts:
                self.blocks_at[v].add(verts)
        for v in cuts - self._queued:
            if self.plane.is_dummy(v):
                self._queued.add(v)
                heapq.heappush(self.heap, v)

    def uncross_least(self) -> None:
        """Uncross the least dummy cutvertex x, then redo the blocks that
        held x: the plane restricted to their vertices but x."""
        x = heapq.heappop(self.heap)
        _uncross(self.plane, x)
        held: Set[str] = set()
        for block in self.blocks_at.pop(x):
            held |= block
        held.discard(x)
        for v in held:
            self.blocks_at[v] = {b for b in self.blocks_at[v] if x not in b}
        rotation, edges = self.plane.rotation, self.plane.edges
        self._add({v: {w for e in rotation[v] for w in edges[e] if w != v and w in held} for v in held})


def _check_same_abstract_graph(before: EmbeddedGraph, after: EmbeddedGraph) -> None:
    if sorted(before.vertices) != sorted(after.vertices):
        raise ReembedError("normalization changed the vertex set")
    b = {e: tuple(sorted(ab)) for e, ab in before.edges.items()}
    a = {e: tuple(sorted(ab)) for e, ab in after.edges.items()}
    if a != b:
        raise ReembedError("normalization changed the edge set")


# ---------------------------------------------------------------------------
# Surgery
# ---------------------------------------------------------------------------


def _uncross(plane: PlaneGraph, x: str) -> None:
    """Delete dummy x and re-add each original edge through it at the
    corners its two fragments leave at their far ends.  Edits plane in
    place.  The caller has decided that the re-insertion is planar: x is a
    cutvertex, or _uncrossable(plane, x) holds.

    The edges are re-added in the order x's rotation first meets them, and
    each end goes into the rotation index its fragment occupied.  The
    outer face record moves only when it is a fragment at x: to the first
    dart after it on its face that is on none, as a corner at x's
    neighbors keeps its place in their rotations.  When every dart of the
    face is such a fragment, it falls back to the first face of the first
    vertex (normalization is allowed to re-embed).
    """
    cut = set(plane.rotation[x])
    outer = plane.outer
    if outer is not None and outer[0] in cut:
        outer = plane.next_in_face(outer)
        while outer[0] in cut and outer != plane.outer:
            outer = plane.next_in_face(outer)
    ends: Dict[str, List[str]] = {}
    # Each neighbor's corner: the index its fragment occupied.
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
        _insert_uncrossed_edge(plane, orig, a, corner[a], b, corner[b])
    if outer is not None and outer[0] in cut:
        v = plane.vertices[0]
        outer = (plane.rotation[v][0], v)
    plane.outer = outer


def _uncrossable(plane: PlaneGraph, x: str) -> bool:
    """Whether x can be uncrossed: not when its rotation alternates and all
    four of its neighbors lie in one component of G - x (see the module
    docstring).  One search of G - x from one neighbor decides it, and
    stops once it has met the other three."""
    if not _alternates(plane, x):
        return True
    nbrs = plane.neighbors(x)
    todo = set(nbrs) - {nbrs[0]}
    seen = {x, nbrs[0]}
    stack = [nbrs[0]]
    edges = plane.edges
    while stack and todo:
        v = stack.pop()
        for e in plane.rotation[v]:
            a, b = edges[e]
            w = b if a == v else a
            if w not in seen:
                seen.add(w)
                todo.discard(w)
                stack.append(w)
    return bool(todo)


def _insert_uncrossed_edge(plane: PlaneGraph, orig: str, a: str, ia: int, b: str, ib: int) -> None:
    """Add edge orig = (a, b) before rotation index ia at a and ib at b.
    The caller has decided that the insertion is planar (_uncrossable)."""
    plane.edges[orig] = (a, b)
    plane.rotation[a].insert(ia % max(1, len(plane.rotation[a]) + 1), orig)
    plane.rotation[b].insert(ib % max(1, len(plane.rotation[b]) + 1), orig)


def _fix_two_cut(plane: PlaneGraph, pairs: Sequence[Tuple[str, str]]) -> PlaneGraph:
    """Fix some separating pair (w, x) with x dummy by flipping a split
    component so the crossing at x stops alternating, then uncrossing it."""
    adj = plane.adjacency()
    for w, x in pairs:
        comps = graphutil.components(adj, removed={w, x})
        for comp in sorted(comps, key=lambda c: sorted(c)[0]):
            flipped = _flip_component(plane, comp, w, x)
            if flipped is None:
                continue
            # x is no cutvertex, as the flip kept the graph, so this holds
            # exactly when the flip stopped x's rotation alternating.
            if not _uncrossable(flipped, x):
                continue  # flip did not break the crossing
            _uncross(flipped, x)
            return flipped
    raise ReembedError(
        "3-connectivity fix: no split component flip removes a dummy 2-cut "
        "(unhandled configuration; see the normalization notes)"
    )


def _alternates(plane: PlaneGraph, x: str) -> bool:
    origs = [plane.fragment_of[e] for e in plane.rotation[x]]
    return origs[0] == origs[2] and origs[1] == origs[3]


def _flip_component(plane: PlaneGraph, comp: Set[str], w: str, x: str) -> Optional[PlaneGraph]:
    """Mirror the split component comp between w and x; None if its edge
    ends are not contiguous at either attachment vertex."""
    work = plane.copy()
    for v in comp:
        work.rotation[v] = list(reversed(work.rotation[v]))
    for anchor in (w, x):
        rot = work.rotation[anchor]
        hit = [i for i, e in enumerate(rot) if work.other_end(e, anchor) in comp]
        if not hit:
            return None
        arc = _contiguous_arc(len(rot), hit)
        if arc is None:
            return None
        values = [rot[i] for i in arc]
        for i, val in zip(arc, reversed(values)):
            rot[i] = val
    try:
        work._validate_euler()
    except EmbeddingError:
        return None
    return work


def _contiguous_arc(n: int, hits: List[int]) -> Optional[List[int]]:
    k = len(hits)
    hitset = set(hits)
    if k == n:
        return list(range(n))
    for start in hits:
        arc = [(start + j) % n for j in range(k)]
        if all(i in hitset for i in arc):
            before = (start - 1) % n
            if before not in hitset:
                return arc
    return None
