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
instead would end with another edge order.  The outer face changes only
when one of its darts was a fragment at x, and then it is spliced from the
old one: the runs of the old walk between x's fragments, joined at the
re-added edges, and the runs of the other faces at x where the new face
takes them in.  It is not retraced.

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
from bisect import bisect_left
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from . import graphutil
from .model import Dart, EmbeddedGraph, EmbeddingError, PlaneGraph, connectivity


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
    """Delete dummy x and re-add each original edge through it, uncrossed
    (_reinsert), then splice the outer face (_splice_outer).  Edits plane
    in place.  The caller has decided that the re-insertion is planar: x is
    a cutvertex, or _uncrossable(plane, x) holds.  The outer face changes
    only when one of its darts was a fragment at x; else its walk meets no
    changed corner and keeps its darts.
    """
    cut = set(plane.rotation[x])
    halves = _reinsert(plane, x)
    hits = [i for i, (e, _) in enumerate(plane.outer_darts) if e in cut]
    if hits:
        _splice_outer(plane, x, hits, halves)


def _reinsert(plane: PlaneGraph, x: str) -> Dict[str, List[Tuple[str, str]]]:
    """Delete dummy x and re-add each original edge through it at the
    corners its two fragments leave at their far ends; leave the outer
    face record as it is.  Returns each original edge's two (far end,
    fragment) pairs.

    The edges are re-added in the order x's rotation first meets them, and
    each end goes into the rotation index its fragment occupied.
    """
    halves: Dict[str, List[Tuple[str, str]]] = {}
    # Each neighbor's corner: the index its fragment occupied.
    corner: Dict[str, int] = {}
    for frag in plane.rotation[x]:
        u = plane.other_end(frag, x)
        halves.setdefault(plane.fragment_of[frag], []).append((u, frag))
        corner[u] = plane.rotation[u].index(frag)
        plane.rotation[u].remove(frag)
        del plane.edges[frag]
        del plane.fragment_of[frag]
    plane.vertices.remove(x)
    del plane.rotation[x]
    for orig, ((a, _), (b, _)) in halves.items():
        _insert_uncrossed_edge(plane, orig, a, corner[a], b, corner[b])
    return halves


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


def _splice_outer(plane: PlaneGraph, x: str, hits: List[int],
                  halves: Dict[str, List[Tuple[str, str]]]) -> None:
    """Replace plane's outer face, after _reinsert uncrossed x and
    returned halves, by the face _refresh_outer_after_surgery would
    retrace, spliced from the old one.  hits are the indices of the old
    face's darts on fragments at x.

    A corner at x's neighbors keeps its place in their rotations, so the
    walk changes only where it entered x: the re-added edge's dart from
    the same tail takes the place of the dart into x, and is followed by
    what followed its exit, the dart out of x toward its head.  So the new
    face is the old one from its first dart on no fragment, cut at each
    dart into x, with the run after that dart's exit spliced in.  An exit
    on the old face jumps within it; the run after any other exit lies on
    another face around x, and is walked until it meets a re-added dart.
    """
    renamed: Dict[Dart, Dart] = {}  # a dart into x -> the re-added edge's dart
    exit_of: Dict[Dart, Dart] = {}  # a re-added edge's dart -> its exit
    for orig, ((a, fa), (b, fb)) in halves.items():
        renamed[(fa, a)], exit_of[(orig, a)] = (orig, a), (fb, x)
        renamed[(fb, b)], exit_of[(orig, b)] = (orig, b), (fa, x)
    old = plane.outer_darts
    n = len(old)
    first = next((k for k, i in enumerate(hits) if k != i), len(hits))
    if first == n:
        _refresh_outer_after_surgery(plane)
        return
    edges, rotation = plane.edges, plane.rotation
    walk = old[first:] + old[:first]
    at = {old[i]: (i - first) % n for i in hits}
    into = sorted(at[d] for d in renamed if d in at)
    out: List[Dart] = []
    i = 0
    while i < n:
        k = bisect_left(into, i)
        if k == len(into):
            out.extend(walk[i:])
            break
        out.extend(walk[i:into[k]])
        new = renamed[walk[into[k]]]
        while True:
            out.append(new)
            q = at.get(exit_of[new])
            if q is not None:
                i = q + 1
                break
            e, v = new
            while True:  # next_in_face, inline
                a, b = edges[e]
                v = b if v == a else a
                rot = rotation[v]
                e = rot[rot.index(e) - 1]
                if (e, v) in exit_of:
                    break
                out.append((e, v))
            new = (e, v)
    plane.outer_darts = tuple(out)


def _refresh_outer_after_surgery(plane: PlaneGraph) -> None:
    if not plane.outer_darts:
        return
    for d in plane.outer_darts:
        if d[0] in plane.edges and d[1] in plane.rotation:
            plane.outer_darts = tuple(plane.trace_face(d).darts)
            return
    # The old outer boundary vanished entirely; fall back to any face of the
    # first vertex (normalization is allowed to re-embed).
    v = plane.vertices[0]
    e = plane.rotation[v][0]
    plane.outer_darts = tuple(plane.trace_face((e, v)).darts)


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
            # The flip leaves the outer face record as it was, which need
            # not be a face of the flipped plane: retrace it, not splice.
            cut = set(flipped.rotation[x])
            _reinsert(flipped, x)
            if any(e in cut for e, _ in flipped.outer_darts):
                _refresh_outer_after_surgery(flipped)
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
