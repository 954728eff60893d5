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
traced.  Both callers meet it: a dummy cutvertex has neighbors in at least
two components, and _fix_two_cut uncrosses x only once a flip has stopped
its rotation alternating.  The search guards that contract.

The tests cross-check this against a brute-force existence oracle on small
instances, and the whole normalizer against one that decides each
re-insertion by tracing faces (tests/oracles.py).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

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
    while budget >= 0:
        cuts = sorted(
            v for v in graphutil.articulation_points(plane.adjacency()) if plane.is_dummy(v)
        )
        if cuts:
            _uncross(plane, cuts[0])
            budget -= 1
            continue
        if three_connected:
            pairs = dummy_two_cuts(plane)
            if pairs:
                plane = _fix_two_cut(plane, pairs)
                budget -= 1
                continue
        break
    if budget < 0:
        raise ReembedError("normalization made no progress within its crossing budget")
    out = EmbeddedGraph.from_plane(plane)
    _check_same_abstract_graph(g, out)
    return out


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
    """Delete dummy x and re-add each original edge through it, uncrossed,
    at the corners its two fragments leave at their far ends.  Edits plane
    in place; ReembedError, before any edit, when no such re-insertion is
    planar (see _uncrossable).

    The edges are re-added in the order x's rotation first meets them, and
    each end goes into the rotation index its fragment occupied.
    """
    if not _uncrossable(plane, x):
        raise ReembedError(f"could not re-insert edges of crossing {x} without a crossing")
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
    _refresh_outer_after_surgery(plane)


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
            if _alternates(flipped, x):
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
