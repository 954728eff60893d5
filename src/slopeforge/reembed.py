"""Embedding normalization: no dummy cutvertices, 3-connectivity preserved.

A dummy vertex that is a cutvertex of the planarization represents a
crossing that can be undone: deleting the dummy splits the graph locally,
which gives enough rotation freedom to re-insert both original edges
crossing-free.  When the abstract graph is 3-connected but the
planarization still has a 2-separator through a dummy, flipping a split
component between the two separator vertices turns that crossing into a
touching, which the same surgery removes: delete the dummy, then re-add
each original edge at the corners its fragments leave.  Each surgery
strictly decreases the crossing count, so the loop terminates; every step
re-validates the embedding.

The tests cross-check this against a brute-force existence oracle on small
instances (tests/oracles.py).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import graphutil
from .model import EmbeddedGraph, EmbeddingError, PlaneGraph, connectivity


class ReembedError(Exception):
    pass


def count_dummy_cutvertices(plane: PlaneGraph) -> int:
    cuts = graphutil.articulation_points(plane.adjacency())
    return sum(1 for v in cuts if plane.is_dummy(v))


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


def normalize_embedding(g: EmbeddedGraph, three_connected: Optional[bool] = None) -> EmbeddedGraph:
    """Re-embed so that no cutvertex of the planarization is a dummy and,
    for 3-connected graphs, the planarization is 3-connected.

    `three_connected` says whether the abstract graph is 3-connected, for a
    caller that has tested it already; None tests it here.  The abstract
    graph (vertices, edges, degrees) is unchanged and the crossing count
    never increases.
    """
    plane = g.plane.copy()
    start_crossings = len(plane.dummies())
    if three_connected is None:
        three_connected = connectivity(g, cap=3) >= 3
    budget = start_crossings + 1
    while budget >= 0:
        cuts = sorted(
            v for v in graphutil.articulation_points(plane.adjacency()) if plane.is_dummy(v)
        )
        if cuts:
            plane = _uncross(plane, cuts[0])
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


def _uncross(plane: PlaneGraph, x: str) -> PlaneGraph:
    """Delete dummy x and re-add each original edge through it, uncrossed,
    at the corners its two fragments leave at their far ends.

    The edges are re-added in the order x's rotation first meets them.  One
    order is enough: two chords of one face conflict exactly when their
    corners interleave, whichever goes in first, and an edge joining two
    components (a bridge) splits no face.
    """
    plane = plane.copy()
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
        if not _insert_uncrossed_edge(plane, orig, a, corner[a], b, corner[b]):
            raise ReembedError(f"could not re-insert edges of crossing {x} without a crossing")
    _refresh_outer_after_surgery(plane)
    plane.validate()
    return plane


def _corner_face(plane: PlaneGraph, v: str, idx: int):
    """The face occupying the corner before rotation index idx at v."""
    rot = plane.rotation[v]
    if not rot:
        return None
    e_out = rot[(idx - 1) % len(rot)]
    return plane.trace_face((e_out, v))


def _insert_uncrossed_edge(
    plane: PlaneGraph, orig: str, a: str, ia: int, b: str, ib: int
) -> bool:
    comps = graphutil.components(plane.adjacency())
    comp_a = next(c for c in comps if a in c)
    same_component = b in comp_a
    if same_component:
        fa = _corner_face(plane, a, ia)
        fb = _corner_face(plane, b, ib)
        if fa is None or fb is None:
            pass  # isolated endpoint: insertion is trivially planar
        elif set(fa.darts) != set(fb.darts):
            return False
    plane.edges[orig] = (a, b)
    plane.rotation[a].insert(ia % max(1, len(plane.rotation[a]) + 1), orig)
    plane.rotation[b].insert(ib % max(1, len(plane.rotation[b]) + 1), orig)
    return True


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
            return _uncross(flipped, x)
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
