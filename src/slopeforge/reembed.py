"""Embedding normalization: no dummy cutvertices, 3-connectivity preserved.

A dummy vertex that is a cutvertex of the planarization represents a
crossing that can be undone: deleting the dummy splits the graph locally,
which gives enough rotation freedom to re-insert both original edges
crossing-free.  When the abstract graph is 3-connected but the
planarization still has a 2-separator through a dummy, flipping a split
component between the two separator vertices turns that crossing into a
removable touching.  Each surgery strictly decreases the crossing count,
so the loop terminates; every step re-validates the embedding.

A brute-force oracle (for small instances) decides whether a normalized
re-embedding exists at all, by enumerating crossing sets and testing
planarity of the kite-augmented planarization, where a wheel gadget at
each dummy forces the rotation to alternate in every planar embedding.
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
    plane.validate()
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


def _crossing_slots(plane: PlaneGraph, x: str):
    """(original edge, neighbor, fragment, index in neighbor's rotation) x4,
    in rotation order around x."""
    out = []
    for frag in plane.rotation[x]:
        orig = plane.fragment_of[frag]
        u = plane.other_end(frag, x)
        out.append((orig, u, frag))
    return out


def _uncross(plane: PlaneGraph, x: str) -> PlaneGraph:
    """Remove the crossing at dummy x, re-adding both edges uncrossed."""
    plane = plane.copy()
    slots = _crossing_slots(plane, x)
    (o0, u0, f0), (o1, u1, f1), (o2, u2, f2), (o3, u3, f3) = slots
    assert o0 == o2 and o1 == o3 and o0 != o1
    # Remember each neighbor's corner: the index the fragment occupied.
    corner: Dict[str, int] = {}
    for _, u, frag in slots:
        corner[u] = plane.rotation[u].index(frag)
        plane.rotation[u].remove(frag)
        del plane.edges[frag]
        del plane.fragment_of[frag]
    plane.vertices.remove(x)
    del plane.rotation[x]

    inserts = [(o0, u0, u2), (o1, u1, u3)]
    for order in (inserts, list(reversed(inserts))):
        work = plane.copy()
        ok = True
        for orig, a, b in order:
            if not _insert_uncrossed_edge(work, orig, a, corner[a], b, corner[b]):
                ok = False
                break
        if ok:
            _refresh_outer_after_surgery(work)
            work.validate()
            return work
    raise ReembedError(f"could not re-insert edges of crossing {x} without a crossing")


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
            return _uncross_touching(flipped, x)
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


def _uncross_touching(plane: PlaneGraph, x: str) -> PlaneGraph:
    """Remove dummy x whose rotation no longer alternates: the two edges
    merely touch, so both re-insert crossing-free at their own corners."""
    plane = plane.copy()
    slots = _crossing_slots(plane, x)
    by_edge: Dict[str, List[Tuple[str, str]]] = {}
    for orig, u, frag in slots:
        by_edge.setdefault(orig, []).append((u, frag))
    corner: Dict[str, int] = {}
    for orig, ends in by_edge.items():
        for u, frag in ends:
            corner[u] = plane.rotation[u].index(frag)
            plane.rotation[u].remove(frag)
            del plane.edges[frag]
            del plane.fragment_of[frag]
    plane.vertices.remove(x)
    del plane.rotation[x]
    inserts = []
    for orig in sorted(by_edge):
        (a, _), (b, _) = by_edge[orig]
        inserts.append((orig, a, b))
    for order in (inserts, list(reversed(inserts))):
        work = plane.copy()
        if all(
            _insert_uncrossed_edge(work, orig, a, corner[a], b, corner[b])
            for orig, a, b in order
        ):
            _refresh_outer_after_surgery(work)
            work.validate()
            return work
    raise ReembedError(f"touching edges at {x} failed to separate")


# ---------------------------------------------------------------------------
# Brute-force existence oracle (small instances)
# ---------------------------------------------------------------------------


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
    adj = g.abstract_adjacency()
    edges = {e: tuple(ab) for e, ab in g.edges.items()}
    want_3con = connectivity(g, cap=3) >= 3
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
        if not graphutil.is_planar(new_adj):
            return False
        # Structural checks on the plain planarization (no rims).
        dummies = {v for v in plain_adj if v.startswith("@x")}
        cuts = graphutil.articulation_points(plain_adj)
        if cuts & dummies:
            return False
        if want_3con and graphutil.vertex_connectivity(plain_adj, cap=3) < 3:
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
