"""Abstract-graph algorithms: connectivity, blocks, st-numbering, 2-SAT.

Everything here works on plain adjacency mappings {vertex: set(neighbors)}
and is sized for desk-scale inputs (hundreds of vertices).  Only the
connectivity distinctions k in {0, 1, 2, 3} matter to the drawers and
checkers.  A graph of maximum degree <= 3 has its connectivity read off the
cycle space in one traversal.  Blocks, cut vertices and bridges of any
graph come from one lowpoint DFS (Hopcroft and Tarjan), and a 2-separator
from that DFS run once on G - v for each v.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

Adj = Dict[str, Set[str]]
Block = List[Tuple[str, str]]


def adjacency(vertices: Iterable[str], edges: Iterable[Tuple[str, str]]) -> Adj:
    adj: Adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def components(adj: Adj, removed: Set[str] = frozenset()) -> List[Set[str]]:
    seen: Set[str] = set(removed)
    comps: List[Set[str]] = []
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def is_connected(adj: Adj) -> bool:
    if not adj:
        return True
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def blocks_and_cut_vertices(
    adj: Adj, removed: Set[str] = frozenset()
) -> Tuple[List[Block], Set[str]]:
    """The blocks of adj minus `removed`, each as its list of edges, and the
    cut vertices, by one iterative lowpoint DFS with an edge stack.

    A tree edge (p, v) closes a block when low(v) >= order(p): the block is
    every edge pushed since it.  An isolated vertex lies in no block.
    Neither result depends on the visiting order.
    """
    names = list(adj)
    index = {v: i for i, v in enumerate(names)}
    nbrs = [[index[w] for w in adj[v] if w not in removed] for v in names]
    n = len(names)
    order = [-1] * n
    low = [0] * n
    parent = [-1] * n
    pushed_at = [0] * n  # the edge stack's height when v's tree edge went on
    edges: List[Tuple[int, int]] = []
    blocks: List[Block] = []
    cuts: Set[str] = set()
    counter = 0
    for root in range(n):
        if order[root] >= 0 or names[root] in removed:
            continue
        order[root] = low[root] = counter
        counter += 1
        root_children = 0
        stack = [(root, iter(nbrs[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if order[w] < 0:
                    parent[w] = v
                    order[w] = low[w] = counter
                    counter += 1
                    pushed_at[w] = len(edges)
                    edges.append((v, w))
                    stack.append((w, iter(nbrs[w])))
                    break
                if order[w] < order[v] and w != parent[v]:
                    edges.append((v, w))
                    if order[w] < low[v]:
                        low[v] = order[w]
            else:
                stack.pop()
                if v == root:
                    continue
                p = parent[v]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= order[p]:
                    if p == root:
                        root_children += 1
                    else:
                        cuts.add(names[p])
                    start = pushed_at[v]
                    blocks.append([(names[a], names[b]) for a, b in edges[start:]])
                    del edges[start:]
        if root_children >= 2:
            cuts.add(names[root])
    return blocks, cuts


def articulation_points(adj: Adj, removed: Set[str] = frozenset()) -> Set[str]:
    """Cut vertices of adj minus `removed`."""
    return blocks_and_cut_vertices(adj, removed)[1]


def bridges(adj: Adj) -> Set[FrozenSet[str]]:
    """Bridge edges: the blocks with one edge."""
    return {frozenset(b[0]) for b in blocks_and_cut_vertices(adj)[0] if len(b) == 1}


def bridges_and_components(adj: Adj) -> Tuple[Set[FrozenSet[str]], List[Set[str]]]:
    """The bridges and the 2-edge-connected components, from one DFS."""
    br = bridges(adj)
    return br, components({v: {w for w in adj[v] if frozenset((v, w)) not in br} for v in adj})


def vertex_connectivity(adj: Adj) -> int:
    """Vertex connectivity, exact up to 3; larger values return 3.

    Complete graphs K_n report min(n - 1, 3).  With maximum degree <= 3,
    vertex and edge connectivity agree, and edge connectivity is read off
    one traversal (see _subcubic_edge_connectivity).  Otherwise cut
    vertices come from one lowpoint DFS, and a 2-separator from one DFS of
    G - v per vertex v.
    """
    n = len(adj)
    if n <= 1:
        return 0
    if all(len(adj[v]) == n - 1 for v in adj):
        return min(n - 1, 3)
    if all(len(ns) <= 3 for ns in adj.values()):
        return _subcubic_edge_connectivity(adj)
    if not is_connected(adj):
        return 0
    if articulation_points(adj):
        return 1
    if _has_cut_pair(adj):
        return 2
    return 3


def _subcubic_edge_connectivity(adj: Adj) -> int:
    """Edge connectivity of a graph with n >= 2, capped at 3.

    An edge set is a cut iff it meets every cycle an even number of times,
    and the fundamental cycles of a spanning tree span the cycle space.  So
    non-tree edge j gets the label 1 << j, and a tree edge the XOR of the
    labels of the non-tree edges with exactly one end below it: an edge is
    a bridge iff its label is 0, and two edges form a cut iff their labels
    are equal.  The labels are exact (m - n + 1 bits), not sampled.
    """
    root = next(iter(adj))
    parent: Dict[str, Optional[str]] = {root: None}
    found = [root]
    stack = [root]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                found.append(w)
                stack.append(w)
    if len(found) < len(adj):
        return 0
    pos = {v: i for i, v in enumerate(found)}
    acc = [0] * len(found)
    labels: List[int] = []
    for i, v in enumerate(found):
        for w in adj[v]:
            k = pos[w]
            # Each edge once, from its end found first; parent[w] == v marks
            # the tree edge.
            if k > i and parent[w] != v:
                bit = 1 << len(labels)
                labels.append(bit)
                acc[i] ^= bit
                acc[k] ^= bit
    # Children are found after their parents, so a reverse sweep sees each
    # subtree whole before its root's tree edge.
    for i in range(len(found) - 1, 0, -1):
        label = acc[i]
        if label == 0:
            return 1
        labels.append(label)
        acc[pos[parent[found[i]]]] ^= label
    return 2 if len(set(labels)) < len(labels) else 3


def _has_cut_pair(adj: Adj) -> bool:
    """Whether some two vertices separate adj: whether some G - v has a cut
    vertex."""
    return len(adj) > 3 and any(articulation_points(adj, {v}) for v in adj)


def is_biconnected(adj: Adj) -> bool:
    """One block that spans every vertex (a single edge counts)."""
    blocks = blocks_and_cut_vertices(adj)[0]
    return len(blocks) == 1 and len({v for e in blocks[0] for v in e}) == len(adj)


# ---------------------------------------------------------------------------
# st-numbering (Even/Tarjan style via DFS lowpoints and a linked insertion
# order).  Works for any biconnected graph; s and t need not be adjacent
# (a virtual (s, t) edge is added internally if missing).
# ---------------------------------------------------------------------------


def st_numbering(adj: Adj, s: str, t: str) -> Dict[str, int]:
    if s == t or s not in adj or t not in adj:
        raise ValueError("s, t must be distinct vertices of the graph")
    if len(adj) == 2:
        return {s: 1, t: 2}
    if not is_biconnected(adj):
        raise ValueError("st-numbering requires a biconnected graph")
    work: Adj = {v: set(ns) for v, ns in adj.items()}
    if t not in work[s]:
        # Virtual (s, t) edge: the numbering it produces remains valid for
        # the original graph since only s and t's own conditions use it,
        # and those hold trivially at the extremes.
        work[s].add(t)
        work[t].add(s)

    # DFS from s with first tree edge (s, t).  In a biconnected graph t's
    # subtree then covers every vertex except s.
    pre: Dict[str, int] = {s: 0, t: 1}
    parent: Dict[str, Optional[str]] = {s: None, t: s}
    low: Dict[str, str] = {s: s, t: t}
    lowpre: Dict[str, int] = {s: 0, t: 1}
    counter = 2
    preorder: List[str] = [s, t]
    stack: List[Tuple[str, List[str]]] = [(t, sorted(work[t] - {s}, reverse=True))]
    while stack:
        v, todo = stack[-1]
        if todo:
            w = todo.pop()
            if w not in pre:
                pre[w] = counter
                counter += 1
                parent[w] = v
                low[w] = w
                lowpre[w] = pre[w]
                preorder.append(w)
                stack.append((w, sorted(work[w] - {v}, reverse=True)))
            elif w != parent[v] and pre[w] < lowpre[v]:
                lowpre[v] = pre[w]
                low[v] = w
        else:
            stack.pop()
            p = parent[v]
            if p is not None and lowpre[v] < lowpre[p]:
                lowpre[p] = lowpre[v]
                low[p] = low[v]
    if len(pre) != len(work):
        raise ValueError("graph is not connected")

    # Even-Tarjan sign rule: insert each vertex next to its parent.
    sign: Dict[str, int] = {s: -1}
    lst: List[str] = [s, t]
    for v in preorder[2:]:
        p = parent[v]
        assert p is not None
        if sign[low[v]] == -1:
            lst.insert(lst.index(p), v)
            sign[p] = 1
        else:
            lst.insert(lst.index(p) + 1, v)
            sign[p] = -1
    return {v: i + 1 for i, v in enumerate(lst)}


def verify_st_numbering(adj: Adj, s: str, t: str, sigma: Dict[str, int]) -> List[str]:
    """Return violated st-ordering conditions (empty means valid)."""
    problems: List[str] = []
    n = len(adj)
    if sorted(sigma.values()) != list(range(1, n + 1)):
        problems.append("numbering is not a bijection onto 1..n")
        return problems
    if sigma[s] != 1:
        problems.append("sigma(s) != 1")
    if sigma[t] != n:
        problems.append("sigma(t) != n")
    for v in adj:
        if v in (s, t):
            continue
        if not any(sigma[w] < sigma[v] for w in adj[v]):
            problems.append(f"{v} has no lower neighbor")
        if not any(sigma[w] > sigma[v] for w in adj[v]):
            problems.append(f"{v} has no higher neighbor")
    return problems


# ---------------------------------------------------------------------------
# 2-SAT via implication graph strongly connected components.
# ---------------------------------------------------------------------------


def two_sat(n_vars: int, clauses: Sequence[Tuple[int, int]]) -> Optional[List[bool]]:
    """Solve 2-SAT over variables 0..n_vars-1.

    Literals: +i+1 for x_i, -(i+1) for not x_i.  Returns an assignment or
    None when unsatisfiable.
    """

    def node(lit: int) -> int:
        v = abs(lit) - 1
        return 2 * v + (1 if lit > 0 else 0)

    def neg(lit: int) -> int:
        return node(-lit)

    n_nodes = 2 * n_vars
    out_edges: List[List[int]] = [[] for _ in range(n_nodes)]
    for a, b in clauses:
        out_edges[neg(a)].append(node(b))
        out_edges[neg(b)].append(node(a))

    index: List[Optional[int]] = [None] * n_nodes
    low = [0] * n_nodes
    on_stack = [False] * n_nodes
    stack: List[int] = []
    comp = [-1] * n_nodes
    counter = [0]
    n_comp = [0]

    for root in range(n_nodes):
        if index[root] is not None:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(out_edges[v]):
                w = out_edges[v][pi]
                pi += 1
                if index[w] is None:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comp[0]
                    if w == v:
                        break
                n_comp[0] += 1
            if work:
                pv, _ = work[-1]
                low[pv] = min(low[pv], low[v])

    result = []
    for i in range(n_vars):
        pos, negn = 2 * i + 1, 2 * i
        if comp[pos] == comp[negn]:
            return None
        # Reverse topological order = increasing Tarjan component index:
        # a literal is true when its component comes later.
        result.append(comp[pos] < comp[negn])
    return result
