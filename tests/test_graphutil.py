from __future__ import annotations

import random
from itertools import combinations

import pytest

from slopeforge import graphutil as gu
from slopeforge.families import gen_corpus

from oracles import is_planar


def adj_of(edges, extra=()):
    verts = {v for e in edges for v in e} | set(extra)
    return gu.adjacency(verts, edges)


def k4():
    return adj_of([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")])


def cycle(n):
    names = [f"v{i}" for i in range(n)]
    return adj_of([(names[i], names[(i + 1) % n]) for i in range(n)])


class TestConnectivity:
    def test_path_is_1(self):
        assert gu.vertex_connectivity(adj_of([("a", "b"), ("b", "c")])) == 1

    def test_c5_is_2(self):
        assert gu.vertex_connectivity(cycle(5)) == 2

    def test_k4_is_3(self):
        assert gu.vertex_connectivity(k4()) == 3

    def test_disconnected_is_0(self):
        assert gu.vertex_connectivity(adj_of([("a", "b")], extra=["z"])) == 0

    def test_k5_caps_at_3(self):
        edges = [(a, b) for a in "abcde" for b in "abcde" if a < b]
        assert gu.vertex_connectivity(adj_of(edges)) == 3

    def test_prism_is_3(self):
        edges = [
            ("a", "b"), ("b", "c"), ("c", "a"),
            ("x", "y"), ("y", "z"), ("z", "x"),
            ("a", "x"), ("b", "y"), ("c", "z"),
        ]
        assert gu.vertex_connectivity(adj_of(edges)) == 3


class TestBlocks:
    def test_bridges_of_two_triangles_joined_by_edge(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "d")]
        assert gu.bridges(adj_of(edges)) == {frozenset(("c", "d"))}

    def test_two_edge_connected_components(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "d")]
        comps = gu.bridges_and_components(adj_of(edges))[1]
        assert sorted(sorted(c) for c in comps) == [["a", "b", "c"], ["d", "e", "f"]]

    def test_articulation(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
        assert gu.articulation_points(adj_of(edges)) == {"c"}


def _connected_without(adj, removed):
    rest = [v for v in adj if v not in removed]
    if not rest:
        return True
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen and w not in removed:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(rest)


def brute_connectivity(adj, cap):
    """Least k < min(cap, n - 1) such that removing some k vertices
    disconnects the rest; min(cap, n - 1) when there is none."""
    top = min(cap, len(adj) - 1)
    for k in range(max(top, 0)):
        for sep in combinations(sorted(adj), k):
            if not _connected_without(adj, set(sep)):
                return k
    return max(top, 0)


def random_graph(rng, n, p):
    names = [f"n{i}" for i in range(n)]
    edges = [(a, b) for a, b in combinations(names, 2) if rng.random() < p]
    return adj_of(edges, extra=names)


def glued_k4s():
    # Two K4s sharing the vertices a and b: {a, b} separates c, d from e, f.
    left = [(u, v) for u, v in combinations("abcd", 2)]
    right = [(u, v) for u, v in combinations("abef", 2)]
    return adj_of(left + right)


def prism():
    return adj_of([
        ("a", "b"), ("b", "c"), ("c", "a"),
        ("x", "y"), ("y", "z"), ("z", "x"),
        ("a", "x"), ("b", "y"), ("c", "z"),
    ])


def corpus_adjacencies():
    out = []
    for i, n_target in enumerate((12, 14, 16, 18, 20)):
        g = gen_corpus(seed=2000 + i, n_target=n_target, profile="cubic3con", count=1)[0]
        out.append(g.abstract_adjacency())
        out.append(g.plane.adjacency())
    return out


class TestConnectivityOracle:
    @pytest.mark.parametrize("cap", [3])
    def test_random_small_graphs(self, cap):
        rng = random.Random(7)
        for _ in range(150):
            adj = random_graph(rng, rng.randint(1, 8), rng.choice((0.3, 0.5, 0.7, 0.9)))
            assert min(gu.vertex_connectivity(adj), cap) == brute_connectivity(adj, cap), adj

    def test_glued_k4s_is_2(self):
        assert brute_connectivity(glued_k4s(), 3) == 2
        assert gu.vertex_connectivity(glued_k4s()) == 2

    def test_prism_is_3(self):
        assert brute_connectivity(prism(), 3) == 3
        assert gu.vertex_connectivity(prism()) == 3

    def test_corpus_graphs(self):
        for adj in corpus_adjacencies():
            assert gu.vertex_connectivity(adj) == brute_connectivity(adj, 3) == 3

    def test_articulation_points_with_a_removed_vertex(self):
        rng = random.Random(11)
        graphs = [glued_k4s(), prism(), *corpus_adjacencies()[:4]]
        graphs += [random_graph(rng, 9, 0.35) for _ in range(10)]
        for adj in graphs:
            for v in adj:
                copied = {u: adj[u] - {v} for u in adj if u != v}
                assert gu.articulation_points(adj, removed={v}) == gu.articulation_points(copied)


def cut_vertices_by_removal(adj, removed):
    """Vertices whose removal adds a component to adj minus `removed`."""
    base = len(gu.components(adj, removed))
    return {v for v in adj if v not in removed
            and len(gu.components(adj, set(removed) | {v})) > base}


def bridges_by_removal(adj):
    """Edges whose deletion adds a component."""
    base = len(gu.components(adj))
    out = set()
    for a, b in sorted((a, b) for a in adj for b in adj[a] if a < b):
        cut = {v: ns - {a, b} if v in (a, b) else ns for v, ns in adj.items()}
        if len(gu.components(cut)) > base:
            out.add(frozenset((a, b)))
    return out


def blocks_by_removal(adj):
    """Edge classes: two edges of one component share a block unless some
    vertex x leaves them (or, for an edge at x, its other end) in different
    components of G - x."""
    edges = sorted((a, b) for a in adj for b in adj[a] if a < b)
    comp_without = {}
    for x in [None, *adj]:
        removed = set() if x is None else {x}
        comp_without[x] = {v: i for i, c in enumerate(gu.components(adj, removed)) for v in c}

    def together(e, f):
        for x, comp in comp_without.items():
            ends_e = [v for v in e if v != x]
            ends_f = [v for v in f if v != x]
            if comp[ends_e[0]] != comp[ends_f[0]]:
                return False
        return True

    classes = []
    for e in edges:
        for cls in classes:
            if together(cls[0], e):
                cls.append(e)
                break
        else:
            classes.append([e])
    return {frozenset(frozenset(e) for e in cls) for cls in classes}


class TestLowpointDfs:
    def graphs(self):
        rng = random.Random(31)
        out = [glued_k4s(), prism(), k4_bridge_k4(), cycle(5), adj_of([], extra=["a"])]
        out += [random_graph(rng, rng.randint(1, 9), rng.choice((0.15, 0.3, 0.5, 0.8)))
                for _ in range(400)]
        return rng, out

    def test_cut_vertices_with_a_removed_set(self):
        rng, graphs = self.graphs()
        for adj in graphs:
            removed = set(rng.sample(sorted(adj), rng.randint(0, min(3, len(adj)))))
            assert gu.articulation_points(adj, removed) == cut_vertices_by_removal(adj, removed)
            assert gu.articulation_points(adj) == cut_vertices_by_removal(adj, set())

    def test_bridges(self):
        _, graphs = self.graphs()
        for adj in graphs:
            assert gu.bridges(adj) == bridges_by_removal(adj), adj

    def test_blocks(self):
        _, graphs = self.graphs()
        sizes = set()
        for adj in graphs:
            blocks, _ = gu.blocks_and_cut_vertices(adj)
            listed = [frozenset(e) for b in blocks for e in b]
            assert len(listed) == len(set(listed)), adj
            assert {frozenset(frozenset(e) for e in b) for b in blocks} == blocks_by_removal(adj)
            sizes.update(len(b) for b in blocks)
        assert {1, 3} <= sizes and max(sizes) > 6

    def test_biconnected_is_one_spanning_block(self):
        assert gu.is_biconnected(adj_of([("a", "b")]))
        assert not gu.is_biconnected(adj_of([("a", "b")], extra=["c"]))
        assert not gu.is_biconnected(adj_of([], extra=["a"]))
        assert gu.is_biconnected(cycle(4)) and gu.is_biconnected(glued_k4s())
        assert not gu.is_biconnected(k4_bridge_k4())


def random_subcubic_graph(rng, n):
    """Random edges of the complete graph, each kept with a random
    probability while both ends still have degree < 3."""
    names = [f"n{i}" for i in range(n)]
    adj = {v: set() for v in names}
    pairs = list(combinations(names, 2))
    rng.shuffle(pairs)
    keep = rng.choice((0.3, 0.6, 1.0))
    for a, b in pairs:
        if len(adj[a]) < 3 and len(adj[b]) < 3 and rng.random() < keep:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def subdivided_k4(tag, times):
    """K4 on tag+'0'..tag+'3' with the edge (0, 1) subdivided `times` times;
    returns the graph's edges and the subdivision vertices in path order."""
    a, b, c, d = (f"{tag}{i}" for i in range(4))
    subs = [f"{tag}s{i}" for i in range(times)]
    path = [a, *subs, b]
    edges = [(a, c), (a, d), (b, c), (b, d), (c, d)]
    edges += list(zip(path, path[1:]))
    return edges, subs


def petersen():
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    return adj_of(outer + inner + spokes)


def k4_bridge_k4():
    # Cubic, with a bridge between the two subdivision vertices.
    left, (s,) = subdivided_k4("a", 1)
    right, (t,) = subdivided_k4("b", 1)
    return adj_of(left + right + [(s, t)])


def k4_pair_k4():
    # Cubic, with the 2-edge cut {(s1, t1), (s2, t2)}.
    left, (s1, s2) = subdivided_k4("a", 2)
    right, (t1, t2) = subdivided_k4("b", 2)
    return adj_of(left + right + [(s1, t1), (s2, t2)])


SUBCUBIC_HAND_CASES = [
    ("K1", adj_of([], extra=["a"]), 0),
    ("K2", adj_of([("a", "b")]), 1),
    ("K3", cycle(3), 2),
    ("K4", k4(), 3),
    ("path", adj_of([("a", "b"), ("b", "c"), ("c", "d")]), 1),
    ("cycle", cycle(7), 2),
    ("prism", prism(), 3),
    ("cubic with a bridge", k4_bridge_k4(), 1),
    ("subdivided K4s joined by two edges", k4_pair_k4(), 2),
    ("Petersen", petersen(), 3),
]


def has_cut_pair_by_scan(adj):
    """The reference 2-separator scan: for each v, does G - v have a cut vertex?"""
    return any(gu.articulation_points(adj, removed={v}) for v in sorted(adj))


def without_edges(adj, rng, k):
    edges = sorted((a, b) for a in adj for b in adj[a] if a < b)
    out = {v: set(ns) for v, ns in adj.items()}
    for a, b in rng.sample(edges, k):
        out[a].discard(b)
        out[b].discard(a)
    return out


class TestSubcubicConnectivity:
    @pytest.mark.parametrize("cap", [1, 2])
    def test_caps_below_3_are_respected(self, cap):
        rng = random.Random(3)
        graphs = [cycle(5), prism(), k4(), glued_k4s()]
        graphs += [random_graph(rng, rng.randint(1, 8), rng.choice((0.3, 0.5, 0.9)))
                   for _ in range(60)]
        for adj in graphs:
            assert min(gu.vertex_connectivity(adj), cap) == brute_connectivity(adj, cap), adj

    @pytest.mark.parametrize("name, adj, expected", SUBCUBIC_HAND_CASES,
                             ids=[case[0] for case in SUBCUBIC_HAND_CASES])
    def test_hand_cases(self, name, adj, expected):
        assert brute_connectivity(adj, 3) == expected
        assert gu.vertex_connectivity(adj) == expected

    def test_random_subcubic_graphs(self):
        rng = random.Random(19)
        seen = {k: 0 for k in range(4)}
        for _ in range(2000):
            adj = random_subcubic_graph(rng, rng.randint(1, 12))
            expected = brute_connectivity(adj, 3)
            assert gu.vertex_connectivity(adj) == expected, adj
            seen[expected] += 1
        assert all(seen.values()), seen


class TestCutPairScan:
    def test_agrees_with_the_articulation_scan(self):
        rng = random.Random(23)
        graphs = []
        for i, n_target in enumerate((20, 60, 100, 140, 200)):
            for g in gen_corpus(seed=3000 + i, n_target=n_target, profile="cubic3con", count=2):
                plane = g.plane.adjacency()
                graphs.append(plane)
                graphs += [without_edges(plane, rng, k) for k in (1, 2, 3)]
        graphs += [random_graph(rng, rng.randint(4, 14), rng.choice((0.2, 0.35, 0.6)))
                   for _ in range(200)]
        assert sum(max(len(ns) for ns in adj.values()) >= 4 for adj in graphs) >= 100
        outcomes = set()
        for adj in graphs:
            expected = has_cut_pair_by_scan(adj)
            assert gu._has_cut_pair(adj) == expected, adj
            outcomes.add(expected)
        assert outcomes == {False, True}


class TestStNumbering:
    def check(self, adj, s, t):
        sigma = gu.st_numbering(adj, s, t)
        assert gu.verify_st_numbering(adj, s, t, sigma) == []

    def test_single_edge(self):
        sigma = gu.st_numbering(adj_of([("s", "t")]), "s", "t")
        assert sigma == {"s": 1, "t": 2}

    def test_c4(self):
        self.check(cycle(4), "v0", "v1")

    def test_k4_all_pairs(self):
        adj = k4()
        for s in "abcd":
            for t in "abcd":
                if s != t:
                    self.check(adj, s, t)

    def test_non_adjacent_terminals(self):
        self.check(cycle(6), "v0", "v3")

    def test_not_biconnected_rejected(self):
        with pytest.raises(ValueError):
            gu.st_numbering(adj_of([("a", "b"), ("b", "c")]), "a", "c")

    def test_random_biconnected(self):
        rng = random.Random(42)
        for trial in range(25):
            n = rng.randint(4, 12)
            base = cycle(n)
            names = sorted(base)
            for _ in range(rng.randint(1, n)):
                u, v = rng.sample(names, 2)
                if u != v:
                    base[u].add(v)
                    base[v].add(u)
            s, t = rng.sample(names, 2)
            self.check(base, s, t)


class TestPlanarity:
    def test_k4_planar(self):
        assert is_planar(k4())

    def test_k5_not_planar(self):
        edges = [(a, b) for a in "abcde" for b in "abcde" if a < b]
        assert not is_planar(adj_of(edges))

    def test_k33_not_planar(self):
        edges = [(a, b) for a in "abc" for b in "xyz"]
        assert not is_planar(adj_of(edges))

    def test_k33_minus_edge_planar(self):
        edges = [(a, b) for a in "abc" for b in "xyz"]
        edges.remove(("a", "x"))
        assert is_planar(adj_of(edges))

    def test_cube_planar(self):
        edges = [
            ("0", "1"), ("1", "2"), ("2", "3"), ("3", "0"),
            ("4", "5"), ("5", "6"), ("6", "7"), ("7", "4"),
            ("0", "4"), ("1", "5"), ("2", "6"), ("3", "7"),
        ]
        assert is_planar(adj_of(edges))

    def test_petersen_not_planar(self):
        outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
        inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
        spokes = [(f"o{i}", f"i{i}") for i in range(5)]
        assert not is_planar(adj_of(outer + inner + spokes))

    def test_wheel_and_bipyramid(self):
        hub = [("h", f"r{i}") for i in range(6)]
        rim = [(f"r{i}", f"r{(i + 1) % 6}") for i in range(6)]
        assert is_planar(adj_of(hub + rim))
        second_hub = [("h2", f"r{i}") for i in range(6)]
        # The 6-gonal bipyramid is planar; adding the hub-hub edge exceeds
        # the planar edge bound (19 > 3*8-6) and must be rejected.
        assert is_planar(adj_of(hub + rim + second_hub))
        assert not is_planar(adj_of(hub + rim + second_hub + [("h", "h2")]))
