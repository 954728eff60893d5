from __future__ import annotations

import random

import pytest

from slopeforge import graphutil, ordering
from slopeforge.families import gen_corpus
from slopeforge.model import PlaneGraph
from slopeforge.ordering import (
    CanonicalOrdering,
    OrderingError,
    canonical_order,
    canonical_order_on_real_edge,
    st_order,
)
from slopeforge.reembed import normalize_embedding

from builders import build_plane_graph
from oracles import canonical_order_by_retracing, verify_canonical, vertex_order
from test_model import k4_one_crossing, k4_plane


def prism_plane():
    return build_plane_graph(
        real_vertices=["a", "b", "c", "x", "y", "z"],
        dummy_vertices=[],
        edges={
            "ab": ("a", "b"), "ac": ("a", "c"), "bc": ("b", "c"),
            "xy": ("x", "y"), "xz": ("x", "z"), "yz": ("y", "z"),
            "ax": ("a", "x"), "by": ("b", "y"), "cz": ("c", "z"),
        },
        rotation={
            "a": ["ab", "ac", "ax"],
            "b": ["bc", "ab", "by"],
            "c": ["cz", "ac", "bc"],
            "x": ["xy", "ax", "xz"],
            "y": ["yz", "by", "xy"],
            "z": ["xz", "cz", "yz"],
        },
        fragment_of={},
        outer_dart=("xy", "y"),
    )


class TestCanonicalOrder:
    def test_k4(self):
        plane = k4_plane()
        delta = canonical_order(plane, "a", "b")
        ok, problems = verify_canonical(plane, delta)
        assert ok, problems
        assert delta.sets[0].vertices == ["a", "b"]
        assert len(vertex_order(delta)) == 4

    def test_prism(self):
        plane = prism_plane()
        delta = canonical_order(plane, "x", "y")
        ok, problems = verify_canonical(plane, delta)
        assert ok, problems
        assert len(delta.sets) >= 3

    def test_planarized_crossed_k4(self):
        plane = k4_one_crossing()
        delta = canonical_order(plane, "1", "2")
        ok, problems = verify_canonical(plane, delta)
        assert ok, problems
        assert sorted(vertex_order(delta)) == sorted(plane.vertices)

    def test_deterministic(self):
        plane = prism_plane()
        d1 = canonical_order(plane, "x", "y")
        d2 = canonical_order(plane, "x", "y")
        assert [s.vertices for s in d1.sets] == [s.vertices for s in d2.sets]

    def test_requires_outer_edge(self):
        plane = prism_plane()
        with pytest.raises(OrderingError):
            canonical_order(plane, "a", "b")  # inner edge

    def test_requires_3_connectivity(self):
        plane = build_plane_graph(
            real_vertices=["a", "b", "c", "d"],
            dummy_vertices=[],
            edges={"ab": ("a", "b"), "bc": ("b", "c"), "cd": ("c", "d"), "da": ("d", "a")},
            rotation={"a": ["ab", "da"], "b": ["bc", "ab"], "c": ["cd", "bc"], "d": ["da", "cd"]},
            fragment_of={},
            outer_dart=("ab", "b"),
        )
        with pytest.raises(OrderingError):
            canonical_order(plane, "a", "b")

    def test_every_outer_dart_gives_a_valid_ordering(self):
        # The greedy removal never dead-ends on a 3-connected plane graph, so
        # every face as the outer face and every dart of it as the base give
        # an ordering.
        count = 0
        for n_target in (12, 20):
            for seed in range(3):
                plane = gen_corpus(seed=seed, n_target=n_target, profile="cubic3con")[0].plane
                for face in plane.faces():
                    p = plane.with_outer(face.darts[0])
                    for d in face.darts:
                        delta = canonical_order(p, p.dart_head(d), d[1])
                        ok, problems = verify_canonical(p, delta)
                        assert ok, (n_target, seed, d, problems)
                        count += 1
        assert count > 200

    def test_a_dead_end_names_its_contour(self, monkeypatch):
        monkeypatch.setattr(ordering._Builder, "try_remove", lambda self, cand: False)
        with pytest.raises(OrderingError, match=r"dead end at contour \['y', 'x', 'z'\]"):
            canonical_order(prism_plane(), "x", "y")


def sets_or_error(order, plane, v1, v2):
    try:
        return [(s.kind, s.vertices) for s in order(plane, v1, v2).sets]
    except OrderingError as exc:
        return str(exc)


def same_orderings_on_every_outer_dart(plane):
    """Require canonical_order and the retracing oracle to agree with every
    face of plane as the outer face and every dart of it as the base;
    return the number of (face, dart) pairs."""
    count = 0
    for face in plane.faces():
        p = plane.with_outer(face.darts[0])
        for d in face.darts:
            v1, v2 = p.dart_head(d), d[1]
            assert (sets_or_error(canonical_order, p, v1, v2)
                    == sets_or_error(canonical_order_by_retracing, p, v1, v2)), d
            count += 1
    return count


class TestRetracingEquivalence:
    """canonical_order decides each removal by one face walk; the oracle
    removes, retraces the whole contour and restores.  Both must give the
    same sets and kinds."""

    def test_every_outer_face_and_base_dart(self):
        count = 0
        for n_target in (12, 20, 32):
            for seed in range(1000, 1005):
                plane = gen_corpus(seed=seed, n_target=n_target, profile="cubic3con")[0].plane
                count += same_orderings_on_every_outer_dart(plane)
        assert count > 800

    def test_two_connected_planes_with_the_entry_check_lifted(self, monkeypatch):
        # With an edge deleted, a removal can leave a cut vertex on the new
        # outer face, which a 3-connected input never does; the walk's
        # repeat and stop rules must still decide as the retrace does, and
        # the dead ends must name the same contours.
        monkeypatch.setattr(PlaneGraph, "is_triconnected", lambda self: True)
        count = 0
        for n_target in (12, 20):
            plane = gen_corpus(seed=1000, n_target=n_target, profile="cubic3con")[0].plane
            for e, ends in plane.edges.items():
                cut = plane.copy()
                del cut.edges[e]
                for v in ends:
                    cut.rotation[v].remove(e)
                if cut.separating_pairs():
                    count += same_orderings_on_every_outer_dart(cut)
        assert count > 1000

    def test_a_normalized_planarization_of_about_1000_vertices(self):
        g = gen_corpus(seed=3, n_target=1000, profile="cubic3con")[0]
        norm = normalize_embedding(g)
        plane, delta = canonical_order_on_real_edge(norm.plane)
        assert len(plane.vertices) > 900
        assert ([(s.kind, s.vertices) for s in delta.sets]
                == sets_or_error(canonical_order_by_retracing, plane, delta.v1, delta.v2))


class TestVerifyCanonical:
    def test_accepts_builder_output(self):
        plane = k4_plane()
        delta = canonical_order(plane, "a", "b")
        ok, problems = verify_canonical(plane, delta)
        assert ok and not problems

    def test_rejects_swapped_sets(self):
        plane = prism_plane()
        delta = canonical_order(plane, "x", "y")
        if len(delta.sets) >= 4:
            broken = CanonicalOrdering(
                sets=[delta.sets[0]] + [delta.sets[2], delta.sets[1]] + delta.sets[3:],
                v1="x",
                v2="y",
            )
            ok, problems = verify_canonical(plane, broken)
            assert not ok

    def test_rejects_singleton_without_successor(self):
        plane = k4_plane()
        delta = canonical_order(plane, "a", "b")
        # Move the last singleton to the middle: it then has no successor.
        if len(delta.sets) >= 3:
            sets = [delta.sets[0], delta.sets[-1]] + delta.sets[1:-1]
            broken = CanonicalOrdering(sets=sets, v1="a", v2="b")
            ok, problems = verify_canonical(plane, broken)
            assert not ok
            assert any("(v" in p or "(iii)" in p or "(iv)" in p for p in problems)


def internal_problems_by_scan(plane, delta):
    """Condition (iv)'s interior-pair messages by the per-vertex scan, on
    the prefixes that are 2-connected: for each interior u in order, the
    interior cut vertices of G_i - u."""
    adj = plane.adjacency()
    base = ordering._base_outer_dart(plane, delta.v1, delta.v2)
    placed, out = set(), []
    for i, cs in enumerate(delta.sets):
        placed.update(cs.vertices)
        sub = {v: adj[v] & placed for v in placed}
        if i == 0 or not graphutil.is_biconnected(sub):
            continue
        contour = plane.induced(placed).trace_face(base).vertices()
        interior = placed - set(contour)
        for u in sorted(interior):
            bad = graphutil.articulation_points(sub, {u}) & interior
            if bad:
                out.append(f"(iv) G_{i + 1} not internally 3-connected: interior pair ({u}, {min(bad)})")
                break
    return out


class TestInternalConnectivity:
    def test_interior_pairs_agree_with_the_per_vertex_scan(self):
        rng = random.Random(3)
        found = 0
        for n_target in (12, 20, 40):
            for seed in range(4):
                plane = gen_corpus(seed=seed, n_target=n_target, profile="cubic3con")[0].plane
                d = plane.outer_face().darts[0]
                delta = canonical_order(plane, plane.dart_head(d), d[1])
                for _ in range(20):
                    sets = list(delta.sets)
                    i, j = sorted(rng.sample(range(1, len(sets)), 2))
                    sets[i], sets[j] = sets[j], sets[i]
                    broken = CanonicalOrdering(sets=sets, v1=delta.v1, v2=delta.v2)
                    _, problems = verify_canonical(plane, broken)
                    if any(p.startswith("(iii) G_") for p in problems):
                        continue
                    internal = [p for p in problems if "internally" in p]
                    assert internal == internal_problems_by_scan(plane, broken), (n_target, seed)
                    found += bool(internal)
        assert found >= 20


class TestStOrder:
    def test_single_edge(self):
        adj = graphutil.adjacency(["s", "t"], [("s", "t")])
        st = st_order(adj, "s", "t")
        assert st.sigma == {"s": 1, "t": 2}

    def test_c4_ranks(self):
        adj = graphutil.adjacency(["s", "a", "t", "b"], [("s", "a"), ("a", "t"), ("t", "b"), ("b", "s")])
        st = st_order(adj, "s", "t")
        assert st.sigma["s"] == 1 and st.sigma["t"] == 4
        assert sorted([st.sigma["a"], st.sigma["b"]]) == [2, 3]

    def test_k4_interior_has_in_and_out(self):
        edges = [(a, b) for a in "abcd" for b in "abcd" if a < b]
        adj = graphutil.adjacency("abcd", edges)
        st = st_order(adj, "a", "d")
        for v in "bc":
            assert any(st.sigma[w] < st.sigma[v] for w in adj[v])
            assert any(st.sigma[w] > st.sigma[v] for w in adj[v])
