from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from slopeforge import graphutil as gu
from slopeforge.drawing import join_fragments
from slopeforge.families import (
    _check_planarization,
    gen_2reg,
    gen_3reg18,
    gen_corpus,
    gen_crossed_k4,
    gen_k4_embedded,
    gen_maxdeg,
    gen_prism,
)
from slopeforge.geometry import Point
from slopeforge.model import (
    EmbeddedGraph,
    EmbeddingError,
    Face,
    FaceRecord,
    PlaneGraph,
    connectivity,
    cyclic_key,
    find_real_real_face,
)
from slopeforge.reembed import normalize_embedding
from slopeforge.verify import embedding_from_geometry

from adversarial import adversarial_suite
from builders import build_plane_graph, gen_fig_like
from oracles import validate_by_tracing


def triangle() -> PlaneGraph:
    return build_plane_graph(
        real_vertices=["a", "b", "c"],
        dummy_vertices=[],
        edges={"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a")},
        rotation={"a": ["ab", "ca"], "b": ["bc", "ab"], "c": ["ca", "bc"]},
        fragment_of={},
        outer_dart=("ab", "b"),
    )


def k4_plane() -> PlaneGraph:
    # Planar K4: d inside triangle (a, b, c); rotations ccw from a geometric
    # placement a=(0,0), b=(4,0), c=(2,3), d=(2,1).
    return build_plane_graph(
        real_vertices=["a", "b", "c", "d"],
        dummy_vertices=[],
        edges={
            "ab": ("a", "b"),
            "ac": ("a", "c"),
            "ad": ("a", "d"),
            "bc": ("b", "c"),
            "bd": ("b", "d"),
            "cd": ("c", "d"),
        },
        rotation={
            "a": ["ab", "ad", "ac"],
            "b": ["bc", "bd", "ab"],
            "c": ["ac", "cd", "bc"],
            "d": ["cd", "ad", "bd"],
        },
        fragment_of={},
        outer_dart=("ab", "b"),
    )


def k4_one_crossing() -> PlaneGraph:
    # Square 1234 with crossing diagonals (1,3) x (2,4) at dummy _x0.
    return build_plane_graph(
        real_vertices=["1", "2", "3", "4"],
        dummy_vertices=["_x0"],
        edges={
            "e12": ("1", "2"),
            "e23": ("2", "3"),
            "e34": ("3", "4"),
            "e14": ("1", "4"),
            "e13$a": ("1", "_x0"),
            "e13$b": ("_x0", "3"),
            "e24$a": ("2", "_x0"),
            "e24$b": ("_x0", "4"),
        },
        rotation={
            "1": ["e12", "e13$a", "e14"],
            "2": ["e23", "e24$a", "e12"],
            "3": ["e34", "e13$b", "e23"],
            "4": ["e34", "e14", "e24$b"],
            "_x0": ["e13$b", "e24$b", "e13$a", "e24$a"],
        },
        fragment_of={"e13$a": "e13", "e13$b": "e13", "e24$a": "e24", "e24$b": "e24"},
        outer_dart=("e12", "2"),
    )


class TestFaces:
    def test_triangle_has_two_faces(self):
        assert len(triangle().faces()) == 2

    def test_k4_has_four_faces(self):
        assert len(k4_plane().faces()) == 4

    def test_one_crossing_k4_planarization_counts(self):
        p = k4_one_crossing()
        assert len(p.vertices) == 5
        assert len(p.edges) == 8
        assert len(p.faces()) == 5

    def test_outer_face_traced(self):
        p = k4_one_crossing()
        outer = p.outer_face()
        assert sorted(set(outer.vertices())) == ["1", "2", "3", "4"]


def trace_by_next_in_face(plane: PlaneGraph, start) -> Face:
    """The reference walk: next_in_face from start until it comes back."""
    darts = [start]
    d = plane.next_in_face(start)
    while d != start:
        darts.append(d)
        d = plane.next_in_face(d)
    return Face(tuple(darts))


def validation_outcome(validate, plane: PlaneGraph):
    """What validate does on a copy of plane: the error's type and message,
    or the returned dict as a list, so its key order counts."""
    plane = plane.copy()
    try:
        return "ok", list(validate(plane).items())
    except (EmbeddingError, KeyError) as exc:
        return type(exc).__name__, str(exc)


def _swap_first_two(items: list) -> None:
    items[0], items[1] = items[1], items[0]


def _mutations(plane: PlaneGraph):
    """(name, mutated copy of plane): one fault each, at fixed places."""
    def changed(edit):
        p = plane.copy()
        edit(p)
        return p

    verts, edges = plane.vertices, list(plane.edges.items())
    mid = len(verts) // 2
    e0, (a0, b0) = edges[len(edges) // 3]
    yield "duplicate vertex", changed(lambda p: p.vertices.insert(mid, verts[1]))
    yield "unknown real flag", changed(lambda p: p.real.add("zz"))
    yield "self-loop", changed(lambda p: p.edges.update({e0: (a0, a0)}))
    yield "unknown endpoint", changed(lambda p: p.edges.update({e0: (a0, "zz")}))
    yield "multi-edge", changed(lambda p: p.edges.update({"zz": (b0, a0)}))
    v3 = next(v for v in verts[mid:] + verts[:mid] if len(plane.rotation[v]) >= 3)
    yield "rotation entry dropped", changed(lambda p: p.rotation[v3].pop(1))
    yield "rotation entries swapped", changed(lambda p: _swap_first_two(p.rotation[v3]))
    yield "no rotation", changed(lambda p: p.rotation.pop(verts[-1]))
    dummies = plane.dummies()
    if dummies:
        x = dummies[len(dummies) // 2]
        yield "broken alternation", changed(lambda p: _swap_first_two(p.rotation[x]))
        frag = plane.rotation[x][0]
        plain = next(e for e, _ in edges if e not in plane.fragment_of)
        yield "1 fragment", changed(lambda p: p.fragment_of.update({plain: "zz"}))
        yield "3 fragments", changed(lambda p: p.fragment_of.update({plain: plane.fragment_of[frag]}))
        yield "dummy made real", changed(lambda p: p.real.add(x))
    if plane.outer is not None:
        yield "outer face from no dart", changed(lambda p: setattr(p, "outer", ("zz", a0)))
        yield "outer face of the wrong tail", changed(lambda p: setattr(p, "outer", (e0, "zz")))


class TestValidateOracle:
    """PlaneGraph.validate counts face orbits; validate_by_tracing traces
    the faces() list.  Both give the same message or the same dict, key
    order included."""

    @staticmethod
    def mutation_planes():
        """20 cubic3con and 10 subcubic planes."""
        planes = []
        for profile, count in (("cubic3con", 20), ("subcubic", 10)):
            for i in range(count):
                g = gen_corpus(seed=2000 + i, n_target=(20, 60)[i % 2], profile=profile)[0]
                planes.append(g.plane)
        return planes

    def test_the_same_result_on_every_corpus_and_adversarial_plane(self):
        planes = [(name, plane) for name, plane in face_walk_planes()]
        planes += [(name, g.plane) for name, g in adversarial_suite()]
        planes += [(f"normalized {name}", normalize_embedding(g).plane) for name, g in adversarial_suite()]
        planes += [("fig-like", gen_fig_like().plane), ("k4 crossing", k4_one_crossing())]
        planes += [(f"mutation base {i}", p) for i, p in enumerate(self.mutation_planes())]
        for name, plane in planes:
            want = validation_outcome(validate_by_tracing, plane)
            assert want[0] == "ok", name
            assert validation_outcome(PlaneGraph.validate, plane) == want, name
        assert sum(1 for _, p in planes if p.outer is not None) >= 20
        assert sum(1 for _, p in planes if p.dummies()) >= 20

    def test_the_same_result_on_every_mutation(self):
        results, valid = Counter(), Counter()
        planes = self.mutation_planes()
        for plane in planes:
            for kind, mutated in _mutations(plane):
                want = validation_outcome(validate_by_tracing, mutated)
                assert validation_outcome(PlaneGraph.validate, mutated) == want, kind
                if want[0] == "ok":
                    valid[kind] += 1
                else:
                    results[want[0], want[1].split(" ")[0]] += 1
        assert sum(1 for p in planes if p.dummies()) >= 20
        # Two swapped rotation entries can leave Euler's formula true and
        # the outer face record a dart: then the plane is a valid one.
        assert valid == {"rotation entries swapped": 6}, valid
        # Every check fails on some mutation.  An outer face record that is
        # no dart raises the trace's KeyError on both sides.
        assert {start for _, start in results} == {
            "duplicate", "real", "self-loop", "edge", "multi-edge", "no", "rotation", "original",
            "fragment", "Euler", "'zz'", "'zz"}, results


def face_walk_planes():
    """(name, plane): generated planes of both profiles, the fixed
    families and the normalized braids."""
    for profile, sizes in (("cubic3con", (20, 60, 200)), ("subcubic", (20, 60, 120))):
        for n_target in sizes:
            for seed in range(1000, 1003):
                yield f"{profile} {n_target}/{seed}", gen_corpus(seed, n_target, profile)[0].plane
    fixed = [("k4", gen_k4_embedded()), ("prism", gen_prism()), ("crossedk4", gen_crossed_k4()),
             ("3reg18", gen_3reg18())]
    fixed += [(f"maxdeg {delta}", gen_maxdeg(delta)) for delta in (4, 6, 8)]
    fixed += [(f"2reg {k}", gen_2reg(k)) for k in (1, 3, 8)]
    for name, g in fixed:
        yield name, g.plane
    for k in (1, 2, 5, 16):
        yield f"normalized 2reg {k}", normalize_embedding(gen_2reg(k)).plane


class TestFaceWalk:
    def test_matches_the_next_in_face_walk_from_every_dart(self):
        names = []
        for name, plane in face_walk_planes():
            # Edge order, and the first end of each edge before the second.
            darts = [(e, tail) for e, ab in plane.edges.items() for tail in ab]
            for d in darts:
                assert plane.trace_face(d) == trace_by_next_in_face(plane, d), (name, d)
            seen = set()
            reference = []
            for d in darts:
                if d not in seen:
                    reference.append(trace_by_next_in_face(plane, d))
                    seen.update(reference[-1].darts)
            assert plane.faces() == reference, name
            names.append(name)
        assert len(names) == 32

    def test_a_rotation_listing_an_edge_twice_does_not_close(self):
        # bd is listed twice at b: arrivals along bc and ab both leave
        # along bd, and none leaves along ab, so the walk from (ab, b)
        # never comes back to it.
        p = k4_plane()
        p.rotation["b"] = ["bc", "bd", "ab", "bd"]
        with pytest.raises(EmbeddingError, match="^face trace does not close; rotation system broken$"):
            p.trace_face(("ab", "b"))


class TestJoinFragments:
    """e13 of k4_one_crossing runs 1 -> _x0 -> 3 with a bend on each
    fragment: (0, 0) -> (2, 0) -> (2, 2) at the dummy -> (4, 2) -> (4, 4)."""

    A = [Point(0, 0), Point(2, 0), Point(2, 2)]
    B = [Point(2, 2), Point(4, 2), Point(4, 4)]

    @pytest.mark.parametrize("flip_a, flip_b", itertools.product([False, True], repeat=2))
    def test_either_direction_of_each_fragment_joins_alike(self, flip_a, flip_b):
        lines = {"e13$a": self.A[::-1] if flip_a else list(self.A),
                 "e13$b": self.B[::-1] if flip_b else list(self.B)}
        assert join_fragments(k4_one_crossing(), lines, "e13") == self.A + self.B[1:]

    def test_a_single_drawn_piece_is_copied(self):
        plane = k4_one_crossing()
        lines = {"e13$b": list(self.B), "e12": [Point(0, 0), Point(4, 0)]}
        for orig, piece in (("e13", "e13$b"), ("e12", "e12")):
            got = join_fragments(plane, lines, orig)
            assert got == lines[piece] and got is not lines[piece]

    def test_nothing_drawn_is_none(self):
        plane = k4_one_crossing()
        assert join_fragments(plane, {"e24$a": [Point(4, 0), Point(2, 2)]}, "e13") is None
        assert join_fragments(plane, {}, "e12") is None

    def test_fragments_that_do_not_meet_raise(self):
        lines = {"e13$a": list(self.A), "e13$b": [Point(3, 3), Point(4, 4)]}
        with pytest.raises(ValueError, match="fragments of e13 do not meet at their crossing"):
            join_fragments(k4_one_crossing(), lines, "e13")


class TestCyclicKey:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_equal_keys_exactly_for_rotations(self, n):
        perms = list(itertools.permutations("abcde"[:n]))
        for a in perms:
            rotations = {a[i:] + a[:i] for i in range(n)}
            for b in perms:
                assert (cyclic_key(list(a)) == cyclic_key(list(b))) == (b in rotations)


class TestEmbeddedGraph:
    def test_crossing_pairs(self):
        g = EmbeddedGraph.from_plane(k4_one_crossing())
        assert g.crossings() == {"_x0": ("e13", "e24")}

    def test_original_edges(self):
        g = EmbeddedGraph.from_plane(k4_one_crossing())
        assert set(g.edges) == {"e12", "e23", "e34", "e14", "e13", "e24"}
        assert sorted(g.edges["e13"]) == ["1", "3"]

    def test_planarize_is_identity_on_planarization(self):
        p = k4_one_crossing()
        g = EmbeddedGraph.from_plane(p)
        g.validate()
        assert p is g.plane

    def test_abstract_graph_preserved_through_fragments(self):
        g = EmbeddedGraph.from_plane(k4_one_crossing())
        assert g.is_cubic()
        assert connectivity(g) == 3

    def test_crossing_free_planarization(self):
        g = EmbeddedGraph.from_plane(k4_plane())
        assert g.crossings() == {}
        g.validate()
        assert g.plane.dummies() == []

    def test_from_plane_builds_the_original_edges_once(self, monkeypatch):
        plane = k4_one_crossing()
        calls = []
        original_edges = PlaneGraph.original_edges
        monkeypatch.setattr(PlaneGraph, "original_edges",
                            lambda plane: calls.append(1) or original_edges(plane))
        g = EmbeddedGraph.from_plane(plane)
        assert len(calls) == 1
        assert g.edges == original_edges(plane)


class TestValidation:
    def test_dummy_degree_must_be_four(self):
        p = k4_one_crossing()
        p.rotation["_x0"] = p.rotation["_x0"][:3]
        p.edges.pop("e24$a")
        p.rotation["2"].remove("e24$a")
        with pytest.raises(EmbeddingError):
            p.validate()

    def test_dummy_rotation_must_alternate(self):
        p = k4_one_crossing()
        r = p.rotation["_x0"]
        p.rotation["_x0"] = [r[0], r[2], r[1], r[3]]
        with pytest.raises(EmbeddingError):
            p.validate()

    def test_euler_catches_broken_rotation(self):
        p = k4_plane()
        p.rotation["a"] = ["ab", "ac", "ad"]
        with pytest.raises(EmbeddingError):
            p.validate()

    def test_edgeless_vertices_count_one_face_each(self):
        PlaneGraph(vertices=["a"], real={"a"}, edges={}, rotation={"a": []}, fragment_of={}).validate()
        p = k4_plane()
        p.vertices.append("z")
        p.real.add("z")
        p.rotation["z"] = []
        p.validate()
        # A broken rotation is still caught next to an isolated vertex.
        p.rotation["a"] = ["ab", "ac", "ad"]
        with pytest.raises(EmbeddingError, match="^Euler check failed: V=5 E=6 F=3 C=2"):
            p.validate()

    def test_no_dummy_dummy_edges(self):
        p = k4_one_crossing()
        p.real.discard("4")
        with pytest.raises(EmbeddingError):
            p.validate()

    def test_rotation_missing_an_incident_edge(self):
        p = k4_plane()
        p.rotation["c"] = ["ac", "cd"]
        with pytest.raises(EmbeddingError, match="^rotation at c does not list its incident edges$"):
            p.validate()

    def test_rotation_listing_a_foreign_edge(self):
        p = k4_plane()
        p.rotation["d"] = ["cd", "ad", "bd", "ab"]
        with pytest.raises(EmbeddingError, match="^rotation at d does not list its incident edges$"):
            p.validate()

    def test_rotation_listing_an_edge_twice(self):
        p = k4_plane()
        p.rotation["b"] = ["bc", "bd", "ab", "bd"]
        with pytest.raises(EmbeddingError, match="^rotation at b does not list its incident edges$"):
            p.validate()

    def test_first_bad_rotation_is_reported(self):
        p = k4_plane()
        p.rotation["d"] = ["cd", "ad"]
        p.rotation["b"] = ["bc", "bd", "ab", "ab"]
        with pytest.raises(EmbeddingError, match="^rotation at b "):
            p.validate()

    def test_original_edge_with_one_fragment(self):
        p = k4_one_crossing()
        p.fragment_of["e12"] = "e12"
        with pytest.raises(EmbeddingError, match="^original edge e12 split into 1 fragments$"):
            p.validate()

    def test_original_edge_with_three_fragments(self):
        p = k4_one_crossing()
        p.fragment_of["e12"] = "e13"
        with pytest.raises(EmbeddingError, match="^original edge e13 split into 3 fragments$"):
            p.validate()

    def test_fragments_that_are_not_edges_of_the_plane(self):
        p = k4_one_crossing()
        p.fragment_of.update({"bogus1": "e12", "bogus2": "e12"})
        with pytest.raises(EmbeddingError, match="^fragment bogus1 is not an edge with exactly one dummy end$"):
            p.validate()

    def test_a_fragment_with_no_dummy_end(self):
        p = k4_one_crossing()
        p.fragment_of.update({"e12": "e99", "e23": "e99"})
        with pytest.raises(EmbeddingError, match="^fragment e12 is not an edge with exactly one dummy end$"):
            p.validate()


class TestFindRealRealFace:
    def test_crossing_free_graph(self):
        face, (v1, v2), e = find_real_real_face(k4_plane())
        assert e in k4_plane().edges

    def test_one_crossing_k4(self):
        p = k4_one_crossing()
        face, (v1, v2), e = find_real_real_face(p)
        assert not p.is_dummy(v1) and not p.is_dummy(v2)
        assert p.original_edge_of(e) == e

    def test_connectivity_examples(self):
        assert connectivity(EmbeddedGraph.from_plane(k4_plane())) == 3


def triconnected_by_scan(plane: PlaneGraph) -> bool:
    """The reference rule: at least 4 vertices, connected, no cut vertex,
    and no v such that G - v has a cut vertex."""
    adj = plane.adjacency()
    return (len(adj) >= 4 and gu.is_connected(adj) and not gu.articulation_points(adj)
            and not any(gu.articulation_points(adj, removed={v}) for v in adj))


def drawn_plane(pos, pairs) -> PlaneGraph:
    points = {v: Point(Fraction(x), Fraction(y)) for v, (x, y) in pos.items()}
    return embedding_from_geometry(points, {a + b: (a, b) for a, b in pairs}).plane


def delete_edges(plane: PlaneGraph, edges) -> PlaneGraph:
    p = plane.copy()
    for e in edges:
        a, b = p.edges.pop(e)
        p.rotation[a].remove(e)
        p.rotation[b].remove(e)
    return p


def smoothed(plane: PlaneGraph) -> PlaneGraph:
    """Replace each path a - v - b through a degree-2 vertex v (a != b) by one
    edge a - b, in place in the rotations; multi-edges may result."""
    p = plane.copy()
    changed = True
    while changed:
        changed = False
        for v in list(p.vertices):
            if len(p.rotation[v]) != 2:
                continue
            e1, e2 = p.rotation[v]
            a, b = p.other_end(e1, v), p.other_end(e2, v)
            if a == b:
                continue
            p.edges[e1] = (a, b)
            del p.edges[e2]
            p.rotation[b][p.rotation[b].index(e2)] = e1
            p.vertices.remove(v)
            p.real.discard(v)
            del p.rotation[v]
            changed = True
    return p


def two_k4s_sharing_a_vertex() -> PlaneGraph:
    """The outer face passes the shared vertex c twice."""
    pos = {"c": (0, 0), "a": (-6, 0), "b": (-3, 5), "d": (-3, 1),
           "p": (6, 0), "q": (3, 5), "r": (3, 1)}
    return drawn_plane(pos, [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                             ("c", "d"), ("p", "q"), ("p", "c"), ("p", "r"), ("q", "c"),
                             ("q", "r"), ("c", "r")])


def two_diamonds() -> PlaneGraph:
    """Two copies of K4 minus the edge uv, glued at u and v.  Every face is a
    cycle and minimum degree is 3, but the face u-p-v-r and the outer face
    u-q-v-s share exactly u and v, which are not adjacent."""
    pos = {"u": (0, 0), "v": (0, 6), "p": (-1, 3), "q": (-3, 3), "r": (1, 3), "s": (3, 3)}
    return drawn_plane(pos, [("u", "p"), ("u", "q"), ("v", "p"), ("v", "q"), ("p", "q"),
                             ("u", "r"), ("u", "s"), ("v", "r"), ("v", "s"), ("r", "s")])


@functools.lru_cache(maxsize=None)
def planarization_cases():
    """(n_target, seed, kind, plane): cubic3con planarizations, whole and
    with 1, 2 or 3 edges deleted, with and without smoothing."""
    rng = random.Random(29)
    out = []
    for n_target in (12, 20, 40, 60):
        for seed in range(2000, 2015):
            plane = gen_corpus(seed=seed, n_target=n_target, profile="cubic3con")[0].plane
            out.append((n_target, seed, "whole", plane))
            for k in (1, 2, 3):
                cut = delete_edges(plane, rng.sample(sorted(plane.edges), k))
                out += [(n_target, seed, "deleted", cut), (n_target, seed, "smoothed", smoothed(cut))]
    return out


def separating_pairs_by_scan(plane: PlaneGraph):
    """The reference: each v paired with every cut vertex of G - v."""
    adj = plane.adjacency()
    return sorted({tuple(sorted((v, w))) for v in adj for w in gu.articulation_points(adj, {v})})


class TestTriconnected:
    def test_agrees_with_the_per_vertex_scan_on_planarizations(self):
        outcomes = Counter()
        for n_target, seed, kind, p in planarization_cases():
            expected = triconnected_by_scan(p)
            assert p.is_triconnected() == expected, (n_target, seed, kind)
            outcomes[kind, expected] += 1
        assert sum(outcomes.values()) >= 400
        assert outcomes["whole", True] == 60 and outcomes["deleted", False] == 180
        assert outcomes["smoothed", True] and outcomes["smoothed", False], outcomes

    def test_a_face_with_a_repeated_vertex(self):
        p = two_k4s_sharing_a_vertex()
        assert any(f.vertices().count("c") == 2 for f in p.faces())
        assert min(p.degree(v) for v in p.vertices) == 3
        assert not p.is_triconnected() and not triconnected_by_scan(p)

    def test_a_path_whose_one_face_repeats_vertices(self):
        # The only face pair is the face with itself, which is also the two
        # sides of every edge; only the cycle rule rejects it.
        p = drawn_plane({"a": (0, 0), "b": (1, 0), "c": (2, 1), "d": (3, 1)},
                        [("a", "b"), ("b", "c"), ("c", "d")])
        assert len(p.faces()) == 1
        assert not p.is_triconnected() and not triconnected_by_scan(p)

    def test_two_faces_sharing_two_non_adjacent_vertices(self):
        p = two_diamonds()
        faces_ = [set(f.vertices()) for f in p.faces()]
        assert all(len(vs) == len(f) for vs, f in zip(faces_, p.faces()))
        assert {"u", "p", "v", "r"} in faces_ and {"u", "q", "v", "s"} in faces_
        assert "v" not in p.neighbors("u")
        assert not p.is_triconnected() and not triconnected_by_scan(p)

    @pytest.mark.parametrize("make", [k4_plane, k4_one_crossing])
    def test_three_connected_planes(self, make):
        assert make().is_triconnected()

    def test_small_and_non_simple_graphs_take_the_scan(self):
        assert not triangle().is_triconnected()
        p = k4_plane()
        p.edges["ab2"] = ("a", "b")
        p.rotation["a"].insert(1, "ab2")
        p.rotation["b"].insert(2, "ab2")
        assert p.is_triconnected()

    def test_the_face_record_agrees_on_planarizations(self):
        for n_target, seed, kind, p in planarization_cases():
            assert FaceRecord.of(p).is_triconnected() == p.is_triconnected(), (n_target, seed, kind)

    def test_the_generator_check_rejects_a_record_with_a_separating_pair(self):
        p = two_diamonds()
        assert gu.is_biconnected(p.adjacency()) and p.separating_pairs() == [("u", "v")]
        with pytest.raises(EmbeddingError, match="^planarization not 3-connected$"):
            _check_planarization(FaceRecord.of(p))
        _check_planarization(FaceRecord.of(k4_one_crossing()))

    def test_rotations_that_are_not_plane_take_the_scan(self):
        p = k4_plane()
        p.rotation["a"].reverse()
        assert len(p.vertices) - len(p.edges) + len(p.faces()) != 2
        assert p.is_triconnected()


class TestSeparatingPairs:
    def test_agrees_with_the_per_vertex_scan_on_2_connected_planarizations(self):
        outcomes = Counter()
        for n_target, seed, kind, p in planarization_cases():
            adj = p.adjacency()
            simple = sum(len(ns) for ns in adj.values()) == 2 * len(p.edges)
            if not simple or not gu.is_biconnected(adj):
                assert p.separating_pairs() is None, (n_target, seed, kind)
                continue
            pairs = p.separating_pairs()
            assert pairs == separating_pairs_by_scan(p), (n_target, seed, kind)
            outcomes[kind, bool(pairs)] += 1
        assert outcomes["whole", False] == 60
        assert outcomes["deleted", True] >= 100, outcomes
        assert outcomes["smoothed", True] and outcomes["smoothed", False], outcomes

    def test_hand_cases(self):
        assert two_diamonds().separating_pairs() == [("u", "v")]
        assert k4_plane().separating_pairs() == []
        assert two_k4s_sharing_a_vertex().separating_pairs() is None
        # Every two vertices of a cycle that are not adjacent separate it.
        square = drawn_plane({"a": (0, 0), "b": (1, 0), "c": (1, 1), "d": (0, 1)},
                             [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        assert square.separating_pairs() == [("a", "c"), ("b", "d")]
