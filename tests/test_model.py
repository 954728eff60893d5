from __future__ import annotations

import pytest

from slopeforge.model import (
    EmbeddedGraph,
    EmbeddingError,
    PlaneGraph,
    build_plane_graph,
    connectivity,
    faces,
    find_real_real_face,
    planarize,
)


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
        assert len(faces(triangle())) == 2

    def test_k4_has_four_faces(self):
        assert len(faces(k4_plane())) == 4

    def test_one_crossing_k4_planarization_counts(self):
        p = k4_one_crossing()
        assert len(p.vertices) == 5
        assert len(p.edges) == 8
        assert len(faces(p)) == 5

    def test_outer_face_traced(self):
        p = k4_one_crossing()
        outer = p.outer_face()
        assert sorted(set(outer.vertices())) == ["1", "2", "3", "4"]


class TestEmbeddedGraph:
    def test_crossing_pairs(self):
        g = EmbeddedGraph.from_plane(k4_one_crossing())
        assert g.crossings() == {"_x0": ("e13", "e24")}

    def test_original_edges(self):
        g = EmbeddedGraph.from_plane(k4_one_crossing())
        assert set(g.edges) == {"e12", "e23", "e34", "e14", "e13", "e24"}
        assert sorted(g.edges["e13"]) == ["1", "3"]

    def test_planarize_is_identity_on_planarization(self):
        g = EmbeddedGraph.from_plane(k4_one_crossing())
        p = planarize(g)
        assert p is g.plane

    def test_abstract_graph_preserved_through_fragments(self):
        g = EmbeddedGraph.from_plane(k4_one_crossing())
        assert g.is_cubic()
        assert connectivity(g) == 3

    def test_crossing_free_planarization(self):
        g = EmbeddedGraph.from_plane(k4_plane())
        assert g.crossings() == {}
        assert planarize(g).dummies() == []


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
