from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from types import SimpleNamespace

import pytest

from slopeforge import docio, families, graphutil
from slopeforge.families import (
    _fresh,
    _k4_plane_skeleton,
    gen_2reg,
    gen_3reg18,
    gen_corpus,
    gen_crossed_k4,
    gen_k4_embedded,
    gen_maxdeg,
    gen_prism,
)
from slopeforge.model import (
    EmbeddingError,
    Face,
    FaceRecord,
    PlaneGraph,
    connectivity,
    find_real_real_face,
)

from builders import chain_edges_3reg18, gen_fig_like


class TestK4:
    def test_counts(self):
        g = gen_k4_embedded()
        assert len(g.vertices) == 4
        assert len(g.edges) == 6

    def test_connectivity(self):
        assert connectivity(gen_k4_embedded()) == 3

    def test_outer_face_is_triangle(self):
        g = gen_k4_embedded()
        assert len(set(g.plane.outer_face().vertices())) == 3

    def test_no_crossings(self):
        assert gen_k4_embedded().crossings() == {}


class TestTwoRegular:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
    def test_sizes(self, k):
        g = gen_2reg(k)
        assert len(g.vertices) == 2 * k + 2
        assert len(g.edges) == 2 * k + 2
        assert all(d == 2 for d in g.degrees().values())

    def test_k5_structure(self):
        g = gen_2reg(5)
        assert len(g.vertices) == 12 and len(g.edges) == 12

    def test_connected_2(self):
        assert connectivity(gen_2reg(3)) == 2

    def test_crossing_pattern(self):
        g = gen_2reg(3)
        assert len(g.crossings()) == 3
        pairs = sorted(tuple(sorted(p)) for p in g.crossings().values())
        assert pairs == [("ea1", "eb1"), ("ea2", "eb2"), ("ea3", "eb3")]


class TestThreeReg18:
    def test_regular_and_connected(self):
        g = gen_3reg18()
        assert all(d == 3 for d in g.degrees().values())
        assert connectivity(g) == 3

    def test_chain_edges_present(self):
        g = gen_3reg18()
        have = {tuple(sorted(ab)) for ab in g.edges.values()}
        for a, b in chain_edges_3reg18():
            assert tuple(sorted((a, b))) in have, (a, b)

    def test_one_planarity(self):
        g = gen_3reg18()
        g.validate()
        assert len(g.crossings()) >= 3


class TestMaxDeg:
    def test_delta3_matches_base(self):
        g3 = gen_maxdeg(3)
        base = gen_3reg18()
        assert sorted(g3.vertices) == sorted(base.vertices)
        assert {tuple(sorted(ab)) for ab in g3.edges.values()} == {
            tuple(sorted(ab)) for ab in base.edges.values()
        }

    @pytest.mark.parametrize("delta", [3, 4, 5, 6, 7, 8])
    def test_degree_profile(self, delta):
        g = gen_maxdeg(delta)
        degs = g.degrees()
        specials = {f"{kind}{j}" for kind in "ace" for j in (1, 2, 3)}
        assert sum(1 for v, d in degs.items() if d == delta or delta == 3) >= 9
        for v, d in degs.items():
            assert d == (delta if v in specials else 3)

    @pytest.mark.parametrize("delta", [4, 6, 8])
    def test_added_edge_count(self, delta):
        base = gen_maxdeg(3)
        g = gen_maxdeg(delta)
        assert len(g.edges) - len(base.edges) == 9 * (delta - 3)

    def test_delta5_connectivity(self):
        assert connectivity(gen_maxdeg(5)) == 3

    def test_rejects_small_delta(self):
        with pytest.raises(ValueError):
            gen_maxdeg(2)


class TestCorpus:
    def test_deterministic(self):
        a = gen_corpus(seed=11, n_target=14, profile="cubic3con", count=3)
        b = gen_corpus(seed=11, n_target=14, profile="cubic3con", count=3)
        for g1, g2 in zip(a, b):
            assert g1.plane.edges == g2.plane.edges
            assert g1.plane.rotation == g2.plane.rotation

    def test_cubic3con_profile(self):
        for g in gen_corpus(seed=3, n_target=16, profile="cubic3con", count=4):
            assert g.is_cubic()
            assert connectivity(g) == 3
            assert graphutil.vertex_connectivity(g.plane.adjacency()) == 3
            find_real_real_face(g.plane)

    def test_target_size(self):
        for g in gen_corpus(seed=5, n_target=30, profile="cubic3con", count=2):
            assert 20 <= len(g.vertices) <= 36

    def test_subcubic_profile(self):
        for g in gen_corpus(seed=9, n_target=20, profile="subcubic", count=4):
            assert g.is_subcubic()
            assert graphutil.is_connected(g.abstract_adjacency())

    def test_subcubic_has_multiblock_instances(self):
        gs = gen_corpus(seed=2, n_target=24, profile="subcubic", count=6)
        best = 0
        for g in gs:
            comps = graphutil.bridges_and_components(g.abstract_adjacency())[1]
            best = max(best, len(comps))
        assert best >= 3

    def test_fig_like(self):
        g = gen_fig_like()
        assert g.is_cubic()
        assert len(g.crossings()) >= 1

    def test_prism_and_crossed_k4(self):
        assert gen_prism().is_cubic()
        g = gen_crossed_k4()
        assert len(g.crossings()) == 1

    def test_generated_bytes_are_pinned(self):
        """The generator's output bytes for six fixed calls."""
        h = hashlib.sha256()
        for profile, seeds in (("cubic3con", range(1000, 1004)), ("subcubic", range(1000, 1002))):
            for seed in seeds:
                g = gen_corpus(seed=seed, n_target=60, profile=profile, count=1)[0]
                h.update(docio.dumps(docio.graph_to_doc(g)).encode())
        assert h.hexdigest() == "17ab1ce478eaee1db566634e5fc9d6479d867c88befeab87e04e7c121ae7df67"

    def test_subcubic_bytes_are_pinned(self):
        """The subcubic bytes of the sizes the benchmark generates."""
        h = hashlib.sha256()
        for n_target in (20, 60, 120):
            for seed in range(1000, 1006):
                g = gen_corpus(seed=seed, n_target=n_target, profile="subcubic", count=1)[0]
                h.update(docio.dumps(docio.graph_to_doc(g)).encode())
        assert h.hexdigest() == "9be9654e177798ce1a0c0cda72f48b4ccb53336561b2555d35698e3419965a1d"

    def test_a_cubic3con_graph_traces_no_face_list_after_its_insertions(self, monkeypatch):
        """The finished plane is validated once, in full, and traces no
        face list: validate's Euler check counts face orbits, the record's
        faces decide 3-connectivity, the separating-pair search builds the
        one adjacency, and validate's original-edge map is the graph's."""
        calls = Counter()
        for name in ("validate", "faces", "separating_pairs", "original_edges", "adjacency"):
            method = getattr(PlaneGraph, name)
            monkeypatch.setattr(PlaneGraph, name,
                                lambda plane, name=name, method=method: calls.update([name]) or method(plane))
        for n_target in (20, 60, 200):
            for seed in range(1000, 1004):
                calls.clear()
                gen_corpus(seed=seed, n_target=n_target, profile="cubic3con", count=1)
                assert calls == {"validate": 1, "original_edges": 1, "adjacency": 1}, (n_target, seed)


def fresh_by_scan(plane, prefix: str) -> str:
    """The reference rule: try i = 0, 1, 2, ... against every id."""
    used = set(plane.vertices) | set(plane.edges) | set(plane.fragment_of.values())
    i = 0
    while any(key.startswith(f"{prefix}{i}") for key in used):
        i += 1
    return f"{prefix}{i}"


def key_set(vertices=(), edges=(), originals=()):
    return SimpleNamespace(
        vertices=list(vertices),
        edges={e: None for e in edges},
        fragment_of={f"frag{i}": o for i, o in enumerate(originals)},
    )


PREFIXES = ("v", "g", "x", "_x", "e")


class TestFreshIds:
    @pytest.mark.parametrize(
        "keys",
        [
            key_set(),
            key_set(vertices=["v1<", "v10$a", "v0", "v2x", "_x3"]),
            key_set(vertices=["v0", "v1", "v2"], edges=["v3<", "v4>"], originals=["v5"]),
            key_set(vertices=["v01", "v00", "v"], edges=["g0", "g1", "g12", "g2"]),
            key_set(vertices=["v123"], edges=["v9", "v", "x"], originals=["x0", "x1"]),
            key_set(vertices=["v\u0663", "v\u00b2", "v0\u0661", "x\uff10"]),
            key_set(vertices=[f"v{i}" for i in range(12)], edges=["g10", "g11", "g1"]),
            key_set(vertices=["_x0", "_x1", "_x10"], edges=["x0", "x2"], originals=["_x2"]),
        ],
    )
    def test_agrees_with_the_scan_on_hand_picked_ids(self, keys):
        for prefix in PREFIXES:
            assert _fresh(keys, prefix, {}) == fresh_by_scan(keys, prefix)

    def test_agrees_with_the_scan_on_random_ids(self):
        rng = random.Random(5)

        def random_id():
            digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 3)))
            return rng.choice(PREFIXES) + digits + rng.choice(("", "<", ">", "$a", "x", "\u0663"))

        for _ in range(300):
            pools = [[random_id() for _ in range(rng.randint(0, 30))] for _ in range(3)]
            # A run of numbered ids with holes, as the generator leaves them.
            run = rng.choice(PREFIXES)
            pools[0] += [f"{run}{i}" for i in range(rng.randint(0, 30)) if rng.random() < 0.9]
            keys = key_set(*pools)
            for prefix in PREFIXES:
                assert _fresh(keys, prefix, {}) == fresh_by_scan(keys, prefix)

    def test_agrees_with_the_scan_on_corpus_planes(self):
        for profile in ("cubic3con", "subcubic"):
            for g in gen_corpus(seed=17, n_target=40, profile=profile, count=2):
                for prefix in PREFIXES:
                    assert _fresh(g.plane, prefix, {}) == fresh_by_scan(g.plane, prefix)

    def test_counters_agree_with_the_scan_as_ids_are_handed_out(self):
        rng = random.Random(7)
        for _ in range(100):
            run = rng.choice(PREFIXES)
            keys = key_set(vertices=[f"{run}{i}" for i in range(rng.randint(0, 40))
                                     if rng.random() < 0.7]
                           + [f"{run}{rng.randint(0, 300)}<" for _ in range(rng.randint(0, 5))])
            counters = {}
            for _ in range(rng.randint(1, 60)):
                prefix = rng.choice((run, run, "g"))
                expected = fresh_by_scan(keys, prefix)
                assert _fresh(keys, prefix, counters) == expected
                keys.vertices.append(expected)

    def test_counters_move_past_handed_out_and_blocked_ids(self):
        keys = key_set(vertices=["v0", "v2", "v3", "v10"], edges=["v7<"])
        counters = {}
        got = [_fresh(keys, "v", counters) for _ in range(6)]
        assert got == ["v4", "v5", "v6", "v8", "v9", "v11"]
        assert keys == key_set(vertices=["v0", "v2", "v3", "v10"], edges=["v7<"])


class TestInsertions:
    def test_ids_and_planes_match_the_references_during_generation(self, monkeypatch):
        """Every id the generator hands out equals the scan's, and every
        insertion leaves a plane that passes validate(), edited in place."""
        calls = {"fresh": 0, "insertions": 0}
        real_fresh = families._fresh

        def checked_fresh(plane, prefix, counters):
            expected = fresh_by_scan(plane, prefix)
            assert real_fresh(plane, prefix, counters) == expected, "id differs from the scan's"
            calls["fresh"] += 1
            return expected

        def checked(grow):
            def run(record, counters, rng, crossing):
                plane = record.plane
                assert grow(record, counters, rng, crossing) is None
                assert record.plane is plane, "an insertion replaced the plane"
                plane.validate()
                calls["insertions"] += 1
            return run

        monkeypatch.setattr(families, "_fresh", checked_fresh)
        monkeypatch.setattr(families, "_grow", checked(families._grow))
        # The scan takes quadratic time, so the largest size gets few seeds.
        for n_target, seeds in ((20, range(1000, 1020)), (60, range(1000, 1010)),
                                (200, range(1000, 1003))):
            for seed in seeds:
                gen_corpus(seed=seed, n_target=n_target, profile="cubic3con", count=1)
        assert calls["insertions"] >= 400 and calls["fresh"] >= 3 * calls["insertions"]

    def test_a_lost_working_face_raises_out_of_gen_corpus(self, monkeypatch):
        """A failed insertion is a generator fault: gen_corpus neither
        retries the graph nor returns a smaller one."""
        def lost(plane, counters, new, face):
            raise EmbeddingError("expansion lost its working face")

        monkeypatch.setattr(families, "_join_by_edge", lost)
        with pytest.raises(EmbeddingError, match="lost its working face"):
            gen_corpus(seed=1000, n_target=60, profile="cubic3con")

    def test_no_face_admits_the_move_raises_out_of_gen_corpus(self, monkeypatch):
        """With no pair of darts to pick past the first move, the move
        that comes next raises, named: an edge pair or a crossing gadget."""
        real_pick = families._pick_two_edges

        def picky(plane, darts, rng):
            d1, d2 = real_pick(plane, darts, rng)
            return (None, None) if len(plane.vertices) > 4 else (d1, d2)

        monkeypatch.setattr(families, "_pick_two_edges", picky)
        messages = set()
        for seed in range(1000, 1040):
            with pytest.raises(EmbeddingError, match="no face admits") as info:
                gen_corpus(seed=seed, n_target=60, profile="cubic3con")
            messages.add(str(info.value))
        assert messages == {"no face admits an edge-pair insertion",
                            "no face admits a crossing gadget"}

    def test_a_failed_profile_check_raises_out_of_gen_corpus(self, monkeypatch):
        monkeypatch.setattr(families, "connectivity", lambda g: 2)
        with pytest.raises(EmbeddingError, match="corpus graph not 3-connected"):
            gen_corpus(seed=1000, n_target=60, profile="cubic3con")

    def test_checks_still_raise_under_python_O(self):
        """python -O strips assert statements; the profile checks and the
        1-bend drawer's geometry checks must raise all the same."""
        script = textwrap.dedent("""
            import pytest
            from slopeforge import families, onebend
            from slopeforge.geometry import Point
            from slopeforge.model import EmbeddingError
            assert False, "asserts are not stripped"
            families.connectivity = lambda g: 2
            with pytest.raises(EmbeddingError, match="corpus graph not 3-connected"):
                families.gen_corpus(seed=1000, n_target=60, profile="cubic3con")
            plane = families.gen_k4_embedded().plane
            gamma = onebend.Gamma(plane=plane, v1=plane.vertices[0], v2=plane.vertices[1])
            gamma.pos = {v: Point(0, 0) for v in plane.vertices}
            onebend.line_intersection = lambda *args: None
            with pytest.raises(onebend.OneBendError, match="base support lines"):
                onebend._redraw_base(gamma)
            print("ok")
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def face_with_by_scan(plane, verts):
    """The reference rule: the first face of plane.faces() that holds every
    vertex of verts."""
    for f in plane.faces():
        vs = set(f.vertices())
        if all(v in vs for v in verts):
            return f
    raise EmbeddingError("expansion lost its working face")


def four_cycle_plane():
    """The 4-cycle a-b-c-d.  faces() lists first the face of the dart
    (e0, a); the rotation at c starts with e1, whose dart (e1, c) lies on
    the other face."""
    edges = {"e0": ("a", "b"), "e1": ("b", "c"), "e2": ("c", "d"), "e3": ("d", "a")}
    rotation = {"a": ["e3", "e0"], "b": ["e0", "e1"], "c": ["e1", "e2"], "d": ["e2", "e3"]}
    return PlaneGraph(vertices=list("abcd"), real=set("abcd"), edges=edges,
                      rotation=rotation, fragment_of={})


class TestFaceWith:
    def test_agrees_with_the_scan_during_generation(self, monkeypatch):
        """The face each join gets is the first face of faces() that holds
        the new vertices."""
        calls = []

        def checked(join):
            def run(plane, counters, new, face):
                assert Face(face) == face_with_by_scan(plane, new), "working face differs from the scan's"
                calls.append(new)
                return join(plane, counters, new, face)
            return run

        for name in ("_join_by_edge", "_join_by_crossing"):
            monkeypatch.setattr(families, name, checked(getattr(families, name)))
        for n_target in (20, 60, 200):
            for seed in range(1000, 1020):
                gen_corpus(seed=seed, n_target=n_target, profile="cubic3con", count=1)
        assert len(calls) >= 1000

    def test_the_join_gets_the_picked_face_when_two_faces_hold_the_new_vertices(self, monkeypatch):
        """On the 4-cycle both faces hold every vertex, so a search for the
        face with the new vertices cannot tell them apart; the record's
        lookup gives the face the move picked, whichever faces() lists
        first."""
        picked, joined, first_by_scan = [], [], []
        real_pick, real_join = families._pick_two_edges, families._join_by_edge

        def pick(plane, darts, rng):
            d1, d2 = real_pick(plane, darts, rng)
            picked.append((darts, d1, d2))
            return d1, d2

        def join(plane, counters, new, face):
            assert all(v in f.vertices() for f in plane.faces() for v in new)
            joined.append(face)
            first_by_scan.append(Face(face) == face_with_by_scan(plane, new))
            real_join(plane, counters, new, face)

        monkeypatch.setattr(families, "_pick_two_edges", pick)
        monkeypatch.setattr(families, "_join_by_edge", join)
        for seed in range(10):
            record = FaceRecord.of(four_cycle_plane())
            families._grow(record, {}, random.Random(seed), False)
            record.plane.validate()
        for (darts, d1, d2), face in zip(picked, joined):
            kept = [d for d in darts if d[0] not in (d1[0], d2[0])]
            assert set(kept) <= set(face), "the join got a face the move did not pick"
        assert len(joined) == 10 and set(first_by_scan) == {True, False}


def rank(record, d) -> int:
    """The rank of the dart d = (e, tail): 2 * number(e), plus 1 when tail
    is not the first end of e."""
    e, tail = d
    return 2 * record.number[e] + (tail != record.plane.edges[e][0])


def with_face(record, face):
    """A copy of the record with the face it forgot before a join put
    back."""
    out = record.copy()
    key = rank(out, face[0])
    out.darts[key] = tuple(face)
    out.face_of.update((d, key) for d in face)
    return out


def must_match_faces(record):
    """The record's inner faces are faces() without the outer face, in the
    same order and from the same darts, and every dart maps to its face."""
    plane = record.plane
    outer = set(plane.outer_face().darts) if plane.outer is not None else set()
    assert record.inner_faces() == [f.darts for f in plane.faces() if set(f.darts) != outer], \
        "inner faces differ from faces()"
    assert record.face_of == {d: k for k, darts in record.darts.items() for d in darts}, \
        "a dart maps to a face that does not hold it"
    assert all(rank(record, darts[0]) == k for k, darts in record.darts.items()), \
        "a face key is not the rank of its first dart"


class TestFaceRecord:
    def test_matches_faces_at_every_insertion(self, monkeypatch):
        """The record agrees with faces() before and after every insertion,
        and after the subdivisions inside one, where the working face is
        read off the record."""
        calls = {"insertions": 0, "lookups": 0}
        growing = []

        def checked(grow):
            def run(record, counters, rng, crossing):
                must_match_faces(record)
                plane = record.plane
                growing.append(record)
                assert grow(record, counters, rng, crossing) is None
                assert record.plane is plane, "an insertion replaced the plane"
                must_match_faces(record)
                calls["insertions"] += 1
            return run

        def checked_join(join):
            def run(plane, counters, new, face):
                must_match_faces(with_face(growing[-1], face))
                assert Face(face) == face_with_by_scan(plane, new), "working face differs from the scan's"
                calls["lookups"] += 1
                return join(plane, counters, new, face)
            return run

        monkeypatch.setattr(families, "_grow", checked(families._grow))
        for name in ("_join_by_edge", "_join_by_crossing"):
            monkeypatch.setattr(families, name, checked_join(getattr(families, name)))
        for n_target, seeds in ((20, range(1000, 1020)), (60, range(1000, 1010)),
                                (200, range(1000, 1003))):
            for seed in seeds:
                gen_corpus(seed=seed, n_target=n_target, profile="cubic3con", count=1)
        assert calls["insertions"] >= 400 and calls["lookups"] == calls["insertions"]

    def test_generation_leaves_the_shared_skeleton_alone(self):
        # n_target 4 leaves the skeleton as it is; the caller may change
        # the graph it gets back.
        for n_target in (4, 12, 40):
            for g in gen_corpus(seed=1, n_target=n_target, profile="cubic3con", count=2):
                g.plane.rotation[g.plane.vertices[0]].reverse()
                g.plane.edges.clear()
        assert families._K4_SKELETON == FaceRecord.of(_k4_plane_skeleton())
