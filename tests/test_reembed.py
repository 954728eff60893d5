from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from slopeforge import graphutil, reembed
from slopeforge.families import gen_2reg, gen_corpus, gen_crossed_k4, gen_k4_embedded
from slopeforge.geometry import Point
from slopeforge.model import EmbeddedGraph, PlaneGraph, connectivity
from slopeforge.reembed import (
    ReembedError,
    dummy_two_cuts,
    normalize_embedding,
)
from slopeforge.verify import embedding_from_geometry

from adversarial import adversarial_suite, crossed_prism, two_blocks_crossed, two_crossing_edges
from oracles import (
    count_dummy_cutvertices,
    normalize_by_retracing,
    normalized_reembedding_exists,
    refresh_outer_after_surgery,
    uncross_by_retracing,
)


class TestCountDummyCutvertices:
    def test_normalized_graph_has_none(self):
        assert count_dummy_cutvertices(gen_crossed_k4().plane) == 0

    def test_two_triangles_sharing_a_crossing(self):
        g = two_blocks_crossed(3, 3)
        assert count_dummy_cutvertices(g.plane) == 1

    def test_crossed_prism_has_dummy_two_cut(self):
        g = crossed_prism()
        assert count_dummy_cutvertices(g.plane) == 0
        assert dummy_two_cuts(g.plane)


def dummy_two_cuts_by_scan(plane):
    """The reference: for each dummy x, the cut vertices of G - x."""
    adj = plane.adjacency()
    return [(w, x) for x in plane.dummies()
            for w in sorted(graphutil.articulation_points(adj, removed={x}))]


class TestDummyTwoCuts:
    def test_agrees_with_the_per_dummy_scan_during_normalization(self, monkeypatch):
        seen = []

        def checked(plane):
            got = dummy_two_cuts(plane)
            assert got == dummy_two_cuts_by_scan(plane)
            seen.append(bool(got))
            return got

        monkeypatch.setattr(reembed, "dummy_two_cuts", checked)
        graphs = [g for _, g in adversarial_suite()]
        for n_target in (12, 20, 40):
            graphs += gen_corpus(seed=50, n_target=n_target, profile="cubic3con", count=4)
        for g in graphs:
            normalize_embedding(g)
        assert True in seen and seen.count(False) >= 12, seen

    def test_a_planarization_with_a_cut_vertex_is_refused(self):
        with pytest.raises(ReembedError):
            dummy_two_cuts(two_blocks_crossed(3, 3).plane)


class TestNormalize:
    def test_idempotent_on_normalized_input(self):
        g = gen_crossed_k4()
        out = normalize_embedding(g)
        assert len(out.crossings()) == 1
        assert count_dummy_cutvertices(out.plane) == 0

    def test_a_normalization_without_surgery_validates_the_plane_once(self, monkeypatch):
        g = gen_crossed_k4()
        calls = []
        validate = PlaneGraph.validate
        monkeypatch.setattr(PlaneGraph, "validate", lambda plane: calls.append(1) or validate(plane))
        normalize_embedding(g)
        assert len(calls) == 1

    def test_64_uncrossings_validate_the_plane_once_and_trace_no_face_list(self, monkeypatch):
        g = gen_2reg(64)
        calls = Counter()
        for name in ("validate", "faces"):
            method = getattr(PlaneGraph, name)
            monkeypatch.setattr(PlaneGraph, name,
                                lambda plane, name=name, method=method: calls.update([name]) or method(plane))
        out = normalize_embedding(g)
        assert (len(g.crossings()), len(out.crossings())) == (64, 0)
        # The validation's Euler check counts face orbits: no faces() call.
        assert calls == {"validate": 1}

    def test_the_outer_face_is_the_retrace_after_every_uncrossing(self, monkeypatch):
        """After every uncrossing of gen_2reg(k), k = 8 ... 64, of the
        adversarial planes and of the flips they take, the outer face
        record equals the retrace's (oracles.refresh_outer_after_surgery),
        and no face was traced to get it.  The crossing of two lone edges
        has an outer face all on fragments, and falls back."""
        uncross = reembed._uncross
        trace_face = PlaneGraph.trace_face
        traced = []
        monkeypatch.setattr(PlaneGraph, "trace_face", lambda plane, d: traced.append(d) or trace_face(plane, d))
        changed = []

        def checked(plane, x):
            before = plane.outer_face().darts
            traced.clear()
            uncross(plane, x)
            assert not traced, x
            want = plane.copy()
            refresh_outer_after_surgery(want, before)
            assert plane.outer == want.outer, x
            assert plane.outer_face().darts == want.outer_face().darts, x
            changed.append(plane.outer_face().darts != before)

        monkeypatch.setattr(reembed, "_uncross", checked)
        for k in range(8, 65):
            changed.clear()
            assert normalize_embedding(gen_2reg(k)).crossings() == {}
            assert len(changed) == k and sum(changed) > k // 2, k
        # Of gen_2reg(64)'s 64 uncrossings, 40 change the outer face.
        assert sum(changed) == 40
        changed.clear()
        for g in [g for _, g in adversarial_suite()] + [two_crossing_edges(), uncrossing_makes_a_cutvertex()]:
            normalize_embedding(g)
        assert sum(changed) >= 10, changed

    def test_every_flip_leaves_a_valid_plane_and_the_flipped_outer_face(self, monkeypatch):
        """_fix_two_cut uncrosses a flip through _uncross, so the outer face
        of the plane it returns is the flipped plane's, joined at x: on the
        3 flips the equivalence inputs take, and on the crossed prism with
        the triangle abc outer, whose old walk holds no fragment at x and
        whose face to the left of ab's dart from a the flip changes."""
        flipped, fixed = [], []
        flip, fix = reembed._flip_component, reembed._fix_two_cut

        def flip_recorded(plane, comp, w, x):
            out = flip(plane, comp, w, x)
            if out is not None:
                flipped.append(out.copy())
            return out

        def fix_recorded(plane, pairs):
            out = fix(plane, pairs)
            fixed.append((flipped[-1], out))
            return out

        monkeypatch.setattr(reembed, "_flip_component", flip_recorded)
        monkeypatch.setattr(reembed, "_fix_two_cut", fix_recorded)
        for g in equivalence_inputs():
            normalize_embedding(g)
        assert len(fixed) == 3
        prism = crossed_prism().plane
        abc = prism.with_outer(("ab", "a"))
        normalize_embedding(EmbeddedGraph.from_plane(abc))
        assert len(fixed) == 4
        for before, out in fixed:
            out.validate()
            (x,) = set(before.dummies()) - set(out.dummies())
            kept = {d for d in before.outer_face().darts if d[0] not in before.rotation[x]}
            assert kept and kept <= set(out.outer_face().darts)
        before, out = fixed[-1]
        (x,) = set(before.dummies()) - set(out.dummies())
        assert not any(e in prism.rotation[x] for e, _ in abc.outer_face().darts)
        assert set(abc.outer_face().darts) != set(before.outer_face().darts)

    def test_64_uncrossings_search_no_component_and_redo_only_the_blocks_that_held_each(self, monkeypatch):
        g = gen_2reg(64)
        searches, handed = [], []
        uncrossable = reembed._uncrossable
        monkeypatch.setattr(reembed, "_uncrossable",
                            lambda plane, x: searches.append(x) or uncrossable(plane, x))
        dfs = graphutil.blocks_and_cut_vertices
        monkeypatch.setattr(graphutil, "blocks_and_cut_vertices",
                            lambda adj, removed=frozenset(): handed.append(len(adj)) or dfs(adj, removed))
        out = normalize_embedding(g)
        assert (len(g.crossings()), len(out.crossings())) == (64, 0)
        # A dummy cutvertex passes the search by definition.
        assert searches == []
        # One whole-plane DFS (194 vertices), then one per uncrossing of the
        # blocks that held the dummy.  A whole-plane DFS after each of the 64
        # uncrossings would be handed 194 + 193 + ... + 130 = 10,530.
        assert handed[0] == 194 and len(handed) == 65
        assert sum(handed) < sum(range(130, 195)) // 2, sum(handed)

    def test_an_uncrossing_can_make_another_dummy_a_cutvertex(self, monkeypatch):
        g = uncrossing_makes_a_cutvertex()
        assert g.crossings() == {"_x0": ("ac", "pq"), "_x1": ("ab", "cd"), "_x2": ("dh", "ij")}
        assert sorted(graphutil.articulation_points(g.plane.adjacency()) & set(g.plane.dummies())) == [
            "_x1", "_x2"]
        order = []
        uncross = reembed._uncross
        monkeypatch.setattr(reembed, "_uncross", lambda plane, x: order.append(x) or uncross(plane, x))
        out = normalize_embedding(g)
        # Uncrossing _x1 rejoins ab and cd, and leaves _x0 the only link
        # between a's side and c's: _x0 comes before _x2.
        assert order == ["_x1", "_x0", "_x2"]
        assert list(out.plane.edges) == ["ap", "cq", "di", "cd", "ab", "pq", "ac", "ij", "dh"]

    def test_the_outer_face_falls_back_when_every_outer_dart_was_a_fragment(self):
        # The outer face of the first vertex, a, is the one left.
        out = normalize_embedding(two_crossing_edges())
        assert out.plane.outer == ("e", "a")
        assert out.plane.outer_face().darts == (("e", "a"), ("e", "b"))
        assert out.crossings() == {}

    def test_uncrosses_cutvertex_gadget(self):
        g = two_blocks_crossed(3, 3)
        out = normalize_embedding(g)
        assert count_dummy_cutvertices(out.plane) == 0
        assert sorted(out.edges) == sorted(g.edges)

    def test_crossing_count_never_increases(self):
        for name, g in adversarial_suite():
            out = normalize_embedding(g)
            assert len(out.crossings()) <= len(g.crossings()), name

    def test_restores_3_connected_planarization(self):
        g = crossed_prism()
        assert connectivity(g) == 3
        out = normalize_embedding(g)
        assert connectivity(out.plane.adjacency()) >= 3

    def test_adversarial_suite_full_contract(self):
        suite = adversarial_suite()
        assert len(suite) >= 20
        for name, g in suite:
            out = normalize_embedding(g)
            assert count_dummy_cutvertices(out.plane) == 0, name
            assert sorted(out.vertices) == sorted(g.vertices), name
            want = {e: tuple(sorted(ab)) for e, ab in g.edges.items()}
            got = {e: tuple(sorted(ab)) for e, ab in out.edges.items()}
            assert want == got, name
            if connectivity(g) >= 3:
                assert connectivity(out.plane.adjacency()) >= 3, name

    def test_corpus_graphs_already_normalized(self):
        for g in gen_corpus(seed=21, n_target=14, profile="cubic3con", count=3):
            out = normalize_embedding(g)
            assert len(out.crossings()) == len(g.crossings())


def uncrossing_makes_a_cutvertex():
    """Three crossings, _x0 = ac x pq, _x1 = ab x cd and _x2 = dh x ij.  _x1
    and _x2 are cutvertices; _x0 becomes one once _x1 is uncrossed."""
    pos = {
        "a": Point(-1, 1), "c": Point(-1, -1), "b": Point(1, -1), "d": Point(1, 1),
        "p": Point(-2, 0), "q": Point(Fraction(-1, 2), 0),
        "h": Point(3, 3), "i": Point(1, 2), "j": Point(3, 2),
    }
    names = ("ab", "cd", "ac", "pq", "ap", "cq", "dh", "di", "ij")
    return embedding_from_geometry(pos, {e: (e[0], e[1]) for e in names})


def equivalence_inputs():
    graphs = [g for _, g in adversarial_suite()]
    graphs.append(uncrossing_makes_a_cutvertex())
    graphs += [gen_2reg(k) for k in (3, 5, 8, 16, 32, 64)]
    graphs.append(crossed_prism())
    for profile in ("cubic3con", "subcubic"):
        for n_target in (12, 20, 28, 40):
            graphs += gen_corpus(seed=77, n_target=n_target, profile=profile, count=3)
    return graphs


class TestRetracingEquivalence:
    """The normalizer decides re-insertions from the components of G - x;
    the oracle decides them by tracing faces and validates every surgery."""

    def test_the_normalized_plane_equals_the_retracing_oracle(self):
        surgeries = 0
        for g in equivalence_inputs():
            got = normalize_embedding(g).plane
            want = normalize_by_retracing(g).plane
            assert got.vertices == want.vertices
            assert list(got.edges.items()) == list(want.edges.items())
            assert got.rotation == want.rotation
            assert list(got.fragment_of.items()) == list(want.fragment_of.items())
            assert got.outer == want.outer
            assert got.outer_face().darts == want.outer_face().darts
            surgeries += len(g.crossings()) - len(got.dummies())
        assert surgeries >= 150, surgeries

    def test_the_rule_agrees_with_the_face_test_on_every_dummy(self, monkeypatch):
        flipped = []
        flip = reembed._flip_component

        def recorded(plane, comp, w, x):
            out = flip(plane, comp, w, x)
            if out is not None:
                flipped.append(out.copy())
            return out

        monkeypatch.setattr(reembed, "_flip_component", recorded)
        planes = []
        for g in equivalence_inputs():
            planes.append(g.plane)
            normalize_embedding(g)
        assert len(flipped) >= 2
        outcomes = []
        for plane in planes + flipped:
            for x in plane.dummies():
                ok = reembed._uncrossable(plane, x)
                assert ok == (uncross_by_retracing(plane, x) is not None), x
                outcomes.append(ok)
        assert outcomes.count(True) >= 20 and outcomes.count(False) >= 20, outcomes


class TestOracle:
    def test_uncrossable_gadget_seen_by_oracle(self):
        g = two_blocks_crossed(3, 3)
        assert normalized_reembedding_exists(g)

    def test_oracle_agrees_on_k4(self):
        assert normalized_reembedding_exists(gen_k4_embedded())

    def test_oracle_on_crossed_prism(self):
        assert normalized_reembedding_exists(crossed_prism())

    def test_oracle_matches_surgery_on_small_instances(self):
        for name, g in adversarial_suite():
            if len(g.vertices) > 10:
                continue
            ok = True
            try:
                normalize_embedding(g)
            except ReembedError:
                ok = False
            assert normalized_reembedding_exists(g) == ok or ok, name
            # When the surgery succeeds, the oracle must agree one exists.
            if ok:
                assert normalized_reembedding_exists(g), name
