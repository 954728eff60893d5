"""The outer face of a drawing's induced embedding.

verify reads it at the lowest, then leftmost, drawing point, off the
original polylines and the rotation it has just sorted.  Each test here
requires the same darts, from the same start dart, as
oracles.outer_face_by_pieces, which cuts every polyline into planarization
pieces first.
"""

from __future__ import annotations

import pytest

from slopeforge import families, verify
from slopeforge.drawing import PolylineDrawing
from slopeforge.families import gen_2reg, gen_corpus, gen_crossed_k4, gen_k4_embedded, gen_maxdeg, gen_prism
from slopeforge.onebend import draw_onebend
from slopeforge.twobend import draw_twobend
from slopeforge.verify import PROFILES, embedding_from_geometry, embedding_of, validate

from adversarial import adversarial_suite
from builders import point
from oracles import outer_face_by_pieces
from test_twobend import block_chain, edge_deleted


def P(x, y):
    return point(x, y)


@pytest.fixture
def outer_pairs(monkeypatch):
    """(the face left of verify's outer dart, the oracle's) for every
    embedding extracted while the test runs."""
    drawings, pairs = [], []
    embedding_from, outer_face_dart = verify._embedding_from, verify._outer_face_dart

    def extract(d, rays):
        drawings.append(d)
        return embedding_from(d, rays)

    def outer(plane, positions, polylines, crossing_at):
        got = outer_face_dart(plane, positions, polylines, crossing_at)
        walk = () if got is None else plane.trace_face(got).darts
        pairs.append((walk, tuple(outer_face_by_pieces(plane, positions, drawings[-1]))))
        return got

    monkeypatch.setattr(verify, "_embedding_from", extract)
    monkeypatch.setattr(verify, "_outer_face_dart", outer)
    return pairs


def assert_all_equal(pairs, at_least):
    assert len(pairs) >= at_least
    for got, want in pairs:
        assert got == want


class TestOuterFaceOracle:
    def test_families(self, outer_pairs):
        gen_k4_embedded(), gen_prism(), gen_crossed_k4(), families._k4_plane_skeleton()
        for k in range(1, 13):
            gen_2reg(k)
        for delta in (3, 4, 5):
            gen_maxdeg(delta)
        adversarial_suite()
        for blocks in (1, 5, 10):
            block_chain(blocks)
        for seed in range(1000, 1010):
            gen_corpus(seed=seed, n_target=20 + 10 * (seed % 3), profile="subcubic", count=1)
        for seed in range(1000, 1003):
            edge_deleted(seed, 40)
        assert_all_equal(outer_pairs, 48)

    def test_onebend_drawings(self, outer_pairs):
        for seed in range(1000, 1030):
            embedding_of(draw_onebend(gen_corpus(seed=seed, n_target=20, profile="cubic3con", count=1)[0]))
        assert_all_equal(outer_pairs, 30)

    def test_twobend_drawings(self, outer_pairs):
        graphs = [gen_2reg(k) for k in (2, 5, 8, 16)] + [block_chain(b) for b in (3, 10, 20)]
        graphs += [gen_corpus(seed=s, n_target=20, profile="subcubic", count=1)[0] for s in range(1000, 1010)]
        for g in graphs:
            embedding_of(draw_twobend(g))
        assert_all_equal(outer_pairs, 2 * len(graphs))

    # One drawing per way the lowest point can lie; the darts are pinned.
    BRANCHES = {
        "real vertex": (
            {"a": P(0, 0), "b": P(2, 0), "c": P(1, 2)},
            {"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a")},
            {},
            (("ab", "b"), ("ca", "a"), ("bc", "c")),
        ),
        # e1 and e2 both bend at the origin and cross there.
        "dummy at a corner crossing": (
            {"a": P(-1, 1), "b": P(1, 2), "c": P(1, 1), "d": P(-1, 2)},
            {"e1": ("a", "b"), "e2": ("c", "d"), "bd": ("b", "d")},
            {"e1": [P(-1, 1), P(0, 0), P(1, 2)], "e2": [P(1, 1), P(0, 0), P(-1, 2)]},
            (
                ("e2$a", "c"), ("e1$a", "_x0"), ("e1$a", "a"), ("e2$b", "_x0"),
                ("bd", "d"), ("e1$b", "b"), ("e2$a", "_x0"),
            ),
        ),
        "bend on an uncrossed edge": (
            {"a": P(0, 2), "b": P(2, 2), "c": P(1, 3)},
            {"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a")},
            {"ab": [P(0, 2), P(1, 0), P(2, 2)]},
            (("ab", "b"), ("ca", "a"), ("bc", "c")),
        ),
        # e runs from a through its bend at (-1, 0), then crosses f.
        "bend before the crossing": (
            {"a": P(-2, 2), "b": P(2, 3), "c": P(0, 3), "d": P(1, 1)},
            {"e": ("a", "b"), "f": ("c", "d"), "ac": ("a", "c")},
            {"e": [P(-2, 2), P(-1, 0), P(2, 3)]},
            (
                ("e$a", "_x0"), ("ac", "a"), ("f$a", "c"), ("e$b", "_x0"),
                ("e$b", "b"), ("f$b", "_x0"), ("f$b", "d"),
            ),
        ),
        # The same drawing with e running from b: it crosses f first.
        "bend after the crossing": (
            {"a": P(-2, 2), "b": P(2, 3), "c": P(0, 3), "d": P(1, 1)},
            {"e": ("b", "a"), "f": ("c", "d"), "ac": ("a", "c")},
            {"e": [P(-2, 2), P(-1, 0), P(2, 3)]},
            (
                ("e$b", "_x0"), ("ac", "a"), ("f$a", "c"), ("e$a", "_x0"),
                ("e$a", "b"), ("f$b", "_x0"), ("f$b", "d"),
            ),
        ),
    }

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_branch_is_pinned(self, outer_pairs, branch):
        pos, edges, polylines, pinned = self.BRANCHES[branch]
        g = embedding_from_geometry(pos, edges, polylines)
        assert g.plane.outer_face().darts == pinned
        assert outer_pairs == [(pinned, pinned)]


class TestIsolatedLowestVertex:
    """The lowest point is a vertex without edges: the outer face is read at
    the lowest vertex that has one."""

    POS = {"a": P(0, 1), "b": P(2, 1), "c": P(1, 0)}

    def test_outer_face_is_that_of_the_edge(self):
        g = embedding_from_geometry(self.POS, {"e": ("a", "b")})
        assert set(g.plane.outer_face().darts) == {("e", "a"), ("e", "b")}

    @pytest.mark.parametrize("profile", PROFILES)
    def test_drawing_passes(self, profile):
        g = embedding_from_geometry(self.POS, {"e": ("a", "b")})
        d = PolylineDrawing(g, dict(self.POS), {"e": [self.POS["a"], self.POS["b"]]})
        report = validate(d, profile)
        assert report.passed, report.violations
        assert report.embedding_preserved
