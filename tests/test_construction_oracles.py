"""The checks the drawers trust the construction for, run as oracles.

The 1-bend drawer does not re-sweep the drawing after a stretch: a stretch
along a stretch_cut keeps it simple by the shift lemma.  The 2-bend drawer
does not check I1 to I6 after draw_liu or after a C-shape elimination
step: Liu, Morgana and Simeone's construction keeps them.  Here the moved
checks run after every stretch and every step on the corpora, and must
find nothing; a minimum count keeps either test from passing vacuously.
"""

from __future__ import annotations

from slopeforge import onebend, twobend
from slopeforge.families import gen_corpus
from slopeforge.onebend import OneBendError, draw_onebend
from slopeforge.twobend import TwoBendError, draw_twobend

from oracles import InvariantRounds, check_stretch

# The onebend-cubic benchmark inputs, then the two smallest known 1-bend
# failures; cubic3con (n_target, seed) pairs.
ONEBEND_INPUTS = (
    [(20, seed) for seed in range(1000, 1033)]
    + [(90, seed) for seed in range(1024, 1030)]
    + [(200, 13), (32, 404), (32, 499)]
)
ONEBEND_FAILURES = {(90, 1024), (90, 1029), (32, 404), (32, 499)}

# (profile, n_target, seeds) for the 2-bend drawer; cubic3con 32/1077 is
# the smallest known 2-bend failure.
TWOBEND_INPUTS = (
    [("cubic3con", n, range(1000, 1060)) for n in (24, 32, 40)]
    + [("cubic3con", 32, (1077,))]
    + [("subcubic", n, range(1000, 1010)) for n in (24, 40, 60)]
)


class TestStretchOracle:
    def test_no_stretch_breaks_simplicity(self, monkeypatch):
        real_stretch = onebend.stretch
        stretches = 0
        rejected = []

        def checked_stretch(g, left, delta):
            nonlocal stretches
            amount = real_stretch(g, left, delta)
            stretches += 1
            rejected.extend(check_stretch(g, left))
            return amount

        monkeypatch.setattr(onebend, "stretch", checked_stretch)
        for n_target, seed in ONEBEND_INPUTS:
            g = gen_corpus(seed=seed, n_target=n_target, profile="cubic3con", count=1)[0]
            try:
                draw_onebend(g)
            except OneBendError:
                assert (n_target, seed) in ONEBEND_FAILURES
        assert rejected == []
        assert stretches >= 400


class TestInvariantOracle:
    def test_no_step_breaks_the_invariants(self, monkeypatch):
        rounds = InvariantRounds()
        monkeypatch.setattr(twobend, "dummy_c_shapes", rounds)
        failed = 0
        for profile, n_target, seeds in TWOBEND_INPUTS:
            for seed in seeds:
                g = gen_corpus(seed=seed, n_target=n_target, profile=profile, count=1)[0]
                try:
                    draw_twobend(g)
                except TwoBendError:
                    failed += 1
        assert rounds.problems == []
        assert rounds.drawings >= 100 and rounds.steps >= 75 and failed >= 1
