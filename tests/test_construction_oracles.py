"""The checks the drawers trust the construction for, run as oracles.

The 1-bend drawer does not re-sweep the drawing after a stretch: a stretch
along a stretch_cut keeps it simple by the shift lemma.  After a step it
checks only P4(a), P4(b) and P6 on the contour span the step replaced
(check_step), and the full check_gamma once, on the finished drawing.  The
2-bend drawer checks I1 to I6 only on the drawing it keeps: Liu, Morgana
and Simeone's construction keeps them.  Here the moved checks run after
every stretch, every step and every draw_liu drawing on the corpora.  The
stretch re-sweep and the 2-bend invariant checker must find nothing;
after every 1-bend step, check_gamma and the checker on rebuilt segments
must find exactly what check_step found, which holds only while the
checks it leaves out find nothing.  A minimum count keeps each test
from passing vacuously.
"""

from __future__ import annotations

from slopeforge import onebend, twobend
from slopeforge.families import gen_corpus
from slopeforge.onebend import OneBendError, check_gamma, draw_onebend
from slopeforge.twobend import TwoBendError, draw_twobend

from oracles import InvariantRounds, check_gamma_by_points, check_stretch

# The onebend-cubic benchmark inputs, then the two smallest known 1-bend
# failures; cubic3con (n_target, seed) pairs.
ONEBEND_INPUTS = (
    [(20, seed) for seed in range(1000, 1033)]
    + [(90, seed) for seed in range(1024, 1030)]
    + [(200, 13), (32, 404), (32, 499)]
)
ONEBEND_FAILURES = {(90, 1024), (90, 1029), (32, 404), (32, 499)}

# (profile, n_target, seeds) for the 2-bend drawer; cubic3con 32/1077 is
# the smallest input that failed while dummy C-shapes were eliminated after
# drawing.
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
        for n_target, seed in ONEBEND_INPUTS + [(32, seed) for seed in range(1000, 1010)]:
            g = gen_corpus(seed=seed, n_target=n_target, profile="cubic3con", count=1)[0]
            try:
                draw_onebend(g)
            except OneBendError:
                assert (n_target, seed) in ONEBEND_FAILURES
        assert rejected == []
        assert stretches >= 400


class TestStepCheckOracle:
    def test_full_checks_agree_with_every_step_check(self, monkeypatch):
        """Two of the failures stop at a step check: 90/1024 at P6 and
        32/499 at P4(b)."""
        real_check_step = onebend.check_step
        steps = []

        def both(g, old):
            problems = real_check_step(g, old)
            assert check_gamma(g) == problems
            assert check_gamma_by_points(g) == problems
            steps.append(problems)
            return problems

        monkeypatch.setattr(onebend, "check_step", both)
        for n_target, seed in ONEBEND_INPUTS:
            g = gen_corpus(seed=seed, n_target=n_target, profile="cubic3con", count=1)[0]
            try:
                draw_onebend(g)
            except OneBendError:
                assert (n_target, seed) in ONEBEND_FAILURES
        assert sum(1 for problems in steps if problems) == 2
        assert len(steps) >= 600


class TestInvariantOracle:
    def test_no_step_breaks_the_invariants(self, monkeypatch):
        rounds = InvariantRounds()
        rounds.install(monkeypatch)
        failed = 0
        for profile, n_target, seeds in TWOBEND_INPUTS:
            for seed in seeds:
                g = gen_corpus(seed=seed, n_target=n_target, profile=profile, count=1)[0]
                try:
                    draw_twobend(g)
                except TwoBendError:
                    failed += 1
        assert rounds.problems == [] and rounds.dummy_bends == []
        assert rounds.drawings >= 100 and failed == 0
