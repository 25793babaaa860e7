"""Fidelity gate: the shapes of the paper's results this reproduction keeps.

Each test runs one experiment and asserts the *shape* the paper claims
(who wins, within what margin), not the absolute numbers, which depend
on the simulator.  EXPERIMENTS.md records the measured values and where
they diverge from the paper.
"""

from repro.experiments import fig1_3


def test_fig1_3_reused_profile_tunes_like_own_and_beats_rbo():
    """Fig 1.3: the CBO fed the bigram job's profile lands within 5% of
    the CBO fed the co-occurrence job's own profile, and both beat the
    RBO.  (The paper's CBO/RBO gap is ~2x; here it is 1.33x.)"""
    speedups = dict(fig1_3.run().rows)
    rbo = speedups["RBO"]
    own = speedups["CBO (own profile)"]
    reused = speedups["CBO (bigram rel. freq. profile)"]
    assert abs(reused - own) <= 0.05 * own, (reused, own)
    assert own > rbo, (own, rbo)
    assert reused > rbo, (reused, rbo)
