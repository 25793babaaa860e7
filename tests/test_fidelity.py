"""Fidelity gate: the shapes of the paper's results this reproduction keeps.

Each test runs one experiment and asserts the *shape* the paper claims
(who wins, within what margin), not the absolute numbers, which depend
on the simulator.  EXPERIMENTS.md records the measured values and where
they diverge from the paper.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import ablations, fig1_3, fig4_1, fig6_1, fig6_2, fig6_3
from repro.experiments.common import ExperimentContext, collect_suite


@pytest.fixture(scope="module")
def suite():
    """One experiment context and profiled Table 6.1 suite, shared by the
    Fig 6.x gates the way ``repro experiments`` shares them."""
    ctx = ExperimentContext.create(0)
    return ctx, collect_suite(ctx, seed=0)


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


def test_fig4_1_one_task_sample_undercuts_ten_percent_profiling():
    """Fig 4.1: for every job the 1-task sample's overhead fraction is
    below 10% profiling's, and it takes 1 map slot against ~10% of the
    splits (here 56 of 560; the paper's 57 vs 1)."""
    rows = fig4_1.run().rows
    assert rows
    for job, splits, ten_frac, one_frac, ten_slots, one_slots in rows:
        assert one_frac < ten_frac, (job, one_frac, ten_frac)
        assert one_slots == 1, (job, one_slots)
        assert abs(ten_slots - 0.10 * splits) <= 1, (job, ten_slots, splits)


def test_filter_order_dynamics_first_keeps_never_seen_matches():
    """§4.3: the dynamics-first workflow matches more never-seen (NJ)
    jobs than statics-first, with DD map accuracy no lower.  Here NJ
    reads 1.0 vs 0.286 and DD ties at 0.929."""
    rows = {order: (dd, nj) for order, dd, nj in ablations.run_filter_order().rows}
    dynamics_dd, dynamics_nj = rows["dynamics-first (PStorM)"]
    statics_dd, statics_nj = rows["statics-first"]
    assert dynamics_nj > statics_nj, (dynamics_nj, statics_nj)
    assert dynamics_dd >= statics_dd, (dynamics_dd, statics_dd)


def test_fig6_1_pstorm_matches_at_least_as_well_as_feature_selection(suite):
    """Fig 6.1: in every (state, side) cell PStorM's matching accuracy is
    at least P-features' and SP-features'.  Here PStorM reads 1.0 (SD)
    and 0.929 (DD) against at most 0.339 for either baseline."""
    rows = fig6_1.run(*suite, seed=0).rows
    cells = {(approach, state): (map_acc, reduce_acc)
             for approach, state, map_acc, reduce_acc, __ in rows}
    for state in ("SD", "DD"):
        pstorm = cells[("PStorM", state)]
        for baseline in ("P-features", "SP-features"):
            other = cells[(baseline, state)]
            for side, (ours, theirs) in zip(("map", "reduce"), zip(pstorm, other)):
                assert ours >= theirs, (state, side, baseline, ours, theirs)


@pytest.mark.slow
def test_fig6_2_pstorm_matches_at_least_as_well_as_every_gbrt_setting(suite):
    """Fig 6.2: in every (state, side) cell PStorM's matching accuracy is
    at least each GBRT setting's.  Here PStorM reads 1.0 (SD) and 0.929
    (DD) against at most 0.696 for any setting; the paper's "GBRT 4 is
    the strongest variant" does not hold here (GBRT 2 is), so it is not
    gated.  Trains four GBRT matchers (~50 s), hence slow."""
    rows = fig6_2.run(*suite, seed=0).rows
    cells = {(approach, state): (map_acc, reduce_acc)
             for approach, state, map_acc, reduce_acc in rows}
    settings = sorted({approach for approach, __ in cells} - {"PStorM"})
    assert settings == ["GBRT 1", "GBRT 2", "GBRT 3", "GBRT 4"], settings
    for state in ("SD", "DD"):
        pstorm = cells[("PStorM", state)]
        for setting in settings:
            other = cells[(setting, state)]
            for side, (ours, theirs) in zip(("map", "reduce"), zip(pstorm, other)):
                assert ours >= theirs, (state, side, setting, ours, theirs)


def test_fig6_3_pstorm_beats_rbo_and_never_seen_jobs_track_sd(suite):
    """Fig 6.3: on every job PStorM's SD, DD and NJ speedups are at least
    the RBO's; NJ is at least 0.9x SD; and on the inverted index the RBO
    is a slowdown (0.96 here).  The co-occurrence gap is 12.35 vs 9.29
    (the paper's ~2x is 1.33x here)."""
    rows = fig6_3.run(*suite, seed=0).rows
    assert rows
    for job, __, rbo, sd, dd, nj, __ in rows:
        for state, speedup in (("SD", sd), ("DD", dd), ("NJ", nj)):
            assert speedup >= rbo, (job, state, speedup, rbo)
        assert nj >= 0.9 * sd, (job, nj, sd)
    rbo_of = {job: rbo for job, __, rbo, *__ in rows}
    assert rbo_of["inverted-index"] < 1, rbo_of


def test_pushdown_ships_a_small_fraction_of_the_rows_scanned(suite):
    """§5.3: with pushdown one match_job call ships at most a tenth of
    the rows it scans (here 56 of 1014); filtering client-side ships
    every row scanned."""
    result = ablations.run_pushdown(*suite, seed=0)
    rows = {mode: (scanned, shipped) for mode, scanned, shipped, __ in result.rows}
    scanned, shipped = rows["pushdown"]
    assert 0 < shipped <= 0.1 * scanned, (shipped, scanned)
    scanned, shipped = rows["client-side"]
    assert shipped == scanned > 0, (shipped, scanned)


@pytest.mark.slow
def test_report_reproduces_results_txt():
    """RESULTS.txt is exactly what its ``Generated by`` line prints (~2 min)."""
    root = Path(__file__).resolve().parents[1]
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    printed = subprocess.run(
        [sys.executable, "-m", "repro", "experiments"],
        capture_output=True, text=True, check=True, env=env, cwd=root,
    ).stdout
    assert printed == (root / "RESULTS.txt").read_text(encoding="utf-8")
