"""The tuner league benchmark: race the family, freeze the leaderboard.

Runs the full roster (rbo, cbo, surrogate) across the workload zoo
under identical per-entry seeds and asserts the properties the league
is allowed to promise:

- **determinism** — two seeded runs render byte-identical leaderboard
  JSON (the payload is a pure function of seed, roster, and budgets);
- **adapter fidelity** — the CBO adapter's decision is bit-identical to
  calling ``CostBasedOptimizer.optimize`` directly, so racing the CBO
  through the league measures the same search users get on the submit
  path;
- **the surrogate pays at an equal budget** — re-racing the CBO with
  search knobs that spend the surrogate's What-If budget (total
  evaluations within 1%), the surrogate's mean predicted speedup is
  higher.  The payload is deterministic, so this gate has no noise; it
  is the reason the surrogate stays in the roster.

Results land in ``BENCH_league.json`` at the repo root so future PRs
have a leaderboard trajectory to compare against.  ``LEAGUE_BENCH_QUICK=1``
switches to the first-per-family workload subset with reduced search
budgets for CI smoke runs; every assertion still holds, only the
scale shrinks.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.hadoop.cluster import ec2_cluster
from repro.hadoop.engine import HadoopEngine
from repro.starfish import CostBasedOptimizer, StarfishProfiler, WhatIfEngine
from repro.tuners import TUNER_NAMES, make_tuner
from repro.tuners.league import (
    QUICK_BUDGETS,
    LeagueConfig,
    leaderboard_json,
    run_league,
)
from repro.workloads import word_count_job
from repro.workloads.datasets import Dataset, random_text_source

QUICK = os.environ.get("LEAGUE_BENCH_QUICK", "") not in ("", "0")
#: Refinement shape of the matched-budget CBO re-run; its random sample
#: takes the rest of the surrogate's per-search budget.
MATCHED_REFINE = {"refine_rounds": 2, "elite": 3, "perturbations_per_elite": 2}
_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_league.json"


def _merge_results(update: dict) -> dict:
    payload = {}
    if _RESULT_PATH.exists():
        payload = json.loads(_RESULT_PATH.read_text())
    payload.update(update)
    payload["quick_mode"] = QUICK
    _RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


@pytest.fixture(scope="module")
def season():
    """One full league season, plus its wall time and rendering."""
    config = LeagueConfig(seed=0, quick=QUICK, workers=4)
    started = time.perf_counter()
    payload = run_league(config)
    elapsed = time.perf_counter() - started
    return config, payload, elapsed


@pytest.fixture(scope="module")
def matched(season):
    """The CBO re-raced at the surrogate's evaluations per search."""
    config, payload, __ = season
    surrogate = payload["tuners"]["surrogate"]
    per_search = round(
        surrogate["total_evaluations"] / len(payload["config"]["entries"])
    )
    refine = (
        MATCHED_REFINE["refine_rounds"]
        * MATCHED_REFINE["elite"]
        * MATCHED_REFINE["perturbations_per_elite"]
    )
    # One default-configuration evaluation, the random sample, then the
    # refinement rounds.
    budget = {"num_samples": per_search - 1 - refine, **MATCHED_REFINE}
    rerun = run_league(
        LeagueConfig(
            seed=config.seed,
            quick=config.quick,
            workers=4,
            tuners=("cbo",),
            budgets={"cbo": budget},
        )
    )
    return budget, rerun["tuners"]["cbo"], surrogate


def test_league_is_deterministic(season):
    """A second seeded season renders byte-identical leaderboard JSON,
    even at a different worker fan-out."""
    config, payload, __ = season
    rerun = run_league(
        LeagueConfig(seed=config.seed, quick=config.quick, workers=1)
    )
    assert leaderboard_json(rerun) == leaderboard_json(payload)


def test_full_roster_raced(season):
    __, payload, __ = season
    raced = {row["tuner"] for row in payload["leaderboard"]}
    assert raced == set(TUNER_NAMES)
    ranks = [row["rank"] for row in payload["leaderboard"]]
    assert ranks == list(range(1, len(TUNER_NAMES) + 1))
    for name in TUNER_NAMES:
        assert set(payload["cells"][name]) == set(payload["config"]["entries"])


def test_surrogate_beats_cbo_at_matched_budget(matched):
    """At the surrogate's own What-If budget, the CBO finds less."""
    budget, cbo, surrogate = matched
    _merge_results(
        {
            "matched_budget": {
                "cbo": {
                    "budget": budget,
                    "mean_speedup": cbo["mean_speedup"],
                    "total_evaluations": cbo["total_evaluations"],
                },
                "surrogate": {
                    "mean_speedup": surrogate["mean_speedup"],
                    "total_evaluations": surrogate["total_evaluations"],
                },
            }
        }
    )
    assert abs(cbo["total_evaluations"] - surrogate["total_evaluations"]) <= (
        0.01 * surrogate["total_evaluations"]
    ), (cbo, surrogate)
    assert surrogate["mean_speedup"] > cbo["mean_speedup"], (cbo, surrogate)


def test_cbo_adapter_bit_identical():
    """The adapter is a pure delegation: same profile, same seed, same
    budgets must yield the same recommendation field-for-field."""
    engine = HadoopEngine(ec2_cluster())
    dataset = Dataset(
        "league-text",
        nominal_bytes=64 * 2**20,
        source=random_text_source(),
        seed=3,
    )
    profile, __ = StarfishProfiler(engine).profile_job(word_count_job(), dataset)
    whatif = WhatIfEngine(engine.cluster)
    budgets = QUICK_BUDGETS["cbo"] if QUICK else {}
    direct = CostBasedOptimizer(whatif, seed=11, **budgets).optimize(profile)
    adapted = make_tuner(
        "cbo", WhatIfEngine(engine.cluster), seed=11,
        budgets={"cbo": budgets},
    ).optimize(profile)
    assert adapted.best_config == direct.best_config
    assert adapted.predicted_runtime == direct.predicted_runtime
    assert adapted.default_predicted_runtime == direct.default_predicted_runtime
    assert adapted.evaluations == direct.evaluations


def test_emit_leaderboard(season):
    """Fold the season into ``BENCH_league.json`` for the perf record."""
    config, payload, elapsed = season
    rows = {
        row["tuner"]: {
            "mean_speedup": row["mean_speedup"],
            "rank": row["rank"],
            "speedup_per_kiloeval": row["speedup_per_kiloeval"],
            "total_evaluations": row["total_evaluations"],
        }
        for row in payload["leaderboard"]
    }
    merged = _merge_results(
        {
            "entries": len(payload["config"]["entries"]),
            "families": {
                family: len(keys) for family, keys in payload["families"].items()
            },
            "leaderboard": rows,
            "seed": config.seed,
            "wall_seconds": round(elapsed, 3),
        }
    )
    print()
    print(json.dumps(merged, indent=2, sort_keys=True))
    winner = payload["leaderboard"][0]
    assert winner["mean_speedup"] >= 1.0, "the winning tuner must not regress"
