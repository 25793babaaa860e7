"""The tuner league: race the family across the workload zoo.

One cell per (tuner, workload): every tuner of the roster optimizes the
same profiled workload under the *same per-entry seed*, so leaderboard
differences measure search strategy, never luck.  Cells are independent
and fan out over :func:`repro.experiments.common.parallel_cells`; the
merged payload is **a pure function of (seed, roster, entries, budgets)**
— byte-identical across re-runs and worker counts, which is what the
league benchmark and the CI smoke assert.

Scoring: each cell records the tuner's predicted speedup over the
default configuration (both runtimes priced by the same What-If engine)
and the What-If-evaluation budget it spent.  The leaderboard ranks by
mean predicted speedup, ties by total budget then name, and also carries
``speedup_per_kiloeval`` — speedup won per thousand evaluations — so a
cheap tuner's efficiency is visible beside an expensive tuner's peak.

The surrogate's warm start mines the shared suite store (every profiled
workload is stored, the SD content state), mirroring a production store
that has seen the workload mix before.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..experiments.common import (
    ExperimentContext,
    build_store,
    collect_suite,
    parallel_cells,
)
from ..starfish.whatif import WhatIfEngine
from ..workloads.benchmark import BenchmarkEntry, standard_benchmark
from . import TUNER_NAMES, make_tuner

__all__ = ["LeagueConfig", "quick_entries", "run_league", "leaderboard_json"]

#: Reduced search budgets for quick-mode (CI smoke) races.
QUICK_BUDGETS: dict[str, dict[str, Any]] = {
    "cbo": {
        "num_samples": 40,
        "refine_rounds": 2,
        "elite": 4,
        "perturbations_per_elite": 4,
    },
    "surrogate": {"initial_samples": 8, "rounds": 6, "candidate_pool": 64},
}


@dataclass(frozen=True)
class LeagueConfig:
    """One league season: roster, workloads, budgets, seed."""

    seed: int = 0
    tuners: tuple[str, ...] = TUNER_NAMES
    #: Thread fan-out for profiling and race cells (never affects the
    #: payload — cells are seeded by position and merged by sorted key).
    workers: int = 1
    #: Quick mode: first-per-family workload subset + reduced budgets.
    quick: bool = False
    #: Explicit workload list; None = the zoo (or its quick subset).
    entries: "list[BenchmarkEntry] | None" = None
    #: Per-tuner constructor overrides; None = defaults (quick mode
    #: falls back to :data:`QUICK_BUDGETS`).
    budgets: "Mapping[str, Mapping[str, Any]] | None" = None

    def __post_init__(self) -> None:
        unknown = [name for name in self.tuners if name not in TUNER_NAMES]
        if unknown:
            raise ValueError(
                f"unknown tuners {unknown!r}; expected a subset of {TUNER_NAMES}"
            )
        if not self.tuners:
            raise ValueError("the league needs at least one tuner")


def quick_entries() -> list[BenchmarkEntry]:
    """The first workload of every family: one lap, all terrains."""
    chosen: list[BenchmarkEntry] = []
    seen: set[str] = set()
    for entry in standard_benchmark(pigmix_queries=1):
        if entry.domain not in seen:
            seen.add(entry.domain)
            chosen.append(entry)
    return chosen


def run_league(config: LeagueConfig) -> dict[str, Any]:
    """Race the roster and return the leaderboard payload."""
    ctx = ExperimentContext.create(config.seed, workers=config.workers)
    entries = config.entries
    if entries is None:
        entries = quick_entries() if config.quick else standard_benchmark()
    budgets = config.budgets
    if budgets is None:
        budgets = QUICK_BUDGETS if config.quick else {}

    records = collect_suite(ctx, entries, seed=config.seed)
    store = build_store(records)
    entry_index = {entry.key: position for position, entry in enumerate(entries)}

    def make_cell(
        tuner_name: str, entry: BenchmarkEntry
    ) -> Callable[[], dict[str, Any]]:
        record = records[entry.key]
        run_seed = config.seed + entry_index[entry.key]
        data_bytes = entry.dataset.nominal_bytes

        def cell() -> dict[str, Any]:
            # A private What-If engine per cell: the engines are cheap
            # and the race cells must be free of shared mutable state.
            tuner = make_tuner(
                tuner_name,
                WhatIfEngine(ctx.cluster),
                cluster=ctx.cluster,
                seed=run_seed,
                store=store,
                budgets=budgets,
            )
            decision = tuner.optimize(record.full_profile, data_bytes=data_bytes)
            return {
                "default_predicted_runtime": round(
                    decision.default_predicted_runtime, 6
                ),
                "evaluations": decision.evaluations,
                "memo_hits": decision.memo_hits,
                "predicted_runtime": round(decision.predicted_runtime, 6),
                "speedup": round(decision.predicted_speedup, 6),
            }

        return cell

    tasks = {
        f"{tuner_name}|{entry.key}": make_cell(tuner_name, entry)
        for tuner_name in config.tuners
        for entry in entries
    }
    raced = parallel_cells(tasks, workers=config.workers)

    families: dict[str, list[str]] = {}
    for entry in entries:
        families.setdefault(entry.domain, []).append(entry.key)

    cells: dict[str, dict[str, Any]] = {name: {} for name in config.tuners}
    for key, outcome in raced.items():
        tuner_name, entry_key = key.split("|", 1)
        cells[tuner_name][entry_key] = outcome

    tuner_rows: dict[str, dict[str, Any]] = {}
    for name in config.tuners:
        speedups = [cells[name][entry.key]["speedup"] for entry in entries]
        evaluations = sum(
            cells[name][entry.key]["evaluations"] for entry in entries
        )
        mean_speedup = sum(speedups) / len(speedups)
        mean_evaluations = evaluations / len(entries)
        per_family = {
            family: round(
                sum(cells[name][key]["speedup"] for key in keys) / len(keys), 6
            )
            for family, keys in sorted(families.items())
        }
        tuner_rows[name] = {
            "families": per_family,
            "mean_evaluations": round(mean_evaluations, 6),
            "mean_speedup": round(mean_speedup, 6),
            "speedup_per_kiloeval": round(
                (mean_speedup - 1.0) * 1000.0 / max(mean_evaluations, 1.0), 6
            ),
            "total_evaluations": evaluations,
        }

    ranked = sorted(
        config.tuners,
        key=lambda name: (
            -tuner_rows[name]["mean_speedup"],
            tuner_rows[name]["total_evaluations"],
            name,
        ),
    )
    leaderboard = [
        {
            "mean_speedup": tuner_rows[name]["mean_speedup"],
            "rank": position + 1,
            "speedup_per_kiloeval": tuner_rows[name]["speedup_per_kiloeval"],
            "total_evaluations": tuner_rows[name]["total_evaluations"],
            "tuner": name,
        }
        for position, name in enumerate(ranked)
    ]

    return {
        "cells": cells,
        "config": {
            "entries": [entry.key for entry in entries],
            "quick": config.quick,
            "seed": config.seed,
            "tuners": list(config.tuners),
        },
        "families": {family: keys for family, keys in sorted(families.items())},
        "leaderboard": leaderboard,
        "tuners": tuner_rows,
    }


def leaderboard_json(payload: Mapping[str, Any]) -> str:
    """The canonical byte-stable rendering of a league payload."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
