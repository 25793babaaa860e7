"""The tuner-family battery: protocol, determinism, bounds, league.

Every member of :mod:`repro.tuners` must be (a) a drop-in behind the
``Tuner`` protocol, (b) bit-identical across re-runs under a fixed seed,
and (c) bounded — every configuration an iterative tuner ever prices
stays inside the Table 2.1 parameter space.  The adapters carry a
stronger bar: the CBO adapter's decision must equal a direct
``CostBasedOptimizer.optimize`` call field for field, and the default
``PStorM(tuner="cbo")`` submit path must reproduce the pre-family
pipeline exactly.  The league harness on top must be a pure function of
``(seed, roster, entries, budgets)`` — same payload at any worker count.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import _text_lines, wc_map, wc_reduce
from repro.core.pstorm import PStorM
from repro.hadoop import (
    Dataset,
    FunctionRecordSource,
    HadoopEngine,
    MapReduceJob,
)
from repro.hadoop.config import CONFIGURATION_SPACE, JobConfiguration
from repro.observability import MetricsRegistry
from repro.starfish.cbo import CostBasedOptimizer
from repro.starfish.rbo import RuleBasedOptimizer
from repro.starfish.whatif import WhatIfEngine
from repro.tuners import (
    TUNER_NAMES,
    CboTuner,
    SurrogateTuner,
    Tuner,
    make_tuner,
)
from repro.tuners.base import (
    DEFAULT_ROW,
    WhatIfObjective,
    row_from_unit,
    unit_from_row,
)
from repro.tuners.league import (
    QUICK_BUDGETS,
    LeagueConfig,
    leaderboard_json,
    quick_entries,
    run_league,
)

MB = 1 << 20

_settings = settings(max_examples=10, deadline=None)

#: Small search budgets: the properties hold at any budget, so the
#: battery runs at league quick-mode scale.
BUDGETS = QUICK_BUDGETS


@pytest.fixture(scope="module")
def wc_profile(profiler):
    job = MapReduceJob(
        name="tuners-wordcount", mapper=wc_map, reducer=wc_reduce,
        combiner=wc_reduce,
    )
    dataset = Dataset(
        "tuners-text",
        nominal_bytes=256 * MB,
        source=FunctionRecordSource(_text_lines),
        seed=5,
    )
    profile, __ = profiler.profile_job(job, dataset)
    return profile


@pytest.fixture(scope="module")
def maponly_profile(profiler):
    def identity(key, value, ctx):
        ctx.emit(key, value)

    job = MapReduceJob(name="tuners-maponly", mapper=identity)
    dataset = Dataset(
        "tuners-maponly-text",
        nominal_bytes=128 * MB,
        source=FunctionRecordSource(_text_lines),
        seed=6,
    )
    profile, __ = profiler.profile_job(job, dataset)
    return profile


def _decision_key(decision):
    return (
        decision.best_config,
        decision.predicted_runtime,
        decision.default_predicted_runtime,
        decision.evaluations,
        decision.memo_hits,
    )


def assert_config_in_bounds(config: JobConfiguration) -> None:
    for spec in CONFIGURATION_SPACE:
        value = getattr(config, spec.attribute)
        if spec.kind == "bool":
            assert isinstance(value, bool)
        else:
            assert spec.low <= value <= spec.high, (
                f"{spec.name}={value!r} outside [{spec.low}, {spec.high}]"
            )
        if spec.kind == "int":
            assert value == int(value)


class TestCubeMapping:
    @_settings
    @given(
        unit=st.lists(
            st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
            min_size=len(CONFIGURATION_SPACE),
            max_size=len(CONFIGURATION_SPACE),
        )
    )
    def test_row_from_unit_always_in_bounds(self, unit):
        import numpy as np

        row = row_from_unit(np.asarray(unit, dtype=np.float64))
        from repro.tuners.base import config_from_row

        assert_config_in_bounds(config_from_row(row))

    def test_default_row_round_trip(self):
        import numpy as np

        row = row_from_unit(unit_from_row(DEFAULT_ROW))
        # Floats re-interpolate through log space (tiny ulp drift is
        # fine); int and bool dimensions must come back exactly.
        assert np.allclose(row, DEFAULT_ROW, rtol=1e-12, atol=1e-12)
        for position, spec in enumerate(CONFIGURATION_SPACE):
            if spec.kind in ("int", "bool"):
                assert row[position] == DEFAULT_ROW[position]


class TestFactory:
    def test_every_name_resolves(self, cluster):
        for name in TUNER_NAMES:
            tuner = make_tuner(name, WhatIfEngine(cluster), seed=1)
            assert tuner.name == name
            assert isinstance(tuner, Tuner)

    def test_unknown_name_rejected(self, cluster):
        with pytest.raises(ValueError, match="unknown tuner"):
            make_tuner("annealing", WhatIfEngine(cluster))

    def test_budgets_reach_constructors(self, cluster):
        tuner = make_tuner(
            "surrogate", WhatIfEngine(cluster), budgets={"surrogate": {"rounds": 3}}
        )
        assert tuner.rounds == 3


class TestDeterminism:
    """Same seed, same profile → bit-identical decision, every member."""

    @_settings
    @given(
        name=st.sampled_from(TUNER_NAMES),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_rerun_bit_identical(self, cluster, wc_profile, name, seed):
        def decide():
            tuner = make_tuner(
                name, WhatIfEngine(cluster), seed=seed, budgets=BUDGETS
            )
            return tuner.optimize(wc_profile, data_bytes=256 * MB)

        assert _decision_key(decide()) == _decision_key(decide())

    def test_league_rerun_byte_identical(self, tmp_path):
        entries = quick_entries()[:2]

        def race(workers):
            config = LeagueConfig(
                seed=11, quick=True, entries=entries, workers=workers
            )
            return leaderboard_json(run_league(config))

        assert race(1) == race(1)

    def test_league_worker_count_invisible(self):
        entries = quick_entries()[:2]

        def race(workers):
            config = LeagueConfig(
                seed=11, quick=True, entries=entries, workers=workers
            )
            return leaderboard_json(run_league(config))

        assert race(1) == race(3)


class TestBounds:
    """Iterative tuners never price an out-of-bounds configuration."""

    @_settings
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_surrogate_history_in_bounds(self, cluster, wc_profile, seed):
        tuner = SurrogateTuner(
            WhatIfEngine(cluster),
            initial_samples=4,
            rounds=3,
            candidate_pool=32,
            seed=seed,
        )
        decision = tuner.optimize(wc_profile, data_bytes=256 * MB)
        assert decision.history
        for config, __ in decision.history:
            assert_config_in_bounds(config)
        assert_config_in_bounds(decision.best_config)

    def test_best_never_worse_than_default(self, cluster, wc_profile):
        tuner = make_tuner(
            "surrogate", WhatIfEngine(cluster), seed=2, budgets=BUDGETS
        )
        decision = tuner.optimize(wc_profile, data_bytes=256 * MB)
        assert decision.predicted_runtime <= decision.default_predicted_runtime


class TestAdapters:
    def test_cbo_adapter_bit_identical_to_direct_call(self, cluster, wc_profile):
        """The acceptance bar: adapting the CBO changes nothing."""
        whatif = WhatIfEngine(cluster)
        direct = CostBasedOptimizer(
            whatif, seed=9, **QUICK_BUDGETS["cbo"]
        ).optimize(wc_profile, data_bytes=256 * MB)
        adapted = CboTuner(
            CostBasedOptimizer(whatif, seed=9, **QUICK_BUDGETS["cbo"])
        ).optimize(wc_profile, data_bytes=256 * MB)
        assert adapted.best_config == direct.best_config
        assert adapted.predicted_runtime == direct.predicted_runtime
        assert (
            adapted.default_predicted_runtime
            == direct.default_predicted_runtime
        )
        assert adapted.evaluations == direct.evaluations

    def test_rbo_adapter_carries_rule_config(self, cluster, wc_profile):
        whatif = WhatIfEngine(cluster)
        rules = RuleBasedOptimizer(cluster)
        decision = make_tuner("rbo", whatif, cluster=cluster).optimize(
            wc_profile, data_bytes=256 * MB
        )
        assert decision.best_config == rules.recommend(wc_profile).config
        assert decision.evaluations == 2


class TestMetrics:
    def test_search_recorded(self, cluster, wc_profile):
        registry = MetricsRegistry()
        tuner = make_tuner(
            "surrogate",
            WhatIfEngine(cluster),
            seed=0,
            budgets=BUDGETS,
            registry=registry,
        )
        decision = tuner.optimize(wc_profile, data_bytes=256 * MB)
        labels = {"tuner": "surrogate"}
        assert registry.counter("tuner_optimizations_total", labels=labels).value == 1
        evaluations = registry.histogram("tuner_evaluations", labels=labels)
        assert evaluations.count == 1
        assert evaluations.sum == decision.evaluations


class TestObjective:
    def test_counts_and_memoizes(self, cluster, wc_profile):
        objective = WhatIfObjective(
            WhatIfEngine(cluster), wc_profile, data_bytes=256 * MB
        )
        first = objective(DEFAULT_ROW)
        again = objective(DEFAULT_ROW)
        assert first == again
        # Every candidate counts toward the budget (the CBO's own
        # convention); the memo hit is tracked separately and the
        # duplicate never re-enters the history.
        assert objective.evaluations == 2
        assert objective.memo_hits == 1
        assert len(objective.history) == 1


class TestLeaguePayload:
    def test_well_formed(self):
        entries = quick_entries()[:2]
        payload = run_league(
            LeagueConfig(seed=5, quick=True, entries=entries)
        )
        assert payload["config"]["tuners"] == list(TUNER_NAMES)
        ranks = [row["rank"] for row in payload["leaderboard"]]
        assert ranks == list(range(1, len(TUNER_NAMES) + 1))
        for name in TUNER_NAMES:
            assert set(payload["cells"][name]) == {e.key for e in entries}
            row = payload["tuners"][name]
            assert row["total_evaluations"] > 0
            assert row["mean_speedup"] >= 1.0

    def test_roster_subset_and_validation(self):
        entries = quick_entries()[:1]
        payload = run_league(
            LeagueConfig(seed=5, quick=True, entries=entries, tuners=("rbo", "cbo"))
        )
        assert list(payload["cells"]) == ["rbo", "cbo"]
        with pytest.raises(ValueError, match="unknown tuners"):
            LeagueConfig(tuners=("cbo", "annealing"))
        with pytest.raises(ValueError, match="at least one"):
            LeagueConfig(tuners=())


class TestPStorMIntegration:
    def _pipeline(self, cluster, tuner):
        return PStorM(HadoopEngine(cluster), seed=3, tuner=tuner)

    def _workload(self):
        job = MapReduceJob(
            name="pstorm-tuner-wc", mapper=wc_map, reducer=wc_reduce,
            combiner=wc_reduce,
        )
        dataset = Dataset(
            "pstorm-tuner-text",
            nominal_bytes=256 * MB,
            source=FunctionRecordSource(_text_lines),
            seed=5,
        )
        return job, dataset

    def test_default_tuner_is_cbo_and_bit_identical(self, cluster):
        job, dataset = self._workload()
        results = []
        for pipeline in (
            PStorM(HadoopEngine(cluster), seed=3),
            self._pipeline(cluster, "cbo"),
        ):
            assert pipeline.tuner_impl.name == "cbo"
            pipeline.remember(job, dataset, seed=3)
            results.append(pipeline.submit(job, dataset, seed=3))
        first, second = results
        assert first.matched and second.matched
        assert first.config == second.config
        assert first.runtime_seconds == second.runtime_seconds

    @pytest.mark.parametrize("tuner", ["rbo", "surrogate"])
    def test_alternate_tuners_complete(self, cluster, tuner):
        job, dataset = self._workload()
        pipeline = self._pipeline(cluster, tuner)
        pipeline.remember(job, dataset, seed=3)
        result = pipeline.submit(job, dataset, seed=3)
        assert result.matched
        assert result.runtime_seconds > 0
        assert_config_in_bounds(result.config)

    def test_unknown_tuner_rejected(self, cluster):
        with pytest.raises(ValueError, match="unknown tuner"):
            PStorM(HadoopEngine(cluster), tuner="annealing")
