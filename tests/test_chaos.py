"""Chaos suite: fault plans, the injector, retries, and graceful degradation.

The three load-bearing properties (asserted with Hypothesis):

1. A seeded plan is deterministic — the same operation sequence suffers
   the identical fault sequence.
2. The retry layer never exceeds its attempt or deadline budgets.
3. ``PStorM.submit`` returns a completed :class:`SubmissionResult` under
   *any* store outage, and the same seed reproduces the same outcome.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos import (
    PRESETS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    ServerCrash,
    StoreUnavailableError,
    VirtualClock,
    call_with_retry,
    crash_point_plan,
    default_injector,
    flaky_plan,
    outage_plan,
    plan_from_spec,
    replica_kill_plan,
    rolling_restart_plan,
    set_default_injector,
    slow_plan,
    worker_kill_plan,
)
from repro.core import PStorM, ProfileStore, ResilientProfileStore, SubmissionResult
from repro.hbase.errors import (
    ServerUnavailableError,
    TableNotFoundError,
    TransientError,
)
from repro.observability import MetricsRegistry


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(op="write")
        with pytest.raises(ValueError):
            FaultSpec(kind="explode")
        with pytest.raises(ValueError):
            FaultSpec(probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(delay_seconds=-1)
        with pytest.raises(ValueError):
            FaultSpec(start_after=-1)
        with pytest.raises(ValueError):
            FaultSpec(start_after=5, stop_after=5)

    def test_applies_matches_op_window_and_server(self):
        spec = FaultSpec(op="scan", start_after=10, stop_after=20, server_id=1)
        assert spec.applies("scan", 1, 10)
        assert spec.applies("scan", 1, 19)
        assert not spec.applies("scan", 1, 9)
        assert not spec.applies("scan", 1, 20)
        assert not spec.applies("put", 1, 15)
        assert not spec.applies("scan", 0, 15)

    def test_wildcard_op_matches_everything(self):
        spec = FaultSpec(op="*")
        for op in ("put", "get", "scan"):
            assert spec.applies(op, None, 0)


class TestServerCrash:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServerCrash(server_id=-1, crash_at=0)
        with pytest.raises(ValueError):
            ServerCrash(server_id=0, crash_at=-1)
        with pytest.raises(ValueError):
            ServerCrash(server_id=0, crash_at=0, downtime=0)

    def test_window_covers_half_open_interval(self):
        crash = ServerCrash(server_id=2, crash_at=5, downtime=3)
        assert not crash.covers(2, 4)
        assert crash.covers(2, 5)
        assert crash.covers(2, 7)
        assert not crash.covers(2, 8)  # recovered
        assert not crash.covers(1, 6)  # other server

    def test_none_downtime_never_recovers(self):
        crash = ServerCrash(server_id=0, crash_at=3, downtime=None)
        assert crash.covers(0, 10_000)


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan(
            seed=7,
            faults=(FaultSpec(op="scan", kind="slow", delay_seconds=0.2),),
            crashes=(ServerCrash(server_id=0, crash_at=10, downtime=5),),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_lists_coerced_to_tuples(self):
        plan = FaultPlan(faults=[FaultSpec()], crashes=[])
        assert isinstance(plan.faults, tuple)
        assert isinstance(plan.crashes, tuple)

    def test_presets_cover_cli_vocabulary(self):
        assert plan_from_spec("flaky", seed=3) == flaky_plan(3)
        assert plan_from_spec("flaky:0.5", seed=3) == flaky_plan(3, probability=0.5)
        assert plan_from_spec("outage") == outage_plan(0)
        assert plan_from_spec("slow:0.2") == slow_plan(0, delay_seconds=0.2)
        assert plan_from_spec("rolling-restart:25") == rolling_restart_plan(
            0, period=25
        )
        assert plan_from_spec("crash-point:37") == crash_point_plan(at=37)
        assert plan_from_spec("worker-kill:2") == worker_kill_plan(at=2)
        assert plan_from_spec("replica-kill") == replica_kill_plan(server_id=1)
        assert plan_from_spec("replica-kill:0") == replica_kill_plan(
            server_id=0
        )
        assert set(PRESETS) == {
            "flaky", "outage", "slow", "rolling-restart", "crash-point",
            "worker-kill", "replica-kill",
        }

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos preset"):
            plan_from_spec("meltdown")

    def test_spec_loads_json_plan_file(self, tmp_path):
        plan = outage_plan(seed=9)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert plan_from_spec(str(path)) == plan

    def test_plan_document_is_plain_json(self):
        payload = json.loads(flaky_plan(1, probability=0.25).to_json())
        assert payload["seed"] == 1
        assert payload["faults"][0]["probability"] == 0.25


# ----------------------------------------------------------------------
# Injector
# ----------------------------------------------------------------------
def _drive(injector, ops):
    """Run an op sequence, recording what the injector did to each."""
    outcomes = []
    for op, server_id in ops:
        before = injector.clock.now()
        try:
            injector.on_operation(op, server_id=server_id)
        except TransientError:
            outcomes.append("transient")
        except ServerUnavailableError:
            outcomes.append("unavailable")
        else:
            delayed = injector.clock.now() > before
            outcomes.append("slow" if delayed else "ok")
    return outcomes


class TestFaultInjector:
    def test_certain_fault_always_fires(self):
        injector = FaultInjector(outage_plan(), registry=MetricsRegistry())
        for __ in range(5):
            with pytest.raises(ServerUnavailableError):
                injector.on_operation("scan")
        injector.on_operation("put")  # puts survive an outage plan
        assert injector.summary() == {"scan/unavailable": 5}
        assert injector.operations_seen == 6

    def test_crash_window_hits_only_target_server(self):
        plan = FaultPlan(crashes=(ServerCrash(server_id=1, crash_at=0, downtime=2),))
        injector = FaultInjector(plan, registry=MetricsRegistry())
        with pytest.raises(ServerUnavailableError):
            injector.on_operation("get", server_id=1)  # op 0: down
        injector.on_operation("get", server_id=0)  # op 1: other server fine
        injector.on_operation("get", server_id=1)  # op 2: recovered
        assert injector.summary() == {"get/crash": 1}

    def test_slow_fault_advances_virtual_clock(self):
        injector = FaultInjector(
            slow_plan(delay_seconds=0.25), registry=MetricsRegistry()
        )
        injector.on_operation("scan")
        injector.on_operation("put")  # unaffected
        assert injector.clock.now() == pytest.approx(0.25)
        assert injector.summary() == {"scan/slow": 1}

    def test_reset_rewinds_to_initial_state(self):
        injector = FaultInjector(
            flaky_plan(seed=5, probability=0.5), registry=MetricsRegistry()
        )
        ops = [("put", None)] * 40
        first = _drive(injector, ops)
        injector.reset()
        assert injector.operations_seen == 0
        assert injector.injected == {}
        assert _drive(injector, ops) == first

    @given(
        seed=st.integers(0, 2**16),
        probability=st.floats(0.0, 1.0),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "scan"]),
                st.one_of(st.none(), st.integers(0, 2)),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_seeded_plan_is_deterministic(self, seed, probability, ops):
        """Property 1: same plan + same op sequence -> same fault sequence."""
        plan = FaultPlan(
            seed=seed,
            faults=(
                FaultSpec(op="*", kind="transient", probability=probability),
                FaultSpec(op="scan", kind="slow", probability=0.5,
                          delay_seconds=0.01),
            ),
            crashes=(ServerCrash(server_id=2, crash_at=10, downtime=5),),
        )
        registry = MetricsRegistry()
        a = FaultInjector(plan, registry=registry)
        b = FaultInjector(plan, registry=registry)
        assert _drive(a, ops) == _drive(b, ops)
        assert a.summary() == b.summary()
        assert a.clock.now() == b.clock.now()


# ----------------------------------------------------------------------
# Retry layer
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_seconds=0)

    def test_backoff_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=0.05)
        assert [policy.backoff(i) for i in range(5)] == pytest.approx(
            [0.01, 0.02, 0.04, 0.05, 0.05]
        )
        with pytest.raises(ValueError):
            policy.backoff(-1)


class TestVirtualClock:
    def test_advances_monotonically(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == pytest.approx(2.0)
        with pytest.raises(ValueError):
            clock.advance(-0.1)


class TestCallWithRetry:
    def test_transient_errors_are_retried_to_success(self):
        attempts = []

        def fn():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientError("blip")
            return "ok"

        clock = VirtualClock()
        result = call_with_retry(
            fn, RetryPolicy(), clock, op="get", registry=MetricsRegistry()
        )
        assert result == "ok"
        assert len(attempts) == 3
        # Two backoffs were waited out on the virtual clock.
        assert clock.now() == pytest.approx(0.01 + 0.02)

    def test_gives_up_with_store_unavailable(self):
        def fn():
            raise ServerUnavailableError("down")

        with pytest.raises(StoreUnavailableError) as excinfo:
            call_with_retry(
                fn, RetryPolicy(max_attempts=3), VirtualClock(), op="scan",
                registry=MetricsRegistry(),
            )
        err = excinfo.value
        assert err.op == "scan"
        assert err.attempts == 3
        assert isinstance(err.last_error, ServerUnavailableError)
        assert err.__cause__ is err.last_error

    def test_non_retryable_errors_propagate_immediately(self):
        calls = []

        def fn():
            calls.append(1)
            raise TableNotFoundError("no such table")

        with pytest.raises(TableNotFoundError):
            call_with_retry(
                fn, RetryPolicy(), VirtualClock(), registry=MetricsRegistry()
            )
        assert len(calls) == 1

    def test_store_unavailable_is_not_retryable(self):
        # The give-up signal must never feed a second retry loop.
        calls = []

        def fn():
            calls.append(1)
            raise StoreUnavailableError("put", attempts=4, elapsed_seconds=1.0)

        with pytest.raises(StoreUnavailableError):
            call_with_retry(
                fn, RetryPolicy(), VirtualClock(), registry=MetricsRegistry()
            )
        assert len(calls) == 1

    def test_retry_metrics_counted(self):
        registry = MetricsRegistry()

        def fn():
            raise TransientError("blip")

        with pytest.raises(StoreUnavailableError):
            call_with_retry(
                fn, RetryPolicy(max_attempts=4), VirtualClock(), op="put",
                registry=registry,
            )
        counters = {
            (inst.name, tuple(sorted(inst.labels.items()))): inst.value
            for inst in registry.collect()
            if inst.kind == "counter"
        }
        assert counters[
            ("pstorm_store_retryable_errors_total", (("op", "put"),))
        ] == 4
        assert counters[("pstorm_store_retries_total", (("op", "put"),))] == 3
        assert counters[("pstorm_store_giveups_total", (("op", "put"),))] == 1

    @given(
        max_attempts=st.integers(1, 6),
        base_delay=st.floats(0.001, 0.5),
        multiplier=st.floats(1.0, 3.0),
        deadline=st.floats(0.01, 2.0),
        fail_count=st.integers(0, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_budgets_are_never_exceeded(
        self, max_attempts, base_delay, multiplier, deadline, fail_count
    ):
        """Property 2: attempts <= max_attempts and the clock never
        sleeps past the deadline, whatever the failure pattern."""
        policy = RetryPolicy(
            max_attempts=max_attempts, base_delay=base_delay,
            multiplier=multiplier, deadline_seconds=deadline,
        )
        clock = VirtualClock()
        calls = []

        def fn():
            calls.append(1)
            if len(calls) <= fail_count:
                raise TransientError("blip")
            return "ok"

        try:
            call_with_retry(
                fn, policy, clock, op="x", registry=MetricsRegistry()
            )
        except StoreUnavailableError as exc:
            assert exc.attempts <= max_attempts
        assert len(calls) <= max_attempts
        assert clock.now() <= deadline + 1e-9


# ----------------------------------------------------------------------
# Resilient store client
# ----------------------------------------------------------------------
class TestResilientProfileStore:
    def test_retries_transient_faults_transparently(self):
        # Half the substrate operations fail; the client must hide it.
        injector = FaultInjector(
            flaky_plan(seed=1, probability=0.5), registry=MetricsRegistry()
        )
        store = ProfileStore(chaos=injector, registry=MetricsRegistry())
        resilient = ResilientProfileStore(
            store, policy=RetryPolicy(max_attempts=10, deadline_seconds=100.0)
        )
        assert resilient.job_ids() == []
        assert len(resilient) == 0
        assert "nope" not in resilient
        assert injector.injected  # chaos actually fired

    def test_shares_injector_clock(self):
        injector = FaultInjector(outage_plan(), registry=MetricsRegistry())
        store = ProfileStore(chaos=injector, registry=MetricsRegistry())
        resilient = ResilientProfileStore(store)
        assert resilient.clock is injector.clock

    def test_delegates_unwrapped_attributes(self):
        store = ProfileStore(registry=MetricsRegistry())
        resilient = ResilientProfileStore(store)
        assert resilient.hbase is store.hbase
        assert resilient.pushdown is store.pushdown

    def test_exhausted_budget_surfaces_store_unavailable(self):
        plan = FaultPlan(faults=(FaultSpec(op="get", kind="transient"),))
        injector = FaultInjector(plan, registry=MetricsRegistry())
        store = ProfileStore(chaos=injector, registry=MetricsRegistry())
        resilient = ResilientProfileStore(store, policy=RetryPolicy(max_attempts=2))
        with pytest.raises(StoreUnavailableError):
            resilient.get_profile("missing")

    def test_scan_job_ids_survives_mid_scan_faults(
        self, engine, profiler, sampler, wordcount, maponly_job, small_text
    ):
        from repro.core.features import extract_job_features
        from repro.core.store import DYNAMIC_PREFIX

        def populate(store):
            ids = []
            for job in (wordcount, maponly_job):
                profile, __ = profiler.profile_job(job, small_text)
                sample = sampler.collect(job, small_text, count=1)
                features = extract_job_features(
                    job, small_text, sample.profile, engine
                )
                ids.append(store.put(profile, features.static))
            return ids

        # Rehearse the identical put sequence against an empty plan to
        # learn the op index where the probe scan starts, then open a
        # two-op transient window right there: the first two scan
        # attempts die mid-probe and the third replays cleanly.
        rehearsal = FaultInjector(FaultPlan(), registry=MetricsRegistry())
        clean_store = ProfileStore(chaos=rehearsal, registry=MetricsRegistry())
        expected = sorted(populate(clean_store))
        fault_at = rehearsal.operations_seen
        assert clean_store.scan_job_ids(DYNAMIC_PREFIX) == expected

        plan = FaultPlan(
            faults=(
                FaultSpec(
                    op="scan",
                    kind="transient",
                    start_after=fault_at,
                    stop_after=fault_at + 2,
                ),
            )
        )
        injector = FaultInjector(plan, registry=MetricsRegistry())
        store = ProfileStore(chaos=injector, registry=MetricsRegistry())
        populate(store)
        resilient = ResilientProfileStore(
            store, policy=RetryPolicy(max_attempts=6, deadline_seconds=100.0)
        )
        assert resilient.scan_job_ids(DYNAMIC_PREFIX) == expected
        assert injector.summary() == {"scan/transient": 2}


# ----------------------------------------------------------------------
# PStorM degradation (the acceptance scenario)
# ----------------------------------------------------------------------
def _chaotic_pstorm(engine, plan, registry=None):
    """A PStorM whose store substrate runs under *plan*."""
    registry = registry if registry is not None else MetricsRegistry()
    injector = FaultInjector(plan, registry=registry)
    store = ProfileStore(chaos=injector, registry=registry)
    daemon = PStorM(engine, store=store, registry=registry)
    return daemon, injector


class TestGracefulDegradation:
    def test_submit_completes_under_total_scan_outage(
        self, engine, wordcount, small_text
    ):
        # Puts survive the outage plan, so the store has content and the
        # probe genuinely reaches (and loses) the scan stage.
        daemon, injector = _chaotic_pstorm(engine, outage_plan(seed=0))
        daemon.remember(wordcount, small_text)
        result = daemon.submit(wordcount, small_text)
        assert isinstance(result, SubmissionResult)
        assert result.degraded
        assert result.degradation_reason == "store-probe"
        assert result.fallback_path == "rbo"
        assert not result.matched
        assert result.outcome.map_match.stage == "store-unavailable"
        assert result.runtime_seconds > 0
        # The match-index rebuild's 4 retried attempts under the default
        # budget; the submission degrades without reaching a scan stage.
        assert injector.summary() == {"scan/unavailable": 4}

    def test_downgrade_visible_in_exported_metrics(
        self, engine, wordcount, small_text
    ):
        registry = MetricsRegistry()
        daemon, __ = _chaotic_pstorm(engine, outage_plan(seed=0), registry)
        daemon.remember(wordcount, small_text)
        result = daemon.submit(wordcount, small_text)
        counters = result.metrics["counters"]
        assert counters['pstorm_degraded_submissions_total{reason="store-probe"}'] == 1
        assert counters['pstorm_fallback_total{path="rbo"}'] == 1
        assert counters['pstorm_store_giveups_total{op="scan"}'] == 1
        assert any(key.startswith("chaos_faults_injected_total") for key in counters)

    def test_same_seed_reproduces_identical_outcome(
        self, engine, wordcount, small_text
    ):
        outcomes = []
        for __ in range(2):
            daemon, injector = _chaotic_pstorm(
                engine, flaky_plan(seed=11, probability=0.4)
            )
            try:
                daemon.remember(wordcount, small_text, seed=2)
                remembered = True
            except StoreUnavailableError:
                remembered = False
            result = daemon.submit(wordcount, small_text, seed=2)
            outcomes.append(
                (
                    remembered,
                    result.matched,
                    result.degraded,
                    result.fallback_path,
                    result.config,
                    result.runtime_seconds,
                    injector.summary(),
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_store_put_failure_degrades_miss_path(
        self, engine, wordcount, small_text
    ):
        # Every put fails: the probe (scans on an empty store never run)
        # misses cleanly, then the profile write exhausts its budget.
        plan = FaultPlan(faults=(FaultSpec(op="put", kind="transient"),))
        daemon, __ = _chaotic_pstorm(engine, plan)
        result = daemon.submit(wordcount, small_text)
        assert result.degraded
        assert result.degradation_reason == "store-put"
        assert result.fallback_path is None  # the job already ran normally
        assert result.profile_stored_as is None
        assert result.runtime_seconds > 0

    def test_remember_propagates_store_unavailable(
        self, engine, wordcount, small_text
    ):
        plan = FaultPlan(faults=(FaultSpec(op="put", kind="transient"),))
        daemon, __ = _chaotic_pstorm(engine, plan)
        with pytest.raises(StoreUnavailableError):
            daemon.remember(wordcount, small_text)

    def test_healthy_store_is_not_degraded(self, engine, wordcount, small_text):
        daemon = PStorM(engine, registry=MetricsRegistry())
        daemon.remember(wordcount, small_text)
        result = daemon.submit(wordcount, small_text)
        assert result.matched
        assert not result.degraded
        assert result.degradation_reason is None

    @given(
        kind=st.sampled_from(["transient", "unavailable"]),
        probability=st.floats(0.5, 1.0),
        seed=st.integers(0, 1000),
    )
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_submit_always_returns_under_any_outage(
        self, engine, wordcount, small_text, kind, probability, seed
    ):
        """Property 3: whatever the store suffers, submission completes."""
        plan = FaultPlan(
            seed=seed,
            faults=(FaultSpec(op="*", kind=kind, probability=probability),),
        )
        daemon, __ = _chaotic_pstorm(engine, plan)
        result = daemon.submit(wordcount, small_text, seed=1)
        assert isinstance(result, SubmissionResult)
        assert result.runtime_seconds > 0
        assert result.config is not None


# ----------------------------------------------------------------------
# The process-default injector (the CLI's --chaos mechanism)
# ----------------------------------------------------------------------
class TestDefaultInjector:
    def test_substrates_pick_up_the_default(self):
        injector = FaultInjector(outage_plan(), registry=MetricsRegistry())
        previous = set_default_injector(injector)
        try:
            store = ProfileStore(registry=MetricsRegistry())
            assert store.hbase.chaos is injector
        finally:
            set_default_injector(previous)

    def test_no_default_means_no_chaos(self):
        assert default_injector() is None
        store = ProfileStore(registry=MetricsRegistry())
        assert store.hbase.chaos is None

    def test_explicit_injector_wins_over_default(self):
        plan = FaultPlan()
        mine = FaultInjector(plan, registry=MetricsRegistry())
        other = FaultInjector(plan, registry=MetricsRegistry())
        previous = set_default_injector(other)
        try:
            store = ProfileStore(chaos=mine, registry=MetricsRegistry())
            assert store.hbase.chaos is mine
        finally:
            set_default_injector(previous)
