"""The benchmark's three workloads, driven through the public API.

Each workload does fixed, seeded work: set-up builds its state from
nothing, then the driver runs whole passes over a fixed op list.  The
``--seed`` only permutes the order ops arrive in within a pass; what is
stored, what is submitted and every per-job execution seed are fixed
constants, so the work, the results digest, ``tuned_speedup`` and
``hit_share`` are the same for every seed.

- ``submit_unseen``: ``PStorM.submit`` of the held-out half of Table 6.1
  against an in-memory store of the profiled other half, with the
  engine's measurement caches cleared before each pass (every submission
  runs its user map/reduce code) — the paper's never-seen-job case.
- ``submit_large_store``: the same submissions with a warm engine against
  ~4k stored profiles (the real half plus jittered copies), so the Fig
  4.4 probe does real work and the simulator mostly re-prices.
- ``store_churn``: a durable ``ProfileStore`` prefilled with real and
  jittered profiles, then one ``put`` of a fresh jittered profile per
  four ``ProfileMatcher.match_job`` probes; no simulator runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.matcher import ProfileMatcher
from repro.core.pstorm import PStorM
from repro.core.store import TABLE_NAME, ProfileStore
from repro.experiments.common import ExperimentContext, SuiteRecord, collect_suite
from repro.hadoop.cluster import ec2_cluster
from repro.hadoop.config import JobConfiguration
from repro.hadoop.engine import HadoopEngine
from repro.starfish.profile import JobProfile
from repro.workloads.benchmark import BenchmarkEntry, standard_benchmark

from harness import jittered_copies

#: Which half of Table 6.1 is stored and which is submitted.  Fixed, not
#: taken from ``--seed``: the job mix sets the per-op cost, and a mix
#: that changed with the seed would swamp the machine's own noise.
SPLIT_SEED = 2014
#: Seed of the jittered copies (content, so fixed for the same reason).
JITTER_SEED = 14
#: Seed handed to ``PStorM`` (its CBO search).
PSTORM_SEED = 0
#: Jittered copies stored beside the real half in ``submit_large_store``.
LARGE_STORE_COPIES = 4068
#: Profiles in the durable store before ``store_churn``'s first op.
CHURN_PREFILL = 150
#: ``store_churn`` op list: puts per pass, and probes after each put.
#: 7 x 4 = 28, the stored half's size: a pass probes every stored job
#: once, so the seed changes only the order, never the mix.
CHURN_PUTS_PER_PASS = 7
CHURN_PROBES_PER_PUT = 4


def split_suite() -> tuple[list[tuple[int, BenchmarkEntry]], list[tuple[int, BenchmarkEntry]]]:
    """``(stored, held_out)`` halves of Table 6.1, as ``(suite index,
    entry)`` pairs; the suite index is each entry's execution seed."""
    entries = list(enumerate(standard_benchmark()))
    order = list(range(len(entries)))
    random.Random(SPLIT_SEED).shuffle(order)
    half = len(entries) // 2
    stored = [entries[i] for i in sorted(order[:half])]
    held = [entries[i] for i in sorted(order[half:])]
    return stored, held


def profile_half(
    entries: list[tuple[int, BenchmarkEntry]], tick: Callable[[], None]
) -> tuple[dict[str, SuiteRecord], HadoopEngine]:
    """Full profile, 1-task sample and features of each entry, on a
    fresh engine (one measurement thread), one entry per chunk; returns
    the records and the engine whose caches now hold these entries.

    ``collect_suite(entries)`` seeds entry *i* with ``seed + i``; passing
    ``seed=i`` per entry profiles exactly the same runs.
    """
    ctx = ExperimentContext.create(seed=0, workers=1)
    records: dict[str, SuiteRecord] = {}
    for index, (__, entry) in enumerate(entries):
        records.update(collect_suite(ctx, [entry], seed=index, workers=1))
        tick()
    return records, ctx.engine


def results_digest(results: dict[str, dict[str, Any]]) -> str:
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def geometric_mean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Op:
    """One timed operation: ``run`` returns whether its output checked."""

    kind: str
    run: Callable[[], bool]


@dataclass
class Workload:
    """Common shape: set up, list a pass's ops, check, score quality."""

    seed: int
    out_dir: Path
    #: Timed passes this process will make (set-up may size inputs by it).
    passes: int
    #: Store-probe latencies (seconds) observed since the last reset.
    read_latencies: list[float] = field(default_factory=list)
    #: Store probes made and how many found a profile.
    probes: int = 0
    hits: int = 0
    #: Correctness problems found so far (empty means correct).
    problems: list[str] = field(default_factory=list)

    name = "workload"

    def set_up(self, tick: Callable[[], None]) -> None:
        """Build the workload's state from nothing, calling *tick*
        between chunks of work so the machine's speed can be sampled."""
        raise NotImplementedError

    def before_pass(self, pass_index: int) -> None:
        """Untimed per-pass preparation."""

    def pass_ops(self, pass_index: int) -> list[Op]:
        raise NotImplementedError

    def after_pass(self, pass_index: int) -> None:
        """Untimed per-pass checks."""

    def finish(self) -> None:
        """Post-run output checks."""
        raise NotImplementedError

    def tuned_speedup(self) -> float:
        """Geometric mean over the workload's jobs of simulated runtime
        under the default configuration over runtime under the one
        PStorM chose; computed after the timed passes."""
        raise NotImplementedError

    def results_digest(self) -> str | None:
        """Digest of the op results, equal in every process (or None)."""
        return None

    def bytes_per_user_byte(self) -> float:
        """Bytes on disk per JSON byte of the profiles put (0 in memory)."""
        return 0.0

    def close(self) -> None:
        """Release what set-up created."""

    def _order(self, count: int, pass_index: int) -> list[int]:
        order = list(range(count))
        random.Random(self.seed * 1_000_003 + pass_index).shuffle(order)
        return order

    def _timed_probe(self, matcher: ProfileMatcher) -> Callable[..., Any]:
        """``matcher.match_job`` with its wall time recorded.  The class
        attribute is looked up per call so the traced run's span wrapper
        on ``ProfileMatcher.match_job`` still applies."""

        def probe(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            outcome = type(matcher).match_job(matcher, *args, **kwargs)
            self.read_latencies.append(time.perf_counter() - start)
            self.probes += 1
            self.hits += bool(outcome.matched)
            return outcome

        return probe


class SubmitWorkload(Workload):
    """``PStorM.submit`` of the held-out half of Table 6.1."""

    name = "submit_unseen"
    #: Stored jittered copies beside the real half.
    copies = 0
    #: Clear the engine's measurement caches before every pass.
    cold_engine = True

    def set_up(self, tick: Callable[[], None]) -> None:
        stored, self.held = split_suite()
        records, __ = profile_half(stored, tick)
        store = ProfileStore()
        for key, record in records.items():
            store.put(record.full_profile, record.static, job_id=key)
        sources = [(key, r.full_profile.to_dict()) for key, r in records.items()]
        copies = jittered_copies(sources, self.copies, JITTER_SEED, "jit")
        for n, (job_id, source, payload) in enumerate(copies, 1):
            store.put(JobProfile.from_dict(payload), records[source].static, job_id)
            if n % 100 == 0:
                tick()
        self.engine = HadoopEngine(ec2_cluster(), measurement_workers=1)
        self.pstorm = PStorM(self.engine, store=store, seed=PSTORM_SEED)
        self.pstorm.matcher.match_job = self._timed_probe(self.pstorm.matcher)
        self.digests: list[str] = []
        self.last_results: dict[str, dict[str, Any]] = {}

    def before_pass(self, pass_index: int) -> None:
        if self.cold_engine:
            self.engine.clear_caches()
        self.pass_results: dict[str, dict[str, Any]] = {}

    def pass_ops(self, pass_index: int) -> list[Op]:
        return [
            Op("submit", self._submit_op(*self.held[i]))
            for i in self._order(len(self.held), pass_index)
        ]

    def _submit_op(self, run_seed: int, entry: BenchmarkEntry) -> Callable[[], bool]:
        def run() -> bool:
            result = self.pstorm.submit(entry.job, entry.dataset, seed=run_seed)
            if result.degraded:
                return False
            wire = result.to_dict()
            self.pass_results[entry.key] = wire
            return JobConfiguration.from_dict(wire["config"]) == result.config

        return run

    def after_pass(self, pass_index: int) -> None:
        self.digests.append(results_digest(self.pass_results))
        self.last_results = self.pass_results

    def finish(self) -> None:
        if len(set(self.digests)) != 1:
            self.problems.append(
                f"results digest differs across passes: {sorted(set(self.digests))}"
            )
        if len(self.last_results) != len(self.held):
            self.problems.append("a submission produced no result")

    def results_digest(self) -> str | None:
        return self.digests[0]

    def tuned_speedup(self) -> float:
        speedups = []
        for run_seed, entry in self.held:
            default = self.engine.run_job(
                entry.job, entry.dataset, JobConfiguration(), seed=run_seed
            ).runtime_seconds
            tuned = self.last_results[entry.key]["execution"]["runtime_seconds"]
            speedups.append(default / tuned)
        return geometric_mean(speedups)


class LargeStoreWorkload(SubmitWorkload):
    """The same submissions, warm engine, ~4k stored profiles."""

    name = "submit_large_store"
    copies = LARGE_STORE_COPIES
    cold_engine = False


class ChurnWorkload(Workload):
    """Durable store: one put of a fresh profile per four probes."""

    name = "store_churn"

    def set_up(self, tick: Callable[[], None]) -> None:
        stored, __ = split_suite()
        self.stored = stored
        records, self.profiling_engine = profile_half(stored, tick)
        self.records = records
        self.data_dir = self.out_dir / f"store_churn-{os.getpid()}"
        self.store = ProfileStore(data_dir=self.data_dir)
        sources = [(key, r.full_profile.to_dict()) for key, r in records.items()]
        #: Every acknowledged put: job id -> (static source key, payload).
        self.acked: dict[str, dict[str, Any]] = {}
        self.user_bytes = 0
        for key, record in records.items():
            self._put(key, key, record.full_profile.to_dict())
        prefill = jittered_copies(sources, CHURN_PREFILL - len(records), JITTER_SEED, "pre")
        for n, (job_id, source, payload) in enumerate(prefill, 1):
            self._put(job_id, source, payload)
            if n % 10 == 0:
                tick()
        fresh = (self.passes + 1) * CHURN_PUTS_PER_PASS
        self.fresh = jittered_copies(sources, fresh, JITTER_SEED + 1, "new")
        self.next_fresh = 0
        self.matcher = ProfileMatcher(self.store)
        self.probe = self._timed_probe(self.matcher)
        self.probe_features = [records[entry.key].features for __, entry in stored]

    def _put(self, job_id: str, source: str, payload: dict[str, Any]) -> bool:
        profile = JobProfile.from_dict(payload)
        stored_id = self.store.put(profile, self.records[source].static, job_id=job_id)
        if stored_id != job_id:
            return False
        self.acked[job_id] = profile.to_dict()
        self.user_bytes += len(json.dumps(self.acked[job_id]).encode())
        return True

    def pass_ops(self, pass_index: int) -> list[Op]:
        order = iter(self._order(len(self.probe_features), pass_index))
        ops = []
        for __ in range(CHURN_PUTS_PER_PASS):
            job_id, source, payload = self.fresh[self.next_fresh]
            self.next_fresh += 1
            ops.append(Op("write", lambda j=job_id, s=source, p=payload: self._put(j, s, p)))
            for __ in range(CHURN_PROBES_PER_PUT):
                features = self.probe_features[next(order)]
                ops.append(Op("read", lambda f=features: self._probe_op(f)))
        return ops

    def _probe_op(self, features: Any) -> bool:
        outcome = self.probe(features)
        return (not outcome.matched) or outcome.profile is not None

    def _close_store(self) -> None:
        for region, __ in self.store.hbase.catalog.regions_of(TABLE_NAME):
            region.store.close()

    def finish(self) -> None:
        # Restart: close every region's WAL, reopen from the data dir, and
        # require every acknowledged put back exactly as it was written.
        self._close_store()
        self.disk_bytes = sum(
            path.stat().st_size for path in self.data_dir.rglob("*") if path.is_file()
        )
        reopened = ProfileStore(data_dir=self.data_dir)
        self.store = reopened
        present = set(reopened.job_ids())
        missing = [job_id for job_id in self.acked if job_id not in present]
        changed = [
            job_id
            for job_id in self.acked
            if job_id in present
            and reopened.get_profile(job_id).to_dict() != self.acked[job_id]
        ]
        if missing or changed:
            self.problems.append(
                f"after reopen: {len(missing)} acked profiles missing, "
                f"{len(changed)} changed (of {len(self.acked)})"
            )

    def tuned_speedup(self) -> float:
        # Decision quality from the reopened, churned store: tune each
        # probed job through the submit path and price it against the
        # default, on the engine that profiled these jobs (warm caches).
        engine = self.profiling_engine
        pstorm = PStorM(engine, store=self.store, seed=PSTORM_SEED)
        speedups = []
        for run_seed, entry in self.stored:
            result = pstorm.submit(entry.job, entry.dataset, seed=run_seed)
            default = engine.run_job(
                entry.job, entry.dataset, JobConfiguration(), seed=run_seed
            ).runtime_seconds
            speedups.append(default / result.runtime_seconds)
        return geometric_mean(speedups)

    def bytes_per_user_byte(self) -> float:
        return self.disk_bytes / self.user_bytes

    def close(self) -> None:
        store = getattr(self, "store", None)
        if store is not None:
            self._close_store()
            self.store = None
            shutil.rmtree(self.data_dir, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SubmitWorkload, LargeStoreWorkload, ChurnWorkload)
}
