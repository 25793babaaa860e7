"""Serving scaling on the wall clock: the real frontend, every request a miss.

Drives the real :class:`~repro.serving.TuningService` — its queue, its
lanes and each backend's miss runner — with all-miss traffic at 1 and 2
workers on both backends, and times submit-to-last-answer with
``time.perf_counter``:

- every request carries a distinct seed and a dataset of its own (the
  dataset name is part of the cache key), cycling through the loadgen
  jobs, and ``cache_capacity=1`` besides: no probe can find its key
  cached (the run asserts zero hits);
- all requests are queued at once behind wide-open admission gates, so
  the elapsed time measures how fast the lanes drain the backlog.

Results merge into ``BENCH_serving.json`` under ``scaling`` with the
machine and commit they were measured on.  The process backend's
2-worker speedup is gated in full mode only, against a floor set from
recorded runs (see CHANGES.md); the thread backend's speedup is
recorded, not gated.  ``SERVING_BENCH_QUICK=1`` shrinks the run for CI:
every request must still be answered, no worker may hang, no
shared-memory segment may leak, and a warm replay on the process
backend must dispatch nothing to the workers.
"""

from __future__ import annotations

import json
import multiprocessing.shared_memory as shared_memory
import os
import platform
import subprocess
import time
from pathlib import Path

import pytest

from repro.hadoop import (
    Dataset,
    FunctionRecordSource,
    MapReduceJob,
    ec2_cluster,
)
from repro.observability import MetricsRegistry
from repro.serving import ServiceConfig, TenantPolicy, TuningService
from repro.serving.loadgen import loadgen_zoo
from repro.workloads.text import random_text_source

QUICK = os.environ.get("SERVING_BENCH_QUICK", "") not in ("", "0")
#: Timed all-miss requests per (backend, workers) cell.
REQUESTS = 24 if QUICK else 120
#: Untimed misses first, so worker boot and first-touch costs stay out.
WARMUP = 4
WORKER_COUNTS = (1, 2)
BACKENDS = ("threads", "processes")
#: Full-mode floor: 2-process vs 1-process all-miss throughput, about
#: 0.8x the slowest of six recorded runs (1.67x-2.06x on a 2-core VM).
PROCESS_SPEEDUP_FLOOR = 1.3
_ROOT = Path(__file__).resolve().parents[1]
_RESULT_PATH = _ROOT / "BENCH_serving.json"
_TENANT = "bench"


def _merge_results(update: dict) -> dict:
    payload = {}
    if _RESULT_PATH.exists():
        payload = json.loads(_RESULT_PATH.read_text())
    payload.update(update)
    payload["quick_mode"] = QUICK
    _RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": model or platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "system": platform.system(),
    }


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _service(backend: str, workers: int, registry: MetricsRegistry, **knobs):
    config = ServiceConfig(
        workers=workers,
        backend=backend,
        queue_capacity=REQUESTS + WARMUP,
        deadline_seconds=1e9,
        tenant_policies={_TENANT: TenantPolicy(rate_per_second=1e6, burst=1e6)},
        **knobs,
    )
    return TuningService(cluster=ec2_cluster(), config=config, registry=registry)


def _drain(service: TuningService, work: list) -> list:
    """Queue every ``(job, dataset, seed)`` at once; wait for all."""
    futures = [
        service.submit_request(job, dataset, tenant=_TENANT, seed=seed)
        for job, dataset, seed in work
    ]
    return [future.result(timeout=300.0) for future in futures]


def _misses(seeds: range) -> list:
    """One never-seen dataset per seed, cycling the loadgen jobs."""
    jobs = [job for job, __ in loadgen_zoo()[::2]]
    return [
        (
            jobs[seed % len(jobs)],
            Dataset(
                f"scaling-text-{seed}",
                nominal_bytes=192 << 20,
                source=random_text_source(),
                seed=seed,
            ),
            seed,
        )
        for seed in seeds
    ]


def _all_miss_cell(backend: str, workers: int) -> dict:
    service = _service(backend, workers, MetricsRegistry(), cache_capacity=1)
    service.start()
    try:
        _drain(service, _misses(range(WARMUP)))
        work = _misses(range(WARMUP, WARMUP + REQUESTS))
        start = time.perf_counter()
        responses = _drain(service, work)
        elapsed = time.perf_counter() - start
    finally:
        clean = service.stop(timeout=60.0)
    return {
        "clean": clean,
        "elapsed_s": round(elapsed, 4),
        "throughput_rps": round(REQUESTS / elapsed, 3),
        "ok": sum(1 for r in responses if r.ok),
        "cache_hits": sum(1 for r in responses if r.cache_hit),
    }


@pytest.fixture(scope="module")
def cells():
    return {
        (backend, workers): _all_miss_cell(backend, workers)
        for backend in BACKENDS
        for workers in WORKER_COUNTS
    }


def test_every_miss_answered_and_no_worker_hangs(cells):
    for key, cell in cells.items():
        assert cell["clean"], key
        assert cell["ok"] == REQUESTS, (key, cell)
        assert cell["cache_hits"] == 0, (key, cell)


def test_wall_clock_scaling(cells):
    speedup = {
        backend: round(
            cells[backend, 2]["throughput_rps"]
            / cells[backend, 1]["throughput_rps"],
            2,
        )
        for backend in BACKENDS
    }
    payload = _merge_results(
        {
            "scaling": {
                "clock": "wall",
                "commit": _commit(),
                "machine": _machine(),
                "requests": REQUESTS,
                "traffic": "all-miss: distinct seeds and datasets, cache_capacity=1",
                **{
                    backend: {
                        str(workers): {
                            "elapsed_s": cells[backend, workers]["elapsed_s"],
                            "throughput_rps": cells[backend, workers][
                                "throughput_rps"
                            ],
                        }
                        for workers in WORKER_COUNTS
                    }
                    for backend in BACKENDS
                },
                "process_speedup_2x": speedup["processes"],
                "thread_speedup_2x": speedup["threads"],
                "process_speedup_floor": PROCESS_SPEEDUP_FLOOR,
            }
        }
    )
    print()
    print(json.dumps(payload["scaling"], indent=2, sort_keys=True))
    if not QUICK:
        assert speedup["processes"] >= PROCESS_SPEEDUP_FLOOR, (
            f"2-process speedup {speedup['processes']:.2f}x below the "
            f"{PROCESS_SPEEDUP_FLOOR}x floor"
        )


def test_warm_replay_dispatches_nothing():
    """Cache hits are answered in the parent: replaying warm traffic on
    the process backend hands no task to any worker process.

    One dataset per job keeps every key's job signature distinct, so no
    miss-path profile write invalidates another key's cached answer."""
    registry = MetricsRegistry()
    service = _service("processes", 2, registry)
    work = [(job, dataset, 0) for job, dataset in loadgen_zoo()[::2]]
    service.start()
    try:
        cold = _drain(service, work)
        dispatched = int(registry.get("serving_dispatches_total").value)
        warm = _drain(service, work)
    finally:
        assert service.stop(timeout=60.0)
    assert all(r.ok for r in cold + warm)
    assert all(r.cache_hit for r in warm)
    added = int(registry.get("serving_dispatches_total").value) - dispatched
    _merge_results(
        {"warm_replay": {"requests": len(work), "dispatches_added": added}}
    )
    assert added == 0


# Module-level so the job survives the pickle hop to worker processes.
def _bench_lines(split_index, rng):
    return [(i, f"alpha beta gamma delta {i % 7}") for i in range(100)]


def _bench_map(key, line, ctx):
    for word in line.split():
        ctx.emit(word, 1)


def _bench_reduce(word, counts, ctx):
    ctx.emit(word, sum(counts))


def test_real_frontend_unlinks_every_segment():
    """Shutdown hygiene on the *real* process backend: no shm leaks."""
    job = MapReduceJob(
        name="scaling-bench", mapper=_bench_map, reducer=_bench_reduce
    )
    dataset = Dataset(
        "scaling-bench-text",
        nominal_bytes=64 << 20,
        source=FunctionRecordSource(_bench_lines),
        seed=5,
    )
    service = TuningService(
        cluster=ec2_cluster(),
        config=ServiceConfig(workers=2, backend="processes"),
        seed=0,
        registry=MetricsRegistry(),
    )
    service.start()
    publisher = service._procpool._publisher
    names = {publisher.ctrl_name, *publisher.segment_names()}
    response = service.submit_request(
        job, dataset, tenant="bench"
    ).result(timeout=120.0)
    assert response.ok
    names.update(publisher.segment_names())
    assert service.stop(timeout=60.0)
    for name in sorted(names):
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
