"""Restart-to-first-probe: physical snapshots vs logical replay.

A durable store restarts by loading SSTable manifests, replaying only
the WAL tail, and warming the match index from ``index_checkpoint.json``
— work that barely grows with store size.  The pre-durability restart
path replays the JSON export insert by insert (normalizers, WAL writes,
cell encoding, index updates — the full put pipeline per job), which is
linear with a much larger constant.  This benchmark times both paths to
first completed probe across store sizes and lands the curves in
``BENCH_durability.json``.  The JSON export and its replay live here
(:func:`_dump_json`, :func:`_replay_json`): the durable store is the
only persistence the package ships.

Each size and path is timed ``REPETITIONS`` times, interleaved, and
reported as the median: one millisecond-scale sample can carry a GC
pause or a scheduler hiccup several times the restart itself.

``RESTART_BENCH_QUICK=1`` shrinks the sizes for CI smoke runs; the
snapshot path must beat replay at every size in both modes.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

from repro.analysis.static_features import StaticFeatures
from repro.cli import _synthetic_job
from repro.core.matcher import ProfileMatcher
from repro.core.resilient import ResilientProfileStore
from repro.core.store import ProfileStore
from repro.starfish.profile import JobProfile
from repro.observability import MetricsRegistry

QUICK = os.environ.get("RESTART_BENCH_QUICK", "") not in ("", "0")
SIZES = [4, 8, 16] if QUICK else [8, 16, 32, 64]
#: Acceptance floor: snapshot restore vs JSON replay at the largest size.
SPEEDUP_FLOOR = 1.3 if QUICK else 2.0
#: Timings per size and path; the reported figure is their median.
REPETITIONS = 5
_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_durability.json"


def _populate(store: ProfileStore, size: int) -> None:
    for number in range(size):
        profile, static = _synthetic_job(number)
        store.put(profile, static, job_id=f"job-{number}@bench")


def _dump_json(store: ProfileStore, path: Path) -> None:
    """The logical export: one JSON object per stored job."""
    entries = {
        job_id: {
            "profile": store.get_profile(job_id).to_dict(),
            "static": store.get_static(job_id).to_dict(),
        }
        for job_id in store.job_ids()
    }
    path.write_text(json.dumps({"entries": entries}, indent=1, sort_keys=True))


def _replay_json(path: Path, store: ProfileStore) -> ProfileStore:
    """Rebuild *store* from an export, insert by insert through the
    resilient client, then fold the replayed puts into the match index."""
    writer = ResilientProfileStore(store)
    for job_id, entry in sorted(json.loads(path.read_text())["entries"].items()):
        writer.put(
            JobProfile.from_dict(entry["profile"]),
            StaticFeatures.from_dict(entry["static"]),
            job_id=job_id,
        )
    writer.refresh_match_index()
    return store


def _probe_features():
    from tests.test_crash_recovery import _probe_features as build

    return build()


def _first_probe(store: ProfileStore) -> None:
    matcher = ProfileMatcher(store, registry=MetricsRegistry())
    matcher.match_job(_probe_features())


def _time_snapshot_restore(data_dir: Path, size: int) -> tuple[float, int]:
    seed = ProfileStore(data_dir=data_dir, registry=MetricsRegistry())
    _populate(seed, size)
    seed.match_index().ensure_fresh()
    seed.snapshot()

    registry = MetricsRegistry()
    start = time.perf_counter()
    restored = ProfileStore(data_dir=data_dir, registry=registry)
    _first_probe(restored)
    elapsed = time.perf_counter() - start
    rebuilds = registry.get("pstorm_matcher_index_rebuilds_total")
    assert len(restored) == size
    return elapsed, 0 if rebuilds is None else int(rebuilds.value)


def _time_json_replay(export: Path, size: int) -> float:
    seed = ProfileStore(registry=MetricsRegistry())
    _populate(seed, size)
    _dump_json(seed, export)

    start = time.perf_counter()
    restored = _replay_json(export, ProfileStore(registry=MetricsRegistry()))
    _first_probe(restored)
    elapsed = time.perf_counter() - start
    assert len(restored) == size
    return elapsed


def test_snapshot_restart_beats_linear_replay(tmp_path):
    # Warm both paths once: first-touch costs (imports, lazy module
    # state) would otherwise be billed to the smallest size.
    _time_snapshot_restore(tmp_path / "warmup", 2)
    _time_json_replay(tmp_path / "warmup.json", 2)
    rows = []
    for size in SIZES:
        restores, replays = [], []
        for rep in range(REPETITIONS):
            restores.append(
                _time_snapshot_restore(tmp_path / f"snap{size}-{rep}", size)
            )
            replays.append(
                _time_json_replay(tmp_path / f"export{size}-{rep}.json", size)
            )
        restore_s = statistics.median(elapsed for elapsed, __ in restores)
        rebuilds = max(count for __, count in restores)
        replay_s = statistics.median(replays)
        rows.append(
            {
                "jobs": size,
                "snapshot_restore_s": round(restore_s, 4),
                "json_replay_s": round(replay_s, 4),
                "speedup": round(replay_s / restore_s, 2),
                "index_rebuilds": rebuilds,
            }
        )

    payload = {}
    if _RESULT_PATH.exists():
        payload = json.loads(_RESULT_PATH.read_text())
    payload["restart_to_first_probe"] = {
        "repetitions": REPETITIONS,
        "sizes": SIZES,
        "rows": rows,
        "speedup_floor": SPEEDUP_FLOOR,
    }
    payload["quick_mode"] = QUICK
    _RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print()
    print(json.dumps(payload, indent=2, sort_keys=True))

    for row in rows:
        # The checkpoint kept the index warm on every restart.
        assert row["index_rebuilds"] == 0, row
        assert row["speedup"] > 1.0, row
    assert rows[-1]["speedup"] >= SPEEDUP_FLOOR, rows[-1]
    # The snapshot path's growth across the sweep stays near-flat while
    # replay's is linear; 2x slack absorbs scheduler/GC noise on the
    # millisecond-scale restore timings.
    restore_growth = rows[-1]["snapshot_restore_s"] / rows[0]["snapshot_restore_s"]
    replay_growth = rows[-1]["json_replay_s"] / rows[0]["json_replay_s"]
    assert restore_growth < replay_growth * 2.0, (restore_growth, replay_growth)
