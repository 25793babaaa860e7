"""Wall-clock benchmark of PStorM's submit path and profile store.

Run from the repository root::

    python3 perfbench/run.py --workload submit_unseen --seed 1 --seconds 6 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
runs the workload once untraced and once with spans around every
layer's entry points, and prints the per-layer metrics, a self-time
table and the tracing overhead.  The last line of standard output is the
JSON result; the lines before it are diagnostics.

The work of one run is split across worker processes, started one after
another, each with its own set-up, warm-up pass and share of the timed
passes; their samples are pooled.  See ``perfbench/README.md`` for what
each workload and metric is for and why the run is shaped this way.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench"

#: Worker processes per untraced run.  Each sets up once, so ``setup_s``
#: is the median of this many set-ups.
WORKERS = 3
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170
#: Calibrated seconds one timed pass takes, per workload.  The pass count
#: is ``--seconds`` divided by this, fixed before any timing starts: a
#: run always does whole passes of the same work.
NOMINAL_PASS_SECONDS = {
    "submit_unseen": 1.7,
    "submit_large_store": 1.15,
    "store_churn": 0.23,
}
#: Fewest passes that still put 10 samples beyond every p90 reported
#: (``store_churn``: beyond the p90 of its 7 puts a pass, too).
MIN_PASSES = {"submit_unseen": 4, "submit_large_store": 4, "store_churn": 15}


# ----------------------------------------------------------------------
# Worker side: one process, one set-up, some passes
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """Calibrated latencies (ms) and failures of one phase's timed passes."""

    op_ms: list[float] = field(default_factory=list)
    read_ms: list[float] = field(default_factory=list)
    write_ms: list[float] = field(default_factory=list)
    pass_ms: list[float] = field(default_factory=list)
    raw_pass_s: list[float] = field(default_factory=list)
    calibration_ms: list[float] = field(default_factory=list)
    ops_per_pass: int = 0
    attempted: int = 0
    failed: int = 0

    def extend(self, other: "Phase") -> None:
        for name in ("op_ms", "read_ms", "write_ms", "pass_ms", "raw_pass_s",
                     "calibration_ms"):
            getattr(self, name).extend(getattr(other, name))
        self.ops_per_pass = other.ops_per_pass
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def ops_per_s(self) -> float:
        return self.ops_per_pass / (statistics.median(self.pass_ms) / 1000.0)

    @property
    def raw_ops_per_s(self) -> float:
        return self.ops_per_pass / statistics.median(self.raw_pass_s)


def run_pass(workload, pass_index: int, phase: Phase | None, recorder=None) -> None:
    """One whole pass over the op list; ``phase=None`` is the warm-up.

    A timed pass samples the machine's speed between consecutive ops and
    expresses each op's latency at the reference speed, scaled by the
    mean of the two samples that bracket it (``harness.speed_scale``).
    """
    from harness import calibration_ms, speed_scale

    workload.before_pass(pass_index)
    ops = workload.pass_ops(pass_index)
    clock = time.perf_counter
    seconds: list[float] = []
    reads: list[list[float]] = []
    samples = [calibration_ms()] if phase is not None else []
    for op in ops:
        if recorder is not None:
            recorder.op_id = (recorder.op_id or 0) + 1
        reads_from = len(workload.read_latencies)
        start = clock()
        try:
            if recorder is None:
                ok = op.run()
            else:
                with recorder.span("bench.op"):
                    ok = op.run()
        except Exception:  # an op that raises is a failed op
            ok = False
            traceback.print_exc(file=sys.stderr)
        seconds.append(clock() - start)
        reads.append(workload.read_latencies[reads_from:])
        if phase is not None:
            samples.append(calibration_ms())
            phase.attempted += 1
            phase.failed += not ok
        elif not ok:
            workload.problems.append("an op failed during the warm-up pass")
    workload.after_pass(pass_index)
    if phase is None:
        return
    scaled = []
    for index, (op, elapsed) in enumerate(zip(ops, seconds)):
        scale = speed_scale(samples[index:index + 2]) * 1000.0
        scaled.append(elapsed * scale)
        phase.read_ms += [read * scale for read in reads[index]]
        if op.kind == "write":
            phase.write_ms.append(elapsed * scale)
    phase.op_ms += scaled
    phase.pass_ms.append(sum(scaled))
    phase.raw_pass_s.append(sum(seconds))
    phase.calibration_ms += samples
    phase.ops_per_pass = len(ops)


def run_worker(args) -> dict:
    """Set up, warm up, time this worker's passes (traced with
    ``--trace 1``), then check and score.  Returns JSON-able results."""
    from harness import (
        ChunkTimer,
        SpanRecorder,
        calibration_ms,
        peak_rss_mb,
        steal_ticks,
        write_bytes,
    )
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](
        seed=args.seed, out_dir=Path(args.out_dir), passes=args.passes
    )
    recorder = SpanRecorder() if args.trace else None
    #: Wall seconds of each stage of this worker, for the diagnostics.
    stages: dict[str, float] = {}
    clock = time.perf_counter
    try:
        gc.collect()
        start = clock()
        timer = ChunkTimer()
        workload.set_up(timer.tick)
        timer.tick()
        stages["setup"] = clock() - start
        steal_before = steal_ticks()
        calib_before = statistics.median(calibration_ms() for __ in range(9))
        start = clock()
        run_pass(workload, -1, None)
        stages["warm_up"] = clock() - start
        workload.read_latencies.clear()
        workload.probes = workload.hits = 0
        gc.collect()
        start = clock()
        phase = Phase()
        passes = range(args.first_pass, args.first_pass + args.passes)
        if recorder is None:
            for pass_index in passes:
                run_pass(workload, pass_index, phase)
        else:
            from layers import traced

            with traced(recorder) as registry:
                wrote_before = write_bytes()
                for pass_index in passes:
                    run_pass(workload, pass_index, phase, recorder)
                wrote = write_bytes() - wrote_before
        stages["timed"] = clock() - start
        calib_after = statistics.median(calibration_ms() for __ in range(9))
        steal = steal_ticks() - steal_before
        start = clock()
        workload.finish()
        # Decision quality is deterministic, so the first worker alone
        # prices it; the others only check their outputs.
        speedup = workload.tuned_speedup() if args.first_pass == 0 else None
        stages["finish"] = clock() - start
    finally:
        workload.close()
    result = {
        "phase": asdict(phase),
        "setup_s": timer.calibrated_seconds(),
        "tuned_speedup": speedup,
        "digest": workload.results_digest(),
        "hits": workload.hits,
        "probes": workload.probes,
        "problems": workload.problems,
        "store_bytes": workload.bytes_per_user_byte(),
        "peak_rss_mb": peak_rss_mb(),
        "machine": {
            "steal_ticks": steal,
            "calib_ms_before": calib_before,
            "calib_ms_after": calib_after,
            "stage_s": stages,
        },
    }
    if recorder is not None:
        from layers import per_layer_metrics

        metrics, self_ms = per_layer_metrics(
            recorder.spans, registry, phase.attempted, wrote
        )
        trace_path = RUNS_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps([span.to_dict() for span in recorder.spans]))
        result.update(
            layer_metrics=metrics,
            self_ms=self_ms,
            spans=len(recorder.spans),
            trace_path=str(trace_path.relative_to(ROOT)),
        )
    return result


# ----------------------------------------------------------------------
# Parent side: spawn workers, pool their samples, report
# ----------------------------------------------------------------------
def spawn(args, out_dir: Path, first_pass: int, passes: int, trace: int) -> dict:
    """Run one worker to completion and return its results."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--worker", "--out-dir", str(out_dir),
        "--first-pass", str(first_pass), "--passes", str(passes),
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def split_passes(total: int, parts: int) -> list[tuple[int, int]]:
    """``(first_pass, passes)`` for each of *parts* workers."""
    shares = [total // parts + (index < total % parts) for index in range(parts)]
    firsts = [sum(shares[:index]) for index in range(parts)]
    return list(zip(firsts, shares))


def pooled(workers: list[dict]) -> tuple[Phase, list[str]]:
    """All workers' timed samples as one phase, plus every problem found."""
    phase = Phase()
    problems = []
    for worker in workers:
        phase.extend(Phase(**worker["phase"]))
        problems += worker["problems"]
    digests = {worker["digest"] for worker in workers}
    if len(digests) != 1:
        problems.append(f"results digest differs across processes: {sorted(digests)}")
    return phase, problems


def end_to_end_metrics(name: str, workers: list[dict], phase: Phase) -> dict[str, float]:
    from harness import require_percentile

    return {
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": require_percentile(phase.op_ms, 50, name),
        "op_p90_ms": require_percentile(phase.op_ms, 90, name),
        "read_p50_ms": require_percentile(phase.read_ms, 50, name),
        "read_p90_ms": require_percentile(phase.read_ms, 90, name),
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        "tuned_speedup": workers[0]["tuned_speedup"],
        "hit_share": sum(w["hits"] for w in workers) / sum(w["probes"] for w in workers),
    }


def layer_metrics(untraced: dict, traced: dict) -> dict[str, float]:
    """The traced worker's per-layer metrics, plus the store's write
    latencies and footprint and the tracing overhead, which come from
    the untraced worker."""
    from harness import percentile

    base = Phase(**untraced["phase"])
    metrics = dict(traced["layer_metrics"])
    metrics["core.store.write_p50_ms"] = percentile(base.write_ms, 50) or 0.0
    metrics["core.store.write_p90_ms"] = percentile(base.write_ms, 90) or 0.0
    metrics["hbase.bytes_per_user_byte"] = untraced["store_bytes"]
    metrics["trace.ops_per_s_ratio"] = Phase(**traced["phase"]).ops_per_s / base.ops_per_s
    metrics["machine.steal_ticks"] = float(
        untraced["machine"]["steal_ticks"] + traced["machine"]["steal_ticks"]
    )
    metrics["machine.calib_ms"] = statistics.median(
        base.calibration_ms + traced["phase"]["calibration_ms"]
    )
    return metrics


UNITS = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "hbase.wal.bytes_per_put": "B",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms") or name.endswith("ms_per_op"):
        return "ms"
    if name.startswith("share.") or name.endswith(
        ("_ratio", "_share", "_speedup", "bytes_per_user_byte")
    ):
        return "ratio"
    return "count"


def report(args, total_passes: int, workers: list[dict], traced: dict | None) -> int:
    from harness import machine_facts

    phase, problems = pooled(workers)
    e2e = end_to_end_metrics(args.workload, workers, phase)
    print("# machine " + json.dumps({
        **machine_facts(ROOT),
        "passes": total_passes,
        "workers": [w["machine"] for w in workers],
        "setup_s_each": [w["setup_s"] for w in workers],
        "calib_ms_median": statistics.median(phase.calibration_ms),
        "raw_ops_per_s": phase.raw_ops_per_s,
    }))
    print("# end_to_end " + json.dumps(e2e))
    attempted, failed = phase.attempted, phase.failed
    if traced is None:
        metrics = e2e
    else:
        metrics = layer_metrics(workers[0], traced)
        problems += traced["problems"]
        if traced["digest"] != workers[0]["digest"]:
            problems.append("results digest differs between the traced and untraced runs")
        attempted += traced["phase"]["attempted"]
        failed += traced["phase"]["failed"]
        print(f"# spans: {traced['spans']} in {traced['trace_path']}")
        print(f"# {'layer':<16}{'self ms/op':>11}{'share':>8}")
        for layer, ms in traced["self_ms"].items():
            print(f"# {layer:<16}{ms:>11.3f}{metrics[f'share.{layer}']:>8.1%}")
        print(f"# tracing overhead: traced {Phase(**traced['phase']).ops_per_s:.3f} "
              f"ops/s, untraced {phase.ops_per_s:.3f} ops/s")
    for problem in problems:
        print(f"# check failed: {problem}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    hidden = argparse.SUPPRESS
    parser.add_argument("--worker", action="store_true", help=hidden)
    parser.add_argument("--out-dir", help=hidden)
    parser.add_argument("--first-pass", type=int, default=0, help=hidden)
    parser.add_argument("--passes", type=int, default=0, help=hidden)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.workload not in NOMINAL_PASS_SECONDS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{sorted(NOMINAL_PASS_SECONDS)}", file=sys.stderr)
        return 2

    if args.worker:
        sys.path.insert(0, str(SRC))
        import repro

        if Path(repro.__file__).resolve().parent != SRC / "repro":
            print(f"error: imported repro from {repro.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        print(json.dumps(run_worker(args)))
        return 0

    total = max(
        MIN_PASSES[args.workload],
        round(args.seconds / NOMINAL_PASS_SECONDS[args.workload]),
    )
    out_dir = RUNS_DIR / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    out_dir.mkdir(parents=True)
    try:
        if args.trace:
            workers = [spawn(args, out_dir, 0, total, trace=0)]
            traced = spawn(args, out_dir, 0, total, trace=1)
        else:
            workers = [
                spawn(args, out_dir, first, passes, trace=0)
                for first, passes in split_passes(total, WORKERS)
            ]
            traced = None
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"error: worker failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return report(args, total, workers, traced)


if __name__ == "__main__":
    sys.exit(main())
