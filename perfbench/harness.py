"""Measurement helpers with no dependency on the package under test.

Everything here works on plain values so the benchmark's own tests can
check it in isolation: the percentile rule, span recording and self
time, the seeded profile jitter, machine-speed calibration, and the
machine-noise diagnostics printed beside every run.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the value is set by a handful of outliers.
MIN_TAIL_SAMPLES = 10


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def samples_beyond(q: float, n: int) -> int:
    """How many of *n* sorted samples rank above the *q*-th percentile."""
    return n - math.ceil(q * n / 100.0)


def percentile(samples: Sequence[float], q: float) -> float | None:
    """The *q*-th percentile, or ``None`` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it.

    Uses the Harrell-Davis estimator: a Beta-weighted mean of all order
    statistics rather than one or two of them.  Latencies here cluster by
    job, and a percentile that falls between two clusters would jump by
    the whole gap whenever one sample changes rank; weighting the
    neighbouring ranks makes it move smoothly instead.
    """
    from scipy.special import betainc

    n = len(samples)
    if n == 0 or samples_beyond(q, n) < MIN_TAIL_SAMPLES:
        return None
    ordered = sorted(samples)
    a = (n + 1) * q / 100.0
    b = (n + 1) * (1.0 - q / 100.0)
    edges = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], ordered))


def require_percentile(samples: Sequence[float], q: float, what: str) -> float:
    """:func:`percentile`, failing loudly when the run took too few
    samples to report it (a sizing bug in the workload, never data)."""
    value = percentile(samples, q)
    if value is None:
        raise RuntimeError(
            f"{what}: p{q:g} needs {MIN_TAIL_SAMPLES} samples beyond it, "
            f"have {len(samples)} samples"
        )
    return value


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    op_id: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "op": self.op_id,
        }


class SpanRecorder:
    """In-memory spans for one thread of work.

    The benchmark drives the program from a single client thread with
    every worker pool at width 1, so a plain stack gives each span its
    parent.  ``op_id`` tags every span opened while an op is running.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = self.clock()
        try:
            yield span_id
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, self.op_id))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[tuple, dict], str],
    ) -> Callable[[], None]:
        """Replace ``owner.attr`` by a spanned call; returns the undo."""
        original = getattr(owner, attr)
        recorder = self

        def spanned(*args: Any, **kwargs: Any) -> Any:
            label = name(args, kwargs) if callable(name) else name
            with recorder.span(label):
                return original(*args, **kwargs)

        spanned.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, spanned)
        return lambda: setattr(owner, attr, original)


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    result = {}
    for span in spans:
        intervals = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, ())
        )
        covered = 0.0
        cursor = span.start
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.duration - covered
    return result


# ----------------------------------------------------------------------
# Seeded profile jitter
# ----------------------------------------------------------------------
#: Profile sections whose float entries the jitter scales.
_JITTERED_SECTIONS = ("data_flow", "cost_factors", "statistics", "phase_times")

#: Largest relative change the jitter applies to any value.
JITTER = 0.30


def jitter_profile_dict(payload: Mapping[str, Any], rng: random.Random) -> dict[str, Any]:
    """A copy of a ``JobProfile.to_dict()`` payload with every float
    measurement scaled by an independent factor in ``[1 - JITTER,
    1 + JITTER]``.

    Integers (input bytes, task counts) and flags stored as integers are
    kept, so a copy describes the same run shape with perturbed
    behaviour — a plausible other execution of the same job.
    """

    def scale(section: Mapping[str, Any]) -> dict[str, Any]:
        return {
            key: (
                value * rng.uniform(1.0 - JITTER, 1.0 + JITTER)
                if isinstance(value, float)
                else value
            )
            for key, value in section.items()
        }

    copy = dict(payload)
    for side in ("map_profile", "reduce_profile"):
        if copy.get(side) is None:
            continue
        side_payload = dict(copy[side])
        for section in _JITTERED_SECTIONS:
            side_payload[section] = scale(side_payload[section])
        copy[side] = side_payload
    return copy


def jittered_copies(
    payloads: Sequence[tuple[str, Mapping[str, Any]]],
    count: int,
    seed: int,
    prefix: str,
) -> list[tuple[str, str, dict[str, Any]]]:
    """*count* jittered copies cycling over ``(key, payload)`` sources.

    Returns ``(job_id, source_key, payload)`` triples with distinct ids
    ``{prefix}{n:06d}:{key}``; the same seed gives the same copies.
    """
    rng = random.Random(seed)
    copies = []
    for n in range(count):
        key, payload = payloads[n % len(payloads)]
        copies.append(
            (f"{prefix}{n:06d}:{key}", key, jitter_profile_dict(payload, rng))
        )
    return copies


# ----------------------------------------------------------------------
# Machine speed calibration
# ----------------------------------------------------------------------
#: Iterations of the calibration loop: ~2 ms, short enough to sample
#: between ops, long enough to be timed to well under 1%.
CALIBRATION_ITERATIONS = 20_000

#: The calibration loop's time on an idle 2-core x86-64 VM under
#: CPython 3.11.  Calibrated timings are expressed at this speed.
REFERENCE_CALIBRATION_MS = 2.0

#: How much harder the program is hit than the calibration loop when the
#: machine is loaded: its wall time grows as the loop's time to this
#: power.  Over 30 runs of the three workloads on a shared 2-core VM,
#: timings scaled with power 1 still fell with the loop's time, with
#: log-log slopes of 0.26 to 0.38 on every workload.
LOAD_SENSITIVITY = 1.3


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python loop: the machine's speed now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += (i * i) ^ (i >> 3)
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed * 1000.0


def speed_scale(samples: Sequence[float]) -> float:
    """Factor taking wall time measured while the calibration loop took
    *samples* ms to wall time at the reference speed."""
    return (REFERENCE_CALIBRATION_MS / statistics.median(samples)) ** LOAD_SENSITIVITY


class ChunkTimer:
    """Wall time of work done in chunks, with the machine's speed
    sampled between chunks (calibration time is not counted as work).

    ``tick()`` ends a chunk; :meth:`calibrated_seconds` scales the work
    time by :func:`speed_scale` of the samples taken.
    """

    def __init__(
        self,
        calibrate: Callable[[], float] = calibration_ms,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.calibrate = calibrate
        self.clock = clock
        self.work_seconds = 0.0
        self.samples: list[float] = []
        self._chunk_start = clock()

    def tick(self) -> None:
        self.work_seconds += self.clock() - self._chunk_start
        self.samples.append(self.calibrate())
        self._chunk_start = self.clock()

    def calibrated_seconds(self) -> float:
        return self.work_seconds * speed_scale(self.samples)


# ----------------------------------------------------------------------
# Machine noise diagnostics
# ----------------------------------------------------------------------
def steal_ticks() -> int:
    """Aggregate CPU steal ticks from ``/proc/stat`` (0 if unavailable)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else 0


def write_bytes() -> int:
    """Bytes this process has passed to write calls (``wchar``)."""
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def commit_of(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"unknown"`` outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(root: Path) -> dict[str, Any]:
    return {
        "commit": commit_of(root),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }

