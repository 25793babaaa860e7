"""Shared fixtures: a small cluster, small datasets, and simple jobs."""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.hadoop import (
    Dataset,
    FunctionRecordSource,
    HadoopEngine,
    JobConfiguration,
    MapReduceJob,
    ec2_cluster,
)
from repro.starfish import Sampler, StarfishProfiler, WhatIfEngine

MB = 1 << 20


def pytest_configure(config):
    # Registered in pyproject.toml too; repeated here so the suite stays
    # warning-free when invoked with an explicit -c/-o that bypasses it.
    config.addinivalue_line(
        "markers", "slow: exhaustive sweeps (full crash-point/byte matrices)"
    )
    config.addinivalue_line(
        "markers", "soak: long-running endurance runs, never in default runs"
    )


#: How long a test's leftovers get to wind down before they count as leaks.
LEAK_GRACE_SECONDS = 2.0


def _shm_segments():
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm")}
    except FileNotFoundError:  # no POSIX shared memory mount on this platform
        return set()


def _leaks(shm_before, threads_before):
    leaks = []
    segments = sorted(_shm_segments() - shm_before)
    if segments:
        leaks.append(f"shared-memory segments {segments}")
    children = [p.name for p in multiprocessing.active_children()]
    if children:
        leaks.append(f"child processes {children}")
    threads = [
        t.name
        for t in threading.enumerate()
        if t.is_alive() and t not in threads_before
    ]
    if threads:
        leaks.append(f"threads {threads}")
    return leaks


@pytest.fixture(autouse=True)
def _no_leaks():
    """Fail any test that leaves a ``psm*`` segment, a multiprocessing
    child, or a thread it started behind (after a short grace)."""
    shm_before = _shm_segments()
    threads_before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + LEAK_GRACE_SECONDS
    while True:
        leaks = _leaks(shm_before, threads_before)
        if not leaks or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    if leaks:
        pytest.fail("test leaked " + "; ".join(leaks), pytrace=False)


def _text_lines(split_index, rng):
    words = [f"word{i:02d}" for i in range(40)]
    lines = []
    for i in range(120):
        count = int(rng.integers(4, 10))
        line = " ".join(words[int(rng.integers(0, 40))] for __ in range(count))
        lines.append((i, line))
    return lines


def wc_map(key, line, ctx):
    for word in line.split():
        ctx.emit(word, 1)


def wc_reduce(word, counts, ctx):
    total = 0
    for count in counts:
        total += count
        ctx.report_ops(1)
    ctx.emit(word, total)


def identity_map(key, value, ctx):
    ctx.emit(key, value)


@pytest.fixture(scope="session")
def cluster():
    return ec2_cluster()


@pytest.fixture(scope="session")
def engine(cluster):
    return HadoopEngine(cluster)


@pytest.fixture(scope="session")
def profiler(engine):
    return StarfishProfiler(engine)


@pytest.fixture(scope="session")
def sampler(profiler):
    return Sampler(profiler)


@pytest.fixture(scope="session")
def whatif(cluster):
    return WhatIfEngine(cluster)


@pytest.fixture()
def small_text():
    """A 256 MB (4-split) text dataset."""
    return Dataset(
        "small-text",
        nominal_bytes=256 * MB,
        source=FunctionRecordSource(_text_lines),
        seed=5,
    )


@pytest.fixture()
def wordcount():
    return MapReduceJob(
        name="wordcount-test",
        mapper=wc_map,
        reducer=wc_reduce,
        combiner=wc_reduce,
    )


@pytest.fixture()
def maponly_job():
    return MapReduceJob(name="identity-maponly", mapper=identity_map)


@pytest.fixture()
def default_config():
    return JobConfiguration()
