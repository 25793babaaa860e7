"""Seeded, schedulable fault plans for the HBase substrate.

A :class:`FaultPlan` is a declarative description of the faults one
experiment run should suffer: probabilistic per-operation faults
(:class:`FaultSpec`) and deterministic region-server crash windows
(:class:`ServerCrash`).  Plans are plain values with a JSON codec, so a
chaos experiment is reproducible from a seed plus a small document.

Time is *logical*: specs are scheduled against the injector's operation
counter (one tick per substrate ``put``/``get``/``scan``), never against
wall clocks, which is what makes a seeded plan bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "FaultSpec",
    "ServerCrash",
    "FaultPlan",
    "OPS",
    "KINDS",
    "flaky_plan",
    "outage_plan",
    "slow_plan",
    "crash_point_plan",
    "worker_kill_plan",
    "replica_kill_plan",
    "rolling_restart_plan",
    "PRESETS",
    "plan_from_spec",
]

#: Substrate operations the injector is consulted for. ``*`` matches all.
#: The ``lsm-*`` and ``snapshot`` points fire on *durable* storage
#: internals (WAL append, SSTable flush, compaction, checkpoint write)
#: and exist so ``crash`` faults can kill the process at any persistence
#: boundary; in-memory stores never consult them.
#: ``dispatch`` fires on the process-pool frontend handing one request
#: to a worker process; it exists for ``kill`` faults.
#: ``split``/``merge``/``rebalance`` fire at the head of the matching
#: region-topology operation (before any mutation), so crash faults can
#: kill a run at every region-maintenance boundary.
OPS = (
    "put", "get", "scan", "lsm-put", "lsm-flush", "lsm-compact",
    "snapshot", "dispatch", "split", "merge", "rebalance", "*",
)
#: Fault kinds: raise-and-retryable, server-down, added latency, a
#: simulated process kill (``crash`` — NOT retryable; recovery means
#: reopening the store from disk), or a serving-worker SIGKILL
#: (``kill`` — the process-pool frontend respawns the worker and
#: re-dispatches its in-flight work).
KINDS = ("transient", "unavailable", "slow", "crash", "kill")


@dataclass(frozen=True)
class FaultSpec:
    """One probabilistic fault source.

    Attributes:
        op: which substrate operation to afflict (``put``/``get``/``scan``
            or ``*`` for all).
        kind: ``transient`` raises :class:`~repro.hbase.errors.TransientError`,
            ``unavailable`` raises
            :class:`~repro.hbase.errors.ServerUnavailableError`, ``slow``
            advances the injector's virtual clock by ``delay_seconds``
            (a modelled slow response — it eats retry deadline budget
            without failing the call), and ``crash`` raises
            :class:`~repro.hbase.errors.SimulatedCrashError` — a
            non-retryable process kill used by the crash-recovery
            harness to stop a run dead at a persistence boundary.
        probability: chance one matching operation is afflicted.
        delay_seconds: virtual latency added by ``slow`` faults.
        start_after: first operation index (inclusive) the spec covers.
        stop_after: operation index (exclusive) the spec stops at;
            ``None`` means never stops.
        server_id: restrict to one region server (``None`` = any).
        scope: what ``start_after``/``stop_after`` count — ``"global"``
            (the injector's overall operation counter, the historical
            behavior) or ``"op"`` (only operations matching this spec's
            ``op`` name, so e.g. "the third *dispatch*" stays the third
            dispatch no matter how much store traffic interleaves).
    """

    op: str = "*"
    kind: str = "transient"
    probability: float = 1.0
    delay_seconds: float = 0.05
    start_after: int = 0
    stop_after: int | None = None
    server_id: int | None = None
    scope: str = "global"

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown op {self.op!r}; expected one of {OPS}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")
        if self.start_after < 0:
            raise ValueError("start_after must be >= 0")
        if self.stop_after is not None and self.stop_after <= self.start_after:
            raise ValueError("stop_after must exceed start_after")
        if self.scope not in ("global", "op"):
            raise ValueError(f"unknown scope {self.scope!r}")

    def applies(
        self,
        op: str,
        server_id: int | None,
        index: int,
        op_index: int | None = None,
    ) -> bool:
        """Whether this spec covers operation *index* of kind *op*.

        *op_index* is the per-op-name counter; ``scope="op"`` specs
        schedule against it (falling back to *index* when the caller
        does not track per-op counts).
        """
        if self.op != "*" and self.op != op:
            return False
        if self.server_id is not None and server_id != self.server_id:
            return False
        effective = (
            op_index
            if self.scope == "op" and op_index is not None
            else index
        )
        if effective < self.start_after:
            return False
        if self.stop_after is not None and effective >= self.stop_after:
            return False
        return True


@dataclass(frozen=True)
class ServerCrash:
    """A deterministic crash/recovery window for one region server.

    Operations routed to ``server_id`` whose index falls inside
    ``[crash_at, crash_at + downtime)`` raise
    :class:`~repro.hbase.errors.ServerUnavailableError`; the server
    recovers when the window ends (``downtime=None`` never recovers).
    """

    server_id: int
    crash_at: int
    downtime: int | None = None

    def __post_init__(self) -> None:
        if self.server_id < 0:
            raise ValueError("server_id must be >= 0")
        if self.crash_at < 0:
            raise ValueError("crash_at must be >= 0")
        if self.downtime is not None and self.downtime <= 0:
            raise ValueError("downtime must be positive (or None for forever)")

    def covers(self, server_id: int | None, index: int) -> bool:
        if server_id != self.server_id:
            return False
        if index < self.crash_at:
            return False
        return self.downtime is None or index < self.crash_at + self.downtime


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of faults for one run.

    The seed fixes the injector's RNG, so a plan plus an identical
    operation sequence yields an identical fault sequence — the property
    ``tests/test_chaos.py`` asserts with Hypothesis.
    """

    seed: int = 0
    faults: tuple[FaultSpec, ...] = ()
    crashes: tuple[ServerCrash, ...] = ()

    def __post_init__(self) -> None:
        # Tolerate lists in hand-written plans; store tuples for hashing.
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(self, "crashes", tuple(self.crashes))

    # -- JSON codec ----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [asdict(spec) for spec in self.faults],
            "crashes": [asdict(crash) for crash in self.crashes],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            seed=int(payload.get("seed", 0)),
            faults=tuple(
                FaultSpec(**spec) for spec in payload.get("faults", ())
            ),
            crashes=tuple(
                ServerCrash(**crash) for crash in payload.get("crashes", ())
            ),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Presets (the CLI's --chaos vocabulary)
# ----------------------------------------------------------------------
def flaky_plan(seed: int = 0, probability: float = 0.2) -> FaultPlan:
    """Every operation fails transiently with *probability*."""
    return FaultPlan(
        seed=seed,
        faults=(FaultSpec(op="*", kind="transient", probability=probability),),
    )


def outage_plan(seed: int = 0) -> FaultPlan:
    """Total store-probe outage: every scan fails, puts/gets survive."""
    return FaultPlan(
        seed=seed,
        faults=(FaultSpec(op="scan", kind="unavailable", probability=1.0),),
    )


def slow_plan(seed: int = 0, delay_seconds: float = 0.05) -> FaultPlan:
    """Every scan responds slowly (virtual latency, eats deadline budget)."""
    return FaultPlan(
        seed=seed,
        faults=(
            FaultSpec(
                op="scan", kind="slow", probability=1.0,
                delay_seconds=delay_seconds,
            ),
        ),
    )


def crash_point_plan(at: int, seed: int = 0) -> FaultPlan:
    """Kill the process at exactly operation index *at*.

    The crash-recovery harness sweeps *at* across a run's whole
    operation count: one plan per index, each killing the run at a
    different persistence boundary.
    """
    return FaultPlan(
        seed=seed,
        faults=(
            FaultSpec(
                op="*", kind="crash", probability=1.0,
                start_after=at, stop_after=at + 1,
            ),
        ),
    )


def worker_kill_plan(at: int = 3, seed: int = 0) -> FaultPlan:
    """SIGKILL the serving worker handling dispatch index *at*.

    Consulted only at the process-pool ``dispatch`` boundary: dispatch
    *at* raises :class:`~repro.hbase.errors.WorkerKilledError`, the
    frontend kills + respawns the target worker, and every request —
    including the one that triggered the kill — must still complete.
    """
    return FaultPlan(
        seed=seed,
        faults=(
            FaultSpec(
                op="dispatch", kind="kill", probability=1.0,
                start_after=at, stop_after=at + 1, scope="op",
            ),
        ),
    )


def replica_kill_plan(server_id: int = 1, at: int = 0, seed: int = 0) -> FaultPlan:
    """Kill region server *server_id* permanently from operation *at* on.

    Against a replicated cluster (``replication >= 2``) this takes one
    *replica* of every region down for good; reads routed to it must
    fail over to a surviving host with zero result drift — the property
    the sharding chaos regression asserts via the
    ``hbase_replica_read_fallbacks_total`` counter and
    ``SubmissionResult.degraded`` staying false.
    """
    return FaultPlan(
        seed=seed,
        crashes=(ServerCrash(server_id=server_id, crash_at=at, downtime=None),),
    )


def rolling_restart_plan(
    seed: int = 0,
    period: int = 50,
    downtime: int = 10,
    restarts: int = 5,
    server_id: int = 0,
) -> FaultPlan:
    """Server *server_id* crashes every *period* ops for *downtime* ops."""
    crashes = tuple(
        ServerCrash(
            server_id=server_id, crash_at=period * (k + 1), downtime=downtime
        )
        for k in range(restarts)
    )
    return FaultPlan(seed=seed, crashes=crashes)


#: name -> factory taking (seed, optional numeric argument).
PRESETS = {
    "flaky": lambda seed, arg: flaky_plan(
        seed, probability=0.2 if arg is None else arg
    ),
    "outage": lambda seed, arg: outage_plan(seed),
    "slow": lambda seed, arg: slow_plan(
        seed, delay_seconds=0.05 if arg is None else arg
    ),
    "rolling-restart": lambda seed, arg: rolling_restart_plan(
        seed, period=50 if arg is None else int(arg)
    ),
    "crash-point": lambda seed, arg: crash_point_plan(
        at=0 if arg is None else int(arg), seed=seed
    ),
    "worker-kill": lambda seed, arg: worker_kill_plan(
        at=3 if arg is None else int(arg), seed=seed
    ),
    "replica-kill": lambda seed, arg: replica_kill_plan(
        server_id=1 if arg is None else int(arg), seed=seed
    ),
}


def plan_from_spec(spec: str, seed: int = 0) -> FaultPlan:
    """Resolve a CLI ``--chaos`` spec to a plan.

    *spec* is either a path to a JSON plan document (anything containing
    a path separator or ending in ``.json``) or a preset name with an
    optional numeric argument: ``flaky``, ``flaky:0.5``, ``outage``,
    ``slow:0.2``, ``rolling-restart:100``, ``crash-point:37``.
    """
    if spec.endswith(".json") or "/" in spec:
        return FaultPlan.from_json(Path(spec).read_text())
    name, __, arg_text = spec.partition(":")
    factory = PRESETS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown chaos preset {name!r}; "
            f"available: {', '.join(sorted(PRESETS))} (or a JSON plan path)"
        )
    arg = float(arg_text) if arg_text else None
    return factory(seed, arg)
