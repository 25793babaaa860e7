"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``experiments [NAME ...]`` — regenerate the paper's tables/figures
  (default: all of them) and print the result tables.
- ``demo`` — the tune-a-never-seen-job walkthrough (Fig 1.3 scenario).
- ``explain JOB_A JOB_B`` — a PerfXplain query over a freshly profiled
  mini-log of the named benchmark jobs.
- ``list-jobs`` — the Table 6.1 benchmark inventory.
- ``metrics`` — run a small smoke workload through the whole stack and
  print the collected metrics in Prometheus text format.
- ``loadgen`` — replay seeded synthetic tenant traffic against the
  tuning service as a discrete-event simulation; the summary JSON on
  stdout is byte-identical for the same seed (see ``docs/serving.md``).
- ``serve`` — drive the real frontend end to end on either backend
  (queue, lanes, futures, clean shutdown); exits nonzero if a worker hangs.
- ``league`` — race the tuner family (RBO, CBO, surrogate) across the
  workload zoo under one seed and print the leaderboard JSON
  (byte-identical per seed; see ``docs/tuning.md``).
- ``snapshot --data-dir DIR`` — open (or restore) a durable profile
  store rooted at DIR and checkpoint it: flush every region's memstore
  to SSTables and write ``index_checkpoint.json`` so the next restore
  serves its first probe without an index rebuild (see
  ``docs/durability.md``).  ``--populate N`` writes N synthetic
  profiles first, making a create→snapshot→restore round trip
  self-contained.
- ``compact --data-dir DIR`` — force a full compaction of every region
  store under DIR: merges each store's tables into one deep run of
  block-sharded SSTables, then prints per-level table/block counts as
  JSON.

``demo`` and ``serve`` accept ``--data-dir DIR`` to run over a durable
(restorable) profile store instead of the in-memory default.

``demo``, ``experiments``, and ``metrics`` accept ``--emit-metrics PATH``
to dump the collected metrics and completed spans as JSON (see
``docs/observability.md``), and ``--chaos SPEC`` to run the whole
workload under injected store faults — a preset (``flaky[:p]``,
``outage``, ``slow[:delay]``, ``rolling-restart[:period]``) or a JSON
fault-plan path (see ``docs/resilience.md``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import types
import typing
from typing import Any, Callable, Sequence

__all__ = ["main", "build_parser"]


def _experiment_registry() -> dict[str, Callable]:
    from .experiments import (
        ablations, adoption, dataflow_similarity, fig1_3, fig4_1, fig4_3, fig4_5, fig4_6,
        fig6_1, fig6_2, fig6_3, table6_1,
    )

    # run_all's order: the full report (no names) is RESULTS.txt.
    return {
        "table6_1": table6_1.run,
        "fig1_3": fig1_3.run,
        "fig4_1": fig4_1.run,
        "fig4_3": fig4_3.run,
        "fig4_5": fig4_5.run,
        "fig4_6": fig4_6.run,
        "fig6_1": fig6_1.run,
        "fig6_2": fig6_2.run,
        "fig6_3": fig6_3.run,
        "pushdown": ablations.run_pushdown,
        "store-models": ablations.run_store_models,
        "param-features": ablations.run_param_features,
        "filter-order": ablations.run_filter_order,
        "thresholds": ablations.run_threshold_sensitivity,
        "cluster-transfer": ablations.run_cluster_transfer,
        "gbrt-weights": ablations.run_gbrt_weights,
        "store-scalability": ablations.run_store_scalability,
        "cfg-cost": ablations.run_cfg_cost_correlation,
        "adoption": adoption.run,
        "dataflow-similarity": dataflow_similarity.run,
    }


def _maybe_enable_chaos(args: argparse.Namespace):
    """Install the process-default fault injector when --chaos is set.

    Every HBase substrate built afterwards — including the stores the
    experiment drivers create internally — consults the injector, so one
    flag puts a whole suite under faults.  Returns the injector or None.
    """
    spec = getattr(args, "chaos", None)
    if not spec:
        return None
    from .chaos import FaultInjector, plan_from_spec, set_default_injector

    injector = FaultInjector(plan_from_spec(spec, seed=args.seed))
    set_default_injector(injector)
    print(f"chaos enabled: {spec} (seed {args.seed})", file=sys.stderr)
    return injector


def _report_chaos(injector) -> None:
    """Print the injected-fault tally after a chaos run."""
    if injector is None:
        return
    summary = injector.summary()
    if not summary:
        print(
            f"chaos: no faults injected over "
            f"{injector.operations_seen} operations",
            file=sys.stderr,
        )
        return
    tally = ", ".join(f"{key} x{count}" for key, count in summary.items())
    print(
        f"chaos: injected {tally} over {injector.operations_seen} operations",
        file=sys.stderr,
    )


def _maybe_emit_metrics(args: argparse.Namespace) -> None:
    """Dump the default registry/tracer snapshot when --emit-metrics is set."""
    path = getattr(args, "emit_metrics", None)
    if not path:
        return
    from .observability import export

    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(export.to_json())
            handle.write("\n")
    except OSError as error:
        # Same exit status as an argparse usage error, without a traceback.
        print(
            f"repro: cannot write metrics to {path}: {error.strerror or error}",
            file=sys.stderr,
        )
        raise SystemExit(2) from None
    print(f"metrics written to {path}", file=sys.stderr)


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.common import ExperimentContext, collect_suite

    registry = _experiment_registry()
    names = args.names or list(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(registry)}", file=sys.stderr)
        return 2

    injector = _maybe_enable_chaos(args)
    ctx = ExperimentContext.create(args.seed, workers=getattr(args, "workers", 1))
    needs_suite = {"fig6_1", "fig6_2", "fig6_3", "pushdown",
                   "store-models", "thresholds", "gbrt-weights", "filter-order",
                   "store-scalability", "cfg-cost"}
    if not args.names:
        print(f"PStorM reproduction — full experiment report (seed {args.seed})")
        print("Generated by: PYTHONPATH=src python -m repro experiments > RESULTS.txt")
        print("See EXPERIMENTS.md for the paper-vs-measured comparison per result.")
        print()
    records = None
    if needs_suite & set(names):
        print("profiling the benchmark suite...", file=sys.stderr)
        records = collect_suite(ctx, seed=args.seed)
    for name in names:
        run = registry[name]
        if name in needs_suite:
            result = run(ctx, records, seed=args.seed)
        else:
            result = run(ctx, seed=args.seed)
        print(result)
        print()
    _report_chaos(injector)
    _maybe_emit_metrics(args)
    return 0


def _cmd_list_jobs(args: argparse.Namespace) -> int:
    from .workloads import standard_benchmark

    for entry in standard_benchmark():
        print(
            f"{entry.job.name:<28} {entry.domain:<28} {entry.dataset.name:<18} "
            f"{entry.dataset.num_splits:>4} splits"
        )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .chaos import StoreUnavailableError
    from .core import PStorM
    from .hadoop import HadoopEngine, JobConfiguration, ec2_cluster
    from .workloads import (
        bigram_relative_frequency_job,
        cooccurrence_pairs_job,
        wikipedia_35gb,
    )

    injector = _maybe_enable_chaos(args)
    engine = HadoopEngine(ec2_cluster())
    tuner = getattr(args, "tuner", "cbo")
    if getattr(args, "data_dir", None):
        from .core.store import ProfileStore

        pstorm = PStorM(
            engine, store=ProfileStore(data_dir=args.data_dir), tuner=tuner
        )
    else:
        pstorm = PStorM(engine, tuner=tuner)
    wiki = wikipedia_35gb()

    print("storing the bigram relative frequency job's profile...")
    try:
        pstorm.remember(bigram_relative_frequency_job(), wiki, seed=args.seed)
    except StoreUnavailableError as exc:
        print(f"store write failed under chaos, continuing: {exc}", file=sys.stderr)

    unseen = cooccurrence_pairs_job()
    print(f"submitting never-seen job {unseen.name!r}...")
    result = pstorm.submit(unseen, wiki, seed=args.seed)
    default = engine.run_job(unseen, wiki, JobConfiguration(), seed=args.seed)
    print(f"matched: {result.matched} via {result.outcome.map_match.stage}")
    if result.degraded:
        print(f"degraded: {result.degradation_reason} "
              f"-> fallback {result.fallback_path}")
    print(f"default:      {default.runtime_seconds / 60:7.1f} min")
    print(f"PStorM-tuned: {result.runtime_seconds / 60:7.1f} min "
          f"({default.runtime_seconds / result.runtime_seconds:.2f}x)")
    _report_chaos(injector)
    _maybe_emit_metrics(args)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Exercise every instrumented layer once, then render the metrics."""
    from .chaos import StoreUnavailableError
    from .core import PStorM
    from .hadoop import (
        Dataset,
        FunctionRecordSource,
        HadoopEngine,
        MapReduceJob,
        ec2_cluster,
    )
    from .observability import export

    def lines(split_index, rng):
        words = [f"word{i:02d}" for i in range(30)]
        return [
            (i, " ".join(words[int(rng.integers(0, 30))] for __ in range(8)))
            for i in range(80)
        ]

    def wc_map(key, line, ctx):
        for word in line.split():
            ctx.emit(word, 1)

    def wc_reduce(word, counts, ctx):
        total = 0
        for count in counts:
            total += count
            ctx.report_ops(1)
        ctx.emit(word, total)

    dataset = Dataset(
        "metrics-smoke",
        nominal_bytes=128 << 20,
        source=FunctionRecordSource(lines),
        seed=7,
    )
    job = MapReduceJob(
        name="metrics-wordcount", mapper=wc_map, reducer=wc_reduce,
        combiner=wc_reduce,
    )
    injector = _maybe_enable_chaos(args)
    engine = HadoopEngine(ec2_cluster())
    pstorm = PStorM(engine, seed=args.seed)
    print("running the smoke workload...", file=sys.stderr)
    try:
        pstorm.remember(job, dataset, seed=args.seed)
    except StoreUnavailableError as exc:
        print(f"store write failed under chaos, continuing: {exc}", file=sys.stderr)
    pstorm.submit(job, dataset, seed=args.seed)
    print(export.to_prometheus(), end="")
    _report_chaos(injector)
    _maybe_emit_metrics(args)
    return 0


def _serve_base():
    """The ``serve`` verb's service before flags: the default tenants'
    rate limits over a 32-deep queue."""
    from .serving import ServiceConfig, default_tenants

    return ServiceConfig(
        queue_capacity=32,
        tenant_policies={t.name: t.policy for t in default_tenants()},
    )


#: Flags that keep a spelling other than the field's own name.
_FLAG_SPELLINGS = {
    "num_region_servers": "--region-servers",
}
#: loadgen simulates one lane pool and never starts the real frontend,
#: so the field that picks the frontend's miss runner has no flag there.
_LOADGEN_EXCLUDED = ("backend",)


def service_flag_fields() -> list[tuple[dataclasses.Field, type]]:
    """The scalar ``ServiceConfig`` fields with their value types
    (``X | None`` counts as ``X``); each becomes a flag."""
    from .serving import ServiceConfig

    hints = typing.get_type_hints(ServiceConfig)
    scalars = []
    for spec in dataclasses.fields(ServiceConfig):
        kind = hints[spec.name]
        if isinstance(kind, types.UnionType):
            kind = next(a for a in typing.get_args(kind) if a is not type(None))
        if kind in (bool, int, float, str):
            scalars.append((spec, kind))
    return scalars


def _add_service_flags(
    subparser: argparse.ArgumentParser, base: Any, exclude: Sequence[str] = ()
) -> None:
    """One flag per scalar ``ServiceConfig`` field, defaulting to *base*."""
    for spec, kind in service_flag_fields():
        if spec.name in exclude:
            continue
        flag = _FLAG_SPELLINGS.get(spec.name, "--" + spec.name.replace("_", "-"))
        options: dict[str, Any] = {
            "dest": spec.name,
            "default": getattr(base, spec.name),
            "help": f"ServiceConfig.{spec.name} (default: %(default)s)",
        }
        if kind is bool:
            options["action"] = argparse.BooleanOptionalAction
        else:
            options["type"] = kind
            options["choices"] = spec.metadata.get("choices")
        subparser.add_argument(flag, **options)


def _loadgen_base():
    """The ``loadgen`` verb's service before flags."""
    from .serving.loadgen import LOADGEN_SERVICE

    return LOADGEN_SERVICE


class _VerbParser(argparse.ArgumentParser):
    """A verb's parser.  ``serve`` and ``loadgen`` set
    :attr:`service_base`; their service flags are added the first time
    the verb is parsed or its help printed, so the other verbs never
    import the serving layer."""

    #: ``(base config factory, excluded fields)`` until the flags exist.
    service_base: tuple[Callable[[], Any], Sequence[str]] | None = None

    def _add_pending_service_flags(self) -> None:
        if self.service_base is not None:
            (make_base, exclude), self.service_base = self.service_base, None
            _add_service_flags(self, make_base(), exclude=exclude)

    def parse_known_args(self, args=None, namespace=None):
        self._add_pending_service_flags()
        return super().parse_known_args(args, namespace)

    def format_help(self) -> str:
        self._add_pending_service_flags()
        return super().format_help()


def _service_config(base: Any, args: argparse.Namespace) -> Any:
    """*base* with every service flag the verb has applied."""
    return dataclasses.replace(
        base,
        **{
            spec.name: getattr(args, spec.name)
            for spec, __ in service_flag_fields()
            if hasattr(args, spec.name)
        },
    )


def _invalid_configuration(error: ValueError) -> int:
    """One typed line for a service knob its config or parts reject."""
    print(f"repro: invalid configuration: {error}", file=sys.stderr)
    return 2


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Replay a seeded load run; the summary JSON on stdout is the
    deliverable (status chatter goes to stderr) so CI can compare two
    same-seed runs byte for byte."""
    from .serving import LoadConfig, run_load
    from .serving.loadgen import load_service

    injector = _maybe_enable_chaos(args)
    try:
        config = LoadConfig(
            requests=args.requests,
            seed=args.seed,
            mode=args.mode,
            arrival_rate=args.arrival_rate,
            clients=args.clients,
            think_seconds=args.think_seconds,
            remember_every=args.remember_every,
            service=_service_config(_loadgen_base(), args),
        )
        service = load_service(config)
    except ValueError as exc:
        return _invalid_configuration(exc)
    print(
        f"replaying {config.requests} requests "
        f"({config.mode} loop, {config.service.workers} simulated lanes, "
        f"seed {config.seed})...",
        file=sys.stderr,
    )
    report = run_load(config, service=service)
    print(report.to_json())
    _report_chaos(injector)
    _maybe_emit_metrics(args)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the real frontend end to end: start the lanes, drive seeded
    traffic through the real queue, stop cleanly.

    Unlike ``loadgen`` (a simulation, byte-deterministic), this exercises
    true concurrency — the summary counts are stable but latencies are
    wall-clock.  Exits nonzero if any worker fails to join.
    """
    import random as _random

    from .serving import ServiceOverloadError, TuningService, default_tenants
    from .serving.loadgen import loadgen_zoo

    injector = _maybe_enable_chaos(args)
    try:
        config = _service_config(_serve_base(), args)
        service = TuningService(
            config=config,
            seed=args.seed,
            data_dir=getattr(args, "data_dir", None) or None,
        )
    except ValueError as exc:
        return _invalid_configuration(exc)
    rng = _random.Random(args.seed)
    zoo = loadgen_zoo()
    tenants = default_tenants()
    names = [t.name for t in tenants]
    weights = [t.weight for t in tenants]
    service.start()
    print(
        f"serving {args.requests} requests on {config.workers} "
        f"{config.backend} workers...",
        file=sys.stderr,
    )
    futures = []
    shed = 0
    for __ in range(args.requests):
        job, dataset = zoo[rng.randrange(len(zoo))]
        tenant = rng.choices(names, weights=weights)[0]
        try:
            futures.append(
                service.submit_request(job, dataset, tenant=tenant, seed=args.seed)
            )
        except ServiceOverloadError as exc:
            shed += 1
            print(
                f"shed ({exc.reason}): retry after {exc.retry_after_seconds:.2f}s",
                file=sys.stderr,
            )
    responses = [f.result(timeout=args.timeout) for f in futures]
    clean = service.stop(timeout=args.timeout)
    ok = sum(1 for r in responses if r.ok)
    hits = sum(1 for r in responses if r.cache_hit)
    degraded = sum(1 for r in responses if r.degraded)
    summary = {
        "backend": config.backend,
        "cache_hits": hits,
        "degraded": degraded,
        "hung_workers": service.hung_workers,
        "ok": ok,
        "requests": args.requests,
        "served": len(responses),
        "shed": shed,
    }
    print(json.dumps(summary, sort_keys=True, indent=2))
    _report_chaos(injector)
    _maybe_emit_metrics(args)
    if not clean:
        print(
            f"ERROR: {service.hung_workers} worker(s) failed to join",
            file=sys.stderr,
        )
        return 1
    return 0


def _synthetic_job(index: int):
    """One synthetic (profile, static-features) pair for ``snapshot
    --populate`` — self-contained store contents without running jobs."""
    from .analysis.cfg import ControlFlowGraph
    from .analysis.static_features import STATIC_FEATURE_NAMES, StaticFeatures
    from .starfish.profile import (
        MAP_COST_FEATURES,
        MAP_DATA_FLOW_FEATURES,
        REDUCE_COST_FEATURES,
        REDUCE_DATA_FLOW_FEATURES,
        JobProfile,
        SideProfile,
    )

    def body(x):
        return x + 1

    map_profile = SideProfile(
        side="map",
        data_flow={
            name: 0.1 * (index + 1) + 0.01 * pos
            for pos, name in enumerate(MAP_DATA_FLOW_FEATURES)
        },
        cost_factors={
            name: float(pos + 1) for pos, name in enumerate(MAP_COST_FEATURES)
        },
        statistics={},
        phase_times={},
        num_tasks=2,
    )
    reduce_profile = SideProfile(
        side="reduce",
        data_flow={
            name: 0.5 + 0.1 * pos
            for pos, name in enumerate(REDUCE_DATA_FLOW_FEATURES)
        },
        cost_factors={
            name: float(pos + 1) for pos, name in enumerate(REDUCE_COST_FEATURES)
        },
        statistics={},
        phase_times={},
        num_tasks=1,
    )
    profile = JobProfile(
        job_name=f"synthetic{index}",
        dataset_name="synthetic",
        input_bytes=(index + 1) << 20,
        split_bytes=128 << 20,
        num_map_tasks=2,
        num_reduce_tasks=1,
        map_profile=map_profile,
        reduce_profile=reduce_profile,
    )
    cfg = ControlFlowGraph.from_callable(body)
    categorical = {
        name: f"v{index % 2}"
        for name in STATIC_FEATURE_NAMES
        if name not in ("MAP_CFG", "RED_CFG")
    }
    static = StaticFeatures(categorical=categorical, map_cfg=cfg, reduce_cfg=cfg)
    return profile, static


def _cmd_snapshot(args: argparse.Namespace) -> int:
    """Open-or-restore a durable store, optionally populate, checkpoint.

    The summary JSON on stdout reports how many jobs were *restored*
    from disk and whether the index came back from the checkpoint
    without a rebuild, so running this twice on the same directory is a
    complete durability round-trip check.
    """
    from .core.store import ProfileStore
    from .observability import MetricsRegistry

    registry = MetricsRegistry()
    store = ProfileStore(data_dir=args.data_dir, registry=registry)
    restored_jobs = len(store)
    for offset in range(args.populate):
        number = restored_jobs + offset
        profile, static = _synthetic_job(number)
        store.put(profile, static, job_id=f"synthetic-{number}@cli")
    store.match_index().ensure_fresh()
    path = store.snapshot()

    def metric(name: str) -> int:
        instrument = registry.get(name)
        return 0 if instrument is None else int(instrument.value)

    summary = {
        "checkpoint": str(path),
        "generation": store.generation,
        "index_checkpoint_loads": metric(
            "pstorm_match_index_checkpoint_loads_total"
        ),
        "index_rebuilds": metric("pstorm_matcher_index_rebuilds_total"),
        "jobs": len(store),
        "restored_jobs": restored_jobs,
        "restores": metric("snapshot_restores_total"),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    """Force-compact a durable store and print its resulting layout.

    The summary JSON reports how many regions were compacted and the
    per-level table/block counts afterwards — so the resulting layout
    is verifiable from stdout alone (the CI smoke asserts on it).
    """
    from .core.store import ProfileStore
    from .observability import MetricsRegistry

    registry = MetricsRegistry()
    store = ProfileStore(data_dir=args.data_dir, registry=registry)
    summary = store.compact(force=True)
    summary["jobs"] = len(store)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_league(args: argparse.Namespace) -> int:
    """Race the tuner family across the workload zoo.

    The leaderboard JSON on stdout is byte-identical for the same seed
    and roster (status chatter goes to stderr), so the CI smoke can
    assert well-formedness and compare re-runs byte for byte.
    """
    from .tuners import TUNER_NAMES
    from .tuners.league import LeagueConfig, leaderboard_json, run_league

    roster = (
        tuple(name.strip() for name in args.tuners.split(",") if name.strip())
        if args.tuners
        else TUNER_NAMES
    )
    try:
        config = LeagueConfig(
            seed=args.seed,
            tuners=roster,
            workers=args.workers,
            quick=args.quick,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(
        f"racing {', '.join(roster)} "
        f"({'quick' if args.quick else 'full'} mode, seed {config.seed})...",
        file=sys.stderr,
    )
    rendered = leaderboard_json(run_league(config))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"leaderboard written to {args.out}", file=sys.stderr)
    print(rendered, end="")
    _maybe_emit_metrics(args)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .experiments.common import ExperimentContext
    from .perfxplain import ExecutionLog, PerfQuery, PerfXplain
    from .workloads import standard_benchmark

    wanted = {args.job_a, args.job_b}
    ctx = ExperimentContext.create(args.seed)
    log = ExecutionLog()
    for entry in standard_benchmark(pigmix_queries=2):
        profile, execution = ctx.profiler.profile_job(
            entry.job, entry.dataset, seed=args.seed
        )
        log.add_execution(profile, execution)
    missing = wanted - set(log.keys())
    if missing:
        print(f"unknown jobs: {', '.join(sorted(missing))}", file=sys.stderr)
        print("known:", file=sys.stderr)
        for key in log.keys():
            print(f"  {key}", file=sys.stderr)
        return 2

    explainer = PerfXplain(log)
    query = PerfQuery(args.job_a, args.job_b, expected=args.expected)
    print(explainer.explain(query).render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PStorM reproduction: experiments, demos, explanations.",
    )
    parser.add_argument("--seed", type=int, default=0, help="global RNG seed")
    commands = parser.add_subparsers(
        dest="command", required=True, parser_class=_VerbParser
    )

    def add_emit_metrics(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--emit-metrics",
            metavar="PATH",
            default=None,
            help="write collected metrics and spans to PATH as JSON",
        )

    def add_seed(subparser: argparse.ArgumentParser) -> None:
        # Also accepted after the verb (``repro loadgen --seed 7``);
        # SUPPRESS keeps the global default when the verb omits it.
        subparser.add_argument(
            "--seed", type=int, default=argparse.SUPPRESS, help="RNG seed"
        )

    def add_chaos(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--chaos",
            metavar="SPEC",
            default=None,
            help=(
                "inject store faults: a preset (flaky[:p], outage, "
                "slow[:delay], rolling-restart[:period], "
                "replica-kill[:server]) or a JSON fault-plan path"
            ),
        )

    experiments = commands.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument("names", nargs="*", help="experiment names (default: all)")
    experiments.add_argument(
        "--workers",
        type=int,
        default=1,
        help="threads for independent (job, dataset) cells (default: 1)",
    )
    add_emit_metrics(experiments)
    add_chaos(experiments)
    experiments.set_defaults(handler=_cmd_experiments)

    list_jobs = commands.add_parser("list-jobs", help="the Table 6.1 inventory")
    list_jobs.set_defaults(handler=_cmd_list_jobs)

    def add_data_dir(subparser: argparse.ArgumentParser, required: bool = False) -> None:
        subparser.add_argument(
            "--data-dir",
            metavar="DIR",
            default=None,
            required=required,
            help="durable profile-store root (restored if it has state)",
        )

    demo = commands.add_parser("demo", help="tune a never-seen job via PStorM")
    demo.add_argument(
        "--tuner",
        choices=("rbo", "cbo", "surrogate"),
        default="cbo",
        help="hit-path optimizer (default: cbo, the paper's workflow)",
    )
    add_emit_metrics(demo)
    add_chaos(demo)
    add_data_dir(demo)
    demo.set_defaults(handler=_cmd_demo)

    snapshot = commands.add_parser(
        "snapshot",
        help="checkpoint (and optionally populate) a durable profile store",
    )
    add_data_dir(snapshot, required=True)
    snapshot.add_argument(
        "--populate",
        type=int,
        default=0,
        metavar="N",
        help="write N synthetic profiles before checkpointing",
    )
    snapshot.set_defaults(handler=_cmd_snapshot)

    compact = commands.add_parser(
        "compact",
        help="fully compact a durable store and print its SSTable layout",
    )
    add_data_dir(compact, required=True)
    compact.set_defaults(handler=_cmd_compact)

    metrics = commands.add_parser(
        "metrics", help="run a smoke workload and print Prometheus-format metrics"
    )
    add_emit_metrics(metrics)
    add_chaos(metrics)
    metrics.set_defaults(handler=_cmd_metrics)

    loadgen = commands.add_parser(
        "loadgen",
        help="replay deterministic synthetic load against the tuning service",
    )
    loadgen.add_argument("--requests", type=int, default=200)
    loadgen.add_argument("--mode", choices=("open", "closed"), default="open")
    loadgen.add_argument(
        "--arrival-rate",
        type=float,
        default=1.0,
        help="open-loop arrivals per simulated second",
    )
    loadgen.add_argument("--clients", type=int, default=8)
    loadgen.add_argument("--think-seconds", type=float, default=20.0)
    loadgen.add_argument(
        "--remember-every",
        type=int,
        default=25,
        help="every Nth arrival is a remember() write (0 disables)",
    )
    loadgen.service_base = (_loadgen_base, _LOADGEN_EXCLUDED)
    add_seed(loadgen)
    add_emit_metrics(loadgen)
    add_chaos(loadgen)
    loadgen.set_defaults(handler=_cmd_loadgen)

    serve = commands.add_parser(
        "serve", help="run the real tuning-service frontend end to end"
    )
    serve.add_argument("--requests", type=int, default=40)
    serve.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="per-future and shutdown timeout (wall seconds)",
    )
    serve.service_base = (_serve_base, ())
    add_seed(serve)
    add_emit_metrics(serve)
    add_chaos(serve)
    add_data_dir(serve)
    serve.set_defaults(handler=_cmd_serve)

    league = commands.add_parser(
        "league", help="race the tuner family on a seeded leaderboard"
    )
    league.add_argument(
        "--quick",
        action="store_true",
        help="first-per-family workloads and reduced search budgets",
    )
    league.add_argument(
        "--tuners",
        default=None,
        metavar="A,B,...",
        help="comma-separated roster (default: rbo,cbo,surrogate)",
    )
    league.add_argument(
        "--workers",
        type=int,
        default=1,
        help="threads for race cells (never changes the payload)",
    )
    league.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the leaderboard JSON to PATH",
    )
    add_seed(league)
    add_emit_metrics(league)
    league.set_defaults(handler=_cmd_league)

    explain = commands.add_parser("explain", help="PerfXplain a job pair")
    explain.add_argument("job_a", help="reference job key, e.g. word-count@wikipedia-35gb")
    explain.add_argument("job_b", help="surprising job key")
    explain.add_argument(
        "--expected", default="similar", choices=("similar", "slower", "faster")
    )
    explain.set_defaults(handler=_cmd_explain)
    return parser


#: Exit status of a command ended by a ``--chaos crash-point:N`` kill.
EXIT_CRASHED = 3


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    A reader that closes stdout early (``repro list-jobs | head -1``)
    ends the command quietly with status 1 instead of a traceback.  A
    simulated process kill (the ``crash-point`` chaos preset) ends it
    with one ``repro:`` line naming the killed operation and status
    :data:`EXIT_CRASHED`.
    """
    from .hbase.errors import SimulatedCrashError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()
    except SimulatedCrashError as crash:
        print(f"repro: {crash}", file=sys.stderr)
        return EXIT_CRASHED
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's own flush at exit
        # cannot hit the closed pipe again (the recipe in the Python
        # docs' note on SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
