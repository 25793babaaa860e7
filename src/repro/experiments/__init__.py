"""Experiment drivers: one module per table/figure, plus ablations.

Every driver returns an :class:`ExperimentResult`.  :data:`REPORT` lists
them in report order; ``python -m repro experiments`` runs it.
"""

from typing import Callable, NamedTuple

from . import (
    ablations,
    adoption,
    dataflow_similarity,
    fig1_3,
    fig4_1,
    fig4_3,
    fig4_5,
    fig4_6,
    fig6_1,
    fig6_2,
    fig6_3,
    table6_1,
)
from .accuracy import (
    AccuracyResult,
    evaluate_gbrt,
    evaluate_nn_baseline,
    evaluate_pstorm,
)
from .common import (
    ExperimentContext,
    SuiteRecord,
    build_store,
    collect_suite,
    twin_of,
)
from .result import ExperimentResult

__all__ = [
    "ablations",
    "adoption",
    "dataflow_similarity",
    "fig1_3",
    "fig4_1",
    "fig4_3",
    "fig4_5",
    "fig4_6",
    "fig6_1",
    "fig6_2",
    "fig6_3",
    "table6_1",
    "AccuracyResult",
    "evaluate_gbrt",
    "evaluate_nn_baseline",
    "evaluate_pstorm",
    "ExperimentContext",
    "SuiteRecord",
    "build_store",
    "collect_suite",
    "twin_of",
    "ExperimentResult",
    "Experiment",
    "REPORT",
]


class Experiment(NamedTuple):
    """One driver of the report."""

    #: The name ``python -m repro experiments NAME`` selects it by.
    name: str
    #: ``run(ctx, seed=...)``, or ``run(ctx, records, seed=...)`` when
    #: :attr:`takes_suite`.
    run: Callable[..., ExperimentResult]
    #: Whether the driver reads the profiled Table 6.1 suite records.
    takes_suite: bool


#: Every driver, in the order of the full report (RESULTS.txt).
REPORT: tuple[Experiment, ...] = (
    Experiment("table6_1", table6_1.run, False),
    Experiment("fig1_3", fig1_3.run, False),
    Experiment("fig4_1", fig4_1.run, False),
    Experiment("fig4_3", fig4_3.run, False),
    Experiment("fig4_5", fig4_5.run, False),
    Experiment("fig4_6", fig4_6.run, False),
    Experiment("fig6_1", fig6_1.run, True),
    Experiment("fig6_2", fig6_2.run, True),
    Experiment("fig6_3", fig6_3.run, True),
    Experiment("pushdown", ablations.run_pushdown, True),
    Experiment("store-models", ablations.run_store_models, True),
    Experiment("param-features", ablations.run_param_features, False),
    Experiment("filter-order", ablations.run_filter_order, True),
    Experiment("thresholds", ablations.run_threshold_sensitivity, True),
    Experiment("cluster-transfer", ablations.run_cluster_transfer, False),
    Experiment("gbrt-weights", ablations.run_gbrt_weights, True),
    Experiment("store-scalability", ablations.run_store_scalability, True),
    Experiment("cfg-cost", ablations.run_cfg_cost_correlation, True),
    Experiment("adoption", adoption.run, False),
    Experiment("dataflow-similarity", dataflow_similarity.run, False),
)
