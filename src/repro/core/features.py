"""PStorM feature vectors: dynamic + static features of a submitted job.

The matcher works on two per-side vectors (§4.3): each combines the side's
Table 4.1 data-flow statistics (dynamic, from the 1-task sample profile),
its Table 4.2 cost factors (dynamic, used only by the fallback filter),
and its slice of the Table 4.3 static features (from the job's byte code).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..analysis.cfg import ControlFlowGraph
from ..analysis.static_features import StaticFeatures, extract_static_features
from ..hadoop.dataset import Dataset
from ..hadoop.engine import HadoopEngine
from ..hadoop.job import MapReduceJob
from ..starfish.profile import (
    MAP_COST_FEATURES,
    MAP_DATA_FLOW_FEATURES,
    REDUCE_COST_FEATURES,
    REDUCE_DATA_FLOW_FEATURES,
    JobProfile,
)

__all__ = ["JobFeatures", "extract_job_features", "observe_record_streams"]


@dataclass(frozen=True)
class JobFeatures:
    """Everything the matcher knows about a submitted job.

    Attributes:
        job_name: submitted job's name (for reporting only — the matcher
            never uses it).
        static: Table 4.3 static features.
        map_data_flow: map-side dynamic vector (4 selectivities).
        map_costs: map-side cost-factor vector.
        reduce_data_flow: reduce-side dynamic vector (2 selectivities),
            or None for map-only jobs.
        reduce_costs: reduce-side cost-factor vector, or None.
        input_bytes: input data size of the submission (tie-break key).
    """

    job_name: str
    static: StaticFeatures
    map_data_flow: tuple[float, ...]
    map_costs: tuple[float, ...]
    reduce_data_flow: tuple[float, ...] | None
    reduce_costs: tuple[float, ...] | None
    input_bytes: int

    @property
    def has_reduce(self) -> bool:
        return self.reduce_data_flow is not None

    def side_vectors(
        self, side: str
    ) -> tuple[tuple[float, ...], tuple[float, ...], dict[str, str], ControlFlowGraph | None]:
        """(data flow, costs, categorical statics, cfg) for one side."""
        if side == "map":
            return (
                self.map_data_flow,
                self.map_costs,
                self.static.map_side(),
                self.static.map_cfg,
            )
        if side == "reduce":
            if not self.has_reduce:
                raise ValueError("job has no reduce side")
            return (
                self.reduce_data_flow,
                self.reduce_costs,
                self.static.reduce_side(),
                self.static.reduce_cfg,
            )
        raise ValueError("side must be 'map' or 'reduce'")


def observe_record_streams(
    job: MapReduceJob, dataset: Dataset, engine: HadoopEngine, split_index: int = 0
) -> tuple[list[tuple[Any, Any]], list[tuple[Any, Any]], list[tuple[Any, Any]]]:
    """Observed (input, intermediate, output) record examples of one split.

    Reads the engine's cached split measurement — the same micro-execution
    PStorM's 1-task sample performs — so the static feature extractor can
    read key/value types off real records: its first input records, its
    first map output pairs, and the reducer's output over its first key
    groups, computed once per measurement and reducer.
    """
    measurement = engine.measure_split(job, dataset, split_index)
    output_pairs: list[tuple[Any, Any]] = []
    if job.reducer is not None and measurement.sample_map_pairs:
        output_pairs = measurement.derived(
            ("reduce_output_examples", job.reducer),
            lambda: _reduce_output_examples(job, measurement.sample_map_pairs),
        )
    return (
        list(measurement.sample_input_head),
        list(measurement.sample_map_pairs[:4]),
        list(output_pairs),
    )


def _reduce_output_examples(
    job: MapReduceJob, map_pairs: Sequence[tuple[Any, Any]]
) -> list[tuple[Any, Any]]:
    """The reducer's first output pairs over the first four key groups."""
    groups: dict[Any, list[Any]] = {}
    for key, value in map_pairs:
        groups.setdefault(key, []).append(value)
    context = job.make_context()
    for key, values in list(groups.items())[:4]:
        job.reducer(key, values, context)
    return context.pairs[:4]


def extract_job_features(
    job: MapReduceJob,
    dataset: Dataset,
    sample_profile: JobProfile,
    engine: HadoopEngine,
) -> JobFeatures:
    """Build the matcher's feature vector for a submitted job.

    Args:
        job: the submitted job (static features come from its code).
        dataset: the submission's input data.
        sample_profile: the 1-task sample profile (dynamic features).
        engine: used to observe record examples for type features.
    """
    input_pairs, intermediate_pairs, output_pairs = observe_record_streams(
        job, dataset, engine
    )
    static = extract_static_features(job, input_pairs, intermediate_pairs, output_pairs)

    mp = sample_profile.map_profile
    map_data_flow = tuple(mp.data_flow[name] for name in MAP_DATA_FLOW_FEATURES)
    map_costs = tuple(mp.cost_factors.get(name, 0.0) for name in MAP_COST_FEATURES)

    reduce_data_flow = None
    reduce_costs = None
    rp = sample_profile.reduce_profile
    if rp is not None:
        reduce_data_flow = tuple(
            rp.data_flow[name] for name in REDUCE_DATA_FLOW_FEATURES
        )
        reduce_costs = tuple(
            rp.cost_factors.get(name, 0.0) for name in REDUCE_COST_FEATURES
        )

    return JobFeatures(
        job_name=job.name,
        static=static,
        map_data_flow=map_data_flow,
        map_costs=map_costs,
        reduce_data_flow=reduce_data_flow,
        reduce_costs=reduce_costs,
        input_bytes=dataset.nominal_bytes,
    )
