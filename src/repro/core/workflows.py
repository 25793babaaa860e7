"""Dataflow-program (workflow) tuning (§7.2.5).

Big-data analyses are rarely single MR jobs: Pig/Hive scripts compile to
*chains* where each stage consumes its predecessor's output.  The thesis
leaves workflow tuning as future work; this module implements the natural
extension: execute a chain on the simulator, deriving each stage's input
dataset from the previous stage's (sampled) output — record samples from
actually running the full map/combine/reduce pipeline, nominal size from
the executed stage's aggregate reduce output — and tune every stage
through PStorM before it runs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..hadoop.config import JobConfiguration
from ..hadoop.dataset import Dataset
from ..hadoop.job import MapReduceJob
from ..hadoop.tasks import JobExecution
from .pstorm import PStorM, SubmissionResult

__all__ = ["ChainStage", "StageResult", "WorkflowResult", "run_chain"]


@dataclass(frozen=True)
class ChainStage:
    """One stage of a workflow.

    Attributes:
        job: the MR job this stage runs.
        input_from: ``"previous"`` to consume the prior stage's output,
            ``"source"`` to re-read the workflow's initial dataset (e.g.
            FIM's candidate-counting phases re-scan the transactions).
    """

    job: MapReduceJob
    input_from: str = "previous"

    def __post_init__(self) -> None:
        if self.input_from not in ("previous", "source"):
            raise ValueError("input_from must be 'previous' or 'source'")


@dataclass
class StageResult:
    """Outcome of one executed stage."""

    stage: ChainStage
    dataset: Dataset
    submission: SubmissionResult

    @property
    def runtime_seconds(self) -> float:
        return self.submission.runtime_seconds

    @property
    def output_bytes(self) -> int:
        return int(
            self.submission.execution.reduce_table.column("output_bytes").sum()
        )


@dataclass
class WorkflowResult:
    """Outcome of a whole chain run."""

    stages: list[StageResult] = field(default_factory=list)

    @property
    def total_runtime_seconds(self) -> float:
        """End-to-end chain latency (stages run back to back)."""
        return sum(stage.runtime_seconds for stage in self.stages)

    def matched_stages(self) -> int:
        return sum(1 for stage in self.stages if stage.submission.matched)


class _MaterializedSource:
    """Record source replaying a fixed sample (a stage's sampled output).

    Equal by value, so a re-run chain's derived dataset equals the last
    run's and hits the engine's measurement caches, which key on the
    ``Dataset`` value.  Pairs compare by ``repr`` — what the default
    partitioner hashes — so ``1`` and ``1.0`` stay apart, and unhashable
    values still hash.
    """

    def __init__(self, pairs: Sequence[tuple[Any, Any]]) -> None:
        if not pairs:
            raise ValueError("a derived dataset needs at least one record")
        self._pairs = list(pairs)
        self._key = repr(self._pairs)

    def generate(self, split_index: int, rng: np.random.Generator) -> list:
        del split_index, rng  # the sample is fixed; splits replay it
        return list(self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _MaterializedSource):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


def _stage_output_sample(
    job: MapReduceJob, dataset: Dataset, engine, max_pairs: int = 600
) -> list[tuple[Any, Any]]:
    """Sample output records of one stage: run the full sampled pipeline."""
    measurement = engine.measure_split(job, dataset, 0)
    intermediate = measurement.intermediate_pairs(combined=job.has_combiner)
    if job.reducer is None:
        return list(intermediate)[:max_pairs]
    groups: dict[Any, list[Any]] = defaultdict(list)
    for key, value in intermediate:
        groups[key].append(value)
    context = job.make_context()
    for key, values in groups.items():
        job.reducer(key, values, context)
    return context.pairs[:max_pairs]


def _derived_dataset(
    name: str,
    pairs: Sequence[tuple[Any, Any]],
    nominal_bytes: int,
    split_bytes: int,
) -> Dataset:
    return Dataset(
        name=name,
        nominal_bytes=max(1, nominal_bytes),
        source=_MaterializedSource(pairs),
        split_bytes=split_bytes,
        seed=0,
    )


def run_chain(
    pstorm: PStorM,
    stages: Sequence[ChainStage],
    source: Dataset,
    config: JobConfiguration | None = None,
    seed: int = 0,
) -> WorkflowResult:
    """Run a workflow, tuning every stage through PStorM.

    Each stage is *submitted* to PStorM (1-task sample, store lookup, CBO
    on a hit; instrumented run + store insert on a miss), so a chain run
    twice gets every stage tuned the second time — and chains sharing
    stages (FIM's counting phases look like word count) benefit from each
    other's history.
    """
    if not stages:
        raise ValueError("a workflow needs at least one stage")

    result = WorkflowResult()
    previous_output: Dataset | None = None
    for index, stage in enumerate(stages):
        if stage.input_from == "source" or previous_output is None:
            dataset = source
        else:
            dataset = previous_output

        submission = pstorm.submit(stage.job, dataset, config=config, seed=seed + index)
        stage_result = StageResult(stage=stage, dataset=dataset, submission=submission)
        result.stages.append(stage_result)

        # Derive the next stage's input from this stage's output.
        output_pairs = _stage_output_sample(stage.job, dataset, pstorm.engine)
        output_bytes = stage_result.output_bytes
        if output_pairs and output_bytes > 0:
            previous_output = _derived_dataset(
                name=f"{stage.job.name}-output",
                pairs=output_pairs,
                nominal_bytes=output_bytes,
                split_bytes=dataset.split_bytes,
            )
        else:
            previous_output = None
    return result
