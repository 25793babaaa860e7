"""Figure 4.6: shuffle times of word co-occurrence across dataset sizes.

The tie-break rationale: the same job on different input sizes shuffles
very different volumes per reducer, so its reduce-side profiles differ —
hence the matcher prefers the stored profile whose input size is closest
to the submission's.
"""

from __future__ import annotations

from ..hadoop.config import JobConfiguration
from ..workloads.datasets import random_text_1gb, wikipedia_35gb
from ..workloads.jobs import cooccurrence_pairs_job
from .common import ExperimentContext
from .result import ExperimentResult

__all__ = ["run"]


def run(ctx: ExperimentContext | None = None, seed: int = 0) -> ExperimentResult:
    """Regenerate Figure 4.6: per-reducer shuffle times by dataset size."""
    if ctx is None:
        ctx = ExperimentContext.create(seed)
    job = cooccurrence_pairs_job()
    config = JobConfiguration()

    rows = []
    for dataset in (random_text_1gb(), wikipedia_35gb()):
        execution = ctx.engine.run_job(job, dataset, config, seed=seed)
        shuffle = execution.reduce_phase_totals()["SHUFFLE"]
        reduces = max(1, execution.num_reduce_tasks)
        shuffle_bytes = int(execution.reduce_table.column("shuffle_bytes").sum())
        rows.append(
            [
                dataset.name,
                round(dataset.nominal_bytes / (1 << 30), 1),
                round(shuffle / reduces, 1),
                round(shuffle_bytes / (1 << 30), 2),
            ]
        )
    return ExperimentResult(
        name="Figure 4.6",
        title="Shuffle times of word co-occurrence on different data sets",
        headers=["dataset", "input GB", "shuffle s/reducer", "shuffled GB"],
        rows=rows,
        notes="Expected shape: shuffle time grows with the dataset size.",
    )
