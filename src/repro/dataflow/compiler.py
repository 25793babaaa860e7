"""Compile dataflow scripts into MR jobs.

Each stage of a script — a run of filters/projections closed by a
blocking operator — becomes one :class:`MapReduceJob` whose mapper and
reducer are the *generic* runtime operators of
:mod:`repro.dataflow.runtime`, parameterized purely through job params
(serializable descriptor tuples).  Consequences, exactly as §1 predicts
for Pig/Hive-generated jobs:

- every compiled job shares MAPPER/REDUCER class names, CFGs, and
  formatters (PigStorage in, PigStorage out), so PStorM's static features
  agree across scripts;
- only the *dynamic* features differ, which is what the matcher's
  dynamics-first design is built to exploit.
"""

from __future__ import annotations

from ..hadoop.job import MapReduceJob
from .runtime import dataflow_map, dataflow_reduce
from .script import DataflowScript

__all__ = ["compile_script"]


def compile_script(script: DataflowScript) -> list[MapReduceJob]:
    """Lower a script to one MR job per stage."""
    jobs: list[MapReduceJob] = []
    stages = script.stages()
    for index, (pipeline, blocking) in enumerate(stages):
        params = {
            "pipeline": tuple(op.descriptor() for op in pipeline),
            "shuffle": blocking.descriptor() if blocking is not None else None,
        }
        suffix = f"-s{index}" if len(stages) > 1 else ""
        jobs.append(
            MapReduceJob(
                name=f"dataflow-{script.name}{suffix}",
                mapper=dataflow_map,
                reducer=dataflow_reduce if blocking is not None else None,
                combiner=None,
                input_format="PigStorage",
                output_format="PigStorage",
                params=params,
            )
        )
    return jobs
