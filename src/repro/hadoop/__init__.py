"""Hadoop MapReduce execution simulator (substrate).

Models a Hadoop 0.20-era cluster at the fidelity feedback-based tuning
needs: the 14 tuning parameters of Table 2.1, phase-level map/reduce task
execution driven by *really executing* the user's map/reduce functions over
sampled synthetic records, and wave-based slot scheduling.
"""

from .cluster import ClusterSpec, CostRates, WorkerNode, ec2_cluster
from .config import (
    CONFIGURATION_SPACE,
    PARAMETER_NAMES,
    JobConfiguration,
    ParameterSpec,
    default_configuration,
)
from .context import TaskContext
from .counters import FRAMEWORK_GROUP, Counters
from .dataset import DEFAULT_SPLIT_BYTES, Dataset, FunctionRecordSource, InputSplit
from .engine import HadoopEngine
from .job import MapReduceJob, default_partitioner
from .tasks import (
    MAP_PHASES,
    REDUCE_PHASES,
    JobExecution,
    MapTaskExecution,
    MapTaskTable,
    ReduceTaskExecution,
    ReduceTaskTable,
)

__all__ = [
    "ClusterSpec",
    "CostRates",
    "WorkerNode",
    "ec2_cluster",
    "CONFIGURATION_SPACE",
    "PARAMETER_NAMES",
    "JobConfiguration",
    "ParameterSpec",
    "default_configuration",
    "TaskContext",
    "FRAMEWORK_GROUP",
    "Counters",
    "DEFAULT_SPLIT_BYTES",
    "Dataset",
    "FunctionRecordSource",
    "InputSplit",
    "HadoopEngine",
    "MapReduceJob",
    "default_partitioner",
    "MAP_PHASES",
    "REDUCE_PHASES",
    "JobExecution",
    "MapTaskExecution",
    "MapTaskTable",
    "ReduceTaskExecution",
    "ReduceTaskTable",
]
