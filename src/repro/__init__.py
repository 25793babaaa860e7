"""PStorM reproduction: profile storage and matching for feedback-based
tuning of MapReduce jobs (Ead, Herodotou, Aboulnaga, Babu — EDBT 2014).

Subpackages:

- :mod:`repro.hadoop` — Hadoop MapReduce execution simulator.
- :mod:`repro.hbase` — column-family profile store substrate.
- :mod:`repro.analysis` — static analysis (CFG extraction and matching).
- :mod:`repro.starfish` — profiler, sampler, What-If engine, CBO, RBO.
- :mod:`repro.core` — PStorM: feature vectors, profile store, matcher.
- :mod:`repro.workloads` — the Table 6.1 benchmark jobs and datasets.
- :mod:`repro.dataflow` — a mini Pig Latin over generic MR operators.
- :mod:`repro.experiments` — drivers regenerating every table and figure.

The most common entry points are re-exported here::

    from repro import PStorM, HadoopEngine, ec2_cluster
"""

from .core.pstorm import PStorM, SubmissionResult
from .hadoop.cluster import ec2_cluster
from .hadoop.config import JobConfiguration
from .hadoop.engine import HadoopEngine
from .hadoop.job import MapReduceJob

__version__ = "1.0.0"

__all__ = [
    "PStorM",
    "SubmissionResult",
    "ec2_cluster",
    "JobConfiguration",
    "HadoopEngine",
    "MapReduceJob",
    "__version__",
]
