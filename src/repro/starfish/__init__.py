"""Starfish substrate: profiler, sampler, What-If engine, CBO, and RBO.

The feedback-based tuning stack PStorM plugs into (§2.3.1): execution
profiles with data-flow statistics and cost factors, task sampling,
analytical runtime prediction, recursive-random-search cost-based
optimization, and the Appendix B rule-based optimizer baseline.
"""

from .cbo import CostBasedOptimizer, OptimizationResult
from .profile import (
    MAP_COST_FEATURES,
    MAP_DATA_FLOW_FEATURES,
    MAP_STATISTICS,
    REDUCE_COST_FEATURES,
    REDUCE_DATA_FLOW_FEATURES,
    REDUCE_STATISTICS,
    JobProfile,
    SideProfile,
)
from .profiler import StarfishProfiler, build_profile
from .rbo import RboDecision, RuleBasedOptimizer
from .sampler import Sampler, SampleResult
from .whatif import BatchPrediction, WhatIfEngine, WhatIfPrediction

__all__ = [
    "BatchPrediction",
    "CostBasedOptimizer",
    "OptimizationResult",
    "MAP_COST_FEATURES",
    "MAP_DATA_FLOW_FEATURES",
    "MAP_STATISTICS",
    "REDUCE_COST_FEATURES",
    "REDUCE_DATA_FLOW_FEATURES",
    "REDUCE_STATISTICS",
    "JobProfile",
    "SideProfile",
    "StarfishProfiler",
    "build_profile",
    "RboDecision",
    "RuleBasedOptimizer",
    "Sampler",
    "SampleResult",
    "WhatIfEngine",
    "WhatIfPrediction",
]
