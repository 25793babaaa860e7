"""Adapters: the paper's own optimizers behind the family protocol.

The point of the adapters is that *nothing changes* for the existing
optimizers — :class:`CboTuner.optimize` is one delegation to
``CostBasedOptimizer.optimize`` and its decision carries that result's
fields verbatim (the league benchmark asserts bit-identity against a
direct call), and :class:`RboTuner` wraps the Appendix-B rules, pricing
the recommendation through the What-If engine only so its decision is
comparable on the same leaderboard axes as every search tuner.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..observability import MetricsRegistry, Tracer
from ..starfish.cbo import CostBasedOptimizer
from ..starfish.profile import JobProfile
from ..starfish.rbo import RuleBasedOptimizer
from ..starfish.whatif import WhatIfEngine
from ..hadoop.config import JobConfiguration
from .base import TunerDecision, traced_optimize

__all__ = ["CboTuner", "RboTuner"]


@dataclass
class CboTuner:
    """The Starfish cost-based optimizer, unchanged, as a family member."""

    cbo: CostBasedOptimizer
    registry: MetricsRegistry | None = None
    tracer: Tracer | None = None

    name = "cbo"

    def optimize(
        self,
        profile: JobProfile,
        data_bytes: int | None = None,
    ) -> TunerDecision:
        def run() -> TunerDecision:
            result = self.cbo.optimize(profile, data_bytes)
            return TunerDecision(
                tuner=self.name,
                best_config=result.best_config,
                predicted_runtime=result.predicted_runtime,
                default_predicted_runtime=result.default_predicted_runtime,
                evaluations=result.evaluations,
            )

        return traced_optimize(self.name, self.tracer, self.registry, run)


@dataclass
class RboTuner:
    """The Appendix-B rule-based optimizer as a family member.

    The rules themselves never consult the What-If engine; the two
    predictions here (recommendation + default) exist purely so the
    decision carries the same speedup/budget axes as every other tuner.
    A rule failure falls back to the default configuration — the same
    posture as PStorM's degradation ladder.
    """

    rbo: RuleBasedOptimizer
    whatif: WhatIfEngine
    registry: MetricsRegistry | None = None
    tracer: Tracer | None = None

    name = "rbo"

    def optimize(
        self,
        profile: JobProfile,
        data_bytes: int | None = None,
    ) -> TunerDecision:
        def run() -> TunerDecision:
            try:
                config = self.rbo.recommend(profile).config
            except Exception:
                config = JobConfiguration()
            default_runtime = float(
                self.whatif.predict(
                    profile, JobConfiguration(), data_bytes
                ).runtime_seconds
            )
            runtime = float(
                self.whatif.predict(profile, config, data_bytes).runtime_seconds
            )
            return TunerDecision(
                tuner=self.name,
                best_config=config,
                predicted_runtime=runtime,
                default_predicted_runtime=default_runtime,
                evaluations=2,
            )

        return traced_optimize(self.name, self.tracer, self.registry, run)
