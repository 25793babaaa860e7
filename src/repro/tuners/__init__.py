"""The tuner family: one protocol, many search strategies.

``repro.tuners`` widens the paper's single cost-based optimizer into a
raceable family behind one :class:`~repro.tuners.base.Tuner` protocol:

- ``rbo`` / ``cbo`` — adapters over the existing Appendix-B rules and
  the Starfish recursive-random-search CBO (bit-identical to calling
  them directly);
- ``surrogate`` — a kernel-ridge surrogate model over What-If
  evaluations, warm-started from profile history in the store.

:func:`make_tuner` is the registry the submit path, the serving config,
and the CLI resolve names through.  The league harness that races the
family across the workload zoo lives in :mod:`repro.tuners.league`
(imported lazily — it pulls in the experiment drivers).
"""

from __future__ import annotations

from typing import Any

from ..hadoop.cluster import ClusterSpec
from ..observability import MetricsRegistry, Tracer
from ..starfish.cbo import CostBasedOptimizer
from ..starfish.rbo import RuleBasedOptimizer
from ..starfish.whatif import WhatIfEngine
from .adapters import CboTuner, RboTuner
from .base import Tuner, TunerDecision, WhatIfObjective
from .surrogate import SurrogateTuner

__all__ = [
    "TUNER_NAMES",
    "CboTuner",
    "RboTuner",
    "SurrogateTuner",
    "Tuner",
    "TunerDecision",
    "WhatIfObjective",
    "make_tuner",
]

#: Resolvable tuner names, in leaderboard display order.
TUNER_NAMES: tuple[str, ...] = ("rbo", "cbo", "surrogate")


def make_tuner(
    name: str,
    whatif: WhatIfEngine,
    cluster: ClusterSpec | None = None,
    seed: int = 0,
    store: Any = None,
    cbo: CostBasedOptimizer | None = None,
    rbo: RuleBasedOptimizer | None = None,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    budgets: "dict[str, Any] | None" = None,
) -> Tuner:
    """Build one named tuner over a What-If engine.

    Args:
        name: one of :data:`TUNER_NAMES`.
        whatif: the What-If engine every member prices candidates on.
        cluster: cluster shape for the RBO; defaults to the engine's.
        seed: search seed (the adapters' underlying optimizers keep
            their own seeds when passed in explicitly).
        store: profile store mined by the surrogate's warm start.
        cbo/rbo: existing optimizer instances to adapt; fresh ones are
            created if omitted (the CBO inherits *seed*).
        budgets: per-tuner constructor overrides, keyed by tuner name —
            e.g. ``{"surrogate": {"rounds": 6}}`` for quick-mode races.
    """
    cluster = cluster if cluster is not None else whatif.cluster
    budgets = budgets or {}

    def overrides(tuner_name: str) -> dict[str, Any]:
        return dict(budgets.get(tuner_name, {}))

    if name == "cbo":
        if cbo is None:
            cbo = CostBasedOptimizer(
                whatif, seed=seed, registry=registry, **overrides("cbo")
            )
        return CboTuner(cbo, registry=registry, tracer=tracer)
    if name == "rbo":
        if rbo is None:
            rbo = RuleBasedOptimizer(cluster)
        return RboTuner(rbo, whatif, registry=registry, tracer=tracer)
    if name == "surrogate":
        return SurrogateTuner(
            whatif, store=store, seed=seed, registry=registry, tracer=tracer,
            **overrides("surrogate"),
        )
    raise ValueError(f"unknown tuner {name!r}; expected one of {TUNER_NAMES}")
