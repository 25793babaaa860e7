"""Implemented future-work extension: user-parameter features (§7.2.1).

The same program run with different user parameters (co-occurrence
window sizes, grep search terms) produces incompatible profiles that the
Table 4.3 statics cannot distinguish.  :func:`augment_with_params` folds
the job's user parameters into the static feature vector as
``PARAM_<name>`` entries, which the Jaccard filter then scores alongside
the other categoricals.
"""

from __future__ import annotations

from ..analysis.static_features import StaticFeatures
from ..hadoop.job import MapReduceJob

__all__ = ["augment_with_params"]


def augment_with_params(
    static: StaticFeatures, job: MapReduceJob
) -> StaticFeatures:
    """§7.2.1: fold the job's user parameters into the static features."""
    categorical = dict(static.categorical)
    for name, value in sorted(job.params.items()):
        categorical[f"PARAM_{name}"] = repr(value)
    return StaticFeatures(
        categorical=categorical,
        map_cfg=static.map_cfg,
        reduce_cfg=static.reduce_cfg,
    )
