"""Similarity measures for profile matching (§4.2).

Three measures, one per feature type: the Jaccard index over corresponding
categorical (static) features, normalized Euclidean distance over numeric
(dynamic) features, and the 0/1 synchronized-walk CFG score (which lives in
:mod:`repro.analysis.cfg_match`).  Numeric features are min-max normalized
with bounds the store maintains as profiles arrive (§4.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "jaccard_index",
    "euclidean_distance",
    "MinMaxNormalizer",
    "default_euclidean_threshold",
    "DEFAULT_JACCARD_THRESHOLD",
    "clip_normalize",
    "normalize_block",
    "normalized_euclidean_block",
]

#: θ_Jacc from §6.
DEFAULT_JACCARD_THRESHOLD = 0.5


def jaccard_index(first: Mapping[str, str], second: Mapping[str, str]) -> float:
    """Jaccard index over *corresponding* categorical features.

    The paper's O(|S|) variant: only corresponding pairs are tested for
    equality, so the index is (number of agreeing features) / (number of
    features).  Both vectors must have the same feature names.
    """
    if set(first) != set(second):
        raise ValueError("feature vectors must share the same feature names")
    if not first:
        return 1.0
    agreements = sum(1 for name in first if first[name] == second[name])
    return agreements / len(first)


def euclidean_distance(first: Sequence[float], second: Sequence[float]) -> float:
    """Plain Euclidean distance between two equal-length vectors."""
    if len(first) != len(second):
        raise ValueError("vectors must have equal length")
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(first, second)))


def default_euclidean_threshold(num_features: int) -> float:
    """θ_Eucl = √(number of features) / 2 (§6).

    Normalized features lie in [0, 1], so the maximum possible distance is
    √n; the threshold is half of that maximum.
    """
    if num_features < 1:
        raise ValueError("need at least one feature")
    return math.sqrt(num_features) / 2.0


@dataclass
class MinMaxNormalizer:
    """Per-dimension min/max tracker with [0, 1] normalization.

    The store updates the bounds whenever a profile is added; matching-time
    normalization uses the current bounds (§4.2).  Dimensions that have
    seen a single value normalize to 0.0.
    """

    minimums: list[float] = field(default_factory=list)
    maximums: list[float] = field(default_factory=list)

    @property
    def num_features(self) -> int:
        return len(self.minimums)

    def update(self, values: Sequence[float]) -> None:
        """Fold one observed vector into the bounds."""
        if not self.minimums:
            self.minimums = [float(v) for v in values]
            self.maximums = [float(v) for v in values]
            return
        if len(values) != self.num_features:
            raise ValueError("dimensionality changed between updates")
        for i, value in enumerate(values):
            self.minimums[i] = min(self.minimums[i], float(value))
            self.maximums[i] = max(self.maximums[i], float(value))

    def normalize(self, values: Sequence[float]) -> list[float]:
        """Map a vector into [0, 1] per dimension, clipping outliers."""
        if len(values) != self.num_features:
            raise ValueError(
                f"expected {self.num_features} features, got {len(values)}"
            )
        normalized = []
        for i, value in enumerate(values):
            span = self.maximums[i] - self.minimums[i]
            if span <= 0:
                normalized.append(0.0)
            else:
                scaled = (float(value) - self.minimums[i]) / span
                normalized.append(min(1.0, max(0.0, scaled)))
        return normalized

    def to_dict(self) -> dict[str, list[float]]:
        return {"minimums": list(self.minimums), "maximums": list(self.maximums)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Sequence[float]]) -> "MinMaxNormalizer":
        return cls(
            minimums=[float(v) for v in payload["minimums"]],
            maximums=[float(v) for v in payload["maximums"]],
        )


# ----------------------------------------------------------------------
# Vectorized counterparts, used by the columnar match index and the GBRT
# batch feature extractor.  Bit-parity with the scalar forms matters:
# the feature vectors here are at most six-dimensional, below numpy's
# pairwise-summation block size, so ``(row ** 2).sum()`` accumulates in
# the same left-to-right order as the scalar ``sum()`` in
# :func:`euclidean_distance` and produces the identical float64.


def clip_normalize(
    values: np.ndarray, minimums: np.ndarray, spans: np.ndarray
) -> np.ndarray:
    """``(values - minimums) / spans`` clipped to [0, 1] per column, and
    0.0 on columns whose span is not positive.

    A tiny span or a huge value overflows the division to ±inf; the clip
    maps that to 1.0 or 0.0, exactly what the scalar path's ``min``/``max``
    give, so the overflow is expected and not reported.
    """
    safe = spans > 0
    with np.errstate(over="ignore"):
        scaled = np.clip(
            (values - minimums) / np.where(safe, spans, 1.0), 0.0, 1.0
        )
    return np.where(safe, scaled, 0.0)


def normalize_block(
    normalizer: MinMaxNormalizer, block: np.ndarray
) -> np.ndarray:
    """Min-max normalize every row of *block*, mirroring ``normalize``.

    ``block`` is an (n, d) float array with d == ``num_features``.
    Zero-span dimensions map to 0.0 and out-of-bounds values clip to
    [0, 1], exactly like the scalar path.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or block.shape[1] != normalizer.num_features:
        raise ValueError(
            f"expected (n, {normalizer.num_features}) block, got {block.shape}"
        )
    minimums = np.asarray(normalizer.minimums, dtype=np.float64)
    spans = np.asarray(normalizer.maximums, dtype=np.float64) - minimums
    return clip_normalize(block, minimums, spans)


def normalized_euclidean_block(
    normalizer: MinMaxNormalizer,
    block: np.ndarray,
    probe: Sequence[float],
) -> np.ndarray:
    """Normalized Euclidean distance from *probe* to every row of *block*.

    Returns an (n,) float64 array; each entry equals
    ``euclidean_distance(normalize(row), normalize(probe))`` bit for bit.
    """
    normalized_rows = normalize_block(normalizer, block)
    normalized_probe = np.asarray(
        normalizer.normalize(list(probe)), dtype=np.float64
    )
    deltas = normalized_rows - normalized_probe
    return np.sqrt((deltas * deltas).sum(axis=1))
