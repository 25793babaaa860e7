"""Datasets and input splits.

A :class:`Dataset` has a *nominal* size (e.g. the paper's 35 GB Wikipedia
corpus) that drives split counts, wave counts and shuffle volumes, decoupled
from the much smaller number of records actually *materialized* per split for
executing the user functions.  A :class:`RecordSource` deterministically
generates the sample records of any split from the dataset seed, so the same
(dataset, split) pair always yields identical records — the simulator's
analogue of immutable HDFS blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence

import numpy as np

from .records import pair_size

__all__ = [
    "RecordSource",
    "Dataset",
    "InputSplit",
    "FunctionRecordSource",
    "SplitSample",
    "DEFAULT_SPLIT_BYTES",
]

DEFAULT_SPLIT_BYTES = 64 * 1024 * 1024  # classic HDFS block size


class RecordSource(Protocol):
    """Deterministic generator of the sample records of one input split."""

    def generate(
        self, split_index: int, rng: np.random.Generator
    ) -> Sequence[tuple[Any, Any]]:
        """Materialize the sample key-value records of split *split_index*."""
        ...


@dataclass(frozen=True)
class InputSplit:
    """One HDFS split: an index plus its nominal byte extent."""

    dataset_name: str
    index: int
    nominal_bytes: int


@dataclass(frozen=True)
class SplitSample:
    """The materialized sample records of one split and their serialized
    size: everything a map measurement reads from the dataset."""

    index: int
    records: tuple[tuple[Any, Any], ...]
    input_bytes: int


@dataclass(frozen=True)
class Dataset:
    """A named input dataset with nominal sizing and a record source.

    Attributes:
        name: dataset identifier, e.g. ``"wikipedia-35gb"``.
        nominal_bytes: the size the dataset *represents* (drives split and
            wave counts); the paper's 35 GB corpus occupies 571 splits.
        source: deterministic per-split record generator.
        split_bytes: HDFS split size; 64 MB unless overridden.
        seed: base seed; split ``i`` derives its RNG from ``(seed, i)``.
    """

    name: str
    nominal_bytes: int
    source: RecordSource
    split_bytes: int = DEFAULT_SPLIT_BYTES
    seed: int = 13

    def __post_init__(self) -> None:
        if self.nominal_bytes <= 0:
            raise ValueError("nominal_bytes must be positive")
        if self.split_bytes <= 0:
            raise ValueError("split_bytes must be positive")

    @property
    def num_splits(self) -> int:
        """Number of input splits, hence the number of map tasks."""
        return max(1, math.ceil(self.nominal_bytes / self.split_bytes))

    def splits(self) -> list[InputSplit]:
        """All input splits; the last split may be short."""
        result = []
        remaining = self.nominal_bytes
        for index in range(self.num_splits):
            extent = min(self.split_bytes, remaining)
            result.append(InputSplit(self.name, index, extent))
            remaining -= extent
        return result

    def split(self, index: int) -> InputSplit:
        """The split at *index* (supports the sampler's random choices)."""
        if not 0 <= index < self.num_splits:
            raise IndexError(f"split {index} out of range for {self.name}")
        extent = min(self.split_bytes, self.nominal_bytes - index * self.split_bytes)
        return InputSplit(self.name, index, extent)

    def materialize(self, split_index: int) -> list[tuple[Any, Any]]:
        """Generate the sample records of one split, deterministically."""
        rng = np.random.default_rng((self.seed, split_index))
        records = list(self.source.generate(split_index, rng))
        if not records:
            raise ValueError(
                f"record source for {self.name} produced an empty split"
            )
        return records

    def sample_split_bytes(self, records: Sequence[tuple[Any, Any]]) -> int:
        """Serialized size of materialized sample records of one split."""
        return sum(pair_size(key, value) for key, value in records)

    def sample(self, split_index: int) -> SplitSample:
        """One split's sample records, materialized and sized once."""
        records = self.materialize(split_index)
        return SplitSample(
            split_index, tuple(records), self.sample_split_bytes(records)
        )


@dataclass(frozen=True)
class FunctionRecordSource:
    """Adapt a plain function ``f(split_index, rng) -> records`` to a source."""

    fn: Callable[[int, np.random.Generator], Sequence[tuple[Any, Any]]]

    def generate(
        self, split_index: int, rng: np.random.Generator
    ) -> Sequence[tuple[Any, Any]]:
        return self.fn(split_index, rng)
