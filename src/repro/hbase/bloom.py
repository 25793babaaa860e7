"""Bloom filters for the LSM read path — one per SSTable *block*.

HBase attaches Bloom filters to its HFiles so a point read skips data
that provably cannot contain the key.  Here the binary block-sharded
format (:mod:`repro.hbase.sstable`) carries one filter per ~4 KiB cell
block, serialized in the file footer: a cold probe binary-searches the
block index to the single candidate block and consults only that
block's filter, so the worst-case read is one block per table whose
filter *might* match — not one whole file.  An in-memory table keeps
one table-level filter instead.  Either way a ``get`` touches only the
blocks the filters pass
(``bloom_skipped_blocks_total`` counts the ones it didn't, per block).

The filter is the textbook double-hashing construction — ``k`` probe
positions derived as ``h1 + i*h2`` from one 128-bit blake2b digest —
which is deterministic across processes and Python hash seeds, so
serialized filters (``to_dict``/``from_dict``) are portable and a
seeded test sweep is reproducible.
"""

from __future__ import annotations

import base64
import hashlib
import math
from typing import Any, Iterator, Mapping

__all__ = ["BloomFilter"]

#: Floor on the bit-array size; keeps tiny tables' filters meaningful.
_MIN_BITS = 64


class BloomFilter:
    """A serializable Bloom filter over string keys.

    Args:
        capacity: expected number of keys (sizes the bit array).
        target_fpr: designed false-positive rate at *capacity* keys.
        seed: salts the hash function; distinct seeds give independent
            filters (the FPR property test sweeps this).
    """

    def __init__(
        self, capacity: int, target_fpr: float = 0.01, seed: int = 0
    ) -> None:
        if capacity < 1:
            capacity = 1
        if not 0.0 < target_fpr < 1.0:
            raise ValueError("target_fpr must be in (0, 1)")
        ln2 = math.log(2.0)
        num_bits = max(
            _MIN_BITS, int(math.ceil(-capacity * math.log(target_fpr) / (ln2 * ln2)))
        )
        self.capacity = capacity
        self.target_fpr = target_fpr
        self.seed = seed
        self.num_bits = num_bits
        self.num_hashes = max(1, round(num_bits / capacity * ln2))
        self._bits = bytearray((num_bits + 7) // 8)
        self.added = 0

    # ------------------------------------------------------------------
    def _positions(self, key: str) -> Iterator[int]:
        digest = hashlib.blake2b(
            key.encode("utf-8"),
            digest_size=16,
            key=self.seed.to_bytes(8, "big", signed=False),
        ).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1  # odd: full cycle
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, key: str) -> None:
        for position in self._positions(key):
            self._bits[position >> 3] |= 1 << (position & 7)
        self.added += 1

    def might_contain(self, key: str) -> bool:
        """False means *definitely absent*; True means *probably present*."""
        for position in self._positions(key):
            if not self._bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "capacity": self.capacity,
            "target_fpr": self.target_fpr,
            "seed": self.seed,
            "added": self.added,
            "bits": base64.b64encode(bytes(self._bits)).decode("ascii"),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BloomFilter":
        bloom = cls(
            capacity=int(payload["capacity"]),
            target_fpr=float(payload["target_fpr"]),
            seed=int(payload.get("seed", 0)),
        )
        bits = base64.b64decode(payload["bits"])
        if len(bits) != len(bloom._bits):
            raise ValueError("bloom payload does not match its declared shape")
        bloom._bits = bytearray(bits)
        bloom.added = int(payload.get("added", 0))
        return bloom

    def saturation(self) -> float:
        """Fraction of bits set (a health signal: >0.5 degrades the FPR)."""
        set_bits = sum(bin(byte).count("1") for byte in self._bits)
        return set_bits / self.num_bits

    def __repr__(self) -> str:
        return (
            f"BloomFilter(capacity={self.capacity}, fpr={self.target_fpr}, "
            f"bits={self.num_bits}, k={self.num_hashes}, added={self.added})"
        )
