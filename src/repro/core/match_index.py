"""Columnar match index: a live builder that publishes immutable views.

The matcher's scan path answers every stage with a filtered range scan —
Python-level row iteration over the HBase substrate, O(store size) per
stage, twice per submission (map + reduce).  This module keeps an
in-memory *columnar* mirror of exactly the data those filters touch:

- per-(side, kind) numpy matrices of the Table 4.1 dynamic feature
  vectors, with a validity mask for rows missing the side's columns
  (map-only jobs have no reduce vector);
- parallel arrays of row keys (job ids), tie-break ``INPUT_BYTES``, and
  liveness flags;
- the Table 4.3 categorical features factorized into small integer
  codes, one int64 column per feature name (``-1`` = column absent), so
  the Jaccard stage is a handful of equality comparisons over the whole
  candidate block;
- per-side CFG *digests* plus a parsed-graph cache and a memo of
  pairwise :func:`~repro.analysis.cfg_match.cfg_match` verdicts, so the
  expensive synchronized-walk runs once per distinct (probe, stored)
  graph pair, not once per row per probe.  Digests are content
  addresses — equal digests are byte-identical graphs — so the memo and
  the graph cache outlive writes and rebuilds and are shared by every
  view the builder publishes.

Builder and views
-----------------
Two classes, one for each side of the write/read split:

- :class:`MatchIndex` is the one live *builder* per store.  It owns the
  write queue, the row lists, and generation/topology coherence, and it
  answers no probe itself: :meth:`MatchIndex.view` brings it fresh and
  returns the current :class:`IndexView`.
- :class:`IndexView` is immutable.  It holds a generation, the
  partition start keys, one column set per partition, and the min/max
  normalizer bounds *as of that generation*, and it answers every Fig
  4.4 stage without a store and therefore without locks.  The matcher
  takes one view per side and runs every stage on it, so one side's
  probe always sees a single generation.

Partitions follow :meth:`ProfileStore.index_snapshot`'s key-range
slices: one slice covering the whole ``Dynamic/`` range on a flat store,
one per region with ``shard_index=True``.  A one-partition view calls its
column set directly; a partitioned view scatter-gathers — candidates
route to partitions by key range, a stacked bounding-box prune skips
partitions that provably hold no Euclidean survivor, and survivors merge
in key order.  Partition ranges are disjoint and ordered, so the merged
lists equal the flat result bit for bit, and the tie-break's global
``min`` over per-partition winning sort keys is the flat winner (the key
ends in the job id).

A republish copies no column arrays: a partition's arrays are frozen
once per write that touches it and shared, by reference, by every view
until the next such write.  The builder never mutates a frozen array.

Coherence protocol
------------------
The store numbers its writes with a monotone ``generation`` (bumped
under the store lock on every put/delete, alongside the
``Meta/__normalizers__`` rewrite — so a normalizer update *is* a
generation change).  Writers never touch the index rows: ``on_put`` /
``on_delete`` (called under the store lock) append to a pending queue
behind a small leaf lock.  ``ensure_fresh`` drains the queue and applies
it incrementally (append a row to its partition / mark a row dead); an
overwrite of an existing id, a generation gap (writes that predate the
index), or a moved region topology on a sharded store escalates to a
full rebuild from :meth:`ProfileStore.index_snapshot`, which is read
under the store lock and therefore write- and topology-consistent.  If
the rebuild scan faults (chaos), the index stays stale and the error
propagates — the matcher treats that as a *poisoned* index and falls
back to the retried scan path.

Lock order: writers hold ``store._lock`` → ``index._pending_lock``
(leaf); ``view()`` holds ``index._lock`` → ``store._lock`` (snapshot /
normalizer load).  No path acquires them in the opposite order, so the
two compose deadlock-free.  Probes on a published view take no lock.

Stage parity
------------
Every probe method reproduces its scan-path filter bit for bit: the
normalized-Euclidean stage clips with the same min/max bounds and sums
squares in the same float64 order (vectors are ≤6-wide, below numpy's
pairwise-summation block, see :mod:`repro.core.similarity`); the
Jaccard stage fails rows with a missing or ``None``-valued probe column
exactly like :class:`~repro.core.store.JaccardThresholdFilter`; the
tie-break reproduces the matcher's ``(same_program, |Δsize|,
-similarity, job_id)`` sort key.  ``tests/test_match_index.py`` holds
the Hypothesis proof over flat and sharded stores, in-process and
shared-memory views.

A view splits into a picklable meta blob plus named numpy arrays
(:meth:`IndexView.export_meta` / :meth:`~IndexView.export_arrays`) so
:mod:`repro.core.shm_index` can publish it over
``multiprocessing.shared_memory`` and reattach it zero-copy in a worker
process (:meth:`IndexView.from_parts`).
"""

from __future__ import annotations

import hashlib
import json
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..analysis.cfg import ControlFlowGraph
from ..analysis.cfg_match import cfg_match
from ..observability import MetricsRegistry, Tracer, get_registry
from .similarity import MinMaxNormalizer
from .store import DYNAMIC_PREFIX, _columns_for

if TYPE_CHECKING:
    from .store import ProfileStore

__all__ = ["MatchIndex", "IndexView"]

#: Code meaning "this row has no value for this static column".
_MISSING = -1
#: Probe-side sentinel for values never seen in the store; never equals
#: any stored code (codes are >= -1).
_UNSEEN = -9

_CFG_COLUMNS = {"map": "MAP_CFG", "reduce": "RED_CFG"}

#: The (side, kind) matrices every index materializes, with the
#: Dynamic-row columns each one reads.
_VECTOR_COLUMNS = {
    (side, kind): _columns_for(side, kind)
    for side in ("map", "reduce")
    for kind in ("flow", "cost")
}

#: A winning tie-break sort key: ``(same_program, |Δinput|, -similarity,
#: job_id)``.
_TieKey = tuple[int, int, float, str]


def _cfg_digest(payload: Mapping[str, Any]) -> str:
    """Stable content digest of a serialized CFG (memo key, not equality)."""
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.md5(canonical.encode("utf-8")).hexdigest()


@dataclass(eq=False)
class _Columns:
    """One partition's frozen column arrays, shared by reference across
    every view published until a write touches the partition."""

    ids: np.ndarray
    #: Job id -> row, for live rows only.
    row_of: dict[str, int]
    #: The ``row_of`` entries whose job has a static row (the same dict
    #: when every live job has one).
    static_row_of: dict[str, int]
    active: np.ndarray
    has_static: np.ndarray
    input_bytes: np.ndarray
    matrices: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]
    codes: dict[str, np.ndarray]
    cfg_digests: dict[str, tuple[str | None, ...]]
    #: (side, kind) -> (normalizer, bounds, minimums, safe, denominator,
    #: normalized whole matrix, live bounding box); recomputed when a
    #: view brings different normalizer bounds.
    prep: dict[tuple[str, str], tuple[Any, ...]] = field(default_factory=dict)


def _with_statics(
    row_of: dict[str, int], has_static: Sequence[bool]
) -> dict[str, int]:
    """The *row_of* entries whose job has a static row."""
    if all(has_static):
        return row_of
    return {job_id: row for job_id, row in row_of.items() if has_static[row]}


class _Rows:
    """The builder's growable row lists for one partition."""

    def __init__(self, start_key: str) -> None:
        self.start_key = start_key
        self.ids: list[str] = []
        self.row_of: dict[str, int] = {}
        self.active: list[bool] = []
        self.has_static: list[bool] = []
        self.input_bytes: list[int] = []
        self.vectors: dict[tuple[str, str], list[tuple[float, ...]]] = {
            key: [] for key in _VECTOR_COLUMNS
        }
        self.valid: dict[tuple[str, str], list[bool]] = {
            key: [] for key in _VECTOR_COLUMNS
        }
        self.codes: dict[str, list[int]] = {}
        self.cfg_digests: dict[str, list[str | None]] = {"map": [], "reduce": []}
        #: The frozen arrays while no write has touched these rows.
        self.frozen: _Columns | None = None

    def freeze(self) -> _Columns:
        if self.frozen is None:
            count = len(self.ids)
            row_of = dict(self.row_of)
            self.frozen = _Columns(
                ids=np.asarray(self.ids, dtype=object),
                row_of=row_of,
                static_row_of=_with_statics(row_of, self.has_static),
                active=np.asarray(self.active, dtype=bool),
                has_static=np.asarray(self.has_static, dtype=bool),
                input_bytes=np.asarray(self.input_bytes, dtype=np.int64),
                matrices={
                    key: (
                        np.asarray(self.vectors[key], dtype=np.float64).reshape(
                            count, len(columns)
                        ),
                        np.asarray(self.valid[key], dtype=bool),
                    )
                    for key, columns in _VECTOR_COLUMNS.items()
                },
                codes={
                    name: np.asarray(codes, dtype=np.int64)
                    for name, codes in self.codes.items()
                },
                cfg_digests={
                    side: tuple(digests)
                    for side, digests in self.cfg_digests.items()
                },
            )
        return self.frozen


class IndexView:
    """An immutable, store-free snapshot of one index generation.

    Carries everything a probe needs — per-partition matrices, masks,
    codes, CFG digests, the shared vocabulary and CFG caches, and the
    normalizer bounds of its generation — so it answers every stage
    without locks, from any thread or process.  The arrays may be
    zero-copy views over ``multiprocessing.shared_memory`` segments (see
    :mod:`repro.core.shm_index`); the view never writes to them.

    The factorization vocabulary and the CFG payload/graph/verdict dicts
    are shared with the builder and may *grow* after publication: codes
    are append-only and digests are content addresses, so an entry a
    view's rows never reference cannot change its answers.
    """

    def __init__(
        self,
        generation: int,
        topology_version: int,
        starts: Sequence[str],
        parts: Sequence[_Columns],
        normalizers: Mapping[tuple[str, str], MinMaxNormalizer],
        vocab: dict[str, dict[Any, int]],
        cfg_payloads: dict[str, dict[str, Any]],
        cfg_graphs: dict[str, ControlFlowGraph] | None = None,
        cfg_memo: dict[tuple[str, str], bool] | None = None,
    ) -> None:
        self.generation = int(generation)
        self.topology_version = int(topology_version)
        self._starts = tuple(starts)
        self._parts = tuple(parts)
        self._normalizers = dict(normalizers)
        self._vocab = vocab
        self._cfg_payloads = cfg_payloads
        self._cfg_graphs = {} if cfg_graphs is None else cfg_graphs
        self._cfg_memo = {} if cfg_memo is None else cfg_memo

    @property
    def partition_count(self) -> int:
        return len(self._parts)

    # ------------------------------------------------------------------
    # Scatter-gather plumbing
    # ------------------------------------------------------------------
    def _grouped(
        self, candidates: Iterable[str]
    ) -> list[tuple[_Columns, list[str]]]:
        """Route candidate ids to partitions, in partition (= key range =
        sorted job id) order; the one-partition case routes nothing."""
        if len(self._parts) == 1:
            return [(self._parts[0], list(candidates))]
        buckets: list[list[str]] = [[] for _ in self._parts]
        for job_id in candidates:
            position = bisect_right(self._starts, DYNAMIC_PREFIX + job_id) - 1
            buckets[max(0, position)].append(job_id)
        return [
            (part, bucket) for part, bucket in zip(self._parts, buckets) if bucket
        ]

    def _gather(
        self,
        candidates: list[str],
        kernel: Callable[[_Columns, list[str]], list[str]],
    ) -> list[str]:
        if len(self._parts) == 1:
            return kernel(self._parts[0], candidates)
        # Disjoint unions of per-partition survivors: sorting yields the
        # flat path's sorted list bit for bit.
        return sorted(
            job_id
            for part, subset in self._grouped(candidates)
            for job_id in kernel(part, subset)
        )

    def _pruned(
        self, side: str, kind: str, probes: np.ndarray, threshold: float
    ) -> Sequence[_Columns]:
        """Drop partitions that provably hold no euclidean survivor.

        One stacked broadcast prices every partition's live bounding
        box against the probe block — elementwise the *same* clip /
        subtract / square / trailing-axis-sum / sqrt arithmetic
        :meth:`_euclidean_part` runs inside each partition, so a
        partition is dropped exactly when its own prune check would have
        answered empty: zero false prunes, merged survivors unchanged bit
        for bit.  A partition whose key range holds no nearby jobs costs
        one row of this broadcast instead of a descent into its kernel.
        """
        if len(self._parts) <= 1:
            return self._parts
        kept: list[int] = []
        boxed: list[tuple[int, tuple[Any, ...]]] = []
        for position, part in enumerate(self._parts):
            prep = self._euclidean_prep(part, side, kind)
            if prep is None:
                # Unpriceable (no normalizer features): the partition
                # answers empty itself in O(1), keep it for parity.
                kept.append(position)
            elif prep[6] is not None:
                boxed.append((position, prep))
            # box is None -> no live rows -> provably empty: drop.
        if boxed:
            __, __, minimums, safe, denominator, __, __ = boxed[0][1]
            if probes.shape[1] != minimums.shape[0]:
                # Malformed probe: let the partitions raise exactly as
                # a flat view would.
                return self._parts
            normalized = np.where(
                safe, np.clip((probes - minimums) / denominator, 0.0, 1.0), 0.0
            )
            lows = np.stack([prep[6][0] for __, prep in boxed])
            highs = np.stack([prep[6][1] for __, prep in boxed])
            nearest = np.clip(
                normalized[np.newaxis, :, :],
                lows[:, np.newaxis, :],
                highs[:, np.newaxis, :],
            )
            deltas = nearest - normalized[np.newaxis, :, :]
            floors = np.sqrt((deltas * deltas).sum(axis=2))
            survives = ~(floors > threshold).all(axis=1)
            kept.extend(
                position for (position, __), keep in zip(boxed, survives) if keep
            )
        return [self._parts[position] for position in sorted(kept)]

    # ------------------------------------------------------------------
    # Per-partition kernels
    # ------------------------------------------------------------------
    @staticmethod
    def _candidate_rows(
        part: _Columns, candidates: Iterable[str], require_static: bool = False
    ) -> tuple[list[str], np.ndarray]:
        """Map candidate ids to live row indices (of jobs with a static
        row, with *require_static*), preserving input order."""
        row_of = part.static_row_of if require_static else part.row_of
        ids = [job_id for job_id in candidates if job_id in row_of]
        return ids, np.asarray([row_of[job_id] for job_id in ids], dtype=np.intp)

    def _euclidean_prep(
        self, part: _Columns, side: str, kind: str
    ) -> tuple[Any, ...] | None:
        """The cached normalization prep for one partition's matrix.

        The stored matrix's normalization (and all the prep arrays it
        needs) only depends on the normalizer bounds, so it is cached
        on the frozen column set and reused by every view that shares
        it and brings the same bounds; an identity check usually settles
        that without building the bounds tuples.  Normalization is
        elementwise, so slicing the cached whole matrix is bit-identical
        to normalizing a sliced block.

        Returns ``None`` when the normalizer has no features yet
        (nothing is priceable, every probe answers empty).
        """
        normalizer = self._normalizers[(side, kind)]
        if normalizer.num_features == 0:
            return None
        cached = part.prep.get((side, kind))
        if cached is not None and cached[0] is not normalizer:
            bounds = (tuple(normalizer.minimums), tuple(normalizer.maximums))
            if cached[1] == bounds:
                cached = (normalizer,) + cached[1:]
                part.prep[(side, kind)] = cached
            else:
                cached = None
        if cached is None:
            matrix, valid = part.matrices[(side, kind)]
            bounds = (tuple(normalizer.minimums), tuple(normalizer.maximums))
            minimums = np.asarray(normalizer.minimums, dtype=np.float64)
            spans = np.asarray(normalizer.maximums, dtype=np.float64) - minimums
            safe = spans > 0
            denominator = np.where(safe, spans, 1.0)
            normalized_all = np.where(
                safe, np.clip((matrix - minimums) / denominator, 0.0, 1.0), 0.0
            )
            live = part.active & valid
            box = (
                (normalized_all[live].min(axis=0), normalized_all[live].max(axis=0))
                if live.any()
                else None
            )
            cached = (
                normalizer, bounds, minimums, safe, denominator,
                normalized_all, box,
            )
            part.prep[(side, kind)] = cached
        return cached

    def _euclidean_part(
        self,
        part: _Columns,
        side: str,
        kind: str,
        probes: np.ndarray,
        threshold: float,
        candidates: list[str] | None,
    ) -> list[list[str]]:
        """Price a (K, F) block of probes; row k answers probe k.

        The K == 1 path is the scan-parity reference; the batched path
        broadcasts the same clipped normalization and the same float64
        square-sum over the trailing axis (≤6-wide, below numpy's
        pairwise-summation block), so every batch row is bit-identical
        to its scalar twin.
        """
        empty: list[list[str]] = [[] for _ in range(probes.shape[0])]
        prep = self._euclidean_prep(part, side, kind)
        if prep is None:
            return empty
        matrix, valid = part.matrices[(side, kind)]
        if probes.shape[1] != matrix.shape[1]:
            raise ValueError("columns/probe/bounds must align")
        __, __, minimums, safe, denominator, normalized_all, box = prep
        normalized_probes = np.where(
            safe, np.clip((probes - minimums) / denominator, 0.0, 1.0), 0.0
        )
        # Bounding-box prune: price the box point nearest each probe
        # through the *same* kernel arithmetic as a real row.  Every
        # per-feature |delta| of a live row is >= the nearest point's,
        # and float64 subtract/square/add/sqrt are monotone in each
        # argument, so the computed distance of every row is >= the
        # computed nearest-point distance — if that misses the
        # threshold, no row can pass, with zero false prunes.
        if box is not None:
            nearest = np.clip(normalized_probes, box[0], box[1])
            near_deltas = nearest - normalized_probes
            floors = np.sqrt((near_deltas * near_deltas).sum(axis=1))
            if bool((floors > threshold).all()):
                return empty
        if candidates is None:
            ids_arr = part.ids
            if len(ids_arr) == 0:
                return empty
            keep_base = part.active & valid
            normalized = normalized_all
        else:
            ids, rows = self._candidate_rows(part, candidates)
            ids_arr = np.asarray(ids, dtype=object)
            if len(rows) == 0:
                return empty
            keep_base = part.active[rows] & valid[rows]
            normalized = normalized_all[rows]
        # (K, R, F) broadcast; the sum runs over the trailing ≤6-wide
        # axis in the same order the scalar path uses.
        deltas = normalized[np.newaxis, :, :] - normalized_probes[:, np.newaxis, :]
        distances = np.sqrt((deltas * deltas).sum(axis=2))
        # Survivor extraction is fancy-indexed, not a per-row Python
        # loop — the difference between O(survivors) and O(store size)
        # per probe.  Same id set either way, so the sorted lists are
        # bit-identical.
        return [
            sorted(ids_arr[np.flatnonzero(row_keep)].tolist())
            for row_keep in keep_base & (distances <= threshold)
        ]

    def _graph_for(self, digest: str) -> ControlFlowGraph:
        graph = self._cfg_graphs.get(digest)
        if graph is None:
            graph = ControlFlowGraph.from_dict(self._cfg_payloads[digest])
            self._cfg_graphs[digest] = graph
        return graph

    def _cfg_part(
        self,
        part: _Columns,
        side: str,
        probe_cfg: ControlFlowGraph,
        probe_key: str,
        candidates: list[str],
    ) -> list[str]:
        digests = part.cfg_digests[side]
        survivors = []
        ids, rows = self._candidate_rows(part, candidates, require_static=True)
        for job_id, row in zip(ids, rows.tolist()):
            digest = digests[row]
            if digest is None:
                continue
            verdict = self._cfg_memo.get((probe_key, digest))
            if verdict is None:
                verdict = cfg_match(probe_cfg, self._graph_for(digest))
                self._cfg_memo[(probe_key, digest)] = verdict
            if verdict:
                survivors.append(job_id)
        return sorted(survivors)

    def _jaccard_part(
        self,
        part: _Columns,
        probe: Mapping[str, str],
        threshold: float,
        candidates: list[str],
    ) -> list[str]:
        ids, rows = self._candidate_rows(part, candidates, require_static=True)
        if len(rows) == 0:
            return []
        agreements = np.zeros(len(rows), dtype=np.int64)
        failed = np.zeros(len(rows), dtype=bool)
        for name, value in probe.items():
            column = part.codes.get(name)
            if column is None:
                failed[:] = True
                break
            codes = column[rows]
            vocab = self._vocab.get(name, {})
            # The scan filter fails any row whose stored value is
            # absent *or* None for a probe column.
            none_code = vocab.get(None, _UNSEEN)
            failed |= (codes == _MISSING) | (codes == none_code)
            try:
                probe_code = vocab.get(value, _UNSEEN)
            except TypeError:
                probe_code = _UNSEEN
            agreements += codes == probe_code
        if probe:
            scores = agreements / len(probe)
        else:
            scores = np.ones(len(rows), dtype=np.float64)
        keep = (~failed) & (scores >= threshold)
        return sorted(job_id for job_id, ok in zip(ids, keep.tolist()) if ok)

    def _tie_break_part(
        self,
        part: _Columns,
        candidates: list[str],
        input_bytes: int,
        side_statics: Mapping[str, str],
        observe: Callable[[float], None] | None,
    ) -> _TieKey | None:
        """The winning scan-path sort key among *candidates*, or None.

        *observe* fires once per live candidate in sorted-id order.
        """
        ids, rows = self._candidate_rows(part, sorted(candidates))
        if not ids:
            return None
        agreements = np.zeros(len(rows), dtype=np.int64)
        for name, value in side_statics.items():
            column = part.codes.get(name)
            codes = (
                column[rows]
                if column is not None
                else np.full(len(rows), _MISSING, dtype=np.int64)
            )
            vocab = self._vocab.get(name, {})
            try:
                probe_code = vocab.get(value, _UNSEEN)
            except TypeError:
                probe_code = _UNSEEN
            equal = codes == probe_code
            if value == "":
                # The scan path reads missing stored values as "",
                # which agrees when the probe value is "" too.
                equal |= codes == _MISSING
            agreements += equal
        if side_statics:
            similarities = agreements / len(side_statics)
        else:
            similarities = np.ones(len(rows), dtype=np.float64)
        deltas = np.abs(part.input_bytes[rows] - np.int64(input_bytes))
        best: _TieKey | None = None
        for position, job_id in enumerate(ids):
            similarity = float(similarities[position])
            if observe is not None:
                observe(similarity)
            key = (
                0 if similarity >= 1.0 else 1,
                int(deltas[position]),
                -similarity,
                job_id,
            )
            if best is None or key < best:
                best = key
        return best

    # ------------------------------------------------------------------
    # Probe stages (mirror the scan-path filters bit for bit)
    # ------------------------------------------------------------------
    def _euclidean(
        self,
        side: str,
        kind: str,
        probes: np.ndarray,
        threshold: float,
        candidates: list[str] | None,
    ) -> list[list[str]]:
        if len(self._parts) == 1:
            return self._euclidean_part(
                self._parts[0], side, kind, probes, threshold, candidates
            )
        if candidates is None:
            groups: Sequence[tuple[_Columns, list[str] | None]] = [
                (part, None)
                for part in self._pruned(side, kind, probes, threshold)
            ]
        else:
            groups = self._grouped(candidates)
        per_partition = [
            self._euclidean_part(part, side, kind, probes, threshold, subset)
            for part, subset in groups
        ]
        return [
            sorted(job_id for rows in per_partition for job_id in rows[k])
            for k in range(probes.shape[0])
        ]

    def euclidean_stage(
        self,
        side: str,
        kind: str,
        probe: list[float],
        threshold: float,
        candidates: list[str] | None = None,
    ) -> list[str]:
        """Vectorized twin of :meth:`ProfileStore.euclidean_stage`."""
        probes = np.asarray([probe], dtype=np.float64)
        return self._euclidean(side, kind, probes, threshold, candidates)[0]

    def euclidean_stage_batch(
        self,
        side: str,
        kind: str,
        probes: Sequence[Sequence[float]],
        threshold: float,
    ) -> list[list[str]]:
        """One broadcast pricing K probes; row k == ``euclidean_stage`` of probe k."""
        block = np.asarray(probes, dtype=np.float64)
        if block.ndim != 2:
            raise ValueError(f"expected a (K, F) probe block, got {block.shape}")
        return self._euclidean(side, kind, block, threshold, None)

    def cfg_stage(
        self, side: str, probe_cfg: ControlFlowGraph, candidates: list[str]
    ) -> list[str]:
        """Memoized twin of :meth:`ProfileStore.cfg_stage`."""
        probe_key = _cfg_digest(probe_cfg.to_dict())
        return self._gather(
            candidates,
            lambda part, subset: self._cfg_part(
                part, side, probe_cfg, probe_key, subset
            ),
        )

    def jaccard_stage(
        self, probe: Mapping[str, str], threshold: float, candidates: list[str]
    ) -> list[str]:
        """Vectorized twin of :meth:`ProfileStore.jaccard_stage`."""
        return self._gather(
            candidates,
            lambda part, subset: self._jaccard_part(part, probe, threshold, subset),
        )

    def tie_break(
        self,
        candidates: list[str],
        input_bytes: int,
        side_statics: Mapping[str, str],
        side: str,
        observe: Callable[[float], None] | None = None,
    ) -> str:
        """Vectorized twin of ``ProfileMatcher._tie_break``.

        Computes every candidate's Jaccard similarity against the probe
        statics column-wise, then applies the exact scan-path sort key
        ``(same_program, |stored - input|, -similarity, job_id)``.
        *observe* receives each candidate's similarity in sorted-id
        order (partition by partition in key order, which *is* sorted-id
        order), matching the scan path's per-candidate histogram.
        """
        best: _TieKey | None = None
        for part, subset in self._grouped(candidates):
            key = self._tie_break_part(
                part, subset, input_bytes, side_statics, observe
            )
            if key is not None and (best is None or key < best):
                best = key
        if best is None:
            raise KeyError(f"no indexed candidates among {candidates!r}")
        return best[3]

    # ------------------------------------------------------------------
    # Split codec (meta blob + named arrays)
    # ------------------------------------------------------------------
    def export_arrays(self) -> dict[str, np.ndarray]:
        """The big numeric columns, named per partition for shared-memory
        packing."""
        arrays: dict[str, np.ndarray] = {}
        for position, part in enumerate(self._parts):
            arrays[f"{position}:active"] = part.active
            arrays[f"{position}:has_static"] = part.has_static
            arrays[f"{position}:input_bytes"] = part.input_bytes
            for (side, kind), (matrix, valid) in part.matrices.items():
                arrays[f"{position}:mat:{side}:{kind}"] = matrix
                arrays[f"{position}:valid:{side}:{kind}"] = valid
            for name, column in part.codes.items():
                arrays[f"{position}:code:{name}"] = column
        return arrays

    def export_meta(self) -> dict[str, Any]:
        """Everything that is not a big array, as one picklable blob."""
        referenced = sorted(
            {
                digest
                for part in self._parts
                for digests in part.cfg_digests.values()
                for digest in digests
                if digest is not None
            }
        )
        return {
            "generation": self.generation,
            "topology_version": self.topology_version,
            "starts": self._starts,
            "parts": [
                {
                    "ids": tuple(part.ids.tolist()),
                    "code_names": sorted(part.codes),
                    "cfg_digests": part.cfg_digests,
                }
                for part in self._parts
            ],
            "vocab": self._vocab,
            "cfg_payloads": {
                digest: self._cfg_payloads[digest] for digest in referenced
            },
            "normalizers": {
                key: normalizer.to_dict()
                for key, normalizer in self._normalizers.items()
            },
        }

    @classmethod
    def from_parts(
        cls, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> "IndexView":
        """Rebuild a view from :meth:`export_meta` + :meth:`export_arrays`.

        The arrays are referenced, not copied — hand in shared-memory
        views for a zero-copy attach.
        """
        parts = []
        for position, part in enumerate(meta["parts"]):
            ids = part["ids"]
            active = arrays[f"{position}:active"]
            has_static = arrays[f"{position}:has_static"]
            row_of = {
                job_id: row
                for row, (job_id, live) in enumerate(zip(ids, active.tolist()))
                if live
            }
            parts.append(
                _Columns(
                    ids=np.asarray(ids, dtype=object),
                    row_of=row_of,
                    static_row_of=_with_statics(row_of, has_static.tolist()),
                    active=active,
                    has_static=has_static,
                    input_bytes=arrays[f"{position}:input_bytes"],
                    matrices={
                        key: (
                            arrays[f"{position}:mat:{key[0]}:{key[1]}"],
                            arrays[f"{position}:valid:{key[0]}:{key[1]}"],
                        )
                        for key in _VECTOR_COLUMNS
                    },
                    codes={
                        name: arrays[f"{position}:code:{name}"]
                        for name in part["code_names"]
                    },
                    cfg_digests=part["cfg_digests"],
                )
            )
        return cls(
            generation=meta["generation"],
            topology_version=meta["topology_version"],
            starts=meta["starts"],
            parts=parts,
            normalizers={
                tuple(key): MinMaxNormalizer.from_dict(payload)
                for key, payload in meta["normalizers"].items()
            },
            vocab=meta["vocab"],
            cfg_payloads=meta["cfg_payloads"],
        )

    def stats(self) -> dict[str, int]:
        """Deterministic size snapshot (sorted keys)."""
        return {
            "built_generation": self.generation,
            "live_rows": sum(int(part.active.sum()) for part in self._parts),
            "partitions": len(self._parts),
            "rows": sum(len(part.ids) for part in self._parts),
            "topology_version": self.topology_version,
        }


class MatchIndex:
    """The live columnar index over one :class:`ProfileStore`: a builder
    that publishes :class:`IndexView` generations.

    One instance per store (handed out by ``store.match_index()``), so
    every serving worker probing the shared store shares the same rows,
    views, and memo tables.
    """

    def __init__(
        self,
        store: "ProfileStore",
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self._store = store
        self.registry = registry
        self.tracer = tracer
        #: Guards every structure below except the pending queue.
        self._lock = threading.RLock()
        #: Leaf lock for the write-side queue: held by writers while they
        #: already hold the store lock, so it must acquire nothing else.
        self._pending_lock = threading.Lock()
        self._pending: list[tuple[Any, ...]] = []
        self._built_generation = -1
        self._built_topology = -1
        self._needs_rebuild = True
        self._parts: list[_Rows] = []
        self._starts: list[str] = []
        self._vocab: dict[str, dict[Any, int]] = {}
        #: Content-addressed CFG caches: they outlive rebuilds and are
        #: shared by every published view.
        self._cfg_payloads: dict[str, dict[str, Any]] = {}
        self._cfg_graphs: dict[str, ControlFlowGraph] = {}
        self._cfg_memo: dict[tuple[str, str], bool] = {}
        #: The current published view; None once a write moved past it.
        self._view: IndexView | None = None

    # ------------------------------------------------------------------
    # Row ingestion (caller holds ``self._lock``)
    # ------------------------------------------------------------------
    def _part_for(self, job_id: str) -> _Rows:
        position = bisect_right(self._starts, DYNAMIC_PREFIX + job_id) - 1
        return self._parts[max(0, position)]

    def _ingest(
        self,
        part: _Rows,
        job_id: str,
        dynamic: Mapping[str, Any],
        static_columns: Mapping[str, Any] | None,
    ) -> None:
        """Append one job as a new row of *part*."""
        rows_before = len(part.ids)
        part.ids.append(job_id)
        part.row_of[job_id] = rows_before
        part.active.append(True)
        part.input_bytes.append(int(dynamic.get("INPUT_BYTES", 0)))
        for key, columns in _VECTOR_COLUMNS.items():
            present = all(name in dynamic for name in columns)
            part.vectors[key].append(
                tuple(float(dynamic[name]) for name in columns)
                if present
                else (0.0,) * len(columns)
            )
            part.valid[key].append(present)

        part.has_static.append(static_columns is not None)
        for side, cfg_column in _CFG_COLUMNS.items():
            payload = None if static_columns is None else static_columns.get(cfg_column)
            if payload:
                digest = _cfg_digest(payload)
                if digest not in self._cfg_payloads:
                    self._cfg_payloads[digest] = dict(payload)
                part.cfg_digests[side].append(digest)
            else:
                part.cfg_digests[side].append(None)
        seen: set[str] = set()
        if static_columns is not None:
            for name, value in static_columns.items():
                if name in _CFG_COLUMNS.values():
                    continue
                codes = part.codes.get(name)
                if codes is None:
                    codes = [_MISSING] * rows_before
                    part.codes[name] = codes
                vocab = self._vocab.setdefault(name, {})
                try:
                    code = vocab.setdefault(value, len(vocab))
                except TypeError:  # unhashable value: treat as missing
                    code = _MISSING
                codes.append(code)
                seen.add(name)
        for name, codes in part.codes.items():
            if name not in seen:
                codes.append(_MISSING)
        part.frozen = None
        self._view = None

    def _install(
        self,
        generation: int,
        topology_version: int,
        slices: Sequence[tuple[str, Mapping[str, Any], Mapping[str, Any]]],
    ) -> None:
        """Replace every row with *slices* (one partition each), ingested
        in sorted job-id order so codes and row numbering are
        deterministic."""
        self._vocab = {}
        self._parts = []
        for start_key, dynamic_rows, static_rows in slices:
            part = _Rows(start_key)
            for job_id in sorted(dynamic_rows):
                self._ingest(
                    part, job_id, dynamic_rows[job_id], static_rows.get(job_id)
                )
            self._parts.append(part)
        self._starts = [part.start_key for part in self._parts]
        self._built_generation = int(generation)
        self._built_topology = int(topology_version)
        self._needs_rebuild = False
        self._view = None
        with self._pending_lock:
            self._pending = [
                entry for entry in self._pending if entry[4] > generation
            ]
        get_registry(self.registry).gauge(
            "pstorm_shard_index_partitions",
            "match-index partitions (one per Dynamic-range region)",
        ).set(float(len(self._parts)))

    # ------------------------------------------------------------------
    # Write-side hooks (called by the store, under the store lock)
    # ------------------------------------------------------------------
    def on_put(
        self,
        job_id: str,
        dynamic: Mapping[str, Any],
        static_columns: Mapping[str, Any],
        generation: int,
    ) -> None:
        with self._pending_lock:
            self._pending.append(("put", job_id, dynamic, static_columns, generation))

    def on_delete(self, job_id: str, generation: int) -> None:
        with self._pending_lock:
            self._pending.append(("delete", job_id, None, None, generation))

    def invalidate(self) -> None:
        """Force a full rebuild on the next probe."""
        with self._lock:
            self._needs_rebuild = True

    # ------------------------------------------------------------------
    # Coherence
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Store generation this index currently reflects (-1 = cold)."""
        with self._lock:
            return self._built_generation

    def ensure_fresh(self) -> None:
        """Bring the rows up to the store's generation and topology.

        Applies queued writes incrementally when possible, escalates to
        a full snapshot rebuild otherwise.  Raises whatever the snapshot
        scan raises (e.g. an injected substrate fault) — callers treat
        that as a poisoned index and fall back to the scan path; the
        index itself stays stale-but-consistent and recovers on the next
        successful call.
        """
        with self._lock:
            with self._pending_lock:
                pending = self._pending
                self._pending = []
            topology = self._store.topology_version
            if (
                not self._needs_rebuild
                and self._built_generation >= 0
                and self._built_topology == topology
            ):
                for op, job_id, dynamic, static_columns, generation in pending:
                    if generation <= self._built_generation:
                        continue  # already covered by a snapshot rebuild
                    part = self._part_for(job_id)
                    if op == "put":
                        if job_id in part.row_of:
                            # Overwrite: per-column history is not
                            # replayable in place, rebuild instead.
                            self._needs_rebuild = True
                            break
                        self._ingest(part, job_id, dynamic, static_columns)
                    else:
                        row = part.row_of.pop(job_id, None)
                        if row is not None:
                            part.active[row] = False
                            part.frozen = None
                            self._view = None
                    self._built_generation = generation
            if (
                self._needs_rebuild
                or self._built_generation != self._store.generation
                or self._built_topology != topology
            ):
                self._rebuild()

    def view(self) -> IndexView:
        """The current generation as an immutable :class:`IndexView`.

        Brings the index fresh first (raising whatever the rebuild scan
        or the normalizer read raises), then republishes only if a write
        or a repartition moved past the last view.  A republish freezes
        just the partitions a write touched; every other column set is
        shared with the previous view by reference.
        """
        with self._lock:
            self.ensure_fresh()
            if self._view is None:
                self._view = IndexView(
                    generation=self._built_generation,
                    topology_version=self._built_topology,
                    starts=self._starts,
                    parts=[part.freeze() for part in self._parts],
                    normalizers={
                        key: self._store.load_normalizer(*key)
                        for key in _VECTOR_COLUMNS
                    },
                    vocab=self._vocab,
                    cfg_payloads=self._cfg_payloads,
                    cfg_graphs=self._cfg_graphs,
                    cfg_memo=self._cfg_memo,
                )
            return self._view

    def load_checkpoint(
        self,
        generation: int,
        dynamic_rows: Mapping[str, Mapping[str, Any]],
        static_rows: Mapping[str, Mapping[str, Any]],
    ) -> None:
        """Warm the index from a persisted checkpoint, skipping the rebuild.

        The checkpoint stores rows flat; the store slices them by its
        *current* key ranges (a restored substrate has already recovered
        its topology), exactly as a rebuild would — so the first probe
        after a restart finds a hot index and
        ``pstorm_matcher_index_rebuilds_total`` stays 0.
        """
        with self._lock:
            self._install(
                *self._store.index_snapshot(
                    rows=(int(generation), dynamic_rows, static_rows)
                )
            )
        get_registry(self.registry).counter(
            "pstorm_match_index_checkpoint_loads_total",
            "columnar-index warm loads from a snapshot checkpoint",
        ).inc()

    def _rebuild(self) -> None:
        """Full rebuild from a write- and topology-consistent snapshot."""
        self._install(*self._store.index_snapshot())
        registry = get_registry(self.registry)
        registry.counter(
            "pstorm_matcher_index_rebuilds_total",
            "full columnar-index rebuilds from a store snapshot",
        ).inc()
        registry.counter(
            "pstorm_shard_index_repartitions_total",
            "match-index repartitions (topology or coherence escalations)",
        ).inc()
