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
- per-side int CFG *digest codes*, indexing a table of content digests,
  plus a parsed-graph cache and a memo of pairwise
  :func:`~repro.analysis.cfg_match.cfg_match` verdicts, so the expensive
  synchronized-walk runs once per distinct (probe, stored) graph pair,
  not once per row per probe.  Digests are content addresses — equal
  digests are byte-identical graphs — so the code table, the memo and
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
one per region with ``shard_index=True``.  Candidates are
:class:`Rows` — one int row array per partition — so a partitioned view
needs no routing between stages: each stage runs per partition on that
partition's rows, and a stacked bounding-box prune lets stage 1 skip
partitions that provably hold no Euclidean survivor.  Partition ranges
are disjoint and key-ordered, so ``(partition, id rank)`` is sorted-id
order across the whole view, and the tie-break over every partition's
candidates at once picks the flat winner.

A republish copies no column arrays: a partition's arrays — including
the id rank, CFG codes and live-static mask derived at freeze — are
frozen once per write that touches it and shared, by reference, by every
view until the next such write.  The builder never mutates a frozen
array.

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
propagates; ``ResilientProfileStore`` retries the publish like any
scan, and the next successful call recovers.

Lock order: writers hold ``store._lock`` → ``index._pending_lock``
(leaf); ``view()`` holds ``index._lock`` → ``store._lock`` (snapshot /
normalizer load).  No path acquires them in the opposite order, so the
two compose deadlock-free.  Probes on a published view take no lock.

Stage parity
------------
Every stage reproduces its scan-path filter bit for bit, and stages hand
each other :class:`Rows`, never job-id lists; a job id is built only for
the tie-break winner.  The normalized-Euclidean stage clips with the
same min/max bounds and sums squares in the same float64 order (vectors
are ≤6-wide, below numpy's pairwise-summation block, see
:mod:`repro.core.similarity`).  The CFG stage takes one memoized verdict
per distinct digest code among the candidates.  The Jaccard stage fails
rows with a missing or ``None``-valued probe column exactly like
:class:`~repro.core.store.JaccardThresholdFilter`.  The tie-break is one
``np.lexsort`` over ``(id rank, -similarity, |Δsize|, similarity < 1)``
— the matcher's ``(same_program, |Δsize|, -similarity, job_id)`` sort
key, with the per-partition id rank offset by the partition's start, so
it orders exactly as the job id does.  The similarity histogram gets
one ``observe_many`` of the candidates' similarities in id-rank order,
the scan path's per-candidate order, so its float sum is bit-identical.
The view speaks rows only: the matcher's index stage source
(:class:`~repro.core.matcher.ProfileMatcher`) runs the one Fig 4.4
funnel on these row stages, and :meth:`IndexView.live_rows` is where a
stage order that skips the dynamic filter (the §4.3 statics-first
ablation) starts.  ``tests/test_match_index.py`` holds the Hypothesis
proof over flat and sharded stores, in-process and shared-memory views,
converting ids to rows and back with a test helper.

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
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from ..analysis.cfg import ControlFlowGraph
from ..analysis.cfg_match import cfg_match
from ..observability import MetricsRegistry, Tracer, get_registry
from .similarity import MinMaxNormalizer, clip_normalize
from .store import DYNAMIC_PREFIX, _columns_for

if TYPE_CHECKING:
    from .store import ProfileStore

__all__ = ["MatchIndex", "IndexView", "Rows"]

#: Code meaning "this row has no value for this static column" (and, in
#: a CFG code column, "this row has no CFG").
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

#: The empty row array every stage hands on for a partition without
#: candidates (read-only: stages never write into row arrays).
_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_ROWS.flags.writeable = False


def _cfg_digest(payload: Mapping[str, Any]) -> str:
    """Stable content digest of a serialized CFG (memo key, not equality)."""
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.md5(canonical.encode("utf-8")).hexdigest()


class Rows:
    """Candidate rows of one view: one intp array of live row numbers per
    partition, in the view's partition order.

    The Fig 4.4 stages hand these to each other in place of job-id
    lists.  Row numbers mean something only to the view that produced
    them; ``len()`` is the candidate count.
    """

    __slots__ = ("per_part",)

    def __init__(self, per_part: Sequence[np.ndarray]) -> None:
        self.per_part = tuple(per_part)

    def __len__(self) -> int:
        return sum(len(rows) for rows in self.per_part)


@dataclass(eq=False)
class _Columns:
    """One partition's frozen column arrays, shared by reference across
    every view published until a write touches the partition."""

    ids: np.ndarray
    active: np.ndarray
    has_static: np.ndarray
    #: ``active & has_static``: the rows the Jaccard stage may keep.
    live_static: np.ndarray
    #: Row -> position of its id among the partition's sorted ids (the
    #: identity after a rebuild, which ingests rows in sorted order).
    rank: np.ndarray
    input_bytes: np.ndarray
    matrices: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]
    codes: dict[str, np.ndarray]
    #: side -> per-row index into the view's CFG digest table, or
    #: ``_MISSING`` for a row without that side's CFG.
    cfg_codes: dict[str, np.ndarray]
    #: (side, kind) -> (normalizer, bounds, minimums, safe, denominator,
    #: normalized whole matrix, live bounding box); recomputed when a
    #: view brings different normalizer bounds.
    prep: dict[tuple[str, str], tuple[Any, ...]] = field(default_factory=dict)


class _Rows:
    """The builder's growable row lists for one partition."""

    def __init__(self, start_key: str) -> None:
        self.start_key = start_key
        self.ids: list[str] = []
        #: Job id -> row, for live rows only.
        self.row_of: dict[str, int] = {}
        #: Every row's id in sorted order, and the rows in that order.
        self.sorted_ids: list[str] = []
        self.order: list[int] = []
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
        self.cfg_codes: dict[str, list[int]] = {"map": [], "reduce": []}
        #: The frozen arrays while no write has touched these rows.
        self.frozen: _Columns | None = None

    def freeze(self) -> _Columns:
        if self.frozen is None:
            count = len(self.ids)
            rank = np.empty(count, dtype=np.intp)
            rank[np.asarray(self.order, dtype=np.intp)] = np.arange(
                count, dtype=np.intp
            )
            active = np.asarray(self.active, dtype=bool)
            has_static = np.asarray(self.has_static, dtype=bool)
            self.frozen = _Columns(
                ids=np.asarray(self.ids, dtype=object),
                active=active,
                has_static=has_static,
                live_static=active & has_static,
                rank=rank,
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
                cfg_codes={
                    side: np.asarray(codes, dtype=np.int64)
                    for side, codes in self.cfg_codes.items()
                },
            )
        return self.frozen


class IndexView:
    """An immutable, store-free snapshot of one index generation.

    Carries everything a probe needs — per-partition matrices, masks,
    codes, CFG digest codes, the shared vocabulary and CFG caches, and
    the normalizer bounds of its generation — so it answers every stage
    without locks, from any thread or process.  The arrays may be
    zero-copy views over ``multiprocessing.shared_memory`` segments (see
    :mod:`repro.core.shm_index`); the view never writes to them.

    The factorization vocabulary, the CFG digest table and the CFG
    payload/graph/verdict dicts are shared with the builder and may
    *grow* after publication: codes are append-only and digests are
    content addresses, so an entry a view's rows never reference cannot
    change its answers.
    """

    def __init__(
        self,
        generation: int,
        topology_version: int,
        starts: Sequence[str],
        parts: Sequence[_Columns],
        normalizers: Mapping[tuple[str, str], MinMaxNormalizer],
        vocab: dict[str, dict[Any, int]],
        cfg_table: list[str],
        cfg_payloads: dict[str, dict[str, Any]],
        cfg_graphs: dict[str, ControlFlowGraph] | None = None,
        cfg_memo: dict[tuple[str, str], bool] | None = None,
    ) -> None:
        self.generation = int(generation)
        self.topology_version = int(topology_version)
        self._starts = tuple(starts)
        self._parts = tuple(parts)
        #: Each partition's first global id rank: partitions are
        #: key-ordered, so offset + in-partition rank orders the view.
        self._offsets = tuple(
            accumulate((len(part.ids) for part in self._parts[:-1]), initial=0)
        )
        self._normalizers = dict(normalizers)
        self._vocab = vocab
        self._cfg_table = cfg_table
        self._cfg_payloads = cfg_payloads
        self._cfg_graphs = {} if cfg_graphs is None else cfg_graphs
        self._cfg_memo = {} if cfg_memo is None else cfg_memo

    @property
    def partition_count(self) -> int:
        return len(self._parts)

    def live_rows(self) -> Rows:
        """Every live row: the candidates a stage order that does not
        start with the dynamic filter begins from."""
        return Rows(np.flatnonzero(part.active) for part in self._parts)

    def _pruned(
        self, side: str, kind: str, probes: np.ndarray, threshold: float
    ) -> list[int]:
        """Positions of the partitions that may hold a euclidean survivor.

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
            return list(range(len(self._parts)))
        kept: list[int] = []
        boxed: list[tuple[int, tuple[Any, ...]]] = []
        for position, part in enumerate(self._parts):
            prep = self._euclidean_prep(part, side, kind)
            if prep is None:
                # Unpriceable (no normalizer features): the partition
                # answers empty itself in O(1), keep it for parity.
                kept.append(position)
            elif prep[5] is not None:
                boxed.append((position, prep))
            # box is None -> no live rows -> provably empty: drop.
        if boxed:
            __, __, minimums, spans, __, __ = boxed[0][1]
            if probes.shape[1] != minimums.shape[0]:
                # Malformed probe: let the partitions raise exactly as
                # a flat view would.
                return list(range(len(self._parts)))
            normalized = clip_normalize(probes, minimums, spans)
            lows = np.stack([prep[5][0] for __, prep in boxed])
            highs = np.stack([prep[5][1] for __, prep in boxed])
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
        return sorted(kept)

    # ------------------------------------------------------------------
    # Per-partition kernels (rows in, rows out)
    # ------------------------------------------------------------------
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
            normalized_all = clip_normalize(matrix, minimums, spans)
            live = part.active & valid
            box = (
                (normalized_all[live].min(axis=0), normalized_all[live].max(axis=0))
                if live.any()
                else None
            )
            cached = (normalizer, bounds, minimums, spans, normalized_all, box)
            part.prep[(side, kind)] = cached
        return cached

    def _euclidean_part(
        self,
        part: _Columns,
        side: str,
        kind: str,
        probes: np.ndarray,
        threshold: float,
        rows: np.ndarray | None,
    ) -> list[np.ndarray]:
        """Price a (K, F) block of probes over *rows* (None: every row);
        entry k holds probe k's survivors.

        The K == 1 path is the scan-parity reference; the batched path
        broadcasts the same clipped normalization and the same float64
        square-sum over the trailing axis (≤6-wide, below numpy's
        pairwise-summation block), so every batch row is bit-identical
        to its scalar twin.
        """
        empty = [_NO_ROWS] * probes.shape[0]
        prep = self._euclidean_prep(part, side, kind)
        if prep is None:
            return empty
        matrix, valid = part.matrices[(side, kind)]
        if probes.shape[1] != matrix.shape[1]:
            raise ValueError("columns/probe/bounds must align")
        __, __, minimums, spans, normalized_all, box = prep
        normalized_probes = clip_normalize(probes, minimums, spans)
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
        if rows is None:
            if len(part.ids) == 0:
                return empty
            keep_base = part.active & valid
            normalized = normalized_all
        else:
            if len(rows) == 0:
                return empty
            keep_base = part.active[rows] & valid[rows]
            normalized = normalized_all[rows]
        # (K, R, F) broadcast; the sum runs over the trailing ≤6-wide
        # axis in the same order the scalar path uses.
        deltas = normalized[np.newaxis, :, :] - normalized_probes[:, np.newaxis, :]
        distances = np.sqrt((deltas * deltas).sum(axis=2))
        keep = keep_base & (distances <= threshold)
        if rows is None:
            return [np.flatnonzero(row_keep) for row_keep in keep]
        return [rows[row_keep] for row_keep in keep]

    def _graph_for(self, digest: str) -> ControlFlowGraph:
        graph = self._cfg_graphs.get(digest)
        if graph is None:
            graph = ControlFlowGraph.from_dict(self._cfg_payloads[digest])
            self._cfg_graphs[digest] = graph
        return graph

    def _cfg_verdict(
        self, probe_cfg: ControlFlowGraph, probe_key: str, code: int
    ) -> bool:
        """The memoized synchronized-walk verdict against one digest code."""
        digest = self._cfg_table[code]
        verdict = self._cfg_memo.get((probe_key, digest))
        if verdict is None:
            verdict = cfg_match(probe_cfg, self._graph_for(digest))
            self._cfg_memo[(probe_key, digest)] = verdict
        return verdict

    def _cfg_part(
        self,
        part: _Columns,
        side: str,
        probe_cfg: ControlFlowGraph,
        probe_key: str,
        rows: np.ndarray,
    ) -> np.ndarray:
        """One verdict per distinct digest code among *rows*, taken back
        to every row through a code-indexed lookup table (slot 0 is
        ``_MISSING``: rows without a static row or without a CFG)."""
        slots = part.cfg_codes[side][rows] + 1
        verdicts = np.zeros(len(self._cfg_table) + 1, dtype=bool)
        verdicts[slots] = True
        verdicts[0] = False
        for slot in np.flatnonzero(verdicts).tolist():
            verdicts[slot] = self._cfg_verdict(probe_cfg, probe_key, slot - 1)
        return rows[verdicts[slots]]

    def _probe_code(self, name: str, value: Any) -> int:
        """The stored code of a probe value (``_UNSEEN`` if never stored)."""
        try:
            return self._vocab.get(name, {}).get(value, _UNSEEN)
        except TypeError:  # unhashable value
            return _UNSEEN

    def _jaccard_part(
        self,
        part: _Columns,
        probe: Mapping[str, str],
        threshold: float,
        rows: np.ndarray,
    ) -> np.ndarray:
        rows = rows[part.live_static[rows]]
        if len(rows) == 0:
            return _NO_ROWS
        agreements = np.zeros(len(rows), dtype=np.int64)
        failed = np.zeros(len(rows), dtype=bool)
        for name, value in probe.items():
            column = part.codes.get(name)
            if column is None:
                return _NO_ROWS
            codes = column[rows]
            # The scan filter fails any row whose stored value is
            # absent *or* None for a probe column.
            failed |= codes == _MISSING
            none_code = self._vocab.get(name, {}).get(None, _UNSEEN)
            if none_code != _UNSEEN:
                failed |= codes == none_code
            agreements += codes == self._probe_code(name, value)
        if probe:
            scores = agreements / len(probe)
        else:
            scores = np.ones(len(rows), dtype=np.float64)
        return rows[(~failed) & (scores >= threshold)]

    def _similarities(
        self, part: _Columns, rows: np.ndarray, side_statics: Mapping[str, str]
    ) -> np.ndarray:
        """Each row's Jaccard similarity to the probe statics, as the
        scan-path tie-break computes it."""
        if not side_statics:
            return np.ones(len(rows), dtype=np.float64)
        agreements = np.zeros(len(rows), dtype=np.int64)
        for name, value in side_statics.items():
            column = part.codes.get(name)
            if column is None:
                # The scan path reads a missing stored value as "",
                # which agrees only when the probe value is "" too.
                agreements += value == ""
                continue
            codes = column[rows]
            equal = codes == self._probe_code(name, value)
            if value == "":
                equal |= codes == _MISSING
            agreements += equal
        return agreements / len(side_statics)

    # ------------------------------------------------------------------
    # Row stages (mirror the scan-path filters bit for bit)
    # ------------------------------------------------------------------
    def euclidean_rows(
        self,
        side: str,
        kind: str,
        probes: Sequence[Sequence[float]],
        threshold: float,
        candidates: Rows | None = None,
    ) -> list[Rows]:
        """One broadcast pricing a (K, F) block of probes against
        *candidates* (None: every row); entry k answers probe k, exactly
        as a block of that probe alone would."""
        block = np.asarray(probes, dtype=np.float64)
        if block.ndim != 2:
            raise ValueError(f"expected a (K, F) probe block, got {block.shape}")
        answers = [[_NO_ROWS] * len(self._parts) for __ in range(block.shape[0])]
        if candidates is None:
            positions = self._pruned(side, kind, block, threshold)
        else:
            positions = [
                position
                for position, rows in enumerate(candidates.per_part)
                if len(rows)
            ]
        for position in positions:
            rows = None if candidates is None else candidates.per_part[position]
            survivors = self._euclidean_part(
                self._parts[position], side, kind, block, threshold, rows
            )
            for answer, part_rows in zip(answers, survivors):
                answer[position] = part_rows
        return [Rows(answer) for answer in answers]

    def cfg_rows(
        self, side: str, probe_cfg: ControlFlowGraph, candidates: Rows
    ) -> Rows:
        """The *candidates* whose *side* CFG matches *probe_cfg*."""
        probe_key = _cfg_digest(probe_cfg.to_dict())
        return Rows(
            self._cfg_part(part, side, probe_cfg, probe_key, rows)
            if len(rows)
            else rows
            for part, rows in zip(self._parts, candidates.per_part)
        )

    def jaccard_rows(
        self, probe: Mapping[str, str], threshold: float, candidates: Rows
    ) -> Rows:
        """The *candidates* whose statics score at least *threshold*."""
        return Rows(
            self._jaccard_part(part, probe, threshold, rows) if len(rows) else rows
            for part, rows in zip(self._parts, candidates.per_part)
        )

    def tie_break_rows(
        self,
        candidates: Rows,
        input_bytes: int,
        side_statics: Mapping[str, str],
        observe_many: Callable[[np.ndarray], None] | None = None,
    ) -> str | None:
        """The scan-path tie-break winner's job id, or None when empty.

        One ``np.lexsort`` over ``(id rank, -similarity, |Δsize|,
        similarity < 1)`` — last key first — orders the candidates
        exactly as the scan path's ``(same_program, |stored - input|,
        -similarity, job_id)`` key.  *observe_many* receives every
        candidate's similarity in id-rank (= sorted-id) order, the
        scan path's per-candidate order.
        """
        located = [
            (position, rows)
            for position, rows in enumerate(candidates.per_part)
            if len(rows)
        ]
        if not located:
            return None
        keys = []
        for position, rows in located:
            part = self._parts[position]
            keys.append(
                (
                    part.rank[rows] + self._offsets[position],
                    self._similarities(part, rows, side_statics),
                    np.abs(part.input_bytes[rows] - np.int64(input_bytes)),
                )
            )
        rank, similarity, delta = (
            keys[0] if len(keys) == 1 else map(np.concatenate, zip(*keys))
        )
        if observe_many is not None:
            observe_many(similarity[np.argsort(rank, kind="stable")])
        best = int(np.lexsort((rank, -similarity, delta, similarity < 1.0))[0])
        for position, rows in located:
            if best < len(rows):
                break
            best -= len(rows)
        return self._parts[position].ids[rows[best]]

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
            arrays[f"{position}:rank"] = part.rank
            arrays[f"{position}:input_bytes"] = part.input_bytes
            for (side, kind), (matrix, valid) in part.matrices.items():
                arrays[f"{position}:mat:{side}:{kind}"] = matrix
                arrays[f"{position}:valid:{side}:{kind}"] = valid
            for name, column in part.codes.items():
                arrays[f"{position}:code:{name}"] = column
            for side, column in part.cfg_codes.items():
                arrays[f"{position}:cfg:{side}"] = column
        return arrays

    def export_meta(self) -> dict[str, Any]:
        """Everything that is not a big array, as one picklable blob."""
        table = list(self._cfg_table)
        referenced = sorted(
            {
                table[code]
                for part in self._parts
                for column in part.cfg_codes.values()
                for code in np.unique(column).tolist()
                if code != _MISSING
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
                }
                for part in self._parts
            ],
            "vocab": self._vocab,
            "cfg_table": table,
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
            active = arrays[f"{position}:active"]
            has_static = arrays[f"{position}:has_static"]
            parts.append(
                _Columns(
                    ids=np.asarray(part["ids"], dtype=object),
                    active=active,
                    has_static=has_static,
                    live_static=active & has_static,
                    rank=arrays[f"{position}:rank"],
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
                    cfg_codes={
                        side: arrays[f"{position}:cfg:{side}"]
                        for side in _CFG_COLUMNS
                    },
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
            cfg_table=meta["cfg_table"],
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
        #: shared by every published view.  A digest's code is its
        #: position in the append-only table.
        self._cfg_table: list[str] = []
        self._cfg_code_of: dict[str, int] = {}
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
        position = bisect_right(part.sorted_ids, job_id)
        part.sorted_ids.insert(position, job_id)
        part.order.insert(position, rows_before)
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
                code = self._cfg_code_of.get(digest)
                if code is None:
                    code = self._cfg_code_of[digest] = len(self._cfg_table)
                    self._cfg_table.append(digest)
                    self._cfg_payloads[digest] = dict(payload)
                part.cfg_codes[side].append(code)
            else:
                part.cfg_codes[side].append(_MISSING)
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
        scan raises (e.g. an injected substrate fault); the index itself
        stays stale-but-consistent and recovers on the next successful
        call.
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
                    cfg_table=self._cfg_table,
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
