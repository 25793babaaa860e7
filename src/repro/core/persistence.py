"""Profile store persistence: export to and import from JSON.

A real PStorM deployment's state lives in HBase and survives daemon
restarts; our in-memory substrate needs an explicit snapshot path.  The
format is plain JSON — one object per stored job holding the serialized
profile and static features — so snapshots are diffable, versionable, and
shareable between clusters (pair with
:func:`repro.core.transfer.transfer_profile` for the §7.2.6 scenario of
bootstrapping a new cluster's store from another cluster's history).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..analysis.static_features import StaticFeatures
from ..chaos.retry import RetryPolicy
from ..starfish.profile import JobProfile
from .resilient import ResilientProfileStore
from .store import ProfileStore

__all__ = [
    "dump_store",
    "load_store",
    "store_to_dict",
    "store_from_dict",
    "snapshot_store",
    "restore_store",
]

FORMAT_VERSION = 1


def store_to_dict(store: ProfileStore) -> dict[str, Any]:
    """Serialize a store's contents to a JSON-compatible dict."""
    entries = {}
    for job_id in store.job_ids():
        entries[job_id] = {
            "profile": store.get_profile(job_id).to_dict(),
            "static": store.get_static(job_id).to_dict(),
        }
    return {"version": FORMAT_VERSION, "entries": entries}


def store_from_dict(
    payload: dict[str, Any],
    store: ProfileStore | None = None,
    retry_policy: RetryPolicy | None = None,
) -> ProfileStore:
    """Rebuild a store from a snapshot dict.

    Normalizer bounds are reconstructed by replaying the inserts, so a
    restored store matches exactly like the original did.  Replay writes
    go through the resilient client, so a restore survives transient
    substrate faults; *retry_policy* overrides its default budgets.

    Replay keeps the columnar match index coherent for free: every
    replayed ``put`` bumps the store generation and enqueues an index
    update, and the explicit refresh at the end folds them in so a
    restored store whose index was already hot probes warm immediately.
    """
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported store snapshot version: {version!r}")
    if store is None:
        store = ProfileStore()
    writer = (
        store
        if isinstance(store, ResilientProfileStore)
        else ResilientProfileStore(store, policy=retry_policy)
    )
    for job_id, entry in sorted(payload["entries"].items()):
        profile = JobProfile.from_dict(entry["profile"])
        static = StaticFeatures.from_dict(entry["static"])
        writer.put(profile, static, job_id=job_id)
    refresh = getattr(writer, "refresh_match_index", None)
    if callable(refresh):
        try:
            refresh()
        except Exception:
            # A restore must not fail because the warm-up scan did: the
            # matcher falls back to the scan path until the index heals.
            pass
    return store


def dump_store(store: ProfileStore, path: str | Path) -> None:
    """Write a store snapshot to *path* as JSON."""
    path = Path(path)
    path.write_text(json.dumps(store_to_dict(store), indent=1, sort_keys=True))


def load_store(
    path: str | Path,
    store: ProfileStore | None = None,
    retry_policy: RetryPolicy | None = None,
) -> ProfileStore:
    """Load a store snapshot from *path*."""
    payload = json.loads(Path(path).read_text())
    return store_from_dict(payload, store=store, retry_policy=retry_policy)


# ----------------------------------------------------------------------
# Physical durability (WAL + SSTables + index checkpoint)
# ----------------------------------------------------------------------
# The JSON export above is a *logical* snapshot: portable, diffable,
# restored by replaying every insert (O(store size) restart cost).  A
# ``data_dir``-backed store instead persists *physically* — per-region
# WALs and SSTables plus a match-index checkpoint — so restoring costs
# only a manifest load and a WAL-tail replay.  These helpers are the
# explicit-intent entry points; ``benchmarks/test_restart_time.py``
# measures the two restart paths against each other.


def snapshot_store(store: ProfileStore) -> Path:
    """Checkpoint a durable store (flush + ``index_checkpoint.json``).

    Raises ``ValueError`` for in-memory stores — use :func:`dump_store`
    for those.
    """
    return store.snapshot()


def restore_store(data_dir: str | Path, **kwargs: Any) -> ProfileStore:
    """Reopen a durable store from its ``data_dir``.

    Rows, normalizer bounds, and the write generation come back from
    the substrate's manifests and WAL tails; the match index warms from
    the last :func:`snapshot_store` checkpoint when one exists.
    """
    return ProfileStore.restore(data_dir, **kwargs)
