"""Exceptions raised by the HBase substrate."""

from __future__ import annotations

__all__ = [
    "HBaseError",
    "TableExistsError",
    "TableNotFoundError",
    "UnknownColumnFamilyError",
    "UnknownFilterError",
    "TransientError",
    "ServerUnavailableError",
    "CorruptWalError",
    "CorruptSSTableError",
    "SimulatedCrashError",
    "WorkerKilledError",
    "RETRYABLE_ERRORS",
]


class HBaseError(Exception):
    """Base class for HBase substrate errors."""


class TableExistsError(HBaseError):
    """Raised when creating a table whose name is already taken."""


class TableNotFoundError(HBaseError):
    """Raised when opening or dropping a table that does not exist."""


class UnknownColumnFamilyError(HBaseError):
    """Raised on writes to a column family not declared at creation.

    HBase fixes the set of column families when a table is created; this is
    precisely the constraint that ruled out the 'column family per feature
    type' data model in §5.1 of the paper.
    """


class UnknownFilterError(HBaseError):
    """Raised when deserializing a filter whose type is not registered."""


class TransientError(HBaseError):
    """A momentary substrate failure (RPC blip, region moving, GC pause).

    Retryable: the same operation is expected to succeed shortly, so
    clients should retry with backoff rather than propagate.
    """


class ServerUnavailableError(HBaseError):
    """A region server is down (crash window, restart, network partition).

    Retryable, but typically for longer than a :class:`TransientError`;
    recovery happens when the server's crash window ends.
    """


class CorruptWalError(HBaseError):
    """A write-ahead-log record failed framing or checksum validation.

    Raised (or recorded, in tolerant replay) when a WAL tail is torn by a
    crash mid-write or corrupted on disk.  Recovery discards the tail and
    keeps the intact prefix — this error is a *diagnosis*, never a panic,
    and it is not retryable: the bytes will not get better.
    """


class CorruptSSTableError(HBaseError):
    """A binary SSTable block or footer failed framing or checksum checks.

    Raised when a block read hits a torn frame, a CRC mismatch, a
    malformed footer, or a truncated trailer, and when a manifest entry
    names a table in a format other than binary blocks (a v1 entry with
    no ``format`` field) — the read path surfaces the damage as this one
    typed diagnosis instead of returning garbage bytes as data.  Like :class:`CorruptWalError` it is not retryable:
    the bytes will not get better; the caller falls back (re-open,
    re-replicate, or restore from snapshot) instead of looping.
    """


class SimulatedCrashError(HBaseError):
    """A chaos-injected process kill at an operation boundary.

    Unlike :class:`ServerUnavailableError` this models the *client*
    process dying mid-operation, so it is deliberately not retryable:
    the crash-recovery harness lets it propagate, abandons the store
    object, and re-opens the on-disk state — exactly what a restarted
    process would do.
    """


class WorkerKilledError(HBaseError):
    """A chaos-injected SIGKILL of one serving worker process.

    Raised by the fault injector at the process-pool ``dispatch``
    boundary (``kind="kill"``): the lane that owns the target worker
    must kill it, respawn it, and resend its task — the request itself
    must still complete.  Not retryable at the substrate level; the
    recovery lives in :class:`repro.serving.procpool.ProcessBackend`.
    """


#: Error types a well-behaved store client retries instead of propagating.
RETRYABLE_ERRORS: tuple[type[HBaseError], ...] = (
    TransientError,
    ServerUnavailableError,
)
