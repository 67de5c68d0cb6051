"""Write-ahead log: the durability contract for live heap tables.

Every mutation of a live table is logged *before* it touches the heap:
:meth:`WriteAheadLog.append` allocates the next LSN, makes the record
durable, and only then does :meth:`~repro.rdbms.database.Database.apply_wal_record`
stamp the rows into heap pages.  Because a live ``INSERT`` and WAL replay
route the *same record object* through the *same apply function*, the heap
bytes after recovery are bit-identical to the never-crashed heap — LSN
stamps, tail-page packing and all — by construction, not by luck.

The log is schema-free (``append`` has no catalog in reach): it freezes a
float64 copy of the rows (:func:`frozen_rows`) and the heap apply encodes
them (:meth:`Schema.to_records`); on disk a record would be
``rows.tobytes()``.  A live insert validates and encodes that same frozen
matrix *before* logging it and hands the records over, so nothing the
apply or a replay would refuse ever becomes durable.

Recovery model
--------------
The durable truth is the LSN-0 base image (the ``bulk_load`` pages — an
implicit checkpoint) plus this log.  To recover a crashed database: build a
fresh :class:`~repro.rdbms.database.Database`, re-run the same bulk loads,
then call :meth:`WriteAheadLog.replay` against it.  The log survives the
crash (in a real system it is the fsync'd tail of the WAL file; here it is
the ``WriteAheadLog`` object the harness keeps across the simulated kill).

Crash simulation
----------------
``append`` fires the ``"rdbms.wal.append"`` fault site **twice** per
record: call ``2k-1`` fires *before* record ``k`` becomes durable (a crash
there loses the record — the heap must recover to the state before it) and
call ``2k`` fires *after* durability but *before* the heap apply (a crash
there must be repaired by replay).  ``tests/test_wal_recovery.py`` walks a
kill through every one of those boundaries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.exceptions import RDBMSError
from repro.obs.telemetry import telemetry
from repro.reliability.faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdbms.database import Database

#: fault site fired twice per append (pre-durable, post-durable-pre-apply).
WAL_APPEND_FAULT_SITE = "rdbms.wal.append"


@dataclass(frozen=True, eq=False)
class WalRecord:
    """One durable log record: *these rows were inserted into this table*.

    Identified by :attr:`lsn` (``eq=False``: arrays have no scalar equality).
    """

    #: log sequence number; globally monotonic per :class:`WriteAheadLog`.
    lsn: int
    #: name of the heap table the rows belong to.
    table: str
    #: the inserted rows: one read-only ``(n, columns)`` float64 matrix, a
    #: private copy of what the client supplied.
    rows: np.ndarray

    @property
    def row_count(self) -> int:
        """Number of rows the record carries."""
        return len(self.rows)


def frozen_rows(rows: Sequence[Sequence[float | int]] | np.ndarray) -> np.ndarray:
    """The matrix a record carries for ``rows``: a read-only float64 copy.

    The copy is private — the caller cannot reach it through ``rows`` —
    and it is exactly what replay will encode, so it is also what
    :meth:`Database.insert_rows` validates before anything is logged.
    """
    try:
        frozen = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise RDBMSError(f"rows are not a rectangular numeric batch: {exc}") from None
    frozen.flags.writeable = False
    return frozen


class WriteAheadLog:
    """An append-only, globally-ordered log of table mutations.

    Thread-safe: LSN allocation and the durable append happen under one
    lock, so records are strictly ordered even when inserts race.
    """

    def __init__(self) -> None:
        self._records: list[WalRecord] = []
        self._next_lsn = 1
        self._lock = threading.Lock()

    @property
    def current_lsn(self) -> int:
        """LSN of the newest durable record (0 when the log is empty).

        This is the snapshot point scans and refreshes pin themselves to:
        a scan started "now" sees exactly the records with
        ``lsn <= current_lsn``.
        """
        return self._next_lsn - 1

    def __len__(self) -> int:
        return len(self._records)

    def append(
        self, table: str, rows: Sequence[Sequence[float | int]] | np.ndarray
    ) -> WalRecord:
        """Make one insert durable; returns the record to apply to the heap.

        Fires the ``"rdbms.wal.append"`` fault site before *and* after the
        durable append (see the module docstring for the crash semantics).
        The caller — :meth:`Database.insert_rows` — must apply the returned
        record; a fault raised between durability and apply is exactly the
        torn state :meth:`replay` repairs.
        """
        frozen = frozen_rows(rows)
        if frozen.ndim != 2 or not len(frozen):
            raise RDBMSError(f"cannot log an empty or non-2-D insert into {table!r}")
        fault_point(WAL_APPEND_FAULT_SITE)
        obs = telemetry()
        span = (
            obs.span("rdbms.wal.append", table=table, rows=len(frozen))
            if obs is not None
            else None
        )
        with self._lock:
            record = WalRecord(lsn=self._next_lsn, table=table, rows=frozen)
            self._records.append(record)
            self._next_lsn += 1
        if span is not None:
            obs.finish(span, lsn=record.lsn)
        fault_point(WAL_APPEND_FAULT_SITE)
        return record

    def adopt(self, record: WalRecord) -> None:
        """Register a record replayed from another log into this one.

        Recovery replays a surviving log into a fresh database; adopting
        each record keeps the fresh database's own log contiguous, so it
        can keep serving writes (at LSNs past the replayed tail) and can
        itself be replayed again.  Adopting a record this log already holds
        is a no-op (the live-insert path appends before it applies).
        """
        with self._lock:
            if self._records and self._records[-1].lsn >= record.lsn:
                for existing in reversed(self._records):
                    if existing.lsn == record.lsn:
                        return
                    if existing.lsn < record.lsn:
                        break
                raise RDBMSError(
                    f"cannot adopt WAL record {record.lsn}: log already "
                    f"past it (at {self._records[-1].lsn}) without it"
                )
            self._records.append(record)
            self._next_lsn = record.lsn + 1

    def records(
        self, up_to_lsn: int | None = None, table: str | None = None
    ) -> Iterator[WalRecord]:
        """Durable records in LSN order, optionally bounded and filtered."""
        with self._lock:
            snapshot = list(self._records)
        for record in snapshot:
            if up_to_lsn is not None and record.lsn > up_to_lsn:
                break
            if table is not None and record.table != table:
                continue
            yield record

    def replay(self, database: "Database", up_to_lsn: int | None = None) -> int:
        """Re-apply the log against a freshly bulk-loaded database.

        Routes every record through ``database.apply_wal_record`` — the
        same function the live insert path uses — so the recovered heap is
        bit-identical to the never-crashed one.  Records for tables the
        target database does not have are an error (recovery must re-run
        the same bulk loads first).  Returns the number of records applied.
        """
        applied = 0
        for record in self.records(up_to_lsn=up_to_lsn):
            database.apply_wal_record(record)
            applied += 1
        return applied
