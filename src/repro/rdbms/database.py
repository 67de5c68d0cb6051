"""Database facade tying together storage, buffer pool, catalog and queries.

This is the "PostgreSQL" of the reproduction: enough of an RDBMS engine to
create training tables, bulk load them, serve sequential scans through a
buffer pool and invoke UDFs from SQL, which is all the paper's experiments
exercise.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import CatalogError, RDBMSError
from repro.rdbms.buffer_pool import DEFAULT_POOL_BYTES, BufferPool
from repro.rdbms.catalog import AcceleratorEntry, Catalog, TableEntry
from repro.rdbms.heapfile import HeapFile
from repro.rdbms.page import DEFAULT_PAGE_SIZE, PageLayout
from repro.rdbms.query import QueryExecutor, QueryResult
from repro.rdbms.storage import StorageManager
from repro.rdbms.types import Schema
from repro.rdbms.wal import WalRecord, WriteAheadLog, frozen_rows


class Database:
    """A single-node database instance with a buffer pool and catalog."""

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pool_bytes: int = DEFAULT_POOL_BYTES,
    ) -> None:
        self.page_size = page_size
        self.layout = PageLayout(page_size=page_size)
        self.storage = StorageManager()
        self.buffer_pool = BufferPool(
            self.storage, pool_bytes=buffer_pool_bytes, page_size=page_size
        )
        self.catalog = Catalog()
        self.executor = QueryExecutor(self)
        self.wal = WriteAheadLog()
        self._heapfiles: dict[str, HeapFile] = {}
        #: the attached DAnA system (set by ``DAnA.__init__``); SQL
        #: prediction and CREATE MODEL statements execute against it.
        self.serving_runtime = None

    # ------------------------------------------------------------------ #
    # DDL / DML
    # ------------------------------------------------------------------ #
    def create_table(self, name: str, schema: Schema) -> HeapFile:
        """Create an empty table and register it in the catalog."""
        if self.catalog.has_table(name):
            raise CatalogError(f"table {name!r} already exists")
        heapfile = HeapFile(name, schema, self.storage, self.layout)
        self._heapfiles[name] = heapfile
        self.catalog.register_table(
            TableEntry(name=name, schema=schema, file_name=name, layout=self.layout)
        )
        return heapfile

    def drop_table(self, name: str) -> None:
        """Drop a table: catalog entry, storage file and heap-file handle."""
        self.catalog.drop_table(name)
        self.storage.drop_file(name)
        del self._heapfiles[name]

    def load_table(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Sequence[float | int]] | np.ndarray,
    ) -> HeapFile:
        """Create a table and bulk load it in one step."""
        heapfile = self.create_table(name, schema)
        self.catalog.update_tuple_count(name, heapfile.bulk_load(rows))
        return heapfile

    def insert_rows(
        self, name: str, rows: Sequence[Sequence[float | int]] | np.ndarray
    ) -> WalRecord:
        """WAL-logged insert: log first, then stamp the rows into the heap.

        The write path for *live* tables.  The float64 matrix the log will
        carry is frozen first (:func:`~repro.rdbms.wal.frozen_rows`) and
        *that matrix* is validated and encoded against the schema, once
        (:meth:`Schema.to_records`) — so a row the heap apply or a later
        replay would refuse never reaches the log.  The record is made
        durable by :meth:`WriteAheadLog.append` (which fires the
        ``rdbms.wal.append`` fault site on both sides of durability), then
        applied through :meth:`apply_wal_record` with the records already
        encoded — replay encodes the same matrix with the same function,
        so a recovered heap is bit-identical to this one.  Returns the
        record.
        """
        logged = frozen_rows(rows)
        records = self.catalog.table(name).schema.to_records(logged)
        if not len(records):
            raise RDBMSError(f"cannot insert zero rows into {name!r}")
        record = self.wal.append(name, logged)
        self.apply_wal_record(record, records)
        return record

    def apply_wal_record(
        self, record: WalRecord, records: np.ndarray | None = None
    ) -> None:
        """Apply one WAL record to the heap (live insert and replay path).

        Idempotence is the caller's contract (replay applies each record
        once against a freshly bulk-loaded base); this method just stamps
        the rows in, invalidates the rewritten tail page in the buffer
        pool, adopts the record into this database's own log, and bumps
        the catalog tuple count.  ``records`` is the live insert's
        hand-off — ``record.rows`` as :meth:`Schema.to_records` already
        encoded them; replay passes none and the heap apply encodes.
        """
        heapfile = self.table(record.table)
        self.wal.adopt(record)
        if records is None:
            heapfile.append_rows(record.rows, record.lsn, self.buffer_pool)
        else:
            heapfile.append_records(records, record.lsn, self.buffer_pool)
        self.catalog.update_tuple_count(record.table, heapfile.tuple_count)

    def drop_model(self, name: str, version: int | None = None) -> list[int]:
        """Drop a saved model: its parameter heap tables and catalog entries.

        Args:
            name: the saved model's name.
            version: one version to drop, or ``None`` for all versions.

        Returns:
            The dropped version numbers, ascending.

        Raises:
            CatalogError: when the model or the named version is missing.
        """
        entries = [
            self.catalog.model(name, v)
            for v in (
                self.catalog.model_versions(name) if version is None else [version]
            )
        ]
        dropped = self.catalog.drop_model(name, version)
        for entry in entries:
            if self.catalog.has_table(entry.table_name):
                self.drop_table(entry.table_name)
        return dropped

    def table(self, name: str) -> HeapFile:
        """The heap file of ``name``; raises CatalogError when missing."""
        try:
            return self._heapfiles[name]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def table_names(self) -> list[str]:
        """Names of all tables, sorted."""
        return sorted(self._heapfiles)

    # ------------------------------------------------------------------ #
    # queries and UDFs
    # ------------------------------------------------------------------ #
    def execute(self, sql: str) -> QueryResult:
        """Parse and execute a SQL statement."""
        return self.executor.execute(sql)

    def register_udf(self, name: str, handler) -> None:
        """Register a UDF callable invocable as ``SELECT * FROM dana.<name>(...)``."""
        self.catalog.register_udf(name, handler)

    def attach_serving_runtime(self, runtime) -> None:
        """Attach the DAnA system SQL serving statements execute against.

        Args:
            runtime: an object implementing
                :class:`repro.rdbms.query.ServingRuntime` (normally a
                :class:`repro.core.DAnA` instance, which calls this in its
                constructor).  The latest attachment wins.
        """
        self.serving_runtime = runtime

    def register_accelerator(self, entry: AcceleratorEntry) -> None:
        """Store compiled accelerator metadata in the catalog."""
        self.catalog.register_accelerator(entry)

    # ------------------------------------------------------------------ #
    # cache control (warm / cold experiments)
    # ------------------------------------------------------------------ #
    def warm_cache(self, table_name: str) -> int:
        """Prefetch a table into the buffer pool; returns resident pages."""
        return self.buffer_pool.prefetch_table(table_name)

    def cold_cache(self) -> None:
        """Drop all cached pages so the next scan pays full I/O."""
        self.buffer_pool.clear()

    def reset_io_stats(self) -> None:
        """Zero the buffer pool's hit/miss counters."""
        self.buffer_pool.reset_stats()
