"""Heap files: sequences of slotted pages backing one table.

Mutability and snapshots
------------------------
Rows arrive through one funnel — :meth:`Schema.to_records` validates and
encodes a batch, one fill loop packs it with :meth:`HeapPage.extend` —
with two callers: a heap file starts frozen (``bulk_load`` packs LSN-0
pages) and becomes *live* the first time a WAL record is applied through
:meth:`append_rows`.
Every mutation stamps the touched pages with the record's LSN, so a scan
can be pinned to the heap *as of* any LSN: :meth:`scan_pages` with
``as_of_lsn=s`` yields exactly the pages — and exactly the bytes — a scan
started at LSN ``s`` would have seen, no matter how many inserts land
afterwards.

A version is a header
---------------------
Only the tail page is ever rewritten, and a heap page is append-only: line
pointers grow up from the header, tuples grow down from the page end, the
hole between them is zero and nothing placed is ever moved.  The image a
page held at an earlier LSN is therefore its live image with the old
header put back and the bytes placed since zeroed again
(:meth:`HeapPage.image_as_of`), so the version store keeps, per tail-page
append, the page's previous LSN stamp and its 24-byte header — never a
page image.  Its size (:attr:`HeapFile.version_store_bytes`) is bounded by
the number of WAL records applied, not by page size times write history,
and no reader has to register for its snapshot to stay readable.  An
as-of scan rebuilds at most one page — the one that was the tail at its
LSN, if later inserts topped it up; every other page *is* its live image
and, like the rebuilt one's source, comes through the buffer pool (pool
statistics are observational and not part of any bit-identity contract).
"""

from __future__ import annotations

import itertools
import math
import threading
from bisect import bisect_right
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import RDBMSError
from repro.rdbms.buffer_pool import BufferPool
from repro.rdbms.page import HeapPage, PageLayout, decode_page_rows
from repro.rdbms.storage import StorageManager
from repro.rdbms.types import Schema


def _out_of_range(table: str, page_no: int, page_count: int) -> RDBMSError:
    return RDBMSError(
        f"page {page_no} is out of range for table {table!r} ({page_count} pages)"
    )


class HeapFile:
    """A table's on-"disk" representation as a sequence of heap pages.

    Bulk loading packs tuples densely in insertion order, matching how the
    paper's training tables are produced (a single ``COPY``/``INSERT`` pass
    before the experiment).  Reads always go through the buffer pool so that
    warm/cold cache behaviour and I/O counts are observable.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        storage: StorageManager,
        layout: PageLayout | None = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self.storage = storage
        self.layout = layout or PageLayout()
        if not storage.has_file(name):
            storage.create_file(name, self.layout.page_size)
        self._tuple_count = 0
        #: LSN stamp of each *live* page image, in page order.
        self._page_lsns: list[int] = []
        #: LSN at which each page was first appended (nondecreasing).
        self._page_create_lsns: list[int] = []
        #: superseded versions: page_no -> [(lsn, page header), ...] in
        #: ascending-LSN order; saved just before the tail page is topped up.
        self._page_versions: dict[int, list[tuple[int, bytes]]] = {}
        self._version_store_bytes = 0
        #: ``(lsn, total_tuple_count)`` history for as-of tuple counts.
        self._count_history: list[tuple[int, int]] = [(0, 0)]
        #: True once a WAL record mutated this file (bulk_load then forbidden).
        self._wal_mutated = False
        #: serializes WAL applies against snapshot reads: an as-of page
        #: pull must see the live-LSN check and the image read atomically
        #: with respect to a concurrent tail-page overwrite.
        self._mutate_lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def tuple_count(self) -> int:
        """Total tuples stored across all pages."""
        return self._tuple_count

    @property
    def page_count(self) -> int:
        """Number of heap pages in the file."""
        return self.storage.page_count(self.name)

    @property
    def size_bytes(self) -> int:
        """Total on-disk size of the file in bytes."""
        return self.storage.file_bytes(self.name)

    @property
    def version_store_bytes(self) -> int:
        """Bytes the version store holds: one page header per tail-page append."""
        return self._version_store_bytes

    def tuples_per_page(self) -> int:
        """How many tuples of this schema fit on one page."""
        return self.layout.tuples_per_page(self.schema)

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    def bulk_load(self, rows: Iterable[Sequence[float | int]] | np.ndarray) -> int:
        """Append rows, packing them densely into pages.  Returns row count.

        Bulk loads are the LSN-0 base image (an implicit checkpoint): they
        always start a fresh page and never stamp an LSN, so recovery can
        rebuild the durable base by re-running the same loads.  Once a WAL
        record has mutated the file, further bulk loads are rejected — all
        later writes must flow through the log (:meth:`append_rows`) so the
        per-table LSN history stays monotonic.
        """
        if self._wal_mutated:
            raise RDBMSError(
                f"table {self.name!r} has WAL-logged writes; use "
                "Database.insert_rows instead of bulk_load"
            )
        records = self.schema.to_records(rows)
        self._fill(records, 0)
        self._count_history[0] = (0, self._tuple_count)
        return len(records)

    # ------------------------------------------------------------------ #
    # WAL apply (the only write path for live tables)
    # ------------------------------------------------------------------ #
    def append_rows(
        self,
        rows: Iterable[Sequence[float | int]] | np.ndarray,
        lsn: int,
        pool: BufferPool | None = None,
    ) -> int:
        """Apply one WAL record's rows, stamping touched pages with ``lsn``.

        This is the shared apply primitive: WAL replay routes the record a
        live ``INSERT`` logged through the same encoder
        (:meth:`Schema.to_records`) and the same fill (:meth:`append_records`,
        which the live insert enters with the records it already encoded),
        so the heap bytes (LSN stamps included) are bit-identical by
        construction.
        """
        return self.append_records(self.schema.to_records(rows), lsn, pool)

    def append_records(
        self, records: np.ndarray, lsn: int, pool: BufferPool | None = None
    ) -> int:
        """Apply one WAL record, already encoded by :meth:`Schema.to_records`.

        The tail page is filled first — its header is pushed into the
        version store, which is all an in-flight snapshot scan needs to
        keep seeing the bytes it started with — then fresh LSN-stamped
        pages are appended.  ``pool`` (when given) has its cached frame
        for the rewritten tail page invalidated.
        """
        if records.dtype != self.schema.record_dtype:
            raise RDBMSError(
                f"records of dtype {records.dtype} are not table {self.name!r}'s "
                "schema.to_records output"
            )
        if not len(records):
            return 0
        with self._mutate_lock:
            last_lsn = self._count_history[-1][0]
            if lsn <= last_lsn:
                raise RDBMSError(
                    f"WAL apply out of order on table {self.name!r}: record LSN "
                    f"{lsn} is not past the last applied LSN {last_lsn}"
                )
            self._wal_mutated = True
            self._fill(records, lsn, pool)
            self._count_history.append((lsn, self._tuple_count))
            return len(records)

    def _fill(self, records: np.ndarray, lsn: int, pool: BufferPool | None = None) -> None:
        """The one fill loop: pack ``records`` into pages stamped ``lsn``.

        A WAL apply (``lsn > 0``) tops up the tail page first, saving its
        old header; the LSN-0 base image only ever starts fresh pages.
        """
        done = 0
        tail_no = self.page_count - 1
        if lsn > 0 and tail_no >= 0:
            image = self.storage.read_page(self.name, tail_no)
            page = HeapPage.from_bytes(image, self.layout)
            if page.has_room(self.schema):
                header = page.header
                self._page_versions.setdefault(tail_no, []).append(
                    (self._page_lsns[tail_no], header)
                )
                self._version_store_bytes += len(header)
                done = page.extend(self.schema, records, lsn)
                self.storage.write_page(self.name, tail_no, page.to_bytes())
                self._page_lsns[tail_no] = lsn
                if pool is not None:
                    pool.invalidate(self.name, tail_no)
        while done < len(records):
            page = HeapPage(self.layout)
            done += page.extend(self.schema, records[done:], lsn)
            self.storage.append_page(self.name, page.to_bytes())
            self._page_lsns.append(lsn)
            self._page_create_lsns.append(lsn)
        self._tuple_count += len(records)

    # ------------------------------------------------------------------ #
    # snapshot (as-of) readers
    # ------------------------------------------------------------------ #
    def page_lsn(self, page_no: int) -> int:
        """LSN stamp of the live image of ``page_no`` (0 = bulk load)."""
        if not 0 <= page_no < len(self._page_lsns):
            raise _out_of_range(self.name, page_no, len(self._page_lsns))
        return self._page_lsns[page_no]

    def page_count_as_of(self, as_of_lsn: int) -> int:
        """Number of pages that existed at LSN ``as_of_lsn``."""
        return bisect_right(self._page_create_lsns, as_of_lsn)

    def tuple_count_as_of(self, as_of_lsn: int) -> int:
        """Total tuples the table held at LSN ``as_of_lsn``."""
        # (lsn, inf) sorts after every (lsn, count) entry of that LSN.
        i = bisect_right(self._count_history, (as_of_lsn, math.inf))
        return self._count_history[i - 1][1] if i else 0

    def _version_as_of(self, page_no: int, as_of_lsn: int) -> tuple[int, bytes | None]:
        """``(LSN stamp, header)`` of ``page_no`` at ``as_of_lsn``.

        ``header`` is ``None`` when the live page is the answer, else that of
        the newest version at or before ``as_of_lsn`` (lists are LSN-ascending).
        """
        live = self.page_lsn(page_no)
        if live <= as_of_lsn:
            return live, None
        versions = self._page_versions.get(page_no, ())
        i = bisect_right(versions, as_of_lsn, key=lambda version: version[0])
        if i == 0:
            raise RDBMSError(
                f"page {page_no} of table {self.name!r} has no version at "
                f"or before LSN {as_of_lsn}"
            )
        return versions[i - 1]

    def page_lsn_as_of(self, page_no: int, as_of_lsn: int) -> int:
        """LSN stamp ``page_no`` carried at LSN ``as_of_lsn``."""
        return self._version_as_of(page_no, as_of_lsn)[0]

    def page_image_as_of(
        self, page_no: int, as_of_lsn: int, pool: BufferPool
    ) -> bytes:
        """The bytes ``page_no`` held at LSN ``as_of_lsn`` (see :meth:`images_as_of`)."""
        return self.images_as_of(pool, [page_no], as_of_lsn)[0]

    def images_as_of(
        self, pool: BufferPool, page_nos: Sequence[int] | None, as_of_lsn: int
    ) -> list[bytes]:
        """The bytes each of ``page_nos`` (``None``: every page) held at LSN
        ``as_of_lsn``, in the order asked — the one as-of rule.

        Live images come through the buffer pool.  A page whose live stamp
        is at or before ``as_of_lsn`` *is* its as-of image; only one stamped
        later — the page that was the tail then, topped up since — is
        rebuilt from the live image and the header the version store kept
        (:meth:`HeapPage.image_as_of`: one page-sized copy).  The whole
        read holds the table's mutate lock once, so a concurrent WAL apply
        cannot overwrite the tail page between a live-stamp check and its
        pool pull.  A page that did not exist at ``as_of_lsn`` raises
        :class:`~repro.exceptions.RDBMSError` before any image is returned.
        """
        with self._mutate_lock:
            page_count = self.page_count_as_of(as_of_lsn)
            if page_nos is None:
                page_nos = range(page_count)
            images, lsns = [], self._page_lsns
            for page_no in page_nos:
                if not 0 <= page_no < page_count:
                    raise _out_of_range(self.name, page_no, page_count)
                image = pool.get_page(self.name, page_no)
                if lsns[page_no] > as_of_lsn:
                    _lsn, header = self._version_as_of(page_no, as_of_lsn)
                    image = HeapPage.image_as_of(image, header)
                images.append(image)
            return images

    def pages_newer_than(self, watermark_lsn: int, as_of_lsn: int) -> list[int]:
        """Pages (as of ``as_of_lsn``) stamped past ``watermark_lsn``.

        The incremental-refresh scan set: every page whose as-of image
        carries rows logged after the model's watermark.  The tail page a
        watermark-era record partially filled re-appears here once later
        inserts restamp it, so a refresh may re-train a few pre-watermark
        rows — that is the documented page-granular semantics.

        The set is a suffix of the page order, found by bisection: a record
        restamps only the tail page and appends new pages under its own
        LSN, so a page is never written again once a later one exists and
        the as-of stamps are non-decreasing in page order.
        """
        pages = range(self.page_count_as_of(as_of_lsn))
        first = bisect_right(
            pages, watermark_lsn, key=lambda page_no: self.page_lsn_as_of(page_no, as_of_lsn)
        )
        return list(pages[first:])

    # ------------------------------------------------------------------ #
    # scanning
    # ------------------------------------------------------------------ #
    def scan_pages(
        self,
        pool: BufferPool,
        page_nos: Sequence[int] | None = None,
        as_of_lsn: int | None = None,
    ) -> Iterator[tuple[int, bytes]]:
        """Yield ``(page_no, raw_page_image)`` via the pool.

        ``page_nos`` restricts the scan to one partition's pages (the
        sharded execution subsystem assigns each segment a subset of the
        heap); the default scans every page in storage order.

        ``as_of_lsn`` pins the scan to a snapshot: only pages that existed
        at that LSN are visible, and each image is the bytes the page held
        then — read in one :meth:`images_as_of` call when the scan starts.
        ``None`` scans the live heap.
        """
        if as_of_lsn is not None:
            images = self.images_as_of(pool, page_nos, as_of_lsn)
            yield from zip(itertools.count() if page_nos is None else page_nos, images)
            return
        page_count = self.page_count
        if page_nos is None:
            page_nos = range(page_count)
        for page_no in page_nos:
            if not 0 <= page_no < page_count:
                raise _out_of_range(self.name, page_no, page_count)
            yield page_no, pool.get_page(self.name, page_no)

    def scan_tuples(
        self, pool: BufferPool, as_of_lsn: int | None = None
    ) -> Iterator[tuple[float | int, ...]]:
        """Yield decoded tuples in storage order via the buffer pool."""
        for _page_no, image in self.scan_pages(pool, as_of_lsn=as_of_lsn):
            page = HeapPage.from_bytes(image, self.layout)
            yield from page.tuples(self.schema)

    def read_all(
        self, pool: BufferPool, as_of_lsn: int | None = None
    ) -> np.ndarray:
        """Materialise the whole table as a float64 NumPy array."""
        return self.read_pages(pool, None, as_of_lsn=as_of_lsn)

    def read_pages(
        self,
        pool: BufferPool,
        page_nos: Sequence[int] | None,
        as_of_lsn: int | None = None,
    ) -> np.ndarray:
        """Materialise a subset of pages as a float64 array (storage order).

        The CPU-decode twin of a partial :meth:`scan_pages` (``None`` reads
        every page): incremental refresh uses it to train on only the pages
        past a model's watermark when Striders are disabled.
        """
        chunks = [
            decode_page_rows(image, self.layout, self.schema)
            for _page_no, image in self.scan_pages(pool, page_nos, as_of_lsn=as_of_lsn)
        ]
        if not chunks:
            return np.empty((0, len(self.schema)))
        return np.vstack(chunks)
