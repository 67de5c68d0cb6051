"""Heap files: sequences of slotted pages backing one table.

Mutability and snapshots
------------------------
Rows arrive through one funnel — :meth:`Schema.to_records` validates and
encodes a batch, one fill loop packs it with :meth:`HeapPage.extend` —
with two callers: a heap file starts frozen (``bulk_load`` packs LSN-0
pages) and becomes *live* the first time a WAL record is applied through
:meth:`append_rows`.
Every mutation stamps the touched pages with the record's LSN and saves a
copy-on-write pre-image of any page it overwrites, so a scan can be pinned
to the heap *as of* any LSN: :meth:`scan_pages` with ``as_of_lsn=s`` yields
exactly the pages — and exactly the bytes — a scan started at LSN ``s``
would have seen, no matter how many inserts land afterwards.  Historical
pre-images are served from the version store and bypass the buffer pool
(only live images are cached); pool statistics are observational and are
not part of any bit-identity contract.
"""

from __future__ import annotations

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
        #: copy-on-write pre-images: page_no -> [(lsn, image), ...] in
        #: ascending-LSN order; saved just before a page is overwritten.
        self._page_versions: dict[int, list[tuple[int, bytes]]] = {}
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

        This is the shared apply primitive: both a live ``INSERT`` and WAL
        replay route the *same record* through this function, so the heap
        bytes (LSN stamps included) are bit-identical by construction.  The
        tail page is filled first — its pre-image is pushed into the
        copy-on-write version store so in-flight snapshot scans keep seeing
        the bytes they started with — then fresh LSN-stamped pages are
        appended.  ``pool`` (when given) has its cached frame for the
        rewritten tail page invalidated.
        """
        records = self.schema.to_records(rows)
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
        pre-image; the LSN-0 base image only ever starts fresh pages.
        """
        done = 0
        tail_no = self.page_count - 1
        if lsn > 0 and tail_no >= 0:
            image = self.storage.read_page(self.name, tail_no)
            page = HeapPage.from_bytes(image, self.layout)
            if page.has_room(self.schema):
                self._page_versions.setdefault(tail_no, []).append(
                    (self._page_lsns[tail_no], bytes(image))
                )
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
            raise RDBMSError(
                f"page {page_no} is out of range for table {self.name!r} "
                f"({len(self._page_lsns)} pages)"
            )
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
        """``(LSN stamp, image)`` of ``page_no`` at ``as_of_lsn``.

        ``image`` is ``None`` when the live page is the answer, else the newest
        pre-image at or before ``as_of_lsn`` (version lists are LSN-ascending).
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
        """The bytes ``page_no`` held at LSN ``as_of_lsn``.

        Live images are served through the buffer pool; overwritten
        pre-images come from the copy-on-write version store (and bypass
        the pool — only live pages are cached).  The read holds the
        table's mutate lock so a concurrent WAL apply cannot overwrite
        the tail page between the live-LSN check and the pool pull.
        """
        with self._mutate_lock:
            _lsn, image = self._version_as_of(page_no, as_of_lsn)
            return pool.get_page(self.name, page_no) if image is None else image

    def pages_newer_than(self, watermark_lsn: int, as_of_lsn: int) -> list[int]:
        """Pages (as of ``as_of_lsn``) stamped past ``watermark_lsn``.

        The incremental-refresh scan set: every page whose as-of image
        carries rows logged after the model's watermark.  The tail page a
        watermark-era record partially filled re-appears here once later
        inserts restamp it, so a refresh may re-train a few pre-watermark
        rows — that is the documented page-granular semantics.
        """
        return [
            page_no
            for page_no in range(self.page_count_as_of(as_of_lsn))
            if self.page_lsn_as_of(page_no, as_of_lsn) > watermark_lsn
        ]

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
        then (overwritten tail pages are served from the copy-on-write
        version store).  ``None`` scans the live heap.
        """
        if as_of_lsn is None:
            page_count = self.page_count
        else:
            page_count = self.page_count_as_of(as_of_lsn)
        if page_nos is None:
            page_nos = range(page_count)
        for page_no in page_nos:
            if not 0 <= page_no < page_count:
                raise RDBMSError(
                    f"page {page_no} is out of range for table {self.name!r} "
                    f"({page_count} pages)"
                )
            if as_of_lsn is None:
                yield page_no, pool.get_page(self.name, page_no)
            else:
                yield page_no, self.page_image_as_of(page_no, as_of_lsn, pool)

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
