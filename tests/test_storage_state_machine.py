"""Model-based fuzzing of the storage state machine.

One ``Database`` (1 KiB pages, a random homogeneous or mixed schema, a
pool that may be smaller than the table) is driven through bulk loads,
live inserts, snapshot reads and crash + replay by a Hypothesis
``RuleBasedStateMachine``.  The model is as plain as it gets: the list of
rows written so far (decoded by the per-row ``struct`` codec) plus, for
every remembered LSN, **the full page images the heap showed then** — the
keep-every-image version store ``src/`` no longer has.  Every as-of read
must reproduce those bytes exactly, from the live database and from one
recovered out of the log, and ``pages_newer_than``'s bisection must agree
with the brute-force scan it replaced.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.rdbms import ColumnType, Database, Schema

PAGE_SIZE = 1024
TABLE = "t"

schemas = st.one_of(
    st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=5),
    st.tuples(
        st.sampled_from([ColumnType.FLOAT4, ColumnType.FLOAT8]), st.integers(1, 6)
    ).map(lambda pair: [pair[0]] * pair[1]),
).map(lambda ctypes: Schema.build([(f"c{i}", ctype) for i, ctype in enumerate(ctypes)]))
seeds = st.integers(0, 2**32 - 1)


def _images(db: Database, as_of_lsn: int | None = None) -> list[bytes]:
    table = db.table(TABLE)
    return [bytes(i) for _no, i in table.scan_pages(db.buffer_pool, as_of_lsn=as_of_lsn)]


class StorageMachine(RuleBasedStateMachine):
    """Rules over one live table; see the module docstring for the model."""

    @initialize(schema=schemas, pool_pages=st.sampled_from([1, 3, 64]))
    def create(self, schema: Schema, pool_pages: int) -> None:
        self.schema = schema
        self.pool_bytes = pool_pages * PAGE_SIZE
        self.db = self._empty()
        #: the bulk loads, in order: the durable LSN-0 base recovery re-runs.
        self.base: list[np.ndarray] = []
        #: the model: every stored row, as the per-row codec decodes it.
        self.stored: list[tuple] = []
        #: lsn -> (page images, tuple count) the heap showed at that LSN.
        self.remembered: dict[int, tuple[list[bytes], int]] = {}

    def _empty(self) -> Database:
        db = Database(page_size=PAGE_SIZE, buffer_pool_bytes=self.pool_bytes)
        db.create_table(TABLE, self.schema)
        return db

    def _rows(self, n: int, seed: int) -> np.ndarray:
        """Halves in every column type's range (integers round half to even)."""
        rng = np.random.default_rng(seed)
        return rng.integers(-(2**15) + 1, 2**15 - 1, size=(n, len(self.schema))) / 2

    def _wrote(self, rows: np.ndarray) -> None:
        self.stored += [
            self.schema.decode_row(self.schema.encode_row(row)) for row in rows.tolist()
        ]
        table = self.db.table(TABLE)
        assert table.tuple_count == len(self.stored)

    def _remember(self) -> None:
        lsn = self.db.wal.current_lsn
        snapshot = (_images(self.db), self.db.table(TABLE).tuple_count)
        assert self.remembered.setdefault(lsn, snapshot) == snapshot

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    @precondition(lambda self: self.db.wal.current_lsn == 0)
    @rule(n=st.integers(0, 60), seed=seeds)
    def bulk_load(self, n: int, seed: int) -> None:
        rows = self._rows(n, seed)
        assert self.db.table(TABLE).bulk_load(rows) == n
        self.base.append(rows)
        self.remembered.pop(0, None)  # LSN 0 names the whole base, and it just grew
        self._wrote(rows)

    @rule(n=st.integers(1, 40), seed=seeds, remember=st.booleans())
    def insert(self, n: int, seed: int, remember: bool) -> None:
        if remember:  # the snapshot this insert is about to overwrite the tail of
            self._remember()
        rows = self._rows(n, seed)
        record = self.db.insert_rows(TABLE, rows)
        assert record.lsn == self.db.wal.current_lsn == len(self.db.wal)
        self._wrote(rows)

    # ------------------------------------------------------------------ #
    # snapshot reads
    # ------------------------------------------------------------------ #
    @rule()
    def remember(self) -> None:
        self._remember()

    @precondition(lambda self: self.remembered)
    @rule(data=st.data())
    def read_snapshot(self, data) -> None:
        lsn = data.draw(st.sampled_from(sorted(self.remembered)))
        images, count = self.remembered[lsn]
        table, pool = self.db.table(TABLE), self.db.buffer_pool
        assert _images(self.db, as_of_lsn=lsn) == images
        assert table.page_count_as_of(lsn) == len(images)
        assert table.tuple_count_as_of(lsn) == count
        assert list(table.scan_tuples(pool, as_of_lsn=lsn)) == self.stored[:count]
        if images:  # one page on its own, as a partitioned scan pulls it
            page_no = data.draw(st.integers(0, len(images) - 1))
            assert bytes(table.page_image_as_of(page_no, lsn, pool)) == images[page_no]
            assert dict(table.scan_pages(pool, [page_no], as_of_lsn=lsn)) == {
                page_no: images[page_no]
            }

    @rule(data=st.data())
    def newer_than(self, data) -> None:
        as_of = data.draw(st.integers(0, self.db.wal.current_lsn))
        watermark = data.draw(st.integers(0, as_of))
        table = self.db.table(TABLE)
        assert table.pages_newer_than(watermark, as_of) == [
            page_no
            for page_no in range(table.page_count_as_of(as_of))
            if table.page_lsn_as_of(page_no, as_of) > watermark
        ]

    # ------------------------------------------------------------------ #
    # crash + recovery
    # ------------------------------------------------------------------ #
    @rule()
    def crash_and_replay(self) -> None:
        """The log and the base survive; everything else is rebuilt — and
        the recovered database carries on as the live one."""
        live, log = self.db, self.db.wal
        fresh = self._empty()
        for rows in self.base:
            fresh.table(TABLE).bulk_load(rows)
        assert log.replay(fresh) == len(log)
        assert dict(fresh.table(TABLE).scan_pages(fresh.buffer_pool)) == dict(
            live.table(TABLE).scan_pages(live.buffer_pool)
        )
        assert fresh.table(TABLE).version_store_bytes == live.table(TABLE).version_store_bytes
        assert fresh.wal.current_lsn == log.current_lsn
        self.db = fresh

    # ------------------------------------------------------------------ #
    # what holds at the end of every run
    # ------------------------------------------------------------------ #
    def teardown(self) -> None:
        if not hasattr(self, "db"):
            return
        table = self.db.table(TABLE)
        assert list(table.scan_tuples(self.db.buffer_pool)) == self.stored
        # a version is a 24-byte header, one per record at most
        assert table.version_store_bytes <= 24 * len(self.db.wal)
        for lsn, (images, _count) in self.remembered.items():
            assert _images(self.db, as_of_lsn=lsn) == images


TestStorageMachine = StorageMachine.TestCase
TestStorageMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
