"""Growth gate: sustained inserts must cost the version store a header each.

ROADMAP's probe — a 1 024-row table on 8 KiB pages, then 8 000 live
``insert_rows`` of 16 rows, no reader registered anywhere — left 249 MiB of
full-page pre-images behind when a version was a page image.  A version is
now the 24-byte header the tail page carried, so the store is bounded by
the number of records, and every past LSN must still read back bit for bit.
The byte count repeats exactly from run to run: it is asserted, not timed.
"""

from __future__ import annotations

import numpy as np

from repro.rdbms import Database, Schema

PAGE_SIZE = 8 * 1024
TABLE = "t"
BASE_ROWS, INSERTS, ROWS_PER_INSERT = 1_024, 8_000, 16
SCHEMA = Schema.training_schema(16)


def _loaded(base: np.ndarray) -> Database:
    db = Database(page_size=PAGE_SIZE)
    db.load_table(TABLE, SCHEMA, base)
    return db


def _pages(db: Database, as_of_lsn: int | None = None) -> dict[int, bytes]:
    return dict(db.table(TABLE).scan_pages(db.buffer_pool, as_of_lsn=as_of_lsn))


def test_the_version_store_grows_by_a_header_per_insert_and_every_lsn_reads_back():
    rng = np.random.default_rng(23)
    base = rng.normal(size=(BASE_ROWS, len(SCHEMA)))
    batches = rng.normal(size=(INSERTS, ROWS_PER_INSERT, len(SCHEMA)))
    live = _loaded(base)
    for batch in batches:
        live.insert_rows(TABLE, batch)
    table = live.table(TABLE)
    assert live.wal.current_lsn == INSERTS
    assert table.tuple_count == BASE_ROWS + INSERTS * ROWS_PER_INSERT

    # 8 KiB per insert at the parent (249 MiB here); now one header at most
    assert 0 < table.version_store_bytes <= 24 * INSERTS
    assert table.version_store_bytes < table.size_bytes // 50

    # every 500th LSN, against a frozen copy replayed to exactly that LSN
    oracle = _loaded(base)
    for record in live.wal.records():
        oracle.apply_wal_record(record)
        if record.lsn % 500 == 0:
            assert _pages(live, as_of_lsn=record.lsn) == _pages(oracle), record.lsn
            assert table.tuple_count_as_of(record.lsn) == oracle.table(TABLE).tuple_count
    assert _pages(live) == _pages(oracle)
    assert oracle.table(TABLE).version_store_bytes == table.version_store_bytes

    # the refresh scan set of the last 16 LSNs: bisection == brute force
    for as_of in range(INSERTS - 15, INSERTS + 1):
        stamps = [
            table.page_lsn_as_of(page_no, as_of)
            for page_no in range(table.page_count_as_of(as_of))
        ]
        assert stamps == sorted(stamps)  # the suffix invariant itself
        for watermark in (0, as_of - 40, as_of - 16, as_of - 1, as_of):
            assert table.pages_newer_than(watermark, as_of) == [
                page_no for page_no, stamp in enumerate(stamps) if stamp > watermark
            ], (watermark, as_of)
