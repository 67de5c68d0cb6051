"""The one-call snapshot read is the per-page as-of read, page by page.

``HeapFile.images_as_of`` reads a partition's as-of images under one hold
of the table's mutate lock; ``page_image_as_of`` and
``scan_pages(as_of_lsn=...)`` are thin uses of it.  This property pins it
to an oracle that shares none of its code — the *live* page images taken
right after every write, the keep-every-image version store — over random
bulk loads, live inserts, as-of LSNs, page subsets (repeats and any order
included) and buffer pools smaller than the table, and pins an
out-of-range page to the same error wherever it sits in the subset.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import RDBMSError
from repro.rdbms import Database, Schema

PAGE_SIZE = 1024
SCHEMA = Schema.training_schema(3)


def _live_images(db: Database) -> list[bytes]:
    return [bytes(image) for _no, image in db.table("t").scan_pages(db.buffer_pool)]


@settings(max_examples=60, deadline=None)
@given(
    bulk=st.integers(0, 120),
    inserts=st.lists(st.integers(1, 40), max_size=6),
    pool_pages=st.sampled_from([1, 3, 64]),
    data=st.data(),
)
def test_partition_read_is_page_image_as_of_page_by_page(bulk, inserts, pool_pages, data):
    db = Database(page_size=PAGE_SIZE, buffer_pool_bytes=pool_pages * PAGE_SIZE)
    db.create_table("t", SCHEMA)
    table, pool = db.table("t"), db.buffer_pool
    rng = np.random.default_rng(bulk)
    table.bulk_load(rng.normal(size=(bulk, len(SCHEMA))))
    remembered = {0: _live_images(db)}
    for n in inserts:
        db.insert_rows("t", rng.normal(size=(n, len(SCHEMA))))
        remembered[db.wal.current_lsn] = _live_images(db)

    as_of = data.draw(st.sampled_from(sorted(remembered)), label="as_of")
    images = remembered[as_of]
    subset = data.draw(
        st.lists(st.integers(0, len(images) - 1), max_size=12) if images else st.just([]),
        label="subset",
    )
    got = table.images_as_of(pool, subset, as_of)
    assert [bytes(image) for image in got] == [images[no] for no in subset]
    assert got == [table.page_image_as_of(no, as_of, pool) for no in subset]
    assert dict(table.scan_pages(pool, subset, as_of_lsn=as_of)) == {
        no: images[no] for no in subset
    }
    assert [bytes(image) for image in table.images_as_of(pool, None, as_of)] == images

    bad = data.draw(st.sampled_from([-1, len(images), len(images) + 5]), label="bad")
    at = data.draw(st.integers(0, len(subset)), label="at")
    with_bad = subset[:at] + [bad] + subset[at:]
    message = f"page {bad} is out of range for table 't' ({len(images)} pages)"
    with pytest.raises(RDBMSError) as whole:
        table.images_as_of(pool, with_bad, as_of)
    with pytest.raises(RDBMSError) as single:
        table.page_image_as_of(bad, as_of, pool)
    with pytest.raises(RDBMSError) as scanned:
        list(table.scan_pages(pool, with_bad, as_of_lsn=as_of))
    assert str(whole.value) == str(single.value) == str(scanned.value) == message
