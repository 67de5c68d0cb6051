"""The storage write funnel: one validator, one packer, one fill loop.

``Schema.to_records`` is the only place a row batch is validated and
encoded, ``HeapPage.extend`` the only routine that places tuples in a
page buffer, and ``HeapFile._fill`` the only page-fill loop.  These
tests hold the funnel to an independent per-row reference built from
``encode_tuple`` + ``struct`` (the byte format the parent commit wrote
one tuple at a time), exercise every input check at the two write doors,
and pin the structure so a second routine cannot grow back.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import pathlib
import re
import struct
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.exceptions import PageFullError, RDBMSError, TransientError
from repro.rdbms import ColumnType, Database, HeapPage, PageLayout, Schema, encode_tuple
from repro.rdbms.heapfile import HeapFile
from repro.rdbms.types import _FLOAT4_OVERFLOW
from repro.rdbms.wal import WalRecord, WriteAheadLog
from repro.reliability import FaultPlan, RetryPolicy, inject_faults

PAGE_SIZE = 512
LAYOUT = PageLayout(page_size=PAGE_SIZE)
_PAGE_HEADER = struct.Struct("<QHHHHQ")
_LINE_POINTER = struct.Struct("<HH")

#: the ways a client can hand over the same batch.
FORMS = ("float64", "float32", "int64", "lists", "tuples")


# ---------------------------------------------------------------------- #
# the per-row reference: encode_tuple + struct, one tuple at a time
# ---------------------------------------------------------------------- #
class ReferencePage:
    """A slotted page filled tuple by tuple, sharing no code with HeapPage."""

    def __init__(self) -> None:
        self.buf = bytearray(PAGE_SIZE)
        self.free_start, self.free_end = _PAGE_HEADER.size, PAGE_SIZE
        self.count = self.lsn = 0

    def insert(self, schema: Schema, row) -> bool:
        raw = encode_tuple(schema, row)
        if self.free_end - self.free_start < _LINE_POINTER.size + len(raw):
            return False
        self.free_end -= len(raw)
        self.buf[self.free_end : self.free_end + len(raw)] = raw
        _LINE_POINTER.pack_into(self.buf, self.free_start, self.free_end, len(raw))
        self.free_start += _LINE_POINTER.size
        self.count += 1
        return True

    def image(self) -> bytes:
        _PAGE_HEADER.pack_into(
            self.buf, 0, PAGE_SIZE, self.free_start, self.free_end, PAGE_SIZE, self.count, self.lsn
        )
        return bytes(self.buf)


def reference_heap(schema: Schema, base, batches) -> list[bytes]:
    """Page images after a bulk load of ``base`` and one WAL apply per batch."""
    pages: list[ReferencePage] = []

    def fill(rows, lsn: int) -> None:
        rows = list(rows)
        if lsn and pages and rows and pages[-1].insert(schema, rows[0]):
            rows.pop(0)
            pages[-1].lsn = lsn
            while rows and pages[-1].insert(schema, rows[0]):
                rows.pop(0)
        while rows:
            pages.append(ReferencePage())
            pages[-1].lsn = lsn
            assert pages[-1].insert(schema, rows.pop(0))
            while rows and pages[-1].insert(schema, rows[0]):
                rows.pop(0)

    fill(base, 0)
    for lsn, batch in enumerate(batches, start=1):
        fill(batch, lsn)
    return [page.image() for page in pages]


# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #
@st.composite
def batches(draw, max_rows: int = 60):
    """``(schema, form, float64 matrix)`` whose every form encodes identically."""
    ctypes = draw(st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=6))
    schema = Schema.build([(f"c{i}", ctype) for i, ctype in enumerate(ctypes)])
    form = draw(st.sampled_from(FORMS))
    n_rows = draw(st.integers(0, max_rows))
    if form in ("float32", "int64"):
        # whole numbers every dtype and every column type holds exactly
        cell = st.integers(-(2**15), 2**15 - 1).map(float)
    else:
        # halves exercise round-half-to-even into the integer columns
        cell = st.integers(-(2**16) + 1, 2**16 - 2).map(lambda v: v / 2)
    rows = draw(
        st.lists(
            st.lists(cell, min_size=len(ctypes), max_size=len(ctypes)),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    return schema, form, np.array(rows, dtype=np.float64).reshape(n_rows, len(ctypes))


def as_form(matrix: np.ndarray, form: str):
    """``matrix`` the way a client of ``form`` would supply it."""
    if form == "lists":
        return matrix.tolist()
    if form == "tuples":
        return [tuple(row) for row in matrix.tolist()]
    return matrix.astype(form)


def reference_rows(matrix: np.ndarray, form: str) -> list[list]:
    """The Python values the per-row reference encodes for ``form``."""
    return (matrix.astype(np.int64) if form == "int64" else matrix).tolist()


# ---------------------------------------------------------------------- #
# (a) packer == per-row reference
# ---------------------------------------------------------------------- #
@settings(max_examples=150, deadline=None)
@given(batch=batches(), prefilled=st.integers(0, 12), lsn=st.one_of(st.none(), st.integers(1, 2**40)))
def test_packed_page_equals_per_row_reference(batch, prefilled, lsn):
    """Fresh or tail-filled, stamped or not, ``extend`` writes the bytes a
    tuple-at-a-time ``encode_tuple`` loop writes, and places as many."""
    schema, form, matrix = batch
    rows = reference_rows(matrix, form)
    reference = ReferencePage()
    prefilled = min(prefilled, len(rows))
    for row in rows[:prefilled]:
        if not reference.insert(schema, row):
            return  # a row wider than the page: covered by the door tests
    page = HeapPage.from_bytes(reference.image(), LAYOUT) if prefilled else HeapPage(LAYOUT)
    records = schema.to_records(as_form(matrix[prefilled:], form))
    assert records.dtype == schema.record_dtype
    assert records.tobytes() == b"".join(schema.encode_row(row) for row in rows[prefilled:])
    expected = 0
    for row in rows[prefilled:]:
        if not reference.insert(schema, row):
            break
        expected += 1
    if lsn is not None:
        reference.lsn = lsn
    if len(records) and not expected:
        with pytest.raises(PageFullError):
            page.extend(schema, records, lsn)
        return
    assert page.extend(schema, records, lsn) == expected
    assert page.to_bytes() == reference.image()
    assert page.tuple_count == prefilled + expected
    assert (page.lsn, page.free_space_start, page.free_space_end) == (
        reference.lsn, reference.free_start, reference.free_end
    )


@settings(max_examples=60, deadline=None)
@given(batch=batches(max_rows=120), cuts=st.lists(st.integers(0, 120), max_size=5))
def test_heap_equals_per_row_reference_across_split_points(batch, cuts):
    """``load_table`` + interleaved ``insert_rows`` + ``wal.replay`` build the
    heap the per-row loops built, wherever the batch is cut."""
    schema, form, matrix = batch
    if LAYOUT.tuples_per_page(schema) == 0:
        return
    bounds = sorted({min(cut, len(matrix)) for cut in cuts} | {0, len(matrix)})
    pieces = [matrix[lo:hi] for lo, hi in zip(bounds, bounds[1:])] or [matrix]
    base, inserts = pieces[0], [piece for piece in pieces[1:] if len(piece)]
    expected = reference_heap(
        schema, reference_rows(base, form), [reference_rows(piece, form) for piece in inserts]
    )

    def load() -> Database:
        db = Database(page_size=PAGE_SIZE)
        db.load_table("t", schema, as_form(base, form))
        return db

    live = load()
    for piece in inserts:
        live.insert_rows("t", as_form(piece, form))
    recovered = load()
    assert live.wal.replay(recovered) == len(inserts)
    for db in (live, recovered):
        images = [bytes(image) for _no, image in db.table("t").scan_pages(db.buffer_pool)]
        assert images == expected
        assert db.table("t").tuple_count == len(matrix)


def test_wal_recovery_workload_heaps_match_the_parent_commit():
    """The digests of ``tests/test_wal_recovery.py``'s workload — base load,
    every insert prefix, full replay — hashed on the per-row parent commit."""
    import test_wal_recovery as workload

    db = workload._fresh_db()
    digests = [workload._digest(db)]
    for batch in workload._workload():
        db.insert_rows(workload.TABLE, batch)
        digests.append(workload._digest(db))
    recovered = workload._fresh_db()
    db.wal.replay(recovered)
    digests.append(workload._digest(recovered))
    assert (
        hashlib.sha256("".join(digests).encode()).hexdigest()
        == "d3a8fdbf026a8f65e356de3e5fe82cce6cf9e01cf2aa41b272a8e4895693c25c"
    )


# ---------------------------------------------------------------------- #
# (b) every input check, through both doors
# ---------------------------------------------------------------------- #
MIXED = Schema.build(
    [("small", ColumnType.INT2), ("big", ColumnType.INT8), ("f", ColumnType.FLOAT4)]
)


def _load(schema: Schema, rows, page_size: int = PAGE_SIZE):
    db = Database(page_size=page_size)
    db.load_table("t", schema, rows)
    return db


def _insert(schema: Schema, rows, page_size: int = PAGE_SIZE):
    db = Database(page_size=page_size)
    db.create_table("t", schema)
    try:
        db.insert_rows("t", rows)
    except PageFullError:
        raise  # a fact about the table, found at apply time
    except Exception:
        # a batch the validator rejects reaches neither the log nor the heap
        assert (len(db.wal), db.table("t").page_count) == (0, 0)
        raise
    return db


DOORS = pytest.mark.parametrize("door", [_load, _insert], ids=["load_table", "insert_rows"])


@DOORS
@pytest.mark.parametrize(
    "rows",
    [
        np.zeros((2, 4)),                # too wide
        np.zeros((2, 2)),                # too narrow
        [[1, 2, 3, 4]],
        [[1, 2, 3], [4, 5]],             # ragged
        np.zeros(3),                     # 1-D array
        [1.0, 2.0, 3.0],                 # 1-D list
        [["a", "b", "c"]],               # not numeric
    ],
    ids=["wide", "narrow", "wide-list", "ragged", "1d-array", "1d-list", "text"],
)
def test_misshapen_batches_are_rejected(door, rows):
    with pytest.raises(RDBMSError):
        door(MIXED, rows)


@DOORS
@pytest.mark.parametrize(
    "row, error",
    [
        ([float("nan"), 0, 0.0], ValueError),        # NaN -> INT2
        ([0, float("inf"), 0.0], OverflowError),     # inf -> INT8
        ([2**15, 0, 0.0], struct.error),             # INT2 overflow
        ([-(2**15) - 1, 0, 0.0], struct.error),
        ([0, 2.0**63, 0.0], struct.error),           # INT8 overflow
        ([0, 0, 3.5e38], OverflowError),             # finite, too large for FLOAT4
        ([0, 0, -3.5e38], OverflowError),
    ],
    ids=["nan-int", "inf-int", "int2-hi", "int2-lo", "int8-hi", "float4-hi", "float4-lo"],
)
def test_out_of_range_values_raise_what_struct_raised(door, row, error):
    """NumPy would wrap or saturate these silently; the validator hands the
    first bad row to the ``struct`` reference so the error class is kept."""
    with pytest.raises(error):
        MIXED.encode_row(row)
    for rows in ([[1, 2, 3.0], row], np.array([[1, 2, 3.0], row])):
        with pytest.raises(error):
            door(MIXED, rows)


@DOORS
def test_int64_batches_are_range_checked_without_a_float_detour(door):
    with pytest.raises(struct.error):
        door(MIXED, np.array([[2**15, 0, 0]], dtype=np.int64))
    with pytest.raises(struct.error):
        door(MIXED, [[0, 0, 0], [2**15, 0, 0]])


@DOORS
def test_boundary_values_are_stored_exactly(door):
    """Range edges, FLOAT4 max / inf / NaN, half-to-even rounding, mixed
    int-and-float rows."""
    float4_max = float(np.finfo(np.float32).max)
    rows = [
        [2**15 - 1, 2**53, float4_max],
        [-(2**15), -(2**53), -float4_max],
        [2.5, 3.5, float("inf")],
        [-0.5, 1, float("nan")],
    ]
    db = door(MIXED, rows)
    stored = list(db.table("t").scan_tuples(db.buffer_pool))
    assert stored[:3] == [
        (2**15 - 1, 2**53, float4_max),
        (-(2**15), -(2**53), -float4_max),
        (2, 4, float("inf")),
    ]
    assert stored[3][:2] == (0, 1) and np.isnan(stored[3][2])
    images = [bytes(image) for _no, image in db.table("t").scan_pages(db.buffer_pool)]
    lsn = db.wal.current_lsn
    assert images == reference_heap(MIXED, [] if lsn else rows, [rows] if lsn else [])


def test_int8_is_exact_to_2_53_through_the_wal_and_to_the_full_range_in_bulk():
    """The WAL carries float64, so a logged INT8 is exact only up to 2**53
    (the limit its ``float`` rows always imposed); an all-integer bulk load
    bypasses floats and keeps the full 64-bit range."""
    schema = Schema.build([("k", ColumnType.INT8)])
    huge = 2**63 - 1
    bulk = _load(schema, [[huge], [-(2**63)], [2**53 + 1]])
    assert list(bulk.table("t").scan_tuples(bulk.buffer_pool)) == [
        (huge,), (-(2**63),), (2**53 + 1,)
    ]
    logged = _insert(schema, np.array([[2**53], [2**53 + 1]], dtype=np.int64))
    assert list(logged.table("t").scan_tuples(logged.buffer_pool)) == [(2**53,), (2**53,)]


def test_an_insert_the_log_could_not_replay_is_refused_before_it_is_logged():
    """``2**63 - 1`` fits INT8 as an integer but the log carries float64
    ``2**63``: what is validated must be what is logged.  The parent logged
    the record, failed the heap apply, and every later replay with it."""
    schema = Schema.build([("k", ColumnType.INT8)])
    db = _load(schema, [[1]])
    with pytest.raises(struct.error):  # what int8-hi raises for 2.0**63
        db.insert_rows("t", np.array([[2**63 - 1]], dtype=np.int64))
    assert (len(db.wal), db.wal.current_lsn) == (0, 0)
    assert list(db.table("t").scan_tuples(db.buffer_pool)) == [(1,)]
    db.insert_rows("t", np.array([[2**53], [-(2**63)]], dtype=np.int64))
    recovered = _load(schema, [[1]])
    assert db.wal.replay(recovered) == 1
    images = [bytes(i) for _n, i in db.table("t").scan_pages(db.buffer_pool)]
    assert images == [
        bytes(i) for _n, i in recovered.table("t").scan_pages(recovered.buffer_pool)
    ]
    assert images == reference_heap(schema, [[1]], [[[2**53], [-(2**63)]]])


def test_a_row_wider_than_a_page_raises_page_full_and_does_not_hang():
    schema = Schema.training_schema(PAGE_SIZE // 4)
    row = np.zeros((1, len(schema)))
    for door in (_load, _insert):
        with pytest.raises(PageFullError):
            door(schema, row)
    db = Database(page_size=PAGE_SIZE)
    table = db.create_table("t", schema)
    with pytest.raises(PageFullError):
        table.bulk_load(row)
    assert table.page_count == 0 and table.tuple_count == 0


def test_empty_batches():
    """An empty bulk load is a legal empty table; an empty insert is not."""
    for rows in ([], np.empty((0, 3)), iter(())):
        db = _load(MIXED, rows)
        assert db.table("t").tuple_count == 0 and db.table("t").page_count == 0
    for rows in ([], np.empty((0, 3))):
        with pytest.raises(RDBMSError, match="zero rows"):
            _insert(MIXED, rows)
    with pytest.raises(RDBMSError, match="empty"):
        WriteAheadLog().append("t", [])
    db = _load(MIXED, [])
    assert db.table("t").append_rows(np.empty((0, 3)), lsn=1) == 0


def test_bulk_load_accepts_a_one_shot_iterator():
    rows = [[1, 2, 3.0], [4, 5, 6.0]]
    db = _load(MIXED, (row for row in rows))
    assert list(db.table("t").scan_tuples(db.buffer_pool)) == [(1, 2, 3.0), (4, 5, 6.0)]


# ---------------------------------------------------------------------- #
# (b') the fast paths against the paths they shortcut
# ---------------------------------------------------------------------- #
def _per_column(schema: Schema) -> Schema:
    """An equal schema whose ``to_records`` takes the per-column path."""
    reference = Schema(schema.columns)
    reference.__dict__["_flat_dtype"] = None  # what a mixed schema caches
    return reference


_EDGE = np.nextafter(_FLOAT4_OVERFLOW, 0.0)  # the largest value FLOAT4 still rounds down
_FLOAT_ROWS = np.array(
    [
        [0.0, -0.0, 1.5],
        [np.nan, np.inf, -np.inf],
        [_EDGE, -_EDGE, float(np.finfo(np.float32).max)],
        [1e-46, -1e-46, 2.0**-149],  # rounds to zero / the smallest subnormal
        [1 / 3, 2**24 + 1, -(2**53) - 1.0],
    ]
)


@pytest.mark.parametrize("ctype", [ColumnType.FLOAT4, ColumnType.FLOAT8], ids=["float4", "float8"])
@pytest.mark.parametrize("form", FORMS + ("fortran",))
def test_flat_float_encode_equals_the_per_column_encode(ctype, form):
    schema = Schema.build([(f"c{i}", ctype) for i in range(3)])
    assert schema._flat_dtype is not None
    reference = _per_column(schema)
    matrix = _FLOAT_ROWS
    if form in ("float32", "int64"):
        matrix = np.array([[0, -1, 2], [2**24 + 1, -(2**31), 7]], dtype=np.float64)
    batch = np.asfortranarray(matrix) if form == "fortran" else as_form(matrix, form)
    for rows in (batch, batch[:0], batch[:1]):
        records = schema.to_records(rows)
        assert records.dtype == schema.record_dtype and records.shape == (len(rows),)
        assert records.tobytes() == reference.to_records(rows).tobytes()
        if form not in ("float32", "int64"):
            assert records.tobytes() == b"".join(
                schema.encode_row(row) for row in matrix[: len(rows)].tolist()
            )
    if isinstance(batch, np.ndarray):  # the records never alias the caller's buffer
        assert not np.shares_memory(schema.to_records(batch), batch)


@pytest.mark.parametrize("value", [_FLOAT4_OVERFLOW, -_FLOAT4_OVERFLOW, 1e39, -1.7e308])
def test_flat_float_encode_rejects_what_the_per_column_encode_rejects(value):
    schema = Schema.training_schema(2)
    matrix = np.ones((5, 3))
    matrix[3, 1] = matrix[4, 0] = value  # row 3 is the first bad one
    errors = []
    for door in (schema, _per_column(schema)):
        with pytest.raises(OverflowError) as caught:
            door.to_records(matrix)
        errors.append((caught.type, str(caught.value)))
    assert errors[0] == errors[1]
    with pytest.raises(OverflowError) as caught:
        schema.encode_row(matrix[3].tolist())
    assert errors[0] == (caught.type, str(caught.value))
    # FLOAT8 holds every double: nothing to reject on either path
    wide = Schema.training_schema(2, ColumnType.FLOAT8)
    assert wide.to_records(matrix).tobytes() == _per_column(wide).to_records(matrix).tobytes()


@pytest.mark.chaos
@pytest.mark.parametrize("use_striders", (True, False), ids=["striders", "cpu-decode"])
@pytest.mark.parametrize("retry", (None, RetryPolicy(max_attempts=3, backoff_s=0.0)), ids=["no-retry", "retry"])
@pytest.mark.parametrize("over", (0, 1), ids=["one-wave", "one-page-over"])
def test_a_one_wave_scan_is_extracted_inline_and_equals_the_materialised_one(
    over, retry, use_striders
):
    """``AccessEngine.open(stream=True)`` on a page list inside one wave
    starts no producer (unless a retry policy wants a restartable one); a
    list one page longer does.  Rows, per-page sizes and counters equal the
    ``stream=False`` extraction either way, and a producer fault reaches
    exactly the runs that have a producer."""
    import test_hw_wave_walk as waves

    db = waves._database(waves.DENSE, 430, inserts=1)
    images = waves._images(db)
    striders = len(images) - over

    def opened(**how):
        engine = waves._engine(db, waves.DENSE, striders, filtered=True)
        return engine, engine.open(iter(images), use_striders=use_striders, **how)

    want_engine, want = opened(stream=False)
    inline = retry is None and not over
    engine, source = opened(stream=True, retry=retry)
    assert source.materialised is inline
    np.testing.assert_array_equal(source.rows(), want.rows())
    assert source.sizes == want.sizes and engine.stats == want_engine.stats
    assert (engine.stats.pages_processed == len(images)) is use_striders

    fault = FaultPlan.transient(("runtime.batch_source.producer", 2))
    with inject_faults(fault) as injector:
        engine, source = opened(stream=True, retry=retry)
        if retry is None and not inline:
            with pytest.raises(TransientError):
                source.rows()
            return
        rows = source.rows()
    assert len(injector.fired) == (0 if inline else 1)
    assert source.retry_stats.retries == (0 if inline else 1)
    np.testing.assert_array_equal(rows, want.rows())
    assert source.sizes == want.sizes and engine.stats == want_engine.stats


# ---------------------------------------------------------------------- #
# (c) the log owns its rows
# ---------------------------------------------------------------------- #
def test_wal_record_is_a_private_read_only_float64_matrix():
    schema = Schema.training_schema(2)
    db = _load(schema, np.ones((3, 3)))
    batch = np.arange(12, dtype=np.float32).reshape(4, 3)
    record = db.insert_rows("t", batch)
    assert isinstance(record, WalRecord)
    assert record.rows.dtype == np.float64 and record.rows.shape == (4, 3)
    assert not record.rows.flags.writeable
    with pytest.raises(ValueError):
        record.rows[0, 0] = 99.0
    before = [bytes(image) for _no, image in db.table("t").scan_pages(db.buffer_pool)]
    batch[:] = -1.0  # the caller reuses its buffer
    np.testing.assert_array_equal(record.rows, np.arange(12).reshape(4, 3))
    assert [bytes(i) for _n, i in db.table("t").scan_pages(db.buffer_pool)] == before
    recovered = _load(schema, np.ones((3, 3)))
    db.wal.replay(recovered)
    assert [bytes(i) for _n, i in recovered.table("t").scan_pages(recovered.buffer_pool)] == before
    # records are identified by LSN, not compared by value
    assert record == record and record != db.wal.append("t", batch)


def test_the_log_is_schema_free():
    """``wal.append`` takes a plain list of tuples with no schema in reach;
    the heap apply converts the float64 matrix to records."""
    db = _load(Schema.lrmf_schema(), [])
    record = db.wal.append("t", [(1, 2, 0.5), (3, 4, 1.5)])
    assert record.rows.tolist() == [[1.0, 2.0, 0.5], [3.0, 4.0, 1.5]]
    db.apply_wal_record(record)
    assert list(db.table("t").scan_tuples(db.buffer_pool)) == [(1, 2, 0.5), (3, 4, 1.5)]


# ---------------------------------------------------------------------- #
# (d) structural pin
# ---------------------------------------------------------------------- #
def test_one_funnel_and_nothing_routes_around_it():
    """One routine slices tuple bytes into a page buffer, one bulk-load door,
    and no write door walks its rows in Python."""
    root = pathlib.Path(repro.__file__).parent
    sources = {path: path.read_text() for path in root.rglob("*.py")}
    # the page buffer is written by extend (tuples, pointers), the header
    # writer and nothing else in src/
    writers = {
        str(path.relative_to(root)): len(re.findall(r"self\._buf\[[^\]]*\]\s*=", text))
        for path, text in sources.items()
        if re.search(r"\._buf\[[^\]]*\]\s*=", text)
    }
    assert writers == {"rdbms/page.py": 3}
    assert len(re.findall(r"self\._buf\[", inspect.getsource(HeapPage.extend))) == 2
    assert "_buf" not in inspect.getsource(HeapPage.insert)
    callers = sorted(
        str(path.relative_to(root))
        for path, text in sources.items()
        if re.search(r"\.extend\(\s*(self\.)?schema\b", text)
    )
    assert callers == ["rdbms/heapfile.py", "rdbms/page.py"]
    everything = "\n".join(sources.values())
    assert not re.search(r"\bbulk_load_array\b", everything)
    assert len(re.findall(r"\.to_records\(", sources[root / "rdbms" / "heapfile.py"])) == 2
    assert inspect.getsource(HeapFile).count("HeapPage(self.layout)") == 1  # one fill loop
    for door in (
        HeapFile.bulk_load,
        HeapFile.append_rows,
        Database.load_table,
        Database.insert_rows,
        WriteAheadLog.append,
    ):
        source = inspect.getsource(door)
        tree = ast.parse(textwrap.dedent(source))
        loops = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.For, ast.While, ast.comprehension))
        ]
        assert not loops, door.__qualname__
        assert ".tolist(" not in source and "isinstance" not in source, door.__qualname__
