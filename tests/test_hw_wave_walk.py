"""Wave walk == per-page bulk walk == instruction interpreter.

The access engine executes a wave of ``num_striders`` page buffers with one
vectorised :meth:`Strider.walk_wave` and hands the wave over as one
:class:`BatchSource` item.  These tests pin that to the two per-page
references it replaced on the hot path — ``process_page_bulk`` +
``decode_many`` (what the parent commit ran, page by page) and the
instruction interpreter — for tuples, per-page ``sizes``, batch
boundaries and every schedule-derived counter, over mixed waves.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.strider_compiler import compile_strider
from repro.exceptions import HardwareError, StriderError
from repro.hw import DEFAULT_FPGA, AccessEngine, AccessEngineConfig, AccessEngineStats
from repro.hw.strider import Strider, StriderResult, walk_costs
from repro.rdbms import Database, Schema
from repro.rdbms.heaptuple import tuple_size
from repro.rdbms.predicate import ColumnPredicate, Comparison
from repro.reliability import FaultPlan, RetryPolicy, inject_faults
from repro.runtime import SharedPageStore

PAGE_SIZE = 2048
DENSE = Schema.training_schema(6)
LRMF = Schema.lrmf_schema()
#: keeps roughly half the tuples of either schema's first column
WHERE = {DENSE: Comparison("x0", ">", 0.0), LRMF: Comparison("row", "<", 16)}


def _rows(schema, n, seed):
    rng = np.random.default_rng(seed)
    if schema is LRMF:
        return np.column_stack(
            [rng.integers(0, 32, n), rng.integers(0, 32, n), rng.normal(size=n)]
        )
    return rng.normal(size=(n, len(schema)))


def _database(schema, n_rows, inserts=0, seed=0):
    """A bulk-loaded table, its tail then grown by 16-row live inserts."""
    db = Database(page_size=PAGE_SIZE)
    db.load_table("t", schema, _rows(schema, n_rows, seed))
    for i in range(inserts):
        db.insert_rows("t", _rows(schema, 16, seed + 1 + i))
    return db


def _images(db, as_of_lsn=None):
    return [
        image
        for _no, image in db.table("t").scan_pages(db.buffer_pool, as_of_lsn=as_of_lsn)
    ]


def _engine(db, schema, num_striders, filtered=False):
    predicate = ColumnPredicate.compile(schema, [WHERE[schema]]) if filtered else None
    return AccessEngine(
        AccessEngineConfig(num_striders=num_striders, page_size=PAGE_SIZE),
        compile_strider(db.layout, schema).program,
        schema,
        DEFAULT_FPGA,
        predicate=predicate,
        layout=db.layout,
    )


def _per_page_reference(engine, images, walk, stats=None):
    """What the parent commit executed: each page walked alone by ``walk``,
    booked in waves (into ``stats``), decoded and filtered page by page."""
    strider = Strider(engine.program, read_width_bytes=engine.config.read_width_bytes)
    stats = AccessEngineStats() if stats is None else stats
    chunks, per_page = [], []
    for start in range(0, len(images), engine.config.num_striders):
        wave = images[start : start + engine.config.num_striders]
        results = [walk(strider, image) for image in wave]
        stats.merge_batch(results, PAGE_SIZE, engine.fpga.axi_bytes_per_cycle)
        for result in results:
            chunk = engine.decoder.decode_many(result.payloads)
            if engine.predicate is not None:
                chunk = chunk[engine.predicate.mask(chunk)]
            chunks.append(chunk)
            per_page.append(result.stats)
    return chunks, stats, per_page


def _assert_three_way(db, schema, images, num_striders, filtered, cpu_decodable=True):
    """Every seam cell over ``images`` equals both per-page references."""
    probe = _engine(db, schema, num_striders, filtered)
    chunks, stats, per_page = _per_page_reference(probe, images, Strider.process_page)
    bulk = _per_page_reference(probe, images, Strider.process_page_bulk)
    assert [c.tolist() for c in bulk[0]] == [c.tolist() for c in chunks]
    assert bulk[1:] == (stats, per_page)
    rows = np.vstack(chunks)
    sizes = [len(chunk) for chunk in chunks]
    # the wave walk's own per-page counters: the references', where it proved the page
    width = schema.row_width
    strider = Strider(probe.program, read_width_bytes=probe.config.read_width_bytes)
    for start in range(0, len(images), num_striders):
        wave = images[start : start + num_striders]
        pages = np.frombuffer(b"".join(wave), dtype=np.uint8).reshape(len(wave), -1)
        payloads, proven = strider.walk_wave(pages, width)
        want = per_page[start : start + num_striders]
        assert [got in (None, ref) for got, ref in zip(proven, want)] == [True] * len(wave)
        assert len(payloads) == sum(s.tuples_emitted for s in proven if s is not None)
    cells = [(True, True, True), (True, True, False), (True, False, True)]
    if cpu_decodable:
        cells += [(False, True, True), (False, False, True)]
    for use_striders, stream, use_bulk_walk in cells:
        engine = _engine(db, schema, num_striders, filtered)
        engine.use_bulk_walk = use_bulk_walk
        source = engine.open(iter(images), use_striders=use_striders, stream=stream)
        for batch_size in (16, 256):
            batches = list(source.batches(batch_size))
            want = [rows[s : s + batch_size] for s in range(0, len(rows), batch_size)]
            assert len(batches) == len(want)
            for got, expected in zip(batches, want):
                np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(source.rows(), rows)
        assert source.sizes == sizes
        assert all(type(size) is int for size in source.sizes)
        assert engine.stats == (stats if use_striders else AccessEngineStats())
        per_page_rows = list(
            engine.process_pages(images) if use_striders else engine.cpu_decode_pages(images)
        )
        assert [c.tolist() for c in per_page_rows] == [c.tolist() for c in chunks]
    # EXPLAIN's price is what the unfiltered walk of well-formed pages books
    if cpu_decodable:
        counts = [s.tuples_emitted for s in per_page]
        assert probe.partition_cost(counts) == stats
        assert probe.partition_cost(counts, use_striders=False) == AccessEngineStats()


def _permute_pointers(image, layout, seed):
    """The same page with its line-pointer array shuffled (slot order changes)."""
    page = bytearray(image)
    (free_start,) = struct.unpack_from("<H", page, layout.free_start_offset)
    start = layout.line_pointer_start
    pointers = np.frombuffer(bytes(page[start:free_start]), dtype="<u4")
    shuffled = np.random.default_rng(seed).permutation(pointers)
    page[start:free_start] = shuffled.astype("<u4").tobytes()
    return bytes(page)


def _set_free_start(image, layout, value):
    page = bytearray(image)
    struct.pack_into("<H", page, layout.free_start_offset, value)
    return bytes(page)


# ---------------------------------------------------------------------- #
# the parity grid
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("filtered", (False, True), ids=("all", "where"))
@pytest.mark.parametrize("schema", (DENSE, LRMF), ids=("dense", "lrmf-mixed"))
@pytest.mark.parametrize("num_striders", (1, 4, 64))
def test_bulk_loaded_and_grown_tables(schema, num_striders, filtered):
    """Full pages, a short tail, tails grown by 16-row inserts, a last wave
    shorter than ``num_striders`` and an as-of scan of the pre-images."""
    db = _database(schema, 330, inserts=5, seed=3)
    images = _images(db)
    assert len(images) % 4 and len({img[8:10] for img in images}) >= 2
    _assert_three_way(db, schema, images, num_striders, filtered)
    pre_images = _images(db, as_of_lsn=2)
    assert pre_images != images[: len(pre_images)] or len(pre_images) < len(images)
    _assert_three_way(db, schema, pre_images, num_striders, filtered)


def test_a_wave_prices_its_walk_once_per_distinct_tuple_count():
    """Equal-count pages share one counters object, equal to their own
    per-page price: a bulk-loaded wave builds two, not one per page."""
    db = _database(DENSE, 330, inserts=2, seed=3)
    images = _images(db)
    engine = _engine(db, DENSE, 64)
    strider = engine._striders[0]
    pages = np.frombuffer(b"".join(images), dtype=np.uint8).reshape(len(images), -1)
    _payloads, proven = strider.walk_wave(pages, DENSE.row_width)
    counts = [stats.tuples_emitted for stats in proven]
    assert len(images) > len(set(counts)) >= 2
    assert len({id(stats) for stats in proven}) == len(set(counts))
    width = tuple_size(DENSE)
    assert proven == strider.walk_cost(width, counts)
    # ... and booking a wave of shared entries is booking a wave of copies
    shared, copied = AccessEngineStats(), AccessEngineStats()
    shared.merge_batch(
        [StriderResult(stats=s) for s in proven], PAGE_SIZE, DEFAULT_FPGA.axi_bytes_per_cycle
    )
    copied.merge_batch(
        [StriderResult(stats=s) for s in strider.walk_cost(width, counts)],
        PAGE_SIZE,
        DEFAULT_FPGA.axi_bytes_per_cycle,
    )
    assert shared == copied


@pytest.mark.parametrize("num_striders", (2, 5, 64))
@pytest.mark.parametrize("filtered", (False, True), ids=("all", "where"))
@pytest.mark.parametrize("permuted", (False, True), ids=("slice", "gather"))
def test_equal_count_pages_that_are_not_consecutive(permuted, filtered, num_striders):
    """``[full, empty, full, tail, full]``: the three full pages are one
    tuple-count group that is not a run of pages, so its pointers and
    packed tuples are read by gathering rows of the wave — or, with one
    page's pointers shuffled, the whole group is lifted by the per-tuple
    gather.  Either way the wave equals both per-page references."""
    db = Database(page_size=PAGE_SIZE)
    per_page = db.layout.tuples_per_page(DENSE)
    db.load_table("t", DENSE, _rows(DENSE, 3 * per_page + 5, seed=4))
    full_0, full_1, full_2, tail = _images(db)
    empty = _set_free_start(full_1, db.layout, db.layout.line_pointer_start)
    if permuted:
        full_1 = _permute_pointers(full_1, db.layout, seed=5)
    wave = [full_0, empty, full_1, tail, full_2]
    engine = _engine(db, DENSE, 5)
    pages = np.frombuffer(b"".join(wave), dtype=np.uint8).reshape(len(wave), -1)
    _payloads, proven = engine._striders[0].walk_wave(pages, DENSE.row_width)
    assert proven[1] is None
    assert proven[0] is proven[2] is proven[4]
    assert proven[0].tuples_emitted == per_page and proven[3].tuples_emitted == 5
    _assert_three_way(db, DENSE, wave, num_striders, filtered, cpu_decodable=False)


def test_a_fresh_accelerator_prices_from_the_programs_cache(monkeypatch):
    """Walk prices live on the Strider program: a second access engine over
    the same program prices every count it meets from the cache, and each
    cached entry is :meth:`Strider.walk_cost` of one page of that count."""
    db = _database(DENSE, 330, inserts=3, seed=3)
    images = _images(db)
    program = compile_strider(db.layout, DENSE).program

    def engine():
        return AccessEngine(
            AccessEngineConfig(num_striders=4, page_size=PAGE_SIZE),
            program,
            DENSE,
            DEFAULT_FPGA,
        )

    first = engine()
    want = first.open(images, stream=False).rows()
    cache = walk_costs(program)
    counts = {stats.tuples_emitted for stats in cache.values()}
    assert len(counts) >= 2
    priced = []
    walk_cost = Strider.walk_cost
    monkeypatch.setattr(
        Strider, "walk_cost", lambda self, *args: priced.append(args) or walk_cost(self, *args)
    )
    second = engine()
    np.testing.assert_array_equal(second.open(images, stream=False).rows(), want)
    assert priced == [] and second.stats == first.stats
    pages = np.frombuffer(b"".join(images), dtype=np.uint8).reshape(len(images), -1)
    _payloads, proven = second._striders[0].walk_wave(pages, DENSE.row_width)
    assert priced == []
    assert all(any(stats is cached for cached in cache.values()) for stats in proven)
    monkeypatch.undo()
    strider = Strider(program)
    for (read_width, tuple_bytes, count), cost in cache.items():
        assert (read_width, tuple_bytes) == (strider.read_width_bytes, tuple_size(DENSE))
        assert cost == strider.walk_cost(tuple_bytes, [count])[0]


@pytest.mark.parametrize("filtered", (False, True), ids=("all", "where"))
def test_permuted_line_pointers_take_the_gather(filtered):
    db = _database(DENSE, 200)
    images = _images(db)
    images[1] = _permute_pointers(images[1], db.layout, seed=1)
    images[-1] = _permute_pointers(images[-1], db.layout, seed=2)
    engine = _engine(db, DENSE, 4)
    shuffled = engine.extract_table(images)
    assert not np.array_equal(shuffled, engine.extract_table(_images(db)))
    _assert_three_way(db, DENSE, images, 4, filtered)


def test_an_odd_page_inside_a_fast_wave_falls_back_alone(monkeypatch):
    """A zero-length pointer array is the interpreter's business (it emits
    the first tuple); the other pages of the wave stay on the wave walk."""
    db = _database(DENSE, 200)
    images = _images(db)
    images[2] = _set_free_start(images[2], db.layout, db.layout.line_pointer_start)
    walked_alone = []
    bulk = Strider.process_page_bulk
    monkeypatch.setattr(
        Strider,
        "process_page_bulk",
        lambda self, image: walked_alone.append(image) or bulk(self, image),
    )
    engine = _engine(db, DENSE, 64)
    source = engine.open(images, stream=False)
    assert walked_alone == [images[2]]
    assert source.sizes[2] == 1
    monkeypatch.undo()
    _assert_three_way(db, DENSE, images, 64, filtered=True, cpu_decodable=False)
    _assert_three_way(db, DENSE, images, 3, filtered=False, cpu_decodable=False)


def _error_of(call):
    with pytest.raises((HardwareError, StriderError)) as caught:
        call()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("stream", (True, False))
@pytest.mark.parametrize(
    "corrupt",
    (
        # misaligned pointer array: one more pass over a zeroed pointer
        lambda image, layout: _set_free_start(
            image, layout, struct.unpack_from("<H", image, layout.free_start_offset)[0] + 2
        ),
        # a pointer past the end of the page
        lambda image, layout: image[: layout.line_pointer_start]
        + struct.pack("<HH", PAGE_SIZE - 4, tuple_size(DENSE))
        + image[layout.line_pointer_start + 4 :],
        # a tuple longer than the schema's
        lambda image, layout: image[: layout.line_pointer_start + 6]
        + struct.pack("<H", tuple_size(DENSE) + 4)
        + image[layout.line_pointer_start + 8 :],
        # a wrong-sized image
        lambda image, layout: image[:-1],
    ),
    ids=("misaligned-free-start", "pointer-out-of-page", "long-tuple", "short-image"),
)
def test_a_bad_page_raises_what_the_per_page_walk_raised(corrupt, stream):
    db = _database(DENSE, 200)
    images = _images(db)
    images[1] = corrupt(images[1], db.layout)
    probe = _engine(db, DENSE, 4)
    booked = AccessEngineStats()

    def reference():
        for image in images:
            if len(image) != PAGE_SIZE:
                raise HardwareError(
                    f"page image is {len(image)} bytes, expected {PAGE_SIZE}"
                )
        _per_page_reference(probe, images, Strider.process_page_bulk, booked)

    engine = _engine(db, DENSE, 4)
    assert _error_of(lambda: engine.open(images, stream=stream).rows()) == _error_of(
        reference
    )
    assert engine.stats == booked  # a wave whose decode fails was walked and booked


def test_a_schema_narrower_than_the_pages_fails_in_the_decoder():
    db = _database(DENSE, 120)
    images = _images(db)
    narrow = Schema.training_schema(5)
    engine = AccessEngine(
        AccessEngineConfig(num_striders=4, page_size=PAGE_SIZE),
        compile_strider(db.layout, DENSE).program,
        narrow,
        DEFAULT_FPGA,
    )
    with pytest.raises(HardwareError, match="payload is 28 bytes but the schema expects 24"):
        engine.open(images, stream=False)


def test_shared_store_memoryviews_walk_like_bytes():
    db = _database(LRMF, 500, inserts=2)
    images = _images(db)
    store = SharedPageStore.from_heapfile(db.table("t"), db.buffer_pool)
    try:
        views = [view for _no, view in store.scan_pages()]
        assert all(isinstance(view, memoryview) for view in views)
        for stream in (True, False):
            shared, private = _engine(db, LRMF, 4, True), _engine(db, LRMF, 4, True)
            got = shared.open(views, stream=stream)
            want = private.open(images, stream=stream)
            np.testing.assert_array_equal(got.rows(), want.rows())
            assert got.sizes == want.sizes and shared.stats == private.stats
    finally:
        store.close()
        store.unlink()


# ---------------------------------------------------------------------- #
# WHERE per wave, sizes per page
# ---------------------------------------------------------------------- #
def test_a_page_and_a_wave_with_no_qualifying_tuple():
    db = Database(page_size=PAGE_SIZE)
    per_page = db.layout.tuples_per_page(DENSE)
    rows = np.ones((per_page * 6 + 5, len(DENSE)))
    rows[per_page : 2 * per_page, 0] = -1.0  # page 1 keeps nothing
    rows[4 * per_page :, 0] = -1.0  # neither does the second wave (pages 4..6)
    db.load_table("t", DENSE, rows)
    images = _images(db)
    assert len(images) == 7
    for use_striders in (True, False):
        for stream in (True, False):
            engine = _engine(db, DENSE, 4, filtered=True)
            source = engine.open(images, use_striders=use_striders, stream=stream)
            assert source.has_rows()
            assert [len(batch) for batch in source.batches(per_page)] == [per_page] * 3
            assert source.sizes == [per_page, 0, per_page, per_page, 0, 0, 0]
            assert len(source.rows()) == 3 * per_page
    nothing = np.full((per_page + 1, len(DENSE)), -1.0)
    empty = Database(page_size=PAGE_SIZE)
    empty.load_table("t", DENSE, nothing)
    source = _engine(empty, DENSE, 4, filtered=True).open(_images(empty))
    assert not source.has_rows() and source.sizes == [0, 0]
    assert source.rows().shape == (0, len(DENSE))


def test_reassemble_scatters_a_multi_segment_filtered_scan():
    """Per-page post-WHERE sizes are what puts a filtered, round-robin
    partitioned scan back into storage order."""
    from repro.algorithms import Hyperparameters
    from repro.core import DAnA, ScorePlan

    data = _rows(DENSE, 600, seed=11)
    db = Database(page_size=PAGE_SIZE)
    system = DAnA(db)
    registered = system.register_algorithm_udf(
        "linear", "linear", 6, Hyperparameters(merge_coefficient=8, epochs=1), epochs=1
    )
    db.load_table("t", registered.spec.schema, data)
    system.save_model("m", "linear", {"mo": np.arange(1.0, 7.0)})
    everything = system.score_table("linear", "t", model_name="m", stream=False)
    kept = data[:, 0].astype(np.float32).astype(np.float64) > 0.0
    for threshold, mask in ((0.0, kept), (99.0, np.zeros(len(data), dtype=bool))):
        result = db.execute(f"SELECT dana.predict('m') FROM t WHERE x0 > {threshold}")
        got = np.array([row[0] for row in result.rows])
        np.testing.assert_array_equal(got, everything.predictions[mask])
    where = ColumnPredicate.compile(registered.spec.schema, [WHERE[DENSE]])
    for stream in (True, False):
        plan = ScorePlan.resolve(
            registered, "t", where=where, segments=3, stream=stream, batch_size=32
        )
        result = system._score(plan, system.load_model("m"))
        np.testing.assert_array_equal(result.predictions, everything.predictions[kept])
        assert sum(seg.tuples_scored for seg in result.segments) == kept.sum()
        assert len(result.segments) == 3


# ---------------------------------------------------------------------- #
# a restart lands on the fault-free stream, whatever page it faulted on
# ---------------------------------------------------------------------- #
@pytest.mark.chaos
@pytest.mark.parametrize("use_striders", (True, False))
@pytest.mark.parametrize("call", (1, 2, 4, 5, 6, 9))
def test_producer_fault_at_any_page_restarts_onto_identical_items(call, use_striders):
    """``runtime.batch_source.producer`` fires per page: the pages before
    the faulted one cross the buffer, the restart skips exactly those."""
    db = _database(DENSE, 430, inserts=1)
    images = _images(db)
    assert len(images) == 9
    baseline = _engine(db, DENSE, 4, filtered=True)
    want = baseline.open(images, use_striders=use_striders, stream=False)
    engine = _engine(db, DENSE, 4, filtered=True)
    plan = FaultPlan.transient(("runtime.batch_source.producer", call))
    with inject_faults(plan) as injector:
        source = engine.open(
            images,
            use_striders=use_striders,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
        )
        first = source._chunk_at(0)
        rows = source.rows()
    assert [entry.call for entry in injector.fired] == [call]
    # the first thing the consumer saw is the pages before the fault (or a
    # whole wave when the fault sat on a wave boundary / in a later wave)
    clean = call - 1 if 1 < call <= 4 else 4
    assert len(first) == sum(want.sizes[:clean])
    assert (source.retry_stats.faults, source.retry_stats.retries) == (1, 1)
    np.testing.assert_array_equal(rows, want.rows())
    assert source.sizes == want.sizes
    assert engine.stats == baseline.stats


# ---------------------------------------------------------------------- #
# property: any mix of the above
# ---------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(
    lrmf=st.booleans(),
    n_rows=st.integers(min_value=1, max_value=420),
    inserts=st.integers(min_value=0, max_value=4),
    num_striders=st.sampled_from([1, 2, 5, 64]),
    filtered=st.booleans(),
    permute=st.lists(st.integers(min_value=0, max_value=40), max_size=3),
    empty=st.lists(st.integers(min_value=0, max_value=40), max_size=2),
    as_of=st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
)
def test_mixed_waves_agree_three_ways(
    lrmf, n_rows, inserts, num_striders, filtered, permute, empty, as_of
):
    schema = LRMF if lrmf else DENSE
    db = _database(schema, n_rows, inserts, seed=n_rows)
    images = _images(db, as_of_lsn=as_of)
    for position in permute:
        page = position % len(images)
        images[page] = _permute_pointers(images[page], db.layout, seed=position)
    for position in empty:
        page = position % len(images)
        images[page] = _set_free_start(images[page], db.layout, db.layout.line_pointer_start)
    _assert_three_way(
        db, schema, images, num_striders, filtered, cpu_decodable=not empty
    )
