"""Call-count pins: the wave, not the page, is the unit between the buffer
pool and the forward tape.

Three counts that do not depend on the data, only on the design:

* a snapshot scan of a bulk-loaded table looks up no page version — every
  page's live image *is* its as-of image (and after an insert that tops up
  the tail, exactly that one page is rebuilt);
* a wave builds at most one ``StriderResult`` per distinct tuple count,
  plus one per page the wave walk rejected;
* with no ``FaultPlan`` armed, a streamed scan never calls the producer's
  per-page fault site (and with one armed, it calls it once per page).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.hw.access_engine as access_engine_module
import repro.hw.strider as strider_module
import repro.runtime.batch_source as batch_source_module
from repro.algorithms import Hyperparameters
from repro.compiler.strider_compiler import compile_strider
from repro.core import DAnA
from repro.hw import DEFAULT_FPGA, AccessEngine, AccessEngineConfig
from repro.hw.strider import StriderResult
from repro.rdbms import Database, Schema
from repro.rdbms.heapfile import HeapFile
from repro.reliability import FaultPlan, FaultSpec, inject_faults
from repro.runtime.batch_source import PRODUCER_FAULT_SITE

PAGE_SIZE = 2048
DENSE = Schema.training_schema(6)


def _data(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, len(DENSE)))


def _system(n_rows: int) -> DAnA:
    db = Database(page_size=PAGE_SIZE)
    system = DAnA(db)
    registered = system.register_algorithm_udf(
        "linear", "linear", 6, Hyperparameters(merge_coefficient=8, epochs=1), epochs=1
    )
    db.load_table("t", registered.spec.schema, _data(n_rows))
    system.save_model("m", "linear", {"mo": np.arange(1.0, 7.0)})
    return system


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_snapshot_scan_of_a_bulk_loaded_table_looks_up_no_version(monkeypatch):
    system = _system(590)  # the tail page has room left
    db = system.database
    table = db.table("t")
    lookups = _count_calls(monkeypatch, HeapFile, "_version_as_of")
    for segments in (1, 3):
        for stream in (True, False):
            system.score_table("linear", "t", model_name="m", segments=segments, stream=stream)
    system.train("linear", "t")
    db.execute("SELECT dana.predict('m') FROM t WHERE x0 > 0.5")
    images = [image for _no, image in table.scan_pages(db.buffer_pool, as_of_lsn=0)]
    assert lookups == []
    assert table.images_as_of(db.buffer_pool, None, db.wal.current_lsn) == images
    assert lookups == []
    # Top the tail up: only that page is stamped past the old snapshot, so
    # only it is rebuilt — one lookup per as-of read of it.
    db.insert_rows("t", _data(3, seed=1))
    assert table.images_as_of(db.buffer_pool, None, 0) == images
    assert [args[1:] for args in lookups] == [(table.page_count_as_of(0) - 1, 0)]


def test_a_wave_builds_one_result_per_distinct_count(monkeypatch):
    db = Database(page_size=PAGE_SIZE)
    per_page = db.layout.tuples_per_page(DENSE)
    db.load_table("t", DENSE, _data(9 * per_page + 5))
    for seed in range(3):
        db.insert_rows("t", _data(16, seed=seed))
    images = [image for _no, image in db.table("t").scan_pages(db.buffer_pool)]
    # one page the wave walk must reject: a zero-length pointer array
    odd = bytearray(images[2])
    odd[db.layout.free_start_offset : db.layout.free_start_offset + 2] = (
        db.layout.line_pointer_start.to_bytes(2, "little")
    )
    images[2] = bytes(odd)
    made = []

    class Counted(StriderResult):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(access_engine_module, "StriderResult", Counted)
    monkeypatch.setattr(strider_module, "StriderResult", Counted)
    engine = AccessEngine(
        AccessEngineConfig(num_striders=4, page_size=PAGE_SIZE),
        compile_strider(db.layout, DENSE).program,
        DENSE,
        DEFAULT_FPGA,
    )
    built = []
    for start in range(0, len(images), 4):
        made.clear()
        ((_rows, sizes),) = list(engine.waves(images[start : start + 4]))
        rejected = [start + i == 2 for i in range(len(sizes))]
        proven_counts = {size for size, odd in zip(sizes, rejected) if not odd}
        assert len(made) == len(proven_counts) + sum(rejected)
        built.append(len(made))
    assert sum(built) < len(images)


def test_no_armed_plan_no_producer_fault_site_call(monkeypatch):
    db = Database(page_size=PAGE_SIZE)
    db.load_table("t", DENSE, _data(700))
    images = [image for _no, image in db.table("t").scan_pages(db.buffer_pool)]
    engine = AccessEngine(
        AccessEngineConfig(num_striders=4, page_size=PAGE_SIZE),
        compile_strider(db.layout, DENSE).program,
        DENSE,
        DEFAULT_FPGA,
    )
    assert len(images) > 4  # more than one wave: a real producer thread
    fired = _count_calls(monkeypatch, batch_source_module, "fault_point")
    want = engine.open(images, stream=False).rows()
    source = engine.open(images)
    assert not source.materialised
    np.testing.assert_array_equal(source.rows(), want)
    assert fired == []
    # armed (with a fault that never comes), the site fires once per page
    with inject_faults(FaultPlan([FaultSpec(PRODUCER_FAULT_SITE, 10**6)])) as injector:
        np.testing.assert_array_equal(engine.open(images).rows(), want)
    assert fired == [(PRODUCER_FAULT_SITE,)] * len(images)
    assert injector.calls[PRODUCER_FAULT_SITE] == len(images)
