"""The extracted wave is the unit of forward execution and of the result.

A scan-and-score run hands the forward tape one matrix per extracted wave
(:meth:`BatchSource.chunks`), books the call from counts
(``forward_cost(tuples, batch_size)``) and returns its SQL rows as a lazy
view over the prediction array.  What makes that safe is pinned here:

* **row independence** — for every registered algorithm, scoring *any*
  partition of the rows gives the predictions of the 256-row slicing the
  parent commit executed and of the per-tuple oracle
  (``tests/oracles/forward.py``), bit for bit, and the ledger depends on
  the counts alone;
* **nothing moved** — a statement grid over WHERE / LIMIT x segments x
  stream x execution reproduces the values recorded at the parent commit
  (``tests/data/scoring_grid_pr21.json``: prediction digests and every
  schedule-derived counter), and EXPLAIN still prices what the run books;
* **faults do not show** — a producer fault at any page of a two-wave
  table re-cuts the chunk stream but changes no prediction or counter;
* **the result set is a view** — ``QueryResult.rows`` of a scoring
  statement equals the eager tuple list in every way a caller can ask.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import Hyperparameters, algorithm_keys, get_algorithm
from repro.compiler.strider_compiler import compile_strider
from repro.core import DAnA, ScorePlan
from repro.core.explain import price
from repro.data.synthetic import generate_for_algorithm
from repro.hw import DEFAULT_FPGA, AccessEngine, AccessEngineConfig
from repro.perf import ScoreRunCost
from repro.rdbms import ColumnRows, Database, Schema, decode_page_rows, parse
from repro.rdbms.predicate import ColumnPredicate
from repro.reliability import FaultPlan, RetryPolicy, inject_faults
from repro.serving import InferencePlan
from repro.translator import translate

from oracles import forward as per_tuple

N_FEATURES = 8
LRMF_TOPOLOGY = (24, 18, 4)
POOL = 64  # rows the property draws from, per algorithm


# ---------------------------------------------------------------------- #
# (a) forward scoring is row-independent, for every registered algorithm
# ---------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def _forward(key: str):
    """``(inference plan, models, row pool)`` of one algorithm, built once."""
    algorithm = get_algorithm(key)
    topology = LRMF_TOPOLOGY if key == "lrmf" else ()
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=16, rank=LRMF_TOPOLOGY[2])
    spec = algorithm.build_spec(0 if key == "lrmf" else N_FEATURES, hyper, topology)
    rows = generate_for_algorithm(key, POOL, N_FEATURES, LRMF_TOPOLOGY, seed=5)
    rng = np.random.default_rng(17)
    models = {
        name: rng.normal(size=np.shape(value))
        for name, value in spec.initial_models.items()
    }
    plan = InferencePlan(translate(spec.algo), spec, threads=4, acs_per_thread=2)
    return plan, models, rows


@pytest.mark.parametrize("key", algorithm_keys())
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_any_partition_of_the_rows_scores_and_books_the_same(key, data):
    plan, models, pool = _forward(key)
    n = data.draw(st.integers(min_value=1, max_value=POOL), label="rows")
    order = data.draw(st.permutations(range(POOL)), label="order")
    rows = pool[order[:n]]
    cuts = data.draw(
        st.lists(st.integers(min_value=1, max_value=max(1, n - 1)), unique=True),
        label="cuts",
    )
    chunks = [chunk for chunk in np.split(rows, sorted(cuts)) if len(chunk)]
    assert sum(map(len, chunks)) == n
    for batch_size in (1, 7, 256, n + 5):
        cut = plan.new_engine()
        got = cut.score_batches(iter(chunks), models, batch_size=batch_size)
        sliced = plan.new_engine()
        oracle = plan.new_engine()
        np.testing.assert_array_equal(
            got, sliced.score(rows, models, batch_size=batch_size)
        )
        np.testing.assert_array_equal(
            got, per_tuple.score(oracle, rows, models, batch_size=batch_size)
        )
        assert got.shape == (n,) + plan.forward.score_dims
        assert (
            cut.stats
            == sliced.stats
            == oracle.stats
            == plan.forward_cost(n, batch_size)
        )
    # one row at a time is the finest cut there is
    np.testing.assert_array_equal(
        plan.new_engine().score_batches((row[None, :] for row in rows), models), got
    )


def test_a_short_first_chunk_does_not_set_the_booked_batch():
    """The regression pin: booking reads the plan's batch size, not the
    length of whatever matrix happened to arrive first."""
    plan, models, rows = _forward("linear")
    chunks = [rows[:3], rows[3:40], rows[40:]]
    engine = plan.new_engine()
    engine.score_batches(chunks, models, batch_size=16)
    assert engine.stats == plan.forward_cost(POOL, 16)
    assert engine.stats != plan.forward_cost(POOL, 3)
    default = plan.new_engine()
    default.score_batches(chunks, models)
    assert default.stats == plan.forward_cost(POOL)
    empty = plan.new_engine()
    assert empty.score_batches([], models, batch_size=16).shape == (0,)
    assert empty.stats == type(empty.stats)()


# ---------------------------------------------------------------------- #
# (b) the statement grid against the values recorded at the parent commit
# ---------------------------------------------------------------------- #
GRID_FILE = pathlib.Path(__file__).parent / "data" / "scoring_grid_pr21.json"
GRID_TUPLES = 9000  # 215 pages of 42: waves of 64+64+64+23, or 64+8 per third
GRID_MODELS = {"mo": np.linspace(-1.0, 1.0, N_FEATURES)}
GRID_WHERE = {
    "all": None,
    "some": "x1 > 1.25",  # about one tuple in ten, on every page
    "none": "x0 < 0",  # x0 holds the storage position
}
GRID_LIMIT = 7
GRID_KNOBS = [
    (segments, stream, execution)
    for segments in (1, 3)
    for stream in (True, False)
    for execution in ("threads", "processes")
]


@functools.lru_cache(maxsize=None)
def _grid_system() -> DAnA:
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=16, epochs=1)
    data = generate_for_algorithm("linear", GRID_TUPLES, N_FEATURES, seed=3)
    data[:, 0] = np.arange(GRID_TUPLES)
    database = Database(page_size=2048)
    system = DAnA(database)
    registered = system.register_algorithm_udf("linear", "linear", N_FEATURES, hyper)
    database.load_table("t", registered.spec.schema, data)
    system.save_model("m", "linear", GRID_MODELS)
    return system


def _grid_plan(system: DAnA, where_sql: str | None, segments, stream, execution):
    where = parse(f"SELECT * FROM t WHERE {where_sql}").where if where_sql else ()
    return ScorePlan.resolve(
        system._registered("linear"),
        "t",
        use_striders=system.use_striders,
        where=ColumnPredicate.compile(system.database.table("t").schema, where),
        segments=segments,
        stream=stream,
        execution=execution,
    )


def _digest(predictions: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(predictions).tobytes()).hexdigest()


def _cell(result, predictions: np.ndarray | None = None) -> dict:
    """Everything a run reports that must not move, JSON-shaped."""
    predictions = result.predictions if predictions is None else predictions
    cell = {
        "sha256": _digest(predictions),
        "rows": len(predictions),
        "tuples_scored": result.tuples_scored,
        "tuples_scanned": result.tuples_scanned,
        "batch_size": result.batch_size,
        "stream": result.stream,
        "critical_path_cycles": result.critical_path_cycles,
        "segments": [
            [
                seg.pages,
                seg.tuples_scored,
                dataclasses.asdict(seg.inference_stats),
                dataclasses.asdict(seg.access_stats),
            ]
            for seg in result.segments
        ],
    }
    return json.loads(json.dumps(cell))


def _limit_sql(segments, stream, execution) -> str:
    return (
        f"SELECT * FROM dana.score('m', 't', segments => {segments}, "
        f"stream => {str(stream).lower()}, execution => '{execution}') "
        f"LIMIT {GRID_LIMIT}"
    )


def record_grid() -> dict:
    """The grid's cells, keyed by name (run at the parent to write GRID_FILE)."""
    system = _grid_system()
    cells = {}
    for segments, stream, execution in GRID_KNOBS:
        knobs = f"s{segments}-{'stream' if stream else 'materialised'}-{execution}"
        for name, where_sql in GRID_WHERE.items():
            plan = _grid_plan(system, where_sql, segments, stream, execution)
            cells[f"{name}-{knobs}"] = _cell(system._score(plan, GRID_MODELS))
        statement = system.database.execute(_limit_sql(segments, stream, execution))
        cells[f"limit-{knobs}"] = _cell(
            statement.payload, np.array([row[0] for row in statement.rows])
        )
    return cells


@functools.lru_cache(maxsize=None)
def _grid_masks() -> dict[str, np.ndarray]:
    """Which tuples each WHERE keeps, from the float32-stored columns."""
    system = _grid_system()
    table = system.database.table("t")
    stored = np.vstack(
        [
            decode_page_rows(image, system.database.layout, table.schema)
            for _no, image in table.scan_pages(system.database.buffer_pool)
        ]
    )
    assert stored[:, 0].tolist() == list(range(GRID_TUPLES))
    return {
        "all": np.ones(GRID_TUPLES, dtype=bool),
        "some": stored[:, 1] > 1.25,
        "none": stored[:, 0] < 0,
    }


@functools.lru_cache(maxsize=None)
def _oracle_predictions() -> np.ndarray:
    """The per-tuple evaluator over the whole grid table, micro-batch by micro-batch."""
    system = _grid_system()
    plan = system._inference_plan(system._registered("linear"), "t")
    rows = system.database.table("t").read_all(system.database.buffer_pool)
    return per_tuple.score(plan.new_engine(), rows, GRID_MODELS)


@pytest.mark.parametrize("segments,stream,execution", GRID_KNOBS)
def test_statement_grid_reproduces_the_parent(segments, stream, execution):
    system = _grid_system()
    recorded = json.loads(GRID_FILE.read_text())
    knobs = f"s{segments}-{'stream' if stream else 'materialised'}-{execution}"
    masks = _grid_masks()
    assert 0.05 < masks["some"].mean() < 0.2
    for name, where_sql in GRID_WHERE.items():
        plan = _grid_plan(system, where_sql, segments, stream, execution)
        result = system._score(plan, GRID_MODELS)
        assert _cell(result) == recorded[f"{name}-{knobs}"], name
        np.testing.assert_array_equal(
            result.predictions, _oracle_predictions()[masks[name]]
        )
        predicted, actual = price(system, plan)[2], ScoreRunCost.from_result(result)
        assert predicted.segment_access_cycles == actual.segment_access_cycles
        if where_sql is None:
            assert predicted == actual  # EXPLAIN's price is the run's ledger
        else:  # no selectivity statistics: forward cycles are an upper bound
            assert all(
                booked <= priced
                for booked, priced in zip(
                    actual.segment_forward_cycles, predicted.segment_forward_cycles
                )
            )
    sql = _limit_sql(segments, stream, execution)
    statement = system.database.execute(sql)
    rows = statement.rows
    assert isinstance(rows, ColumnRows) and len(rows) == GRID_LIMIT
    assert rows == [(v,) for v in _oracle_predictions()[:GRID_LIMIT].tolist()]
    assert _cell(statement.payload, statement.payload.predictions[:GRID_LIMIT]) == (
        recorded[f"limit-{knobs}"]
    )
    report = system.database.execute("EXPLAIN ANALYZE " + sql).payload
    compared = 0
    for op in report.root.walk():
        for field, value in op.predicted.items():
            if field.endswith("cycles") and field in op.actual:
                assert value == op.actual[field], (op.name, field)
                compared += 1
    assert compared


# ---------------------------------------------------------------------- #
# (c) a producer fault re-cuts the chunk stream and changes nothing else
# ---------------------------------------------------------------------- #
WAVE = 4
CHAOS_SCHEMA = Schema.training_schema(N_FEATURES)


def _two_wave_engine(db: Database) -> AccessEngine:
    return AccessEngine(
        AccessEngineConfig(num_striders=WAVE, page_size=db.layout.page_size),
        compile_strider(db.layout, CHAOS_SCHEMA).program,
        CHAOS_SCHEMA,
        DEFAULT_FPGA,
        layout=db.layout,
    )


@functools.lru_cache(maxsize=None)
def _two_wave_table():
    db = Database(page_size=2048)
    db.load_table(
        "t", CHAOS_SCHEMA, generate_for_algorithm("linear", 300, N_FEATURES, seed=9)
    )
    images = [image for _no, image in db.table("t").scan_pages(db.buffer_pool)]
    assert len(images) == 2 * WAVE
    return db, images


@pytest.mark.chaos
@pytest.mark.parametrize("page", range(1, 2 * WAVE + 1))
def test_a_producer_fault_at_any_page_is_invisible_to_chunk_consumers(page):
    db, images = _two_wave_table()
    plan, models, _pool = _forward("linear")
    clean_engine = _two_wave_engine(db)
    clean = clean_engine.open(images)
    want = plan.new_engine()
    want_predictions = want.score_batches(clean.chunks(), models, batch_size=16)
    assert [len(chunk) for chunk in clean.chunks()] == [
        sum(clean.sizes[:WAVE]),
        sum(clean.sizes[WAVE:]),
    ]

    engine = _two_wave_engine(db)
    with inject_faults(
        FaultPlan.transient(("runtime.batch_source.producer", page))
    ) as injector:
        source = engine.open(images, retry=RetryPolicy(max_attempts=3, backoff_s=0.0))
        scorer = plan.new_engine()
        got = scorer.score_batches(source.chunks(), models, batch_size=16)
    assert [entry.call for entry in injector.fired] == [page]
    assert (source.retry_stats.faults, source.retry_stats.retries) == (1, 1)
    np.testing.assert_array_equal(got, want_predictions)
    assert scorer.stats == want.stats
    assert source.sizes == clean.sizes
    assert engine.stats == clean_engine.stats
    # the fault cut its wave in two unless it sat on the wave's first page
    cut = (page - 1) % WAVE != 0
    assert len(list(source.chunks())) == 2 + cut
    np.testing.assert_array_equal(np.vstack(list(source.chunks())), clean.rows())


# ---------------------------------------------------------------------- #
# (e) QueryResult.rows of a scoring statement is a view, not 65 536 tuples
# ---------------------------------------------------------------------- #
def _eager(column: np.ndarray) -> list[tuple]:
    """What the parent commit built for every scoring statement."""
    return [(value,) for value in column.tolist()]


@pytest.mark.parametrize(
    "column",
    [
        np.linspace(-2.0, 2.0, 11),
        np.arange(12.0).reshape(4, 3),  # a vector-valued score column
        np.empty(0),
        np.empty((0, 3)),
    ],
    ids=["scalar", "vector", "empty", "empty-vector"],
)
def test_column_rows_equal_the_eager_list_every_way_round(column):
    eager = _eager(column)
    view = ColumnRows(column)
    assert len(view) == len(eager)
    assert view._rows is None  # len() built nothing
    for index in range(-len(eager), len(eager)):
        assert view[index] == eager[index]
        assert type(view[index]) is tuple
        assert type(view[index][0]) is type(eager[index][0])
    assert view._rows is None  # neither did indexing
    for bad in (len(eager), -len(eager) - 1):
        with pytest.raises(IndexError):
            view[bad]
    with pytest.raises(TypeError):
        view[[0]]
    assert view[1:3] == eager[1:3] and view[::-2] == eager[::-2]
    assert list(view) == eager and list(view) == eager  # iterates twice
    assert view == eager and eager == view  # the reflected call
    assert view == ColumnRows(column.copy())
    assert not view != eager and not eager != view
    assert view != eager + [(0.0,)] and view != [(1.0,)] * len(eager) + [(0.0,)]
    assert (view == tuple(eager)) is False and view != "rows"
    assert repr(view) == repr(eager)
    assert list(reversed(view)) == eager[::-1]
    if eager:
        assert eager[0] in view and view.index(eager[-1]) == len(eager) - 1


def test_len_and_index_of_a_table_sized_result_build_no_list():
    view = ColumnRows(np.arange(65_536.0))
    assert len(view) == 65_536 and view[0] == (0.0,) and view[-1] == (65_535.0,)
    assert view._rows is None
    assert view[:2] == [(0.0,), (1.0,)] and view._rows is not None  # built once
    assert view[7] is view._rows[7]  # ... and kept


def test_scoring_statements_return_the_view_and_others_a_list():
    system = _grid_system()
    db = system.database
    everything = _oracle_predictions()
    for sql, want in (
        ("SELECT dana.predict('m') FROM t", everything),
        ("SELECT dana.predict('m') FROM t LIMIT 0", everything[:0]),
        ("SELECT dana.predict('m') AS p FROM t LIMIT 5", everything[:5]),
        (f"SELECT dana.predict('m') FROM t LIMIT {GRID_TUPLES + 9}", everything),
        ("SELECT * FROM dana.score('m', 't') LIMIT 3", everything[:3]),
        ("SELECT dana.predict('m') FROM t WHERE x0 < 0", everything[:0]),
    ):
        result = db.execute(sql)
        rows = result.rows
        assert isinstance(rows, ColumnRows), sql
        assert len(result) == len(rows) == len(want)
        if len(want):
            assert rows[0] == (float(want[0]),) and rows[-1] == (float(want[-1]),)
        assert rows._rows is None, sql  # nothing above allocated the list
        assert not len(want) or np.shares_memory(
            rows.column, result.payload.predictions
        )
        assert rows == _eager(want) and _eager(want) == rows
    for sql in ("SELECT * FROM t LIMIT 3", "SELECT count(*) FROM t", "SHOW MODELS"):
        assert type(db.execute(sql).rows) is list, sql


# ---------------------------------------------------------------------- #
# reassembly: one scatter, whatever dealt the pages
# ---------------------------------------------------------------------- #
def _reassemble_page_by_page(scored) -> np.ndarray:
    """The per-page loop of slice assignments the scatter replaced."""
    counts = {}
    for part, (_report, _preds, sizes) in scored:
        counts.update(zip(part.page_nos, sizes))
    offsets, total = {}, 0
    for page_no in sorted(counts):
        offsets[page_no] = total
        total += counts[page_no]
    predictions = np.empty((total,) + scored[0][1][1].shape[1:])
    for part, (_report, preds, sizes) in scored:
        position = 0
        for page_no, size in zip(part.page_nos, sizes):
            predictions[offsets[page_no] : offsets[page_no] + size] = preds[
                position : position + size
            ]
            position += size
    return predictions


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=5), max_size=12),
    units=st.integers(min_value=1, max_value=4),
    dims=st.sampled_from([(), (3,)]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_reassembly_scatters_any_deal_of_pages_into_storage_order(
    sizes, units, dims, seed
):
    from repro.cluster.partitioner import PagePartition
    from repro.serving import ScanScorer

    rng = np.random.default_rng(seed)
    owner = rng.integers(0, units, size=len(sizes))
    scored = []
    for unit in range(units):
        page_nos = np.flatnonzero(owner == unit)
        rng.shuffle(page_nos)  # redistribution and hashing deal out of order
        unit_sizes = [sizes[page_no] for page_no in page_nos]
        preds = rng.normal(size=(sum(unit_sizes),) + dims)
        part = PagePartition(segment_id=unit, page_nos=tuple(page_nos.tolist()))
        scored.append((part, (None, preds, unit_sizes)))
    got = ScanScorer._reassemble(scored)
    np.testing.assert_array_equal(got, _reassemble_page_by_page(scored))
    assert got.shape == (sum(sizes),) + dims and got.dtype == np.float64
    if units == 1 and list(scored[0][0].page_nos) == sorted(scored[0][0].page_nos):
        assert got is scored[0][1][1]  # already in order: handed back as is
