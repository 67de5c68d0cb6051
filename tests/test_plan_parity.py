"""One resolved plan per run: EXPLAIN == run report == recorded config.

``TrainPlan`` / ``ScorePlan`` (``repro.core.plan``) are resolved once per
run and consumed by execution, ``EXPLAIN`` and the run recorder.  The grid
below pins that contract over the whole knob space: whatever ``EXPLAIN``
prints for a statement must be what the executed run reports in
``ClusterStats`` / ``ScoreResult`` and what ``repro_runs`` records — and an
invalid option must fail with the same message through the Python API, SQL
and ``EXPLAIN``.
"""

import dataclasses
import functools
import itertools
import math
import pickle

import numpy as np
import pytest

from repro.algorithms import Hyperparameters
from repro.cluster import SegmentFanout, SegmentJob
from repro.core import DAnA, ScorePlan, TrainPlan
from repro.core.plan import option_types
from repro.data.synthetic import generate_for_algorithm
from repro.exceptions import ConfigurationError, QueryError
from repro.perf import ScoreRunCost
from repro.rdbms import Database

N_FEATURES = 6
EXECUTIONS = ("auto", "lockstep", "threads", "processes")
STALENESS = (1, 2)
SEGMENTS = (None, 1, 3)


def _system(use_striders=True):
    """A recording DAnA system with one registry-built linear UDF."""
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=8, epochs=2)
    data = generate_for_algorithm("linear", 96, N_FEATURES, seed=5)
    database = Database(page_size=2048)
    system = DAnA(database, use_striders=use_striders, record_runs=True)
    registered = system.register_algorithm_udf(
        "linear", "linear", N_FEATURES, hyper, epochs=2
    )
    database.load_table("train", registered.spec.schema, data)
    return system


def _sql_literal(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, str) else str(value)


def _with_clause(options):
    if not options:
        return ""
    body = ", ".join(f"{k} => {_sql_literal(v)}" for k, v in options.items())
    return f" WITH ({body})"


def _first_line(error) -> str:
    """The diagnostic line of a QueryError (drops the echoed statement)."""
    return str(error).splitlines()[0]


def _last_config(system):
    recorder = system.run_recorder
    return recorder.run_detail(recorder.runs()[-1]["run_id"])["config"]


def _assert_priced_like_the_run(train_op, run):
    """EXPLAIN's predicted cycles are the executed run's, operator by operator
    (whatever the fan-out, staleness, stream or decode of the cell)."""
    from repro.perf import ShardedRunCost

    cost = ShardedRunCost.from_run(run)
    assert train_op.predicted["critical_path_cycles"] == cost.critical_path_cycles
    priced = [train_op] if train_op.name == "Train" else train_op.children
    segment_ops = [op for op in priced if op.name in ("Train", "SegmentTrain")]
    assert [op.predicted["access_cycles"] for op in segment_ops] == list(
        cost.segment_access_cycles
    )
    assert [op.predicted["engine_cycles"] for op in segment_ops] == list(
        cost.segment_engine_cycles
    )
    for op in train_op.children:
        if op.name == "MergeModels":
            assert op.predicted == {
                "merges": cost.merges_performed,
                "cross_merge_cycles": cost.cross_merge_cycles,
            }
        if op.name == "StriderPageWalk":
            assert op.predicted["access_cycles"] == sum(cost.segment_access_cycles)
    if train_op.name == "EpochLoop":
        assert train_op.predicted["pipelined_cycles"] == (
            cost.pipelined_critical_path_cycles
        )
        assert cost.critical_path_cycles == run.critical_path_cycles


# ---------------------------------------------------------------------- #
# training: execution x staleness x stream x use_striders x segments
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("use_striders", (True, False))
@pytest.mark.parametrize(
    "execution,staleness,stream,segments",
    [
        combo
        for combo in itertools.product(EXECUTIONS, STALENESS, (True, False), SEGMENTS)
        # spawned workers dominate the grid's wall time and the merge
        # cadence is orthogonal to the fan-out mechanism: one cadence for them
        if combo[0] != "processes" or combo[1] == 1
    ],
)
def test_train_explain_equals_report_equals_recorded_config(
    use_striders, execution, staleness, stream, segments
):
    system = _system(use_striders)
    options = {"execution": execution, "staleness": staleness, "stream": stream}
    if segments is not None:
        options["segments"] = segments
    explain_sql = (
        "EXPLAIN CREATE MODEL m AS TRAIN linear ON train" + _with_clause(options)
    )

    if execution == "lockstep" and segments == 1:
        # the one illegal cell: same diagnostic from EXPLAIN and execution
        with pytest.raises(ConfigurationError) as api_error:
            system.train("linear", "train", **options)
        with pytest.raises(QueryError) as explain_error:
            system.database.execute(explain_sql)
        assert str(api_error.value) in _first_line(explain_error.value)
        return

    train_op = system.database.execute(explain_sql).payload.root.children[0]
    knobs = train_op.knobs
    run = system.train("linear", "train", **options)
    config = _last_config(system)
    _assert_priced_like_the_run(train_op, run)

    assert knobs["mode"] == config["execution"]
    assert knobs["stream"] == config["stream"]
    assert knobs["epochs"] == config["epochs"] == 2
    if segments is None:
        # the knobs a single accelerator ignores are normalised away
        assert knobs["mode"] == "single"
        assert knobs["stream"] == (stream and use_striders)
        for name in ("staleness", "aggregation"):
            assert config[name] is None
        assert config["workers"] == 0
        return
    cluster = run.cluster
    assert knobs["mode"] == cluster.mode != "auto"
    assert knobs["stream"] == cluster.stream
    # the one effective-stream rule: only the Strider walk streams, and
    # worker processes materialise their partitions
    assert cluster.stream == (
        stream and use_striders and cluster.mode != "processes"
    )
    assert knobs["staleness"] == cluster.staleness == config["staleness"] == staleness
    assert cluster.merges_performed == math.ceil(2 / staleness)
    assert knobs["workers"] == cluster.worker_limit == config["workers"]
    assert knobs["segments"] == cluster.segments == config["segments"] == segments
    assert cluster.aggregation_strategy == config["aggregation"] == "average"
    merge_ops = [op for op in train_op.children if op.name == "MergeModels"]
    assert len(merge_ops) == (1 if segments > 1 else 0)
    for op in merge_ops:
        assert op.knobs["aggregation"] == cluster.aggregation_strategy


# ---------------------------------------------------------------------- #
# scoring: execution x stream x use_striders x segments
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("use_striders", (True, False))
@pytest.mark.parametrize(
    "execution,stream,segments",
    list(itertools.product(("threads", "processes"), (True, False), SEGMENTS)),
)
def test_score_explain_equals_report_equals_recorded_config(
    use_striders, execution, stream, segments
):
    system = _system(use_striders)
    system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
    kwargs = {"execution": execution, "stream": stream, "batch_size": 32}
    if segments is not None:
        kwargs["segments"] = segments
    args = "".join(f", {k} => {_sql_literal(v)}" for k, v in kwargs.items())
    root = system.database.execute(
        f"EXPLAIN SELECT * FROM dana.score('m', 'train'{args})"
    ).payload.root
    knobs = root.knobs
    score = system.score_table("linear", "train", model_name="m", **kwargs)
    config = _last_config(system)
    cost = ScoreRunCost.from_result(score)
    assert root.predicted["wall_cycles"] == cost.wall_cycles
    assert root.predicted["critical_path_cycles"] == score.critical_path_cycles
    assert [
        (op.predicted["access_cycles"], op.predicted["forward_cycles"])
        for op in root.children
        if op.name == "Segment"
    ] == list(zip(cost.segment_access_cycles, cost.segment_forward_cycles))

    assert knobs["stream"] == score.stream == config["stream"]
    assert score.stream == (stream and use_striders and execution != "processes")
    assert knobs["execution"] == score.execution == config["execution"] == execution
    assert knobs["workers"] == score.worker_limit == config["workers"]
    assert knobs["batch_size"] == score.batch_size == config["batch_size"] == 32
    assert knobs["segments"] == len(score.segments) == config["segments"]
    assert config["segments"] == (segments or 1)


def test_predict_scan_explain_reports_effective_stream():
    system = _system(use_striders=False)
    system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
    knobs = system.database.execute(
        "EXPLAIN SELECT dana.predict('m') FROM train"
    ).payload.root.knobs
    result = system.database.execute("SELECT dana.predict('m') FROM train")
    assert knobs["stream"] is result.payload.stream is False


# ---------------------------------------------------------------------- #
# the extraction seam: use_striders x stream x execution, for train, score
# and filtered predict, all equal to the materialised oracles
# ---------------------------------------------------------------------- #
SEAM_EXECUTIONS = {
    "single": {},
    "lockstep": {"segments": 3, "execution": "lockstep"},
    "threads": {"segments": 3, "execution": "threads"},
    "processes": {"segments": 3, "execution": "processes"},
}
SEAM_MODELS = {"mo": np.linspace(-1.0, 1.0, N_FEATURES)}
SEAM_WHERE = "x0 > 0.1 AND y <= 9"


def _seam_predicate(system):
    """``SEAM_WHERE`` compiled against the table, as a statement would."""
    from repro.rdbms import parse
    from repro.rdbms.predicate import ColumnPredicate

    return ColumnPredicate.compile(
        system.database.table("train").schema,
        parse(f"SELECT * FROM train WHERE {SEAM_WHERE}").where,
    )


def _seam_run(kind, execution, use_striders, stream):
    """One cell of the grid on a fresh system (clean cached counters)."""
    system = _system(use_striders)
    knobs = dict(SEAM_EXECUTIONS[execution], stream=stream)
    if kind == "train":
        return system.train("linear", "train", **knobs)
    where = _seam_predicate(system) if kind == "predict" else None
    plan = ScorePlan.resolve(
        system._registered("linear"),
        "train",
        use_striders=use_striders,
        batch_size=7,
        where=where,
        **knobs,
    )
    return system._score(plan, SEAM_MODELS)


@functools.lru_cache(maxsize=None)
def _seam_oracle(kind, execution):
    """The materialised Striders-on run of the same kind and fan-out."""
    return _seam_run(kind, execution, True, False)


def _table_rows():
    """The float32-stored table as the float64 matrix predicates compare."""
    system = _system()
    return system.database.table("train").read_all(system.database.buffer_pool)


def _access(stats, use_striders):
    """What a cell's access counters must equal: the Strider walk books
    the oracle's, the CPU-decode model books nothing."""
    from repro.hw.access_engine import AccessEngineStats

    return stats if use_striders else AccessEngineStats()


@pytest.mark.parametrize("use_striders", (True, False))
@pytest.mark.parametrize("stream", (True, False))
@pytest.mark.parametrize("execution", SEAM_EXECUTIONS)
def test_seam_train_cell_equals_materialised_oracle(execution, stream, use_striders):
    from repro.reliability import RetryStats

    oracle = _seam_oracle("train", execution)
    run = _seam_run("train", execution, use_striders, stream)
    for name, value in oracle.models.items():
        np.testing.assert_array_equal(run.models[name], value)
    assert run.engine_stats == oracle.engine_stats
    assert run.tuples_extracted == oracle.tuples_extracted == 96
    assert run.access_stats == _access(oracle.access_stats, use_striders)
    if execution == "single":
        assert run.retry_stats == RetryStats()
        return
    assert run.cluster.retry == RetryStats()
    assert run.cluster.tree_bus == oracle.cluster.tree_bus
    for seg, want in zip(run.segments, oracle.segments, strict=True):
        assert (seg.pages, seg.tuples_extracted) == (want.pages, want.tuples_extracted)
        assert seg.engine_stats == want.engine_stats
        assert seg.access_stats == _access(want.access_stats, use_striders)


@pytest.mark.parametrize("use_striders", (True, False))
@pytest.mark.parametrize("stream", (True, False))
@pytest.mark.parametrize("execution", ("single", "threads", "processes"))
@pytest.mark.parametrize("kind", ("score", "predict"))
def test_seam_score_cell_equals_materialised_oracle(
    kind, execution, stream, use_striders
):
    from repro.reliability import RetryStats

    oracle = _seam_oracle(kind, execution)
    result = _seam_run(kind, execution, use_striders, stream)
    np.testing.assert_array_equal(result.predictions, oracle.predictions)
    assert result.inference_stats == oracle.inference_stats
    assert result.tuples_scanned == 96
    assert result.retry == RetryStats()
    for seg, want in zip(result.segments, oracle.segments, strict=True):
        assert (seg.pages, seg.tuples_scored) == (want.pages, want.tuples_scored)
        assert seg.inference_stats == want.inference_stats
        assert seg.access_stats == _access(want.access_stats, use_striders)
    if kind == "predict":
        # the filter is the unfiltered scan's predictions under the mask
        # (per-page sizes drive the storage-order reassembly)
        data = _table_rows()
        mask = (data[:, 0] > 0.1) & (data[:, -1] <= 9)
        assert 0 < mask.sum() < len(mask)
        np.testing.assert_array_equal(
            result.predictions, _seam_oracle("score", execution).predictions[mask]
        )


def _grow_past_one_wave(system):
    """Live 16-row inserts until ``train`` outgrows one wave of page
    buffers: full pages, copy-on-write tails and a short last wave."""
    rows = generate_for_algorithm("linear", 16 * 210, N_FEATURES, seed=6)
    for start in range(0, len(rows), 16):
        system.database.insert_rows("train", rows[start : start + 16])


@pytest.mark.parametrize("grown", (False, True))
@pytest.mark.parametrize("filtered", (False, True))
def test_seam_sources_agree_on_rows_batches_and_page_sizes(filtered, grown):
    """The 2 x 2 at the seam itself: same tuples, batches and per-page
    sizes whichever decode and schedule produced them — on a table inside
    one wave of page buffers and on one grown past it."""
    from repro.hw import DAnAAccelerator

    system = _system()
    if grown:
        _grow_past_one_wave(system)
    table = system.database.table("train")
    predicate = _seam_predicate(system) if filtered else None
    images = [image for _no, image in table.scan_pages(system.database.buffer_pool)]
    sources = {}
    for use_striders, stream in itertools.product((True, False), repeat=2):
        access = DAnAAccelerator(
            system.compile_udf("linear", "train"),
            table.schema,
            system.fpga,
            predicate=predicate,
        ).access_engine
        assert (len(images) > access.config.num_striders) is grown
        source = access.open(iter(images), use_striders=use_striders, stream=stream)
        batches = list(source.batches(7))
        # one-wave rule: nothing to overlap inside one wave, so no producer
        assert source.materialised is (not stream or not grown)
        sources[use_striders, stream] = (source.rows(), batches, source.sizes)
        assert (access.stats.pages_processed == len(images)) is use_striders
    want_rows, want_batches, want_sizes = sources[True, False]
    assert len(want_sizes) == len(images) and sum(want_sizes) == len(want_rows)
    assert (len(want_rows) < table.tuple_count) is filtered
    for rows, batches, sizes in sources.values():
        np.testing.assert_array_equal(rows, want_rows)
        assert sizes == want_sizes
        for got, want in zip(batches, want_batches, strict=True):
            np.testing.assert_array_equal(got, want)


def test_one_module_builds_batch_sources_and_the_old_entry_points_are_gone():
    """Structural pin: the seam is the only place outside the runtime that
    constructs a ``BatchSource``, and nothing can route around it."""
    import pathlib
    import re

    import repro

    root = pathlib.Path(repro.__file__).parent
    builders = [
        str(path.relative_to(root))
        for path in sorted(root.rglob("*.py"))
        if path != root / "runtime" / "batch_source.py"
        and re.search(r"\bBatchSource\(", path.read_text())
    ]
    assert builders == ["hw/access_engine.py"]
    source = "\n".join(path.read_text() for path in root.rglob("*.py"))
    for name in (
        "score_stream_from_pages",
        "score_from_pages",
        "train_from_rows",
        "open_source",
        "cpu_decode_chunks",
        "AsyncMerge",
        "overlap_merge",
    ):
        assert not re.search(rf"\b{name}\b", source), name
    # no executor decides extraction: only the seam's caller-facing knobs
    # (plan.extraction()) and read-only reporting mention the two fields
    readers = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if path != root / "core" / "plan.py"
        and re.search(r"plan\.(stream|use_striders)\b", path.read_text())
    )
    assert readers == ["cluster/sharded.py", "core/explain.py", "serving/scorer.py"]
    # PR 24: one cadence knob, one referee.  ``staleness`` alone decides the
    # merge cadence, and the legacy throughput bench is gone with its result
    # file and its CLI reader (names spelt in halves so this file stays out
    # of its own grep).
    import subprocess

    import repro.runtime
    from repro.obs.cli import build_parser

    assert "sync" not in option_types(TrainPlan)
    for name in ("SyncPolicy", "make_sync_policy", "SYNC_POLICIES"):
        assert not hasattr(repro.runtime, name), name
        assert not re.search(rf"\b{name}\b", source), name
    assert "bench" not in build_parser().format_help()
    legacy = re.compile("bench_" + "throughput_scaling|BENCH_" + "throughput")
    repo = root.parents[1]
    listing = subprocess.run(
        ["git", "ls-files"], cwd=repo, capture_output=True, text=True
    )
    if listing.returncode == 0:  # a checkout, not an unpacked archive
        mentions = sorted(
            name
            for name in listing.stdout.splitlines()
            # ISSUE.md is the driver's file, rewritten for every PR
            if name != "ISSUE.md"
            and (repo / name).is_file()
            and legacy.search((repo / name).read_text(errors="ignore"))
        )
        assert mentions == ["CHANGES.md", "ROADMAP.md", "benchmarks/e2e/README.md"]
    # Four knobs only tests set are gone: the scoring ``path`` (its
    # per-tuple oracle lives in tests/oracles/), hash partitioning, the
    # scoring ``seed`` only hashing read and the ``aggregation`` override.
    import inspect

    assert {"partition_strategy", "aggregation"}.isdisjoint(option_types(TrainPlan))
    for method in (DAnA.predict, DAnA.score_table):
        params = inspect.signature(method).parameters
        assert {"path", "partition_strategy", "seed"}.isdisjoint(params), method
    for name in ("SERVING_PATHS", "_score_batch_oracle", "_KNUTH_MIX"):
        assert not re.search(rf"\b{name}\b", source), name
    # the library never reaches into the test suite for an oracle
    importers = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if re.search(
            r"^\s*(from|import)\s+(tests|oracles)\b", path.read_text(), re.MULTILINE
        )
    )
    assert importers == []


def test_each_stage_cost_is_stated_once_and_booked_once_per_epoch():
    """Structural pin of the cycle ledger: one cost function per stage, no
    second predictor — not in EXPLAIN, not in the design-space estimator,
    not in the paper-scale FPGA model — and no per-batch booking on the
    tape paths."""
    import inspect
    import pathlib
    import re

    import repro
    from repro.cluster import sharded
    from repro.compiler import DesignSpaceExplorer, HardwareGenerator
    from repro.hw import AccessEngine, AccessEngineStats, ExecutionEngine, TreeBus
    from repro.hw.ledger import engine_epoch_cost
    from repro.hw.strider import Strider
    from repro.perf import DAnAModel
    from repro.serving import InferenceEngine, InferencePlan

    from oracles import forward as per_tuple

    root = pathlib.Path(repro.__file__).parent
    sources = {path: path.read_text() for path in root.rglob("*.py")}
    everything = "\n".join(sources.values())
    for name in (
        "predict_epoch_cycles",
        "predict_forward_cycles",
        "estimate_cycles_per_page",
        "estimate_partition_cycles",
        "_merge_cycles_by_batch",
        "_strider_cycles_per_page",
    ):
        assert not re.search(rf"\b{name}\b", everything), name
    # the hand-written copies the estimator and the FPGA model used to carry
    compiler = "\n".join(
        text for path, text in sources.items() if path.parent == root / "compiler"
    )
    assert "_merge_element_count" not in compiler
    assert "math.log2" not in sources[root / "compiler" / "design_space.py"]
    assert "words + payload_words" not in everything
    # the tape paths book per epoch / per scoring call, never per batch
    for body in (
        ExecutionEngine._train_one_epoch_tape,
        sharded._LockstepStep,
        InferenceEngine.score_batches,
    ):
        assert "account_batch" not in inspect.getsource(body), body
    # the per-tuple oracles keep the per-batch reference booking
    assert "account_batch" in inspect.getsource(ExecutionEngine._train_one_epoch)
    assert "account_batch" in inspect.getsource(per_tuple.score)
    # one statement of the rounds arithmetic per engine, inside its cost function
    rounds = r"math\.ceil\(batch_len / \S*threads\)"
    for path, cost_function in (
        (root / "hw" / "ledger.py", engine_epoch_cost),
        (root / "serving" / "inference.py", InferencePlan.forward_cost),
    ):
        assert len(re.findall(rounds, sources[path])) == 1, path
        assert re.search(rounds, inspect.getsource(cost_function))
    assert len(re.findall(rounds, everything)) == 2
    # one definition of a segment's access cycles, one critical-path formula
    assert len(re.findall(r"strider_cycles_critical \+ \S*axi_cycles", everything)) == 1
    assert len(re.findall(r"max if pipelined else operator\.add", everything)) == 1
    # every stage's cost function exists, and pricing is what booking adds
    for cost_function in (
        Strider.walk_cost,
        AccessEngineStats.of_page_runs,
        AccessEngine.partition_cost,
        engine_epoch_cost,
        ExecutionEngine.epoch_cost,
        InferencePlan.forward_cost,
        TreeBus.merge_cost,
    ):
        assert callable(cost_function)
    # ... and every reader reaches it: the run and EXPLAIN through the
    # engines, the estimator and the paper-scale model directly
    readers = {
        engine_epoch_cost: (ExecutionEngine.epoch_cost, DesignSpaceExplorer.evaluate),
        AccessEngineStats.of_page_runs: (
            AccessEngine.partition_cost,
            DesignSpaceExplorer.evaluate,
            DAnAModel.epoch_cost,
        ),
        Strider.walk_cost: (
            AccessEngine.partition_cost,
            HardwareGenerator.strider_cycles_per_page,
            DAnAModel.strider_cycles_per_page,
        ),
    }
    for cost_function, callers in readers.items():
        for caller in callers:
            assert cost_function.__name__ in inspect.getsource(caller), caller
    assert "compute_cycles_per_epoch" in inspect.getsource(DAnAModel.epoch_cost)
    # the estimator's one departure from the machine: a batch is one round
    assert len(re.findall(r"batch_size=threads", everything)) == 1
    assert "batch_size=threads" in inspect.getsource(DesignSpaceExplorer.evaluate)


def test_a_mixed_count_partition_is_priced_as_it_is_booked():
    """``partition_cost`` hands ``Strider.walk_cost`` the count vector once;
    the executed wave walk books the same ledger wave for wave, whichever
    page of a wave is its critical one."""
    from repro.hw import DAnAAccelerator
    from repro.perf.plan_cost import page_tuple_counts

    system = _system()
    _grow_past_one_wave(system)
    table = system.database.table("train")
    images = [image for _no, image in table.scan_pages(system.database.buffer_pool)]
    counts = page_tuple_counts(
        range(len(images)),
        table.tuple_count,
        system.database.layout.tuples_per_page(table.schema),
    )
    assert len(set(counts)) == 2 and sum(counts) == table.tuple_count
    orders = (
        range(len(images)),  # the short tail closes the last wave
        range(len(images) - 1, -1, -1),  # ... opens the first
        [*range(1, len(images), 2), *range(0, len(images), 2)],  # ... sits mid-wave
    )
    booked = []
    for order in orders:
        access = DAnAAccelerator(
            system.compile_udf("linear", "train"), table.schema, system.fpga
        ).access_engine
        source = access.open([images[no] for no in order], stream=False)
        assert source.sizes == [counts[no] for no in order]
        assert access.partition_cost(source.sizes) == access.stats
        booked.append(access.stats)
    assert booked[0].strider_cycles_total == booked[1].strider_cycles_total
    assert booked[0].access_cycles > 0


# ---------------------------------------------------------------------- #
# one diagnostic per invalid option, whichever door it came through
# ---------------------------------------------------------------------- #
#: options that no longer exist: ``sync`` (folded into ``staleness``), hash
#: partitioning's ``partition_strategy`` and the ``aggregation`` override
#: (the plan derives it from the graph).
REMOVED = {"sync", "partition_strategy", "aggregation"}

INVALID_TRAIN_OPTIONS = (
    {"epochs": 0},
    {"segments": 0},
    {"segments": 2, "partition_strategy": "range"},
    {"segments": 2, "aggregation": "median"},
    {"segments": 2, "execution": "warp"},
    {"sync": "gossip"},
    {"segments": 2, "sync": "async_merge"},
    {"segments": 2, "sync": "stale_synchronous", "staleness": 8},
    {"stream": "no"},
    {"shuffle": "false"},
    {"segments": 2, "staleness": 0},
    {"segments": 1, "execution": "lockstep"},
)


@pytest.mark.parametrize("options", INVALID_TRAIN_OPTIONS, ids=repr)
def test_invalid_train_option_same_message_everywhere(options):
    system = _system()
    statement = "CREATE MODEL m AS TRAIN linear ON train" + _with_clause(options)
    removed = [name for name in options if name in REMOVED]
    if removed:
        # An option that no longer exists has no plan diagnostic to share:
        # Python refuses the keyword, SQL lists the plan's option fields.
        with pytest.raises(TypeError, match=removed[0]):
            system.train("linear", "train", **options)
        expected = (
            f"unknown CREATE MODEL option {removed[0]!r}; expected one of "
            f"{sorted(option_types(TrainPlan))}"
        )
    else:
        with pytest.raises(ConfigurationError) as api_error:
            system.train("linear", "train", **options)
        expected = f"CREATE MODEL options are invalid: {api_error.value}"
    for sql in (statement, "EXPLAIN " + statement):
        with pytest.raises(QueryError) as sql_error:
            system.database.execute(sql)
        assert _first_line(sql_error.value) == expected
    assert system.registry.names() == []


@pytest.mark.parametrize(
    "kwargs",
    ({"segments": 0}, {"batch_size": 0}, {"execution": "warp"}),
    ids=repr,
)
def test_invalid_score_kwarg_same_message_everywhere(kwargs):
    system = _system()
    system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
    with pytest.raises(ConfigurationError) as api_error:
        system.score_table("linear", "train", model_name="m", **kwargs)
    args = "".join(f", {k} => {_sql_literal(v)}" for k, v in kwargs.items())
    statement = f"SELECT * FROM dana.score('m', 'train'{args})"
    expected = f"dana.score arguments are invalid: {api_error.value}"
    for sql in (statement, "EXPLAIN " + statement):
        with pytest.raises(QueryError) as sql_error:
            system.database.execute(sql)
        assert _first_line(sql_error.value) == expected


@pytest.mark.parametrize(
    "options",
    ({"epochs": True}, {"segments": True}, {"segments": 2, "staleness": True}),
    ids=repr,
)
def test_a_bool_is_not_a_count_at_either_door(options):
    """``bool`` is an ``int`` subclass, but ``segments=True`` is no count:
    the Python API refuses it like SQL does, and nothing trains."""
    system = _system()
    name = next(key for key, value in options.items() if value is True)
    with pytest.raises(ConfigurationError, match=f"{name} must be an integer >= 1"):
        system.train("linear", "train", **options)
    with pytest.raises(QueryError, match=f"option '{name}' expects a int value"):
        system.database.execute(
            "CREATE MODEL m AS TRAIN linear ON train" + _with_clause(options)
        )
    assert system.registry.names() == []


def test_a_bool_is_not_a_scoring_batch_size():
    system = _system()
    system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
    rows = np.zeros((3, N_FEATURES))
    with pytest.raises(ConfigurationError, match="batch_size must be an integer"):
        system.score_table("linear", "train", model_name="m", batch_size=True)
    with pytest.raises(ConfigurationError, match="batch_size must be an integer"):
        system.predict("linear", rows, model_name="m", batch_size=True)


def test_unknown_option_lists_exactly_the_plan_option_fields():
    system = _system()
    option_fields = sorted(
        f.name for f in dataclasses.fields(TrainPlan) if f.metadata.get("option")
    )
    assert option_fields == sorted(option_types(TrainPlan))
    assert len(option_fields) == 7
    with pytest.raises(QueryError) as error:
        system.database.execute(
            "CREATE MODEL m AS TRAIN linear ON train WITH (epoks => 2)"
        )
    assert f"expected one of {option_fields}" in _first_line(error.value)
    # every option is a DAnA.train keyword with the advertised scalar type
    for name, kind in option_types(TrainPlan).items():
        assert kind in (int, bool, str), name


def test_plans_are_frozen():
    system = _system()
    registered = system._registered("linear")
    binary = system.compile_udf("linear", "train")
    train_plan = TrainPlan.resolve(registered, "train", binary, segments=3)
    score_plan = ScorePlan.resolve(registered, "train")
    for plan in (train_plan, score_plan):
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.stream = False
    assert train_plan.as_config()["retry"] is False


# ---------------------------------------------------------------------- #
# the plan is the wire format of a worker process
# ---------------------------------------------------------------------- #
def test_every_grid_plan_round_trips_through_pickle():
    system = _system()
    registered = system._registered("linear")
    binary = system.compile_udf("linear", "train")
    plans = []
    for execution, staleness, stream, segments in itertools.product(
        EXECUTIONS, STALENESS, (True, False), SEGMENTS
    ):
        if execution == "lockstep" and segments == 1:
            continue
        plans.append(
            TrainPlan.resolve(
                registered,
                "train",
                binary,
                execution=execution,
                staleness=staleness,
                stream=stream,
                segments=segments,
                shuffle=True,
                seed=7,
            )
        )
    for execution, stream, segments in itertools.product(
        ("threads", "processes"), (True, False), SEGMENTS
    ):
        plans.append(
            ScorePlan.resolve(
                registered,
                "train",
                execution=execution,
                stream=stream,
                segments=segments,
                batch_size=32,
            )
        )
    for plan in plans:
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.as_config() == plan.as_config()


def test_worker_process_job_ships_the_plan_not_a_copy_of_its_fields():
    system = _system()
    registered = system._registered("linear")
    plan = ScorePlan.resolve(registered, "train", segments=2, execution="processes")
    knobs = {f.name for f in dataclasses.fields(TrainPlan)}
    knobs |= {f.name for f in dataclasses.fields(ScorePlan)}
    # identity of the design to rebuild, not knobs of the run
    knobs -= {"udf", "table", "algorithm"}
    assert knobs.isdisjoint(f.name for f in dataclasses.fields(SegmentJob))
    binary = system.compile_udf("linear", "train")
    with SegmentFanout(
        system.database, binary, registered.spec, plan, system.fpga
    ) as fanout:
        jobs = [process.job for process in fanout.processes]
        assert [job.part for job in jobs] == fanout.parts
        for job in jobs:
            assert job.plan is plan
            assert pickle.loads(pickle.dumps(job)) == job


def test_worker_process_executes_the_shipped_plan():
    """Non-default knobs reach the child only through the plan: the
    per-segment counters they shape must match the in-process fan-out."""
    system = _system()
    models = {"mo": np.linspace(-1.0, 1.0, N_FEATURES)}
    kwargs = dict(models=models, segments=2, batch_size=7, stream=False)
    threads = system.score_table("linear", "train", execution="threads", **kwargs)
    processes = system.score_table("linear", "train", execution="processes", **kwargs)
    np.testing.assert_array_equal(processes.predictions, threads.predictions)
    assert processes.inference_stats == threads.inference_stats
    assert processes.inference_stats.batches_scored > len(processes.segments)
    kwargs = dict(segments=2, shuffle=True, seed=7, staleness=2)
    threads = system.train("linear", "train", execution="threads", **kwargs)
    processes = system.train("linear", "train", execution="processes", **kwargs)
    for name in threads.models:
        np.testing.assert_array_equal(processes.models[name], threads.models[name])
    assert processes.engine_stats == threads.engine_stats


# ---------------------------------------------------------------------- #
# a predict statement's WHERE rides on the plan, and is not a knob
# ---------------------------------------------------------------------- #
def test_where_rides_on_the_score_plan_from_statement_to_record():
    import json

    from repro.rdbms import parse

    system = _system()
    system.save_model("m", "linear", {"mo": np.ones(N_FEATURES)})
    sql = "SELECT dana.predict('m') FROM train WHERE x0 > 0.25 AND y <= 9"
    _entry, plan = system.sql.score_plan(parse(sql))
    assert plan.where.sql == "x0 > 0.25 AND y <= 9.0"
    assert [f.metadata.get("option") for f in dataclasses.fields(ScorePlan)] == [
        None
    ] * len(dataclasses.fields(ScorePlan))
    assert option_types(ScorePlan) == {}

    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan and clone.where == plan.where
    assert json.loads(json.dumps(plan.as_config()))["where"] == plan.where.sql

    system.database.execute(sql)
    assert _last_config(system)["where"] == plan.where.sql
    system.database.execute("SELECT dana.predict('m') FROM train")
    assert _last_config(system)["where"] is None
    # the Python API gained no predicate argument
    with pytest.raises(TypeError):
        system.score_table("linear", "train", model_name="m", where=plan.where)
