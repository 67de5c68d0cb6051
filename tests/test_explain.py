"""EXPLAIN / EXPLAIN ANALYZE: costed plan introspection and traces.

The bit-identity matrix is the load-bearing part: wrapping any statement
in ``EXPLAIN ANALYZE`` must leave its result — trained models, scored
predictions, every counter — bit-identical to the bare statement, across
all four algorithms, segment counts and execution strategies.  The plan
trees must also stay honest: every operator that claims a telemetry span
site has to find matching spans in the captured statement trace.
"""

import numpy as np
import pytest

from repro.algorithms import Hyperparameters, get_algorithm
from repro.core.dana import DAnA
from repro.data.synthetic import generate_for_algorithm
from repro.exceptions import QueryError
from repro.perf import worker_limit
from repro.rdbms import Database
from repro.rdbms.explain import ExplainReport, PlanOperator
from repro.rdbms.query import CreateModel, Explain, ScoreCall, SeqScan, parse

LRMF_TOPOLOGY = (24, 18, 4)
ALGORITHMS = ("linear", "logistic", "svm", "lrmf")
SEGMENT_COUNTS = (1, 2, 4)


def _system(key, n_tuples=192, epochs=2, seed=11, use_striders=True):
    """A fresh DAnA system with one algorithm UDF over a multi-page table."""
    algorithm = get_algorithm(key)
    n_features = 4 if key == "lrmf" else 6
    topology = LRMF_TOPOLOGY if key == "lrmf" else ()
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=8, epochs=epochs)
    spec = algorithm.build_spec(n_features, hyper, topology)
    data = generate_for_algorithm(key, n_tuples, n_features, LRMF_TOPOLOGY, seed=seed)
    database = Database(page_size=2048)
    database.load_table("train", spec.schema, data)
    database.warm_cache("train")
    system = DAnA(database, use_striders=use_striders)
    system.register_udf(key, spec, epochs=epochs)
    return system


def _first_line(error) -> str:
    """The diagnostic line of a QueryError (drops the echoed statement)."""
    return str(error).splitlines()[0]


def _create_model_sql(udf, segments, execution, epochs=2):
    return (
        f"CREATE MODEL m AS TRAIN {udf} ON train WITH (epochs => {epochs}, "
        f"segments => {segments}, execution => '{execution}');"
    )


def _assert_span_coverage(report: ExplainReport) -> None:
    """Every operator claiming a span site found spans, and vice versa."""
    rollup = report.trace["rollup"]
    for op in report.root.walk():
        if op.span_site is not None:
            assert op.actual.get("spans", 0) >= 1, (
                f"operator {op.name} {op.label} claims span site "
                f"{op.span_site} but matched no spans; rollup: {rollup}"
            )
            assert op.span_site in rollup
        else:
            # honest trees: span-less operators never pretend to measure
            assert "spans" not in op.actual


class TestExplainParsing:
    def test_explain_wraps_any_statement(self):
        plan = parse("EXPLAIN SELECT * FROM train;")
        assert isinstance(plan, Explain)
        assert not plan.analyze
        assert isinstance(plan.statement, SeqScan)

    def test_explain_analyze(self):
        plan = parse("EXPLAIN ANALYZE CREATE MODEL m AS TRAIN linear ON train;")
        assert isinstance(plan, Explain)
        assert plan.analyze
        assert isinstance(plan.statement, CreateModel)

    def test_nested_explain_rejected_with_caret(self):
        with pytest.raises(QueryError) as excinfo:
            parse("EXPLAIN EXPLAIN SELECT * FROM train;")
        assert "nested" in str(excinfo.value)
        assert "^" in str(excinfo.value)

    def test_score_execution_kwarg(self):
        plan = parse(
            "SELECT * FROM dana.score('m', 't', execution => 'processes');"
        )
        assert isinstance(plan, ScoreCall)
        assert plan.execution == "processes"
        assert parse("SELECT * FROM dana.score('m', 't');").execution is None

    def test_score_execution_kwarg_must_be_string(self):
        with pytest.raises(QueryError) as excinfo:
            parse("SELECT * FROM dana.score('m', 't', execution => 2);")
        assert "execution" in str(excinfo.value)

    def test_execution_survives_limit_rebuild(self):
        plan = parse(
            "SELECT * FROM dana.score('m', 't', execution => 'threads') LIMIT 5;"
        )
        assert plan.execution == "threads"
        assert plan.limit == 5


class TestExplainStorageStatements:
    def test_seq_scan_tree(self):
        system = _system("linear")
        result = system.database.execute(
            "EXPLAIN SELECT x0, x1 FROM train WHERE x0 > 0.5 LIMIT 10;"
        )
        assert result.columns == ("QUERY PLAN",)
        lines = [row[0] for row in result.rows]
        assert lines[0].startswith("SeqScan train")
        assert any("Filter" in line for line in lines)
        assert any("Limit" in line for line in lines)
        report = result.payload
        assert report.root.predicted["rows"] == 192

    def test_seq_scan_analyze_measures_rows(self):
        system = _system("linear")
        result = system.database.execute(
            "EXPLAIN ANALYZE SELECT * FROM train LIMIT 7;"
        )
        report = result.payload
        assert report.root.actual["rows"] == 7
        assert report.root.actual["wall_seconds"] >= 0.0
        assert report.result is not None and len(report.result.rows) == 7
        assert result.stats["analyze"] is True

    def test_count_star_analyze(self):
        system = _system("linear")
        result = system.database.execute(
            "EXPLAIN ANALYZE SELECT count(*) FROM train;"
        )
        assert result.payload.root.actual["count"] == 192

    def test_unknown_table_fails_like_execution(self):
        system = _system("linear")
        with pytest.raises(QueryError, match="does not exist"):
            system.database.execute("EXPLAIN SELECT * FROM missing;")

    def test_serving_statement_needs_attached_runtime(self):
        database = Database(page_size=2048)
        with pytest.raises(QueryError, match="no DAnA system"):
            database.execute("EXPLAIN SELECT * FROM dana.score('m', 't');")


class TestExplainIsDryRun:
    def test_explain_create_model_trains_nothing(self):
        system = _system("linear")
        recorder = system.enable_run_recording()
        result = system.database.execute(
            "EXPLAIN " + _create_model_sql("linear", 2, "threads")
        )
        assert system.database.catalog.model_names() == []
        assert recorder.runs() == []
        report = result.payload
        assert report.analyze is False and report.result is None
        loop = report.root.children[0]
        assert loop.name == "EpochLoop"
        assert loop.predicted["critical_path_cycles"] > 0
        assert loop.predicted["seconds"] > 0.0
        assert loop.knobs["workers"] == worker_limit(2)

    def test_explain_score_scores_nothing(self):
        system = _system("linear")
        recorder = system.enable_run_recording()
        run = system.train("linear", "train", segments=2)
        system.save_model("m", "linear", run.models)
        runs_before = len(recorder.runs())
        result = system.database.execute(
            "EXPLAIN SELECT * FROM dana.score('m', 'train', segments => 2);"
        )
        assert len(recorder.runs()) == runs_before
        root = result.payload.root
        assert root.name == "ScanScore"
        assert root.predicted["tuples"] == 192
        assert root.predicted["wall_cycles"] > 0
        assert root.predicted["seconds"] > 0.0
        assert root.knobs["workers"] == worker_limit(2)
        segment_ops = [op for op in root.children if op.name == "Segment"]
        assert len(segment_ops) == 2
        assert sum(op.knobs["tuples"] for op in segment_ops) == 192

    def test_invalid_options_fail_like_execution(self):
        sql = _create_model_sql("linear", 1, "lockstep")
        bare = _system("linear")
        with pytest.raises(QueryError) as bare_error:
            bare.database.execute(sql)
        explained = _system("linear")
        with pytest.raises(QueryError) as explain_error:
            explained.database.execute("EXPLAIN " + sql)
        # identical diagnostics; only the echoed statement differs
        assert _first_line(explain_error.value) == _first_line(bare_error.value)

    def test_unknown_model_and_udf_fail_like_execution(self):
        system = _system("linear")
        with pytest.raises(QueryError, match="no saved model"):
            system.database.execute(
                "EXPLAIN SELECT * FROM dana.score('ghost', 'train');"
            )
        with pytest.raises(QueryError, match="not registered"):
            system.database.execute(
                "EXPLAIN CREATE MODEL m AS TRAIN ghost ON train;"
            )


class TestExplainAnalyzeTraining:
    @pytest.mark.slow
    @pytest.mark.parametrize("key", ALGORITHMS)
    @pytest.mark.parametrize("execution", ["lockstep", "threads", "processes"])
    def test_bit_identical_and_span_covered(self, key, execution):
        for segments in SEGMENT_COUNTS:
            sql = _create_model_sql(key, segments, execution)
            if execution == "lockstep" and (segments == 1 or key == "lrmf"):
                # invalid combos must fail identically, explained or not
                with pytest.raises(QueryError) as bare_error:
                    _system(key).database.execute(sql)
                with pytest.raises(QueryError) as explain_error:
                    _system(key).database.execute("EXPLAIN ANALYZE " + sql)
                assert _first_line(explain_error.value) == _first_line(
                    bare_error.value
                )
                continue
            bare = _system(key)
            bare_result = bare.database.execute(sql)
            explained = _system(key)
            result = explained.database.execute("EXPLAIN ANALYZE " + sql)
            report = result.payload
            assert report.result.rows == bare_result.rows
            bare_models = bare.load_model("m")
            explained_models = explained.load_model("m")
            assert sorted(bare_models) == sorted(explained_models)
            for name, value in bare_models.items():
                assert np.array_equal(value, explained_models[name]), (
                    f"{key}/{execution}/segments={segments}: parameter "
                    f"{name} drifted under EXPLAIN ANALYZE"
                )
            _assert_span_coverage(report)
            loop = report.root.children[0]
            assert loop.knobs["mode"] == (
                execution if execution != "lockstep" else "lockstep"
            )
            # epoch spans sum the epochs the driver executed (mode-dependent
            # window accounting, so a lower bound only)
            assert loop.actual["executed"] >= 2

    def test_single_accelerator_tree(self):
        # segments omitted → the classic single-accelerator path: its epochs
        # run through the EpochDriver too, page walk measured in-process
        system = _system("linear")
        result = system.database.execute(
            "EXPLAIN ANALYZE CREATE MODEL m AS TRAIN linear ON train "
            "WITH (epochs => 2);"
        )
        report = result.payload
        train = report.root.children[0]
        assert train.name == "Train"
        assert train.knobs["mode"] == "single"
        assert train.span_site == "runtime.epoch"
        assert train.actual["spans"] == train.actual["executed"] == 2
        walk = train.children[0]
        assert walk.name == "StriderPageWalk"
        assert walk.actual["spans"] >= 1
        assert report.root.actual["version"] == 1
        assert report.root.actual["epochs_run"] == 2
        _assert_span_coverage(report)

    def test_udf_call_tree(self):
        system = _system("linear")
        result = system.database.execute(
            "EXPLAIN ANALYZE SELECT * FROM dana.linear('train');"
        )
        report = result.payload
        assert report.root.name == "AcceleratedUDF"
        assert report.root.actual["tuples_extracted"] > 0
        assert report.root.actual["engine_cycles"] > 0
        _assert_span_coverage(report)


# ---------------------------------------------------------------------- #
# predict = run: EXPLAIN prices a plan with the functions the run books with
# ---------------------------------------------------------------------- #
def _grid_system(key, shape, use_striders, segments=3):
    """A system whose table deals ``segments`` partitions evenly or raggedly.

    ``even``: six full pages (two per segment, every batch full-sized
    boundaries aside); ``ragged``: seven pages, the last one partial, so
    one segment holds an extra page and the tuple counts differ.
    """
    algorithm = get_algorithm(key)
    n_features = 4 if key == "lrmf" else 6
    grid_topology = (40, 30, 4)  # enough matrix cells for seven pages of ratings
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=8, epochs=3)
    spec = algorithm.build_spec(n_features, hyper, grid_topology if key == "lrmf" else ())
    database = Database(page_size=2048)
    per_page = database.layout.tuples_per_page(spec.schema)
    n_tuples = 2 * segments * per_page + (per_page // 3 + 5 if shape == "ragged" else 0)
    data = generate_for_algorithm(key, n_tuples + 40, n_features, grid_topology, seed=11)
    assert len(data) == n_tuples + 40
    database.load_table("train", spec.schema, data[:n_tuples])
    system = DAnA(database, use_striders=use_striders)
    system.register_udf(key, spec, epochs=3)
    return system, data[n_tuples:]


def _train_plans(system, key):
    """Resolved plans over {single, lockstep, threads} x staleness {1, 2}."""
    from repro.core import TrainPlan

    knob_sets = [{}]
    for execution in ("lockstep", "threads"):
        if execution == "lockstep" and key == "lrmf":
            continue  # row-addressed graphs cannot carry a segment axis
        for staleness in (1, 2):
            knob_sets.append(
                {"segments": 3, "execution": execution, "staleness": staleness}
            )
    return [
        TrainPlan.resolve(
            system._registered(key),
            "train",
            system.compile_udf(key, "train"),
            use_striders=system.use_striders,
            epochs=3,
            **knobs,
        )
        for knobs in knob_sets
    ]


def _score_plans(system, key, where=None):
    from repro.core import ScorePlan

    return [
        ScorePlan.resolve(
            system._registered(key),
            "train",
            use_striders=system.use_striders,
            batch_size=32,
            where=where,
            **knobs,
        )
        for knobs in ({}, {"segments": 3}, {"segments": 3, "stream": False})
    ]


class TestPredictedEqualsActual:
    @pytest.mark.parametrize("use_striders", (True, False))
    @pytest.mark.parametrize("shape", ("even", "ragged"))
    @pytest.mark.parametrize("key", ALGORITHMS)
    def test_cost_objects_are_equal_field_for_field(self, key, shape, use_striders):
        """The grid: predicted cost == the executed run's measured cost, as
        whole cost objects (per-segment access / engine / forward cycles,
        cross-merge cycles, merges, both critical paths), on the bulk-loaded
        table and again once ``insert_rows`` appended a partial tail page."""
        from repro.core.explain import price
        from repro.perf import ScoreRunCost, ShardedRunCost

        system, extra_rows = _grid_system(key, shape, use_striders)
        models = None
        for inserted in (False, True):
            if inserted:
                system.database.insert_rows("train", extra_rows[:17])
            for plan in _train_plans(system, key):
                predicted = price(system, plan)[2]
                run = system._train(plan)
                actual = ShardedRunCost.from_run(run)
                assert actual.epochs_run == 3, "the grid must not converge early"
                assert predicted == actual, (plan.execution, plan.staleness, inserted)
                if plan.segments is not None:
                    assert predicted.critical_path_cycles == run.critical_path_cycles
                assert (predicted.segment_access_cycles[0] > 0) is use_striders
                models = run.models
            for plan in _score_plans(system, key):
                predicted = price(system, plan)[2]
                result = system._score(plan, models)
                assert predicted == ScoreRunCost.from_result(result), (plan, inserted)
                assert predicted.critical_path_cycles == result.critical_path_cycles

    @pytest.mark.parametrize("use_striders", (True, False))
    def test_filtered_predict_access_equal_forward_upper_bound(self, use_striders):
        from repro.core.explain import price
        from repro.perf import ScoreRunCost
        from repro.rdbms.predicate import ColumnPredicate

        system, _extra = _grid_system("linear", "ragged", use_striders)
        where = ColumnPredicate.compile(
            system.database.table("train").schema,
            parse("SELECT * FROM train WHERE x0 > 0.2").where,
        )
        models = {"mo": np.linspace(-1.0, 1.0, 6)}
        for plan in _score_plans(system, "linear", where):
            predicted = price(system, plan)[2]
            actual = ScoreRunCost.from_result(system._score(plan, models))
            assert predicted.segment_access_cycles == actual.segment_access_cycles
            assert 0 < actual.tuples_scored < predicted.tuples_scored
            for bound, booked in zip(
                predicted.segment_forward_cycles, actual.segment_forward_cycles
            ):
                assert 0 < booked <= bound

    def test_page_walk_is_not_under_priced(self):
        """Regression: the restated estimator forgot the line-pointer READB —
        one cycle per tuple of each wave's critical page (4084 vs 4229)."""
        system = _wide_system(3000, 10)
        report = system.database.execute(
            "EXPLAIN ANALYZE SELECT dana.predict('m') FROM train"
        ).payload
        walk = next(op for op in report.root.walk() if op.name == "StriderPageWalk")
        segment = report.result.payload.segments[0]
        assert segment.access_stats.access_cycles == 4229
        assert walk.predicted["access_cycles"] == 4229 == walk.actual["access_cycles"]
        assert report.root.predicted["wall_cycles"] == report.root.actual["wall_cycles"]
        sharded = _wide_system(5000, 16).database.execute(
            "EXPLAIN CREATE MODEL m2 AS TRAIN linear ON train WITH (segments => 4)"
        ).payload.root.children[0]
        assert [
            op.predicted["access_cycles"]
            for op in sharded.children
            if op.name == "SegmentTrain"
        ] == [3453, 3453, 3376, 3376]

    def test_prediction_takes_the_extraction_decision(self):
        """Regression: with ``use_striders=False`` EXPLAIN still priced a
        Strider walk for a statement whose run books no access activity."""
        system = _wide_system(3000, 10, use_striders=False)
        report = system.database.execute(
            "EXPLAIN ANALYZE SELECT dana.predict('m') FROM train"
        ).payload
        walk = next(op for op in report.root.walk() if op.name == "StriderPageWalk")
        assert walk.span_site is None
        assert walk.predicted == walk.actual == {"access_cycles": 0}
        root = report.root
        assert root.predicted["wall_cycles"] == root.actual["wall_cycles"] == 2250
        _assert_span_coverage(report)

    @pytest.mark.parametrize(
        "options,operators,staleness",
        [
            ("", {"Train", "StriderPageWalk"}, None),
            (
                " WITH (segments => 3, execution => 'threads', epochs => 3, "
                "staleness => 2)",
                {"EpochLoop", "SegmentTrain", "MergeModels", "StriderPageWalk"},
                2,
            ),
            (
                " WITH (segments => 3, epochs => 3, staleness => 8)",
                {"EpochLoop", "SegmentTrain", "MergeModels", "StriderPageWalk"},
                8,
            ),
        ],
    )
    def test_training_statements_print_actual_cycles(
        self, options, operators, staleness
    ):
        """Regression: training trees printed ``actual: version, epochs_run,
        wall_seconds`` only.  Every costed operator now carries the run's
        measured cycles, built by the constructor its predicted line uses."""
        system = _system("linear", n_tuples=500)
        report = system.database.execute(
            "EXPLAIN ANALYZE CREATE MODEL m AS TRAIN linear ON train" + options
        ).payload
        costed = set()
        for op in report.root.walk():
            shared = [
                key
                for key in op.predicted
                if key in op.actual and (key.endswith("cycles") or key == "merges")
            ]
            for key in shared:
                assert op.predicted[key] == op.actual[key], (op.name, op.label, key)
            if shared:
                costed.add(op.name)
        assert costed == operators
        cost = report.result.stats["cost"]
        loop = report.root.children[0]
        assert loop.actual["critical_path_cycles"] == cost.critical_path_cycles > 0
        if staleness is not None:
            # staleness alone sets the cadence: ceil(3 epochs / staleness)
            (merge_op,) = [op for op in loop.children if op.name == "MergeModels"]
            merges = -(-3 // staleness)
            assert merge_op.predicted["merges"] == merge_op.actual["merges"] == merges
            assert loop.knobs["staleness"] == staleness
        _assert_span_coverage(report)


def _wide_system(n_tuples, n_features, use_striders=True):
    """The issue's repro tables: 8 KiB pages, a saved zero model ``m``."""
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=8, epochs=2)
    spec = get_algorithm("linear").build_spec(n_features, hyper, ())
    data = generate_for_algorithm("linear", n_tuples, n_features, seed=3)
    database = Database(page_size=8192)
    database.load_table("train", spec.schema, data)
    system = DAnA(database, use_striders=use_striders)
    system.register_udf("linear", spec, epochs=2)
    system.save_model("m", "linear", {"mo": np.zeros(n_features)})
    return system


class TestExplainAnalyzeScoring:
    @pytest.mark.parametrize("execution", ["threads", "processes"])
    def test_acceptance_path(self, execution):
        """The issue's acceptance statement, for both scoring fan-outs."""
        bare = _system("linear")
        run = bare.train("linear", "train", segments=2)
        bare.save_model("m", "linear", run.models)
        sql = (
            "SELECT * FROM dana.score('m', 'train', segments => 2, "
            f"execution => '{execution}');"
        )
        bare_result = bare.database.execute(sql)

        explained = _system("linear")
        explained.enable_run_recording()
        run = explained.train("linear", "train", segments=2)
        explained.save_model("m", "linear", run.models)
        result = explained.database.execute("EXPLAIN ANALYZE " + sql)
        report = result.payload
        # bit-identical predictions
        assert report.result.rows == bare_result.rows
        # predicted cycles/seconds and measured wall/rows/retries rendered
        root = report.root
        assert root.predicted["wall_cycles"] > 0
        assert root.predicted["seconds"] > 0.0
        assert root.actual["wall_seconds"] > 0.0
        assert root.actual["rows"] == 192
        assert root.actual["retries"] == 0
        assert root.actual["workers"] == worker_limit(2)
        rendered = "\n".join(row[0] for row in result.rows)
        assert "predicted:" in rendered and "actual:" in rendered
        _assert_span_coverage(report)
        # trace round-trips through the run registry
        run_id = result.stats["run_id"]
        assert report.run_id == run_id
        detail = explained.run_recorder.run_detail(run_id)
        assert detail["trace"]["plan"] == [row[0] for row in result.rows]
        assert detail["trace"]["operators"]["name"] == "ScanScore"
        assert detail["trace"]["rollup"]["serving.scorer.segment"]["count"] == 2

    @pytest.mark.slow
    @pytest.mark.parametrize("key", ALGORITHMS)
    def test_bit_identical_across_segment_counts(self, key):
        for segments in SEGMENT_COUNTS:
            bare = _system(key)
            run = bare.train(key, "train", segments=2)
            bare.save_model("m", key, run.models)
            sql = f"SELECT * FROM dana.score('m', 'train', segments => {segments});"
            bare_result = bare.database.execute(sql)
            explained = _system(key)
            run = explained.train(key, "train", segments=2)
            explained.save_model("m", key, run.models)
            result = explained.database.execute("EXPLAIN ANALYZE " + sql)
            report = result.payload
            assert report.result.rows == bare_result.rows
            _assert_span_coverage(report)

    def test_predict_scan_tree_with_filter(self):
        system = _system("linear")
        run = system.train("linear", "train", segments=2)
        system.save_model("m", "linear", run.models)
        result = system.database.execute(
            "EXPLAIN ANALYZE SELECT dana.predict('m') FROM train "
            "WHERE x0 > 0.0 LIMIT 5;"
        )
        report = result.payload
        names = [op.name for op in report.root.walk()]
        assert "Filter" in names and "Limit" in names
        assert report.root.actual["rows"] <= 5
        _assert_span_coverage(report)
        # the filter is pushed below the forward tape: it hangs off the page
        # walk, and LIMIT alone still applies to the predictions
        walk = next(op for op in report.root.children if op.name == "StriderPageWalk")
        (filter_op,) = walk.children
        assert filter_op.name == "Filter"
        assert filter_op.knobs == {"predicates": "x0 > 0.0", "pushed_down": True}
        assert "upper bound" in filter_op.predicted["forward_cycles"]
        assert [op.name for op in report.root.children][-1] == "Limit"
        assert "pushed_down=on" in "\n".join(row[0] for row in result.rows)
        # predicted forward cycles price every scanned tuple; the run scored
        # (and booked) the qualifying ones only
        actual = report.root.actual
        assert actual["tuples_scanned"] == report.root.predicted["tuples"] == 192
        assert 5 <= actual["tuples"] < actual["tuples_scanned"]
        assert actual["forward_cycles"] < sum(
            op.predicted["forward_cycles"]
            for op in report.root.children
            if op.name == "Segment"
        )
        assert report.result.stats["tuples_scanned"] == 192
        assert report.result.stats["tuples_scored"] == actual["tuples"]

    def test_storage_scan_trees_keep_their_shape(self):
        system = _system("linear")
        for sql, root_name, children in (
            ("SELECT * FROM train WHERE x0 > 0.5 LIMIT 3", "SeqScan", ["Filter", "Limit"]),
            ("SELECT count(*) FROM train WHERE x0 > 0.5", "CountScan", ["Filter"]),
        ):
            root = system.database.execute("EXPLAIN " + sql).payload.root
            assert root.name == root_name
            assert [op.name for op in root.children] == children
            assert root.children[0].knobs == {"predicates": "x0 > 0.5"}


class TestWorkerClamp:
    def test_score_result_worker_limit(self):
        system = _system("linear")
        run = system.train("linear", "train", segments=2)
        system.save_model("m", "linear", run.models)
        for execution in ("threads", "processes"):
            score = system.score_table(
                "linear", "train", model_name="m", segments=2, execution=execution
            )
            assert score.worker_limit == worker_limit(2)

    def test_cluster_stats_worker_limit(self):
        system = _system("linear")
        run = system.train("linear", "train", segments=4, execution="threads")
        assert run.cluster.worker_limit == worker_limit(4)
        system = _system("linear")
        run = system.train("linear", "train", segments=2, execution="lockstep")
        assert run.cluster.worker_limit == 0

    def test_process_pool_worker_limit(self):
        system = _system("linear")
        run = system.train("linear", "train", segments=2, execution="processes")
        assert run.cluster.worker_limit == worker_limit(2)


class TestExplainReportShape:
    def test_payload_round_trips_as_json(self):
        import json

        system = _system("linear")
        system.enable_run_recording()
        result = system.database.execute(
            "EXPLAIN ANALYZE " + _create_model_sql("linear", 2, "threads")
        )
        payload = result.payload.to_payload()
        decoded = json.loads(json.dumps(payload))
        assert decoded["analyze"] is True
        assert decoded["operators"]["children"]
        assert decoded["plan"] == [row[0] for row in result.rows]

    def test_operator_walk_and_render(self):
        root = PlanOperator(
            name="A",
            knobs={"k": 1},
            predicted={"cycles": 2},
            children=[PlanOperator(name="B"), PlanOperator(name="C")],
        )
        assert [op.name for op in root.walk()] == ["A", "B", "C"]
        lines = root.render()
        assert lines[0] == "A  (k=1)"
        assert any(line.startswith("├─ B") for line in lines)
        assert any(line.startswith("└─ C") for line in lines)
