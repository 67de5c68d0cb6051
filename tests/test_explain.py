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


def _system(key, n_tuples=192, epochs=2, seed=11):
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
    system = DAnA(database)
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

    def test_explain_predicted_cost_matches_dedicated_predictor(self):
        # the tree's numbers must be the perf package's, not a re-derivation
        from repro.perf import page_tuple_counts, predict_score_cost

        system = _system("linear")
        run = system.train("linear", "train", segments=1)
        system.save_model("m", "linear", run.models)
        result = system.database.execute(
            "EXPLAIN SELECT * FROM dana.score('m', 'train');"
        )
        root = result.payload.root
        registered = system._registered("linear")
        entry = system.database.catalog.table("train")
        pages = system.database.storage.page_count(entry.file_name)
        counts = page_tuple_counts(
            range(pages),
            entry.tuple_count,
            system.database.table("train").tuples_per_page(),
        )
        cost = predict_score_cost(
            registered.accelerators["train"].access_engine,
            system._inference_plan(registered, "train"),
            [counts],
        )
        assert root.predicted["wall_cycles"] == cost.wall_cycles
        assert root.predicted["seconds"] == cost.seconds(system.fpga)

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
        # segments omitted → the classic single-accelerator path: no epoch
        # driver (span-less Train operator), page walk measured in-process
        system = _system("linear")
        result = system.database.execute(
            "EXPLAIN ANALYZE CREATE MODEL m AS TRAIN linear ON train "
            "WITH (epochs => 2);"
        )
        report = result.payload
        train = report.root.children[0]
        assert train.name == "Train"
        assert train.knobs["mode"] == "single"
        assert train.span_site is None
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
