"""SQL prediction surface: parser, planner, executor, serving routing.

Covers the PR-5 contract:

* the recursive-descent parser produces the right plan nodes for every
  supported statement shape, and every parse error echoes the statement
  with a caret at the offending position;
* ``SELECT dana.predict(...)`` predictions are **bit-identical** to
  ``DAnA.score_table`` for all four algorithms (the SQL surface routes
  through the same batched inference tape and bulk Strider scan — no
  Python detour);
* ``CREATE MODEL`` / ``DROP MODEL`` / ``SHOW MODELS`` round through the
  registry and catalog;
* streaming scan-and-score (``stream=True``) is bit-identical — models,
  counters, storage order — to the materialized oracle;
* edge cases: unknown model version, empty tables, ``LIMIT 0``, malformed
  ``segments =>`` kwargs, WHERE on unknown columns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import Hyperparameters, get_algorithm
from repro.core import DAnA
from repro.data.synthetic import generate_for_algorithm
from repro.exceptions import QueryError
from repro.rdbms import (
    Comparison,
    CountScan,
    CreateModel,
    Database,
    DropModel,
    PredictScan,
    ScoreCall,
    SeqScan,
    ShowModels,
    UDFCall,
    parse,
)

N_FEATURES = 8
N_TUPLES = 600
LRMF_TOPOLOGY = (24, 18, 4)

ALL_ALGORITHMS = ("linear", "logistic", "svm", "lrmf")


def build_system(algorithm_key: str = "linear", n_tuples: int = N_TUPLES):
    """A DAnA instance with one registered UDF and a loaded table ``t``."""
    algorithm = get_algorithm(algorithm_key)
    if algorithm_key == "lrmf":
        hyper = Hyperparameters(learning_rate=0.05, epochs=2, rank=LRMF_TOPOLOGY[2])
        spec = algorithm.build_spec(0, hyper, model_topology=LRMF_TOPOLOGY)
        data = generate_for_algorithm(
            algorithm_key, n_tuples, LRMF_TOPOLOGY[2], seed=0,
            model_topology=LRMF_TOPOLOGY[:2],
        )
    else:
        hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=16, epochs=2)
        spec = algorithm.build_spec(N_FEATURES, hyper)
        data = generate_for_algorithm(algorithm_key, n_tuples, N_FEATURES, seed=0)
    database = Database()
    database.load_table("t", spec.schema, data)
    system = DAnA(database)
    system.register_udf(algorithm_key, spec, epochs=2)
    return system, spec, data


# ---------------------------------------------------------------------- #
# parser: plan nodes
# ---------------------------------------------------------------------- #
class TestParser:
    def test_predict_scan_full_form(self):
        plan = parse(
            "SELECT dana.predict('prices', version => 2) AS yhat "
            "FROM houses WHERE x0 > 0.5 AND x1 <= 3 LIMIT 10;"
        )
        assert plan == PredictScan(
            model_name="prices",
            table_name="houses",
            version=2,
            where=(
                Comparison("x0", ">", 0.5),
                Comparison("x1", "<=", 3.0),
            ),
            limit=10,
            alias="yhat",
        )

    def test_predict_scan_minimal(self):
        plan = parse("select dana.predict('m') from t")
        assert plan == PredictScan(model_name="m", table_name="t")

    def test_score_call_with_kwargs(self):
        plan = parse(
            "SELECT * FROM dana.score('m', 't', segments => 4, "
            "version => 1, batch_size => 128, stream => false) LIMIT 3"
        )
        assert plan == ScoreCall(
            model_name="m",
            table_name="t",
            version=1,
            segments=4,
            batch_size=128,
            stream=False,
            limit=3,
        )

    def test_create_model_with_options(self):
        plan = parse(
            "CREATE MODEL prices AS TRAIN linearR ON houses "
            "WITH (epochs => 4, segments => 2, execution => 'threads', "
            "shuffle => true)"
        )
        assert plan == CreateModel(
            model_name="prices",
            udf_name="linearR",
            table_name="houses",
            options=(
                ("epochs", 4),
                ("segments", 2),
                ("execution", "threads"),
                ("shuffle", True),
            ),
        )

    def test_drop_and_show(self):
        assert parse("DROP MODEL m") == DropModel(model_name="m")
        assert parse("DROP MODEL m VERSION 3;") == DropModel(
            model_name="m", version=3
        )
        assert parse("SHOW MODELS") == ShowModels()

    def test_legacy_shapes_still_parse(self):
        assert parse("SELECT * FROM train") == SeqScan(table_name="train")
        assert parse("SELECT x0, y FROM train;") == SeqScan(
            table_name="train", columns=("x0", "y")
        )
        assert parse("SELECT count(*) FROM train") == CountScan(table_name="train")
        plan = parse("SELECT * FROM dana.linearR('training_data_table');")
        assert plan == UDFCall(udf_name="linearR", table_name="training_data_table")

    def test_scan_gains_where_and_limit(self):
        plan = parse("SELECT * FROM t WHERE y = 1 LIMIT 5")
        assert plan == SeqScan(
            table_name="t", where=(Comparison("y", "=", 1.0),), limit=5
        )

    def test_signed_and_exponent_literals(self):
        """A number may carry a leading ``-`` and an exponent wherever the
        grammar takes one; an integer slot still refuses both forms of
        non-integer."""
        plan = parse("SELECT * FROM t WHERE x0 > -0.5 AND x1 <= 1.5E2 AND x2 = -3")
        assert plan.where == (
            Comparison("x0", ">", -0.5),
            Comparison("x1", "<=", 150.0),
            Comparison("x2", "=", -3.0),
        )
        plan = parse(
            "CREATE MODEL m AS TRAIN u ON t "
            "WITH (learning_rate => 1e-3, seed => -7, epochs => 2.5e1)"
        )
        assert plan.options == (("learning_rate", 1e-3), ("seed", -7), ("epochs", 25.0))
        assert type(plan.options[1][1]) is int
        assert parse("SELECT * FROM dana.score('m', 't', batch_size => -1)").batch_size == -1
        for bad in ("1e3", "2.0", "-1E2"):
            with pytest.raises(QueryError, match="integer after LIMIT"):
                parse(f"SELECT * FROM t LIMIT {bad}")
        with pytest.raises(QueryError, match="unexpected character '-'"):
            parse("SELECT * FROM t WHERE x0 > - 1")

    def test_model_and_train_are_valid_names(self):
        # Only structurally ambiguous words are reserved.
        plan = parse("SELECT * FROM model")
        assert plan == SeqScan(table_name="model")
        assert parse("CREATE MODEL train AS TRAIN version ON models") == CreateModel(
            model_name="train", udf_name="version", table_name="models"
        )


# ---------------------------------------------------------------------- #
# parser: caret diagnostics
# ---------------------------------------------------------------------- #
class TestParserErrors:
    @pytest.mark.parametrize(
        "sql, fragment",
        [
            ("DELETE FROM t", "unsupported statement"),
            ("SELECT dana.predict('m') FROM t LIMIT x", "integer after LIMIT"),
            ("SELECT * FROM dana.score('m', 't', segments = 2)", "'=>'"),
            ("SELECT * FROM dana.score('m', 't', segmnts => 2)", "unknown argument"),
            ("SELECT * FROM dana.score('m', 't', stream => 2)", "true or false"),
            ("SELECT * FROM dana.score('m')", "'<model>', '<table>'"),
            ("SELECT dana.predict(m) FROM t", "quoted model"),
            ("SELECT dana.predict('m') FROM t WHERE x0 * 1", "comparison operator"),
            ("SELECT * FROM t WHERE x0 = ", "number, quoted string"),
            ("CREATE MODEL m AS TRAIN", "UDF name after TRAIN"),
            ("CREATE MODEL m AS TRAIN u ON t WITH (epochs 2)", "'=>'"),
            ("SELECT * FROM t LIMIT 3 garbage", "trailing input"),
            ("SELECT dana.sigmoid('m') FROM t", "dana.predict"),
            ("SELECT * FROM dana.predict('m')", "select list"),
            ("SELECT x0 FROM dana.linearR('t')", "SELECT *"),
            ("SELECT ^ FROM t", "unexpected character"),
        ],
    )
    def test_errors_echo_statement_with_caret(self, sql, fragment):
        with pytest.raises(QueryError) as excinfo:
            parse(sql)
        message = str(excinfo.value)
        assert fragment in message
        # The statement is echoed and a caret marks the position.
        assert sql.splitlines()[0].strip()[:10] in message
        assert "^" in message
        assert excinfo.value.statement == sql
        assert isinstance(excinfo.value.position, int)

    def test_caret_points_at_offending_token(self):
        sql = "SELECT * FROM dana.score('m', 't', segments => 'four')"
        with pytest.raises(QueryError) as excinfo:
            parse(sql)
        assert excinfo.value.position == sql.index("'four'")

    def test_executor_errors_echo_statement(self):
        system, _spec, _data = build_system()
        with pytest.raises(QueryError, match="in statement"):
            system.database.execute("SELECT * FROM missing_table")


# ---------------------------------------------------------------------- #
# executor: predictions through SQL
# ---------------------------------------------------------------------- #
class TestSQLPredict:
    @pytest.mark.parametrize("key", ALL_ALGORITHMS)
    def test_sql_predict_bit_identical_to_score_table(self, key):
        system, _spec, _data = build_system(key)
        models = system.train(key, "t", epochs=2).models
        system.save_model("m", key, models)
        direct = system.score_table(key, "t", model_name="m")
        result = system.database.execute("SELECT dana.predict('m') FROM t")
        assert result.columns == ("prediction",)
        assert len(result) == direct.tuples_scored
        sql_predictions = np.array([row[0] for row in result.rows])
        np.testing.assert_array_equal(sql_predictions, direct.predictions)
        # The payload is the underlying ScoreResult: same tape counters.
        assert result.payload.inference_stats == direct.inference_stats
        assert result.stats["forward_cycles"] > 0

    def test_sql_score_call_matches_predict(self):
        system, _spec, _data = build_system()
        models = system.train("linear", "t", epochs=2).models
        system.save_model("m", "linear", models)
        via_predict = system.database.execute("SELECT dana.predict('m') FROM t")
        via_score = system.database.execute(
            "SELECT * FROM dana.score('m', 't', segments => 2)"
        )
        np.testing.assert_array_equal(
            [r[0] for r in via_predict.rows], [r[0] for r in via_score.rows]
        )
        assert via_score.stats["segments"] == 2

    def test_where_and_limit_select_storage_order_rows(self):
        system, _spec, data = build_system()
        models = system.train("linear", "t", epochs=2).models
        system.save_model("m", "linear", models)
        direct = system.score_table("linear", "t", model_name="m")
        scanned = np.array(
            list(system.database.table("t").scan_tuples(system.database.buffer_pool))
        )
        mask = scanned[:, 0] > 0
        result = system.database.execute(
            "SELECT dana.predict('m') FROM t WHERE x0 > 0 LIMIT 7"
        )
        np.testing.assert_array_equal(
            np.array([row[0] for row in result.rows]),
            direct.predictions[mask][:7],
        )

    def test_negative_where_threshold_selects_score_table_rows(self):
        """A standardised feature below zero is writable: the filtered
        statement returns exactly those rows of the unfiltered scan."""
        system, _spec, _data = build_system()
        models = system.train("linear", "t", epochs=2).models
        system.save_model("m", "linear", models)
        direct = system.score_table("linear", "t", model_name="m", stream=False)
        stored = np.array(
            list(system.database.table("t").scan_tuples(system.database.buffer_pool))
        )
        mask = stored[:, 0] > -0.5
        assert 0 < mask.sum() < len(mask)
        result = system.database.execute(
            "SELECT dana.predict('m') FROM t WHERE x0 > -0.5"
        )
        np.testing.assert_array_equal(
            result.payload.predictions, direct.predictions[mask]
        )
        assert result.stats["tuples_scored"] == mask.sum()

    def test_alias_names_the_output_column(self):
        system, _spec, _data = build_system()
        system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
        result = system.database.execute(
            "SELECT dana.predict('m') AS yhat FROM t LIMIT 1"
        )
        assert result.columns == ("yhat",)

    def test_predict_specific_version(self):
        system, _spec, data = build_system()
        system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
        system.save_model("m", "linear", {"mo": np.ones(N_FEATURES)})
        v1 = system.database.execute(
            "SELECT dana.predict('m', version => 1) FROM t LIMIT 3"
        )
        latest = system.database.execute("SELECT dana.predict('m') FROM t LIMIT 3")
        assert all(row[0] == 0.0 for row in v1.rows)
        # float4 on-page storage: compare against the original rows loosely.
        expected = np.sum(data[:3, :N_FEATURES], axis=1)
        np.testing.assert_allclose(
            [row[0] for row in latest.rows], expected, rtol=1e-6, atol=1e-5
        )
        assert v1.stats["version"] == 1 and latest.stats["version"] == 2


# ---------------------------------------------------------------------- #
# executor: model management statements
# ---------------------------------------------------------------------- #
class TestModelManagement:
    def test_create_model_trains_and_persists(self):
        system, _spec, _data = build_system()
        result = system.database.execute(
            "CREATE MODEL prices AS TRAIN linear ON t "
            "WITH (epochs => 2, segments => 2)"
        )
        assert result.columns == ("model", "version", "algorithm", "epochs_run")
        ((name, version, algorithm, epochs_run),) = result.rows
        assert (name, version, algorithm, epochs_run) == ("prices", 1, "linear", 2)
        # The persisted model is the same the Python API would have trained.
        expected = system.train("linear", "t", epochs=2, segments=2).models
        loaded = system.load_model("prices")
        for key, value in expected.items():
            np.testing.assert_array_equal(loaded[key], np.asarray(value, np.float64))
        assert result.payload.metadata["sql_options"] == {
            "epochs": 2, "segments": 2,
        }

    def test_create_model_versions_increment(self):
        system, _spec, _data = build_system()
        sql = "CREATE MODEL m AS TRAIN linear ON t WITH (epochs => 1)"
        assert system.database.execute(sql).rows[0][1] == 1
        assert system.database.execute(sql).rows[0][1] == 2
        assert system.registry.versions("m") == [1, 2]

    def test_show_models_lists_catalog_entries(self):
        system, _spec, _data = build_system()
        assert system.database.execute("SHOW MODELS").rows == []
        system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
        ((name, version, algorithm, table_name, params),) = (
            system.database.execute("SHOW MODELS").rows
        )
        assert (name, version, algorithm) == ("m", 1, "linear")
        assert table_name == "dana_model__m__v1"
        assert params == f"mo({N_FEATURES})"

    def test_drop_model_removes_tables_and_catalog_entries(self):
        system, _spec, _data = build_system()
        system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
        system.save_model("m", "linear", {"mo": np.ones(N_FEATURES)})
        result = system.database.execute("DROP MODEL m VERSION 1")
        assert result.rows == [("m", 1)]
        assert not system.database.catalog.has_table("dana_model__m__v1")
        assert system.database.catalog.has_table("dana_model__m__v2")
        assert system.registry.versions("m") == [2]
        result = system.database.execute("DROP MODEL m")
        assert result.rows == [("m", 2)]
        assert system.registry.names() == []

    def test_create_model_rejects_unknown_options_and_udfs(self):
        system, _spec, _data = build_system()
        with pytest.raises(QueryError, match="unknown CREATE MODEL option"):
            system.database.execute(
                "CREATE MODEL m AS TRAIN linear ON t WITH (epoks => 2)"
            )
        with pytest.raises(QueryError, match="not registered"):
            system.database.execute("CREATE MODEL m AS TRAIN ghost ON t")
        with pytest.raises(QueryError, match="does not exist"):
            system.database.execute("CREATE MODEL m AS TRAIN linear ON ghost")
        with pytest.raises(QueryError, match="options are invalid"):
            system.database.execute(
                "CREATE MODEL m AS TRAIN linear ON t WITH (execution => 'psycho')"
            )
        with pytest.raises(QueryError, match="integer"):
            system.database.execute(
                "CREATE MODEL m AS TRAIN linear ON t WITH (epochs => 2.5)"
            )


# ---------------------------------------------------------------------- #
# edge cases
# ---------------------------------------------------------------------- #
class TestEdgeCases:
    def test_unknown_model_and_version_fail_cleanly(self):
        system, _spec, _data = build_system()
        with pytest.raises(QueryError, match="no saved model"):
            system.database.execute("SELECT dana.predict('ghost') FROM t")
        system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
        with pytest.raises(QueryError, match="no version 9"):
            system.database.execute(
                "SELECT dana.predict('m', version => 9) FROM t"
            )
        with pytest.raises(QueryError, match="no version 9"):
            system.database.execute(
                "SELECT * FROM dana.score('m', 't', version => 9)"
            )

    def test_predict_against_empty_table(self):
        system, spec, _data = build_system()
        system.database.load_table(
            "empty", spec.schema, np.empty((0, N_FEATURES + 1))
        )
        system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
        result = system.database.execute("SELECT dana.predict('m') FROM empty")
        assert result.rows == []
        assert result.stats["tuples_scored"] == 0
        streamed = system.score_table(
            "linear", "empty", model_name="m", stream=True
        )
        assert streamed.predictions.shape[0] == 0

    def test_limit_zero_returns_no_rows(self):
        system, _spec, _data = build_system()
        system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
        result = system.database.execute(
            "SELECT dana.predict('m') FROM t LIMIT 0"
        )
        assert result.rows == []
        assert len(system.database.execute("SELECT * FROM t LIMIT 0")) == 0

    def test_malformed_segments_kwarg(self):
        system, _spec, _data = build_system()
        system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
        with pytest.raises(QueryError, match="integer value for 'segments'"):
            system.database.execute(
                "SELECT * FROM dana.score('m', 't', segments => 'two')"
            )
        with pytest.raises(QueryError, match="'=>'"):
            system.database.execute(
                "SELECT * FROM dana.score('m', 't', segments 2)"
            )
        # Structurally valid but semantically rejected by serving validation.
        with pytest.raises(Exception, match="segments"):
            system.database.execute(
                "SELECT * FROM dana.score('m', 't', segments => 0)"
            )
        # A negative count parses and fails where the plan checks it.
        with pytest.raises(
            QueryError, match=r"segments must be an integer >= 1.*got -1"
        ):
            system.database.execute(
                "SELECT * FROM dana.score('m', 't', segments => -1)"
            )

    def test_where_unknown_column(self):
        system, _spec, _data = build_system()
        system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
        with pytest.raises(QueryError, match="unknown column"):
            system.database.execute(
                "SELECT dana.predict('m') FROM t WHERE nope = 1"
            )

    def test_drop_missing_model_raises_query_error(self):
        system, _spec, _data = build_system()
        with pytest.raises(QueryError, match="no saved model"):
            system.database.execute("DROP MODEL ghost")
        system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
        with pytest.raises(QueryError, match="no version 9"):
            system.database.execute("DROP MODEL m VERSION 9")

    def test_where_type_mismatch_raises_query_error(self):
        system, _spec, _data = build_system()
        with pytest.raises(QueryError, match="not valid for a column"):
            system.database.execute("SELECT * FROM t WHERE x0 < 'abc'")

    def test_count_star_with_where(self):
        system, _spec, _data = build_system()
        total = system.database.execute("SELECT count(*) FROM t").rows[0][0]
        above = system.database.execute(
            "SELECT count(*) FROM t WHERE x0 > 0"
        ).rows[0][0]
        below = system.database.execute(
            "SELECT count(*) FROM t WHERE x0 <= 0"
        ).rows[0][0]
        assert total == N_TUPLES and above + below == total and 0 < above < total

    def test_predict_without_attached_system(self):
        database = Database()
        from repro.rdbms.types import Schema

        database.load_table("t", Schema.training_schema(2), np.zeros((4, 3)))
        with pytest.raises(QueryError, match="no DAnA system is attached"):
            database.execute("SELECT dana.predict('m') FROM t")

    def test_model_udf_must_be_registered(self):
        # A fresh DAnA system cannot serve a model whose UDF it never saw.
        system, _spec, _data = build_system()
        system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
        fresh = DAnA(system.database)  # re-attaches as serving runtime
        with pytest.raises(QueryError, match="not registered"):
            system.database.execute("SELECT dana.predict('m') FROM t")


# ---------------------------------------------------------------------- #
# streaming scan-and-score parity
# ---------------------------------------------------------------------- #
class TestPredicatePushdown:
    """WHERE is compiled once, validated up front and evaluated per page."""

    BAD_PREDICATES = (
        ("nope = 1", "unknown column 'nope'"),
        ("x0 < 'abc'", "not valid for a column"),
        ("x0 = 'abc'", "not valid for a column"),
        ("x0 <> 'abc'", "not valid for a column"),
    )

    @staticmethod
    def _system_with_empty_table():
        system, spec, _data = build_system()
        system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
        system.database.load_table("empty", spec.schema, np.empty((0, N_FEATURES + 1)))
        return system

    @pytest.mark.parametrize("predicate,message", BAD_PREDICATES)
    @pytest.mark.parametrize(
        "statement",
        (
            "SELECT * FROM {table} WHERE {predicate}",
            "SELECT * FROM {table} WHERE {predicate} LIMIT 0",
            "SELECT count(*) FROM {table} WHERE {predicate}",
            "SELECT dana.predict('m') FROM {table} WHERE {predicate}",
            "SELECT dana.predict('m') FROM {table} WHERE {predicate} LIMIT 0",
        ),
    )
    @pytest.mark.parametrize("table", ("t", "empty"))
    def test_bad_predicate_raises_whatever_the_table_holds(
        self, table, statement, predicate, message
    ):
        """Validation used to happen per scanned row, so an empty table, a
        LIMIT 0 or an ``=`` against a string slipped through — and EXPLAIN
        rendered plans for statements that raise when executed."""
        system = self._system_with_empty_table()
        sql = statement.format(table=table, predicate=predicate)
        for door in (sql, "EXPLAIN " + sql):
            with pytest.raises(QueryError, match=message):
                system.database.execute(door)

    def test_count_star_without_where_decodes_no_tuple(self, monkeypatch):
        from repro.rdbms.heapfile import HeapFile

        system, _spec, data = build_system()
        database = system.database

        def count():
            return database.execute("SELECT count(*) FROM t").rows[0][0]

        assert count() == len(database.execute("SELECT * FROM t")) == N_TUPLES
        database.insert_rows("t", data[:5])
        scanned = len(database.execute("SELECT * FROM t"))

        def no_scan(*_args, **_kwargs):
            raise AssertionError("count(*) decoded the table")

        monkeypatch.setattr(HeapFile, "scan_tuples", no_scan)
        monkeypatch.setattr(HeapFile, "scan_pages", no_scan)
        assert count() == scanned == N_TUPLES + 5

    def test_no_per_tuple_python_on_the_statement_path(self, monkeypatch):
        """A structural gate, not a timing one: the tuple-at-a-time scan,
        the per-slot page iterator and the per-row predicate are all
        unreachable from filtered statements."""
        import repro.rdbms.query as query
        from repro.rdbms.heapfile import HeapFile
        from repro.rdbms.page import HeapPage

        system, _spec, data = build_system()
        system.save_model("m", "linear", system.train("linear", "t", epochs=2).models)
        database = system.database
        expected = int((data.astype(np.float32)[:, 0] > 0).sum())
        full = system.score_table("linear", "t", model_name="m", stream=False)

        def per_tuple(*_args, **_kwargs):
            raise AssertionError("per-tuple Python on the statement path")

        monkeypatch.setattr(HeapFile, "scan_tuples", per_tuple)
        monkeypatch.setattr(HeapPage, "tuples", per_tuple)
        monkeypatch.setattr(query, "matches_row", per_tuple)
        predicted = database.execute("SELECT dana.predict('m') FROM t WHERE x0 > 0")
        selected = database.execute("SELECT * FROM t WHERE x0 > 0")
        counted = database.execute("SELECT count(*) FROM t WHERE x0 > 0")
        assert len(predicted) == len(selected) == counted.rows[0][0] == expected
        assert all(row[0] > 0 for row in selected.rows)
        mask = data.astype(np.float32)[:, 0] > 0
        np.testing.assert_array_equal(
            [row[0] for row in predicted.rows], full.predictions[mask]
        )

    def test_no_source_module_calls_matches_row(self):
        """``matches_row`` is the tests' and the frozen benchmark's reference."""
        import pathlib
        import repro

        root = pathlib.Path(repro.__file__).parent
        users = sorted(
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            if "matches_row" in path.read_text()
        )
        # its definition, the package re-export, and the docstring that
        # names it as the vectorised predicate's reference
        assert users == ["rdbms/__init__.py", "rdbms/predicate.py", "rdbms/query.py"]

    def test_predict_stats_report_scanned_next_to_scored(self):
        system, _spec, data = build_system()
        system.save_model("m", "linear", {"mo": np.ones(N_FEATURES)})
        result = system.database.execute("SELECT dana.predict('m') FROM t WHERE x0 > 0")
        assert result.stats["tuples_scanned"] == N_TUPLES
        assert result.stats["tuples_scored"] == len(result) < N_TUPLES
        unfiltered = system.database.execute("SELECT dana.predict('m') FROM t")
        assert unfiltered.stats["tuples_scanned"] == N_TUPLES
        assert unfiltered.stats["tuples_scored"] == N_TUPLES


class TestStreamingScan:
    @pytest.mark.parametrize("key", ALL_ALGORITHMS)
    @pytest.mark.parametrize("segments", [1, 2])
    def test_streaming_bit_identical_to_materialized(self, key, segments):
        system, _spec, _data = build_system(key)
        models = system.train(key, "t", epochs=2).models
        streamed = system.score_table(
            key, "t", models=models, segments=segments, stream=True
        )
        materialized = system.score_table(
            key, "t", models=models, segments=segments, stream=False
        )
        np.testing.assert_array_equal(
            streamed.predictions, materialized.predictions
        )
        assert streamed.inference_stats == materialized.inference_stats
        for seg_s, seg_m in zip(streamed.segments, materialized.segments):
            assert seg_s.access_stats == seg_m.access_stats
            assert seg_s.inference_stats == seg_m.inference_stats
        assert streamed.stream and not materialized.stream

    def test_streaming_respects_batch_size_boundaries(self):
        system, _spec, _data = build_system()
        models = system.train("linear", "t", epochs=2).models
        for batch_size in (7, 64, 1024):
            streamed = system.score_table(
                "linear", "t", models=models, batch_size=batch_size, stream=True
            )
            materialized = system.score_table(
                "linear", "t", models=models, batch_size=batch_size, stream=False
            )
            np.testing.assert_array_equal(
                streamed.predictions, materialized.predictions
            )
            assert streamed.inference_stats == materialized.inference_stats

    def test_streaming_cost_model_charges_pipelined_path(self):
        from repro.perf import ScoreRunCost

        system, _spec, _data = build_system()
        models = system.train("linear", "t", epochs=2).models
        streamed = system.score_table("linear", "t", models=models, stream=True)
        materialized = system.score_table(
            "linear", "t", models=models, stream=False
        )
        cost_s = ScoreRunCost.from_result(streamed)
        cost_m = ScoreRunCost.from_result(materialized)
        assert cost_s.stream and not cost_m.stream
        assert cost_s.wall_cycles == cost_s.pipelined_critical_path_cycles
        assert cost_m.wall_cycles == cost_m.critical_path_cycles
        assert cost_s.seconds() <= cost_m.seconds()
        # (ported from the legacy bench's modelled-streaming gate) one
        # segment: the serial path is the sum of its two stages, the
        # pipelined one their max — strictly shorter, both stages being real
        (access,) = cost_m.segment_access_cycles
        (forward,) = cost_m.segment_forward_cycles
        assert min(access, forward) > 0
        assert cost_m.wall_cycles == access + forward
        assert cost_s.wall_cycles == max(access, forward)
