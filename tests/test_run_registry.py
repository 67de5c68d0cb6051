"""Run-registry tests: heap-table persistence, SQL read-back, fault log.

Every recorded ``DAnA.train`` / ``score_table`` invocation must
land as real heap-table rows (``repro_runs`` + ``repro_run_metrics``)
readable through the SQL executor, with the string-valued parts (labels,
config, git rev, fired faults, retry counters) joined from the catalog.
"""

import copy

import numpy as np
import pytest

from repro.algorithms import Hyperparameters, get_algorithm
from repro.core.dana import DAnA
from repro.data.synthetic import generate_for_algorithm
from repro.exceptions import CatalogError
from repro.obs import (
    RUN_METRICS_TABLE,
    RUNS_TABLE,
    RunRecorder,
    enable_telemetry,
)
from repro.obs.recorder import git_revision
from repro.rdbms import Database
from repro.rdbms.catalog import RunEntry
from repro.reliability import FaultPlan, RetryPolicy, inject_faults

RETRY = RetryPolicy(max_attempts=3, backoff_s=0.0)


def _recording_system(n_tuples=192, epochs=2, seed=11):
    """A DAnA system with run recording on and one linear UDF loaded."""
    algorithm = get_algorithm("linear")
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=8, epochs=epochs)
    spec = algorithm.build_spec(6, hyper)
    data = generate_for_algorithm("linear", n_tuples, 6, seed=seed)
    database = Database(page_size=8 * 1024)
    database.load_table("train", spec.schema, data)
    database.warm_cache("train")
    system = DAnA(database, record_runs=True)
    system.register_udf("linear", spec, epochs=epochs)
    return system


class TestTrainAndScoreRecording:
    def test_train_then_score_lands_in_heap_tables(self):
        system = _recording_system()
        recorder = system.run_recorder
        run = system.train("linear", "train", segments=2)
        system.save_model("m", "linear", run.models)
        system.score_table("linear", "train", model_name="m")

        runs = recorder.runs()
        assert [r["kind"] for r in runs] == ["train", "score"]
        train_rec, score_rec = runs
        assert train_rec["run_id"] == 1
        assert train_rec["label"] == "linear"
        assert train_rec["algorithm"] == "linear"
        assert train_rec["segments"] == 2
        assert train_rec["epochs"] == run.epochs_run
        assert train_rec["tuples"] == run.tuples_extracted
        assert train_rec["cycles"] == run.engine_stats.total_cycles
        assert train_rec["wall_ms"] > 0.0
        assert train_rec["git_rev"] == git_revision()
        assert score_rec["run_id"] == 2
        assert score_rec["model"] == "m:v1"

    def test_every_statement_reports_its_own_cycles(self):
        """A cached accelerator's counters accumulate; each run's result,
        EXPLAIN ANALYZE ``actual`` and ``repro_runs.cycles`` must not."""
        system = _recording_system()
        first = system.train("linear", "train")
        first_counters = (first.engine_stats, first.access_stats, first.training.stats)
        first_counters = tuple(map(copy.copy, first_counters))
        second = system.train("linear", "train")
        assert (second.engine_stats, second.access_stats, second.training.stats) == first_counters
        assert (first.engine_stats, first.access_stats, first.training.stats) == first_counters
        report = system.database.execute(
            "EXPLAIN ANALYZE SELECT * FROM dana.linear('train');"
        ).payload
        assert (
            report.root.actual["engine_cycles"]
            == report.root.children[0].predicted["engine_cycles"]
            == first.engine_stats.total_cycles
        )
        assert [r["cycles"] for r in system.run_recorder.runs()] == [
            first.engine_stats.total_cycles
        ] * 2
        # the engines themselves keep the running total (three statements)
        accelerator = system.accelerator_for("linear", "train")
        assert accelerator.execution_engine.stats.total_cycles == 3 * first.engine_stats.total_cycles
        assert accelerator.access_engine.stats.pages_processed == 3 * first.access_stats.pages_processed

    def test_sql_read_back(self):
        system = _recording_system()
        run = system.train("linear", "train", segments=2)
        system.score_table("linear", "train", models=run.models)

        headline = system.execute(f"SELECT * FROM {RUNS_TABLE}")
        assert len(headline.rows) == 2
        assert headline.columns[0] == "run_id"
        metrics = system.execute(
            f"SELECT * FROM {RUN_METRICS_TABLE} WHERE run_id = 2"
        )
        assert len(metrics.rows) >= 5
        assert all(int(row[0]) == 2 for row in metrics.rows)

    def test_run_detail_round_trip(self):
        system = _recording_system()
        recorder = system.run_recorder
        system.train("linear", "train", segments=2, seed=7)
        detail = recorder.run_detail(1)
        assert detail["config"]["segments"] == 2
        assert detail["config"]["seed"] == 7
        metrics = detail["metrics"]
        assert metrics["engine.total_cycles"] == detail["cycles"]
        assert metrics["access.tuples_extracted"] == detail["tuples"]
        assert metrics["cluster.merges_performed"] >= 1
        assert metrics["wall_seconds"] > 0.0
        assert detail["faults"] == []

    def test_unknown_run_raises(self):
        system = _recording_system()
        with pytest.raises(CatalogError):
            system.run_recorder.run_detail(99)

    def test_recording_off_by_default(self):
        database = Database(page_size=8 * 1024)
        assert DAnA(database).run_recorder is None

    def test_span_rollups_recorded_when_armed(self):
        system = _recording_system()
        with enable_telemetry():
            system.train("linear", "train", segments=2)
        metrics = system.run_recorder.run_detail(1)["metrics"]
        assert metrics["span.runtime.epoch.count"] >= 2
        assert metrics["span.cluster.segment.merge.seconds"] > 0.0

    def test_recorded_run_is_bit_identical_to_unrecorded(self):
        recorded = _recording_system()
        plain_db = recorded.database  # fresh twin below
        unrecorded = _recording_system()
        unrecorded_system = DAnA(unrecorded.database)  # recording off
        del plain_db
        baseline = unrecorded.train("linear", "train", segments=2)
        result = recorded.train("linear", "train", segments=2)
        for name in baseline.models:
            np.testing.assert_array_equal(baseline.models[name], result.models[name])
        assert baseline.engine_stats.__dict__ == result.engine_stats.__dict__
        del unrecorded_system


@pytest.mark.chaos
class TestFaultAndRetryRecording:
    def test_fired_faults_and_retries_in_run_record(self):
        system = _recording_system()
        plan = FaultPlan.transient(
            ("hw.strider.page_walk", 2),
            ("runtime.batch_source.producer", 1),
        )
        with inject_faults(plan):
            system.train("linear", "train", stream=True, retry=RETRY)
        runs = system.run_recorder.runs()
        assert runs[0]["faults"] == 2
        assert runs[0]["retries"] >= 2
        detail = system.run_recorder.run_detail(1)
        assert {f["site"] for f in detail["faults"]} <= {
            "hw.strider.page_walk",
            "runtime.batch_source.producer",
        }
        assert all(f["kind"] == "error" for f in detail["faults"])
        assert detail["retry"]["faults"] >= 2
        assert detail["retry"]["retries"] >= 2


class TestCatalogRunRegistry:
    def test_metric_ids_are_interned(self):
        database = Database(page_size=8 * 1024)
        catalog = database.catalog
        first = catalog.run_metric_id("engine.total_cycles")
        assert catalog.run_metric_id("engine.total_cycles") == first
        other = catalog.run_metric_id("wall_seconds")
        assert other != first
        names = catalog.run_metric_names()
        assert names[first] == "engine.total_cycles"
        assert names[other] == "wall_seconds"

    def test_duplicate_run_id_rejected(self):
        database = Database(page_size=8 * 1024)
        entry = RunEntry(run_id=1, kind="train", label="x")
        database.catalog.register_run(entry)
        with pytest.raises(CatalogError):
            database.catalog.register_run(RunEntry(run_id=1, kind="score", label="y"))

    def test_unknown_kind_rejected(self):
        database = Database(page_size=8 * 1024)
        with pytest.raises(CatalogError):
            database.catalog.register_run(
                RunEntry(run_id=1, kind="mystery", label="x")
            )

    def test_next_run_id_monotonic(self):
        database = Database(page_size=8 * 1024)
        assert database.catalog.next_run_id() == 1
        database.catalog.register_run(RunEntry(run_id=5, kind="score", label="x"))
        assert database.catalog.next_run_id() == 6


class TestRecorderConcurrency:
    def test_concurrent_records_get_distinct_ids(self):
        import threading

        from repro.core import ScorePlan

        system = _recording_system()
        recorder = system.run_recorder
        models = system.train("linear", "train").models  # run 1
        result = system.score_table("linear", "train", models=models)  # run 2
        plan = ScorePlan.resolve(system._registered("linear"), "train")
        errors = []

        def record(tag):
            try:
                recorder.record_score(plan, result, recorder.begin())
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        threads = [threading.Thread(target=record, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        runs = recorder.runs()
        assert sorted(r["run_id"] for r in runs) == list(range(1, 11))
