"""Run history persisted in the database's own heap tables.

Every recorded :meth:`DAnA.train <repro.core.dana.DAnA.train>` or
:meth:`DAnA.score_table <repro.core.dana.DAnA.score_table>` invocation
becomes:

* one row in the ``repro_runs`` heap table — the numeric headline
  (run id, kind, segments, epochs, tuples, schedule-derived cycles,
  fault/retry counts, wall milliseconds);
* one row per metric in ``repro_run_metrics`` — every schedule-derived
  counter and per-site span rollup, keyed ``(run_id, metric_id)`` with
  metric names interned in the catalog (heap pages only hold fixed-width
  numeric columns);
* one :class:`~repro.rdbms.catalog.RunEntry` in the catalog for the
  strings a numeric scan cannot reconstruct (labels, config, git rev,
  the fired-fault log, retry counters).

The database is its own telemetry backend: both tables are ordinary
heap files readable through the SQL executor (``SELECT * FROM
repro_runs``), and the ``repro`` CLI is just a client of this module.
"""

from __future__ import annotations

import datetime
import subprocess
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping

from repro.obs.telemetry import telemetry
from repro.rdbms.catalog import RunEntry
from repro.rdbms.types import ColumnType, Schema
from repro.reliability.faults import active_injector
from repro.reliability.retry import RetryStats

#: heap table holding one headline row per recorded run.
RUNS_TABLE = "repro_runs"
#: heap table holding one ``(run_id, metric_id, value)`` row per metric.
RUN_METRICS_TABLE = "repro_run_metrics"

#: run kinds, in the integer encoding used by the ``kind`` column.
RUN_KINDS = ("train", "score", "refresh")

#: schema of :data:`RUNS_TABLE`.
RUNS_SCHEMA = Schema.build(
    [
        ("run_id", ColumnType.INT4),
        ("kind", ColumnType.INT4),
        ("segments", ColumnType.INT4),
        ("epochs", ColumnType.INT4),
        ("tuples", ColumnType.INT8),
        ("cycles", ColumnType.INT8),
        ("faults", ColumnType.INT4),
        ("retries", ColumnType.INT4),
        ("wall_ms", ColumnType.FLOAT8),
    ]
)

#: schema of :data:`RUN_METRICS_TABLE`.
RUN_METRICS_SCHEMA = Schema.build(
    [
        ("run_id", ColumnType.INT4),
        ("metric_id", ColumnType.INT4),
        ("value", ColumnType.FLOAT8),
    ]
)

_GIT_REV: str | None = None


def git_revision() -> str:
    """``git rev-parse --short HEAD`` of the repo, cached ("" off-repo)."""
    global _GIT_REV
    if _GIT_REV is None:
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True,
                text=True,
                timeout=10,
            )
            _GIT_REV = proc.stdout.strip() if proc.returncode == 0 else ""
        except (OSError, subprocess.SubprocessError):
            _GIT_REV = ""
    return _GIT_REV


@dataclass
class RunWatch:
    """Marks captured at run start, resolved into a record at run end."""

    #: ``time.perf_counter()`` at :meth:`RunRecorder.begin`.
    started_s: float
    #: wall-clock ISO timestamp at begin.
    started_at: str
    #: span count of the armed tracer at begin (0 when telemetry is off).
    span_mark: int = 0
    #: fired-fault count of the armed injector at begin (0 when off).
    fault_mark: int = 0


class RunRecorder:
    """Persists run records into one database's heap tables + catalog."""

    def __init__(self, database) -> None:
        self.database = database
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def begin(self) -> RunWatch:
        """Snapshot the clocks and telemetry/fault marks at run start."""
        obs = telemetry()
        injector = active_injector()
        return RunWatch(
            started_s=time.perf_counter(),
            started_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
            span_mark=obs.tracer.mark() if obs is not None else 0,
            fault_mark=len(injector.fired) if injector is not None else 0,
        )

    def record_train(
        self,
        plan,
        result,
        watch: RunWatch,
        kind: str = "train",
        label: str | None = None,
        extra_config: Mapping[str, Any] | None = None,
        model_name: str = "",
        model_version: int | None = None,
    ) -> RunEntry:
        """Record one completed training run (``DAnA.train`` or a refresh).

        ``plan`` is the run's resolved :class:`~repro.core.plan.TrainPlan`;
        its :meth:`~repro.core.plan.TrainPlan.as_config` is the recorded
        config (plus ``extra_config``), so the registry reports the knobs
        the run actually executed with.  ``result`` is either an
        ``AcceleratorRunResult`` (single engine) or a ``ShardedRunResult``
        (segments); both expose the aggregate ``engine_stats`` /
        ``access_stats`` surface.  ``DAnA.refresh_model`` records its
        warm-start run with ``kind="refresh"`` under the model's name
        (no-op refreshes record nothing — there was no run).
        """
        cluster = getattr(result, "cluster", None)
        training = getattr(result, "training", None)
        epochs = training.epochs_run if training is not None else result.epochs_run
        converged = training.converged if training is not None else result.converged
        engine = result.engine_stats
        access = result.access_stats
        retry = cluster.retry if cluster is not None else result.retry_stats
        metrics = {
            "converged": float(bool(converged)),
            "engine.tuples_processed": engine.tuples_processed,
            "engine.batches_processed": engine.batches_processed,
            "engine.update_rule_cycles": engine.update_rule_cycles,
            "engine.merge_cycles": engine.merge_cycles,
            "engine.post_merge_cycles": engine.post_merge_cycles,
            "engine.convergence_cycles": engine.convergence_cycles,
            "engine.total_cycles": engine.total_cycles,
        }
        metrics.update(self._access_metrics(access))
        if cluster is not None:
            metrics["cluster.merges_performed"] = cluster.merges_performed
            metrics["cluster.cross_merge_cycles"] = cluster.cross_merge_cycles
        return self._record(
            kind=kind,
            label=plan.udf if label is None else label,
            table_name=plan.table,
            segments=cluster.segments if cluster is not None else 1,
            epochs=epochs,
            tuples=result.tuples_extracted,
            cycles=engine.total_cycles,
            metrics=metrics,
            config={**plan.as_config(), **(extra_config or {})},
            retry=retry,
            watch=watch,
            algorithm=plan.algorithm,
            model_name=model_name,
            model_version=model_version,
        )

    def record_score(
        self,
        plan,
        result,
        watch: RunWatch,
        model_name: str = "",
        model_version: int | None = None,
    ) -> RunEntry:
        """Record one completed ``DAnA.score_table`` invocation.

        ``plan`` is the run's resolved :class:`~repro.core.plan.ScorePlan`
        (its ``as_config()`` is the recorded config); ``result`` is a
        :class:`~repro.serving.scorer.ScoreResult`.
        """
        inference = result.inference_stats
        metrics = {
            "inference.tuples_scored": inference.tuples_scored,
            "inference.batches_scored": inference.batches_scored,
            "inference.forward_cycles": inference.forward_cycles,
            "score.critical_path_cycles": result.critical_path_cycles,
            "score.batch_size": result.batch_size,
            "score.stream": float(bool(result.stream)),
        }
        return self._record(
            kind="score",
            label=plan.table,
            table_name=plan.table,
            segments=len(result.segments),
            epochs=0,
            tuples=result.tuples_scored,
            cycles=result.critical_path_cycles,
            metrics=metrics,
            config=plan.as_config(),
            retry=result.retry,
            watch=watch,
            algorithm=plan.algorithm,
            model_name=model_name,
            model_version=model_version,
        )

    # ------------------------------------------------------------------ #
    # read-back (heap tables joined with the catalog)
    # ------------------------------------------------------------------ #
    def runs(self) -> list[dict]:
        """Every recorded run: heap-table headline + catalog strings.

        The numeric columns come from a real scan of ``repro_runs``; the
        strings (kind, labels, git rev) are joined from the catalog entry
        keyed by the scanned ``run_id``.
        """
        database = self.database
        if not database.catalog.has_table(RUNS_TABLE):
            return []
        rows = database.table(RUNS_TABLE).read_all(database.buffer_pool)
        records = []
        for row in rows:
            entry = database.catalog.run(int(row[0]))
            records.append(
                {
                    "run_id": int(row[0]),
                    "kind": RUN_KINDS[int(row[1])],
                    "label": entry.label,
                    "model": self._model_label(entry),
                    "algorithm": entry.algorithm,
                    "segments": int(row[2]),
                    "epochs": int(row[3]),
                    "tuples": int(row[4]),
                    "cycles": int(row[5]),
                    "faults": int(row[6]),
                    "retries": int(row[7]),
                    "wall_ms": float(row[8]),
                    "git_rev": entry.git_rev,
                    "started_at": entry.started_at,
                }
            )
        return records

    def run_detail(self, run_id: int) -> dict:
        """One run's full record: headline, named metrics, faults, retry.

        The metrics come from a filtered scan of ``repro_run_metrics``
        with the ids decoded through the catalog's name registry.
        """
        database = self.database
        summaries = [r for r in self.runs() if r["run_id"] == run_id]
        entry = database.catalog.run(run_id)  # raises on unknown ids
        summary = summaries[0] if summaries else {"run_id": run_id}
        names = database.catalog.run_metric_names()
        metrics: dict[str, float] = {}
        if database.catalog.has_table(RUN_METRICS_TABLE):
            scan = database.table(RUN_METRICS_TABLE).read_all(database.buffer_pool)
            for row in scan:
                if int(row[0]) != run_id:
                    continue
                metrics[names.get(int(row[1]), f"metric_{int(row[1])}")] = float(
                    row[2]
                )
        return {
            **summary,
            "config": dict(entry.config),
            "metrics": dict(sorted(metrics.items())),
            "faults": list(entry.faults),
            "retry": dict(entry.retry),
            "trace": dict(entry.trace),
        }

    def attach_trace(self, run_id: int, trace: dict) -> None:
        """Attach an ``EXPLAIN ANALYZE`` statement trace to a recorded run.

        The payload (rendered plan lines, operator tree with
        predicted-vs-actual costs, span dump) lands on the run's catalog
        entry, so ``repro trace <run_id>`` and :meth:`run_detail` can
        replay the statement's execution after the fact.

        Raises:
            CatalogError: when no run with ``run_id`` is recorded.
        """
        entry = self.database.catalog.run(run_id)  # raises on unknown ids
        with self._lock:
            entry.trace = dict(trace)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _record(
        self,
        kind: str,
        label: str,
        table_name: str,
        segments: int,
        epochs: int,
        tuples: int,
        cycles: int,
        metrics: dict[str, float],
        config: Mapping[str, Any],
        retry: RetryStats | None,
        watch: RunWatch,
        algorithm: str = "",
        model_name: str = "",
        model_version: int | None = None,
    ) -> RunEntry:
        wall_seconds = time.perf_counter() - watch.started_s
        obs = telemetry()
        if obs is not None:
            for site, rollup in obs.tracer.rollup(watch.span_mark).items():
                metrics[f"span.{site}.count"] = float(rollup["count"])
                metrics[f"span.{site}.seconds"] = float(rollup["seconds"])
        injector = active_injector()
        fired = (
            [
                {"site": f.site, "call": f.call, "kind": f.kind}
                for f in injector.fired[watch.fault_mark :]
            ]
            if injector is not None
            else []
        )
        retry_dict = (
            {
                "attempts": retry.attempts,
                "retries": retry.retries,
                "faults": retry.faults,
                "redistributed": retry.redistributed,
            }
            if retry is not None
            else {}
        )
        metrics["wall_seconds"] = wall_seconds
        with self._lock:
            catalog = self.database.catalog
            run_id = catalog.next_run_id()
            entry = RunEntry(
                run_id=run_id,
                kind=kind,
                label=label,
                table_name=table_name,
                model_name=model_name,
                model_version=model_version,
                algorithm=algorithm,
                config=dict(config),
                git_rev=git_revision(),
                started_at=watch.started_at,
                wall_seconds=wall_seconds,
                faults=fired,
                retry=retry_dict,
            )
            catalog.register_run(entry)
            self._append(
                RUNS_TABLE,
                RUNS_SCHEMA,
                [
                    [
                        run_id,
                        RUN_KINDS.index(kind),
                        int(segments),
                        int(epochs),
                        int(tuples),
                        int(cycles),
                        len(fired),
                        int(retry_dict.get("retries", 0) or 0),
                        wall_seconds * 1e3,
                    ]
                ],
            )
            metric_rows = [
                [run_id, catalog.run_metric_id(name), float(value)]
                for name, value in sorted(metrics.items())
            ]
            self._append(RUN_METRICS_TABLE, RUN_METRICS_SCHEMA, metric_rows)
        return entry

    @staticmethod
    def _access_metrics(access) -> dict[str, float]:
        """Flatten an ``AccessEngineStats`` into ``access.<field>`` run metrics."""
        return {
            f"access.{f.name}": getattr(access, f.name)
            for f in fields(access)
        }

    def _append(self, table_name: str, schema: Schema, rows: list[list]) -> None:
        database = self.database
        if not database.catalog.has_table(table_name):
            heapfile = database.create_table(table_name, schema)
        else:
            heapfile = database.table(table_name)
        heapfile.bulk_load(rows)
        database.catalog.update_tuple_count(table_name, heapfile.tuple_count)

    @staticmethod
    def _model_label(entry: RunEntry) -> str:
        if not entry.model_name:
            return ""
        if entry.model_version is None:
            return entry.model_name
        return f"{entry.model_name}:v{entry.model_version}"
