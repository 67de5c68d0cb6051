"""The SQL face of a DAnA system (:class:`repro.rdbms.query.ServingRuntime`).

:class:`SqlRuntime` is what a :class:`~repro.core.dana.DAnA` system attaches
to its database: the executor routes ``dana.predict`` / ``dana.score``
scans, ``CREATE MODEL``, accelerated UDF calls and their ``EXPLAIN`` forms
here.  Each statement is turned into the same resolved
:class:`~repro.core.plan.TrainPlan` / :class:`~repro.core.plan.ScorePlan`
the Python API builds — option names and types are read off the plan
dataclass — and that one plan is then either executed
(:meth:`DAnA._train` / :meth:`DAnA._score`) or rendered
(:mod:`repro.core.explain`).  Execution and ``EXPLAIN`` therefore share
every semantic check and every resolved knob.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.core.explain import explain_score, explain_train_statement
from repro.core.plan import ScorePlan, TrainPlan, option_types
from repro.exceptions import ConfigurationError, QueryError
from repro.perf import ScoreRunCost, ShardedRunCost
from repro.rdbms import ModelEntry
from repro.rdbms.explain import PlanOperator
from repro.rdbms.predicate import ColumnPredicate
from repro.rdbms.query import (
    ColumnRows,
    CreateModel,
    PredictScan,
    QueryResult,
    ScoreCall,
    UDFCall,
)
from repro.serving import ScoreResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dana import DAnA
    from repro.obs.recorder import RunRecorder

#: ``CREATE MODEL ... WITH (...)`` option names and their scalar types.
TRAIN_OPTIONS = option_types(TrainPlan)


@contextmanager
def _invalid(what: str) -> Iterator[None]:
    """Re-raise a :class:`ConfigurationError` as the statement's QueryError."""
    try:
        yield
    except ConfigurationError as error:
        raise QueryError(f"{what} are invalid: {error}") from None


def _coerce_train_options(options: tuple[tuple[str, Any], ...]) -> dict[str, Any]:
    """Name-check ``WITH`` options against the :class:`TrainPlan` option
    fields and coerce the numeric ones (SQL numbers may arrive as floats)."""
    kwargs: dict[str, Any] = {}
    for key, value in options:
        expected = TRAIN_OPTIONS.get(key)
        if expected is None:
            raise QueryError(
                f"unknown CREATE MODEL option {key!r}; expected one of "
                f"{sorted(TRAIN_OPTIONS)}"
            )
        if expected is not int:
            # Choice lists and bools are the plan's to check, so a bad value
            # fails with the message ``DAnA.train`` raises for it.
            kwargs[key] = value
            continue
        # bool is an int subclass: ``segments => true`` is not a number.
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise QueryError(f"option {key!r} expects a int value, got {value!r}")
        if float(value) != int(value):
            raise QueryError(f"option {key!r} must be an integer, got {value!r}")
        kwargs[key] = int(value)
    return kwargs


class SqlRuntime:
    """Executes and explains serving/training statements for one DAnA system."""

    def __init__(self, system: "DAnA") -> None:
        """Bind the runtime to the system whose UDFs and registry it serves."""
        self.system = system

    @property
    def run_recorder(self) -> "RunRecorder | None":
        """The system's run recorder (``EXPLAIN ANALYZE`` attaches traces to it)."""
        return self.system.run_recorder

    # ------------------------------------------------------------------ #
    # statement -> plan (shared by execution and EXPLAIN)
    # ------------------------------------------------------------------ #
    def _require_table(self, table_name: str) -> None:
        if not self.system.database.catalog.has_table(table_name):
            raise QueryError(f"table {table_name!r} does not exist")

    def score_plan(
        self, statement: ScoreCall | PredictScan
    ) -> tuple[ModelEntry, ScorePlan]:
        """The registry entry and resolved plan of a scoring statement.

        A ``dana.score`` call's kwargs the statement left unset keep
        :meth:`ScorePlan.resolve`'s defaults; ``dana.predict`` takes none,
        and its WHERE is compiled against the table's schema here, so the
        plan carries the predicate execution pushes below the forward tape.

        Raises:
            QueryError: when the model, its training UDF or the table is
                missing, a kwarg value is invalid, or the WHERE names an
                unknown column or compares a column with a string.
        """
        system = self.system
        try:
            entry = system.registry.entry(statement.model_name, statement.version)
            registered = system._udf_for_model(entry)
        except ConfigurationError as error:
            raise QueryError(str(error)) from None
        self._require_table(statement.table_name)
        kwargs = {
            name: getattr(statement, name)
            for name in ("segments", "batch_size", "stream", "execution")
            if getattr(statement, name, None) is not None
        }
        where = ColumnPredicate.compile(
            system.database.table(statement.table_name).schema,
            getattr(statement, "where", ()),
        )
        with _invalid("dana.score arguments"):
            plan = ScorePlan.resolve(
                registered,
                statement.table_name,
                use_striders=system.use_striders,
                where=where,
                **kwargs,
            )
        return entry, plan

    def train_plan(
        self, statement: CreateModel | UDFCall
    ) -> tuple[TrainPlan, dict[str, Any]]:
        """The resolved plan (and coerced ``WITH`` options) of a training statement.

        Raises:
            QueryError: for unknown UDFs/tables, unknown ``WITH`` options,
                or option values :meth:`TrainPlan.resolve` rejects.
        """
        system = self.system
        registered = system._udfs.get(statement.udf_name)
        if registered is None:
            raise QueryError(
                f"UDF {statement.udf_name!r} is not registered; registered UDFs: "
                f"{system.registered_udfs()}"
            )
        self._require_table(statement.table_name)
        options = _coerce_train_options(getattr(statement, "options", ()))
        with _invalid("CREATE MODEL options"):
            plan = TrainPlan.resolve(
                registered,
                statement.table_name,
                system.compile_udf(registered.name, statement.table_name),
                use_striders=system.use_striders,
                **options,
            )
        return plan, options

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _score_result(
        self,
        entry: ModelEntry,
        result: ScoreResult,
        limit: int | None,
        column: str,
    ) -> QueryResult:
        """The result set SQL scoring statements return: one row per
        prediction (a scalar float or a list), as a lazy view over the
        (LIMIT-sliced) prediction array — no per-row Python until read."""
        predictions = result.predictions
        if limit is not None:
            predictions = predictions[:limit]
        return QueryResult(
            rows=ColumnRows(predictions),
            columns=(column,),
            payload=result,
            stats={
                "model": entry.name,
                "version": entry.version,
                "algorithm": entry.algorithm,
                "segments": len(result.segments),
                "stream": result.stream,
                "tuples_scanned": result.tuples_scanned,
                "tuples_scored": result.tuples_scored,
                "forward_cycles": result.inference_stats.forward_cycles,
                "critical_path_cycles": result.critical_path_cycles,
                # what EXPLAIN ANALYZE prints as ``actual:`` cycles
                "cost": ScoreRunCost.from_result(result),
            },
        )

    def sql_predict(self, statement: PredictScan) -> QueryResult:
        """Execute ``SELECT dana.predict('<model>', ...) FROM <table>``.

        The table is scanned exactly like :meth:`DAnA.score_table` (bulk
        Strider page walk), the statement's WHERE keeps each decoded page's
        qualifying tuples before they reach the batched inference tape —
        predictions are bit-identical to the same rows of ``score_table`` —
        and LIMIT truncates the storage-ordered result.

        Returns:
            One row per qualifying tuple; the single column is named by the
            statement's ``AS`` alias (default ``prediction``).  ``payload``
            carries the underlying :class:`~repro.serving.ScoreResult`.

        Raises:
            QueryError: when the model, its training UDF or the table is
                missing, or the WHERE is invalid (semantic errors of the
                statement).
        """
        entry, plan = self.score_plan(statement)
        result = self.system._score(plan, model_name=entry.name, version=entry.version)
        return self._score_result(
            entry, result, statement.limit, statement.alias or "prediction"
        )

    def sql_score(self, statement: ScoreCall) -> QueryResult:
        """Execute ``SELECT * FROM dana.score('<model>', '<table>', ...)``.

        Returns:
            One ``prediction`` row per scored tuple (storage order),
            truncated by LIMIT; ``payload`` carries the
            :class:`~repro.serving.ScoreResult`.

        Raises:
            QueryError: when the model, its training UDF or the table is
                missing, or a kwarg value is invalid.
        """
        entry, plan = self.score_plan(statement)
        with _invalid("dana.score arguments"):
            result = self.system._score(
                plan, model_name=entry.name, version=entry.version
            )
        return self._score_result(entry, result, statement.limit, "prediction")

    def sql_create_model(self, statement: CreateModel) -> QueryResult:
        """Execute ``CREATE MODEL <name> AS TRAIN <udf> ON <table>``.

        Trains with the statement's resolved plan and persists the result
        through :meth:`DAnA.save_model` (a new version of the model).

        Returns:
            One summary row ``(model, version, algorithm, epochs_run)``;
            ``payload`` carries the new
            :class:`~repro.rdbms.catalog.ModelEntry`.

        Raises:
            QueryError: for unknown UDFs/tables, unknown WITH options, or
                option values training rejects.
        """
        system = self.system
        plan, options = self.train_plan(statement)
        with _invalid("CREATE MODEL options"):
            run = system._train(plan)
        cost = ShardedRunCost.from_run(run)  # ``actual:`` under EXPLAIN ANALYZE
        entry = system.save_model(
            statement.model_name,
            plan.udf,
            run.models,
            metadata={"trained_on": plan.table, "sql_options": options},
            watermark=getattr(run, "snapshot_lsn", 0),
        )
        return QueryResult(
            rows=[(entry.name, entry.version, entry.algorithm, cost.epochs_run)],
            columns=("model", "version", "algorithm", "epochs_run"),
            payload=entry,
            stats={"table": plan.table, "udf": plan.udf, "cost": cost},
        )

    def udf_call(self, udf_name: str, table_name: str) -> QueryResult:
        """Execute ``SELECT * FROM dana.<udf>('<table>')``: train, return the models."""
        plan, _options = self.train_plan(UDFCall(udf_name, table_name))
        run = self.system._train_single(plan)
        return QueryResult(
            rows=[
                (name, np.asarray(value).tolist()) for name, value in run.models.items()
            ],
            columns=("model", "coefficients"),
            payload=run,
            stats={
                "system": "DAnA+PostgreSQL",
                "tuples_extracted": run.tuples_extracted,
                "engine_cycles": run.engine_stats.total_cycles,
                "strider_cycles": run.access_stats.strider_cycles_critical,
                "cost": ShardedRunCost.from_run(run),
            },
        )

    # ------------------------------------------------------------------ #
    # EXPLAIN
    # ------------------------------------------------------------------ #
    def sql_explain(self, statement: Any) -> PlanOperator:
        """Build the ``EXPLAIN`` operator tree of one serving/training statement.

        Called by :class:`~repro.rdbms.explain.PlanExplainer` for the plan
        nodes this runtime executes.  The statement is resolved into the
        plan it would execute with — so the tree carries the run's real
        knobs and ``EXPLAIN`` raises the same ``QueryError`` executing the
        statement would — and nothing runs: compilation is cached, and
        building a tree records no run and trains no model.
        """
        if isinstance(statement, (ScoreCall, PredictScan)):
            entry, plan = self.score_plan(statement)
            return explain_score(self.system, statement, entry, plan)
        if isinstance(statement, (CreateModel, UDFCall)):
            plan, _options = self.train_plan(statement)
            return explain_train_statement(self.system, statement, plan)
        raise QueryError(f"EXPLAIN does not support plan node {statement!r}")
