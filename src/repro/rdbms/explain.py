"""Operator trees and rendering for ``EXPLAIN [ANALYZE]``.

The executor hands :class:`PlanExplainer` a parsed statement; the
explainer builds a :class:`PlanOperator` tree describing how that
statement would execute — resolved knobs (segments, batch size, stream,
staleness, the worker clamp) plus *predicted* costs from the
schedule-derived models in :mod:`repro.perf` (cycles, modelled seconds,
pipelined vs. critical path, IPC bytes for process fan-out).  Storage
statements (scans, ``count(*)``, model DDL) are priced here from
catalog statistics; serving statements delegate to the attached
runtime's ``sql_explain`` hook so the tree reflects the very accelerator
design the statement would run on.

``EXPLAIN ANALYZE`` additionally executes the statement inside a
:class:`~repro.obs.statement_trace.StatementTrace` and calls
:meth:`PlanExplainer.annotate`, which fills each operator's ``actual``
side from the captured spans (wall seconds, pages/tuples per span site)
and from ``measure`` callbacks reading the statement's counters — the
predicted-vs-actual deltas a future cost-based planner calibrates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, TYPE_CHECKING

from repro.exceptions import CatalogError, QueryError
from repro.rdbms.predicate import ColumnPredicate
from repro.rdbms.query import (
    CountScan,
    CreateModel,
    DropModel,
    Explain,
    LogicalPlan,
    PredictScan,
    QueryResult,
    ScoreCall,
    SeqScan,
    ShowModels,
    UDFCall,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.statement_trace import StatementTrace


def _format_value(value: Any) -> str:
    """One knob/cost value as compact text (floats trimmed, bools on/off)."""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _format_mapping(mapping: dict[str, Any]) -> str:
    """``key=value`` pairs joined for one rendered line."""
    return ", ".join(f"{key}={_format_value(val)}" for key, val in mapping.items())


@dataclass
class PlanOperator:
    """One node of an EXPLAIN operator tree.

    ``knobs`` holds the resolved execution parameters, ``predicted`` the
    model-derived costs, and ``actual`` the measured side filled in by
    :meth:`PlanExplainer.annotate` after an ``EXPLAIN ANALYZE`` run.
    ``span_site`` names the telemetry span site this operator's measured
    wall time comes from (``None`` for operators the current execution
    mode gives no span — e.g. the page walk of a process-fan-out run,
    which happens in un-armed child startup); ``span_attrs`` narrows the
    match to spans carrying those attributes (a segment id).  ``measure``
    is an optional callback mapping the executed statement's
    :class:`~repro.rdbms.query.QueryResult` to extra actual entries.
    """

    name: str
    label: str = ""
    knobs: dict[str, Any] = field(default_factory=dict)
    predicted: dict[str, Any] = field(default_factory=dict)
    actual: dict[str, Any] = field(default_factory=dict)
    span_site: str | None = None
    span_attrs: dict[str, Any] = field(default_factory=dict)
    measure: Callable[[QueryResult], dict] | None = None
    children: list["PlanOperator"] = field(default_factory=list)

    def walk(self) -> Iterator["PlanOperator"]:
        """This operator and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """JSON-friendly form (persisted with the run's trace payload)."""
        return {
            "name": self.name,
            "label": self.label,
            "knobs": dict(self.knobs),
            "predicted": dict(self.predicted),
            "actual": dict(self.actual),
            "span_site": self.span_site,
            "span_attrs": dict(self.span_attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def render(self, prefix: str = "", child_prefix: str = "") -> list[str]:
        """This subtree as indented text lines (the ``QUERY PLAN`` rows)."""
        head = self.name if not self.label else f"{self.name} {self.label}"
        if self.knobs:
            head += f"  ({_format_mapping(self.knobs)})"
        lines = [prefix + head]
        detail_prefix = child_prefix + ("│    " if self.children else "     ")
        if self.predicted:
            lines.append(detail_prefix + "predicted: " + _format_mapping(self.predicted))
        if self.actual:
            lines.append(detail_prefix + "actual: " + _format_mapping(self.actual))
        for index, child in enumerate(self.children):
            last = index == len(self.children) - 1
            branch = "└─ " if last else "├─ "
            cont = "   " if last else "│  "
            lines.extend(child.render(child_prefix + branch, child_prefix + cont))
        return lines


@dataclass
class ExplainReport:
    """The full product of one ``EXPLAIN [ANALYZE]`` statement.

    Carried on the :class:`~repro.rdbms.query.QueryResult` ``payload`` so
    callers (tests, the ops CLI) can inspect the tree, the inner
    statement's result, and the captured trace programmatically instead
    of re-parsing the rendered lines.
    """

    root: PlanOperator
    statement: str
    analyze: bool = False
    #: the inner statement's own result (``EXPLAIN ANALYZE`` only) —
    #: bit-identical to running the statement without EXPLAIN.
    result: QueryResult | None = None
    #: the statement trace payload (``EXPLAIN ANALYZE`` only).
    trace: dict | None = None
    #: run-registry id the trace was persisted under, when the statement
    #: recorded a run.
    run_id: int | None = None

    def render(self) -> list[str]:
        """The ``QUERY PLAN`` output lines."""
        lines = self.root.render()
        if self.analyze and self.trace is not None:
            wall = self.trace.get("wall_seconds", 0.0)
            lines.append(f"statement wall time: {wall:.6f}s")
        if self.run_id is not None:
            lines.append(f"trace recorded: run {self.run_id}")
        return lines

    def to_payload(self) -> dict:
        """JSON-friendly persisted form: plan tree + trace capture."""
        payload = {
            "statement": self.statement,
            "analyze": self.analyze,
            "plan": self.render(),
            "operators": self.root.to_dict(),
        }
        if self.trace is not None:
            payload.update(self.trace)
        return payload


def _attrs_match(span_attrs: dict, wanted: dict) -> bool:
    """True when a span carries every wanted attribute with that value."""
    return all(span_attrs.get(key) == value for key, value in wanted.items())


def filter_limit_ops(
    predicate: ColumnPredicate | None, limit: int | None
) -> list[PlanOperator]:
    """Filter/Limit child operators of a scan."""
    children: list[PlanOperator] = []
    if predicate is not None:
        children.append(
            PlanOperator(name="Filter", knobs={"predicates": predicate.sql})
        )
    if limit is not None:
        children.append(PlanOperator(name="Limit", knobs={"rows": limit}))
    return children


class PlanExplainer:
    """Builds and annotates EXPLAIN operator trees for one database."""

    def __init__(self, database: Any) -> None:
        """Bind the explainer to the database the statements run against."""
        self.database = database

    # ------------------------------------------------------------------ #
    # tree construction
    # ------------------------------------------------------------------ #
    def build_report(self, plan: Explain) -> ExplainReport:
        """The report skeleton for one parsed ``EXPLAIN`` node."""
        return ExplainReport(
            root=self.build(plan.statement),
            statement=type(plan.statement).__name__,
            analyze=plan.analyze,
        )

    def build(self, statement: LogicalPlan) -> PlanOperator:
        """The operator tree of one inner statement (not yet annotated)."""
        if isinstance(statement, SeqScan):
            return self._build_scan(statement)
        if isinstance(statement, CountScan):
            return self._build_count(statement)
        if isinstance(statement, DropModel):
            return self._build_drop(statement)
        if isinstance(statement, ShowModels):
            return self._build_show()
        if isinstance(statement, (UDFCall, PredictScan, ScoreCall, CreateModel)):
            return self._serving_explain(statement)
        raise QueryError(f"EXPLAIN does not support plan node {statement!r}")

    def _scan_inputs(
        self, statement: SeqScan | CountScan
    ) -> tuple[dict[str, int], ColumnPredicate | None]:
        """Catalogued page/tuple statistics of a scan's table and its compiled
        WHERE — raising the ``QueryError`` executing the scan would."""
        catalog = self.database.catalog
        if not catalog.has_table(statement.table_name):
            raise QueryError(f"table {statement.table_name!r} does not exist")
        entry = catalog.table(statement.table_name)
        stats = {
            "pages": self.database.storage.page_count(entry.file_name),
            "tuples": entry.tuple_count,
        }
        return stats, ColumnPredicate.compile(entry.schema, statement.where)

    def _build_scan(self, statement: SeqScan) -> PlanOperator:
        stats, predicate = self._scan_inputs(statement)
        columns = "*" if statement.columns is None else ",".join(statement.columns)
        return PlanOperator(
            name="SeqScan",
            label=statement.table_name,
            knobs={"columns": columns, **stats},
            predicted={"rows": stats["tuples"]},
            measure=lambda result: {"rows": len(result.rows)},
            children=filter_limit_ops(predicate, statement.limit),
        )

    def _build_count(self, statement: CountScan) -> PlanOperator:
        stats, predicate = self._scan_inputs(statement)
        return PlanOperator(
            name="CountScan",
            label=statement.table_name,
            knobs=stats,
            predicted={"rows": 1},
            measure=lambda result: {"count": result.rows[0][0]},
            children=filter_limit_ops(predicate, None),
        )

    def _build_drop(self, statement: DropModel) -> PlanOperator:
        knobs: dict[str, Any] = {"model": statement.model_name}
        if statement.version is not None:
            knobs["version"] = statement.version
        return PlanOperator(
            name="DropModel",
            knobs=knobs,
            measure=lambda result: {"dropped_versions": len(result.rows)},
        )

    def _build_show(self) -> PlanOperator:
        try:
            count = len(self.database.catalog.models())
        except CatalogError:  # pragma: no cover - defensive
            count = 0
        return PlanOperator(
            name="ShowModels",
            predicted={"rows": count},
            measure=lambda result: {"rows": len(result.rows)},
        )

    def _serving_explain(self, statement: LogicalPlan) -> PlanOperator:
        runtime = getattr(self.database, "serving_runtime", None)
        if runtime is None:
            raise QueryError(
                "no DAnA system is attached to this database; construct "
                "repro.core.DAnA(database) before running prediction or "
                "CREATE MODEL statements"
            )
        return runtime.sql_explain(statement)

    # ------------------------------------------------------------------ #
    # actual-side annotation (EXPLAIN ANALYZE)
    # ------------------------------------------------------------------ #
    def annotate(
        self,
        report: ExplainReport,
        trace: "StatementTrace",
        result: QueryResult,
    ) -> None:
        """Fill every operator's ``actual`` side from one executed run.

        Span-site operators aggregate their matching spans (count, wall
        seconds, summed pages/tuples attributes); ``measure`` callbacks
        read counters off the statement's result.  The root additionally
        books the whole statement's wall time.
        """
        spans = trace.spans()
        for op in report.root.walk():
            if op.span_site is not None:
                matched = [
                    span
                    for span in spans
                    if span.get("name") == op.span_site
                    and _attrs_match(span.get("attrs") or {}, op.span_attrs)
                ]
                if matched:
                    op.actual["spans"] = len(matched)
                    op.actual["wall_seconds"] = round(
                        sum(span.get("duration_s") or 0.0 for span in matched), 6
                    )
                    for key in ("pages", "tuples", "rows", "executed"):
                        values = [
                            (span.get("attrs") or {}).get(key)
                            for span in matched
                            if isinstance(
                                (span.get("attrs") or {}).get(key), (int, float)
                            )
                        ]
                        if values:
                            op.actual[key] = int(sum(values))
            if op.measure is not None:
                op.actual.update(op.measure(result))
        report.root.actual.setdefault(
            "wall_seconds", round(trace.wall_seconds, 6)
        )
