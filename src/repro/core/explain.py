"""``EXPLAIN`` operator trees for training and scoring statements.

Every builder here takes the *same* resolved
:class:`~repro.core.plan.TrainPlan` / :class:`~repro.core.plan.ScorePlan`
the statement would execute with (built by
:class:`~repro.core.sql_runtime.SqlRuntime`), prints the plan's fields as
knobs and prices them through :mod:`repro.perf.plan_cost`'s
schedule-derived predictors.  Nothing is defaulted or derived a second
time, so the knobs equal the executed run's ``ClusterStats`` /
``ScoreResult`` fields and its recorded config by construction — and
building a tree executes nothing: compilation is cached, no cluster or
scorer is constructed, no run is recorded and no model is trained.

Which operators claim a telemetry span site (``span_site``) mirrors where
the execution paths actually open spans, so ``EXPLAIN ANALYZE`` finds a
measured counterpart for exactly the operators that claim one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.cluster import PARTITION_STRATEGIES, PagePartition, Partitioner
from repro.perf import (
    ScoreRunCost,
    page_tuple_counts,
    predict_score_cost,
    predict_train_cost,
)
from repro.rdbms import ModelEntry
from repro.rdbms.explain import PlanOperator, filter_limit_ops
from repro.rdbms.query import CreateModel, PredictScan, QueryResult, ScoreCall

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dana import DAnA
    from repro.core.plan import ScorePlan, TrainPlan


def _partitions(
    system: "DAnA", plan: "TrainPlan | ScorePlan"
) -> tuple[list[PagePartition], list[list[int]]]:
    """Per-segment page lists and tuple counts from catalog statistics.

    Uses the same :class:`~repro.cluster.Partitioner` the execution paths
    use, so the predicted per-segment page sets are exactly the executed
    ones — but prices them from the catalog's tuple count instead of
    scanning heap pages.  A single-accelerator plan is one partition
    holding every page.
    """
    database = system.database
    # (any strategy deals a single partition every page)
    strategy = plan.partition_strategy or PARTITION_STRATEGIES[0]
    parts = Partitioner(strategy, seed=plan.seed).partition_table(
        database, plan.table, plan.segments or 1
    )
    tuple_count = database.catalog.table(plan.table).tuple_count
    per_page = database.table(plan.table).tuples_per_page()
    counts = [page_tuple_counts(part.page_nos, tuple_count, per_page) for part in parts]
    return parts, counts


def _page_walk(
    accelerator, pages: int, access_cycles: int, spans: bool
) -> PlanOperator:
    """The Strider page-walk operator every accelerated statement ends in.

    ``spans`` is whether the walk happens in the armed parent process with
    Striders on — worker processes walk their pages during un-armed child
    startup, and the CPU-decode model walks nothing.
    """
    return PlanOperator(
        name="StriderPageWalk",
        knobs={
            "pages": pages,
            "striders": accelerator.access_engine.config.num_striders,
        },
        predicted={"access_cycles": access_cycles},
        span_site="hw.strider.page_walk" if spans else None,
    )


# ---------------------------------------------------------------------- #
# scoring statements
# ---------------------------------------------------------------------- #
def explain_score(
    system: "DAnA",
    statement: ScoreCall | PredictScan,
    entry: ModelEntry,
    plan: "ScorePlan",
) -> PlanOperator:
    """Operator tree of a ``dana.score``/``dana.predict`` statement."""
    parts, counts = _partitions(system, plan)
    accelerator = system.accelerator_for(plan.udf, plan.table)
    cost = predict_score_cost(
        accelerator.access_engine,
        system._inference_plan(system._registered(plan.udf), plan.table),
        counts,
        batch_size=plan.batch_size,
        stream=plan.stream,
    )
    total_pages = sum(len(part) for part in parts)

    def measure(result: QueryResult) -> dict:
        """Actual-side counters of the executed scoring statement."""
        score = result.payload
        actual = ScoreRunCost.from_result(score)
        return {
            "rows": len(result.rows),
            "tuples_scanned": score.tuples_scanned,
            "tuples": score.tuples_scored,
            "wall_cycles": actual.wall_cycles,
            "seconds": actual.seconds(system.fpga),
            "forward_cycles": score.inference_stats.forward_cycles,
            "retries": score.retry.retries,
            "workers": score.worker_limit,
        }

    root = PlanOperator(
        name="ScanScore",
        label=f"{plan.table} ({entry.name} v{entry.version})",
        knobs={
            "algorithm": entry.algorithm,
            "udf": plan.udf,
            "segments": plan.segments,
            "execution": plan.execution,
            "stream": plan.stream,
            "batch_size": plan.batch_size,
            "workers": plan.workers,
            "pages": total_pages,
            "tuples": cost.tuples_scored,
        },
        predicted={
            "tuples": cost.tuples_scored,
            "wall_cycles": cost.wall_cycles,
            "critical_path_cycles": cost.critical_path_cycles,
            "pipelined_cycles": cost.pipelined_critical_path_cycles,
            "seconds": cost.seconds(system.fpga),
            "inference_cycles_per_tuple": round(cost.inference_cycles_per_tuple, 2),
        },
        # The parent-side scorer span fires for threads *and* process
        # fan-outs, so the root always has a measured counterpart.
        span_site="serving.scorer.segment",
        measure=measure,
    )
    for part, part_counts in zip(parts, counts):
        i = part.segment_id
        root.children.append(
            PlanOperator(
                name="Segment",
                label=f"#{i}",
                knobs={"pages": len(part), "tuples": sum(part_counts)},
                predicted={
                    "access_cycles": cost.segment_access_cycles[i],
                    "forward_cycles": cost.segment_forward_cycles[i],
                },
                span_site="serving.scorer.segment",
                span_attrs={"segment": i},
            )
        )
    walk = _page_walk(
        accelerator,
        total_pages,
        sum(cost.segment_access_cycles),
        spans=plan.execution == "threads" and plan.use_striders,
    )
    root.children.append(walk)
    if plan.where is not None:
        # The access path filters each decoded page, so only qualifying
        # tuples reach the forward tape; with no selectivity statistics the
        # tree still prices the forward pass as if every tuple qualified.
        walk.children.append(
            PlanOperator(
                name="Filter",
                knobs={"predicates": plan.where.sql, "pushed_down": True},
                predicted={"forward_cycles": "upper bound (no selectivity statistics)"},
            )
        )
    root.children.extend(filter_limit_ops(None, statement.limit))
    return root


# ---------------------------------------------------------------------- #
# training statements
# ---------------------------------------------------------------------- #
def explain_train_statement(
    system: "DAnA", statement: Any, plan: "TrainPlan"
) -> PlanOperator:
    """Operator tree of ``CREATE MODEL ... AS TRAIN`` or an accelerated UDF call."""
    train_op = explain_train(system, plan)
    if isinstance(statement, CreateModel):
        return PlanOperator(
            name="CreateModel",
            label=statement.model_name,
            knobs={"udf": plan.udf, "table": plan.table, "algorithm": plan.algorithm},
            measure=lambda result: {
                "version": result.rows[0][1],
                "epochs_run": result.rows[0][3],
            },
            children=[train_op],
        )
    return PlanOperator(
        name="AcceleratedUDF",
        label=f"dana.{plan.udf}({plan.table!r})",
        knobs={"algorithm": plan.algorithm, "epochs": plan.epochs},
        measure=lambda result: {
            "tuples_extracted": result.payload.tuples_extracted,
            "engine_cycles": result.payload.engine_stats.total_cycles,
        },
        children=[train_op],
    )


def explain_train(system: "DAnA", plan: "TrainPlan") -> PlanOperator:
    """The training operator of one plan, with merge/IPC costs when sharded."""
    parts, counts = _partitions(system, plan)
    spec = system._registered(plan.udf).spec
    accelerator = system.accelerator_for(plan.udf, plan.table)
    cost = predict_train_cost(
        accelerator.access_engine,
        accelerator.execution_engine,
        counts,
        plan.epochs,
        sum(int(np.asarray(v).size) for v in spec.initial_models.values()),
        sync=plan.sync,
        staleness=plan.staleness,
        tree_bus_alus=accelerator.binary.design.aus_per_cluster,
        execution=plan.execution,
    )
    in_process = plan.execution != "processes"
    if plan.segments is None:
        return PlanOperator(
            name="Train",
            label=plan.udf,
            knobs={
                "mode": plan.execution,
                "epochs": plan.epochs,
                "stream": plan.stream,
                "pages": len(parts[0]),
                "tuples": sum(counts[0]),
            },
            predicted={
                "access_cycles": cost.segment_access_cycles[0],
                "engine_cycles": cost.segment_engine_cycles[0],
                "critical_path_cycles": cost.critical_path_cycles,
                "seconds": cost.seconds(system.fpga),
                "pipelined_seconds": cost.pipelined_seconds(system.fpga),
            },
            # The classic single-accelerator path drives its epochs inline
            # (no EpochDriver), so there is no runtime.epoch span to match.
            span_site=None,
            children=[
                _page_walk(
                    accelerator,
                    len(parts[0]),
                    cost.segment_access_cycles[0],
                    spans=plan.use_striders,
                )
            ],
        )
    predicted: dict[str, Any] = {
        "critical_path_cycles": cost.critical_path_cycles,
        "pipelined_cycles": cost.pipelined_critical_path_cycles,
        "seconds": cost.seconds(system.fpga),
        "pipelined_seconds": cost.pipelined_seconds(system.fpga),
        "epochs": plan.epochs,
    }
    if not in_process:
        predicted["ipc_bytes"] = cost.ipc_bytes
        predicted["ipc_round_trips"] = cost.ipc_round_trips
    op = PlanOperator(
        name="EpochLoop",
        knobs={
            "mode": plan.execution,
            "segments": plan.segments,
            "epochs": plan.epochs,
            "sync": plan.sync,
            "staleness": plan.staleness,
            "stream": plan.stream,
            "partition_strategy": plan.partition_strategy,
            "workers": plan.workers,
        },
        predicted=predicted,
        # Every sharded mode schedules epochs through the EpochDriver.
        span_site="runtime.epoch",
    )
    for part, part_counts in zip(parts, counts):
        i = part.segment_id
        op.children.append(
            PlanOperator(
                name="SegmentTrain",
                label=f"#{i}",
                knobs={"pages": len(part), "tuples": sum(part_counts)},
                predicted={
                    "access_cycles": cost.segment_access_cycles[i],
                    "engine_cycles": cost.segment_engine_cycles[i],
                },
                # Per-segment training spans exist only for real fan-outs;
                # lockstep's segment axis lives inside one vectorized tape
                # run, and a segment with no pages never reaches its
                # training loop.
                span_site=(
                    "cluster.segment.train"
                    if plan.execution != "lockstep" and part
                    else None
                ),
                span_attrs={"segment": i},
            )
        )
    if plan.segments > 1:
        op.children.append(
            PlanOperator(
                name="MergeModels",
                knobs={
                    "aggregation": plan.aggregation,
                    "merges": cost.merges_performed,
                    "model_elements": cost.model_elements,
                },
                predicted={"cross_merge_cycles": cost.cross_merge_cycles},
                span_site="cluster.segment.merge",
            )
        )
    op.children.append(
        _page_walk(
            accelerator,
            sum(len(part) for part in parts),
            sum(cost.segment_access_cycles),
            spans=in_process and plan.use_striders,
        )
    )
    return op
