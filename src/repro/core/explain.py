"""``EXPLAIN`` operator trees for training and scoring statements.

Every builder here takes the *same* resolved
:class:`~repro.core.plan.TrainPlan` / :class:`~repro.core.plan.ScorePlan`
the statement would execute with (built by
:class:`~repro.core.sql_runtime.SqlRuntime`), prints the plan's fields as
knobs and prices them through :mod:`repro.perf.plan_cost` — the cost
functions the run books with.  Nothing is defaulted or derived a second
time, so the knobs equal the executed run's ``ClusterStats`` /
``ScoreResult`` fields and its recorded config by construction — and
building a tree executes nothing: compilation is cached, no cluster or
scorer is constructed, no run is recorded and no model is trained.

Which operators claim a telemetry span site (``span_site``) mirrors where
the execution paths actually open spans, so ``EXPLAIN ANALYZE`` finds a
measured counterpart for exactly the operators that claim one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.cluster import PagePartition, Partitioner
from repro.core.plan import ScorePlan, TrainPlan
from repro.perf import (
    ScoreRunCost,
    ShardedRunCost,
    page_tuple_counts,
    predict_score_cost,
    predict_train_cost,
)
from repro.rdbms import ModelEntry
from repro.rdbms.explain import PlanOperator, filter_limit_ops
from repro.rdbms.query import CreateModel, PredictScan, QueryResult, ScoreCall

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dana import DAnA


def price(
    system: "DAnA", plan: TrainPlan | ScorePlan
) -> tuple[list[PagePartition], list[list[int]], ShardedRunCost | ScoreRunCost]:
    """``(partitions, per-page tuple counts, predicted cost)`` of a resolved plan.

    Partitions come from the :class:`~repro.cluster.Partitioner` execution
    uses (a single accelerator is one partition) and tuple counts from
    catalog statistics, so nothing is scanned.  The cost is the object the
    executed run's counters lift to; a WHERE is priced as if every tuple
    qualified (no selectivity statistics): forward cycles are an upper
    bound, access cycles stay exact — every page is walked either way.
    """
    database = system.database
    parts = Partitioner().partition_table(database, plan.table, plan.segments or 1)
    tuple_count = database.catalog.table(plan.table).tuple_count
    per_page = database.table(plan.table).tuples_per_page()
    counts = [page_tuple_counts(part.page_nos, tuple_count, per_page) for part in parts]
    accelerator = system.accelerator_for(plan.udf, plan.table)
    registered = system._registered(plan.udf)
    if isinstance(plan, TrainPlan):
        cost = predict_train_cost(
            accelerator,
            counts,
            plan.epochs,
            [int(np.size(v)) for v in registered.spec.initial_models.values()],
            use_striders=plan.use_striders,
            staleness=plan.staleness,
            execution=plan.execution,
        )
    else:
        cost = predict_score_cost(
            accelerator.access_engine,
            system._inference_plan(registered, plan.table),
            counts,
            batch_size=plan.batch_size,
            stream=plan.stream,
            use_striders=plan.use_striders,
        )
    return parts, counts, cost


def _costed(fields: Callable[[Any], dict], cost: Any, **modelled: Any) -> dict:
    """An operator's ``predicted=`` and ``measure=``, off one field reader:
    ``fields`` reads the priced plan's cost (plus ``modelled`` extras) for
    the predicted line and the statement's measured cost
    (``QueryResult.stats["cost"]``, same constructor) for the actual one."""
    return {
        "predicted": {**fields(cost), **modelled},
        "measure": lambda result: fields(result.stats["cost"]),
    }


def _segment_ops(
    name: str, compute: str, parts, counts, cost: Any, span_site: Callable
) -> list[PlanOperator]:
    """One operator per segment: its pages/tuples and its two stage costs
    (``compute`` names the second stage: ``"engine"`` or ``"forward"``)."""
    return [
        PlanOperator(
            name=name,
            label=f"#{part.segment_id}",
            knobs={"pages": len(part), "tuples": sum(part_counts)},
            span_site=span_site(part),
            span_attrs={"segment": part.segment_id},
            **_costed(_segment_cycles(compute, part.segment_id), cost),
        )
        for part, part_counts in zip(parts, counts)
    ]


def _segment_cycles(compute: str, i: int) -> Callable[[Any], dict]:
    return lambda c: {
        "access_cycles": c.segment_access_cycles[i],
        f"{compute}_cycles": getattr(c, f"segment_{compute}_cycles")[i],
    }


def _page_walk(accelerator, parts, cost: Any, spans: bool) -> PlanOperator:
    """The Strider page-walk operator every accelerated statement ends in.

    ``spans`` is whether the walk happens in the armed parent process with
    Striders on — worker processes walk their pages during un-armed child
    startup, and the CPU-decode model walks nothing (and costs nothing).
    """
    return PlanOperator(
        name="StriderPageWalk",
        knobs={
            "pages": sum(len(part) for part in parts),
            "striders": accelerator.access_engine.config.num_striders,
        },
        span_site="hw.strider.page_walk" if spans else None,
        **_costed(lambda c: {"access_cycles": sum(c.segment_access_cycles)}, cost),
    )


# ---------------------------------------------------------------------- #
# scoring statements
# ---------------------------------------------------------------------- #
def explain_score(
    system: "DAnA",
    statement: ScoreCall | PredictScan,
    entry: ModelEntry,
    plan: ScorePlan,
) -> PlanOperator:
    """Operator tree of a ``dana.score``/``dana.predict`` statement."""
    parts, counts, cost = price(system, plan)
    accelerator = system.accelerator_for(plan.udf, plan.table)

    def cycles(c: ScoreRunCost) -> dict:
        return {
            "wall_cycles": c.wall_cycles,
            "critical_path_cycles": c.critical_path_cycles,
            "pipelined_cycles": c.pipelined_critical_path_cycles,
        }

    def measure(result: QueryResult) -> dict:
        """Actual-side counters of the executed scoring statement."""
        score = result.payload
        actual = result.stats["cost"]
        return {
            "rows": len(result.rows),
            "tuples_scanned": score.tuples_scanned,
            "tuples": score.tuples_scored,
            **cycles(actual),
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
            "pages": sum(len(part) for part in parts),
            "tuples": cost.tuples_scored,
        },
        predicted={
            "tuples": cost.tuples_scored,
            **cycles(cost),
            "seconds": cost.seconds(system.fpga),
            "inference_cycles_per_tuple": round(cost.inference_cycles_per_tuple, 2),
        },
        # The parent-side scorer span fires for threads *and* process
        # fan-outs, so the root always has a measured counterpart.
        span_site="serving.scorer.segment",
        measure=measure,
    )
    root.children = _segment_ops(
        "Segment", "forward", parts, counts, cost, lambda part: "serving.scorer.segment"
    )
    walk = _page_walk(
        accelerator, parts, cost, plan.execution == "threads" and plan.use_striders
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
    system: "DAnA", statement: Any, plan: TrainPlan
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


def explain_train(system: "DAnA", plan: TrainPlan) -> PlanOperator:
    """The training operator of one plan, with merge/IPC costs when sharded."""
    parts, counts, cost = price(system, plan)
    accelerator = system.accelerator_for(plan.udf, plan.table)
    fpga = system.fpga
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
            # One accelerator drives its epochs through the EpochDriver too.
            span_site="runtime.epoch",
            children=[_page_walk(accelerator, parts, cost, plan.use_striders)],
            **_costed(
                lambda c: {
                    **_segment_cycles("engine", 0)(c),
                    "critical_path_cycles": c.critical_path_cycles,
                },
                cost,
                seconds=cost.seconds(fpga),
                pipelined_seconds=cost.pipelined_seconds(fpga),
            ),
        )

    def loop_cycles(c: ShardedRunCost) -> dict:
        cycles = {
            "critical_path_cycles": c.critical_path_cycles,
            "pipelined_cycles": c.pipelined_critical_path_cycles,
        }
        if not in_process:
            cycles["ipc_bytes"] = c.ipc_bytes
            cycles["ipc_round_trips"] = c.ipc_round_trips
        return cycles

    op = PlanOperator(
        name="EpochLoop",
        knobs={
            "mode": plan.execution,
            "segments": plan.segments,
            "epochs": plan.epochs,
            "staleness": plan.staleness,
            "stream": plan.stream,
            "workers": plan.workers,
        },
        # Every sharded mode schedules epochs through the EpochDriver.
        span_site="runtime.epoch",
        **_costed(
            loop_cycles,
            cost,
            seconds=cost.seconds(fpga),
            pipelined_seconds=cost.pipelined_seconds(fpga),
            epochs=plan.epochs,
        ),
    )
    # Per-segment training spans exist only for real fan-outs; lockstep's
    # segment axis lives inside one vectorized tape run, and a segment with
    # no pages never reaches its training loop.
    fans_out = plan.execution != "lockstep"
    op.children = _segment_ops(
        "SegmentTrain",
        "engine",
        parts,
        counts,
        cost,
        lambda part: "cluster.segment.train" if fans_out and part else None,
    )
    if plan.segments > 1:
        op.children.append(
            PlanOperator(
                name="MergeModels",
                knobs={
                    "aggregation": plan.aggregation,
                    "model_elements": cost.model_elements,
                },
                span_site="cluster.segment.merge",
                **_costed(
                    lambda c: {
                        "merges": c.merges_performed,
                        "cross_merge_cycles": c.cross_merge_cycles,
                    },
                    cost,
                ),
            )
        )
    op.children.append(
        _page_walk(accelerator, parts, cost, in_process and plan.use_striders)
    )
    return op
