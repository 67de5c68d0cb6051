"""Predictive statement costing for ``EXPLAIN``: the ledger, read ahead of time.

The cost summaries in this package (``ShardedRunCost``, ``ScoreRunCost``)
lift per-segment reports out of a run that already happened.  This module
builds the *same* reports before anything runs — from the catalog's page
statistics and the one cost function each hardware stage states
(:mod:`repro.hw.ledger`: the functions a run books with) — and lifts them
through the *same* ``from_reports`` constructor.  So the modelled-cycle
error of ``EXPLAIN ANALYZE``'s predicted-vs-actual is zero by construction
(unless the run departs from its plan: early convergence, a WHERE's
selectivity), and wall-clock is all that is left to calibrate.
"""

from __future__ import annotations

import math
import os
from typing import Sequence

from repro.cluster.segment_worker import SegmentReport
from repro.hw.execution_engine import EngineRunStats
from repro.perf.segment_model import ShardedRunCost
from repro.perf.serving_model import ScoreRunCost
from repro.serving.scorer import SegmentScoreReport

#: modelled pickle framing overhead per worker-pipe message (bytes).
IPC_MESSAGE_OVERHEAD_BYTES = 1024


def worker_limit(segments: int) -> int:
    """Concurrent fan-out width of a ``segments``-way run on this host.

    ``min(segments, usable cores)`` — the one clamp every thread/process
    fan-out applies (via the run's resolved plan).  "Usable" is the CPU
    affinity mask where the platform exposes one, so a ``taskset`` /
    cgroup-pinned process does not oversubscribe the cores it may not run
    on; elsewhere it falls back to the host's CPU count.
    """
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(max(1, segments), max(1, cores))


def page_tuple_counts(
    page_nos: Sequence[int], tuple_count: int, tuples_per_page: int
) -> list[int]:
    """Per-page tuple counts for a set of heap pages, without scanning.

    Bulk-loaded heap files fill pages front to back, so page ``p`` holds
    ``min(tuples_per_page, tuple_count - p * tuples_per_page)`` tuples
    (the final page may be partial).  This is what lets the predictors
    price a partition from catalog statistics alone.
    """
    if tuples_per_page < 1:
        raise ValueError("tuples_per_page must be positive")
    return [
        max(0, min(tuples_per_page, tuple_count - no * tuples_per_page))
        for no in page_nos
    ]


def predicted_merges(staleness: int, epochs: int) -> int:
    """How many cross-segment merges a run performs: one per
    ``staleness``-epoch window (``staleness=1``: one per epoch)."""
    if epochs < 1:
        return 0
    return math.ceil(epochs / max(1, staleness))


def predict_score_cost(
    access_engine,
    inference_plan,
    partition_tuples: Sequence[Sequence[int]],
    batch_size: int | None = None,
    stream: bool = True,
    use_striders: bool = True,
) -> ScoreRunCost:
    """Predict a scan-and-score run's cost before executing it.

    ``partition_tuples`` holds each segment's per-page tuple counts
    (:func:`page_tuple_counts`).  A segment's predicted report carries the
    ledgers the run would book — ``AccessEngine.partition_cost`` (through
    the plan's ``use_striders`` decision) and ``InferencePlan.forward_cost``
    — and goes through the constructor a measured run is lifted by.
    """
    reports = [
        SegmentScoreReport(
            segment_id=i,
            pages=len(counts),
            tuples_scored=sum(counts),
            access_stats=access_engine.partition_cost(counts, use_striders=use_striders),
            inference_stats=inference_plan.forward_cost(sum(counts), batch_size),
        )
        for i, counts in enumerate(partition_tuples)
    ]
    return ScoreRunCost.from_reports(reports, stream)


def predict_train_cost(
    accelerator,
    partition_tuples: Sequence[Sequence[int]],
    epochs: int,
    param_elements: Sequence[int],
    *,
    use_striders: bool = True,
    staleness: int | None,
    execution: str,
) -> ShardedRunCost:
    """Predict a (sharded) training run's cost before executing it.

    Per segment, a predicted report: the extraction is walked once
    (``AccessEngine.partition_cost``, through the plan's ``use_striders``
    decision) and the engine books ``ExecutionEngine.epoch_cost`` ``epochs``
    times.  The cluster bus books one ``TreeBus.merge_cost`` per model
    parameter (sizes in ``param_elements``) per predicted merge over the
    segments that hold tuples — one without rows neither trains nor merges.
    The reports go through the constructor a measured run is lifted by, so
    the cycles equal the executed run's unless it converges early.
    ``execution="processes"`` adds a modelled IPC bill (two state-sized pipe
    messages per segment per merge window plus init/shutdown handshakes): a
    calibration-style estimate, not a ledger.  ``staleness`` is ``None``
    for a single accelerator, which never merges.
    """
    sharded = staleness is not None
    engine = accelerator.execution_engine
    reports = [
        SegmentReport(
            segment_id=i,
            pages=len(counts),
            tuples_extracted=n_tuples,
            engine_stats=(
                engine.epoch_cost(n_tuples)[0] * epochs
                if n_tuples or not sharded
                else EngineRunStats()
            ),
            access_stats=accelerator.access_engine.partition_cost(
                counts, use_striders=use_striders
            ),
        )
        for i, (counts, n_tuples) in enumerate(
            zip(partition_tuples, map(sum, partition_tuples))
        )
    ]
    active = sum(1 for report in reports if report.tuples_extracted)
    windows = predicted_merges(staleness, epochs) if sharded else 0
    merges = windows if active else 0
    # The cluster bus is built like the engines' thread buses (the design's
    # ``aus_per_cluster`` ALUs), so the engine's bus prices its merges.
    merge_cycles = sum(
        engine.tree_bus.merge_cost(active, elements).cycles
        for elements in param_elements
        if merges and elements
    )
    ipc = {}
    if execution == "processes":
        state_bytes = sum(param_elements) * 8 + IPC_MESSAGE_OVERHEAD_BYTES
        ipc["ipc_bytes"] = len(reports) * max(1, windows) * 2 * state_bytes
        ipc["ipc_round_trips"] = len(reports) * (max(1, windows) + 2)
    return ShardedRunCost.from_reports(
        reports,
        epochs_run=epochs,
        model_elements=sum(param_elements),
        merges_performed=merges,
        cross_merge_cycles=merges * merge_cycles,
        **ipc,
    )
