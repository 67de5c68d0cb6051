"""Predictive statement costing for ``EXPLAIN``.

The measured cost summaries in this package
(:class:`~repro.perf.segment_model.ShardedRunCost`,
:class:`~repro.perf.serving_model.ScoreRunCost`) lift counters out of a
run that already happened.  This module builds the *same* cost objects
before anything runs, from the catalog's page statistics and the
schedule-derived predictors the hardware layer exposes
(:meth:`~repro.hw.access_engine.AccessEngine.estimate_partition_cycles`,
:meth:`~repro.hw.execution_engine.ExecutionEngine.predict_epoch_cycles`,
:meth:`~repro.serving.inference.InferencePlan.predict_forward_cycles`) —
so ``EXPLAIN`` prices a statement with exactly the cycle model the
executed statement would report, and ``EXPLAIN ANALYZE``'s
predicted-vs-actual deltas are a meaningful calibration signal for the
planned cost-based optimizer.
"""

from __future__ import annotations

import math
import os
from typing import Sequence

from repro.hw.tree_bus import TreeBus
from repro.perf.segment_model import ShardedRunCost
from repro.perf.serving_model import ScoreRunCost

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


def predicted_merges(sync: str, staleness: int, epochs: int) -> int:
    """How many cross-segment merges a sync policy performs over a run.

    ``bulk_synchronous`` merges once per epoch; ``stale_synchronous``
    merges once per ``staleness``-epoch window.
    """
    if epochs < 1:
        return 0
    if sync == "stale_synchronous":
        return math.ceil(epochs / max(1, staleness))
    return epochs


def predict_score_cost(
    access_engine,
    inference_plan,
    partition_tuples: Sequence[Sequence[int]],
    batch_size: int | None = None,
    stream: bool = True,
) -> ScoreRunCost:
    """Predict a scan-and-score run's cost before executing it.

    ``partition_tuples`` holds one sequence of per-page tuple counts per
    segment (see :func:`page_tuple_counts`).  Each segment's extraction
    stage comes from the access engine's wave-batched strider estimate
    and its forward stage from the inference plan's micro-batch
    arithmetic, so the returned :class:`ScoreRunCost` prices the same
    serial / pipelined critical paths a measured run would report.
    """
    access = []
    forward = []
    for counts in partition_tuples:
        access.append(
            access_engine.estimate_partition_cycles(list(counts))["access_cycles"]
            if counts
            else 0
        )
        forward.append(
            inference_plan.predict_forward_cycles(sum(counts), batch_size)
        )
    return ScoreRunCost(
        segments=len(access),
        tuples_scored=sum(sum(counts) for counts in partition_tuples),
        segment_access_cycles=tuple(access),
        segment_forward_cycles=tuple(forward),
        stream=stream,
    )


def predict_train_cost(
    access_engine,
    execution_engine,
    partition_tuples: Sequence[Sequence[int]],
    epochs: int,
    model_elements: int,
    *,
    sync: str | None,
    staleness: int | None,
    tree_bus_alus: int,
    execution: str,
) -> ShardedRunCost:
    """Predict a (sharded) training run's cost before executing it.

    Per segment: the extraction stage is walked once (pages are
    materialised or streamed, either way each page is cleansed once) and
    the engine stage repeats its schedule-derived epoch arithmetic
    ``epochs`` times.  The cross-segment merge is priced with the same
    :class:`~repro.hw.tree_bus.TreeBus` model the engines use, once per
    predicted merge (:func:`predicted_merges`).  For
    ``execution="processes"`` the returned cost also carries a modelled
    IPC bill — two state-sized pipe messages per segment per merge window
    plus init/shutdown handshakes — which, like the perf package's
    bandwidth constants, is a calibration-style estimate rather than a
    measurement.  The knobs are a resolved ``TrainPlan``'s: ``sync`` /
    ``staleness`` are ``None`` for a single accelerator, which never merges.
    """
    segments = len(partition_tuples)
    access = []
    engine = []
    for counts in partition_tuples:
        access.append(
            access_engine.estimate_partition_cycles(list(counts))["access_cycles"]
            if counts
            else 0
        )
        engine.append(
            epochs * execution_engine.predict_epoch_cycles(sum(counts))
        )
    merges = predicted_merges(sync, staleness, epochs) if segments > 1 else 0
    bus = TreeBus(alu_count=tree_bus_alus)
    cross_merge = merges * bus.merge_cycles(segments, model_elements)
    ipc_bytes = 0
    ipc_round_trips = 0
    if execution == "processes":
        windows = max(1, predicted_merges(sync, staleness, epochs))
        state_bytes = model_elements * 8 + IPC_MESSAGE_OVERHEAD_BYTES
        ipc_bytes = segments * windows * 2 * state_bytes
        ipc_round_trips = segments * (windows + 2)
    return ShardedRunCost(
        segments=segments,
        epochs_run=epochs,
        critical_segment_cycles=max(
            (a + e for a, e in zip(access, engine)), default=0
        ),
        cross_merge_cycles=cross_merge,
        model_elements=model_elements,
        segment_access_cycles=tuple(access),
        segment_engine_cycles=tuple(engine),
        merges_performed=merges,
        ipc_bytes=ipc_bytes,
        ipc_round_trips=ipc_round_trips,
    )
