"""Whole-table scan-and-score over the bulk Strider page walk.

This is the serving twin of :class:`~repro.cluster.sharded.ShardedDAnA`:
the table's heap pages are partitioned across ``segments`` with the same
:class:`~repro.cluster.partitioner.Partitioner` the training cluster uses,
every segment owns a full :class:`~repro.hw.accelerator.DAnAAccelerator`
(its own Striders and counters) plus a fresh
:class:`~repro.serving.inference.InferenceEngine`, and segments score
concurrently through the shared
:class:`~repro.cluster.fanout.SegmentFanout` (pool threads — the NumPy
kernels release the GIL — or one-shot worker processes).
Per-segment predictions are scattered back into **storage order**, so the
result is independent of the partitioning.

Every segment opens its pages through the extraction seam
(:meth:`~repro.hw.access_engine.AccessEngine.open`) and runs the forward
tape once per extracted **wave** of the :class:`~repro.runtime.BatchSource`
that comes back (:meth:`~repro.runtime.BatchSource.chunks`); the plan's
``batch_size`` is the micro-batch the ledger *books*, from counts alone.
Scoring is **streaming** by default (``stream=True``): the forward tape
pulls one wave of the bulk Strider page walk, scores it while it is still
in cache and then pulls the next, on the segment's own thread — the same
pull training's epoch 0 makes.  ``stream=False`` opens a materialised
source and is kept as the streaming oracle: predictions and
schedule-derived counters are bit-identical across the two by
construction (one scoring loop, identical rows, booking from counts,
identical page walk).

A ``dana.predict`` statement's WHERE rides on the plan
(:attr:`~repro.core.plan.ScorePlan.where`) and is evaluated by the access
path, per decoded page: every page is walked (the access counters are the
unfiltered scan's) but only qualifying tuples are batched, scored and
booked, and reassembly runs over the per-page qualifying counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.cluster.fanout import IPCStats, SegmentFanout, SegmentProcess
from repro.cluster.partitioner import PagePartition
from repro.exceptions import RetryExhaustedError
from repro.hw.access_engine import AccessEngineStats
from repro.hw.accelerator import DAnAAccelerator
from repro.hw.fpga import DEFAULT_FPGA, FPGASpec
from repro.hw.ledger import critical_path_cycles
from repro.obs.telemetry import telemetry
from repro.reliability.faults import fault_point
from repro.reliability.retry import RetryStats
from repro.serving.inference import InferencePlan, InferenceStats

#: fault-injection site fired once per scored segment attempt.
SCORER_FAULT_SITE = "serving.scorer.segment"

#: segment fan-out strategies for whole-table scoring.
SCORING_EXECUTION_STRATEGIES = ("threads", "processes")

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.base import AlgorithmSpec
    from repro.compiler.execution_binary import ExecutionBinary
    from repro.core.plan import ScorePlan
    from repro.rdbms.database import Database


@dataclass
class SegmentScoreReport:
    """One segment's contribution to a scan-and-score run."""

    segment_id: int
    pages: int
    tuples_scored: int
    access_stats: AccessEngineStats
    inference_stats: InferenceStats


@dataclass
class ScoreResult:
    """Predictions + per-segment hardware activity of one table scoring."""

    predictions: np.ndarray
    batch_size: int
    segments: list[SegmentScoreReport]
    #: True when the run overlapped each segment's page walk with its
    #: forward tape (streaming); False for the materialized oracle.
    stream: bool
    #: segment fan-out of the run: ``"threads"`` or ``"processes"``.
    execution: str
    #: concurrent fan-out width of the run (``worker_limit(segments)``),
    #: so oversubscribed hosts dispatch at most one segment per core.
    worker_limit: int
    #: fault/retry counters of the run (all zero when fault-free);
    #: ``retry.redistributed`` counts segments whose pages survivors
    #: adopted after retry exhaustion.
    retry: RetryStats = field(default_factory=RetryStats)
    #: parent<->worker IPC volume (non-zero only for ``processes`` runs).
    ipc: IPCStats = field(default_factory=IPCStats)
    #: WAL LSN the scan was pinned to; rows inserted after it are invisible.
    snapshot_lsn: int = 0
    #: tuples the scan walked and decoded: the table as of ``snapshot_lsn``.
    #: Exceeds :attr:`tuples_scored` by what the plan's WHERE filtered out.
    tuples_scanned: int = 0

    @property
    def tuples_scored(self) -> int:
        """Total tuples scored across all segments (the qualifying ones)."""
        return len(self.predictions)

    @property
    def inference_stats(self) -> InferenceStats:
        """Aggregate (summed) inference counters across segments."""
        return sum((seg.inference_stats for seg in self.segments), InferenceStats())

    @property
    def critical_path_cycles(self) -> int:
        """Modelled wall-clock cycles: segments scan-and-score concurrently."""
        return critical_path_cycles(
            (seg.access_stats.access_cycles, seg.inference_stats.total_cycles)
            for seg in self.segments
        )


def score_segment(
    plan: "ScorePlan",
    binary: "ExecutionBinary",
    spec: "AlgorithmSpec",
    fpga: FPGASpec,
    inference: InferencePlan,
    part: PagePartition,
    images: list[bytes],
    models: Mapping[str, np.ndarray],
    retry_stats: RetryStats,
) -> tuple[SegmentScoreReport, np.ndarray, list[int]]:
    """Score one partition's page images on a fresh accelerator + engine.

    The one segment-scoring body: a fan-out pool thread calls it in the
    parent and a worker process calls it over its shared-store views, so
    the two fan-outs cannot drift.  The extraction seam opens the pages as
    the plan says (applying ``plan.where``, so the engine scores — and
    books — qualifying tuples only) and the forward tape scores the
    source's waves as delivered, booked at ``plan.batch_size``.  Stream
    restarts are booked into ``retry_stats``.  Returns the segment's
    report, its predictions and the per-page (qualifying) tuple counts
    reassembly needs.
    """
    engine = inference.new_engine()
    accelerator = DAnAAccelerator(
        binary=binary, schema=spec.schema, fpga=fpga, predicate=plan.where
    )
    source = accelerator.access_engine.open(images, **plan.extraction())
    predictions = engine.score_batches(
        source.chunks(), models, batch_size=plan.batch_size
    )
    retry_stats.merge(source.retry_stats)
    report = SegmentScoreReport(
        segment_id=part.segment_id,
        pages=len(part),
        tuples_scored=engine.stats.tuples_scored,
        access_stats=accelerator.access_engine.stats,
        inference_stats=engine.stats,
    )
    return report, predictions, source.sizes


#: one scored unit: (partition, its page images, its worker process or None).
_Job = tuple[PagePartition, list, "SegmentProcess | None"]


class ScanScorer:
    """Scores whole heap tables with one accelerator per segment."""

    def __init__(
        self,
        database: "Database",
        binary: "ExecutionBinary",
        spec: "AlgorithmSpec",
        inference: InferencePlan,
        plan: "ScorePlan",
        fpga: FPGASpec = DEFAULT_FPGA,
    ) -> None:
        """Bind one resolved :class:`~repro.core.plan.ScorePlan`.

        The plan carries the run's knobs (segments, batch size, effective
        stream, fan-out strategy, retry policy, worker clamp) already
        validated; ``inference`` is the compiled forward-only serving plan
        every segment scores with.
        """
        self.database = database
        self.binary = binary
        self.spec = spec
        self.inference = inference
        self.plan = plan
        self.fpga = fpga

    def score_table(self, models: Mapping[str, np.ndarray]) -> ScoreResult:
        """Score every tuple of the plan's table; predictions in storage order.

        Each segment attempt runs on a fresh accelerator + engine, so under
        the plan's :class:`~repro.reliability.RetryPolicy` a retried
        segment is bit-identical to a fault-free one; with
        ``degradation="redistribute"`` the survivors adopt (and score
        in-parent) the pages of a segment that failed every attempt —
        reassembly is by page number, so predictions do not change.
        ``execution="processes"`` scores each segment in a one-shot worker
        process over a :class:`~repro.runtime.shm.SharedPageStore` instead
        of a pool thread, with bit-identical predictions and counters.

        Raises:
            RetryExhaustedError: a segment failed every attempt and the
                policy's degradation mode is ``"fail"`` (or no segment
                survived to adopt the failed pages).
        """
        plan = self.plan
        retry = plan.retry
        with SegmentFanout(
            self.database, self.binary, self.spec, plan, self.fpga
        ) as fanout:
            jobs: list[_Job] = [
                (part, fanout.images(part), process)
                for part, process in zip(
                    fanout.parts, fanout.processes or [None] * len(fanout.parts)
                )
            ]
            redistribute = retry is not None and retry.degradation == "redistribute"
            results = fanout.map(
                lambda job: self._supervised(fanout, job, models, redistribute), jobs
            )
            retry_total = RetryStats()
            for _outcome, stats in results:
                retry_total.merge(stats)
            scored = [
                (job[0], outcome)
                for job, (outcome, _stats) in zip(jobs, results)
                if outcome is not None
            ]
            failed = [
                job for job, (outcome, _stats) in zip(jobs, results) if outcome is None
            ]
            if failed:
                scored.extend(
                    self._redistribute(fanout, failed, scored, models, retry_total)
                )
            predictions = self._reassemble(scored)
        return ScoreResult(
            predictions=predictions,
            batch_size=plan.batch_size,
            segments=[report for _part, (report, _preds, _sizes) in scored],
            stream=plan.stream,
            retry=retry_total,
            execution=plan.execution,
            ipc=fanout.ipc,
            worker_limit=plan.workers,
            snapshot_lsn=fanout.as_of,
            tuples_scanned=self.database.table(plan.table).tuple_count_as_of(
                fanout.as_of
            ),
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _supervised(
        self,
        fanout: SegmentFanout,
        job: _Job,
        models: Mapping[str, np.ndarray],
        redistribute: bool,
    ) -> tuple[tuple | None, RetryStats]:
        """One segment under the plan's retry policy (fresh state per attempt).

        Returns ``(outcome, retry_stats)``; ``outcome`` is ``None`` when the
        segment failed every attempt and ``redistribute`` lets the
        survivors adopt its pages.
        """
        stats = RetryStats()
        try:
            outcome = fanout.supervise(
                lambda: self._attempt(fanout, job, models, stats),
                stats,
                label=f"segment {job[0].segment_id} scan-and-score",
            )
        except RetryExhaustedError:
            if not redistribute:
                raise
            outcome = None
        return outcome, stats

    def _attempt(
        self,
        fanout: SegmentFanout,
        job: _Job,
        models: Mapping[str, np.ndarray],
        stats: RetryStats,
    ) -> tuple[SegmentScoreReport, np.ndarray, list[int]]:
        """One segment attempt: fault site and span here in the parent,
        :func:`score_segment` on this thread or in a one-shot child."""
        part, images, process = job
        fault_point(SCORER_FAULT_SITE)
        obs = telemetry()
        attrs = {"worker": "process"} if process is not None else {}
        span = (
            obs.span(
                "serving.scorer.segment",
                segment=part.segment_id,
                pages=len(part),
                **attrs,
            )
            if obs is not None
            else None
        )
        late = {}
        try:
            if process is not None:
                try:
                    payload = process.spawn(("score", dict(models)))
                finally:
                    process.close()
                outcome = payload["outcome"]
                stats.merge(payload["retry_stats"])
                late["worker_pid"] = process.pid
            else:
                outcome = score_segment(
                    self.plan,
                    self.binary,
                    self.spec,
                    self.fpga,
                    self.inference,
                    part,
                    images,
                    models,
                    stats,
                )
            late["tuples"] = outcome[0].tuples_scored
            return outcome
        except BaseException as error:
            late["error"] = type(error).__name__
            raise
        finally:
            # Closed on failure too: an abandoned span would stay the
            # thread's top and the retried attempt would nest under it.
            if span is not None:
                obs.finish(span, **late)

    def _redistribute(
        self,
        fanout: SegmentFanout,
        failed: list[_Job],
        survivors: list[tuple[PagePartition, tuple]],
        models: Mapping[str, np.ndarray],
        retry_total: RetryStats,
    ) -> list[tuple[PagePartition, tuple]]:
        """Reassign permanently-failed segments' pages to the survivors.

        The failed pages are dealt round-robin (in page order) across the
        surviving segment ids and scored in-parent as extra per-survivor
        units; each unit must succeed (no second redistribution, so a
        cluster-wide outage cannot recurse).  Reassembly is by page number,
        so the final predictions are bit-identical to the fault-free run
        regardless of which segment adopted which page.
        """
        survivor_ids = sorted({part.segment_id for part, _outcome in survivors})
        if not survivor_ids:
            raise RetryExhaustedError(
                "every segment failed permanently; no survivor can adopt "
                "the failed pages"
            )
        retry_total.redistributed += len(failed)
        image_by_page: dict[int, bytes] = {}
        for part, images, _process in failed:
            image_by_page.update(zip(part.page_nos, images))
        adopted: dict[int, list[int]] = {sid: [] for sid in survivor_ids}
        for i, page_no in enumerate(sorted(image_by_page)):
            adopted[survivor_ids[i % len(survivor_ids)]].append(page_no)
        extra: list[tuple[PagePartition, tuple]] = []
        for sid in survivor_ids:
            if not adopted[sid]:
                continue
            part = PagePartition(segment_id=sid, page_nos=tuple(adopted[sid]))
            images = [image_by_page[page_no] for page_no in part.page_nos]
            outcome, stats = self._supervised(
                fanout, (part, images, None), models, redistribute=False
            )
            retry_total.merge(stats)
            extra.append((part, outcome))
        return extra

    @staticmethod
    def _reassemble(scored: list[tuple[PagePartition, tuple]]) -> np.ndarray:
        """Scatter per-segment predictions back into heap (storage) order."""
        if not scored:
            return np.empty(0)
        page_nos = np.array(
            [page_no for part, _outcome in scored for page_no in part.page_nos],
            dtype=np.intp,
        )
        if len(scored) == 1 and bool((np.diff(page_nos) > 0).all()):
            return scored[0][1][1]  # one unit, pages ascending: already in order
        sizes = [size for _part, (_report, _preds, sizes) in scored for size in sizes]
        # Every unit's predictions carry the score dims, even when a
        # predicate left it (or the whole table) no tuple to score.
        dealt = np.concatenate([preds for _part, (_report, preds, _sizes) in scored])
        # Rows in page order, a page's rows in the order they were scored.
        return dealt[np.argsort(np.repeat(page_nos, sizes), kind="stable")]
