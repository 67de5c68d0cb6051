"""Whole-table scan-and-score over the bulk Strider page walk.

This is the serving twin of :class:`~repro.cluster.sharded.ShardedDAnA`:
the table's heap pages are partitioned across ``segments`` with the same
:class:`~repro.cluster.partitioner.Partitioner` the training cluster uses,
every segment owns a full :class:`~repro.hw.accelerator.DAnAAccelerator`
(its own Striders and counters) plus a fresh
:class:`~repro.serving.inference.InferenceEngine`, and segments score
concurrently on a thread pool (the NumPy kernels release the GIL).
Per-segment predictions are scattered back into **storage order**, so the
result is independent of the partitioning.

Scoring is **streaming** by default (``stream=True``): within each segment
the bulk Strider page walk runs on a
:class:`~repro.runtime.BatchSource` producer thread — the same bounded
double buffer the training runtime uses for pipelined extraction — while
the forward tape scores micro-batches as they assemble, so extraction
overlaps inference exactly like training's epoch 0.  ``stream=False``
materialises each segment's extraction first and is kept as the overlap
oracle: predictions and schedule-derived counters are bit-identical across
the two modes by construction (identical batch boundaries, identical page
walk).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.cluster.partitioner import PagePartition, Partitioner
from repro.cluster.process_pool import (
    IPCStats,
    ScoreTask,
    builder_metadata,
    score_segment_in_process,
)
from repro.exceptions import RetryExhaustedError
from repro.hw.access_engine import AccessEngineStats
from repro.hw.accelerator import DAnAAccelerator
from repro.hw.fpga import DEFAULT_FPGA, FPGASpec
from repro.obs.telemetry import telemetry
from repro.reliability.faults import fault_point
from repro.reliability.retry import RetryPolicy, RetryStats
from repro.runtime.shm import SharedPageStore
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

    @property
    def access_cycles(self) -> int:
        """Extraction stage: AXI transfer + Strider page walk."""
        return (
            self.access_stats.strider_cycles_critical + self.access_stats.axi_cycles
        )

    @property
    def forward_cycles(self) -> int:
        """Compute stage: schedule-derived forward-pass cycles."""
        return self.inference_stats.forward_cycles

    @property
    def cycles(self) -> int:
        """This segment's serial path: extraction + forward compute."""
        return self.access_cycles + self.forward_cycles


@dataclass
class ScoreResult:
    """Predictions + per-segment hardware activity of one table scoring."""

    predictions: np.ndarray
    path: str
    batch_size: int
    partition_strategy: str
    segments: list[SegmentScoreReport]
    #: True when the run overlapped each segment's page walk with its
    #: forward tape (streaming); False for the materialized oracle.
    stream: bool = False
    #: fault/retry counters of the run (all zero when fault-free);
    #: ``retry.redistributed`` counts segments whose pages survivors
    #: adopted after retry exhaustion.
    retry: RetryStats = field(default_factory=RetryStats)
    #: segment fan-out of the run: ``"threads"`` or ``"processes"``.
    execution: str = "threads"
    #: parent<->worker IPC volume (non-zero only for ``processes`` runs).
    ipc: IPCStats = field(default_factory=IPCStats)
    #: concurrent fan-out width of the run (``worker_limit(segments)``),
    #: so oversubscribed hosts dispatch at most one segment per core.
    worker_limit: int = 0
    #: WAL LSN the scan was pinned to; rows inserted after it are invisible.
    snapshot_lsn: int = 0

    @property
    def tuples_scored(self) -> int:
        """Total tuples scored across all segments."""
        return len(self.predictions)

    @property
    def inference_stats(self) -> InferenceStats:
        """Aggregate (summed) inference counters across segments."""
        total = InferenceStats()
        for seg in self.segments:
            total.tuples_scored += seg.inference_stats.tuples_scored
            total.batches_scored += seg.inference_stats.batches_scored
            total.forward_cycles += seg.inference_stats.forward_cycles
        return total

    @property
    def critical_path_cycles(self) -> int:
        """Modelled wall-clock cycles: segments scan-and-score concurrently."""
        return max((seg.cycles for seg in self.segments), default=0)


@dataclass
class _ProcessScoreEnv:
    """Shared machinery of one ``execution="processes"`` scoring run."""

    context: multiprocessing.context.BaseContext
    store: SharedPageStore
    ipc: IPCStats
    lock: threading.Lock = field(default_factory=threading.Lock)


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

        The plan carries the run's knobs (segments, path, batch size,
        partitioning, effective stream, fan-out strategy, retry policy,
        worker clamp) already validated; ``inference`` is the compiled
        forward-only serving plan every segment scores with.
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
        heapfile = self.database.table(plan.table)
        pool = self.database.buffer_pool
        # Pin the whole scoring run to the heap as of this LSN: the
        # partitioning, every page image and the worker-process export all
        # come from the snapshot, so concurrent inserts cannot perturb the
        # scan (predictions cover exactly the pre-LSN rows).
        as_of = self.database.wal.current_lsn
        parts = Partitioner(plan.partition_strategy, seed=plan.seed).partition_table(
            self.database, plan.table, plan.segments, as_of_lsn=as_of
        )
        env: _ProcessScoreEnv | None = None
        if plan.execution == "processes":
            env = _ProcessScoreEnv(
                context=multiprocessing.get_context("spawn"),
                store=SharedPageStore.from_heapfile(
                    heapfile, pool, as_of_lsn=as_of
                ),
                ipc=IPCStats(),
            )
        try:
            if env is not None:
                # Zero-copy views of the shared store: the worker children
                # walk the very same blocks, and the in-parent redistribute
                # fallback decodes from these views directly.
                jobs = [
                    (part, [env.store.page(no) for no in part.page_nos])
                    for part in parts
                ]
            else:
                # The buffer pool is not thread-safe: page images are pulled
                # here, on the caller's thread, like the training cluster.
                jobs = [
                    (
                        part,
                        [
                            img
                            for _no, img in heapfile.scan_pages(
                                pool, part.page_nos, as_of_lsn=as_of
                            )
                        ],
                    )
                    for part in parts
                ]
            results = self._run_jobs(jobs, models, env)
            retry_total = RetryStats()
            for _outcome, stats in results:
                retry_total.merge(stats)
            survivors = [
                (part, images, outcome)
                for (part, images), (outcome, _stats) in zip(jobs, results)
                if outcome is not None
            ]
            failed = [
                (part, images)
                for (part, images), (outcome, _stats) in zip(jobs, results)
                if outcome is None
            ]
            parts_scored = [part for part, _images, _outcome in survivors]
            outcomes = [outcome for _part, _images, outcome in survivors]
            if failed:
                extra_parts, extra_outcomes = self._redistribute(
                    failed, parts_scored, models, retry_total
                )
                parts_scored.extend(extra_parts)
                outcomes.extend(extra_outcomes)
            predictions = self._reassemble(parts_scored, outcomes)
        finally:
            if env is not None:
                env.store.close()
                env.store.unlink()
        return ScoreResult(
            predictions=predictions,
            path=plan.path,
            batch_size=plan.batch_size,
            partition_strategy=plan.partition_strategy,
            segments=[report for report, _preds, _sizes in outcomes],
            stream=plan.stream,
            retry=retry_total,
            execution=plan.execution,
            ipc=env.ipc if env is not None else IPCStats(),
            worker_limit=plan.workers,
            snapshot_lsn=as_of,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _run_jobs(
        self,
        jobs: list[tuple[PagePartition, list[bytes]]],
        models: Mapping[str, np.ndarray],
        env: _ProcessScoreEnv | None = None,
    ) -> list[tuple[tuple | None, RetryStats]]:
        """Score every (partition, images) job, segments concurrently.

        Each element of the returned list is ``(outcome, retry_stats)``;
        ``outcome`` is ``None`` when the segment failed every attempt and
        the policy's degradation mode allows redistribution.  Fan-out is
        clamped to the plan's ``workers`` — with a process ``env`` the
        clamp also bounds how many one-shot worker processes are alive at
        once, so ``segments > cores`` never oversubscribes the host.
        """
        max_workers = self.plan.workers
        run = lambda job: self._score_segment_supervised(  # noqa: E731
            job[0], job[1], models, self.plan.retry, env
        )
        if max_workers > 1 and len(jobs) > 1:
            with ThreadPoolExecutor(max_workers=max_workers) as pool_exec:
                return list(pool_exec.map(run, jobs))
        return [run(job) for job in jobs]

    def _score_segment_supervised(
        self,
        part: PagePartition,
        images: list[bytes],
        models: Mapping[str, np.ndarray],
        retry: RetryPolicy | None,
        env: _ProcessScoreEnv | None = None,
    ) -> tuple[tuple | None, RetryStats]:
        """One segment under ``retry`` (fresh state per attempt)."""
        stats = RetryStats()
        if env is not None:
            attempt = lambda inner_retry: self._score_segment_process(  # noqa: E731
                part, models, env
            )
        else:
            attempt = lambda inner_retry: self._score_segment(  # noqa: E731
                part, images, models, inner_retry, stats
            )
        if retry is None:
            return attempt(None), stats
        try:
            outcome = retry.run(
                lambda: attempt(retry),
                stats=stats,
                label=f"segment {part.segment_id} scan-and-score",
            )
            return outcome, stats
        except RetryExhaustedError:
            if retry.degradation != "redistribute":
                raise
            return None, stats

    def _redistribute(
        self,
        failed: list[tuple[PagePartition, list[bytes]]],
        survivors: list[PagePartition],
        models: Mapping[str, np.ndarray],
        retry_total: RetryStats,
    ) -> tuple[list[PagePartition], list[tuple]]:
        """Reassign permanently-failed segments' pages to the survivors.

        The failed pages are dealt round-robin (in page order) across the
        surviving segment ids and scored as extra per-survivor units; each
        unit must succeed (degradation falls back to ``"fail"`` so a
        cluster-wide outage cannot recurse).  Reassembly is by page number,
        so the final predictions are bit-identical to the fault-free run
        regardless of which segment adopted which page.
        """
        survivor_ids = sorted({part.segment_id for part in survivors})
        if not survivor_ids:
            raise RetryExhaustedError(
                "every segment failed permanently; no survivor can adopt "
                "the failed pages"
            )
        retry_total.redistributed += len(failed)
        image_by_page: dict[int, bytes] = {}
        for part, images in failed:
            for page_no, image in zip(part.page_nos, images):
                image_by_page[page_no] = image
        adopted: dict[int, list[int]] = {sid: [] for sid in survivor_ids}
        for i, page_no in enumerate(sorted(image_by_page)):
            adopted[survivor_ids[i % len(survivor_ids)]].append(page_no)
        must_succeed = dataclasses.replace(self.plan.retry, degradation="fail")
        extra_parts: list[PagePartition] = []
        extra_outcomes: list[tuple] = []
        for sid in survivor_ids:
            if not adopted[sid]:
                continue
            part = PagePartition(segment_id=sid, page_nos=tuple(adopted[sid]))
            images = [image_by_page[page_no] for page_no in part.page_nos]
            outcome, stats = self._score_segment_supervised(
                part, images, models, must_succeed
            )
            retry_total.merge(stats)
            extra_parts.append(part)
            extra_outcomes.append(outcome)
        return extra_parts, extra_outcomes

    def _score_segment(
        self,
        part: PagePartition,
        images: list[bytes],
        models: Mapping[str, np.ndarray],
        retry: RetryPolicy | None = None,
        retry_stats: RetryStats | None = None,
    ) -> tuple[SegmentScoreReport, np.ndarray, list[int]]:
        plan = self.plan
        fault_point(SCORER_FAULT_SITE)
        obs = telemetry()
        span = (
            obs.span(
                "serving.scorer.segment",
                segment=part.segment_id,
                pages=len(part),
            )
            if obs is not None
            else None
        )
        engine = self.inference.new_engine()
        if plan.use_striders:
            accelerator = DAnAAccelerator(
                binary=self.binary, schema=self.spec.schema, fpga=self.fpga
            )
            if plan.stream:
                predictions, sizes = accelerator.score_stream_from_pages(
                    images,
                    models,
                    engine,
                    batch_size=plan.batch_size,
                    path=plan.path,
                    retry=retry,
                    retry_stats=retry_stats,
                )
            else:
                predictions, sizes = accelerator.score_from_pages(
                    images, models, engine, path=plan.path, batch_size=plan.batch_size
                )
            access_stats = accelerator.access_engine.stats
        else:
            chunks = [self._cpu_decode(image) for image in images]
            sizes = [len(chunk) for chunk in chunks]
            rows = (
                np.vstack(chunks)
                if chunks
                else np.empty((0, len(self.spec.schema)))
            )
            predictions = engine.score(
                rows, models, path=plan.path, batch_size=plan.batch_size
            )
            access_stats = AccessEngineStats()
        report = SegmentScoreReport(
            segment_id=part.segment_id,
            pages=len(part),
            tuples_scored=engine.stats.tuples_scored,
            access_stats=access_stats,
            inference_stats=engine.stats,
        )
        if span is not None:
            obs.finish(span, tuples=report.tuples_scored)
        return report, predictions, sizes

    def _score_segment_process(
        self,
        part: PagePartition,
        models: Mapping[str, np.ndarray],
        env: _ProcessScoreEnv,
    ) -> tuple[SegmentScoreReport, np.ndarray, list[int]]:
        """One segment attempt in a fresh one-shot worker process.

        Mirrors :meth:`_score_segment` exactly — the child builds a fresh
        accelerator + engine over the same page blocks (via the shared
        store), so predictions and counters are bit-identical.  The fault
        site and span fire here in the parent, once per attempt, like the
        threads fan-out; the child's shared-store page reads are merged
        into the parent's storage counters.
        """
        fault_point(SCORER_FAULT_SITE)
        obs = telemetry()
        span = (
            obs.span(
                "serving.scorer.segment",
                segment=part.segment_id,
                pages=len(part),
                worker="process",
            )
            if obs is not None
            else None
        )
        builder = builder_metadata(self.spec)
        task = ScoreTask(
            segment_id=part.segment_id,
            udf_name=self.binary.udf_name,
            algorithm=builder["algorithm"],
            n_features=builder["n_features"],
            model_topology=tuple(builder["model_topology"]),
            hyperparameters=self.spec.hyperparameters,
            layout=self.database.layout,
            fpga=self.fpga,
            # Workers rebuild the accelerator design from the count the
            # parent's binary was compiled with, not the live catalog count
            # of a table that grew since compile.
            n_tuples=self.binary.metadata["n_tuples"],
            page_nos=tuple(part.page_nos),
            use_striders=self.plan.use_striders,
            path=self.plan.path,
            batch_size=self.plan.batch_size,
            stream=self.plan.stream,
        )
        payload = score_segment_in_process(
            env.context, task, env.store.handle(), models, ipc=env.ipc
        )
        storage = payload.get("storage")
        if storage is not None:
            with env.lock:
                stats = self.database.storage.stats
                stats.page_reads += storage.page_reads
                stats.page_writes += storage.page_writes
                stats.bytes_read += storage.bytes_read
                stats.bytes_written += storage.bytes_written
        report = SegmentScoreReport(
            segment_id=part.segment_id,
            pages=len(part),
            tuples_scored=payload["tuples_scored"],
            access_stats=payload["access_stats"],
            inference_stats=payload["inference_stats"],
        )
        if span is not None:
            obs.finish(span, tuples=report.tuples_scored, worker_pid=payload.get("pid"))
        return report, payload["predictions"], payload["sizes"]

    def _cpu_decode(self, image: bytes) -> np.ndarray:
        """RDBMS-side page decode (the ``use_striders=False`` model)."""
        from repro.rdbms.heapfile import decode_page_rows

        return decode_page_rows(image, self.database.layout, self.spec.schema)

    def _reassemble(
        self,
        parts: list[PagePartition],
        outcomes: list[tuple[SegmentScoreReport, np.ndarray, list[int]]],
    ) -> np.ndarray:
        """Scatter per-segment predictions back into heap (storage) order."""
        counts: dict[int, int] = {}
        for part, (_report, _preds, sizes) in zip(parts, outcomes):
            for page_no, size in zip(part.page_nos, sizes):
                counts[page_no] = size
        offsets: dict[int, int] = {}
        total = 0
        for page_no in sorted(counts):
            offsets[page_no] = total
            total += counts[page_no]
        trailing: tuple[int, ...] = ()
        for _report, preds, _sizes in outcomes:
            if len(preds):
                trailing = preds.shape[1:]
                break
        predictions = np.empty((total,) + trailing, dtype=np.float64)
        for part, (_report, preds, sizes) in zip(parts, outcomes):
            position = 0
            for page_no, size in zip(part.page_nos, sizes):
                offset = offsets[page_no]
                predictions[offset : offset + size] = preds[position : position + size]
                position += size
        return predictions
