"""One segment's slice of a sharded run: its own DAnA accelerator.

The paper's Greenplum deployment attaches one DAnA accelerator to every
segment; a :class:`SegmentWorker` is that pairing in the reproduction.  It
owns a full :class:`~repro.hw.accelerator.DAnAAccelerator` instance
(access engine with its own Striders + execution engine with its own
thread schedule and tree bus), extracts only its partition's heap pages,
and trains one or more epochs at a time from whatever global model the
cross-segment merge produced — so per-segment hardware counters are
exactly what a stand-alone accelerator over the same pages would report.

A worker never touches the heap file or the buffer pool: the caller (the
:class:`~repro.cluster.fanout.SegmentFanout`'s thread, or a worker process
reading its shared page store) pulls the partition's page images and
:meth:`SegmentWorker.open` hands them to the segment's extraction seam
(:meth:`~repro.hw.access_engine.AccessEngine.open`).  The worker only ever
consumes the :class:`~repro.runtime.BatchSource` that comes back — whether
its first epoch pulls the Strider walk wave by wave or the partition is
already in memory is the seam's business.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.algorithms.base import AlgorithmSpec
from repro.cluster.partitioner import PagePartition
from repro.hw.access_engine import AccessEngineStats
from repro.hw.accelerator import DAnAAccelerator
from repro.hw.execution_engine import EngineRunStats, ExecutionEngine, TrainingResult
from repro.hw.fpga import FPGASpec
from repro.obs.telemetry import telemetry
from repro.reliability.faults import fault_point
from repro.reliability.retry import RetryPolicy, RetryStats
from repro.runtime import BatchSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.execution_binary import ExecutionBinary
    from repro.core.plan import TrainPlan

#: fault-injection site fired once per segment training window.
SEGMENT_EPOCH_FAULT_SITE = "cluster.segment_worker.epoch"


@dataclass
class SegmentReport:
    """One segment's contribution to a sharded run."""

    segment_id: int
    pages: int
    tuples_extracted: int
    engine_stats: EngineRunStats
    access_stats: AccessEngineStats


@dataclass
class SegmentWorker:
    """One segment: a page partition bound to its own accelerator."""

    segment_id: int
    accelerator: DAnAAccelerator
    partition: PagePartition
    #: the partition's extraction, as opened by the seam.
    source: BatchSource = field(repr=False)
    rng: np.random.Generator | None = None
    #: fault/retry counters booked by this worker's retried windows.
    retry_stats: RetryStats = field(default_factory=RetryStats, repr=False)

    @classmethod
    def open(
        cls,
        part: PagePartition,
        images: list,
        binary: "ExecutionBinary",
        spec: AlgorithmSpec,
        fpga: FPGASpec,
        plan: "TrainPlan",
        rng: np.random.Generator,
    ) -> "SegmentWorker":
        """One segment on a fresh accelerator, its extraction opened.

        The one construction both the in-process strategies and the worker
        *processes* use: same design (every accelerator is generated from
        the same compiled binary), fresh counters, and ``images`` — the
        bytes the heap held at the run's LSN, whether they came through the
        buffer pool or out of a :class:`~repro.runtime.shm.SharedPageStore`
        — handed to the extraction seam with the plan's extraction knobs.
        """
        accelerator = DAnAAccelerator(binary=binary, schema=spec.schema, fpga=fpga)
        return cls(
            segment_id=part.segment_id,
            accelerator=accelerator,
            partition=part,
            source=accelerator.access_engine.open(images, **plan.extraction()),
            rng=rng,
        )

    @property
    def engine(self) -> ExecutionEngine:
        """This segment's execution engine."""
        return self.accelerator.execution_engine

    def has_rows(self) -> bool:
        """True once the partition is known to hold at least one tuple.

        On a source that is still streaming this peeks only as far as the
        first decoded page — the whole partition is *not* materialised.
        """
        return self.source.has_rows()

    def report(self) -> SegmentReport:
        """This segment's line of the run result (drains the stream)."""
        return SegmentReport(
            segment_id=self.segment_id,
            pages=len(self.partition),
            tuples_extracted=len(self.source.rows()),
            engine_stats=self.engine.stats,
            access_stats=self.accelerator.access_engine.stats,
        )

    def epoch_rows(self, shuffle: bool) -> np.ndarray:
        """This epoch's tuple order (per-segment seeded shuffle)."""
        rows = self.source.rows()
        if not shuffle or len(rows) == 0:
            return rows
        if self.rng is None:
            # Materialise the fallback generator once so its stream advances
            # across epochs (a fresh rng per call would replay one
            # permutation forever).
            self.rng = np.random.default_rng(0)
        order = np.arange(len(rows))
        self.rng.shuffle(order)
        return rows[order]

    # ------------------------------------------------------------------ #
    # execution engine: local epochs from the merged global model
    # ------------------------------------------------------------------ #
    def train_window(
        self,
        models: dict[str, np.ndarray],
        spec: AlgorithmSpec,
        count: int,
        shuffle: bool,
        convergence_check: bool,
        retry: RetryPolicy | None = None,
    ) -> TrainingResult:
        """One merge-free window of ``count`` local epochs.

        Convergence is judged only at the merge boundary (the window's last
        epoch): the merge-free prefix runs without an early exit so every
        segment trains exactly ``count`` epochs per window — no segment can
        stop mid-window and smuggle a less-trained model into the merge.
        This is the single definition both the thread fan-out and the
        worker *processes* execute, which is what keeps the two
        bit-identical.
        """
        if count > 1 and convergence_check:
            prefix = self.train_epochs(
                models, spec, count - 1, shuffle, convergence_check=False, retry=retry
            )
            boundary = self.train_epochs(
                prefix.models, spec, 1, shuffle, convergence_check, retry=retry
            )
            return TrainingResult(
                models=boundary.models,
                epochs_run=prefix.epochs_run + boundary.epochs_run,
                converged=boundary.converged,
                stats=boundary.stats,
            )
        return self.train_epochs(
            models, spec, count, shuffle, convergence_check, retry=retry
        )

    def train_epochs(
        self,
        models: dict[str, np.ndarray],
        spec: AlgorithmSpec,
        epochs: int,
        shuffle: bool = False,
        convergence_check: bool = True,
        retry: RetryPolicy | None = None,
    ) -> TrainingResult:
        """Run ``epochs`` local epochs starting from the merged global model.

        When the partition is still streaming, the engine's first epoch
        consumes batches straight off the source; the stream is
        materialised before the call returns so later windows train from
        memory.

        With a ``retry`` policy, a :class:`~repro.exceptions.TransientError`
        raised by this window is retried from a checkpoint of the worker's
        engine/tree-bus counters and RNG state — so the successful attempt
        books exactly what a fault-free window would have (the epoch driver
        copies the input models per attempt, so they need no restore).
        """
        def window() -> TrainingResult:
            fault_point(SEGMENT_EPOCH_FAULT_SITE)
            obs = telemetry()
            span = (
                obs.span(
                    "cluster.segment.train", segment=self.segment_id, epochs=epochs
                )
                if obs is not None
                else None
            )
            late = {}
            try:
                result = self.engine.train(
                    self.source,
                    initial_models=models,
                    bind_tuple=spec.bind_tuple,
                    epochs=epochs,
                    convergence_check=convergence_check,
                    bind_batch=spec.bind_batch,
                    shuffle=shuffle,
                    rng=self.rng,
                )
                self.source.rows()  # later windows train from memory
                late["epochs_run"] = result.epochs_run
                return result
            except BaseException as error:
                late["error"] = type(error).__name__
                raise
            finally:
                # Closed on failure too: an abandoned span would stay the
                # thread's top and the retried attempt would nest under it.
                if span is not None:
                    obs.finish(span, **late)

        if retry is None:
            return window()
        checkpoint = self.checkpoint()
        return retry.run(
            window,
            stats=self.retry_stats,
            reset=lambda: self.restore(checkpoint),
            label=f"segment {self.segment_id} training window",
        )

    # ------------------------------------------------------------------ #
    # retry checkpointing
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> dict:
        """Snapshot the counters/RNG state a retried window must restore."""
        return {
            "engine_stats": copy.copy(self.engine.stats),
            "bus_stats": copy.copy(self.engine.tree_bus.stats),
            "rng_state": (
                copy.deepcopy(self.rng.bit_generator.state)
                if self.rng is not None
                else None
            ),
        }

    def restore(self, state: dict) -> None:
        """Roll the worker back to a :meth:`checkpoint` before a re-attempt.

        Counter objects are restored **in place** (results hold references
        to them); the RNG stream rewinds so a retried shuffle replays the
        exact permutations of the failed attempt.
        """
        self.engine.stats.__dict__.update(state["engine_stats"].__dict__)
        self.engine.tree_bus.stats.__dict__.update(state["bus_stats"].__dict__)
        if state["rng_state"] is not None and self.rng is not None:
            self.rng.bit_generator.state = copy.deepcopy(state["rng_state"])
