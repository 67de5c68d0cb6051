"""Sharded multi-segment execution: one DAnA accelerator per segment.

The paper's scale-out deployment (Figure 13) attaches one DAnA accelerator
to every Greenplum segment; each accelerator trains on its segment's slice
of the table and the per-segment models are combined every epoch — the
classic UDA ``transition``/``merge``/``final`` structure that MADlib-style
in-database analytics is built on.  :class:`ShardedDAnA` reproduces that
deployment functionally on top of the PR-1 batched pipeline:

* a :class:`~repro.cluster.partitioner.Partitioner` assigns heap pages to
  segments through the RDBMS catalog;
* every segment is a :class:`~repro.cluster.segment_worker.SegmentWorker`
  owning a full accelerator instance (its own Striders, execution engine,
  schedule-derived counters);
* per-segment models are combined by a
  :class:`~repro.cluster.aggregator.ModelAggregator`, whose cycle cost is
  booked on a cluster-level :class:`~repro.hw.tree_bus.TreeBus` — the
  software stand-in for the host-side merge the paper performs between
  FPGAs.

Epoch scheduling lives in the shared pipeline runtime
(:mod:`repro.runtime`): every execution strategy is an
:class:`~repro.runtime.EpochStep` plugin for the one
:class:`~repro.runtime.EpochDriver` loop, every segment consumes the
:class:`~repro.runtime.BatchSource` its extraction seam opened (when it
streams, each segment's Strider walk overlaps training and the other
segments' walks), and the plan's ``staleness`` decides the merge cadence —
1 (barriered every epoch, the paper's semantics) or ``k`` (windows of
``k`` merge-free local epochs).  Partitioning, page pulls, dispatch,
worker processes and every resource lifetime belong to the run's
:class:`~repro.cluster.fanout.SegmentFanout` — the same one scan-and-score
uses.

The strategies produce identical per-segment counters:

* ``lockstep`` (default for merge-based graphs with 2+ segments) — all
  segments advance through their batch streams in lock step, each step one
  pass of the segment-axis :class:`CompiledTape` over a ``(B, S, ...)``
  batch (the step loop runs inside the tape's generated ``train``, over
  ``(k·B, S, cols)`` blocks it binds once each).  This
  amortises the Python-side per-batch cost over the segment axis, so
  sharding speeds the simulation up even on a single core — and the NumPy
  kernels still release the GIL, so it scales further with real cores.  It
  is a different algorithm, not a different fan-out, so it keeps its own
  step;
* ``threads`` — each segment trains its window independently on a fan-out
  thread (NumPy kernels drop the GIL).  This is the only strategy for
  row-addressed graphs (LRMF gathers cannot carry a segment axis) and the
  parity oracle for ``lockstep``;
* ``processes`` — the same windows, each in the segment's worker process
  over shared-memory pages (real-core overlap; see
  :mod:`repro.cluster.fanout`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.cluster.aggregator import ModelAggregator
from repro.cluster.fanout import (
    IPCStats,
    SegmentFanout,
    SegmentProcess,
    segment_rngs,
)
from repro.cluster.segment_worker import (
    SEGMENT_EPOCH_FAULT_SITE,
    SegmentReport,
    SegmentWorker,
)
from repro.exceptions import ConfigurationError
from repro.reliability.faults import fault_point
from repro.reliability.retry import RetryStats
from repro.hw.access_engine import AccessEngineStats
from repro.hw.execution_engine import EngineRunStats, TrainingResult
from repro.hw.fpga import DEFAULT_FPGA, FPGASpec
from repro.hw.ledger import critical_path_cycles
from repro.hw.tree_bus import TreeBus, TreeBusStats
from repro.obs.telemetry import telemetry
from repro.runtime import EpochDriver, EpochStep, row_blocks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.base import AlgorithmSpec
    from repro.compiler.execution_binary import ExecutionBinary
    from repro.core.plan import TrainPlan
    from repro.rdbms.database import Database

EXECUTION_STRATEGIES = ("auto", "lockstep", "threads", "processes")


@dataclass
class ClusterStats:
    """Cross-segment activity of one sharded run."""

    segments: int
    mode: str
    partition_strategy: str
    aggregation_strategy: str
    #: local epochs between cross-segment merges (1 = every epoch).
    staleness: int
    epochs_run: int = 0
    merges_performed: int = 0
    tree_bus: TreeBusStats = field(default_factory=TreeBusStats)
    #: True when extraction streamed through the double-buffer pipeline.
    stream: bool = False
    #: retry/fault counters of the run (all zero when fault-free).
    retry: RetryStats = field(default_factory=RetryStats)
    #: parent<->worker IPC volume (non-zero only for ``processes`` runs).
    ipc: IPCStats = field(default_factory=IPCStats)
    #: concurrent fan-out width of the run: ``worker_limit(segments)``
    #: (0 for lockstep, which runs all segments on one tape).
    worker_limit: int = 0

    @property
    def cross_merge_cycles(self) -> int:
        """Cycles the cluster tree bus spent merging per-segment models."""
        return self.tree_bus.cycles


@dataclass
class ShardedRunResult:
    """Functional result + per-segment hardware activity of a sharded run."""

    models: dict[str, np.ndarray]
    epochs_run: int
    converged: bool
    segments: list[SegmentReport]
    cluster: ClusterStats
    #: WAL LSN the run's page scans were pinned to (the model's watermark).
    snapshot_lsn: int = 0

    # -- AcceleratorRunResult-compatible surface ------------------------ #
    @property
    def tuples_extracted(self) -> int:
        """Total tuples extracted across all segments."""
        return sum(s.tuples_extracted for s in self.segments)

    @property
    def engine_stats(self) -> EngineRunStats:
        """Aggregate (summed) engine counters across segments."""
        total = sum((seg.engine_stats for seg in self.segments), EngineRunStats())
        total.epochs_completed = self.epochs_run  # segments run the same epochs
        return total

    @property
    def access_stats(self) -> AccessEngineStats:
        """Aggregate access counters (critical path = slowest segment)."""
        return AccessEngineStats.across_segments(
            seg.access_stats for seg in self.segments
        )

    @property
    def critical_path_cycles(self) -> int:
        """Modelled wall-clock cycles: slowest segment + cross-segment merge,
        in the *barriered* (extract-then-train) book-keeping; the pipelined
        variant is ``ShardedRunCost.pipelined_critical_path_cycles``."""
        return critical_path_cycles(
            (
                (seg.access_stats.access_cycles, seg.engine_stats.total_cycles)
                for seg in self.segments
            ),
            self.cluster.cross_merge_cycles,
        )


class ShardedDAnA:
    """Executes one compiled UDF across N per-segment DAnA accelerators."""

    def __init__(
        self,
        database: "Database",
        binary: "ExecutionBinary",
        spec: "AlgorithmSpec",
        plan: "TrainPlan",
        fpga: FPGASpec = DEFAULT_FPGA,
    ) -> None:
        """Bind one resolved sharded :class:`~repro.core.plan.TrainPlan`.

        The plan already carries every decision (strategy, aggregation,
        staleness, effective stream, worker clamp); nothing is
        re-validated or re-derived here.

        Raises:
            ConfigurationError: for a single-accelerator plan, which
                carries no partitioning to shard by.
        """
        if plan.segments is None:
            raise ConfigurationError(
                "ShardedDAnA needs a sharded plan (segments >= 1); a "
                "single-accelerator plan carries no partitioning to shard by"
            )
        self.database = database
        self.binary = binary
        self.spec = spec
        self.plan = plan
        self.fpga = fpga
        #: in-process workers of the most recent :meth:`train` call (for
        #: introspection; a ``processes`` run's workers live in children).
        self.workers: list[SegmentWorker] = []

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def train(self, convergence_check: bool = True) -> ShardedRunResult:
        """Run the plan's epochs over its table, merging every
        ``plan.staleness`` of them.

        One :class:`~repro.cluster.fanout.SegmentFanout` carries the run:
        it pins the snapshot, partitions the table and owns every thread,
        child process, page store and streaming source until the run ends
        — normally or not.  Merge and convergence decisions stay here in
        the parent, driven by the same :class:`~repro.runtime.EpochDriver`
        loop for all three strategies — which (with the shared per-segment
        RNG recipe) is what makes them bit-identical.
        """
        plan = self.plan
        with SegmentFanout(
            self.database, self.binary, self.spec, plan, self.fpga
        ) as fanout:
            cluster, models = self._begin_run(fanout)
            self.workers = []
            if plan.execution == "processes":
                # Each child attaches the shared page store, rebuilds its
                # accelerator and opens its partition, then trains stale
                # windows on command.
                fanout.map(
                    lambda process: fanout.supervise(
                        lambda: _spawn_extract(process),
                        process.retry_stats,
                        label=f"segment {process.segment_id} worker process start",
                    ),
                    fanout.processes,
                )
                step: EpochStep = _WindowedStep(
                    self.aggregator,
                    fanout,
                    [p for p in fanout.processes if p.last["has_rows"]],
                    self._process_window(fanout, convergence_check),
                )
            else:
                # One fresh accelerator per segment (clean counters), every
                # extraction opened now — streaming ones start their walks
                # on their own producer threads, owned by the fan-out.
                # Re-deriving the per-segment generators (the recipe worker
                # processes share) makes repeated runs bit-identical.
                for part, rng in zip(
                    fanout.parts, segment_rngs(plan.seed, plan.segments)
                ):
                    worker = SegmentWorker.open(
                        part,
                        fanout.images(part),
                        self.binary,
                        self.spec,
                        self.fpga,
                        plan,
                        rng,
                    )
                    fanout.adopt(worker.source)
                    self.workers.append(worker)
                if plan.execution == "lockstep":
                    step = _LockstepStep(self, plan.shuffle, convergence_check)
                else:
                    step = _WindowedStep(
                        self.aggregator,
                        fanout,
                        [w for w in self.workers if w.has_rows()],
                        lambda worker, models, count: worker.train_window(
                            models,
                            self.spec,
                            count,
                            plan.shuffle,
                            convergence_check,
                            plan.retry,
                        ),
                    )
            result = EpochDriver(step, plan.staleness, convergence_check).run(
                models, plan.epochs
            )
            # Fold every recovery the run performed into one counter set:
            # window retries (in-process or in-child), producer restarts,
            # process-death supervision, lockstep retries.
            for worker in self.workers:
                cluster.retry.merge(worker.retry_stats)
                cluster.retry.merge(worker.source.retry_stats)
            for process in fanout.processes:
                cluster.retry.merge(process.last["retry_stats"])
                cluster.retry.merge(process.retry_stats)
            if isinstance(step, _LockstepStep):
                cluster.retry.merge(step.retry_stats)
            reports = [w.report() for w in self.workers] or [
                p.last["report"] for p in fanout.processes
            ]
        cluster.epochs_run = result.epochs_run
        cluster.merges_performed = result.merges_performed
        return ShardedRunResult(
            models=result.models,
            epochs_run=result.epochs_run,
            converged=result.converged,
            segments=reports,
            cluster=cluster,
            snapshot_lsn=fanout.as_of,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _begin_run(
        self, fanout: SegmentFanout
    ) -> tuple[ClusterStats, dict[str, np.ndarray]]:
        """Per-run state: the cluster report (seeded from the plan's knobs)
        and a fresh copy of the initial models.  Bus + aggregator are
        rebuilt per run so their counters describe this run only.
        """
        plan = self.plan
        self.cluster_bus = TreeBus(alu_count=self.binary.design.aus_per_cluster)
        self.aggregator = ModelAggregator(plan.aggregation, tree_bus=self.cluster_bus)
        cluster = ClusterStats(
            segments=plan.segments,
            mode=plan.execution,
            partition_strategy=plan.partition_strategy,
            aggregation_strategy=plan.aggregation,
            tree_bus=self.cluster_bus.stats,
            staleness=plan.staleness,
            stream=plan.stream,
            ipc=fanout.ipc,
            worker_limit=plan.workers,
        )
        models = {
            k: np.array(v, dtype=np.float64) for k, v in self.spec.initial_models.items()
        }
        return cluster, models

    @staticmethod
    def _process_window(
        fanout: SegmentFanout, convergence_check: bool
    ) -> Callable[[SegmentProcess, dict, int], TrainingResult]:
        """How a stale window reaches a worker process: one command/reply
        round trip; a dead child is respawned from its last checkpoint."""

        def window(process: SegmentProcess, models, count: int) -> TrainingResult:
            capture = telemetry() is not None
            command = ("window", models, count, convergence_check, capture)
            return fanout.supervise(
                lambda: process.request(command),
                process.retry_stats,
                label=f"segment {process.segment_id} worker process window",
                reset=lambda: _spawn_extract(process),
            )["result"]

        return window


def _spawn_extract(process: SegmentProcess) -> None:
    """(Re)spawn a segment's child and run its extract handshake.

    A respawn resumes from the dead incarnation's last reported state, so
    counters, RNG stream and in-window retry counts continue bit-identically.
    """
    last = process.last
    resume = (
        {"checkpoint": last["checkpoint"], "retry_stats": last["retry_stats"]}
        if last
        else None
    )
    process.spawn(("extract", resume))


# ---------------------------------------------------------------------- #
# threads + processes strategies (per-segment windows through the fan-out)
# ---------------------------------------------------------------------- #
class _WindowedStep(EpochStep):
    """Per-segment models trained window by window through the fan-out.

    State is the list of each active segment's current model mapping.  A
    ``staleness=k`` window of ``k`` epochs is one dispatch per segment —
    ``k``× fewer barrier joins than the merge-every-epoch cadence — and
    ``window`` says how it reaches the segment: a
    :meth:`SegmentWorker.train_window` call on a fan-out thread (the only
    strategy for row-addressed LRMF graphs, and lockstep's parity oracle)
    or a command/reply round trip with its worker process.
    """

    merges = True

    def __init__(
        self,
        aggregator: ModelAggregator,
        fanout: SegmentFanout,
        segments: list,
        window: Callable[[object, dict, int], TrainingResult],
    ) -> None:
        self.aggregator = aggregator
        self.fanout = fanout
        self.segments = segments
        self.window = window

    @property
    def active(self) -> bool:
        return bool(self.segments)

    def begin(self, models):
        return [models for _ in self.segments]

    def run_epoch(self, state, epoch_index):
        state, converged, _executed = self.run_window(state, epoch_index, 1)
        return state, converged

    def run_window(self, state, epoch_index, count):
        if not self.segments:
            return state, False, count
        results = self.fanout.map(
            lambda pair: self.window(pair[0], pair[1], count),
            list(zip(self.segments, state)),
        )
        state = [r.models for r in results]
        executed = max(r.epochs_run for r in results)
        return state, all(r.converged for r in results), executed

    def merge(self, state, base):
        return self.aggregator.merge(state, base=base)

    def broadcast(self, models, state):
        return [models for _ in self.segments]


# ---------------------------------------------------------------------- #
# lockstep strategy (segment-axis tape; merge-based graphs)
# ---------------------------------------------------------------------- #
class _LockstepStep(EpochStep):
    """All segments advance in lock step through one segment-axis tape.

    State is the stacked ``(segments, ...)`` model block; between merge
    boundaries it simply keeps diverging per segment (that is
    training under ``staleness > 1``).  While the segments' sources are still
    streaming, the first epoch zips the per-segment block streams — a round
    of vector steps runs as soon as every segment has decoded its batches —
    and the epoch block of a ``shuffle=False`` run is planned once and
    reused every later epoch.
    """

    merges = True

    def __init__(
        self, sharded: ShardedDAnA, shuffle: bool, convergence_check: bool
    ) -> None:
        self.tape = sharded.binary.segment_tape
        self.bind_batch = sharded.spec.bind_batch
        self.aggregator = sharded.aggregator
        self.shuffle = shuffle
        self.convergence_check = convergence_check
        self.retry = sharded.plan.retry
        self.retry_stats = RetryStats()
        self.workers = [w for w in sharded.workers if w.has_rows()]
        self.batch_size = sharded.workers[0].engine.batch_size
        #: cached (epoch_rows, steps, block) of the static shuffle=False
        #: epoch — the ``(steps·B, S, cols)`` block is stacked once and
        #: reused every epoch, never re-trimmed or re-stacked.
        self._static_plan: tuple[list[np.ndarray], int, np.ndarray] | None = None

    @property
    def active(self) -> bool:
        return bool(self.workers)

    def begin(self, models):
        return self.broadcast(models, None)

    def broadcast(self, models, state):
        return {
            name: np.broadcast_to(
                np.asarray(value, dtype=np.float64),
                (len(self.workers),) + np.shape(value),
            ).copy()
            for name, value in models.items()
        }

    def merge(self, state, base):
        return self.aggregator.merge_stacked(state, base=base)

    def run_window(self, state, epoch_index, count):
        """Run ``count`` merge-free epochs, judging convergence only on the
        window's last epoch — the merge boundary — exactly like
        :meth:`SegmentWorker.train_window`, so the strategies stay parity
        oracles under ``staleness > 1`` too."""
        converged = False
        for offset in range(count):
            state, converged = self.run_epoch(
                state,
                epoch_index + offset,
                check_convergence=self.convergence_check and offset == count - 1,
            )
        return state, converged, count

    def run_epoch(self, state, epoch_index, check_convergence: bool | None = None):
        if self.retry is None:
            return self._run_epoch_attempt(state, epoch_index, check_convergence)
        # Checkpoint everything one lock-step epoch mutates: the stacked
        # model block (tail batches write into it in place) and every worker's
        # counters + RNG stream — so a retried epoch replays bit-identically.
        snapshot = {name: np.array(value) for name, value in state.items()}
        worker_states = [w.checkpoint() for w in self.workers]

        def reset() -> None:
            for name, value in snapshot.items():
                np.copyto(state[name], value)
            for worker, saved in zip(self.workers, worker_states):
                worker.restore(saved)

        return self.retry.run(
            lambda: self._run_epoch_attempt(state, epoch_index, check_convergence),
            stats=self.retry_stats,
            reset=reset,
            label=f"lockstep epoch {epoch_index}",
        )

    def _run_epoch_attempt(
        self, state, epoch_index, check_convergence: bool | None = None
    ):
        workers = self.workers
        fault_point(SEGMENT_EPOCH_FAULT_SITE)
        if check_convergence is None:
            check_convergence = self.convergence_check
        if not workers:
            return state, False
        stacked_models = state
        tape, bind_batch, batch_size = self.tape, self.bind_batch, self.batch_size
        if (
            epoch_index == 0
            and not self.shuffle
            and not all(w.source.materialised for w in workers)
        ):
            # Pipelined first epoch: zip the per-segment block streams.  A
            # round of vector steps runs as soon as every segment has decoded
            # its batches; the producers keep walking later pages meanwhile.
            env = tape.train(self._streamed_blocks(), bind_batch, stacked_models, batch_size)
            epoch_rows = [w.epoch_rows(False) for w in workers]  # drains tails
            steps = min(len(rows) // batch_size for rows in epoch_rows)
        else:
            if self._static_plan is not None:
                epoch_rows, steps, block = self._static_plan
            else:
                epoch_rows = [w.epoch_rows(self.shuffle) for w in workers]
                steps = min(len(rows) // batch_size for rows in epoch_rows)
                # (steps·B, S, cols): one block of the epoch's vector steps
                block = np.stack(
                    [rows[: steps * batch_size] for rows in epoch_rows], axis=1
                )
                if not self.shuffle:
                    self._static_plan = (epoch_rows, steps, block)
            env = tape.train([block], bind_batch, stacked_models, batch_size)
        # Per-segment convergence verdicts from the last vector step;
        # segments with tail batches get their verdict overwritten below
        # from their true final batch — exactly what the threads oracle
        # (one engine epoch per segment) reports.
        flags = np.zeros(len(workers), dtype=bool)
        if check_convergence and env is not None:
            value = tape.convergence_value(env)
            if value is not None:
                flags = np.broadcast_to(
                    np.atleast_1d(value) > 0.5, (len(workers),)
                ).copy()
        # Ragged tails (uneven partitions) run per segment through each
        # worker's own single-segment tape, so every tuple is consumed.
        for s, w in enumerate(workers):
            rows = epoch_rows[s]
            seg_tape = w.engine.tape
            seg_models = {name: stacked_models[name][s] for name in stacked_models}
            tail_env = seg_tape.train(
                row_blocks(rows[steps * batch_size :], batch_size),
                bind_batch,
                seg_models,
                batch_size,
            )
            if tail_env is not None:
                for name in stacked_models:
                    stacked_models[name][s] = seg_models[name]
                if check_convergence:
                    flags[s] = seg_tape.convergence_reached(tail_env)
            # The segment's epoch — its share of the vector steps plus its
            # own tail batches — is one engine epoch over its rows.
            w.engine.book_epoch(len(rows))
        converged = check_convergence and bool(flags.all())
        return stacked_models, converged

    def _streamed_blocks(self) -> Iterator[np.ndarray]:
        """``(k·B, S, cols)`` blocks of the zipped per-segment block streams.

        Each round stacks the whole batches every segment has ready — ``k``
        is the fewest any segment holds — with one ``np.stack``, and keeps
        the rest for the next round.  Stops at the first round where a
        segment has no whole batch left — after exactly
        ``min(len(rows_s) // batch_size)`` vector steps, the step count the
        materialized plan computes.  Rows pulled past that point stay
        available (the sources cache their chunks), so the tail loop
        consumes them from ``rows[steps * batch_size:]`` as usual.
        """
        batch_size = self.batch_size
        streams = [w.source.blocks(batch_size) for w in self.workers]
        ready: list = [()] * len(streams)  # per segment: whole batches not yet stacked
        while True:
            for s, stream in enumerate(streams):
                if not len(ready[s]):
                    block = next(stream, None)
                    if block is None or len(block) < batch_size:  # end or tail
                        return
                    ready[s] = block
            take = min(len(block) for block in ready)
            yield np.stack([block[:take] for block in ready], axis=1)
            ready = [block[take:] for block in ready]
