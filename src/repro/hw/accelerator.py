"""The complete DAnA accelerator: access engine + execution engine.

This module wires the two engines together the way Figure 4 of the paper
draws them: buffer-pool pages enter through the AXI interface into page
buffers, Striders cleanse them into raw training tuples, and the
multi-threaded execution engine consumes those tuples to run the learning
algorithm.  The result is a single object that can train a model directly
from binary database pages and report the hardware activity it generated.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

import numpy as np

from repro.hw.access_engine import AccessEngine, AccessEngineStats
from repro.hw.execution_engine import EngineRunStats, ExecutionEngine, TrainingResult
from repro.hw.fpga import FPGASpec
from repro.hw.tree_bus import TreeBus
from repro.rdbms.predicate import ColumnPredicate
from repro.rdbms.types import Schema
from repro.reliability.retry import RetryPolicy, RetryStats
from repro.runtime import BatchSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (compiler imports hw)
    from repro.compiler.execution_binary import ExecutionBinary

TupleBinder = Callable[[np.ndarray], dict[str, np.ndarray | float]]
BatchBinder = Callable[[np.ndarray], dict[str, np.ndarray]]


@dataclass
class AcceleratorRunResult:
    """Functional result + hardware activity of one accelerated training run."""

    training: TrainingResult
    #: this run's own counters — the engines' cumulative stats since the
    #: run's extraction was opened, not the live objects.
    access_stats: AccessEngineStats
    engine_stats: EngineRunStats
    tuples_extracted: int
    #: stream-restart / fault counters (all zero on a fault-free run).
    retry_stats: RetryStats = field(default_factory=RetryStats)
    #: WAL LSN the run's page scan was pinned to (set by the caller that
    #: owns the database; the accelerator itself never sees the WAL).
    snapshot_lsn: int = 0

    @property
    def models(self) -> dict[str, np.ndarray]:
        """The trained model parameters, by name."""
        return self.training.models


@dataclass
class DAnAAccelerator:
    """A generated accelerator instance bound to one compiled UDF."""

    binary: ExecutionBinary
    schema: Schema
    fpga: FPGASpec
    #: a scoring statement's WHERE, applied by the access engine per page
    #: (whichever decode the extraction seam picks).
    predicate: ColumnPredicate | None = None
    access_engine: AccessEngine = field(init=False)
    execution_engine: ExecutionEngine = field(init=False)

    def __post_init__(self) -> None:
        design = self.binary.design
        self.access_engine = AccessEngine(
            config=design.access_engine_config,
            program=self.binary.strider.program,
            schema=self.schema,
            fpga=self.fpga,
            predicate=self.predicate,
            layout=self.binary.strider.layout,
        )
        self.execution_engine = ExecutionEngine(
            graph=self.binary.graph,
            schedule=self.binary.thread_schedule,
            threads=design.threads,
            tree_bus=TreeBus(alu_count=design.aus_per_cluster),
            tape=self.binary.tape,
        )

    # ------------------------------------------------------------------ #
    # end-to-end functional execution
    # ------------------------------------------------------------------ #
    def extract(self, page_images: Iterable[bytes]) -> np.ndarray:
        """Run only the access engine: binary pages → float tuple matrix."""
        return self.access_engine.extract_table(page_images)

    def train(
        self,
        source: BatchSource,
        initial_models: Mapping[str, np.ndarray],
        bind_tuple: TupleBinder,
        epochs: int,
        convergence_check: bool = True,
        bind_batch: BatchBinder | None = None,
        shuffle: bool = False,
        rng: np.random.Generator | None = None,
    ) -> AcceleratorRunResult:
        """Train the execution engine on an opened extraction.

        ``source`` comes from the extraction seam
        (:meth:`AccessEngine.open`); how its tuples are produced — Striders
        or CPU decode, pulled wave by wave by this training or already in
        memory — was decided there and changes neither models nor counters.
        The engines' ``stats`` accumulate across a cached accelerator's
        runs; the result carries this run's share of them.
        """
        engine_before = copy.copy(self.execution_engine.stats)
        training = self.execution_engine.train(
            source,
            initial_models=initial_models,
            bind_tuple=bind_tuple,
            epochs=epochs,
            convergence_check=convergence_check,
            bind_batch=bind_batch,
            shuffle=shuffle,
            rng=rng,
        )
        tuples_extracted = len(source.rows())  # drained: every page is booked
        # One run's share of the cached accelerator's cumulative counters.
        training.stats = self.execution_engine.stats - engine_before
        return AcceleratorRunResult(
            training=training,
            access_stats=self.access_engine.stats - self.access_engine.stats_at_open,
            engine_stats=training.stats,
            tuples_extracted=tuples_extracted,
            retry_stats=source.retry_stats,
        )

    def train_from_pages(
        self,
        page_images: Iterable[bytes],
        initial_models: Mapping[str, np.ndarray],
        bind_tuple: TupleBinder,
        epochs: int,
        convergence_check: bool = True,
        bind_batch: BatchBinder | None = None,
        shuffle: bool = False,
        rng: np.random.Generator | None = None,
        stream: bool = True,
        retry: RetryPolicy | None = None,
    ) -> AcceleratorRunResult:
        """Extract tuples with Striders and train on them: open, then train.

        ``stream=True`` (the default) pipelines the two engines like the
        paper's hardware — the first epoch pulls and trains one wave of
        pages at a time — and ``stream=False`` materialises the table first
        (the streaming oracle); models and counters are identical either
        way.  ``retry`` makes the stream restartable (see
        :meth:`AccessEngine.open`).
        """
        return self.train(
            self.access_engine.open(page_images, stream=stream, retry=retry),
            initial_models,
            bind_tuple,
            epochs,
            convergence_check=convergence_check,
            bind_batch=bind_batch,
            shuffle=shuffle,
            rng=rng,
        )
