"""The complete DAnA accelerator: access engine + execution engine.

This module wires the two engines together the way Figure 4 of the paper
draws them: buffer-pool pages enter through the AXI interface into page
buffers, Striders cleanse them into raw training tuples, and the
multi-threaded execution engine consumes those tuples to run the learning
algorithm.  The result is a single object that can train a model directly
from binary database pages and report the hardware activity it generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

import numpy as np

from repro.hw.access_engine import AccessEngine, AccessEngineStats, stack_chunks
from repro.hw.execution_engine import EngineRunStats, ExecutionEngine, TrainingResult
from repro.hw.fpga import FPGASpec
from repro.hw.tree_bus import TreeBus
from repro.rdbms.predicate import ColumnPredicate
from repro.rdbms.types import Schema
from repro.reliability.retry import RetryPolicy, RetryStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (compiler imports hw)
    from repro.compiler.execution_binary import ExecutionBinary

TupleBinder = Callable[[np.ndarray], dict[str, np.ndarray | float]]
BatchBinder = Callable[[np.ndarray], dict[str, np.ndarray]]


@dataclass
class AcceleratorRunResult:
    """Functional result + hardware activity of one accelerated training run."""

    training: TrainingResult
    access_stats: AccessEngineStats
    engine_stats: EngineRunStats
    tuples_extracted: int
    #: producer-restart / fault counters (all zero on a fault-free run).
    retry_stats: RetryStats = field(default_factory=RetryStats)
    #: WAL LSN the run's page scan was pinned to (set by the caller that
    #: owns the database; the accelerator itself never sees the WAL).
    snapshot_lsn: int = 0

    @property
    def models(self) -> dict[str, np.ndarray]:
        return self.training.models


@dataclass
class DAnAAccelerator:
    """A generated accelerator instance bound to one compiled UDF."""

    binary: ExecutionBinary
    schema: Schema
    fpga: FPGASpec
    #: a scoring statement's WHERE, applied by the access engine per page.
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
        )
        self.execution_engine = ExecutionEngine(
            graph=self.binary.graph,
            schedule=self.binary.thread_schedule,
            threads=design.threads,
            tree_bus=TreeBus(alu_count=design.aus_per_cluster),
        )

    # ------------------------------------------------------------------ #
    # end-to-end functional execution
    # ------------------------------------------------------------------ #
    def extract(self, page_images: Iterable[bytes]) -> np.ndarray:
        """Run only the access engine: binary pages → float tuple matrix."""
        return self.access_engine.extract_table(page_images)

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
        """Extract tuples with Striders, then train on the execution engine.

        ``stream=True`` (the default) pipelines the two engines like the
        paper's hardware: the Strider page walk runs on a producer thread
        behind a bounded double buffer and the first training epoch
        consumes batches as they decode.  ``stream=False`` materialises the
        whole table first — the PR-2 behaviour, kept as the overlap oracle.
        Models and counters are identical either way.  A ``retry`` policy
        makes the streaming producer restartable after transient faults
        (see :meth:`AccessEngine.stream_table`).
        """
        retry_stats = RetryStats()
        if stream:
            # The buffer pool is not thread-safe, so page images are pulled
            # on this thread; only the Strider walk + decode move to the
            # producer thread (that is where the extraction time goes).
            source = self.access_engine.stream_table(list(page_images), retry=retry)
            try:
                training = self.execution_engine.train(
                    rows=None,
                    initial_models=initial_models,
                    bind_tuple=bind_tuple,
                    epochs=epochs,
                    convergence_check=convergence_check,
                    bind_batch=bind_batch,
                    shuffle=shuffle,
                    rng=rng,
                    source=source,
                )
            except BaseException:
                source.abort()  # release a producer blocked mid-stream
                raise
            tuples_extracted = len(source.rows())
            retry_stats.merge(source.retry_stats)
        else:
            rows = self.access_engine.extract_table(page_images)
            training = self.execution_engine.train(
                rows=rows,
                initial_models=initial_models,
                bind_tuple=bind_tuple,
                epochs=epochs,
                convergence_check=convergence_check,
                bind_batch=bind_batch,
                shuffle=shuffle,
                rng=rng,
            )
            tuples_extracted = len(rows)
        return AcceleratorRunResult(
            training=training,
            access_stats=self.access_engine.stats,
            engine_stats=self.execution_engine.stats,
            tuples_extracted=tuples_extracted,
            retry_stats=retry_stats,
        )

    def score_from_pages(
        self,
        page_images: Iterable[bytes],
        models: Mapping[str, np.ndarray],
        inference,
        path: str = "batched",
        batch_size: int | None = None,
    ) -> tuple[np.ndarray, list[int]]:
        """Forward-only scoring: bulk Strider page walk + inference engine.

        The access engine cleanses the pages exactly as it does for
        training (same bulk walk, same counters); ``inference`` — a
        :class:`repro.serving.InferenceEngine`, duck-typed so ``hw`` keeps
        no dependency on the serving layer — evaluates the forward pass and
        books its schedule-derived cycles.  Returns the predictions plus
        the per-page tuple counts (the scorer needs them to reassemble
        partitioned predictions in storage order).  With a
        :attr:`predicate` the access engine emits each page's qualifying
        tuples only, so both are over qualifying tuples.
        """
        chunks = list(self.access_engine.process_pages(page_images))
        sizes = [len(chunk) for chunk in chunks]
        rows = stack_chunks(chunks, len(self.schema))
        predictions = inference.score(rows, models, path=path, batch_size=batch_size)
        return predictions, sizes

    def score_stream_from_pages(
        self,
        page_images: Iterable[bytes],
        models: Mapping[str, np.ndarray],
        inference,
        batch_size: int,
        path: str = "batched",
        retry: RetryPolicy | None = None,
        retry_stats: RetryStats | None = None,
    ) -> tuple[np.ndarray, list[int]]:
        """Streaming scan-and-score: the page walk overlaps the forward tape.

        The serving twin of :meth:`train_from_pages`'s ``stream=True`` path:
        the bulk Strider page walk + payload decode run on a
        :class:`~repro.runtime.BatchSource` producer thread behind a bounded
        double buffer, while this thread scores each micro-batch on the
        forward tape as soon as it is assembled.  Batch boundaries are
        computed over the logical concatenation of the page chunks, so every
        scored micro-batch — and therefore every prediction and every
        schedule-derived counter — is bit-identical to
        :meth:`score_from_pages` with the same ``batch_size``.

        Args:
            page_images: binary page images, in storage order.
            models: the model parameter mapping to score with.
            inference: a duck-typed ``InferenceEngine`` (``hw`` keeps no
                dependency on the serving layer).
            batch_size: micro-batch size (must be resolved by the caller;
                this layer has no default).
            path: ``"batched"`` (forward tape) or ``"per_tuple"`` (oracle).
            retry: optional policy making the producer restartable after a
                transient fault (resets the access counters and per-page
                sizes, then re-walks the pages — results bit-identical).
            retry_stats: optional counters the producer's restarts are
                merged into once the stream drains.

        Returns:
            ``(predictions, per_page_tuple_counts)`` exactly like
            :meth:`score_from_pages`.
        """
        from repro.runtime import BatchSource

        images = list(page_images)
        sizes: list[int] = []

        def record_sizes(chunks: Iterable[np.ndarray]) -> Iterable[np.ndarray]:
            # Runs on the producer thread; complete once the stream drains.
            for chunk in chunks:
                sizes.append(len(chunk))
                yield chunk

        def fresh() -> Iterable[np.ndarray]:
            # Restart hook: the re-walk re-records every page, so both the
            # counters and the size list must start from zero again.
            sizes.clear()
            self.access_engine.stats = AccessEngineStats()
            return record_sizes(self.access_engine.process_pages(images))

        source = BatchSource(
            record_sizes(self.access_engine.process_pages(images)),
            n_columns=len(self.schema),
            chunk_factory=fresh if retry is not None else None,
            retry=retry,
        )
        chunks_out: list[np.ndarray] = []
        try:
            for batch in source.batches(batch_size):
                chunks_out.append(
                    inference.score(batch, models, path=path, batch_size=len(batch))
                )
        except BaseException:
            source.abort()  # release a producer blocked mid-stream
            raise
        if retry_stats is not None:
            retry_stats.merge(source.retry_stats)
        if chunks_out:
            predictions = np.concatenate(chunks_out, axis=0)
        else:
            # Empty table: one empty score call recovers the output dims.
            predictions = inference.score(
                np.empty((0, len(self.schema))), models, path=path,
                batch_size=batch_size,
            )
        return predictions, sizes

    def train_from_rows(
        self,
        rows: np.ndarray,
        initial_models: Mapping[str, np.ndarray],
        bind_tuple: TupleBinder,
        epochs: int,
        convergence_check: bool = True,
        bind_batch: BatchBinder | None = None,
        shuffle: bool = False,
        rng: np.random.Generator | None = None,
    ) -> AcceleratorRunResult:
        """Train on already-extracted tuples (the "without Striders" path)."""
        training = self.execution_engine.train(
            rows=rows,
            initial_models=initial_models,
            bind_tuple=bind_tuple,
            epochs=epochs,
            convergence_check=convergence_check,
            bind_batch=bind_batch,
            shuffle=shuffle,
            rng=rng,
        )
        return AcceleratorRunResult(
            training=training,
            access_stats=self.access_engine.stats,
            engine_stats=self.execution_engine.stats,
            tuples_extracted=len(rows),
        )
