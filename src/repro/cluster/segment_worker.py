"""One segment's slice of a sharded run: its own DAnA accelerator.

The paper's Greenplum deployment attaches one DAnA accelerator to every
segment; a :class:`SegmentWorker` is that pairing in the reproduction.  It
owns a full :class:`~repro.hw.accelerator.DAnAAccelerator` instance
(access engine with its own Striders + execution engine with its own
thread schedule and tree bus), streams only its partition's heap pages,
and trains one or more epochs at a time from whatever global model the
cross-segment merge produced — so per-segment hardware counters are
exactly what a stand-alone accelerator over the same pages would report.

Extraction comes in two flavours: :meth:`extract` materialises the whole
partition up front (the PR-2 behaviour, kept as the pipelining oracle),
while :meth:`open_source` starts a streaming
:class:`~repro.runtime.BatchSource` whose producer thread runs this
segment's Strider walk concurrently with training — and concurrently with
every *other* segment's extraction.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.partitioner import PagePartition
from repro.hw.accelerator import DAnAAccelerator
from repro.hw.execution_engine import TrainingResult
from repro.obs.telemetry import telemetry
from repro.rdbms.buffer_pool import BufferPool
from repro.rdbms.heapfile import HeapFile
from repro.reliability.faults import fault_point
from repro.reliability.retry import RetryPolicy, RetryStats
from repro.runtime import BatchSource

from repro.algorithms.base import AlgorithmSpec

#: fault-injection site fired once per segment training window.
SEGMENT_EPOCH_FAULT_SITE = "cluster.segment_worker.epoch"


def run_stale_window(
    worker: "SegmentWorker",
    spec: AlgorithmSpec,
    models: dict[str, np.ndarray],
    count: int,
    shuffle: bool,
    convergence_check: bool,
    retry: RetryPolicy | None = None,
    retry_stats: RetryStats | None = None,
) -> TrainingResult:
    """One stale-synchronous window of ``count`` local epochs on ``worker``.

    Convergence is judged only at the merge boundary (the window's last
    epoch): the merge-free prefix runs without an early exit so every
    segment trains exactly ``count`` epochs per window — no segment can
    stop mid-window and smuggle a less-trained model into the merge.  This
    is the single definition both the thread-pool strategy and the worker
    *processes* execute, which is what keeps the two bit-identical.
    """
    if count > 1 and convergence_check:
        prefix = worker.train_epochs(
            models,
            spec,
            count - 1,
            shuffle,
            convergence_check=False,
            retry=retry,
            retry_stats=retry_stats,
        )
        boundary = worker.train_epochs(
            prefix.models,
            spec,
            1,
            shuffle,
            convergence_check,
            retry=retry,
            retry_stats=retry_stats,
        )
        return TrainingResult(
            models=boundary.models,
            epochs_run=prefix.epochs_run + boundary.epochs_run,
            converged=boundary.converged,
            stats=boundary.stats,
        )
    return worker.train_epochs(
        models,
        spec,
        count,
        shuffle,
        convergence_check,
        retry=retry,
        retry_stats=retry_stats,
    )


@dataclass
class SegmentWorker:
    """One segment: a page partition bound to its own accelerator."""

    segment_id: int
    accelerator: DAnAAccelerator
    partition: PagePartition
    rng: np.random.Generator | None = None
    source: BatchSource | None = field(default=None, repr=False)
    #: fault/retry counters booked by this worker's retried windows.
    retry_stats: RetryStats = field(default_factory=RetryStats, repr=False)
    _rows: np.ndarray | None = field(default=None, repr=False)

    @property
    def engine(self):
        return self.accelerator.execution_engine

    @property
    def engine_stats(self):
        return self.engine.stats

    @property
    def access_stats(self):
        return self.accelerator.access_engine.stats

    @property
    def rows(self) -> np.ndarray | None:
        """The partition's tuple matrix (drains the stream if needed)."""
        if self._rows is None and self.source is not None:
            self._rows = self.source.rows()
        return self._rows

    @property
    def tuples_extracted(self) -> int:
        if self._rows is None and self.source is None:
            return 0
        return len(self.rows)

    def has_rows(self) -> bool:
        """True once the partition is known to hold at least one tuple.

        On a streaming source this peeks only as far as the first decoded
        page — the whole partition is *not* materialised.
        """
        if self._rows is not None:
            return len(self._rows) > 0
        if self.source is not None:
            return self.source.has_rows()
        return False

    # ------------------------------------------------------------------ #
    # access engine: partition extraction
    # ------------------------------------------------------------------ #
    def _page_images(
        self,
        heapfile: HeapFile,
        pool: BufferPool,
        as_of_lsn: int | None = None,
    ) -> list[bytes]:
        # The buffer pool is not thread-safe; images are pulled on the
        # caller's thread so producer threads only run Strider/decode work.
        # Pulling up front is also what pins the run to its snapshot: with
        # as_of_lsn set, these are the bytes the heap held at that LSN, and
        # concurrent inserts cannot reach the producer or the chunk cache.
        return [
            image
            for _no, image in heapfile.scan_pages(
                pool, self.partition.page_nos, as_of_lsn=as_of_lsn
            )
        ]

    def extract(
        self,
        heapfile: HeapFile,
        pool: BufferPool,
        use_striders: bool = True,
        as_of_lsn: int | None = None,
    ) -> np.ndarray:
        """Materialise this segment's pages as the training-tuple matrix.

        ``use_striders=True`` streams the raw page images through this
        segment's access engine (the paper's path, with cycle accounting);
        ``False`` models the CPU feeding the engine directly — the tuples
        are decoded by the RDBMS layer and no Strider activity is booked.
        ``as_of_lsn`` pins the page pulls to a snapshot of the heap.
        """
        if use_striders:
            self._rows = self.accelerator.access_engine.extract_table(
                self._page_images(heapfile, pool, as_of_lsn=as_of_lsn)
            )
            return self._rows
        chunks = list(self._cpu_decode_chunks(heapfile, pool, as_of_lsn=as_of_lsn))
        self._rows = (
            np.vstack(chunks) if chunks else np.empty((0, len(heapfile.schema)))
        )
        return self._rows

    def extract_pages(
        self,
        page_images,
        use_striders: bool = True,
        layout=None,
        schema=None,
    ) -> np.ndarray:
        """Materialise the partition from already-pulled page images.

        Worker *processes* use this: their pages come as zero-copy views
        of a :class:`~repro.runtime.shm.SharedPageStore` rather than from
        a heap file + buffer pool, and the Strider bulk walk (or the
        ``use_striders=False`` RDBMS decode, which needs ``layout`` and
        ``schema``) runs over them unchanged.
        """
        if use_striders:
            self._rows = self.accelerator.access_engine.extract_table(page_images)
            return self._rows
        from repro.rdbms.heapfile import decode_page_rows

        chunks = [decode_page_rows(image, layout, schema) for image in page_images]
        self._rows = np.vstack(chunks) if chunks else np.empty((0, len(schema)))
        return self._rows

    def open_source(
        self,
        heapfile: HeapFile,
        pool: BufferPool,
        use_striders: bool = True,
        queue_depth: int = 2,
        retry: RetryPolicy | None = None,
        as_of_lsn: int | None = None,
    ) -> BatchSource:
        """Start this segment's streaming extraction (producer thread).

        The returned source yields decoded per-page chunks through a
        bounded double buffer; training can consume the first batch while
        later pages are still being cleansed.  Payloads and counters are
        identical to :meth:`extract`.  A ``retry`` policy makes the
        producer restartable after transient faults (page walk or
        producer site) with bit-identical chunks and counters.
        ``as_of_lsn`` pins the page pulls to a snapshot, so a producer
        restart (and the source's chunk cache) re-walks the same images
        even if the table has grown since the stream opened.
        """
        if use_striders:
            self.source = self.accelerator.access_engine.stream_table(
                self._page_images(heapfile, pool, as_of_lsn=as_of_lsn),
                queue_depth=queue_depth,
                retry=retry,
            )
        else:
            self.source = BatchSource(
                self._cpu_decode_chunks(heapfile, pool, as_of_lsn=as_of_lsn),
                n_columns=len(heapfile.schema),
                queue_depth=queue_depth,
            )
        return self.source

    def _cpu_decode_chunks(
        self,
        heapfile: HeapFile,
        pool: BufferPool,
        as_of_lsn: int | None = None,
    ):
        """Per-page RDBMS-side decode (the ``use_striders=False`` model)."""
        from repro.rdbms.heapfile import decode_page_rows

        schema, layout = heapfile.schema, heapfile.layout
        images = self._page_images(heapfile, pool, as_of_lsn=as_of_lsn)
        return (decode_page_rows(image, layout, schema) for image in images)

    def epoch_rows(self, shuffle: bool) -> np.ndarray:
        """This epoch's tuple order (per-segment seeded shuffle)."""
        rows = self.rows
        assert rows is not None, "extract()/open_source() must run before training"
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
    def train_epoch(
        self,
        models: dict[str, np.ndarray],
        spec: AlgorithmSpec,
        shuffle: bool = False,
        convergence_check: bool = True,
    ) -> TrainingResult:
        """Run one local epoch starting from the merged global model."""
        return self.train_epochs(models, spec, 1, shuffle, convergence_check)

    def train_epochs(
        self,
        models: dict[str, np.ndarray],
        spec: AlgorithmSpec,
        epochs: int,
        shuffle: bool = False,
        convergence_check: bool = True,
        retry: RetryPolicy | None = None,
        retry_stats: RetryStats | None = None,
    ) -> TrainingResult:
        """Run ``epochs`` local epochs (one stale-synchronous window).

        When the partition is still streaming, the first epoch consumes
        batches straight off the source; the stream is materialised before
        the call returns so later windows train from memory.

        With a ``retry`` policy, a :class:`~repro.exceptions.TransientError`
        raised by this window is retried from a checkpoint of the worker's
        engine/tree-bus counters and RNG state — so the successful attempt
        books exactly what a fault-free window would have (the epoch driver
        copies the input models per attempt, so they need no restore).
        """
        assert self._rows is not None or self.source is not None, (
            "extract()/open_source() must run before training"
        )

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
            result = self.engine.train(
                rows=self._rows,
                initial_models=models,
                bind_tuple=spec.bind_tuple,
                epochs=epochs,
                convergence_check=convergence_check,
                bind_batch=spec.bind_batch,
                shuffle=shuffle,
                rng=self.rng,
                source=self.source if self._rows is None else None,
            )
            if self._rows is None:
                self._rows = self.source.rows()
            if span is not None:
                obs.finish(span, epochs_run=result.epochs_run)
            return result

        if retry is None:
            return window()
        checkpoint = self.checkpoint()
        return retry.run(
            window,
            stats=retry_stats,
            reset=lambda: self.restore(checkpoint),
            label=f"segment {self.segment_id} training window",
        )

    # ------------------------------------------------------------------ #
    # retry checkpointing
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> dict:
        """Snapshot the counters/RNG state a retried window must restore."""
        state = {
            "engine_stats": copy.copy(self.engine.stats),
            "bus_stats": copy.copy(self.engine.tree_bus.stats),
            "rng_state": (
                copy.deepcopy(self.rng.bit_generator.state)
                if self.rng is not None
                else None
            ),
        }
        return state

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
