"""Streaming batch source: a bounded double-buffer between the engines.

The paper's accelerator is a pipeline: Striders fill page buffers and emit
cleansed tuples *while* the execution engine consumes earlier ones.  A
:class:`BatchSource` reproduces that overlap in software.  A producer
thread walks the access engine's page stream (Strider wave walk + one-shot
payload decode) and pushes one chunk per *wave* of page buffers — the
wave's tuple matrix with its per-page tuple counts — into a bounded queue,
the software double buffer, while the consumer (the epoch loop) takes
those matrices as training blocks (:meth:`BatchSource.blocks`): each wave's
whole merge batches as one view, plus the one batch that straddles two
waves — exactly the batches the materialized path slices from the
fully-extracted matrix.

Two invariants make streaming safe to use on the default path:

* **identical batches** — batch boundaries are computed over the logical
  concatenation of the chunk stream, so every batch of a block is
  value-equal to ``rows[start:start+batch_size]`` of the materialized
  extraction, and :meth:`rows` returns that very matrix (consumed chunks
  are cached, so the second and later epochs train from memory like
  before);
* **identical counters** — the producer runs the *same* page walk in the
  same page order, so Strider/AXI counters are byte-for-byte those of the
  up-front extraction.

A consumer whose work is row-independent — the forward tape — skips the
re-cut and takes the matrices as delivered (:meth:`BatchSource.chunks`):
identical rows in identical order, whatever the chunk boundaries, with its
ledger booked from the tuple count alone.

A source built with :meth:`from_chunks` / :meth:`from_rows` is the
degenerate, already-extracted case (overlap off, the same chunk list), so
every trainer and scorer consumes this one interface whatever the
extraction seam (:meth:`repro.hw.access_engine.AccessEngine.open`, the only
place that constructs a live source) decided.  :attr:`BatchSource.sizes`
keeps the per-page tuple counts scan-and-score reassembles by, whatever the
chunking.

A transient producer fault restarts the producer under the source's
:class:`~repro.reliability.RetryPolicy`: attempts, backoff and the retry
deadline are the policy's own bookkeeping
(:meth:`~repro.reliability.RetryPolicy.budget`, shared with
:meth:`~repro.reliability.RetryPolicy.run`), the chunk stream is rebuilt
from the source's ``chunk_factory`` and fast-forwarded past the pages the
consumer already cached.  The producer's fault site fires once per *page*
a chunk carries, before the hand-off; a fault at a page inside a chunk
still delivers the pages before it, so fault numbering and what a faulted
consumer had seen are those of a page-at-a-time stream.  The per-page
firing loop runs only while a fault plan is armed: without one, a chunk
costs one check.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import RetryExhaustedError, TransientError
from repro.obs.telemetry import telemetry
from repro.reliability.faults import fault_point, faults_armed
from repro.reliability.retry import RetryPolicy, RetryStats

#: a stream element: one wave's ``(tuple matrix, per-page tuple counts)`` as
#: the extraction seam yields it, or a bare matrix (a single page's worth).
Chunk = np.ndarray | tuple[np.ndarray, Sequence[int]]

#: queue sentinel: the producer is done.
_DONE = object()

#: default queue depth — one chunk being consumed, one being produced.
DEFAULT_QUEUE_DEPTH = 2

#: fault-injection site fired once per page the producer delivers.
PRODUCER_FAULT_SITE = "runtime.batch_source.producer"

#: buffered queue-wait observations are flushed to the shared histogram in
#: batches of this size (and at end of stream) — a per-chunk ``observe``
#: would dominate the armed telemetry cost of the streaming paths.
_WAIT_FLUSH = 128


class _ProducerError:
    """Wrapper carrying a producer-thread exception to the consumer."""

    def __init__(self, error: BaseException) -> None:
        self.error = error


class BatchSource:
    """Bounded, restartable stream of decoded training-tuple chunks."""

    def __init__(
        self,
        chunks: Iterable[Chunk],
        n_columns: int,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        start: bool = True,
        chunk_factory: Callable[[], Iterable[Chunk]] | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        """Wrap a chunk stream in the bounded producer/consumer buffer.

        Args:
            chunks: the :data:`Chunk` stream the producer thread walks.
            n_columns: columns of every chunk (for the empty-stream case).
            queue_depth: bounded queue capacity (the double buffer).
            start: spawn the producer thread (default; the pre-extracted
                constructors pass ``False``).
            chunk_factory: optional zero-argument callable returning a
                *fresh* chunk stream with reset upstream state; required
                for producer restart after a transient fault.  Delivered
                chunks are replayed from the cache, the fresh stream is
                fast-forwarded past them, so the consumer observes the
                exact fault-free chunk sequence and counters.
            retry: optional :class:`~repro.reliability.RetryPolicy`
                bounding producer restarts (needs ``chunk_factory``).
        """
        self.n_columns = n_columns
        self._chunk_iter = iter(chunks)
        self._chunk_factory = chunk_factory
        #: restart/fault counters of this source's producer.
        self.retry_stats = RetryStats()
        #: the policy's attempt/deadline bookkeeping for this producer
        #: (one attempt per producer thread); ``None`` = not restartable.
        self._budget = (
            retry.budget(self.retry_stats, "batch-source producer")
            if retry is not None and chunk_factory is not None
            else None
        )
        #: pages the next producer run discards before delivering (the
        #: consumer already holds them in the cache).
        self._skip = 0
        #: chunks pulled off the queue so far, in stream order.  Batch
        #: iteration reads from this cache first, so the stream can be
        #: re-walked (later epochs, tail batches) without re-extraction.
        self._cache: list[np.ndarray] = []
        #: tuple count of every page pulled so far, in stream order (a
        #: chunk carries one per page).  Recorded on the consumer side, so a
        #: producer restart (which replays the cache) never re-counts;
        #: complete once the stream is drained.
        self.sizes: list[int] = []
        self._exhausted = False
        #: the unrecovered producer error, re-raised on any later pull so
        #: a retried consumer can never silently read a truncated stream.
        self._error: BaseException | None = None
        self._rows: np.ndarray | None = None
        self._queue: queue.Queue | None = None
        self._queue_depth = max(1, queue_depth)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: ``(session, produce_hist, consume_hist)`` — the armed telemetry
        #: session's wait histograms, cached so the per-chunk hot path does
        #: not pay a registry lookup per observation.
        self._wait_hists = None
        #: locally-buffered wait seconds awaiting a bulk flush; index 1 is
        #: the produce side (producer thread only), index 2 the consume
        #: side (consumer thread only), so neither list is shared.
        self._wait_buf: tuple[None, list, list] = (None, [], [])
        if start:
            self._spawn()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_chunks(cls, chunks: Sequence[Chunk], n_columns: int) -> "BatchSource":
        """A pre-extracted source over a finished chunk stream (overlap off).

        The materialised twin of a live stream: same :meth:`chunks`,
        :meth:`batches`, :meth:`rows` and :attr:`sizes`, no producer
        thread.  The matrices are kept as given — :meth:`rows` stacks them
        on first use, and a single chunk is the caller's matrix, uncopied.
        """
        items = [_as_item(chunk) for chunk in chunks]
        source = cls(iter(()), n_columns=n_columns, start=False)
        source._cache = [rows for rows, _sizes in items]
        source.sizes = [size for _rows, sizes in items for size in sizes]
        source._exhausted = True
        return source

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "BatchSource":
        """A pre-extracted source over one tuple matrix (a single chunk)."""
        rows = np.asarray(rows)
        return cls.from_chunks([rows], rows.shape[1] if rows.ndim > 1 else 0)

    @property
    def materialised(self) -> bool:
        """True once the whole tuple matrix is in memory.

        Always for :meth:`from_chunks` / :meth:`from_rows` sources (they
        never had a producer), and for a live stream after :meth:`rows`;
        consumers use it to skip the chunk-by-chunk path when there is no
        extraction left to overlap.
        """
        return self._queue is None or self._rows is not None

    # ------------------------------------------------------------------ #
    # producer
    # ------------------------------------------------------------------ #
    def _spawn(self) -> None:
        """One producer attempt: a fresh queue and thread over ``_chunk_iter``."""
        self._queue = queue.Queue(maxsize=self._queue_depth)
        self._thread = threading.Thread(
            target=self._produce, name="batch-source-producer", daemon=True
        )
        if self._budget is not None:
            self._budget.begin()
        self._thread.start()

    def _produce(self) -> None:
        try:
            try:
                skip = self._skip
                self._skip = 0
                for chunk in self._chunk_iter:
                    rows, sizes = _as_item(chunk)
                    if skip >= len(sizes):
                        # Replay after a restart: the consumer already holds
                        # these pages in its cache; re-walk them silently so
                        # the upstream counters match the fault-free run.
                        skip -= len(sizes)
                        continue
                    if skip:
                        rows, sizes = rows[sum(sizes[:skip]) :], sizes[skip:]
                        skip = 0
                    if faults_armed():  # no plan: no per-page loop
                        try:
                            for clean, _page in enumerate(sizes):
                                fault_point(PRODUCER_FAULT_SITE)
                        except TransientError:
                            # The site fires per page: the pages before the
                            # faulted one still cross the buffer, exactly as
                            # when pages were handed over one by one.
                            if clean:
                                self._deliver(rows[: sum(sizes[:clean])], sizes[:clean])
                            raise
                    if not self._deliver(rows, sizes):
                        return
            finally:
                self._flush_waits(1)
        except BaseException as error:  # noqa: BLE001 - forwarded to consumer
            self._put(_ProducerError(error))
            return
        self._put(_DONE)

    def _deliver(self, rows: np.ndarray, sizes: Sequence[int]) -> bool:
        """Hand one item to the consumer; False once the source was aborted."""
        obs = telemetry()
        if obs is None:
            return self._put((rows, sizes))
        start = time.perf_counter()
        delivered = self._put((rows, sizes))
        self._note_wait(obs, 1, time.perf_counter() - start)
        return delivered

    def _join_producer(self, drain: bool = False) -> None:
        """Join the producer thread so no error path leaks it.

        ``drain`` keeps emptying the queue while waiting, releasing a
        producer blocked on a full queue (the abort path).
        """
        thread = self._thread
        if thread is None:
            return
        while thread.is_alive():
            if drain and self._queue is not None:
                try:
                    self._queue.get_nowait()
                except queue.Empty:
                    pass
            thread.join(timeout=0.05)
        self._thread = None

    def _restart_producer(self, error: TransientError) -> None:
        """Restart the producer after a transient fault (bounded by policy).

        The dead producer is joined and the fault booked against the
        policy's budget — which sleeps the backoff, or raises
        :class:`~repro.exceptions.RetryExhaustedError` once attempts or the
        retry deadline run out, exactly like
        :meth:`~repro.reliability.RetryPolicy.run`.  Then a fresh chunk
        stream is built from the factory (which resets upstream counters),
        fast-forwarded past the pages the cache already holds, and a new
        producer thread resumes delivery — so the chunk sequence and
        upstream counters the consumer observes are bit-identical to a
        fault-free run.
        """
        self._join_producer()
        try:
            self._budget.failed(error)
        except RetryExhaustedError as exhausted:
            self._exhausted = True
            self._error = exhausted
            raise
        self._chunk_iter = iter(self._chunk_factory())
        self._skip = len(self.sizes)
        self._spawn()

    def _note_wait(self, obs, side: int, seconds: float) -> None:
        """Buffer one queue-wait observation (1 = produce, 2 = consume).

        These sites fire once per chunk, so they record into shared
        histograms instead of emitting spans (see
        :data:`repro.obs.metrics.HISTOGRAM_SITES`), and the hot path only
        appends to a thread-private list — the histogram sees bulk
        flushes every :data:`_WAIT_FLUSH` chunks and at end of stream.
        """
        buffer = self._wait_buf[side]
        buffer.append(seconds)
        if len(buffer) >= _WAIT_FLUSH:
            self._flush_waits(side, obs)

    def _flush_waits(self, side: int, obs=None) -> None:
        """Flush a side's buffered waits into its session histogram.

        A producer/consumer write race on the cached histogram pair is
        benign — both threads resolve the identical registry entries.
        """
        buffer = self._wait_buf[side]
        if not buffer:
            return
        if obs is None:
            obs = telemetry()
            if obs is None:
                # Disarmed before the flush (end-of-stream after the
                # session closed): the observations have no destination.
                buffer.clear()
                return
        cached = self._wait_hists
        if cached is None or cached[0] is not obs:
            cached = (
                obs,
                obs.metrics.histogram("runtime.batch_source.produce"),
                obs.metrics.histogram("runtime.batch_source.consume"),
            )
            self._wait_hists = cached
        cached[side].observe_many(buffer)
        buffer.clear()

    def _put(self, item) -> bool:
        """Blocking put that still honours :meth:`abort`."""
        while not self._stop.is_set():
            try:
                self._queue.put(item, timeout=0.1)
                return True
            except queue.Full:
                continue
        return False

    def abort(self) -> None:
        """Release a producer blocked on a full queue (consumer gave up).

        Call on error paths only: the producer exits at its next put, the
        queue is drained so that exit is immediate, and any later attempt
        to consume the stream raises instead of blocking on data that will
        never arrive.
        """
        self._stop.set()
        if self._queue is not None:
            while True:
                try:
                    self._queue.get_nowait()
                except queue.Empty:
                    break
        self._join_producer(drain=True)

    # ------------------------------------------------------------------ #
    # consumer
    # ------------------------------------------------------------------ #
    def _chunk_at(self, index: int) -> np.ndarray | None:
        """The ``index``-th chunk of the stream, pulling as needed."""
        while len(self._cache) <= index:
            if self._error is not None:
                raise self._error
            if self._exhausted:
                return None
            obs = telemetry()
            if obs is not None:
                start = time.perf_counter()
                item = self._get()
                self._note_wait(obs, 2, time.perf_counter() - start)
            else:
                item = self._get()
            if item is _DONE:
                self._flush_waits(2)
                self._exhausted = True
                self._join_producer()
                # Nothing can restart a finished stream: drop the factory
                # (it pins the whole page-image list) with the iterator.
                self._chunk_factory = self._chunk_iter = None
                return None
            if isinstance(item, _ProducerError):
                self._flush_waits(2)
                if self._budget is not None and isinstance(
                    item.error, TransientError
                ):
                    self._restart_producer(item.error)
                    continue
                self._exhausted = True
                self._error = item.error
                self._join_producer()
                raise item.error
            rows, sizes = item
            self._cache.append(rows)
            self.sizes.extend(sizes)
        return self._cache[index]

    def _get(self):
        """Blocking get that still honours :meth:`abort`.

        An aborted producer exits without enqueuing ``_DONE``, so a plain
        ``Queue.get`` could block forever; polling with a timeout lets a
        consumer that was already parked on the queue observe the stop
        flag and fail instead of deadlocking.
        """
        while True:
            if self._stop.is_set():
                raise RuntimeError("batch source was aborted before draining")
            try:
                return self._queue.get(timeout=0.1)
            except queue.Empty:
                continue

    def has_rows(self) -> bool:
        """True once the stream is known to contain at least one tuple.

        Blocks only until the first non-empty chunk (usually the first
        decoded wave) or the end of an empty stream — the cheap peek the
        sharded runtime uses to pick its active segments without
        materializing whole partitions.
        """
        index = 0
        while True:
            chunk = self._chunk_at(index)
            if chunk is None:
                return False
            if len(chunk):
                return True
            index += 1

    def chunks(self) -> Iterator[np.ndarray]:
        """Yield the stream's non-empty tuple matrices as the seam cut them.

        One matrix per extracted wave (a faulted wave arrives as the pages
        before the fault, then the rest after the restart) — the unit a
        row-independent consumer such as the forward tape executes at.
        Restartable from the cache, like :meth:`batches`.
        """
        index = 0
        while (chunk := self._chunk_at(index)) is not None:
            index += 1
            if len(chunk):
                yield chunk

    def blocks(self, batch_size: int) -> Iterator[np.ndarray]:
        """Yield the stream as training blocks of ``batch_size``-row batches.

        Per chunk: the batch straddling the previous chunk's end (one
        ``concatenate`` of at most ``batch_size`` rows), then the chunk's
        whole batches as one view.  The tail batch, if any, comes last.  A
        block is therefore whole batches or the one short tail — what
        :meth:`~repro.translator.tape.CompiledTape.train` binds once — and
        the batch boundaries are those of slicing the materialised matrix,
        whatever the chunking.  Restartable from the cache, like
        :meth:`chunks`.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        pending: list[np.ndarray] = []  # the rows of the straddling batch
        have = 0
        for chunk in self.chunks():
            start = 0
            if have:
                start = min(batch_size - have, len(chunk))
                pending.append(chunk[:start])
                have += start
                if have < batch_size:
                    continue
                yield np.concatenate(pending)
                pending, have = [], 0
            whole = start + (len(chunk) - start) // batch_size * batch_size
            if whole > start:
                yield chunk[start:whole]
            if whole < len(chunk):
                pending, have = [chunk[whole:]], len(chunk) - whole
        if have:
            yield pending[0] if len(pending) == 1 else np.concatenate(pending)

    def batches(self, batch_size: int) -> Iterator[np.ndarray]:
        """Yield consecutive ``batch_size``-row batches (tail may be short):
        :meth:`blocks`, each split into its batches.  Restartable."""
        for block in self.blocks(batch_size):
            for start in range(0, len(block), batch_size):
                yield block[start : start + batch_size]

    def rows(self) -> np.ndarray:
        """Drain the stream and return the full extracted matrix (cached)."""
        if self._rows is None:
            index = len(self._cache)
            while self._chunk_at(index) is not None:
                index += 1
            if len(self._cache) == 1:
                self._rows = self._cache[0]  # no copy: from_rows wraps the caller's matrix
            elif self._cache:
                self._rows = np.vstack(self._cache)
                # Re-cut the cache as views of the stacked matrix: the
                # partition is held once, chunks() keeps its granularity.
                cuts = np.cumsum([len(chunk) for chunk in self._cache[:-1]])
                self._cache = np.split(self._rows, cuts)
            else:
                self._rows = np.empty((0, self.n_columns))
        return self._rows


def _as_item(chunk: Chunk) -> tuple[np.ndarray, Sequence[int]]:
    """A stream element as ``(tuple matrix, per-page tuple counts)``."""
    return chunk if isinstance(chunk, tuple) else (chunk, (len(chunk),))


def row_blocks(rows: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """A materialised matrix as training blocks: its whole ``batch_size``-row
    batches as one view, then its tail (either may be empty)."""
    whole = len(rows) - len(rows) % batch_size
    return [rows[:whole], rows[whole:]]
