"""Streaming batch source: waves pulled on the consumer's thread.

The paper's accelerator is a pipeline: Striders fill page buffers and emit
cleansed tuples *while* the execution engine consumes earlier ones.  A
:class:`BatchSource` keeps that schedule's shape in software without a
second thread: the consumer (the epoch loop, the forward tape) pulls the
access engine's page stream one *wave* at a time — the Strider wave walk
plus one-shot payload decode, yielding the wave's tuple matrix with its
per-page tuple counts — and works on that wave while it is still in cache
before it pulls the next, the way a database executor pulls tuples from
its child operator.  Training takes the matrices as blocks
(:meth:`BatchSource.blocks`): each wave's whole merge batches as one view,
plus the one batch that straddles two waves — exactly the batches the
materialized path slices from the fully-extracted matrix.

Two invariants make streaming safe to use on the default path:

* **identical batches** — batch boundaries are computed over the logical
  concatenation of the chunk stream, so every batch of a block is
  value-equal to ``rows[start:start+batch_size]`` of the materialized
  extraction, and :meth:`rows` returns that very matrix (consumed chunks
  are cached, so the second and later epochs train from memory like
  before);
* **identical counters** — a pull runs the *same* page walk in the same
  page order, so Strider/AXI counters are byte-for-byte those of the
  up-front extraction.

A consumer whose work is row-independent — the forward tape — skips the
re-cut and takes the matrices as delivered (:meth:`BatchSource.chunks`):
identical rows in identical order, whatever the chunk boundaries, with its
ledger booked from the tuple count alone.

A source built with :meth:`from_chunks` / :meth:`from_rows` is the
degenerate, already-extracted case (nothing left to pull, the same chunk
list), so every trainer and scorer consumes this one interface whatever the
extraction seam (:meth:`repro.hw.access_engine.AccessEngine.open`, the only
place that constructs a live source) decided.  :attr:`BatchSource.sizes`
keeps the per-page tuple counts scan-and-score reassembles by, whatever the
chunking.

A transient fault in a pull restarts the stream under the source's
:class:`~repro.reliability.RetryPolicy`: attempts, backoff and the retry
deadline are the policy's own bookkeeping
(:meth:`~repro.reliability.RetryPolicy.budget`, shared with
:meth:`~repro.reliability.RetryPolicy.run`), the chunk stream is rebuilt
from the source's ``chunk_factory`` and fast-forwarded past the pages the
consumer already cached.  The pull's fault site fires once per *page* a
chunk carries, before the hand-off; a fault at a page inside a chunk still
delivers the pages before it, so fault numbering and what a faulted
consumer had seen are those of a page-at-a-time stream.  The per-page
firing loop runs only while a fault plan is armed: without one, a chunk
costs one check.

A finished stream — drained or failed — drops its chunk iterator and its
factory at once (they pin the whole page-image list), and the source holds
no generator or exception that refers back to it, so nothing it pulled
outlives its last user by waiting for the garbage collector.
"""

from __future__ import annotations

import copy
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import RetryExhaustedError, TransientError
from repro.reliability.faults import fault_point, faults_armed
from repro.reliability.retry import RetryPolicy, RetryStats

#: a stream element: one wave's ``(tuple matrix, per-page tuple counts)`` as
#: the extraction seam yields it, or a bare matrix (a single page's worth).
Chunk = np.ndarray | tuple[np.ndarray, Sequence[int]]

#: fault-injection site fired once per page a pull delivers.
PRODUCER_FAULT_SITE = "runtime.batch_source.producer"


class BatchSource:
    """Restartable stream of decoded training-tuple chunks, pulled on demand."""

    def __init__(
        self,
        chunks: Iterable[Chunk],
        n_columns: int,
        chunk_factory: Callable[[], Iterable[Chunk]] | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        """Wrap a chunk stream that consumers pull one chunk at a time.

        Args:
            chunks: the :data:`Chunk` stream; nothing is pulled from it
                until a consumer asks for a chunk.
            n_columns: columns of every chunk (for the empty-stream case).
            chunk_factory: optional zero-argument callable returning a
                *fresh* chunk stream with reset upstream state; required
                for a restart after a transient fault.  Delivered chunks
                are replayed from the cache, the fresh stream is
                fast-forwarded past them, so the consumer observes the
                exact fault-free chunk sequence and counters.
            retry: optional :class:`~repro.reliability.RetryPolicy`
                bounding restarts (needs ``chunk_factory``).
        """
        self.n_columns = n_columns
        #: the chunk stream still to pull; ``None`` once it ended or failed.
        self._chunk_iter: Iterator[Chunk] | None = iter(chunks)
        self._chunk_factory = chunk_factory
        #: False for the pre-extracted constructors (nothing was ever pulled).
        self._live = True
        #: restart/fault counters of this source's stream.
        self.retry_stats = RetryStats()
        #: the policy's attempt/deadline bookkeeping for this stream (one
        #: attempt per walk of the chunk stream); ``None`` = not restartable.
        self._budget = (
            retry.budget(self.retry_stats, "batch-source producer")
            if retry is not None and chunk_factory is not None
            else None
        )
        if self._budget is not None:
            self._budget.begin()
        #: pages the next pull discards before delivering (the consumer
        #: already holds them in the cache, after a restart).
        self._skip = 0
        #: the fault that cut a chunk short: raised by the next pull, after
        #: the pages before it were delivered (kept without its traceback).
        self._pending: TransientError | None = None
        #: chunks pulled so far, in stream order.  Batch iteration reads
        #: from this cache first, so the stream can be re-walked (later
        #: epochs, tail batches) without re-extraction.
        self._cache: list[np.ndarray] = []
        #: tuple count of every page pulled so far, in stream order (a
        #: chunk carries one per page); a restart replays the cache, so
        #: pages are never re-counted.  Complete once the stream is drained.
        self.sizes: list[int] = []
        #: the unrecovered error, re-raised (as a copy) on any later pull so
        #: a retried consumer can never silently read a truncated stream.
        self._error: BaseException | None = None
        self._rows: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_chunks(cls, chunks: Sequence[Chunk], n_columns: int) -> "BatchSource":
        """A pre-extracted source over a finished chunk stream.

        The materialised twin of a live stream: same :meth:`chunks`,
        :meth:`batches`, :meth:`rows` and :attr:`sizes`, nothing to pull.
        The matrices are kept as given — :meth:`rows` stacks them on first
        use, and a single chunk is the caller's matrix, uncopied.
        """
        items = [_as_item(chunk) for chunk in chunks]
        source = cls((), n_columns=n_columns)
        source._chunk_iter = None
        source._live = False
        source._cache = [rows for rows, _sizes in items]
        source.sizes = [size for _rows, sizes in items for size in sizes]
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
        never had anything to pull), and for a live stream after
        :meth:`rows`; consumers use it to skip the chunk-by-chunk path when
        there is no extraction left to interleave.
        """
        return not self._live or self._rows is not None

    # ------------------------------------------------------------------ #
    # pulling
    # ------------------------------------------------------------------ #
    def _chunk_at(self, index: int) -> np.ndarray | None:
        """The ``index``-th chunk of the stream, pulling as needed."""
        while len(self._cache) <= index:
            if self._error is not None:
                raise copy.copy(self._error)
            if self._chunk_iter is None:
                return None
            try:
                item = self._pull()
            except TransientError as error:
                if self._budget is None:
                    self._fail(error)
                    raise
                self._restart(error)
                continue
            except BaseException as error:
                self._fail(error)
                raise
            if item is None:
                # Nothing can restart a finished stream: drop the factory
                # (it pins the whole page-image list) with the iterator.
                self._chunk_factory = self._chunk_iter = None
                return None
            rows, sizes = item
            self._cache.append(rows)
            self.sizes.extend(sizes)
        return self._cache[index]

    def _pull(self) -> tuple[np.ndarray, Sequence[int]] | None:
        """The next ``(rows, sizes)`` item of the chunk stream (``None`` at
        its end), past the pages a restart skips, its fault site fired per
        page."""
        if self._pending is not None:
            try:
                raise self._pending  # no local: the traceback holds this frame
            finally:
                self._pending = None
        for chunk in self._chunk_iter:
            rows, sizes = _as_item(chunk)
            skip = self._skip
            if skip >= len(sizes):
                # Replay after a restart: the consumer already holds these
                # pages in its cache; re-walk them silently so the upstream
                # counters match the fault-free run.
                self._skip -= len(sizes)
                continue
            if skip:
                rows, sizes = rows[sum(sizes[:skip]) :], sizes[skip:]
                self._skip = 0
            if faults_armed():  # no plan: no per-page loop
                try:
                    for clean, _page in enumerate(sizes):
                        fault_point(PRODUCER_FAULT_SITE)
                except TransientError as error:
                    if not clean:
                        raise
                    # The site fires per page: the pages before the faulted
                    # one are still delivered, exactly as when pages were
                    # handed over one by one; the next pull raises.
                    self._pending = error.with_traceback(None)
                    return rows[: sum(sizes[:clean])], sizes[:clean]
            return rows, sizes
        return None

    def _restart(self, error: TransientError) -> None:
        """Restart the stream after a transient fault (bounded by policy).

        The fault is booked against the policy's budget — which sleeps the
        backoff, or raises :class:`~repro.exceptions.RetryExhaustedError`
        once attempts or the retry deadline run out, exactly like
        :meth:`~repro.reliability.RetryPolicy.run`.  Then a fresh chunk
        stream is built from the factory (which resets upstream counters)
        and fast-forwarded past the pages the cache already holds — so the
        chunk sequence and upstream counters the consumer observes are
        bit-identical to a fault-free run.
        """
        try:
            self._budget.failed(error)
        except RetryExhaustedError as exhausted:
            self._fail(exhausted)
            raise
        self._chunk_iter = iter(self._chunk_factory())
        self._skip = len(self.sizes)
        self._budget.begin()

    def _fail(self, error: BaseException) -> None:
        """End the stream on an unrecovered error.

        The source keeps a copy of ``error`` without traceback, cause or
        context: the raised error's traceback holds the frames consuming
        this source, so keeping the error itself would form a cycle that
        pins the source, its cache and its callers' page lists until the
        garbage collector runs.
        """
        self._chunk_factory = self._chunk_iter = None
        self._pending = None
        try:
            self._error = copy.copy(error)
        except TypeError:  # an __init__ that does not take its args back
            self._error = RuntimeError(f"batch source failed earlier: {error!r}")

    # ------------------------------------------------------------------ #
    # consuming
    # ------------------------------------------------------------------ #
    def has_rows(self) -> bool:
        """True once the stream is known to contain at least one tuple.

        Pulls only until the first non-empty chunk (usually the first
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
