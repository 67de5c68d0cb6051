"""Micro-batching prediction server for concurrent point requests.

Heavy serving traffic arrives one tuple at a time, but the inference tape
is fastest on batches.  The :class:`PredictionServer` bridges the two with
**one lock** and **natural batching**: submitting threads append requests
to a bounded pending deque under the server lock, and one scorer thread,
waiting on a condition of that same lock, takes whatever is pending the
moment it is free — up to ``max_batch_size`` requests, oldest first, in
one lock hold.  There is no batching window: a micro-batch is exactly what
queued while the previous one was scored, so batches stay at one request
under light load and grow to ``max_batch_size`` under a burst.  A submit
wakes the scorer only when it is parked idle; a request can be cancelled
until the scorer takes its batch.  A batch whose scoring raises is
re-scored one request at a time, so a malformed row fails alone.

The served model can be **hot-swapped** without stopping the server:
:meth:`PredictionServer.swap_models` (or the registry-versioned
:meth:`PredictionServer.reload`) replaces the model mapping atomically at a
micro-batch boundary — in-flight batches drain on the old model, later
batches score the new one, bit-identically to a cold restart.

Every request's end-to-end latency (submit → result) is recorded;
:meth:`PredictionServer.stats` reports throughput plus p50/p99 latency.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    ServerOverloadedError,
    ServingError,
)
from repro.obs.metrics import Histogram
from repro.obs.telemetry import telemetry
from repro.serving.inference import InferenceEngine

#: per-request latencies retained for the percentile stats.  A bounded
#: window keeps a long-lived server's memory (and percentile cost) flat;
#: the request/batch totals stay exact.
LATENCY_WINDOW = 65536

#: fixed bucket upper bounds (seconds) of the request-latency histogram —
#: a lone request on an idle server is its own batch and lands in the first
#: bucket; a backlog pushes latencies out to a few seconds.
LATENCY_BUCKETS_S = (
    0.0005,
    0.001,
    0.002,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)


def _latency_histogram() -> Histogram:
    """The shared-obs latency histogram backing one server's stats."""
    return Histogram(
        "serving.server.latency", buckets=LATENCY_BUCKETS_S, window=LATENCY_WINDOW
    )


@dataclass
class ServingStats:
    """Aggregate request/latency counters of one server lifetime."""

    requests: int = 0
    batches: int = 0
    #: completed model hot-swaps (swap_models / reload calls).
    swaps: int = 0
    #: requests refused at admission (queue full / per-model limit hit).
    shed: int = 0
    #: queued requests that missed their deadline before being scored.
    deadline_exceeded: int = 0
    #: synchronous :meth:`PredictionServer.predict` calls that timed out
    #: and cancelled their queued request.
    timeouts: int = 0
    #: per-request submit→result latency distribution, seconds — the
    #: shared :class:`~repro.obs.metrics.Histogram`, retaining the most
    #: recent :data:`LATENCY_WINDOW` raw samples so the percentile math
    #: is identical to the pre-histogram implementation.
    latency: Histogram = field(default_factory=_latency_histogram)
    #: wall-clock span from first submit to last completion, seconds.
    span_seconds: float = 0.0

    @property
    def latencies_s(self) -> deque:
        """Raw latency sample window (insertion order), seconds."""
        return self.latency.samples

    @property
    def mean_batch_size(self) -> float:
        """Average requests coalesced per scored micro-batch."""
        return self.requests / self.batches if self.batches else 0.0

    @property
    def requests_per_second(self) -> float:
        """Throughput over the serving span (first submit to last result)."""
        return self.requests / self.span_seconds if self.span_seconds > 0 else 0.0

    def latency_ms(self, percentile: float) -> float:
        """Request latency percentile in milliseconds (0 when idle)."""
        return self.latency.percentile(percentile) * 1e3

    @property
    def p50_latency_ms(self) -> float:
        """Median request latency in milliseconds."""
        return self.latency_ms(50.0)

    @property
    def p99_latency_ms(self) -> float:
        """99th-percentile request latency in milliseconds."""
        return self.latency_ms(99.0)

    def to_dict(self) -> dict:
        """Export every counter plus the latency histogram for the CLI."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "swaps": self.swaps,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "timeouts": self.timeouts,
            "mean_batch_size": self.mean_batch_size,
            "requests_per_second": self.requests_per_second,
            "p50_latency_ms": self.p50_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "span_seconds": self.span_seconds,
            "latency_histogram": self.latency.to_dict(),
        }


@dataclass(slots=True)
class _Request:
    row: np.ndarray
    future: Future
    submitted_at: float
    #: absolute deadline (perf_counter seconds) or None for no deadline.
    deadline: float | None
    #: model version the request was admitted against; only meaningful
    #: when ``tracked`` (the server enforces a per-model limit).
    version: int | None = None
    tracked: bool = False


def _check_count(name: str, value, optional: bool = True) -> None:
    """Reject a count that is not an integer >= 1 (``bool`` is never a count)."""
    if value is None and optional:
        return
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        unset = " or None" if optional else ""
        raise ConfigurationError(f"{name} must be an integer >= 1{unset}, got {value!r}")


def _check_deadline(value) -> None:
    """Reject a deadline that is not a positive, finite number of ms (or None)."""
    if value is not None and (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not 0 < value < math.inf  # False for NaN too
    ):
        raise ConfigurationError(
            f"deadline_ms must be a positive finite number or None, got {value!r}"
        )


class PredictionServer:
    """Coalesces concurrent point requests into micro-batches as they queue."""

    def __init__(
        self,
        engine: InferenceEngine,
        models: Mapping[str, np.ndarray],
        max_batch_size: int = 64,
        model_loader: Callable[[int | None], tuple] | None = None,
        model_version: int | None = None,
        max_queue_depth: int | None = None,
        deadline_ms: float | None = None,
        max_concurrent_per_model: int | None = None,
    ) -> None:
        """Build a server around one inference engine and one model.

        Args:
            engine: the (forward-only) inference engine scoring batches.
            models: the initial model parameter mapping.
            max_batch_size: most requests taken into one micro-batch.
            model_loader: optional registry-backed loader for
                :meth:`reload` hot-swaps; called with a version (or None
                for latest) and must return ``(models, entry)``.
            model_version: registry version of the initial model, if any.
            max_queue_depth: admission-control queue bound.  ``None``
                (the default) keeps the legacy behaviour — ``submit``
                blocks while two micro-batches are pending (one scoring,
                one queueing) until the scorer takes one; an integer makes
                ``submit`` shed instead, raising
                :class:`~repro.exceptions.ServerOverloadedError` the
                moment the queue holds this many requests.
            deadline_ms: default per-request deadline.  A queued request
                older than this when its micro-batch is scored fails with
                :class:`~repro.exceptions.DeadlineExceededError` instead
                of being scored late.  ``None`` disables deadlines.
            max_concurrent_per_model: most requests admitted but not yet
                resolved against one served model version; the excess is
                shed like a full queue.  ``None`` disables the limit.

        Raises:
            ConfigurationError: when ``max_batch_size``,
                ``max_queue_depth`` or ``max_concurrent_per_model`` is not
                an integer >= 1 (a ``bool`` is not), or ``deadline_ms`` is
                not a positive finite number.
        """
        _check_count("max_batch_size", max_batch_size, optional=False)
        _check_count("max_queue_depth", max_queue_depth)
        _check_deadline(deadline_ms)
        _check_count("max_concurrent_per_model", max_concurrent_per_model)
        self.engine = engine
        self.models = {
            name: np.asarray(value, dtype=np.float64) for name, value in models.items()
        }
        self._model_loader = model_loader
        #: registry version currently being served (None for in-memory
        #: model mappings that never came from the registry).
        self.model_version = model_version
        self.max_batch_size = max_batch_size
        self.max_queue_depth = max_queue_depth
        self.deadline_ms = deadline_ms
        self.max_concurrent_per_model = max_concurrent_per_model
        #: in-flight request count per served model version (admission
        #: bookkeeping for ``max_concurrent_per_model``).
        self._inflight: dict[int | None, int] = {}
        #: most requests pending at once: the admission bound, else two
        #: micro-batches (one being scored, one queueing).
        self._depth = max_queue_depth or 2 * max_batch_size
        #: everything below is guarded by ``_lock``; ``_wake`` is the one
        #: condition the scorer and blocked legacy submitters wait on.
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._pending: deque[_Request] = deque()
        self._stopping = False
        #: set by ``stop(drain=False)``: the scorer exits without draining
        #: and the leftovers are failed, not scored.
        self._abort = False
        #: the scorer is parked on an empty deque; only then does a submit
        #: notify it.
        self._idle = False
        self._thread: threading.Thread | None = None
        self.stats = ServingStats()
        self._first_submit: float | None = None
        #: span accumulated over previous start()/stop() lifetimes, so a
        #: restarted server's throughput excludes the stopped idle gap.
        self._span_base: float = 0.0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "PredictionServer":
        """Start (or restart) the scorer thread; returns ``self``."""
        with self._lock:
            if self._thread is not None:
                return self
            self._stopping = False  # a stopped server can be restarted
            if self._first_submit is not None:
                # Rebase the throughput clock: the stopped gap is not
                # serving time.
                self._span_base = self.stats.span_seconds
                self._first_submit = None
            self._thread = threading.Thread(
                target=self._serve, name="prediction-server", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the scorer thread, draining outstanding requests first.

        With ``drain=True`` (the default) every request whose
        :meth:`submit` returned before ``stop`` was called is scored:
        submissions are ordered against the stop flag by the server lock,
        so the scorer cannot observe an empty queue and exit while a
        submitted request is still in flight.  ``drain=False`` exits the
        scorer at the next batch boundary instead; anything still queued
        fails with :class:`~repro.exceptions.ServingError` rather than
        being scored — no caller is ever left hanging either way.  The
        stop wakes an idle scorer (and any blocked submitter) at once.

        Args:
            drain: score the queued backlog before exiting (default) or
                fail it fast.
        """
        with self._lock:
            if self._thread is None:
                return
            if not drain:
                self._abort = True
            self._stopping = True
            self._wake.notify_all()
            thread = self._thread
        thread.join()
        with self._lock:
            self._thread = None
            self._abort = False
        # Backstop: fail anything still queued rather than strand it (the
        # scorer's own exit hook already drained in every ordinary path).
        self._fail_queued("the prediction server was stopped")

    def __enter__(self) -> "PredictionServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # model hot-swap
    # ------------------------------------------------------------------ #
    def swap_models(
        self, models: Mapping[str, np.ndarray], version: int | None = None
    ) -> None:
        """Atomically replace the served model between micro-batches.

        The scorer thread snapshots the model mapping once per micro-batch,
        so a micro-batch already in flight when the swap lands drains on
        the **old** model, and every later batch scores with the new one —
        bit-identical to stopping the server and cold-starting it on the
        new model (same engine, same tape, same parameters).

        Args:
            models: the replacement model parameter mapping (non-empty).
            version: registry version tag recorded as
                :attr:`model_version` (``None`` for in-memory swaps).

        Raises:
            ConfigurationError: when ``models`` is empty or not a mapping.
        """
        if not isinstance(models, Mapping) or not models:
            raise ConfigurationError(
                f"swap_models expects a non-empty model mapping, got {models!r}"
            )
        converted = {
            name: np.asarray(value, dtype=np.float64)
            for name, value in models.items()
        }
        with self._lock:
            self.models = converted
            self.model_version = version
            self.stats.swaps += 1

    def reload(self, version: int | None = None):
        """Hot-swap to a registry version of this server's model.

        Args:
            version: the saved version to serve (``None`` = latest).

        Returns:
            The :class:`~repro.rdbms.catalog.ModelEntry` now being served.

        Raises:
            ConfigurationError: when the server was built from an
                in-memory model mapping (no registry to reload from), or
                when the requested version does not exist.
        """
        if self._model_loader is None:
            raise ConfigurationError(
                "this server was built from an in-memory model mapping; "
                "registry hot-swap needs a server created with model_name="
            )
        models, entry = self._model_loader(version)
        self.swap_models(models, version=entry.version if entry else None)
        return entry

    # ------------------------------------------------------------------ #
    # request API
    # ------------------------------------------------------------------ #
    def submit(self, row: np.ndarray, deadline_ms: float | None = None) -> Future:
        """Enqueue one point request; returns a future for its prediction.

        Args:
            row: one feature row (1-D).
            deadline_ms: per-request deadline overriding the server-wide
                ``deadline_ms`` (``None`` inherits the server default).

        Returns:
            A future resolving to the prediction — or to
            :class:`~repro.exceptions.DeadlineExceededError` when the
            request outlives its deadline in the queue.

        Raises:
            ConfigurationError: when the server is not running, the row
                is not 1-D, or ``deadline_ms`` is not a positive finite
                number.
            ServerOverloadedError: when admission control is on
                (``max_queue_depth`` / ``max_concurrent_per_model``) and
                the request was shed instead of queued.
        """
        row = np.asarray(row, dtype=np.float64)
        if row.ndim != 1:
            raise ConfigurationError(
                f"submit expects one feature row (1-D), got shape {row.shape}"
            )
        _check_deadline(deadline_ms)
        now = time.perf_counter()
        limit_ms = deadline_ms if deadline_ms is not None else self.deadline_ms
        deadline = (now + float(limit_ms) / 1e3) if limit_ms is not None else None
        request = _Request(row, Future(), now, deadline)
        # The liveness check and the append happen under one lock hold
        # (stop() raises the flag under the same lock), so a successfully
        # submitted request is always still visible to the scorer's
        # stop-and-empty exit check — no request can be stranded.  A full
        # deque sheds (admission control on) or waits on the condition
        # until the scorer takes a batch (legacy blocking mode).
        with self._lock:
            while True:
                if self._thread is None or self._stopping:
                    raise ConfigurationError(
                        "the prediction server is not running; call start() first"
                    )
                limit = self.max_concurrent_per_model
                if (
                    limit is not None
                    and self._inflight.get(self.model_version, 0) >= limit
                ):
                    self.stats.shed += 1
                    raise ServerOverloadedError(
                        f"model version {self.model_version!r} already has "
                        f"{limit} request(s) in flight; request shed"
                    )
                if len(self._pending) < self._depth:
                    break
                if self.max_queue_depth is not None:
                    self.stats.shed += 1
                    raise ServerOverloadedError(
                        f"request queue is full "
                        f"({self.max_queue_depth} deep); request shed"
                    )
                self._wake.wait()
            if limit is not None:
                request.tracked, request.version = True, self.model_version
                self._inflight[request.version] = self._inflight.get(request.version, 0) + 1
            if self._first_submit is None:
                self._first_submit = request.submitted_at
            self._pending.append(request)
            if self._idle:
                self._wake.notify_all()
        return request.future

    def predict(
        self,
        row: np.ndarray,
        timeout: float | None = 30.0,
        deadline_ms: float | None = None,
    ) -> float:
        """Synchronous convenience wrapper around :meth:`submit`.

        Args:
            row: one feature row (1-D).
            timeout: seconds to wait for the prediction; on expiry the
                request is cancelled (not scored, unless the scorer already
                took its batch), the timeout is counted in
                :attr:`ServingStats.timeouts`, and
                :class:`~repro.exceptions.DeadlineExceededError` is
                raised.  ``None`` waits forever.
            deadline_ms: per-request deadline passed to :meth:`submit`.

        Returns:
            The scalar prediction for ``row``.

        Raises:
            DeadlineExceededError: when the wait timed out or the queued
                request outlived its ``deadline_ms``.
            ServerOverloadedError: when the request was shed at admission.
        """
        future = self.submit(row, deadline_ms=deadline_ms)
        try:
            return float(future.result(timeout=timeout))
        except FutureTimeoutError:
            future.cancel()
            with self._lock:
                self.stats.timeouts += 1
            raise DeadlineExceededError(
                f"prediction was not ready within timeout={timeout} s; "
                "the queued request was cancelled"
            ) from None

    # ------------------------------------------------------------------ #
    # scorer thread
    # ------------------------------------------------------------------ #
    def _serve(self) -> None:
        try:
            while (taken := self._take()) is not None:
                self._score_batch(*taken)
        finally:
            # Whatever killed or stopped the scorer, nothing queued may be
            # stranded: fail the leftovers so every caller unblocks, and
            # refuse new submissions (start() after stop() re-arms).
            with self._lock:
                self._stopping = True
                self._wake.notify_all()
            self._fail_queued("the prediction server stopped before scoring")

    def _take(self) -> tuple[list[_Request], dict[str, np.ndarray]] | None:
        """Take whatever is pending, oldest first, in one lock hold.

        Waits (untimed) only while nothing is pending.  Returns the batch
        with the model it scores on — snapshotted in the same lock hold, so
        a concurrent hot-swap takes effect at the next batch boundary, never
        mid-batch — or ``None`` when the scorer exits.
        """
        with self._lock:
            self._idle = True
            self._wake.wait_for(lambda: self._pending or self._stopping)
            self._idle = False
            if self._abort or not self._pending:
                return None
            pop = self._pending.popleft
            batch = [pop() for _ in range(min(len(self._pending), self.max_batch_size))]
            self._wake.notify_all()  # room again for blocked legacy submitters
            return batch, self.models

    def _score_batch(self, batch: list[_Request], models: Mapping[str, np.ndarray]) -> None:
        now = time.perf_counter()
        live: list[_Request] = []
        expired: list[_Request] = []
        for request in batch:
            # The future's one move out of PENDING: a request its caller
            # cancelled drops out here and is never scored.
            if not request.future.set_running_or_notify_cancel():
                continue
            if request.deadline is not None and now > request.deadline:
                expired.append(request)
            else:
                live.append(request)
        obs = telemetry() if live else None
        if obs is not None:
            # Queue delay: submit → micro-batch assembly, per live request.
            obs.metrics.histogram(
                "serving.server.queue", buckets=LATENCY_BUCKETS_S
            ).observe_many([now - request.submitted_at for request in live])
            span = obs.span("serving.server.batch", requests=len(live))
        outcomes = self._predict(live, models) if live else []
        if obs is not None:
            obs.finish(span)
        done = time.perf_counter()
        latencies = [
            done - request.submitted_at
            for request, outcome in zip(live, outcomes)
            if not isinstance(outcome, Exception)
        ]
        with self._lock:
            self._release(batch)
            self.stats.deadline_exceeded += len(expired)
            if latencies:
                self.stats.batches += 1
                self.stats.requests += len(latencies)
                if self._first_submit is not None:
                    self.stats.span_seconds = self._span_base + done - self._first_submit
        for request in expired:
            request.future.set_exception(
                DeadlineExceededError(
                    "request spent longer than its deadline in the "
                    "serving queue; it was failed, not scored late"
                )
            )
        for request, outcome in zip(live, outcomes):
            if isinstance(outcome, Exception):
                request.future.set_exception(outcome)
            else:
                request.future.set_result(outcome)
        # After delivery: recording delays no caller of this batch.
        self.stats.latency.observe_many(latencies)

    def _predict(self, live: list[_Request], models: Mapping[str, np.ndarray]) -> list:
        """One outcome per request: its prediction, or what scoring it raised.

        The batch is stacked and scored in one call (a lone request as a
        one-row view, with no stacking).  If that raises, each request is
        re-scored alone — the forward tape is row-independent, so the
        others' predictions are bit-identical — and only the requests that
        raise on their own fail.
        """
        def score(rows: np.ndarray) -> np.ndarray:
            return self.engine.score(rows, models, batch_size=len(rows))

        try:
            rows = (
                live[0].row[None, :]
                if len(live) == 1
                else np.stack([request.row for request in live])
            )
            return list(score(rows))
        except Exception as error:  # noqa: BLE001 - forwarded to callers
            if len(live) == 1:
                return [error]
        outcomes: list = []
        for request in live:
            try:
                outcomes.append(score(request.row[None, :])[0])
            except Exception as error:  # noqa: BLE001 - forwarded to callers
                outcomes.append(error)
        return outcomes

    # ------------------------------------------------------------------ #
    # admission bookkeeping
    # ------------------------------------------------------------------ #
    def _release(self, requests: list[_Request]) -> None:
        """Return resolved requests' per-model slots; the caller holds the lock."""
        for request in requests:
            if request.tracked:
                count = self._inflight.get(request.version, 0) - 1
                if count > 0:
                    self._inflight[request.version] = count
                else:
                    self._inflight.pop(request.version, None)

    def _fail_queued(self, reason: str) -> None:
        """Fail every still-pending request so no caller blocks forever."""
        with self._lock:
            leftovers = list(self._pending)
            self._pending.clear()
            self._release(leftovers)
        for request in leftovers:
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(ServingError(reason))
