"""Metric primitives and the process-wide metrics registry.

Three metric shapes cover every instrumentation site in the stack:

* :class:`Counter` — a monotonic count (requests served, batches scored);
* :class:`Gauge` — a last-written value (queue depth, active segments);
* :class:`Histogram` — a fixed-bucket distribution of observations, with
  an optional bounded raw-sample window so percentiles stay *exact* over
  the most recent ``window`` observations (this is what lets
  :class:`~repro.serving.microbatch.ServingStats` keep its historical
  p50/p99 semantics while moving onto the shared histogram).

All metrics are thread-safe: the serving scorer thread, request threads
and segment-pool threads all observe into the same registry.  Everything here is *observational* — wall-clock numbers
never feed back into the schedule-derived cycle counters, so a
telemetry-on run stays bit-identical to a telemetry-off run.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

#: the named histogram instrumentation sites compiled into the stack.
#: High-frequency *wait* sites (one observation per request) record into
#: shared histograms instead of emitting a span per event — a span object
#: per request would dominate the armed cost of the serving path.
HISTOGRAM_SITES = (
    "serving.server.queue",
    "serving.server.latency",
)

#: default bucket upper bounds (seconds) for duration histograms — spans
#: in this stack range from sub-millisecond micro-batches to multi-second
#: training runs.
DEFAULT_SECONDS_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Counter:
    """A monotonic counter; :meth:`add` only accepts non-negative deltas."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def add(self, amount: float = 1.0) -> None:
        """Increment by ``amount`` (must be >= 0; counters never go down)."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot be decremented (got {amount!r})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current count."""
        return self._value

    def to_dict(self) -> dict:
        """Export as ``{"type", "value"}`` for JSON snapshots."""
        return {"type": "counter", "value": self._value}


class Gauge:
    """A last-written value (no history, no direction constraint)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        """The most recently written value (0.0 before any write)."""
        return self._value

    def to_dict(self) -> dict:
        """Export as ``{"type", "value"}`` for JSON snapshots."""
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Fixed-bucket histogram with an optional exact-percentile window.

    ``buckets`` are strictly-increasing upper bounds; one implicit
    overflow bucket catches everything above the last bound.  When
    ``window`` is set, the most recent ``window`` raw observations are
    also retained in a bounded deque and :meth:`percentile` computes the
    *exact* ``np.percentile`` over them — the same math (and the same
    65536-sample window) ``ServingStats`` used before the refactor.
    Without a window, percentiles are estimated by linear interpolation
    inside the bucket that contains the requested rank.
    """

    __slots__ = (
        "name",
        "buckets",
        "bucket_counts",
        "count",
        "sum",
        "min",
        "max",
        "samples",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
        window: int | None = None,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError(f"histogram {name!r} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be strictly increasing, got {bounds}"
            )
        if window is not None and window < 1:
            raise ConfigurationError(
                f"histogram {name!r} sample window must be >= 1, got {window!r}"
            )
        self.name = name
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: deque[float] | None = (
            deque(maxlen=window) if window is not None else None
        )
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        # bisect, not np.searchsorted: the bucket list is tiny and this
        # runs per chunk / per request on armed hot paths, where the numpy
        # call overhead alone would dominate the observation cost.
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if self.samples is not None:
                self.samples.append(value)

    def observe_many(self, values: Iterable[float]) -> None:
        """Record every observation in ``values`` (one lock acquisition).

        Bucketing is vectorized, so instrumentation sites that buffer
        observations locally (the batch-source wait sites) can flush a
        few hundred of them for the cost of a couple of ``observe`` calls.
        A one-value list takes :meth:`observe`'s ``bisect`` instead — same
        bucket, same moments, without the NumPy call overhead.
        """
        if isinstance(values, (list, tuple)) and len(values) == 1:
            self.observe(values[0])
            return
        batch = np.asarray(
            values if isinstance(values, (list, tuple)) else list(values),
            dtype=np.float64,
        )
        if batch.size == 0:
            return
        indices = np.searchsorted(self.buckets, batch, side="left")
        increments = np.bincount(indices, minlength=len(self.bucket_counts))
        with self._lock:
            for index, increment in enumerate(increments):
                if increment:
                    self.bucket_counts[index] += int(increment)
            self.count += int(batch.size)
            self.sum += float(batch.sum())
            low, high = float(batch.min()), float(batch.max())
            if low < self.min:
                self.min = low
            if high > self.max:
                self.max = high
            if self.samples is not None:
                self.samples.extend(batch.tolist())

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, percentile: float) -> float:
        """The ``percentile``-th percentile of the observations.

        Exact (``np.percentile``) over the retained sample window when one
        is configured; otherwise linearly interpolated within the owning
        bucket.  Returns 0.0 when nothing has been observed.
        """
        with self._lock:
            if self.count == 0:
                return 0.0
            if self.samples is not None:
                window = np.fromiter(self.samples, dtype=np.float64)
                return float(np.percentile(window, percentile))
            return self._estimate_locked(percentile)

    def _estimate_locked(self, percentile: float) -> float:
        rank = (percentile / 100.0) * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                lower = self.buckets[index - 1] if index > 0 else min(self.min, 0.0)
                upper = (
                    self.buckets[index]
                    if index < len(self.buckets)
                    else max(self.max, self.buckets[-1])
                )
                fraction = (rank - previous) / bucket_count if bucket_count else 0.0
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self.max if self.count else 0.0

    def to_dict(self) -> dict:
        """Export counts, moments and bucket occupancy for JSON snapshots."""
        with self._lock:
            return {
                "type": "histogram",
                "count": self.count,
                "sum": self.sum,
                "mean": self.sum / self.count if self.count else 0.0,
                "min": self.min if self.count else 0.0,
                "max": self.max if self.count else 0.0,
                "buckets": list(self.buckets),
                "bucket_counts": list(self.bucket_counts),
            }


class MetricsRegistry:
    """Get-or-create registry of named metrics for one telemetry session.

    A name is permanently bound to the first metric type created under it;
    asking for the same name as a different type raises, which catches
    site typos early.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name, kind, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise ConfigurationError(
                    f"metric {name!r} is already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        """The monotonic counter registered under ``name`` (creating it)."""
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (creating it)."""
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
        window: int | None = None,
    ) -> Histogram:
        """The histogram registered under ``name`` (creating it).

        ``buckets``/``window`` only apply on first creation; later lookups
        return the existing histogram unchanged.
        """
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, buckets=buckets, window=window)
        )

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        with self._lock:
            return sorted(self._metrics)

    def absorb(self, snapshot: dict) -> None:
        """Merge another registry's :meth:`snapshot` into this one.

        Counters add their value, gauges take the snapshot's last-written
        value, histograms merge bucket occupancy and moments (the exact
        raw-sample window is not carried across — percentiles over absorbed
        data fall back to bucket interpolation).  Used to fold a worker
        *process*'s per-window telemetry into the parent session.
        """
        for name, data in snapshot.items():
            kind = data.get("type")
            if kind == "counter":
                self.counter(name).add(float(data.get("value", 0.0)))
            elif kind == "gauge":
                self.gauge(name).set(float(data.get("value", 0.0)))
            elif kind == "histogram":
                histogram = self.histogram(name, buckets=data["buckets"])
                if tuple(data["buckets"]) != histogram.buckets:
                    raise ConfigurationError(
                        f"histogram {name!r} bucket bounds differ between "
                        "sessions; cannot absorb"
                    )
                count = int(data.get("count", 0))
                if count == 0:
                    continue
                with histogram._lock:
                    for index, increment in enumerate(data["bucket_counts"]):
                        histogram.bucket_counts[index] += int(increment)
                    histogram.count += count
                    histogram.sum += float(data.get("sum", 0.0))
                    histogram.min = min(histogram.min, float(data["min"]))
                    histogram.max = max(histogram.max, float(data["max"]))
            else:
                raise ConfigurationError(
                    f"cannot absorb metric {name!r} of unknown type {kind!r}"
                )

    def snapshot(self) -> dict:
        """Export every metric as ``{name: metric.to_dict()}``."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metric.to_dict() for name, metric in sorted(metrics.items())}
