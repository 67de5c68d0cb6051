"""Runtime breakdowns and comparison helpers shared by every system model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class RuntimeBreakdown:
    """End-to-end runtime of one system on one workload, split by phase.

    All values are seconds.  ``io`` is time spent reading training pages
    from storage, ``data_movement`` is time moving/transforming data between
    the storage engine and the compute substrate (AXI transfers, data
    export, CPU tuple extraction), ``compute`` is the analytics computation
    itself, and ``overhead`` covers per-query fixed costs.
    """

    system: str
    workload: str
    io: float = 0.0
    data_movement: float = 0.0
    compute: float = 0.0
    overhead: float = 0.0
    detail: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        """End-to-end seconds: I/O + data movement + compute + overhead."""
        return self.io + self.data_movement + self.compute + self.overhead

    def speedup_over(self, baseline: "RuntimeBreakdown") -> float:
        """How many times faster this system is than ``baseline``."""
        if self.total <= 0:
            return math.inf
        return baseline.total / self.total

    def as_dict(self) -> dict:
        """JSON-friendly row for benchmark reports."""
        return {
            "system": self.system,
            "workload": self.workload,
            "io_s": self.io,
            "data_movement_s": self.data_movement,
            "compute_s": self.compute,
            "overhead_s": self.overhead,
            "total_s": self.total,
        }


def geomean(values: Iterable[float]) -> float:
    """Geometric mean, the aggregation used by every figure in the paper."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_seconds(seconds: float) -> str:
    """Human-readable runtime, in the style of the paper's Table 5."""
    if seconds < 60:
        whole = int(seconds)
        millis = int(round((seconds - whole) * 1000))
        return f"{whole}s {millis}ms"
    if seconds < 3600:
        minutes = int(seconds // 60)
        secs = int(round(seconds - minutes * 60))
        return f"{minutes}m {secs}s"
    hours = int(seconds // 3600)
    minutes = int((seconds - hours * 3600) // 60)
    secs = int(round(seconds - hours * 3600 - minutes * 60))
    return f"{hours}h {minutes}m {secs}s"
