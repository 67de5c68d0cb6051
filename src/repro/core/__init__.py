"""DAnA core: system facade and end-to-end workload runner."""

from repro.core.dana import DAnA, RefreshResult, RegisteredUDF
from repro.core.plan import ScorePlan, TrainPlan
from repro.core.runner import SystemRun, WorkloadComparison, WorkloadRunner

__all__ = [
    "DAnA",
    "RefreshResult",
    "RegisteredUDF",
    "ScorePlan",
    "SystemRun",
    "TrainPlan",
    "WorkloadComparison",
    "WorkloadRunner",
]
