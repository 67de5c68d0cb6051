"""Fault-tolerant runtime: deterministic fault injection + bounded retry.

The reliability layer extends the repo's oracle discipline to failures:
because every subsystem is deterministic, a run that retries (or
redistributes pages) after an injected transient fault must produce
**bit-identical** models, predictions and schedule-derived counters to
the fault-free run.  :mod:`repro.reliability.faults` provides the seeded
:class:`FaultPlan`/:class:`FaultInjector` pair with named injection sites
compiled into the Strider page walk, the
:class:`~repro.runtime.BatchSource` pull, segment-worker epochs and
both scoring paths; :mod:`repro.reliability.retry` provides the
:class:`RetryPolicy` those paths recover with.
"""

from repro.reliability.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultInjector,
    FaultLogEntry,
    FaultPlan,
    FaultSpec,
    fault_point,
    inject_faults,
)
from repro.reliability.retry import DEGRADATION_MODES, RetryPolicy, RetryStats

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "DEGRADATION_MODES",
    "FaultInjector",
    "FaultLogEntry",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "RetryStats",
    "fault_point",
    "inject_faults",
]
