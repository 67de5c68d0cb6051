"""Deterministic, seeded fault injection for the simulated runtime.

A :class:`FaultPlan` is a declarative schedule of faults keyed by **named
injection sites** — fixed strings compiled into the subsystems (the bulk
Strider page walk, each page a :class:`~repro.runtime.BatchSource` delivers,
:class:`~repro.cluster.segment_worker.SegmentWorker` epochs, and the two
scoring paths).  Each entry says *"on the k-th call at this site, raise a
:class:`~repro.exceptions.TransientError` (or sleep)"*, so a chaos run is
exactly reproducible: the same plan against the same workload fires the
same faults at the same points, every time.

Injection is **off by default with zero hot-loop cost**: every site is a
single ``if _ACTIVE is not None`` check on a module global (sites fire per
page batch / chunk / epoch / micro-batch, never per tuple).  Tests arm a
plan for one ``with inject_faults(plan):`` block; nothing else in the
process observes it afterwards.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from repro.exceptions import ConfigurationError, TransientError

#: the named injection sites compiled into the runtime.  A plan may only
#: schedule faults at these points.
FAULT_SITES = (
    "hw.strider.page_walk",
    "runtime.batch_source.producer",
    "cluster.segment_worker.epoch",
    "serving.scorer.segment",
    "serving.inference.score",
    # Fired twice per WAL append: once *before* the record becomes durable
    # (a crash here loses the record) and once *after* durability but
    # *before* the heap apply (a crash here is recovered by replay).  The
    # double fire is what lets tests/test_wal_recovery.py kill the writer
    # at every WAL-record boundary.
    "rdbms.wal.append",
)

#: fault kinds a plan entry may request at its site.  ``"exit"`` terminates
#: the evaluating *process* without cleanup (``os._exit``) — only
#: meaningful inside a worker process of the ``execution="processes"``
#: strategy, where the parent observes the death as a
#: :class:`~repro.exceptions.TransientError` and respawns the worker.
FAULT_KINDS = ("error", "latency", "exit")

#: process exit code used by ``kind="exit"`` faults (distinct from crashes).
FAULT_EXIT_CODE = 23


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: *at this site, on the k-th call, do this*."""

    #: the named injection site (one of :data:`FAULT_SITES`).
    site: str
    #: 1-based call index at ``site`` on which the fault fires.
    call: int
    #: ``"error"`` raises a :class:`~repro.exceptions.TransientError`;
    #: ``"latency"`` sleeps for :attr:`latency_s` and continues.
    kind: str = "error"
    #: injected delay in seconds (``kind="latency"`` only).
    latency_s: float = 0.0

    def validate(self) -> None:
        """Fail fast on a malformed fault entry."""
        if self.site not in FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; expected one of {FAULT_SITES}"
            )
        if not isinstance(self.call, int) or self.call < 1:
            raise ConfigurationError(
                f"fault call index must be an integer >= 1, got {self.call!r}"
            )
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.latency_s < 0:
            raise ConfigurationError(
                f"fault latency must be >= 0 seconds, got {self.latency_s!r}"
            )


class FaultPlan:
    """A validated, immutable schedule of :class:`FaultSpec` entries."""

    def __init__(self, faults: list[FaultSpec] | tuple[FaultSpec, ...] = ()) -> None:
        """Validate the entries and index them by (site, call).

        Raises:
            ConfigurationError: on an unknown site/kind, a non-positive
                call index, or two faults scheduled for the same call.
        """
        specs = tuple(faults)
        for spec in specs:
            spec.validate()
        index: dict[tuple[str, int], FaultSpec] = {}
        for spec in specs:
            key = (spec.site, spec.call)
            if key in index:
                raise ConfigurationError(
                    f"duplicate fault scheduled for call {spec.call} at {spec.site!r}"
                )
            index[key] = spec
        self.faults = specs
        self._index = index

    @classmethod
    def transient(cls, *sites_and_calls: tuple[str, int]) -> "FaultPlan":
        """Shorthand for a plan of one transient error per (site, call)."""
        return cls([FaultSpec(site=s, call=c) for s, c in sites_and_calls])

    def lookup(self, site: str, call: int) -> FaultSpec | None:
        """The fault scheduled for this exact call at ``site``, if any."""
        return self._index.get((site, call))

    def without_kind(self, kind: str) -> "FaultPlan":
        """A copy of the plan with every ``kind`` entry removed.

        Used when respawning a killed worker process: the death already
        happened, so the respawned worker's plan drops the ``"exit"``
        entries (a one-shot crash, not a crash loop).
        """
        return FaultPlan([spec for spec in self.faults if spec.kind != kind])


@dataclass
class FaultLogEntry:
    """One fault the injector actually fired (for test assertions)."""

    site: str
    call: int
    kind: str


class FaultInjector:
    """Counts calls per site and fires the plan's faults deterministically.

    Thread-safe: sites fire from segment-worker pool threads and the
    serving scorer thread concurrently; the per-site call
    counters are kept under one lock so the k-th call is well defined
    process-wide.
    """

    def __init__(self, plan: FaultPlan, offsets: dict[str, int] | None = None) -> None:
        """Arm ``plan``; ``offsets`` pre-advances per-site call counters.

        Offsets let a respawned worker process resume counting where the
        previous incarnation left off, so a plan's later faults keep their
        deterministic positions across a process death.
        """
        self.plan = plan
        self.calls: dict[str, int] = {site: 0 for site in FAULT_SITES}
        if offsets:
            for site, count in offsets.items():
                self.calls[site] = int(count)
        #: every fault actually fired, in firing order.
        self.fired: list[FaultLogEntry] = []
        self._lock = threading.Lock()

    def fire(self, site: str) -> None:
        """Record one call at ``site`` and fire its scheduled fault, if any."""
        with self._lock:
            call = self.calls.get(site, 0) + 1
            self.calls[site] = call
            spec = self.plan.lookup(site, call)
            if spec is not None:
                self.fired.append(FaultLogEntry(site=site, call=call, kind=spec.kind))
        if spec is None:
            return
        if spec.kind == "latency":
            time.sleep(spec.latency_s)
            return
        if spec.kind == "exit":
            # Die like a real worker crash: no cleanup, no exception
            # propagation.  The parent sees the broken pipe.
            os._exit(FAULT_EXIT_CODE)
        raise TransientError(
            f"injected fault at {site!r} (call {call} of the fault plan)"
        )


#: the armed injector; ``None`` (the default) means every site is a single
#: is-None check and nothing else.
_ACTIVE: FaultInjector | None = None
_ARM_LOCK = threading.Lock()


def active_injector() -> FaultInjector | None:
    """The armed injector, or ``None`` when no chaos run is active.

    Observability consumers (the run recorder) use this to snapshot the
    fired-fault log around one train/score invocation without taking any
    dependency on how the plan was armed.
    """
    return _ACTIVE


def faults_armed() -> bool:
    """True while a :class:`FaultPlan` is armed.

    For a site that fires once per element of a batch it already holds (the
    producer's per-page site): the per-element loop runs only when a fault
    could fire, and no plan means one check per batch instead of one per
    element.
    """
    return _ACTIVE is not None


def fault_point(site: str) -> None:
    """Injection site hook: fires the armed injector's fault, if any.

    This is the only call compiled into the subsystems.  With no plan
    armed it is one global load and an ``is None`` test.
    """
    injector = _ACTIVE
    if injector is not None:
        injector.fire(site)


class inject_faults:
    """Context manager arming a :class:`FaultPlan` for one chaos run.

    Yields the :class:`FaultInjector` so tests can assert on
    :attr:`FaultInjector.fired`.  Arming is exclusive: nesting a second
    plan raises, so two chaos tests cannot silently interleave faults.
    """

    def __init__(self, plan: FaultPlan, offsets: dict[str, int] | None = None) -> None:
        self.plan = plan
        self.offsets = offsets
        self.injector: FaultInjector | None = None

    def __enter__(self) -> FaultInjector:
        global _ACTIVE
        with _ARM_LOCK:
            if _ACTIVE is not None:
                raise ConfigurationError(
                    "a fault plan is already armed; chaos runs cannot nest"
                )
            self.injector = FaultInjector(self.plan, offsets=self.offsets)
            _ACTIVE = self.injector
        return self.injector

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE
        with _ARM_LOCK:
            _ACTIVE = None
