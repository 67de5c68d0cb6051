"""Bounded retry with exponential backoff, seeded jitter and a deadline.

:class:`RetryPolicy` owns the one piece of retry bookkeeping every
recoverable path shares: a :class:`RetryBudget` counts attempts, books
faults, sleeps the backoff and enforces the deadline.
:meth:`RetryPolicy.run` — the loop around segment training windows and
per-segment scan-and-score — and the :class:`~repro.runtime.BatchSource`
stream restart (whose "attempt" is one walk of the chunk stream, resumed
by whichever pull faulted, so it cannot be a ``run`` callback) both draw
on a budget, so they give up on the same
conditions with the same errors.  The policy retries only
:class:`~repro.exceptions.TransientError` (any other exception is a real
bug and propagates immediately), sleeps an exponentially growing backoff
with **seeded** jitter (so a chaos run's sleep schedule is reproducible,
matching the repo's determinism discipline), and gives up by raising
:class:`~repro.exceptions.RetryExhaustedError` once attempts or the
deadline run out.

Determinism under retry is the caller's contract: every attempt must
start from a clean slate (fresh accelerator/engine, restored RNG state,
reset counters), so the *successful* attempt is bit-identical to a
fault-free run.  :meth:`RetryPolicy.run` takes a ``reset`` callback and
invokes it before each re-attempt to make that contract explicit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

from repro.exceptions import ConfigurationError, RetryExhaustedError, TransientError

T = TypeVar("T")

#: degradation modes a retry-driven run may request once attempts run out.
DEGRADATION_MODES = ("fail", "redistribute")


@dataclass
class RetryStats:
    """Counters for one retry-supervised run (merged into run results)."""

    #: total attempts across all supervised calls (>= calls on success).
    attempts: int = 0
    #: re-attempts after a transient fault (0 on a fault-free run).
    retries: int = 0
    #: transient faults observed (== retries unless attempts exhausted).
    faults: int = 0
    #: work units permanently failed and redistributed to survivors.
    redistributed: int = 0

    def merge(self, other: "RetryStats") -> None:
        """Accumulate another run's counters into this one."""
        self.attempts += other.attempts
        self.retries += other.retries
        self.faults += other.faults
        self.redistributed += other.redistributed


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative retry configuration (validated fail-fast)."""

    #: most attempts per supervised call (1 = no retry).
    max_attempts: int = 3
    #: backoff before the first re-attempt, seconds (grows by
    #: :attr:`multiplier` each further attempt).  The simulated runtime
    #: defaults to 0 so chaos tests never actually sleep.
    backoff_s: float = 0.0
    #: exponential backoff growth factor.
    multiplier: float = 2.0
    #: jitter fraction: each sleep is scaled by ``1 + U(0, jitter)`` drawn
    #: from a generator seeded with :attr:`seed` (deterministic schedule).
    jitter: float = 0.0
    #: wall-clock budget across all attempts, seconds (``None`` = none).
    deadline_s: float | None = None
    #: jitter RNG seed.
    seed: int = 0
    #: what a driver should do with a permanently-failed work unit:
    #: ``"fail"`` raises; ``"redistribute"`` reassigns its pages to the
    #: surviving segments (scan-and-score only).
    degradation: str = "fail"

    def __post_init__(self) -> None:
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be an integer >= 1, got {self.max_attempts!r}"
            )
        if self.backoff_s < 0:
            raise ConfigurationError(
                f"backoff_s must be >= 0, got {self.backoff_s!r}"
            )
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier!r}"
            )
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {self.jitter!r}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError(
                f"deadline_s must be positive (or None), got {self.deadline_s!r}"
            )
        if self.degradation not in DEGRADATION_MODES:
            raise ConfigurationError(
                f"unknown degradation mode {self.degradation!r}; "
                f"expected one of {DEGRADATION_MODES}"
            )

    def sleeps(self) -> "_SleepSchedule":
        """The seeded backoff schedule for one supervised call."""
        return _SleepSchedule(self)

    def run(
        self,
        fn: Callable[[], T],
        stats: RetryStats | None = None,
        reset: Callable[[], None] | None = None,
        label: str = "operation",
    ) -> T:
        """Call ``fn`` until it succeeds, retrying transient faults.

        Args:
            fn: the work; each invocation must be a full, clean attempt.
            stats: counters to book attempts/retries/faults into.
            reset: called before every re-attempt to restore pre-attempt
                state (counters, RNG, sources) so the successful attempt
                is bit-identical to a fault-free run.
            label: human-readable name used in the exhaustion error.

        Returns:
            ``fn()``'s result from the first successful attempt.

        Raises:
            RetryExhaustedError: when every permitted attempt raised a
                :class:`~repro.exceptions.TransientError`, or the deadline
                expired; chains the last transient fault.
        """
        budget = self.budget(stats, label)
        while True:
            if budget.attempt and reset is not None:
                reset()
            budget.begin()
            try:
                return fn()
            except TransientError as error:
                budget.failed(error)

    def budget(
        self, stats: RetryStats | None = None, label: str = "operation"
    ) -> "RetryBudget":
        """Fresh attempt/deadline bookkeeping for one supervised call."""
        return RetryBudget(self, stats if stats is not None else RetryStats(), label)


class RetryBudget:
    """Attempts, backoff and deadline of one supervised call.

    The deadline clock starts when the budget is created.  Usage is
    ``begin()`` before every attempt and ``failed(error)`` after one that
    raised a transient fault: ``failed`` either returns (another attempt
    is allowed; the backoff has been slept) or raises
    :class:`~repro.exceptions.RetryExhaustedError` chaining the fault.
    """

    def __init__(self, policy: RetryPolicy, stats: RetryStats, label: str) -> None:
        self.policy = policy
        self.stats = stats
        self.label = label
        #: attempts begun so far (1-based index of the current attempt).
        self.attempt = 0
        self._schedule = policy.sleeps()
        self._started = time.monotonic()

    def begin(self) -> None:
        """Book the start of one attempt."""
        self.attempt += 1
        self.stats.attempts += 1

    def failed(self, error: TransientError) -> None:
        """Book a transient fault; sleep the backoff or give up."""
        policy = self.policy
        self.stats.faults += 1
        if self.attempt >= policy.max_attempts:
            raise RetryExhaustedError(
                f"{self.label} failed on all {policy.max_attempts} attempt(s)"
            ) from error
        if (
            policy.deadline_s is not None
            and time.monotonic() - self._started >= policy.deadline_s
        ):
            raise RetryExhaustedError(
                f"{self.label} missed its {policy.deadline_s}s retry deadline "
                f"after {self.attempt} attempt(s)"
            ) from error
        self.stats.retries += 1
        self._schedule.sleep(self.attempt)


@dataclass
class _SleepSchedule:
    """Seeded backoff sequence for one supervised call."""

    policy: RetryPolicy
    _rng: np.random.Generator = field(init=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.policy.seed)

    def sleep(self, attempt: int) -> None:
        """Sleep the backoff for the given (1-based) failed attempt."""
        base = self.policy.backoff_s * (self.policy.multiplier ** (attempt - 1))
        if self.policy.jitter:
            base *= 1.0 + float(self._rng.uniform(0.0, self.policy.jitter))
        if base > 0:
            time.sleep(base)
