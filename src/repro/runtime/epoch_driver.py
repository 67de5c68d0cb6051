"""The shared pipelined epoch loop behind every DAnA execution path.

Before this layer existed the repo ran three divergent epoch loops: the
single-engine ``ExecutionEngine.train`` loop, the sharded lock-step runner
and the sharded thread-pool runner.  :class:`EpochDriver` is the single
loop they all share now.  A path plugs in an :class:`EpochStep` — its
strategy for computing one local epoch — and the run's ``staleness``
decides when per-segment models are merged into a global one
(:func:`merge_boundary`).

The driver is deliberately dumb about *what* an epoch computes: the step
owns batch iteration, cycle accounting and convergence evaluation.  The
driver owns the schedule — window sizing from the staleness, the merge /
broadcast cadence and the run-level counters — so a scheduling change never
touches engine code again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.obs.telemetry import telemetry


def merge_boundary(epoch_index: int, staleness: int, epochs: int) -> int:
    """Index of the next merge epoch at or after ``epoch_index``.

    The paper's segments merge behind a full barrier every epoch
    (``staleness=1``: every epoch is a boundary).  A larger ``staleness``
    lets each segment run that many local epochs on its own model between
    global merges — boundaries at every ``staleness``-th epoch — trading
    bounded model staleness for fewer synchronization points.  The final
    epoch is always a boundary, so every run ends on a merged global model;
    convergence is judged at boundaries only (the only points where a
    global model exists).  The driver runs epochs
    ``epoch_index..merge_boundary`` as one window and merges at its end.
    """
    boundary = epoch_index + staleness - 1 - epoch_index % staleness
    return min(boundary, epochs - 1)


class EpochStep:
    """One execution strategy's contribution to the shared epoch loop.

    ``state`` is strategy-defined: the model dict itself for a single
    engine, a per-segment list for the thread-pool strategy, a stacked
    ``(segments, ...)`` block for the lock-step strategy.  Only the step
    interprets it; the driver just threads it through the loop.
    """

    #: True when this step produces per-segment models that need merging.
    merges: bool = False

    @property
    def active(self) -> bool:
        """False when there is no data to train on (epochs still count)."""
        return True

    def begin(self, models: dict[str, np.ndarray]) -> Any:
        """Build the initial state from the global model."""
        return models

    def run_epoch(self, state: Any, epoch_index: int) -> tuple[Any, bool]:
        """Run one local epoch; returns ``(state, converged)``."""
        raise NotImplementedError

    def run_window(
        self, state: Any, epoch_index: int, count: int
    ) -> tuple[Any, bool, int]:
        """Run up to ``count`` merge-free epochs; default loops run_epoch.

        Returns ``(state, converged, epochs_executed)``.  Strategies that
        can amortise dispatch overhead across a whole staleness window
        (e.g. one thread-pool submission for ``count`` local epochs)
        override this.
        """
        executed = 0
        converged = False
        for offset in range(count):
            state, converged = self.run_epoch(state, epoch_index + offset)
            executed += 1
            if converged:
                break
        return state, converged, executed

    def merge(self, state: Any, base: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Collapse per-segment state into a global model (``merges`` only)."""
        raise NotImplementedError

    def broadcast(self, models: dict[str, np.ndarray], state: Any) -> Any:
        """Re-seed the state from a freshly merged global model."""
        return models


@dataclass
class DriverResult:
    """Outcome of one :meth:`EpochDriver.run`."""

    models: dict[str, np.ndarray]
    epochs_run: int
    merges_performed: int
    converged: bool


class EpochDriver:
    """Runs the epoch schedule for one training call."""

    def __init__(
        self,
        step: EpochStep,
        staleness: int = 1,
        convergence_check: bool = True,
    ) -> None:
        self.step = step
        #: local epochs between merges (see :func:`merge_boundary`).
        self.staleness = staleness
        self.convergence_check = convergence_check

    def run(
        self, initial_models: Mapping[str, np.ndarray], epochs: int
    ) -> DriverResult:
        """Drive every epoch window through the step, merging at boundaries."""
        models = {
            k: np.array(v, dtype=np.float64) for k, v in initial_models.items()
        }
        step = self.step
        state = step.begin(models)
        epochs_run = 0
        merges = 0
        converged = False
        epoch = 0
        while epoch < epochs:
            window = merge_boundary(epoch, self.staleness, epochs) - epoch + 1
            obs = telemetry()
            span = (
                obs.span("runtime.epoch", epoch=epoch, window=window)
                if obs is not None
                else None
            )
            state, window_converged, executed = step.run_window(state, epoch, window)
            if span is not None:
                obs.finish(span, executed=executed)
            executed = max(1, executed)
            epochs_run += executed
            epoch += executed
            if step.merges and step.active:
                models = step.merge(state, models)
                merges += 1
                state = step.broadcast(models, state)
            if self.convergence_check and window_converged:
                converged = True
                break
        return DriverResult(
            models=models,
            epochs_run=epochs_run,
            merges_performed=merges,
            converged=converged,
        )
