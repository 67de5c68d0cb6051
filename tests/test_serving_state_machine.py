"""Model-based fuzzing of the micro-batching server's state machine.

One :class:`~repro.serving.PredictionServer` (linear model, micro-batches of
at most two, a four-deep admission bound) is driven through
submits with and without a short deadline, cancellations, hot-swaps, draining
and aborting stops and restarts by a Hypothesis ``RuleBasedStateMachine``.
Its engine is a :class:`~held_engine.HeldEngine`, so scoring can be held on
an ``Event``: while it is held the scorer sits inside one batch and later
requests stay pending, so cancelling one and stopping over a backlog are
reachable on purpose, not by luck of the thread schedule.  The model is
every future the server handed out, the model version current when each was
submitted, and every ``(rows, models)`` pair the engine was asked to score.
Whenever the server is stopped:

* every future has resolved, and exactly once;
* every served value equals ``system.predict`` under the model its batch
  was scored with, and that model is one swapped in no earlier than the
  request was submitted;
* the rows the engine scored, read in call order, are the served requests
  in submission order (the pending deque is FIFO), each call at most
  ``max_batch_size`` rows;
* ``requests + deadline_exceeded + cancelled + failed == admitted``, with
  ``requests`` and ``deadline_exceeded`` read from ``server.stats``;
* no scorer thread is alive.
"""

from __future__ import annotations

import threading

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.algorithms import Hyperparameters, get_algorithm
from repro.core import DAnA
from repro.data.synthetic import generate_for_algorithm
from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    ServerOverloadedError,
)
from repro.rdbms import Database

from held_engine import HeldEngine

N_FEATURES = 4
MAX_BATCH_SIZE = 2
#: a deadline most requests outlive once the engine is held.
SHORT_DEADLINE_MS = 1.0
#: how long after a stop begins a held engine is let go.
RELEASE_AFTER_S = 0.02


class ServerMachine(RuleBasedStateMachine):
    """Rules over one server; see the module docstring for the model."""

    def __init__(self) -> None:
        super().__init__()
        spec = get_algorithm("linear").build_spec(N_FEATURES, Hyperparameters())
        database = Database()
        data = generate_for_algorithm("linear", 16, N_FEATURES, seed=0)
        database.load_table("t", spec.schema, data)
        self.system = DAnA(database)
        self.system.register_udf("linear", spec)
        self.server = self.system.serve(
            "linear",
            models={"mo": np.linspace(-1.0, 1.0, N_FEATURES)},
            max_batch_size=MAX_BATCH_SIZE,
            max_queue_depth=4,
        )
        self.engine = HeldEngine.install(self.server)
        self.rng = np.random.default_rng(0)
        #: every model mapping the server served, in swap order.
        self.versions: list[dict] = [self.server.models]
        self.futures: list = []
        self.rows: list[np.ndarray] = []
        #: index into ``versions`` current when each future was submitted.
        self.submitted_on: list[int] = []
        #: done-callback invocations per future.
        self.resolutions: list[int] = []
        self.shed = 0
        self.running = True
        self.server.start()

    def _resolved(self, index: int, _future) -> None:
        self.resolutions[index] += 1

    # ------------------------------------------------------------------ #
    # requests
    # ------------------------------------------------------------------ #
    @rule(short_deadline=st.booleans())
    def submit(self, short_deadline: bool) -> None:
        row = self.rng.normal(size=N_FEATURES)  # unique: names its batch below
        deadline_ms = SHORT_DEADLINE_MS if short_deadline else None
        try:
            future = self.server.submit(row, deadline_ms=deadline_ms)
        except ConfigurationError:
            assert not self.running
            return
        except ServerOverloadedError:
            assert self.running
            self.shed += 1
            return
        assert self.running
        index = len(self.futures)
        self.futures.append(future)
        self.rows.append(row)
        self.submitted_on.append(len(self.versions) - 1)
        self.resolutions.append(0)
        future.add_done_callback(lambda f, i=index: self._resolved(i, f))

    @precondition(lambda self: self.futures)
    @rule(data=st.data())
    def cancel(self, data) -> None:
        """Cancel one future; it succeeds only before its batch is taken."""
        index = data.draw(st.integers(0, len(self.futures) - 1))
        self.futures[index].cancel()

    @rule(scale=st.integers(-3, 3))
    def swap_models(self, scale: int) -> None:
        self.server.swap_models({"mo": scale * np.arange(1.0, N_FEATURES + 1)})
        self.versions.append(self.server.models)

    @rule()
    def hold(self) -> None:
        """Hold the next scoring call: its batch stays taken, the rest pend."""
        self.engine.gate.clear()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @rule(drain=st.booleans())
    def stop(self, drain: bool) -> None:
        # A held gate opens only after stop() has raised its flags, so the
        # held batch finishes into a stopping server with its backlog pending.
        release = threading.Timer(RELEASE_AFTER_S, self.engine.gate.set)
        if not self.engine.gate.is_set():
            release.start()
        self.server.stop(drain=drain)
        if release.is_alive():
            release.join()
        self.running = False
        self._check_stopped()

    @precondition(lambda self: not self.running)
    @rule()
    def start(self) -> None:
        self.server.start()
        self.running = True

    # ------------------------------------------------------------------ #
    # what holds whenever the server is stopped
    # ------------------------------------------------------------------ #
    def _check_stopped(self) -> None:
        assert not [
            t for t in threading.enumerate()
            if t.name == "prediction-server" and t.is_alive()
        ]
        assert all(f.done() for f in self.futures)
        assert self.resolutions == [1] * len(self.futures)
        scored_with = {
            row.tobytes(): models
            for rows, models in self.engine.calls
            for row in rows
        }
        served_rows: list[np.ndarray] = []
        cancelled = expired = failed = 0
        for future, row, submitted_on in zip(self.futures, self.rows, self.submitted_on):
            if future.cancelled():
                cancelled += 1
            elif isinstance(future.exception(), DeadlineExceededError):
                expired += 1
            elif future.exception() is not None:
                failed += 1
            else:
                served_rows.append(row)
                models = scored_with[row.tobytes()]
                version = next(i for i, v in enumerate(self.versions) if v is models)
                assert version >= submitted_on
                expected = self.system.predict("linear", row[None, :], models=models)
                assert future.result() == expected[0]
        # FIFO: the scorer takes from the head of the deque, batch by batch.
        assert all(len(rows) <= MAX_BATCH_SIZE for rows, _ in self.engine.calls)
        scored_rows = [row for rows, _ in self.engine.calls for row in rows]
        assert len(scored_rows) == len(served_rows)
        assert all(map(np.array_equal, scored_rows, served_rows))
        stats = self.server.stats
        admitted = len(self.futures)
        assert stats.requests + stats.deadline_exceeded + cancelled + failed == admitted
        assert (stats.requests, stats.deadline_exceeded) == (len(served_rows), expired)
        assert stats.shed == self.shed

    def teardown(self) -> None:
        self.engine.gate.set()
        self.server.stop()
        self._check_stopped()


TestServerMachine = ServerMachine.TestCase
TestServerMachine.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None, derandomize=True
)
