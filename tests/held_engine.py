"""An inference engine that scoring can be held on, for serving tests.

A :class:`~repro.serving.PredictionServer` takes whatever is pending the
moment its scorer is free, so which requests share a micro-batch depends on
the thread schedule.  Holding the engine makes it deterministic: while
``gate`` is closed the scorer sits inside one batch and every later submit
stays pending, so releasing the gate hands the scorer the whole backlog at
once.  Tests import it as ``from held_engine import HeldEngine`` (pytest puts
``tests/`` on ``sys.path``).
"""

from __future__ import annotations

import threading

import numpy as np

#: longest a held engine waits for its gate.
HANG_S = 10.0


class HeldEngine:
    """An inference engine whose ``score`` waits while ``gate`` is closed."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.gate = threading.Event()
        self.gate.set()
        #: set once ``score`` has been entered (before waiting on the gate).
        self.entered = threading.Event()
        #: every (rows, models) pair scored, in call order.
        self.calls: list[tuple[np.ndarray, dict]] = []

    @classmethod
    def install(cls, server, held: bool = False) -> "HeldEngine":
        """Wrap ``server``'s engine; ``held`` closes the gate up front."""
        engine = cls(server.engine)
        if held:
            engine.gate.clear()
        server.engine = engine
        return engine

    def score(self, rows, models, **kwargs):
        self.entered.set()
        self.gate.wait(HANG_S)  # bounded: a lost release slows the run, never hangs it
        self.calls.append((np.array(rows), models))
        return self.engine.score(rows, models, **kwargs)

    def call_sizes(self) -> list[int]:
        """Rows per scoring call, in call order."""
        return [len(rows) for rows, _models in self.calls]
