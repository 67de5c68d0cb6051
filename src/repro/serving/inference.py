"""Batched inference engine: the execution engine's forward-only twin.

An :class:`InferencePlan` lowers one compiled UDF for serving exactly the
way training is lowered: the forward sub-hDFG
(:func:`~repro.translator.forward.forward_slice`) is compiled **once** into
a :class:`~repro.translator.tape.CompiledTape` of batched NumPy kernels,
and cycle accounting is derived from a static schedule of the forward
region.  Forward scoring is row-independent, so the tape executes whatever
matrices it is handed (a whole extracted wave at a time on the scan path)
and books the call from counts — :meth:`InferencePlan.forward_cost` over
the tuple total and the modelled micro-batch.  The per-tuple
:class:`~repro.translator.evaluator.HDFGEvaluator` forward pass, which cuts
and books micro-batch by micro-batch through
:meth:`InferenceEngine.account_batch`, is the test suite's parity oracle.

:class:`InferenceEngine` instances share one plan (the tape's kernel
closures are stateless, so many engines/threads can score concurrently)
but own their counters, mirroring how every
:class:`~repro.cluster.segment_worker.SegmentWorker` owns its engine stats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.compiler.scheduler import Scheduler
from repro.exceptions import ConfigurationError
from repro.hw.ledger import Ledger
from repro.reliability.faults import fault_point
from repro.translator.forward import forward_slice
from repro.translator.hdfg import HDFG
from repro.translator.tape import CompiledTape

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.base import AlgorithmSpec
    from repro.compiler.execution_binary import ExecutionBinary

#: default scoring micro-batch: the batch the ledger books
#: (``ceil(batch / threads)`` rounds each), not the tape's execution unit.
DEFAULT_SCORE_BATCH = 256

#: fault-injection site fired once per :meth:`InferenceEngine.score` call.
INFERENCE_FAULT_SITE = "serving.inference.score"


@dataclass
class InferenceStats(Ledger):
    """Counters accumulated while scoring (schedule-derived)."""

    tuples_scored: int = 0
    batches_scored: int = 0
    forward_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        """All cycles booked while scoring (forward-pass only)."""
        return self.forward_cycles


class InferencePlan:
    """Forward lowering + static schedule of one UDF, compiled once."""

    def __init__(
        self,
        graph: HDFG,
        spec: "AlgorithmSpec",
        threads: int,
        acs_per_thread: int,
    ) -> None:
        if spec.bind_predict is None:
            raise ConfigurationError(
                f"algorithm {spec.name!r} declares no bind_predict binder; "
                "serving needs one to map feature rows onto the forward graph"
            )
        self.spec = spec
        self.bind_predict = spec.bind_predict
        self.threads = max(1, int(threads))
        self.forward = forward_slice(graph)
        # Static schedule of the forward region: the single source of truth
        # for inference cycle accounting, exactly like the training
        # schedule's region lengths drive ExecutionEngine.account_batch.
        self.schedule = Scheduler(self.forward.graph, max(1, acs_per_thread)).schedule()
        self.forward_cycles_per_round = self.schedule.update_rule_cycles
        self.tape = CompiledTape(self.forward.graph)

    @classmethod
    def from_binary(cls, binary: "ExecutionBinary", spec: "AlgorithmSpec") -> "InferencePlan":
        """Build the serving plan for a compiled accelerator binary."""
        return cls(
            binary.graph,
            spec,
            threads=binary.design.threads,
            acs_per_thread=binary.design.acs_per_thread,
        )

    def new_engine(self) -> "InferenceEngine":
        """A fresh engine (clean counters) sharing this compiled plan."""
        return InferenceEngine(self)

    def forward_cost(self, n_tuples: int, batch_size: int | None = None) -> InferenceStats:
        """What scoring ``n_tuples`` tuples books: the forward-pass ledger.

        The one statement of the inference cycle model: full micro-batches
        of ``batch_size`` (default :data:`DEFAULT_SCORE_BATCH`) plus one
        remainder batch, each needing ``ceil(batch / threads)`` rounds of
        the scheduled forward region.  A scoring call books it once,
        ``EXPLAIN`` prices with it, and
        :meth:`InferenceEngine.account_batch` is the same function over a
        single batch.
        """
        cost = InferenceStats()
        size = batch_size or DEFAULT_SCORE_BATCH
        full, remainder = divmod(max(0, n_tuples), size)
        for batch_len, count in ((size, full), (remainder, 1)):
            if batch_len < 1 or count < 1:
                continue
            rounds = math.ceil(batch_len / self.threads)
            cost.tuples_scored += count * batch_len
            cost.batches_scored += count
            cost.forward_cycles += count * rounds * self.forward_cycles_per_round
        return cost


class InferenceEngine:
    """Scores tuple batches through one plan, booking forward cycles."""

    def __init__(self, plan: InferencePlan) -> None:
        self.plan = plan
        self.stats = InferenceStats()

    # ------------------------------------------------------------------ #
    # cycle accounting
    # ------------------------------------------------------------------ #
    def account_batch(self, batch_len: int) -> None:
        """Book one scored batch — the per-batch reference for
        :meth:`InferencePlan.forward_cost` (the per-tuple oracle books
        this way)."""
        self.stats += self.plan.forward_cost(batch_len, batch_len)

    # ------------------------------------------------------------------ #
    # scoring
    # ------------------------------------------------------------------ #
    def score(
        self,
        rows: np.ndarray,
        models: Mapping[str, np.ndarray],
        batch_size: int | None = None,
    ) -> np.ndarray:
        """Predictions for ``rows`` (one score per tuple, storage order).

        Slices ``rows`` into micro-batches of ``batch_size`` (default
        :data:`DEFAULT_SCORE_BATCH`) and scores them with
        :meth:`score_batches`.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ConfigurationError(
                f"score expects a (tuples, columns) matrix, got shape {rows.shape}"
            )
        size = batch_size or DEFAULT_SCORE_BATCH
        return self.score_batches(
            (rows[start : start + size] for start in range(0, len(rows), size)),
            models,
            batch_size=size,
        )

    def score_batches(
        self,
        batches: Iterable[np.ndarray],
        models: Mapping[str, np.ndarray],
        batch_size: int | None = None,
    ) -> np.ndarray:
        """Predictions for a stream of tuple matrices, concatenated in order.

        The one scoring loop: the compiled forward tape runs once per
        matrix it is handed — :meth:`score` feeds it slices, scan-and-score
        the waves of its extraction source (which may still be decoding
        later pages) — and the call is booked once, after the last matrix,
        as ``forward_cost(tuples, batch_size)``: forward scoring is
        row-independent, so how the rows were cut decides neither a
        prediction nor a counter.
        """
        fault_point(INFERENCE_FAULT_SITE)
        plan = self.plan
        score_id = plan.forward.score_node_id
        chunks = [
            np.asarray(
                plan.tape.run(plan.bind_predict(batch), models)[score_id],
                dtype=np.float64,
            )
            for batch in batches
        ]
        self.stats += plan.forward_cost(sum(map(len, chunks)), batch_size)
        if not chunks:
            return np.empty((0,) + plan.forward.score_dims)
        return np.concatenate(chunks, axis=0)
