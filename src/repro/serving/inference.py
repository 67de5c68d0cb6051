"""Batched inference engine: the execution engine's forward-only twin.

An :class:`InferencePlan` lowers one compiled UDF for serving exactly the
way PR-1 lowered training: the forward sub-hDFG
(:func:`~repro.translator.forward.forward_slice`) is compiled **once** into
a :class:`~repro.translator.tape.CompiledTape` of batched NumPy kernels,
the per-tuple :class:`~repro.translator.evaluator.HDFGEvaluator` forward
pass is kept as the correctness oracle, and cycle accounting is derived
from a static schedule of the forward region — so the batched and
per-tuple paths report identical counters for identical batches.

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
from repro.reliability.faults import fault_point
from repro.translator.evaluator import HDFGEvaluator
from repro.translator.forward import forward_slice
from repro.translator.hdfg import HDFG, Region
from repro.translator.tape import CompiledTape

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.base import AlgorithmSpec
    from repro.compiler.execution_binary import ExecutionBinary

#: scoring paths exposed by the serving layer.
SERVING_PATHS = ("batched", "per_tuple")

#: default scan-scoring micro-batch (tuples per tape invocation).
DEFAULT_SCORE_BATCH = 256

#: fault-injection site fired once per :meth:`InferenceEngine.score` call.
INFERENCE_FAULT_SITE = "serving.inference.score"


@dataclass
class InferenceStats:
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
        self.evaluator = HDFGEvaluator(self.forward.graph)

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

    def predict_forward_cycles(self, n_tuples: int, batch_size: int | None = None) -> int:
        """Predict the forward-pass cycles of scoring ``n_tuples`` tuples.

        Applies :meth:`InferenceEngine.account_batch`'s arithmetic —
        ``ceil(batch / threads)`` engine rounds per micro-batch, each
        costing the scheduled forward region — over full micro-batches of
        ``batch_size`` (default :data:`DEFAULT_SCORE_BATCH`) plus the
        remainder, without touching any engine counters.  ``EXPLAIN``
        prices scoring statements with this before anything runs.
        """
        if n_tuples <= 0:
            return 0
        size = batch_size or DEFAULT_SCORE_BATCH
        cycles = 0
        full, remainder = divmod(n_tuples, size)
        for batch_len, count in ((size, full), (remainder, 1)):
            if count < 1 or batch_len < 1:
                continue
            rounds = math.ceil(batch_len / self.threads)
            cycles += count * rounds * self.forward_cycles_per_round
        return cycles


class InferenceEngine:
    """Scores tuple batches through one plan, booking forward cycles."""

    def __init__(self, plan: InferencePlan) -> None:
        self.plan = plan
        self.stats = InferenceStats()

    # ------------------------------------------------------------------ #
    # cycle accounting (shared by both paths — counters stay identical)
    # ------------------------------------------------------------------ #
    def account_batch(self, batch_len: int) -> None:
        """Book one scored batch: ``ceil(batch / threads)`` engine rounds."""
        if batch_len < 1:
            return
        rounds = math.ceil(batch_len / self.plan.threads)
        self.stats.tuples_scored += batch_len
        self.stats.batches_scored += 1
        self.stats.forward_cycles += rounds * self.plan.forward_cycles_per_round

    # ------------------------------------------------------------------ #
    # scoring
    # ------------------------------------------------------------------ #
    def score(
        self,
        rows: np.ndarray,
        models: Mapping[str, np.ndarray],
        path: str = "batched",
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
            path=path,
        )

    def score_batches(
        self,
        batches: Iterable[np.ndarray],
        models: Mapping[str, np.ndarray],
        path: str = "batched",
    ) -> np.ndarray:
        """Predictions for a stream of micro-batches, concatenated in order.

        The one scoring loop: :meth:`score` feeds it slices of a matrix and
        scan-and-score the batches of its extraction source (which may
        still be decoding later pages).  ``path="batched"`` evaluates each
        micro-batch on the compiled forward tape; ``path="per_tuple"``
        walks the per-tuple evaluator — the oracle.  Both book the same
        schedule-derived cycles per batch.
        """
        if path not in SERVING_PATHS:
            raise ConfigurationError(
                f"unknown serving path {path!r}; expected one of {SERVING_PATHS}"
            )
        fault_point(INFERENCE_FAULT_SITE)
        score_batch = (
            self._score_batch_tape if path == "batched" else self._score_batch_oracle
        )
        chunks: list[np.ndarray] = []
        for batch in batches:
            chunks.append(score_batch(batch, models))
            self.account_batch(len(batch))
        if not chunks:
            return np.empty((0,) + self.plan.forward.score_dims)
        return np.concatenate(chunks, axis=0)

    def _score_batch_tape(
        self, batch: np.ndarray, models: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        env = self.plan.tape.run(self.plan.bind_predict(batch), models)
        return np.asarray(env[self.plan.forward.score_node_id], dtype=np.float64)

    def _score_batch_oracle(
        self, batch: np.ndarray, models: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        evaluator = self.plan.evaluator
        score_id = self.plan.forward.score_node_id
        values = []
        for row in batch:
            bound = {
                name: np.asarray(value)[0]
                for name, value in self.plan.bind_predict(row[None, :]).items()
            }
            for name, value in models.items():
                bound.setdefault(name, value)
            env = evaluator.initial_env(bound)
            env = evaluator.evaluate(env, [Region.UPDATE_RULE])
            values.append(np.asarray(env[score_id], dtype=np.float64))
        return np.stack(values, axis=0)
