"""The per-tuple forward oracle of batched scoring.

:class:`~repro.serving.InferenceEngine` runs the compiled forward tape once
per matrix it is handed and books the whole call from counts
(``InferencePlan.forward_cost``).  This oracle walks the reference
:class:`~repro.translator.evaluator.HDFGEvaluator` over the forward slice one
tuple at a time, cuts the rows into micro-batches of ``batch_size`` and books
each one through :meth:`~repro.serving.InferenceEngine.account_batch`, the
per-batch reference adder: the two must agree on every prediction, bit for
bit, and on every counter.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.serving import DEFAULT_SCORE_BATCH, InferenceEngine
from repro.translator.evaluator import HDFGEvaluator
from repro.translator.hdfg import Region


def score(
    engine: InferenceEngine,
    rows: np.ndarray,
    models: Mapping[str, np.ndarray],
    batch_size: int | None = None,
) -> np.ndarray:
    """Predictions for ``rows``, one tuple at a time, booked on ``engine``
    per micro-batch of ``batch_size`` (default
    :data:`~repro.serving.DEFAULT_SCORE_BATCH`)."""
    plan = engine.plan
    reference = HDFGEvaluator(plan.forward.graph)
    rows = np.asarray(rows, dtype=np.float64)
    size = batch_size or DEFAULT_SCORE_BATCH
    values = []
    for start in range(0, len(rows), size):
        batch = rows[start : start + size]
        for row in batch:
            bound = {
                name: np.asarray(value)[0]
                for name, value in plan.bind_predict(row[None, :]).items()
            }
            for name, value in models.items():
                bound.setdefault(name, value)
            env = reference.initial_env(bound)
            env = reference.evaluate(env, [Region.UPDATE_RULE])
            values.append(np.asarray(env[plan.forward.score_node_id], dtype=np.float64))
        engine.account_batch(len(batch))
    if not values:
        return np.empty((0,) + plan.forward.score_dims)
    return np.stack(values, axis=0)
