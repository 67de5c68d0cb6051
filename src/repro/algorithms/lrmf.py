"""Low-Rank Matrix Factorization trained with stochastic gradient descent.

Each training tuple is a rating ``(row, col, value)``; the model consists of
two factor matrices ``L`` (rows × rank) and ``R`` (cols × rank).  A tuple
updates only the two factor rows it addresses, which is expressed with the
reproduction's ``gather`` extension (see
:class:`repro.dsl.expressions.GatherExpression`) — the row/column indices
are part of the training tuple that the Striders deliver, so the "no
dynamic variables" rule of the DSL still holds.

Because different tuples touch different rows, the parallel threads apply
their updates independently (Hogwild-style) rather than through a merge
function, which is also why the paper observes that LRMF gains little from
additional threads (Figure 12) — the parallelism already lives inside a
single update.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro import dana
from repro.algorithms.base import Algorithm, AlgorithmSpec, Hyperparameters
from repro.rdbms.types import Schema


class LowRankMatrixFactorization(Algorithm):
    """LRMF for rating matrices, trained one rating at a time."""

    key = "lrmf"
    display_name = "Low-Rank Matrix Factorization"

    def build_spec(
        self, n_features: int, hyper: Hyperparameters, model_topology: tuple[int, ...] = ()
    ) -> AlgorithmSpec:
        if len(model_topology) < 2:
            raise ValueError(
                "LRMF needs a model topology of (n_rows, n_cols[, rank]); "
                f"got {model_topology!r}"
            )
        n_rows, n_cols = int(model_topology[0]), int(model_topology[1])
        rank = int(model_topology[2]) if len(model_topology) > 2 else hyper.rank

        left = dana.model([n_rows, rank], name="L")
        right = dana.model([n_cols, rank], name="R")
        row_idx = dana.input(name="row")
        col_idx = dana.input(name="col")
        rating = dana.output(name="value")
        lr = dana.meta(hyper.learning_rate, name="lr")
        lam = dana.meta(max(hyper.regularization, 1e-4), name="lambda")

        algo = dana.algo(left, (row_idx, col_idx), rating, name="lrmf", extra_models=(right,))
        li = dana.gather(left, row_idx)
        rj = dana.gather(right, col_idx)
        pred = dana.sigma(li * rj, 1)
        err = pred - rating
        grad_l = err * rj + lam * li
        grad_r = err * li + lam * rj
        algo.setModel(li - lr * grad_l, var=left)
        algo.setModel(rj - lr * grad_r, var=right)
        algo.setEpochs(max(1, hyper.epochs))

        schema = Schema.lrmf_schema()

        def bind(row: np.ndarray) -> dict[str, np.ndarray | float]:
            return {"row": float(row[0]), "col": float(row[1]), "value": float(row[2])}

        def bind_batch(rows: np.ndarray) -> dict[str, np.ndarray]:
            return {"row": rows[..., 0], "col": rows[..., 1], "value": rows[..., 2]}

        def bind_predict(rows: np.ndarray) -> dict[str, np.ndarray]:
            # Rating prediction addresses the two factor rows; the observed
            # value column (if present) is ignored.
            return {"row": rows[..., 0], "col": rows[..., 1]}

        rng = np.random.default_rng(7)
        scale = 1.0 / np.sqrt(rank)
        return AlgorithmSpec(
            name=self.key,
            algo=algo,
            schema=schema,
            bind_tuple=bind,
            initial_models={
                "L": rng.normal(scale=scale, size=(n_rows, rank)),
                "R": rng.normal(scale=scale, size=(n_cols, rank)),
            },
            hyperparameters=hyper,
            model_topology=(n_rows, n_cols, rank),
            bind_batch=bind_batch,
            bind_predict=bind_predict,
            # Rebuild recipe for worker processes (binders do not pickle);
            # the explicit rank makes the rebuilt topology deterministic.
            metadata={
                "builder": {
                    "algorithm": self.key,
                    "n_features": n_features,
                    "model_topology": (n_rows, n_cols, rank),
                }
            },
        )

    def reference_fit(
        self, data: np.ndarray, hyper: Hyperparameters, epochs: int
    ) -> dict[str, np.ndarray]:
        n_rows = int(data[:, 0].max()) + 1
        n_cols = int(data[:, 1].max()) + 1
        rank = hyper.rank
        lam = max(hyper.regularization, 1e-4)
        rng = np.random.default_rng(7)
        scale = 1.0 / np.sqrt(rank)
        left = rng.normal(scale=scale, size=(n_rows, rank))
        right = rng.normal(scale=scale, size=(n_cols, rank))
        for _ in range(epochs):
            for i, j, v in data:
                i, j = int(i), int(j)
                li, rj = left[i].copy(), right[j].copy()
                err = float(li @ rj - v)
                left[i] = li - hyper.learning_rate * (err * rj + lam * li)
                right[j] = rj - hyper.learning_rate * (err * li + lam * rj)
        return {"L": left, "R": right}

    def loss(self, data: np.ndarray, models: Mapping[str, np.ndarray]) -> float:
        left = np.asarray(models["L"])
        right = np.asarray(models["R"])
        rows = data[:, 0].astype(int)
        cols = data[:, 1].astype(int)
        preds = np.sum(left[rows] * right[cols], axis=1)
        return float(np.mean((preds - data[:, 2]) ** 2))

    def flops_per_tuple(self, n_features: int) -> int:
        # n_features plays the role of the factorisation rank here:
        # prediction (2r) + error (1) + two gradients (6r) + two updates (4r)
        rank = max(1, n_features)
        return 12 * rank + 1
