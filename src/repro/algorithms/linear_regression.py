"""Linear regression trained with (mini-batch) gradient descent.

This is the running example of the paper (§4.3): the update rule computes
the gradient of the squared loss for one tuple, the merge function sums the
per-thread gradients, and the optimizer applies one scaled step per batch.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro import dana
from repro.algorithms.base import Algorithm, AlgorithmSpec, Hyperparameters
from repro.rdbms.types import Schema


class LinearRegression(Algorithm):
    """Least-squares linear regression via batched gradient descent."""

    key = "linear"
    display_name = "Linear Regression"

    # ------------------------------------------------------------------ #
    # DSL program
    # ------------------------------------------------------------------ #
    def build_spec(
        self, n_features: int, hyper: Hyperparameters, model_topology: tuple[int, ...] = ()
    ) -> AlgorithmSpec:
        mc = max(1, hyper.merge_coefficient)
        mo = dana.model([n_features], name="mo")
        x = dana.input([n_features], name="x")
        y = dana.output(name="y")
        lr = dana.meta(hyper.learning_rate, name="lr")
        coeff = dana.meta(float(mc), name="merge_coef")

        algo = dana.algo(mo, x, y, name="linearR")
        s = dana.sigma(mo * x, 1)
        er = s - y
        grad = er * x
        merged = algo.merge(grad, mc, "+")
        up = lr * (merged / coeff)
        algo.setModel(mo - up)
        if hyper.convergence_tolerance is not None:
            tol = dana.meta(hyper.convergence_tolerance, name="tol")
            algo.setConvergence(dana.norm(merged, 1) < tol)
        algo.setEpochs(max(1, hyper.epochs))

        schema = Schema.training_schema(n_features)

        def bind(row: np.ndarray) -> dict[str, np.ndarray | float]:
            return {"x": row[:n_features], "y": float(row[n_features])}

        def bind_batch(rows: np.ndarray) -> dict[str, np.ndarray]:
            # Ellipsis indexing keeps the binder layout-agnostic: it slices
            # the trailing column axis of both a plain (B, cols) batch and
            # the sharded lock-step (B, segments, cols) block.
            return {"x": rows[..., :n_features], "y": rows[..., n_features]}

        def bind_predict(rows: np.ndarray) -> dict[str, np.ndarray]:
            # Forward pass only: the label column (if present) is ignored.
            return {"x": rows[..., :n_features]}

        return AlgorithmSpec(
            name=self.key,
            algo=algo,
            schema=schema,
            bind_tuple=bind,
            initial_models={"mo": np.zeros(n_features)},
            hyperparameters=hyper,
            model_topology=(n_features,),
            bind_batch=bind_batch,
            bind_predict=bind_predict,
            # Rebuild recipe for worker processes (binders do not pickle).
            metadata={
                "builder": {
                    "algorithm": self.key,
                    "n_features": n_features,
                    "model_topology": (n_features,),
                }
            },
        )

    # ------------------------------------------------------------------ #
    # reference implementation
    # ------------------------------------------------------------------ #
    def reference_fit(
        self, data: np.ndarray, hyper: Hyperparameters, epochs: int
    ) -> dict[str, np.ndarray]:
        n_features = data.shape[1] - 1
        X, y = data[:, :n_features], data[:, n_features]
        w = np.zeros(n_features)
        batch = max(1, hyper.merge_coefficient)
        for _ in range(epochs):
            for start in range(0, len(X), batch):
                xb, yb = X[start : start + batch], y[start : start + batch]
                grad = (xb @ w - yb) @ xb
                w = w - hyper.learning_rate * grad / batch
        return {"mo": w}

    def loss(self, data: np.ndarray, models: Mapping[str, np.ndarray]) -> float:
        n_features = data.shape[1] - 1
        X, y = data[:, :n_features], data[:, n_features]
        residual = X @ np.asarray(models["mo"]) - y
        return float(np.mean(residual**2))

    def flops_per_tuple(self, n_features: int) -> int:
        # dot product (2k) + error (1) + gradient (k) + scaled update (2k)
        return 5 * n_features + 1

