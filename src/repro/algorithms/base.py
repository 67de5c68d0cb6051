"""Common interface for the machine-learning algorithms used in the paper.

Each algorithm bundles:

* the **DSL program** — the update rule, merge function and convergence
  criterion expressed with :mod:`repro.dsl`, exactly what a data scientist
  would write as the UDF;
* the **tuple binder** — how a raw training tuple maps onto the DSL's
  ``input``/``output`` variables — and the **batch binder**, its vectorised
  twin that maps a whole ``(B, n_columns)`` tuple block onto the same
  variables with a leading batch axis (consumed by the execution engine's
  batched tape);
* the **initial model state** and a **NumPy reference implementation** used
  by the test-suite and by the software baselines (MADlib, Liblinear,
  DimmWitted models);
* per-tuple operation counts that feed the CPU cost model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.dsl.algo import Algo
from repro.rdbms.types import Schema

TupleBinder = Callable[[np.ndarray], dict[str, np.ndarray | float]]
BatchBinder = Callable[[np.ndarray], dict[str, np.ndarray]]


@dataclass
class Hyperparameters:
    """Training hyper-parameters shared by all systems under comparison."""

    learning_rate: float = 0.05
    regularization: float = 0.0
    merge_coefficient: int = 16
    epochs: int = 1
    convergence_tolerance: float | None = None
    rank: int = 10   # only used by low-rank matrix factorization

    def scaled(self, **overrides) -> "Hyperparameters":
        values = {**self.__dict__, **overrides}
        return Hyperparameters(**values)


@dataclass
class AlgorithmSpec:
    """Everything a runtime needs to execute one algorithm on one dataset."""

    name: str
    algo: Algo
    schema: Schema
    bind_tuple: TupleBinder
    initial_models: dict[str, np.ndarray]
    hyperparameters: Hyperparameters
    model_topology: tuple[int, ...] = ()
    metadata: dict = field(default_factory=dict)
    bind_batch: BatchBinder | None = None
    #: forward-only binder for prediction serving: maps a ``(B, cols)``
    #: block (with or without the trailing label column) onto the forward
    #: graph's input variables only — no labels, no gradient inputs.
    bind_predict: BatchBinder | None = None


class Algorithm(ABC):
    """Base class of the four algorithms evaluated in the paper."""

    #: short identifier used in workload tables ("linear", "logistic", ...)
    key: str = "base"
    #: human-readable name used in reports
    display_name: str = "Algorithm"

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @abstractmethod
    def build_spec(
        self, n_features: int, hyper: Hyperparameters, model_topology: tuple[int, ...] = ()
    ) -> AlgorithmSpec:
        """Build the DSL program and bindings for a dataset of ``n_features``."""

    @abstractmethod
    def reference_fit(
        self, data: np.ndarray, hyper: Hyperparameters, epochs: int
    ) -> dict[str, np.ndarray]:
        """NumPy reference training loop (mini-batch gradient descent)."""

    @abstractmethod
    def loss(self, data: np.ndarray, models: Mapping[str, np.ndarray]) -> float:
        """Training loss of a model on a dataset (used to verify learning)."""

    # ------------------------------------------------------------------ #
    # cost-model hooks
    # ------------------------------------------------------------------ #
    def flops_per_tuple(self, n_features: int) -> int:
        """Floating-point operations one update-rule evaluation performs."""
        return 6 * max(1, n_features)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
