"""Seeded input generation: the only place randomness enters the benchmark.

``src/`` never sees the seed — only the arrays and SQL text built here.
Tables are FLOAT4, so every generated value is rounded through float32
first: what the benchmark holds is then exactly what the database decodes,
and oracles (WHERE masks, NumPy floors) compare without a cast mismatch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

N_FEATURES = 16
PAGE_SIZE = 8 * 1024
MERGE_COEFFICIENT = 16
LEARNING_RATE = 0.05


def _float4(values: np.ndarray) -> np.ndarray:
    return values.astype(np.float32).astype(np.float64)


def table(rng: np.random.Generator, n_rows: int, algorithm: str) -> np.ndarray:
    """``n_rows`` x (features + label) with a planted linear model."""
    x = rng.normal(size=(n_rows, N_FEATURES))
    w = rng.normal(scale=1.0 / np.sqrt(N_FEATURES), size=N_FEATURES)
    y = x @ w + 0.05 * rng.normal(size=n_rows)
    if algorithm == "logistic":
        y = (y > 0.0).astype(np.float64)
    return _float4(np.hstack([x, y[:, None]]))


@dataclass
class Inputs:
    """Everything one workload run feeds the system under test."""

    algorithm: str
    rows: np.ndarray
    sql: dict[str, str] = field(default_factory=dict)
    #: extra arrays (insert batches, request rows), by name.
    extra: dict[str, np.ndarray] = field(default_factory=dict)
    #: scalars the run and its checks need (WHERE threshold, segments, pool pages).
    params: dict[str, float] = field(default_factory=dict)

    def fingerprint(self) -> str:
        """sha256 over every generated byte and every SQL string."""
        digest = hashlib.sha256()
        digest.update(self.algorithm.encode())
        digest.update(np.ascontiguousarray(self.rows).tobytes())
        for name in sorted(self.extra):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(self.extra[name]).tobytes())
        for name in sorted(self.sql):
            digest.update(f"{name}={self.sql[name]}".encode())
        return digest.hexdigest()


def where_threshold(column: np.ndarray, quantile: float) -> float:
    """A WHERE literal the SQL tokenizer accepts (plain decimal, no exponent).

    Rounded to nine decimals so the value the parser reads back is the
    exact float the benchmark masks with.
    """
    return float(format(float(np.quantile(column, quantile)), ".9f"))
