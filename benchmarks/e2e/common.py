"""Shared scaffolding: system set-up, NumPy floors, and the per-run result."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms import Hyperparameters, get_algorithm
from repro.algorithms.base import AlgorithmSpec
from repro.core import DAnA
from repro.rdbms import Database

from .data import LEARNING_RATE, MERGE_COEFFICIENT, N_FEATURES, PAGE_SIZE, Inputs
from .stats import Samples, summary

TABLE = "t"
MODEL = "m"


@dataclass
class Env:
    """One set-up system: database, DAnA facade and the registered UDF."""

    inputs: Inputs
    db: Database
    system: DAnA
    spec: AlgorithmSpec
    #: seconds per set-up stage (load_table_s, compile_udf_s, ...).
    setup_parts: dict[str, float]

    @property
    def udf(self) -> str:
        return self.inputs.algorithm

    @property
    def setup_s(self) -> float:
        return sum(self.setup_parts.values())


def build(inputs: Inputs, pool_pages: int | None = None, first_model: bool = True) -> Env:
    """Set a system up the way a user would before the first statement.

    ``load_table`` + ``warm_cache`` + ``register_udf``/compile + (for
    workloads that score or refresh) the first ``CREATE MODEL``.  Each
    stage is timed; their sum is ``setup_s``.
    """
    parts: dict[str, float] = {}

    def stage(name: str, start: float) -> float:
        now = time.perf_counter()
        parts[name] = now - start
        return now

    t = time.perf_counter()
    hyper = Hyperparameters(
        learning_rate=LEARNING_RATE, merge_coefficient=MERGE_COEFFICIENT, epochs=1
    )
    spec = get_algorithm(inputs.algorithm).build_spec(N_FEATURES, hyper)
    if pool_pages is None:
        db = Database(page_size=PAGE_SIZE)
    else:
        db = Database(page_size=PAGE_SIZE, buffer_pool_bytes=pool_pages * PAGE_SIZE)
    t = stage("build_spec_s", t)
    db.load_table(TABLE, spec.schema, inputs.rows)
    t = stage("load_table_s", t)
    db.warm_cache(TABLE)
    t = stage("warm_cache_s", t)
    system = DAnA(db)
    system.register_udf(inputs.algorithm, spec)
    system.compile_udf(inputs.algorithm, TABLE)
    t = stage("compile_udf_s", t)
    if first_model:
        db.execute(
            f"CREATE MODEL {MODEL} AS TRAIN {inputs.algorithm} ON {TABLE} "
            "WITH (epochs => 1)"
        )
        stage("first_model_s", t)
    return Env(inputs=inputs, db=db, system=system, spec=spec, setup_parts=parts)


# ---------------------------------------------------------------------- #
# bare-NumPy floors: the same arithmetic with no database around it
# ---------------------------------------------------------------------- #
def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def sgd_floor(
    rows: np.ndarray, algorithm: str, epochs: int, w: np.ndarray | None = None
) -> np.ndarray:
    """Minibatch-16 SGD over ``rows`` in storage order (the engine's update rule)."""
    x, y = rows[:, :N_FEATURES], rows[:, N_FEATURES]
    w = np.zeros(N_FEATURES) if w is None else np.array(w, dtype=np.float64)
    step = LEARNING_RATE / MERGE_COEFFICIENT
    for _ in range(epochs):
        for start in range(0, len(x), MERGE_COEFFICIENT):
            xb = x[start : start + MERGE_COEFFICIENT]
            z = xb @ w
            if algorithm == "logistic":
                z = _sigmoid(z)
            w = w - step * ((z - y[start : start + MERGE_COEFFICIENT]) @ xb)
    return w


def sharded_sgd_floor(
    rows: np.ndarray, rows_per_page: int, segments: int, algorithm: str, epochs: int
) -> np.ndarray:
    """Round-robin page partitions, one SGD epoch per segment, average, repeat."""
    page_of_row = np.arange(len(rows)) // rows_per_page
    parts = [rows[page_of_row % segments == s] for s in range(segments)]
    w = np.zeros(N_FEATURES)
    for _ in range(epochs):
        w = np.mean([sgd_floor(part, algorithm, 1, w) for part in parts], axis=0)
    return w


# ---------------------------------------------------------------------- #
# per-run result
# ---------------------------------------------------------------------- #
@dataclass
class Outcome:
    """What one workload run hands back to the CLI."""

    attempted: int = 0
    failed: int = 0
    #: human-readable descriptions of failed checks (empty = correct).
    failures: list[str] = field(default_factory=list)
    #: metric name -> value (end-to-end or per-layer, by run mode).
    metrics: dict[str, float] = field(default_factory=dict)
    #: metric name -> {"n", "median", "q1", "q3"} where samples exist.
    samples: dict[str, dict] = field(default_factory=dict)
    #: free-form notes printed above the result line.
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, description: str) -> None:
        """Record one correctness check; a failure counts as a failed op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(description)


def report_statements(
    out: Outcome, samples: Samples, work: int, what: str, tail_percentile: int
) -> None:
    """End-to-end metrics of a closed-loop statement workload from its samples.

    ``tail_percentile`` is fixed per workload (the highest of p75/p90 with
    about ten samples beyond it at the reference host's statement rate), not
    chosen from the sample count: a faster commit must not be judged on a
    different statistic than its parent.
    """
    corrected = samples.corrected
    out.attempted += len(corrected)
    op_s = statistics.median(corrected)
    out.metrics["throughput_per_s"] = work / op_s
    out.metrics["op_p50_ms"] = op_s * 1e3
    out.metrics["op_tail_ms"] = float(np.percentile(corrected, tail_percentile)) * 1e3
    out.samples["statement_s"] = summary(samples.raw)
    out.samples["statement_corrected_s"] = summary(corrected)
    out.samples["reference_probe_s"] = summary(samples.probes)
    out.notes.append(
        f"op = median of {len(corrected)} statements, tail = p{tail_percentile}, both "
        f"reference-corrected (raw median {statistics.median(samples.raw) * 1e3:.3f} ms, "
        f"probe median {statistics.median(samples.probes) * 1e3:.3f} ms); "
        f"throughput = {work} {what} / op"
    )
