"""End-to-end throughput scaling: batched tape pipeline vs per-tuple seed path.

Measures tuples/second for the full DAnA pipeline — binary pages through
the access engine (Strider page walk + payload decode) into the execution
engine's training loop — on fig9-style synthetic workloads, across dataset
sizes, for both execution paths:

* ``per_tuple`` — the seed configuration: Strider instruction interpreter
  plus per-tuple hDFG evaluation (the tuple-at-a-time anti-pattern the
  paper targets);
* ``batched`` — the vectorized pipeline: bulk page walk, one-shot payload
  decode, and the CompiledTape evaluating whole merge batches.

Both paths must produce numerically equal models (rtol=1e-9) and identical
schedule-derived cycle counters; the script asserts this before recording
results in ``BENCH_throughput.json`` so future PRs have a perf trajectory
to beat.

The suite also sweeps the sharded execution subsystem (``segments=N``,
:mod:`repro.cluster`) on a large synthetic workload: the lock-step
executor evaluates every segment's batch in one segment-axis tape run, so
wall-clock improves with segment count even on one core (and further on
multicore, where the thread-pool path overlaps segments for real).

Finally, the ``pipeline_sweep`` measures the pipelined epoch runtime
(:mod:`repro.runtime`) on the barrier-heavy ``threads`` execution mode:
extraction overlap on/off × merge staleness (``sync="stale_synchronous"``).
The pipelined configurations
must beat the fully barriered threads mode (the CI smoke gate) while the
stale-synchronous final loss stays within tolerance of bulk-synchronous.

The ``serving_sweep`` covers the prediction-serving subsystem
(:mod:`repro.serving`): whole-table scan-and-score across micro-batch
sizes and segment counts (the batched inference tape must beat the
per-tuple forward-pass oracle — the CI serving gate — with bit-identical
predictions, including through a registry save/load round trip), plus the
micro-batching prediction server's throughput / tail-latency tradeoff.

The ``sql_serving_sweep`` drives the PR-5 SQL surface end-to-end
(``CREATE MODEL`` → ``SELECT dana.predict(...)``, asserted bit-identical
to ``DAnA.score_table``) and sweeps **streaming** scan-and-score (the
Strider page walk overlapping the forward tape through a
``BatchSource`` double buffer) against the materialized oracle:
predictions and counters must be bit-identical, and the modelled
pipelined critical path must beat the serial one (the
``--min-streaming-score-speedup`` CI gate — schedule-derived, so it is
deterministic on any host; measured wall seconds are recorded alongside).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_throughput_scaling.py [--smoke]
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from repro.algorithms import Hyperparameters, get_algorithm
from repro.core import DAnA
from repro.data.synthetic import generate_for_algorithm
from repro.rdbms import Database

PAGE_SIZE = 8 * 1024
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def _host_metadata() -> dict:
    """Host facts every sweep is stamped with.

    Wall-clock rows only mean something relative to the machine that
    produced them — most importantly ``host_cores``, which decides whether
    thread/process overlap was even possible when the row was measured.
    """
    return {
        "host_cores": os.cpu_count() or 1,
        "host_platform": platform.platform(),
        "host_machine": platform.machine(),
        "python": platform.python_version(),
    }

# fig9-style synthetic nominal shape: dense regression/classification,
# merge coefficient 16, a few epochs.
WORKLOADS = [
    ("linear", 16),
    ("logistic", 16),
]


def _train_once(algorithm_key: str, n_features: int, data: np.ndarray, epochs: int, fast: bool):
    """One full pipeline run (load → compile → extract → train); returns timing + run."""
    algorithm = get_algorithm(algorithm_key)
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=16, epochs=epochs)
    spec = algorithm.build_spec(n_features, hyper)
    if not fast:
        spec = dataclasses.replace(spec, bind_batch=None)
    database = Database(page_size=PAGE_SIZE)
    database.load_table("t", spec.schema, data)
    database.warm_cache("t")
    system = DAnA(database)
    system.register_udf(algorithm_key, spec, epochs=epochs)
    accelerator = system.accelerator_for(algorithm_key, "t")
    accelerator.access_engine.use_bulk_walk = fast
    start = time.perf_counter()
    run = system.train(algorithm_key, "t", epochs=epochs)
    elapsed = time.perf_counter() - start
    return elapsed, run


def bench_workload(algorithm_key: str, n_features: int, n_tuples: int, epochs: int) -> dict:
    data = generate_for_algorithm(algorithm_key, n_tuples, n_features, seed=0)
    slow_s, slow_run = _train_once(algorithm_key, n_features, data, epochs, fast=False)
    fast_s, fast_run = _train_once(algorithm_key, n_features, data, epochs, fast=True)

    # The two paths must be the same computation before speed means anything.
    for name, value in slow_run.models.items():
        np.testing.assert_allclose(fast_run.models[name], value, rtol=1e-9)
    assert fast_run.engine_stats == slow_run.engine_stats, "cycle counters diverged"
    assert fast_run.access_stats == slow_run.access_stats, "access stats diverged"

    processed = n_tuples * epochs
    return {
        "workload": algorithm_key,
        "n_tuples": n_tuples,
        "n_features": n_features,
        "epochs": epochs,
        "per_tuple_seconds": round(slow_s, 6),
        "batched_seconds": round(fast_s, 6),
        "per_tuple_tuples_per_sec": round(processed / slow_s, 1),
        "batched_tuples_per_sec": round(processed / fast_s, 1),
        "speedup": round(slow_s / fast_s, 2),
        "engine_cycles": fast_run.engine_stats.total_cycles,
    }


def bench_segment_sweep(
    segment_counts: list[int],
    n_tuples: int,
    n_features: int,
    epochs: int,
    merge_coefficient: int = 16,
    repeats: int = 2,
) -> list[dict]:
    """Wall-clock sweep of ``DAnA.train(..., segments=N)`` on one workload."""
    algorithm_key = "linear"
    algorithm = get_algorithm(algorithm_key)
    hyper = Hyperparameters(
        learning_rate=0.05, merge_coefficient=merge_coefficient, epochs=epochs
    )
    spec = algorithm.build_spec(n_features, hyper)
    data = generate_for_algorithm(algorithm_key, n_tuples, n_features, seed=0)
    database = Database(page_size=PAGE_SIZE)
    database.load_table("t", spec.schema, data)
    database.warm_cache("t")
    system = DAnA(database)
    system.register_udf(algorithm_key, spec, epochs=epochs)
    system.compile_udf(algorithm_key, "t")  # compile outside the timed region
    rows = []
    baseline_s = None
    baseline_loss = None
    for segments in segment_counts:
        best_s, run = None, None
        for _ in range(repeats):
            start = time.perf_counter()
            run = system.train(algorithm_key, "t", epochs=epochs, segments=segments)
            elapsed = time.perf_counter() - start
            best_s = elapsed if best_s is None else min(best_s, elapsed)
        # Every segment count must consume every tuple exactly once per epoch
        # and still learn the same regression.
        assert run.engine_stats.tuples_processed == n_tuples * epochs
        loss = algorithm.loss(data, run.models)
        if baseline_s is None:
            baseline_s, baseline_loss = best_s, loss
        assert loss <= max(baseline_loss * 1.5, 1e-6), (
            f"segments={segments} lost model quality: {loss} vs {baseline_loss}"
        )
        rows.append(
            {
                "segments": segments,
                "mode": run.cluster.mode,
                "n_tuples": n_tuples,
                "n_features": n_features,
                "epochs": epochs,
                "seconds": round(best_s, 6),
                "tuples_per_sec": round(n_tuples * epochs / best_s, 1),
                "wall_speedup_vs_1_segment": round(baseline_s / best_s, 2),
                "critical_path_cycles": run.critical_path_cycles,
                "loss": round(loss, 8),
            }
        )
        print(
            f"segments={segments:>2} ({run.cluster.mode:8s})  "
            f"{rows[-1]['tuples_per_sec']:>12,.0f} t/s  "
            f"wall speedup {rows[-1]['wall_speedup_vs_1_segment']:>5.2f}x  "
            f"critical cycles {run.critical_path_cycles:,}"
        )
    return rows


def bench_pipeline_sweep(
    n_tuples: int,
    n_features: int,
    epochs: int,
    segments: int = 4,
    merge_coefficient: int = 16,
    repeats: int = 3,
) -> list[dict]:
    """Overlap on/off × staleness sweep of the pipelined epoch runtime.

    All configurations run the ``threads`` execution mode — the one that
    pays a real pool-dispatch barrier per merge — so the sweep isolates
    what the pipeline runtime buys: streaming extraction overlap and fewer
    / overlapped cross-segment merges.  Row 0 (overlap off, staleness 1)
    is the fully barriered PR-2 behaviour every other row is normalised to.
    """
    algorithm_key = "linear"
    algorithm = get_algorithm(algorithm_key)
    hyper = Hyperparameters(
        learning_rate=0.05, merge_coefficient=merge_coefficient, epochs=epochs
    )
    spec = algorithm.build_spec(n_features, hyper)
    data = generate_for_algorithm(algorithm_key, n_tuples, n_features, seed=0)
    database = Database(page_size=PAGE_SIZE)
    database.load_table("t", spec.schema, data)
    database.warm_cache("t")
    system = DAnA(database)
    system.register_udf(algorithm_key, spec, epochs=epochs)
    system.compile_udf(algorithm_key, "t")  # compile outside the timed region
    configs = [
        dict(stream=stream, sync="stale_synchronous", staleness=staleness)
        for stream in (False, True)
        for staleness in (1, 2, 8)
    ]
    rows = []
    baseline_s = None
    baseline_loss = None
    for config in configs:
        best_s, run = None, None
        for _ in range(repeats):
            start = time.perf_counter()
            run = system.train(
                algorithm_key,
                "t",
                epochs=epochs,
                segments=segments,
                execution="threads",
                **config,
            )
            elapsed = time.perf_counter() - start
            best_s = elapsed if best_s is None else min(best_s, elapsed)
        assert run.engine_stats.tuples_processed == n_tuples * epochs
        loss = algorithm.loss(data, run.models)
        if baseline_s is None:
            baseline_s, baseline_loss = best_s, loss
        # Relaxing synchronization must never cost real model quality.
        assert loss <= max(baseline_loss * 1.5, 1e-6), (
            f"{config} lost model quality: {loss} vs BSP {baseline_loss}"
        )
        rows.append(
            {
                **config,
                "segments": segments,
                "n_tuples": n_tuples,
                "epochs": epochs,
                "merges_performed": run.cluster.merges_performed,
                "seconds": round(best_s, 6),
                "tuples_per_sec": round(n_tuples * epochs / best_s, 1),
                "speedup_vs_barriered": round(baseline_s / best_s, 3),
                "loss": round(loss, 8),
            }
        )
        print(
            f"stream={str(config['stream']):5s} sync={config['sync']:<18s} "
            f"staleness={config['staleness']}  {rows[-1]['seconds']*1e3:8.1f} ms  "
            f"speedup {rows[-1]['speedup_vs_barriered']:>5.2f}x  "
            f"merges {run.cluster.merges_performed}  loss {loss:.6f}"
        )
    return rows


def bench_process_sweep(
    segment_counts: list[int],
    n_tuples: int,
    n_features: int,
    epochs: int,
    repeats: int = 2,
) -> dict:
    """Process-pool execution vs the in-process threads mode, same computation.

    Sweeps ``DAnA.train(..., execution="processes")`` against the
    ``threads`` baseline at each segment count.  The two modes must be
    **bit-identical** — models and schedule-derived counters — before any
    timing is recorded; the wall-clock comparison then isolates what one
    OS process per segment buys (no GIL contention on the tape evaluation)
    against what it costs (worker spawn, shared-page export, per-window
    pickled state over pipes — recorded per row as ``ipc_bytes`` /
    ``ipc_round_trips``).

    Wall speedups only mean something on multicore hosts: on one core the
    compute serialises either way and the process path can only add its
    overheads, which is why every sweep is stamped with ``host_cores`` and
    the CI gate skips below 2 cores.
    """
    algorithm_key = "linear"
    algorithm = get_algorithm(algorithm_key)
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=16, epochs=epochs)
    spec = algorithm.build_spec(n_features, hyper)
    data = generate_for_algorithm(algorithm_key, n_tuples, n_features, seed=0)
    database = Database(page_size=PAGE_SIZE)
    database.load_table("t", spec.schema, data)
    database.warm_cache("t")
    system = DAnA(database)
    system.register_udf(algorithm_key, spec, epochs=epochs)
    system.compile_udf(algorithm_key, "t")  # compile outside the timed region

    def timed_train(execution: str, segments: int):
        best_s, run = None, None
        for _ in range(repeats):
            start = time.perf_counter()
            run = system.train(
                algorithm_key, "t", epochs=epochs,
                segments=segments, execution=execution,
            )
            elapsed = time.perf_counter() - start
            best_s = elapsed if best_s is None else min(best_s, elapsed)
        return best_s, run

    rows = []
    for segments in segment_counts:
        threads_s, threads_run = timed_train("threads", segments)
        process_s, process_run = timed_train("processes", segments)
        # Parity first: the process pool must be the same computation as
        # the in-process oracle, bit for bit.
        for name, value in threads_run.models.items():
            np.testing.assert_array_equal(process_run.models[name], value)
        assert process_run.engine_stats == threads_run.engine_stats, (
            f"segments={segments}: process engine counters diverged"
        )
        assert process_run.access_stats == threads_run.access_stats, (
            f"segments={segments}: process access counters diverged"
        )
        assert process_run.engine_stats.tuples_processed == n_tuples * epochs
        ipc = process_run.cluster.ipc
        rows.append(
            {
                "segments": segments,
                "n_tuples": n_tuples,
                "n_features": n_features,
                "epochs": epochs,
                "threads_seconds": round(threads_s, 6),
                "process_seconds": round(process_s, 6),
                "speedup_vs_threads": round(threads_s / process_s, 3),
                "tuples_per_sec": round(n_tuples * epochs / process_s, 1),
                "ipc_bytes": ipc.bytes_shipped,
                "ipc_round_trips": ipc.round_trips,
                "loss": round(algorithm.loss(data, process_run.models), 8),
            }
        )
        print(
            f"segments={segments:>2}  threads {threads_s*1e3:8.1f} ms  "
            f"processes {process_s*1e3:8.1f} ms  "
            f"speedup {rows[-1]['speedup_vs_threads']:>5.2f}x  "
            f"ipc {ipc.bytes_shipped:,} B / {ipc.round_trips} round trips"
        )
    return {
        "description": (
            "Process-parallel segment execution (one OS worker per segment "
            "over shared-memory heap pages) vs the in-process threads mode: "
            "bit-identical models and counters asserted at every segment "
            "count before timing; speedups are threads/processes wall-clock "
            "at the same segment count and only mean something when "
            "host_cores > 1"
        ),
        "rows": rows,
        **_host_metadata(),
    }


def bench_serving_sweep(
    n_tuples: int,
    n_features: int,
    segment_counts: list[int],
    batch_sizes: list[int],
    repeats: int = 2,
    server_requests: int = 1024,
) -> dict:
    """Scan-and-score sweep: micro-batch size x segments, batched vs per-tuple.

    The per-tuple forward-pass oracle (one :class:`HDFGEvaluator` walk per
    tuple, the serving twin of the seed training path) is the baseline every
    batched configuration is normalised to.  Predictions must be
    bit-identical across paths — and across the registry round trip —
    before speed means anything.
    """
    from repro.perf import ScoreRunCost

    algorithm_key = "linear"
    algorithm = get_algorithm(algorithm_key)
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=16, epochs=2)
    spec = algorithm.build_spec(n_features, hyper)
    data = generate_for_algorithm(algorithm_key, n_tuples, n_features, seed=0)
    database = Database(page_size=PAGE_SIZE)
    database.load_table("t", spec.schema, data)
    database.warm_cache("t")
    system = DAnA(database)
    system.register_udf(algorithm_key, spec, epochs=2)
    models = system.train(algorithm_key, "t", epochs=2).models

    # Registry round trip must be bit-identical (models and predictions).
    system.save_model("bench_model", algorithm_key, models)
    loaded = system.load_model("bench_model")
    for name, value in models.items():
        np.testing.assert_array_equal(loaded[name], np.asarray(value, np.float64))
    from_memory = system.score_table(algorithm_key, "t", models=models)
    from_registry = system.score_table(algorithm_key, "t", model_name="bench_model")
    np.testing.assert_array_equal(from_memory.predictions, from_registry.predictions)

    def timed_score(**kwargs):
        best_s, result = None, None
        for _ in range(repeats):
            start = time.perf_counter()
            result = system.score_table(algorithm_key, "t", models=models, **kwargs)
            elapsed = time.perf_counter() - start
            best_s = elapsed if best_s is None else min(best_s, elapsed)
        return best_s, result

    # Baseline: the per-tuple forward-pass oracle, single segment.
    oracle_s, oracle = timed_score(path="per_tuple", segments=1)
    per_tuple = {
        "path": "per_tuple",
        "segments": 1,
        "n_tuples": n_tuples,
        "seconds": round(oracle_s, 6),
        "tuples_per_sec": round(n_tuples / oracle_s, 1),
        "inference_cycles_per_tuple": round(
            ScoreRunCost.from_result(oracle).inference_cycles_per_tuple, 2
        ),
    }
    print(
        f"per-tuple oracle      {per_tuple['tuples_per_sec']:>12,.0f} t/s  "
        f"(baseline)"
    )
    rows = []
    for segments in segment_counts:
        for batch_size in batch_sizes:
            best_s, result = timed_score(
                path="batched", segments=segments, batch_size=batch_size
            )
            # Batched predictions must match the oracle bit-for-bit.
            np.testing.assert_array_equal(result.predictions, oracle.predictions)
            cost = ScoreRunCost.from_result(result)
            rows.append(
                {
                    "path": "batched",
                    "segments": segments,
                    "batch_size": batch_size,
                    "n_tuples": n_tuples,
                    "seconds": round(best_s, 6),
                    "tuples_per_sec": round(n_tuples / best_s, 1),
                    "speedup_vs_per_tuple": round(oracle_s / best_s, 2),
                    "inference_cycles_per_tuple": round(
                        cost.inference_cycles_per_tuple, 2
                    ),
                    "critical_path_cycles": cost.critical_path_cycles,
                }
            )
            print(
                f"segments={segments:>2} batch={batch_size:>5}  "
                f"{rows[-1]['tuples_per_sec']:>12,.0f} t/s  "
                f"speedup {rows[-1]['speedup_vs_per_tuple']:>7.2f}x  "
                f"{rows[-1]['inference_cycles_per_tuple']:.1f} cycles/tuple"
            )

    # Micro-batching server: throughput vs tail latency across batch bounds.
    microbatch = []
    request_rows = data[:server_requests]
    for max_batch in (1, 16, 64):
        with system.serve(
            algorithm_key, models=models, max_batch_size=max_batch, max_wait_ms=1.0
        ) as server:
            futures = [server.submit(row) for row in request_rows]
            for f in futures:
                f.result(timeout=60)
        stats = server.stats
        microbatch.append(
            {
                "max_batch_size": max_batch,
                "requests": stats.requests,
                "batches": stats.batches,
                "mean_batch_size": round(stats.mean_batch_size, 1),
                "requests_per_sec": round(stats.requests_per_second, 1),
                "p50_latency_ms": round(stats.p50_latency_ms, 3),
                "p99_latency_ms": round(stats.p99_latency_ms, 3),
            }
        )
        print(
            f"server max_batch={max_batch:>3}  "
            f"{microbatch[-1]['requests_per_sec']:>10,.0f} req/s  "
            f"p50 {microbatch[-1]['p50_latency_ms']:>6.2f} ms  "
            f"p99 {microbatch[-1]['p99_latency_ms']:>6.2f} ms"
        )
    return {
        "description": (
            "Scan-and-score sweep (micro-batch size x segments) on the "
            "synthetic linear workload: batched inference tape vs the "
            "per-tuple forward-pass oracle, plus the micro-batching "
            "prediction server's throughput/latency tradeoff"
        ),
        "per_tuple_baseline": per_tuple,
        "rows": rows,
        "microbatch": microbatch,
        **_host_metadata(),
    }


def bench_sql_serving_sweep(
    n_tuples: int,
    n_features: int,
    segment_counts: list[int],
    repeats: int = 3,
) -> dict:
    """SQL surface + streaming scan-and-score sweep.

    Drives the whole serving loop through SQL (``CREATE MODEL`` →
    ``SELECT dana.predict(...)``) and sweeps streaming vs materialized
    scan-and-score.  Three invariants are asserted before anything is
    recorded:

    * SQL predictions are bit-identical to ``DAnA.score_table``;
    * streaming predictions and counters are bit-identical to the
      materialized oracle at every segment count;
    * the modelled pipelined critical path (``max(extract, forward)`` per
      segment) beats the serial one — the schedule-derived speedup the
      CI ``--min-streaming-score-speedup`` gate holds, which is
      deterministic and host-independent (measured wall seconds are
      recorded alongside for transparency; real-thread overlap needs
      multiple cores, which CI runners and laptops have but the modelled
      FPGA pipeline does not depend on).
    """
    from repro.perf import ScoreRunCost

    algorithm_key = "linear"
    algorithm = get_algorithm(algorithm_key)
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=16, epochs=2)
    spec = algorithm.build_spec(n_features, hyper)
    data = generate_for_algorithm(algorithm_key, n_tuples, n_features, seed=0)
    database = Database(page_size=PAGE_SIZE)
    database.load_table("t", spec.schema, data)
    database.warm_cache("t")
    system = DAnA(database)
    system.register_udf(algorithm_key, spec, epochs=2)

    # Train + persist through SQL, not the Python API.
    created = database.execute(
        "CREATE MODEL sql_model AS TRAIN linear ON t WITH (epochs => 2)"
    )
    assert created.rows[0][:2] == ("sql_model", 1)

    # SQL predictions must be bit-identical to the Python serving API.
    direct = system.score_table(algorithm_key, "t", model_name="sql_model")
    start = time.perf_counter()
    via_sql = database.execute("SELECT dana.predict('sql_model') FROM t")
    sql_seconds = time.perf_counter() - start
    np.testing.assert_array_equal(
        np.array([row[0] for row in via_sql.rows]), direct.predictions
    )
    print(
        f"SQL predict: {len(via_sql)} rows in {sql_seconds*1e3:.1f}ms, "
        f"bit-identical to score_table"
    )

    def timed_score(stream: bool, segments: int):
        best_s, result = None, None
        for _ in range(repeats):
            start = time.perf_counter()
            result = system.score_table(
                algorithm_key, "t", model_name="sql_model",
                segments=segments, stream=stream,
            )
            elapsed = time.perf_counter() - start
            best_s = elapsed if best_s is None else min(best_s, elapsed)
        return best_s, result

    rows = []
    best_modelled_speedup = 0.0
    for segments in segment_counts:
        mat_s, materialized = timed_score(stream=False, segments=segments)
        stream_s, streamed = timed_score(stream=True, segments=segments)
        # Streaming must be the same computation as the materialized oracle.
        np.testing.assert_array_equal(
            streamed.predictions, materialized.predictions
        )
        assert streamed.inference_stats == materialized.inference_stats, (
            "streaming diverged from the materialized counters"
        )
        cost_stream = ScoreRunCost.from_result(streamed)
        cost_mat = ScoreRunCost.from_result(materialized)
        modelled_speedup = (
            cost_mat.wall_cycles / cost_stream.wall_cycles
            if cost_stream.wall_cycles
            else 0.0
        )
        best_modelled_speedup = max(best_modelled_speedup, modelled_speedup)
        rows.append(
            {
                "segments": segments,
                "n_tuples": n_tuples,
                "materialized_seconds": round(mat_s, 6),
                "streaming_seconds": round(stream_s, 6),
                "measured_wall_speedup": round(mat_s / stream_s, 3),
                "serial_critical_path_cycles": cost_mat.wall_cycles,
                "pipelined_critical_path_cycles": cost_stream.wall_cycles,
                "modelled_streaming_speedup": round(modelled_speedup, 3),
                "modelled_streaming_seconds": cost_stream.seconds(),
                "modelled_materialized_seconds": cost_mat.seconds(),
            }
        )
        print(
            f"segments={segments:>2}  modelled streaming speedup "
            f"{modelled_speedup:>5.2f}x (serial {cost_mat.wall_cycles} -> "
            f"pipelined {cost_stream.wall_cycles} cycles), measured wall "
            f"{rows[-1]['measured_wall_speedup']:.2f}x on "
            f"{os.cpu_count()} host core(s)"
        )
    return {
        "description": (
            "SQL serving surface (CREATE MODEL -> SELECT dana.predict) + "
            "streaming scan-and-score vs the materialized oracle: "
            "bit-identical predictions asserted; the modelled speedup is "
            "the schedule-derived pipelined critical path "
            "(max(extract, forward) per segment) over the serial one, "
            "host-independent; measured host wall seconds recorded "
            "alongside (real-thread overlap needs >1 core)"
        ),
        "sql_predict_seconds": round(sql_seconds, 6),
        "rows": rows,
        "best_modelled_streaming_speedup": round(best_modelled_speedup, 3),
        **_host_metadata(),
    }


def bench_reliability_sweep(
    n_tuples: int,
    n_features: int,
    segments: int = 2,
    repeats: int = 40,
) -> dict:
    """Fault-tolerance overhead sweep on the batched scan-and-score path.

    Three configurations of the same scoring computation:

    * ``baseline`` — injection off, no retry supervision (the hot path is
      one module-global load + is-None check per fault site);
    * ``retry_armed`` — a :class:`~repro.reliability.RetryPolicy` is
      supervising every segment but no fault fires; the overhead of the
      armed reliability machinery is the number the
      ``--max-reliability-overhead`` CI gate bounds;
    * ``chaos_recovery`` — a seeded :class:`~repro.reliability.FaultPlan`
      injects transient faults that retries absorb; recorded for the
      recovery-cost trajectory, not gated.

    All three must produce bit-identical predictions, and the fault-free
    pair identical schedule-derived counters, before timing means
    anything.  The overhead estimate is the **median of per-pair time
    ratios** over ``repeats`` adjacent (baseline, retry-armed) pairs,
    with the in-pair order alternating each iteration and the cyclic GC
    paused: host drift is slow relative to one pair, so it cancels
    inside each ratio, and the median discards the pairs a scheduler
    hiccup landed in.  The CI gate compares the allowance against the
    one-sided 95% lower confidence bound of that median (the sign-test
    order statistic), not the point estimate — per-run wall times on
    busy hosts swing far more than the ~0% signal this gate bounds, so
    the gate trips only when the regression is statistically real, while
    staying sharp on quiet CI runners where the bound hugs the median.
    The reported ms figures are the per-configuration minima (the usual
    floor estimate).
    """
    from repro.reliability import FaultPlan, RetryPolicy

    algorithm_key = "linear"
    algorithm = get_algorithm(algorithm_key)
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=16, epochs=2)
    spec = algorithm.build_spec(n_features, hyper)
    data = generate_for_algorithm(algorithm_key, n_tuples, n_features, seed=0)
    database = Database(page_size=PAGE_SIZE)
    database.load_table("t", spec.schema, data)
    database.warm_cache("t")
    system = DAnA(database)
    system.register_udf(algorithm_key, spec, epochs=2)
    models = system.train(algorithm_key, "t", epochs=2).models

    retry = RetryPolicy(max_attempts=3, backoff_s=0.0)

    def score(**kwargs):
        return system.score_table(
            algorithm_key, "t", models=models, segments=segments, **kwargs
        )

    # Warm every code path once (compilation, plan caches) before timing.
    baseline = score()
    retry_armed = score(retry=retry)
    np.testing.assert_array_equal(baseline.predictions, retry_armed.predictions)
    assert baseline.inference_stats == retry_armed.inference_stats, (
        "armed-but-idle retry supervision changed the scoring counters"
    )

    timings = {"baseline": None, "retry_armed": None}
    configs = [("baseline", {}), ("retry_armed", {"retry": retry})]
    ratios = []
    # Alternate which configuration runs first each iteration (so periodic
    # host work cannot alias with one of them) and pause the cyclic GC (a
    # collection landing inside one timed run would be charged to whichever
    # configuration happened to trigger it).
    gc.collect()
    gc.disable()
    try:
        for iteration in range(repeats):
            order = configs if iteration % 2 == 0 else configs[::-1]
            pair = {}
            for name, kwargs in order:
                start = time.perf_counter()
                score(**kwargs)
                elapsed = time.perf_counter() - start
                pair[name] = elapsed
                if timings[name] is None or elapsed < timings[name]:
                    timings[name] = elapsed
            ratios.append(pair["retry_armed"] / pair["baseline"])
    finally:
        gc.enable()

    from repro.reliability import inject_faults

    plan = FaultPlan.transient(
        ("serving.scorer.segment", 1),
        ("runtime.batch_source.producer", 2),
    )
    chaos_s, chaos = None, None
    for _ in range(max(2, repeats // 2)):
        with inject_faults(plan):
            start = time.perf_counter()
            chaos = score(retry=retry)
            elapsed = time.perf_counter() - start
        chaos_s = elapsed if chaos_s is None else min(chaos_s, elapsed)
    # The recovered run is the same computation, bit for bit.
    np.testing.assert_array_equal(baseline.predictions, chaos.predictions)
    assert chaos.retry.faults >= 2, "the chaos plan failed to fire"

    overhead = statistics.median(ratios) - 1.0
    # One-sided 95% lower confidence bound on the median ratio: with the
    # true median, the count of pairs below it is Binomial(n, 1/2), so the
    # k-th order statistic with k = n/2 - 1.645*sqrt(n)/2 bounds it from
    # below at the 95% level.  This is what the CI gate tests against.
    ordered = sorted(ratios)
    k = max(0, math.floor(len(ordered) / 2 - 1.645 * math.sqrt(len(ordered)) / 2))
    overhead_lower_bound = ordered[k] - 1.0
    report = {
        "description": (
            "Fault-tolerance overhead on the batched scan-and-score path: "
            "injection off vs armed-but-idle retry supervision (gated by "
            "--max-reliability-overhead) vs seeded chaos recovery "
            "(bit-identical predictions asserted for all three)"
        ),
        "n_tuples": n_tuples,
        "segments": segments,
        "baseline_seconds": round(timings["baseline"], 6),
        "retry_armed_seconds": round(timings["retry_armed"], 6),
        "reliability_overhead": round(overhead, 4),
        "reliability_overhead_lower_95": round(overhead_lower_bound, 4),
        "overhead_pairs": repeats,
        "chaos_recovery_seconds": round(chaos_s, 6),
        "chaos_faults_injected": chaos.retry.faults,
        "chaos_retries": chaos.retry.retries,
        **_host_metadata(),
    }
    print(
        f"reliability: baseline {timings['baseline']*1e3:8.1f} ms  "
        f"retry-armed {timings['retry_armed']*1e3:8.1f} ms  "
        f"overhead {overhead*100:+.2f}% "
        f"(median of {repeats} pairs, 95% lower bound "
        f"{overhead_lower_bound*100:+.2f}%)  "
        f"chaos recovery {chaos_s*1e3:8.1f} ms "
        f"({chaos.retry.faults} faults retried)"
    )
    return report


def bench_observability_sweep(
    n_tuples: int,
    n_features: int,
    segments: int = 2,
    repeats: int = 40,
) -> dict:
    """Telemetry overhead sweep on the batched scan-and-score path.

    Two configurations of the same scoring computation:

    * ``baseline`` — telemetry disarmed (every instrumentation site is
      one module-global load + is-None check, the ``fault_point``
      discipline);
    * ``telemetry_armed`` — a :class:`~repro.obs.Telemetry` session is
      active, so every site opens a span and the serving path feeds the
      shared histograms; this is the number the
      ``--max-observability-overhead`` CI gate bounds.

    Both configurations must produce bit-identical predictions and
    identical schedule-derived counters before timing means anything —
    spans are wall-clock observers, never inputs to the computation.
    The estimator and gate statistic are the same as the reliability
    sweep: median of per-pair time ratios over ``repeats`` adjacent
    pairs (in-pair order alternating, cyclic GC paused), gated on the
    one-sided 95% lower confidence bound of that median.
    """
    from repro.obs import Telemetry, enable_telemetry

    algorithm_key = "linear"
    algorithm = get_algorithm(algorithm_key)
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=16, epochs=2)
    spec = algorithm.build_spec(n_features, hyper)
    data = generate_for_algorithm(algorithm_key, n_tuples, n_features, seed=0)
    database = Database(page_size=PAGE_SIZE)
    database.load_table("t", spec.schema, data)
    database.warm_cache("t")
    system = DAnA(database)
    system.register_udf(algorithm_key, spec, epochs=2)
    models = system.train(algorithm_key, "t", epochs=2).models

    def score():
        return system.score_table(
            algorithm_key, "t", models=models, segments=segments
        )

    def score_armed():
        # A fresh session per run: per-run cost stays constant instead of
        # the span list growing across iterations.
        with enable_telemetry(Telemetry()) as session:
            result = score()
        return result, session

    # Warm every code path once, then assert the parity invariant.
    baseline = score()
    armed, session = score_armed()
    np.testing.assert_array_equal(baseline.predictions, armed.predictions)
    assert baseline.inference_stats == armed.inference_stats, (
        "armed telemetry changed the scoring counters"
    )
    spans_per_run = len(session.tracer)
    assert spans_per_run >= segments, "the scorer spans did not fire"

    timings = {"baseline": None, "telemetry_armed": None}
    configs = [("baseline", score), ("telemetry_armed", lambda: score_armed()[0])]
    ratios = []
    gc.collect()
    gc.disable()
    try:
        for iteration in range(repeats):
            order = configs if iteration % 2 == 0 else configs[::-1]
            pair = {}
            for name, run in order:
                start = time.perf_counter()
                run()
                elapsed = time.perf_counter() - start
                pair[name] = elapsed
                if timings[name] is None or elapsed < timings[name]:
                    timings[name] = elapsed
            ratios.append(pair["telemetry_armed"] / pair["baseline"])
    finally:
        gc.enable()

    overhead = statistics.median(ratios) - 1.0
    ordered = sorted(ratios)
    k = max(0, math.floor(len(ordered) / 2 - 1.645 * math.sqrt(len(ordered)) / 2))
    overhead_lower_bound = ordered[k] - 1.0
    report = {
        "description": (
            "Telemetry overhead on the batched scan-and-score path: "
            "disarmed (is-None check per site) vs an armed span/metrics "
            "session (gated by --max-observability-overhead); "
            "bit-identical predictions and counters asserted first"
        ),
        "n_tuples": n_tuples,
        "segments": segments,
        "baseline_seconds": round(timings["baseline"], 6),
        "telemetry_armed_seconds": round(timings["telemetry_armed"], 6),
        "observability_overhead": round(overhead, 4),
        "observability_overhead_lower_95": round(overhead_lower_bound, 4),
        "overhead_pairs": repeats,
        "spans_per_run": spans_per_run,
        **_host_metadata(),
    }
    print(
        f"observability: baseline {timings['baseline']*1e3:8.1f} ms  "
        f"telemetry-armed {timings['telemetry_armed']*1e3:8.1f} ms  "
        f"overhead {overhead*100:+.2f}% "
        f"(median of {repeats} pairs, 95% lower bound "
        f"{overhead_lower_bound*100:+.2f}%)  "
        f"{spans_per_run} spans per run"
    )
    return report


def bench_explain_analyze_sweep(
    n_tuples: int,
    n_features: int,
    segments: int = 2,
    repeats: int = 40,
) -> dict:
    """``EXPLAIN ANALYZE`` overhead sweep on the SQL scoring statement.

    Two executions of the same ``dana.score`` statement:

    * ``baseline`` — the bare statement through ``Database.execute``;
    * ``explain_analyze`` — the statement wrapped in ``EXPLAIN ANALYZE``,
      which additionally builds the costed plan tree, runs the statement
      inside a :class:`~repro.obs.StatementTrace`, and annotates every
      operator with its measured side.

    The wrapped statement's inner result must be bit-identical to the
    bare one before timing means anything.  The estimator and gate
    statistic mirror :func:`bench_observability_sweep` (median of
    per-pair ratios, one-sided 95% lower confidence bound), and CI
    bounds the overhead with the same ``--max-observability-overhead``
    gate — statement tracing is observability, so it obeys the same
    budget.
    """
    algorithm_key = "linear"
    algorithm = get_algorithm(algorithm_key)
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=16, epochs=2)
    spec = algorithm.build_spec(n_features, hyper)
    data = generate_for_algorithm(algorithm_key, n_tuples, n_features, seed=0)
    database = Database(page_size=PAGE_SIZE)
    database.load_table("t", spec.schema, data)
    database.warm_cache("t")
    system = DAnA(database)
    system.register_udf(algorithm_key, spec, epochs=2)
    run = system.train(algorithm_key, "t", epochs=2)
    system.save_model("m", algorithm_key, run.models)

    sql = f"SELECT * FROM dana.score('m', 't', segments => {segments})"

    def bare():
        return database.execute(sql)

    def explained():
        return database.execute("EXPLAIN ANALYZE " + sql)

    # Warm both paths once, then assert the bit-identity invariant.
    baseline = bare()
    report_result = explained()
    assert report_result.payload.result.rows == baseline.rows, (
        "EXPLAIN ANALYZE changed the statement's result"
    )

    timings = {"baseline": None, "explain_analyze": None}
    configs = [("baseline", bare), ("explain_analyze", explained)]
    ratios = []
    gc.collect()
    gc.disable()
    try:
        for iteration in range(repeats):
            order = configs if iteration % 2 == 0 else configs[::-1]
            pair = {}
            for name, runner in order:
                start = time.perf_counter()
                runner()
                elapsed = time.perf_counter() - start
                pair[name] = elapsed
                if timings[name] is None or elapsed < timings[name]:
                    timings[name] = elapsed
            ratios.append(pair["explain_analyze"] / pair["baseline"])
    finally:
        gc.enable()

    overhead = statistics.median(ratios) - 1.0
    ordered = sorted(ratios)
    k = max(0, math.floor(len(ordered) / 2 - 1.645 * math.sqrt(len(ordered)) / 2))
    overhead_lower_bound = ordered[k] - 1.0
    report = {
        "description": (
            "EXPLAIN ANALYZE overhead on the SQL scoring statement: bare "
            "execution vs plan build + statement trace + annotation "
            "(gated by --max-observability-overhead); bit-identical "
            "inner result asserted first"
        ),
        "n_tuples": n_tuples,
        "segments": segments,
        "baseline_seconds": round(timings["baseline"], 6),
        "explain_analyze_seconds": round(timings["explain_analyze"], 6),
        "explain_analyze_overhead": round(overhead, 4),
        "explain_analyze_overhead_lower_95": round(overhead_lower_bound, 4),
        "overhead_pairs": repeats,
        **_host_metadata(),
    }
    print(
        f"explain-analyze: baseline {timings['baseline']*1e3:8.1f} ms  "
        f"explain-analyze {timings['explain_analyze']*1e3:8.1f} ms  "
        f"overhead {overhead*100:+.2f}% "
        f"(median of {repeats} pairs, 95% lower bound "
        f"{overhead_lower_bound*100:+.2f}%)"
    )
    return report


def run_suite(sizes: list[int], epochs: int) -> dict:
    rows = []
    for algorithm_key, n_features in WORKLOADS:
        for n_tuples in sizes:
            row = bench_workload(algorithm_key, n_features, n_tuples, epochs)
            rows.append(row)
            print(
                f"{row['workload']:>9} n={row['n_tuples']:>6}  "
                f"per-tuple {row['per_tuple_tuples_per_sec']:>10,.0f} t/s  "
                f"batched {row['batched_tuples_per_sec']:>11,.0f} t/s  "
                f"speedup {row['speedup']:>6.1f}x"
            )
    speedups = [row["speedup"] for row in rows]
    geomean = float(np.exp(np.mean(np.log(speedups))))
    return {
        "benchmark": "throughput_scaling",
        "description": (
            "End-to-end tuples/sec (page extraction + training) on fig9-style "
            "synthetic workloads: batched tape pipeline vs per-tuple seed path"
        ),
        "page_size": PAGE_SIZE,
        "rows": rows,
        "geomean_speedup": round(geomean, 2),
        **_host_metadata(),
    }


def bench_refresh_sweep(
    table_sizes: list[int],
    delta: int,
    n_features: int = 16,
    epochs: int = 3,
) -> dict:
    """Incremental-refresh cost vs table size, at a **fixed** insert delta.

    For each table size: bulk-load the base, train and save a watermarked
    model, ``INSERT`` the same ``delta`` rows, then ``refresh_model``.
    The refresh warm-starts from the saved parameters and scans only the
    heap pages past the watermark, so its cost must track the *delta*,
    not the table — the point of online training over live tables.

    The gate statistic is **schedule-derived**: the refresh run's engine
    cycles across table sizes must stay within ``max/min <=
    --max-refresh-cost-ratio`` (deterministic on any host; the only
    wiggle is the restamped tail page, whose slack depends on how full
    the base left it).  Measured wall seconds and the full-train cycle
    counts are recorded alongside for the scaling story.
    """
    algorithm_key = "linear"
    algorithm = get_algorithm(algorithm_key)
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=16, epochs=epochs)
    rows = []
    for n_tuples in table_sizes:
        spec = algorithm.build_spec(n_features, hyper)
        data = generate_for_algorithm(
            algorithm_key, n_tuples + delta, n_features, seed=0
        )
        database = Database(page_size=PAGE_SIZE)
        database.load_table("t", spec.schema, data[:n_tuples])
        database.warm_cache("t")
        system = DAnA(database)
        system.register_udf(algorithm_key, spec, epochs=epochs)
        train_run = system.train(algorithm_key, "t", epochs=epochs)
        system.save_model(
            "m",
            algorithm_key,
            train_run.models,
            metadata={"trained_on": "t"},
            watermark=train_run.snapshot_lsn,
        )
        database.insert_rows("t", data[n_tuples:])
        start = time.perf_counter()
        refresh = system.refresh_model("m", epochs=epochs)
        refresh_s = time.perf_counter() - start
        assert refresh.refreshed, "the delta must trigger a real refresh"
        heap = database.table("t")
        # Page-granular scan set: the delta plus at most one restamped
        # tail page of pre-watermark rows.
        assert refresh.tuples_trained <= delta + heap.tuples_per_page()
        assert refresh.tuples_trained >= delta
        rows.append(
            {
                "n_tuples": n_tuples,
                "delta": delta,
                "n_features": n_features,
                "epochs": epochs,
                "refresh_seconds": round(refresh_s, 6),
                "refresh_tuples_trained": refresh.tuples_trained,
                "refresh_pages_trained": refresh.pages_trained,
                "refresh_engine_cycles": refresh.run.engine_stats.total_cycles,
                "train_engine_cycles": train_run.engine_stats.total_cycles,
                "train_to_refresh_cycle_ratio": round(
                    train_run.engine_stats.total_cycles
                    / refresh.run.engine_stats.total_cycles,
                    2,
                ),
            }
        )
        print(
            f"table={n_tuples:>7,}  delta={delta:>5,}  "
            f"refresh {refresh_s*1e3:8.1f} ms  "
            f"refresh cycles {rows[-1]['refresh_engine_cycles']:>9,}  "
            f"full-train cycles {rows[-1]['train_engine_cycles']:>11,}"
        )
    cycles = [r["refresh_engine_cycles"] for r in rows]
    return {
        "description": (
            "Incremental model refresh (warm start over pages past the "
            "LSN watermark) at a fixed insert delta, across table sizes; "
            "gated on refresh engine cycles being ~invariant in the table "
            "size (cost scales with the delta, not the table)"
        ),
        "rows": rows,
        "refresh_cycle_ratio_max_over_min": round(max(cycles) / min(cycles), 3),
        **_host_metadata(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes for CI; does not overwrite BENCH_throughput.json",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="fail unless the geomean speedup reaches this factor",
    )
    parser.add_argument(
        "--min-segment-speedup",
        type=float,
        default=1.5,
        help="fail unless 4 segments beat 1 segment by this wall-clock factor",
    )
    parser.add_argument(
        "--min-pipeline-speedup",
        type=float,
        default=1.03,
        help=(
            "fail unless the pipelined runtime (streaming overlap / stale "
            "windows / overlapped merges) beats the barriered threads mode "
            "by this wall-clock factor"
        ),
    )
    parser.add_argument(
        "--min-process-speedup",
        type=float,
        default=1.5,
        help=(
            "fail unless execution='processes' beats the threads mode at "
            "4 segments by this wall-clock factor; only enforced in full "
            "on hosts with >= 4 cores (2-3 cores require near-break-even, "
            "1-core hosts skip the gate with a notice — parity is still "
            "asserted everywhere)"
        ),
    )
    parser.add_argument(
        "--min-serving-speedup",
        type=float,
        default=2.0,
        help=(
            "fail unless batched sharded scan-and-score beats the per-tuple "
            "forward-pass oracle by this wall-clock factor"
        ),
    )
    parser.add_argument(
        "--min-streaming-score-speedup",
        type=float,
        default=1.05,
        help=(
            "fail unless streaming scan-and-score beats the materialized "
            "oracle by this factor on the modelled (schedule-derived) "
            "pipelined critical path"
        ),
    )
    parser.add_argument(
        "--max-reliability-overhead",
        type=float,
        default=0.02,
        help=(
            "fail if armed-but-idle retry supervision slows the batched "
            "scan-and-score path by more than this fraction (tested "
            "against the 95%% lower confidence bound of the median "
            "per-pair ratio, so host noise cannot trip it)"
        ),
    )
    parser.add_argument(
        "--max-observability-overhead",
        type=float,
        default=0.02,
        help=(
            "fail if an armed telemetry session slows the batched "
            "scan-and-score path by more than this fraction (tested "
            "against the 95%% lower confidence bound of the median "
            "per-pair ratio, same method as the reliability gate)"
        ),
    )
    parser.add_argument(
        "--max-refresh-cost-ratio",
        type=float,
        default=1.5,
        help=(
            "fail if the incremental-refresh engine cycles (fixed insert "
            "delta) vary across table sizes by more than this max/min "
            "ratio — refresh cost must scale with the new rows, not the "
            "table (schedule-derived, so deterministic on any host)"
        ),
    )
    args = parser.parse_args()
    sizes = [512, 2048] if args.smoke else [1000, 4000, 16000]
    epochs = 2 if args.smoke else 3
    report = run_suite(sizes, epochs)
    print(f"geomean speedup: {report['geomean_speedup']:.1f}x")
    print("\nsegment sweep (sharded execution, large synthetic workload):")
    if args.smoke:
        sweep = bench_segment_sweep([1, 2, 4], n_tuples=8192, n_features=16, epochs=3)
    else:
        sweep = bench_segment_sweep(
            [1, 2, 4, 8], n_tuples=32768, n_features=32, epochs=3
        )
    report["segment_sweep"] = {
        "description": (
            "Wall-clock sweep of DAnA.train(segments=N) on the large "
            "synthetic linear workload; lock-step segment-axis execution"
        ),
        "rows": sweep,
        **_host_metadata(),
    }
    print("\npipeline sweep (pipelined epoch runtime, threads execution):")
    # Epoch-heavy shapes keep the per-epoch synchronization cost visible
    # relative to per-epoch compute — that is the regime the sync policies
    # target (the segment sweep above covers the compute-heavy regime).
    if args.smoke:
        pipeline = bench_pipeline_sweep(
            n_tuples=512, n_features=16, epochs=32, segments=4
        )
    else:
        pipeline = bench_pipeline_sweep(
            n_tuples=512, n_features=16, epochs=48, segments=4, repeats=5
        )
    report["pipeline_sweep"] = {
        "description": (
            "Pipelined epoch runtime on the barrier-heavy threads mode: "
            "extraction overlap on/off x merge staleness; "
            "speedups are vs the fully barriered stream=False/staleness=1 row"
        ),
        "rows": pipeline,
        **_host_metadata(),
    }
    print("\nprocess sweep (process-pool execution vs threads, shared pages):")
    # Worker spawn costs hundreds of ms per child, so the workload must be
    # heavy enough (seconds of compute) that the comparison measures
    # steady-state execution, not interpreter start-up.
    if args.smoke:
        process_sweep = bench_process_sweep(
            [1, 4], n_tuples=131072, n_features=32, epochs=10, repeats=1
        )
    else:
        process_sweep = bench_process_sweep(
            [1, 2, 4], n_tuples=131072, n_features=32, epochs=20
        )
    report["process_sweep"] = process_sweep
    print("\nserving sweep (scan-and-score + micro-batching server):")
    if args.smoke:
        serving = bench_serving_sweep(
            n_tuples=4096,
            n_features=16,
            segment_counts=[1, 2, 4],
            batch_sizes=[256],
            server_requests=512,
        )
    else:
        serving = bench_serving_sweep(
            n_tuples=32768,
            n_features=16,
            segment_counts=[1, 2, 4],
            batch_sizes=[64, 256, 1024],
            server_requests=2048,
        )
    report["serving_sweep"] = serving
    print("\nsql serving sweep (SQL surface + streaming scan-and-score):")
    if args.smoke:
        sql_serving = bench_sql_serving_sweep(
            n_tuples=4096, n_features=16, segment_counts=[1, 2]
        )
    else:
        sql_serving = bench_sql_serving_sweep(
            n_tuples=32768, n_features=16, segment_counts=[1, 2, 4]
        )
    report["sql_serving_sweep"] = sql_serving
    print("\nreliability sweep (fault-injection overhead, batched scoring):")
    # Same workload size in smoke mode: a run has to be long enough (tens
    # of ms) that thread spawn/join jitter cannot dominate the ~0% signal
    # the overhead gate bounds.
    reliability = bench_reliability_sweep(n_tuples=32768, n_features=16)
    report["reliability_sweep"] = reliability
    print("\nobservability sweep (telemetry overhead, batched scoring):")
    # Same full-size workload in smoke mode, for the same reason as the
    # reliability sweep: the ~0% signal needs runs long enough that
    # thread spawn/join jitter cannot dominate.
    observability = bench_observability_sweep(n_tuples=32768, n_features=16)
    report["observability_sweep"] = observability
    print("\nexplain-analyze sweep (statement-trace overhead, SQL scoring):")
    # Full-size workload in smoke mode too: the plan build + trace is a
    # fixed per-statement cost, so the statement has to be long enough
    # for the ~0% signal to be measurable at all.
    explain_analyze = bench_explain_analyze_sweep(n_tuples=32768, n_features=16)
    report["explain_analyze_sweep"] = explain_analyze
    print("\nrefresh sweep (incremental model refresh, fixed insert delta):")
    # The delta must dwarf one heap page (~100 tuples at this schema and
    # page size): the restamped tail page re-trains up to a page of
    # pre-watermark rows, and the gate ratio bound is (delta + page)/delta.
    if args.smoke:
        refresh_sweep = bench_refresh_sweep([2000, 8000], delta=512)
    else:
        refresh_sweep = bench_refresh_sweep([4000, 16000, 64000], delta=512)
    report["refresh_sweep"] = refresh_sweep
    if not args.smoke:
        RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")
    if report["geomean_speedup"] < args.min_speedup:
        raise SystemExit(
            f"geomean speedup {report['geomean_speedup']:.1f}x is below the "
            f"required {args.min_speedup:.1f}x"
        )
    # The sharded gate holds in smoke mode too (CI regressions must fail),
    # but capped at a noise-tolerant bar for the tiny smoke workload.
    required = (
        min(args.min_segment_speedup, 1.2) if args.smoke else args.min_segment_speedup
    )
    at_four = next(r for r in sweep if r["segments"] == 4)
    if at_four["wall_speedup_vs_1_segment"] < required:
        raise SystemExit(
            f"4-segment wall speedup {at_four['wall_speedup_vs_1_segment']:.2f}x "
            f"is below the required {required:.2f}x"
        )
    # The pipelined path must beat the fully barriered threads mode — in
    # smoke mode too (CI regressions must fail), at a noise-tolerant bar.
    pipeline_required = (
        min(args.min_pipeline_speedup, 1.02) if args.smoke else args.min_pipeline_speedup
    )
    # "Pipelined" = any non-barriered configuration the runtime offers
    # (streaming overlap, stale windows).  Multicore
    # hosts favour the streamed rows; single-core hosts the stale windows.
    pipelined_best = max(
        r["speedup_vs_barriered"]
        for r in pipeline
        if r["stream"] or r["staleness"] > 1
    )
    if pipelined_best < pipeline_required:
        raise SystemExit(
            f"pipelined speedup {pipelined_best:.2f}x over the barriered "
            f"threads mode is below the required {pipeline_required:.2f}x"
        )
    # Process gate: one worker process per segment must beat the
    # GIL-sharing threads mode at 4 segments — but only where the OS can
    # actually schedule the workers side by side.  On a 1-core host the
    # comparison is meaningless (the compute serialises either way and the
    # process path can only add spawn + IPC overhead), so the gate skips
    # with a notice; parity was still asserted inside the sweep.  On 2-3
    # core hosts 4 workers cannot all overlap, so break-even is the bar.
    cores = os.cpu_count() or 1
    process_at_four = next(
        (r for r in process_sweep["rows"] if r["segments"] == 4), None
    )
    if cores < 2:
        print(
            f"process-speedup gate skipped: host has {cores} core(s), "
            "process overlap is impossible (bit-identity was still asserted)"
        )
    elif process_at_four is not None:
        process_required = args.min_process_speedup
        if cores < 4:
            # 4 workers cannot all overlap on 2-3 cores and still pay the
            # full spawn bill, so near-break-even is the honest bar there.
            process_required = min(process_required, 0.9)
        if args.smoke:
            # Noise-tolerant smoke bars, same policy as the other gates.
            process_required = min(
                process_required, 1.05 if cores >= 4 else 0.7
            )
        if process_at_four["speedup_vs_threads"] < process_required:
            raise SystemExit(
                f"4-segment process speedup "
                f"{process_at_four['speedup_vs_threads']:.2f}x over the "
                f"threads mode is below the required "
                f"{process_required:.2f}x on this {cores}-core host"
            )
    # Serving gate: the batched scan-and-score must beat the per-tuple
    # forward-pass oracle — in smoke mode too (CI regressions must fail).
    serving_best = max(r["speedup_vs_per_tuple"] for r in serving["rows"])
    if serving_best < args.min_serving_speedup:
        raise SystemExit(
            f"batched scan-and-score speedup {serving_best:.2f}x over the "
            f"per-tuple oracle is below the required "
            f"{args.min_serving_speedup:.2f}x"
        )
    # Streaming gate: the pipelined (max(extract, forward)) critical path
    # must beat the serial one.  Schedule-derived, so it holds identically
    # in smoke and full mode on any host.
    streaming_best = sql_serving["best_modelled_streaming_speedup"]
    if streaming_best < args.min_streaming_score_speedup:
        raise SystemExit(
            f"modelled streaming scan-and-score speedup {streaming_best:.2f}x "
            f"over the materialized oracle is below the required "
            f"{args.min_streaming_score_speedup:.2f}x"
        )
    # Reliability gate: armed-but-idle retry supervision must be ~free on
    # the batched path (injection off is a single is-None check per site).
    # Tested against the 95% lower bound of the median pair ratio so host
    # scheduler noise cannot trip it, while a real regression still does.
    if reliability["reliability_overhead_lower_95"] > args.max_reliability_overhead:
        raise SystemExit(
            f"reliability overhead {reliability['reliability_overhead']*100:.2f}% "
            f"(95% lower bound "
            f"{reliability['reliability_overhead_lower_95']*100:.2f}%) "
            f"on the batched scan-and-score path exceeds the allowed "
            f"{args.max_reliability_overhead*100:.2f}%"
        )
    # Observability gate: an armed telemetry session must stay ~free on
    # the batched path (disarmed is a single is-None check per site, and
    # armed sites fire per batch/segment, never per tuple).  Same gate
    # statistic as the reliability gate.
    if (
        observability["observability_overhead_lower_95"]
        > args.max_observability_overhead
    ):
        raise SystemExit(
            f"observability overhead "
            f"{observability['observability_overhead']*100:.2f}% "
            f"(95% lower bound "
            f"{observability['observability_overhead_lower_95']*100:.2f}%) "
            f"on the batched scan-and-score path exceeds the allowed "
            f"{args.max_observability_overhead*100:.2f}%"
        )
    # EXPLAIN ANALYZE gate: statement tracing is observability, so the
    # plan build + trace capture + annotation must fit the same budget.
    if (
        explain_analyze["explain_analyze_overhead_lower_95"]
        > args.max_observability_overhead
    ):
        raise SystemExit(
            f"EXPLAIN ANALYZE overhead "
            f"{explain_analyze['explain_analyze_overhead']*100:.2f}% "
            f"(95% lower bound "
            f"{explain_analyze['explain_analyze_overhead_lower_95']*100:.2f}%) "
            f"on the SQL scoring statement exceeds the allowed "
            f"{args.max_observability_overhead*100:.2f}%"
        )
    # Refresh gate: at a fixed insert delta, the incremental refresh's
    # engine cycles must not grow with the table size — the warm-start
    # run scans only the pages past the LSN watermark.  Schedule-derived,
    # so it holds identically in smoke and full mode on any host; the
    # residual wiggle is the restamped tail page (how full the bulk base
    # left it varies with the table size).
    refresh_ratio = refresh_sweep["refresh_cycle_ratio_max_over_min"]
    if refresh_ratio > args.max_refresh_cost_ratio:
        raise SystemExit(
            f"incremental-refresh engine-cycle ratio {refresh_ratio:.2f}x "
            f"across table sizes exceeds the allowed "
            f"{args.max_refresh_cost_ratio:.2f}x — refresh cost is scaling "
            f"with the table, not the insert delta"
        )


if __name__ == "__main__":
    main()
