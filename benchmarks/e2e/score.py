"""``score_scan`` and ``sql_filtered_predict``: ``SELECT dana.predict(...) FROM t [WHERE]``."""

from __future__ import annotations

import statistics

import numpy as np

from repro.obs import enable_telemetry
from repro.rdbms.query import matches_row, parse
from repro.reliability import RetryPolicy
from repro.runtime import BatchSource
from repro.serving import DEFAULT_SCORE_BATCH, InferencePlan

from . import staged
from .common import MODEL, TABLE, Env, Outcome, build, report_statements
from .data import N_FEATURES, Inputs, table, where_threshold
from .spans import Tracer
from .stats import closed_loop, median_ratio, median_seconds

ROWS = {
    "score_scan": {False: 65_536, True: 4_096},
    "sql_filtered_predict": {False: 8_192, True: 1_024},
}
REPLAYS = {False: 5, True: 2}
SELECTIVITY = 0.10
#: about 120 scans fit in a run, about 35 filtered statements.
TAIL_PERCENTILE = {"score_scan": 90, "sql_filtered_predict": 75}


def generate(name: str, rng: np.random.Generator, smoke: bool) -> Inputs:
    rows = table(rng, ROWS[name][smoke], "linear")
    statement = f"SELECT dana.predict('{MODEL}') FROM {TABLE}"
    params = {"tail_percentile": TAIL_PERCENTILE[name]}
    if name == "sql_filtered_predict":
        params["threshold"] = where_threshold(rows[:, 0], 1.0 - SELECTIVITY)
        statement += f" WHERE x0 > {params['threshold']:.9f}"
    return Inputs(algorithm="linear", rows=rows, sql={"statement": statement}, params=params)


def setup(inputs: Inputs) -> Env:
    return build(inputs)


def _statement(env: Env):
    return env.db.execute(env.inputs.sql["statement"])


def _mask(env: Env) -> np.ndarray:
    threshold = env.inputs.params.get("threshold")
    if threshold is None:
        return np.ones(len(env.inputs.rows), dtype=bool)
    return env.inputs.rows[:, 0] > threshold


def check(env: Env, out: Outcome) -> float:
    """Untimed correctness pass; returns the scan's modelled cycles."""
    returned = np.array([row[0] for row in _statement(env).rows])
    oracle = env.system.score_table(env.udf, TABLE, model_name=MODEL, stream=False)
    mask = _mask(env)
    out.check(
        len(returned) == int(mask.sum()),
        f"statement returned {len(returned)} rows, the float32 mask selects {int(mask.sum())}",
    )
    out.check(
        np.array_equal(returned, oracle.predictions[mask]),
        "predictions are not bit-identical to score_table(stream=False)[mask]",
    )
    weights = env.system.load_model(MODEL)["mo"]
    out.check(
        np.allclose(oracle.predictions, env.inputs.rows[:, :N_FEATURES] @ weights, rtol=1e-9),
        "predictions are not within rtol=1e-9 of the NumPy matvec floor",
    )
    return float(oracle.critical_path_cycles)


def e2e(env: Env, seconds: float, out: Outcome) -> None:
    samples = closed_loop(lambda: _statement(env), seconds)
    report_statements(
        out, samples, len(env.inputs.rows),
        f"rows examined ({int(_mask(env).sum())} returned)",
        int(env.inputs.params["tail_percentile"]),
    )
    check(env, out)


# ---------------------------------------------------------------------- #
# traced replay
# ---------------------------------------------------------------------- #
def _sql_value(prediction: np.ndarray) -> float | list:
    """The per-row result conversion ``DAnA.sql_predict`` applies."""
    array = np.asarray(prediction)
    return float(array) if array.ndim == 0 else array.tolist()


def _replay(env: Env, tracer: Tracer, plan: InferencePlan) -> list[tuple]:
    """The predict statement rebuilt from public layer calls; returns its rows."""
    db, system = env.db, env.system
    accelerator = staged.fresh_accelerator(env)
    engine = plan.new_engine()
    with tracer.span("statement", "bench"):
        with tracer.span("rdbms.query.parse", "rdbms.query"):
            statement = parse(env.inputs.sql["statement"])
        with tracer.span("serving.registry.load", "serving"):
            models, _entry = system.registry.load(MODEL)
        as_of = db.wal.current_lsn
        images = staged.scan(tracer, env, as_of)
        rows = staged.extract(tracer, accelerator, images)
        with tracer.span("runtime.batch_source.assemble", "runtime"):
            batches = list(BatchSource.from_rows(rows).batches(DEFAULT_SCORE_BATCH))
        with tracer.span("translator.forward_tape.run", "translator.tape", runs=len(batches)):
            scored = [
                np.asarray(
                    plan.tape.run(plan.bind_predict(batch), models)[plan.forward.score_node_id],
                    dtype=np.float64,
                )
                for batch in batches
            ]
        with tracer.span("serving.inference.account", "serving"):
            for batch in batches:
                engine.account_batch(len(batch))
            predictions = np.concatenate(scored, axis=0)
        if statement.where:
            table_file = db.table(TABLE)
            with tracer.span("rdbms.heapfile.scan_tuples", "rdbms.heapfile"):
                tuples = list(table_file.scan_tuples(db.buffer_pool, as_of_lsn=as_of))
            with tracer.span("rdbms.query.matches_row", "rdbms.query", rows=len(tuples)):
                mask = np.fromiter(
                    (matches_row(table_file.schema, row, statement.where) for row in tuples),
                    dtype=bool,
                    count=len(predictions),
                )
            predictions = predictions[mask]
        with tracer.span("core.sql_result_rows", "core", rows=len(predictions)):
            result = [(_sql_value(p),) for p in predictions]
    return result


def trace(env: Env, seconds: float, tracer: Tracer, out: Outcome, smoke: bool) -> None:
    db, system, spec = env.db, env.system, env.spec
    m = out.metrics
    replays = REPLAYS[smoke]
    filtered = "threshold" in env.inputs.params
    m["hw.modelled_cycles"] = check(env, out)

    statement_s = statistics.median(
        closed_loop(lambda: _statement(env), 0.0, warmup=1, min_samples=replays).raw
    )
    expected = _statement(env).rows
    plan = InferencePlan.from_binary(system.compile_udf(env.udf, TABLE), spec)

    db.buffer_pool.reset_stats()
    for iteration in range(replays):
        tracer.iteration = iteration
        out.check(
            _replay(env, tracer, plan) == expected,
            "staged replay did not reproduce the statement's rows",
        )
    m.update(staged.pool_metrics(env))
    m.update(staged.layer_metrics(tracer, "statement", statement_s))

    table_file = db.table(TABLE)
    n_rows = len(env.inputs.rows)
    batches = -(-n_rows // DEFAULT_SCORE_BATCH)
    m.update(staged.setup_metrics(env, n_rows))
    m.update(staged.access_metrics(tracer, env))
    m["translator.forward_tape.run_us"] = (
        staged.span_seconds(tracer, "translator.forward_tape.run") / batches * 1e6
    )
    m["runtime.batch_source.assemble_us_per_batch"] = (
        staged.span_seconds(tracer, "runtime.batch_source.assemble") / batches * 1e6
    )
    m["serving.registry.load_ms"] = staged.span_seconds(tracer, "serving.registry.load") * 1e3

    def score_table(**kwargs):
        return system.score_table(env.udf, TABLE, model_name=MODEL, **kwargs)

    score_table_s = median_seconds(score_table, replays)
    m["core.sql_predict_overhead_s"] = statement_s - score_table_s
    m["core.sql_result_rows_us_per_row"] = (statement_s - score_table_s) / n_rows * 1e6

    if filtered:
        m["rdbms.heapfile.scan_tuples_rows_per_s"] = n_rows / staged.span_seconds(
            tracer, "rdbms.heapfile.scan_tuples"
        )
        m["rdbms.query.matches_row_us"] = (
            staged.span_seconds(tracer, "rdbms.query.matches_row") / n_rows * 1e6
        )
        return

    # Probes that need the whole-table scan to mean something: score_scan only.
    images = [img for _no, img in table_file.scan_pages(db.buffer_pool)]
    extract_s = median_seconds(lambda: staged.fresh_accelerator(env).extract(images))
    m["hw.access_engine.extract_s"] = extract_s
    rows = staged.fresh_accelerator(env).extract(images)
    models = system.load_model(MODEL)
    m["serving.inference.score_rows_s"] = median_seconds(
        lambda: plan.new_engine().score(rows, models)
    )
    m["serving.scorer.stream_gain"] = median_ratio(
        lambda: score_table(stream=False), score_table
    )

    features = env.inputs.rows[:, :N_FEATURES]
    matvec_s = median_seconds(lambda: features @ models["mo"], 5)
    dtype = np.dtype("<f4")

    def frombuffer_decode() -> np.ndarray:
        return np.frombuffer(b"".join(images), dtype=dtype).astype(np.float64)

    decode_floor_s = median_seconds(frombuffer_decode, 5)
    m["floor.numpy_matvec_s"] = matvec_s
    m["floor.frombuffer_decode_s"] = decode_floor_s
    m["score_x_off_floor"] = statement_s / matvec_s
    m["decode_x_off_floor"] = extract_s / decode_floor_s

    def armed_statement():
        with enable_telemetry():
            _statement(env)

    m.update(
        staged.armed_overhead(
            "obs.armed_overhead_share", lambda: _statement(env), armed_statement, replays
        )
    )
    m.update(
        staged.armed_overhead(
            "reliability.retry_armed_overhead_share",
            score_table,
            lambda: score_table(retry=RetryPolicy()),
            replays,
        )
    )
    out.samples["statement_s"] = {"n": replays, "median": statement_s}
