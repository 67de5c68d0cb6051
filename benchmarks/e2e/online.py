"""``online_refresh``: insert -> refresh -> score cycles on a live, WAL'd table."""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import nullcontext

import numpy as np

from repro.rdbms import Database

from . import staged
from .common import MODEL, TABLE, Env, Outcome, build
from .data import PAGE_SIZE, Inputs, table
from .spans import Tracer
from .stats import Reference, Samples, summary, timed

ROWS = {False: 32_768, True: 2_048}
#: the pool holds fewer pages than the table, so every scan evicts.
POOL_PAGES = {False: 128, True: 8}
INSERTS_PER_CYCLE = 16
ROWS_PER_INSERT = 16
ROWS_PER_CYCLE = INSERTS_PER_CYCLE * ROWS_PER_INSERT
#: a fixed cycle count per measured second, so the end state (WAL
#: records, pages, model versions) repeats exactly from run to run.
CYCLES_PER_SECOND = {False: 12, True: 3}
WARMUP_CYCLES = 2
TAIL_PERCENTILE = 90
#: distinct insert blocks generated; longer runs reuse them round-robin.
INSERT_POOL_CYCLES = {False: 122, True: 8}


def generate(name: str, rng: np.random.Generator, smoke: bool) -> Inputs:
    rows = table(rng, ROWS[smoke], "linear")
    inserts = table(rng, INSERT_POOL_CYCLES[smoke] * ROWS_PER_CYCLE, "linear")
    return Inputs(
        algorithm="linear",
        rows=rows,
        extra={"inserts": inserts},
        params={
            "pool_pages": POOL_PAGES[smoke],
            "cycles_per_second": CYCLES_PER_SECOND[smoke],
        },
    )


def setup(inputs: Inputs) -> Env:
    return build(inputs, pool_pages=int(inputs.params["pool_pages"]))


def _cycles(env: Env, seconds: float) -> int:
    return max(4, int(round(seconds * env.inputs.params["cycles_per_second"])))


def _insert_blocks(env: Env, cycle: int) -> list[np.ndarray]:
    inserts = env.inputs.extra["inserts"]
    block = cycle % (len(inserts) // ROWS_PER_CYCLE)
    rows = inserts[block * ROWS_PER_CYCLE : (block + 1) * ROWS_PER_CYCLE]
    return [
        rows[i * ROWS_PER_INSERT : (i + 1) * ROWS_PER_INSERT]
        for i in range(INSERTS_PER_CYCLE)
    ]


class _Cycles:
    """Runs cycles, keeping per-operation seconds and the running checks."""

    def __init__(self, env: Env, out: Outcome) -> None:
        self.env, self.out = env, out
        self.insert_s: list[float] = []
        self.refresh_s: list[float] = []
        self.score_s: list[float] = []
        self.cycle_s: list[float] = []
        #: whether each kept cycle ran with staged (traced) inserts.
        self.staged: list[bool] = []
        self.tuples_trained: list[int] = []
        self.modelled_cycles = 0
        self.done = 0

    def run(self, cycle: int, tracer: Tracer | None = None) -> None:
        """One cycle: 16 inserts, a refresh, a full-table score.

        With a ``tracer`` the inserts are staged through the WAL's and the
        database's public halves (``wal.append`` + ``apply_wal_record`` is
        what ``insert_rows`` does) so each gets a span.
        """
        env, out = self.env, self.out
        db, system = env.db, env.system
        blocks = _insert_blocks(env, cycle)
        span = tracer.span if tracer is not None else (lambda *_a, **_k: nullcontext())
        gc.collect()
        with span("cycle", "bench"):
            start = time.perf_counter()
            for block in blocks:
                if tracer is None:
                    db.insert_rows(TABLE, block)
                    continue
                with span("rdbms.database.insert_prepare", "rdbms.database"):
                    rows = [tuple(row) for row in block.tolist()]
                with span("rdbms.wal.append", "rdbms.wal"):
                    record = db.wal.append(TABLE, rows)
                with span("rdbms.heapfile.append_rows", "rdbms.heapfile"):
                    db.apply_wal_record(record)
            inserted_at = time.perf_counter()
            with span("core.refresh_model", "core"):
                refresh = system.refresh_model(MODEL)
            refreshed_at = time.perf_counter()
            with span("serving.score_table", "serving"):
                scored = system.score_table(env.udf, TABLE, model_name=MODEL)
            scored_at = time.perf_counter()
        self.done += 1
        live = len(env.inputs.rows) + self.done * ROWS_PER_CYCLE
        out.attempted += INSERTS_PER_CYCLE + 2
        if not (refresh.refreshed and refresh.tuples_trained >= ROWS_PER_CYCLE):
            out.check(False, f"cycle {cycle}: refresh trained {refresh.tuples_trained} tuples")
        if scored.tuples_scored != live:
            out.check(False, f"cycle {cycle}: scored {scored.tuples_scored} of {live} rows")
        run = refresh.run
        self.modelled_cycles += (
            run.engine_stats.total_cycles
            + run.access_stats.strider_cycles_critical
            + run.access_stats.axi_cycles
            + scored.critical_path_cycles
        )
        if cycle >= WARMUP_CYCLES:
            self.insert_s.append(inserted_at - start)
            self.refresh_s.append(refreshed_at - inserted_at)
            self.score_s.append(scored_at - refreshed_at)
            self.cycle_s.append(scored_at - start)
            self.staged.append(tracer is not None)
            self.tuples_trained.append(refresh.tuples_trained)


def check_end_state(env: Env, out: Outcome, cycles_done: int) -> float:
    """WAL replay into a fresh bulk-loaded base must rebuild the live heap.

    Returns the replay seconds.
    """
    db = env.db
    live = db.table(TABLE)
    inserted = cycles_done * ROWS_PER_CYCLE
    out.check(
        live.tuple_count == len(env.inputs.rows) + inserted,
        f"tuple_count {live.tuple_count} != loaded + inserted",
    )
    fresh = Database(
        page_size=PAGE_SIZE, buffer_pool_bytes=db.buffer_pool.capacity_pages * PAGE_SIZE
    )
    fresh.load_table(TABLE, env.spec.schema, env.inputs.rows)
    replay_s, applied = timed(lambda: db.wal.replay(fresh))
    out.check(applied == len(db.wal), f"replay applied {applied} of {len(db.wal)} records")
    out.check(
        dict(fresh.table(TABLE).scan_pages(fresh.buffer_pool))
        == dict(live.scan_pages(db.buffer_pool)),
        "WAL replay did not rebuild the live heap page-for-page",
    )
    expected = np.vstack(
        [env.inputs.rows]
        + [block for c in range(cycles_done) for block in _insert_blocks(env, c)]
    )
    images = [image for _no, image in live.scan_pages(db.buffer_pool)]
    out.check(
        np.array_equal(staged.fresh_accelerator(env).extract(images), expected),
        "the live heap does not decode to the loaded + inserted rows",
    )
    return replay_s


def _live_tuples(env: Env, kept_cycles: int) -> list[int]:
    """Rows in the table when each kept (post-warm-up) cycle scores it."""
    return [
        len(env.inputs.rows) + (WARMUP_CYCLES + i + 1) * ROWS_PER_CYCLE
        for i in range(kept_cycles)
    ]


def e2e(env: Env, seconds: float, out: Outcome) -> None:
    cycles = _cycles(env, seconds)
    state = _Cycles(env, out)
    reference = Reference()
    probes = []
    for cycle in range(WARMUP_CYCLES + cycles):
        probes.append(reference.seconds())
        state.run(cycle)
    probes.append(reference.seconds())
    timing = Samples(raw=state.cycle_s, probes=probes[WARMUP_CYCLES:])
    factors = timing.factors()
    # The write side as a user meets it: 256 new rows arrive and the model
    # has learnt them.  The read side (the full-table score) dominates the
    # cycle and grows with the table, so the cycle is read per live tuple.
    fresh_s = [(i + r) * f for i, r, f in zip(state.insert_s, state.refresh_s, factors)]
    out.metrics["throughput_per_s"] = statistics.median(
        n / s for n, s in zip(_live_tuples(env, cycles), timing.corrected)
    )
    out.metrics["op_p50_ms"] = statistics.median(fresh_s) * 1e3
    out.metrics["op_tail_ms"] = float(np.percentile(fresh_s, TAIL_PERCENTILE)) * 1e3
    out.samples["cycle_s"] = summary(state.cycle_s)
    out.samples["insert_plus_refresh_corrected_s"] = summary(fresh_s)
    out.samples["insert_s"] = summary(state.insert_s)
    out.samples["refresh_s"] = summary(state.refresh_s)
    out.samples["score_s"] = summary(state.score_s)
    out.samples["reference_probe_s"] = summary(timing.probes)
    out.notes.append(
        f"{cycles} cycles, reference-corrected (probe median "
        f"{statistics.median(timing.probes) * 1e3:.3f} ms): throughput = median of live "
        f"tuples scored / cycle seconds; op = {INSERTS_PER_CYCLE} insert_rows + "
        f"refresh_model, median and (tail) p{TAIL_PERCENTILE}"
    )
    check_end_state(env, out, state.done)


def _quartile_drift(samples: list[float]) -> float:
    """Median of the last quarter of the run over the median of the first."""
    quarter = max(1, len(samples) // 4)
    return statistics.median(samples[-quarter:]) / statistics.median(samples[:quarter])


def trace(env: Env, seconds: float, tracer: Tracer, out: Outcome, smoke: bool) -> None:
    db, system = env.db, env.system
    m = out.metrics
    cycles = _cycles(env, seconds)
    state = _Cycles(env, out)
    table_file = db.table(TABLE)
    newer_than_s: list[float] = []
    load_s: list[float] = []
    db.buffer_pool.reset_stats()
    for cycle in range(WARMUP_CYCLES + cycles):
        # Odd cycles run untraced through the real insert_rows: the yardstick
        # the traced cycles' overhead is measured against.
        if cycle < WARMUP_CYCLES or cycle % 2:
            state.run(cycle)
            continue
        # Read-only probes of what refresh_model does first, outside the cycle.
        watermark = int(system.registry.entry(MODEL).metadata["lsn_watermark"])
        as_of = db.wal.current_lsn
        newer_than_s.append(timed(lambda: table_file.pages_newer_than(watermark, as_of))[0])
        load_s.append(timed(lambda: system.registry.load(MODEL))[0])
        tracer.iteration = cycle
        state.run(cycle, tracer)
    m.update(staged.pool_metrics(env))

    traced_s = [s for s, staged_ in zip(state.cycle_s, state.staged) if staged_]
    plain_s = [s for s, staged_ in zip(state.cycle_s, state.staged) if not staged_]
    m.update(staged.layer_metrics(tracer, "cycle", statistics.median(plain_s)))
    # Cycles grow with the table, so compare the interleaved halves directly.
    m["bench.trace_overhead_share"] = (
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    )
    insert_s = sum(
        staged.span_seconds(tracer, name)
        for name in (
            "rdbms.database.insert_prepare", "rdbms.wal.append", "rdbms.heapfile.append_rows"
        )
    )
    m["rdbms.insert_rows_us_per_row"] = insert_s / ROWS_PER_CYCLE * 1e6
    m["rdbms.wal.append_us"] = (
        staged.span_seconds(tracer, "rdbms.wal.append") / INSERTS_PER_CYCLE * 1e6
    )
    m["rdbms.wal.records"] = float(len(db.wal))
    m["rdbms.heapfile.pages_newer_than_ms"] = statistics.median(newer_than_s) * 1e3
    m["serving.registry.load_ms"] = statistics.median(load_s) * 1e3
    m.update(staged.setup_metrics(env, table_file.tuple_count))
    m["online.insert_rows_per_s"] = ROWS_PER_CYCLE / statistics.median(state.insert_s)
    m["online.refresh_p50_ms"] = statistics.median(state.refresh_s) * 1e3
    scored_per_cycle = _live_tuples(env, len(state.score_s))
    m["online.score_tuples_per_s"] = statistics.median(
        n / s for n, s in zip(scored_per_cycle, state.score_s)
    )
    m["core.refresh.tuples_trained"] = statistics.median(state.tuples_trained)
    m["core.refresh.drift_ratio"] = _quartile_drift(state.refresh_s)
    m["core.online_score.drift_ratio"] = _quartile_drift(
        [s / n for n, s in zip(scored_per_cycle, state.score_s)]
    )
    m["hw.modelled_cycles"] = float(state.modelled_cycles)
    m["rdbms.wal.replay_s"] = check_end_state(env, out, state.done)
    out.samples["cycle_s"] = summary(state.cycle_s)
