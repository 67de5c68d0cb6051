"""Stages shared by the traced replays: the access path and layer shares.

A replay rebuilds a statement out of each layer's public functions so the
benchmark can put a span around every stage without touching ``src/``.
The access path (buffer-pool scan -> Strider bulk walk -> payload decode)
is the same for every statement, so it lives here.
"""

from __future__ import annotations

import statistics
from typing import Sequence

import numpy as np

from repro.hw import DAnAAccelerator
from repro.hw.strider import Strider

from .common import TABLE, Env
from .spans import Tracer
from .stats import paired_overhead

#: layers a self-time share is reported for, on every workload.
SHARE_LAYERS = (
    "rdbms.query",
    "rdbms.heapfile",
    "rdbms.wal",
    "rdbms.database",
    "hw.access",
    "hw.execution_engine",
    "translator.tape",
    "runtime",
    "cluster",
    "serving",
    "core",
)


def fresh_accelerator(env: Env) -> DAnAAccelerator:
    """A clean-counter accelerator on the cached binary (what refresh/score build)."""
    binary = env.system.compile_udf(env.udf, TABLE)
    return DAnAAccelerator(binary=binary, schema=env.spec.schema, fpga=env.system.fpga)


def scan(tracer: Tracer, env: Env, as_of: int, page_nos: Sequence[int] | None = None) -> list[bytes]:
    """``HeapFile.scan_pages`` through the buffer pool, as one span."""
    table = env.db.table(TABLE)
    with tracer.span("rdbms.heapfile.scan_pages", "rdbms.heapfile") as span:
        images = [
            image
            for _no, image in table.scan_pages(
                env.db.buffer_pool, page_nos, as_of_lsn=as_of
            )
        ]
        span["attrs"]["pages"] = len(images)
    return images


def extract(tracer: Tracer, accelerator: DAnAAccelerator, images: list[bytes]) -> np.ndarray:
    """The access engine's page walk and decode as two spans; returns the rows.

    Mirrors ``AccessEngine.extract_table``: pages are walked in waves of
    ``num_striders`` (so the cycle accounting matches), payloads are
    decoded per page and stacked once.
    """
    access = accelerator.access_engine
    strider = Strider(access.program, read_width_bytes=access.config.read_width_bytes)
    waves = access.config.num_striders
    with tracer.span("hw.strider.page_walk", "hw.access", pages=len(images)):
        results = [strider.process_page_bulk(image) for image in images]
        for start in range(0, len(results), waves):
            access.stats.merge_batch(
                results[start : start + waves],
                access.config.page_size,
                access.fpga.axi_bytes_per_cycle,
            )
    with tracer.span("hw.access_engine.decode", "hw.access", pages=len(images)):
        chunks = [access.decoder.decode_many(result.payloads) for result in results]
        rows = np.vstack(chunks) if chunks else np.empty((0, len(access.schema)))
    return rows


def layer_metrics(tracer: Tracer, root_name: str, statement_s: float) -> dict[str, float]:
    """Self-time shares per layer plus the two benchmark self-checks.

    Shares are medians over replay iterations of ``layer self seconds /
    root span seconds``.  ``bench.unattributed_share`` is the root span's
    own self time (glue between stages); ``bench.trace_overhead_share`` is
    how much longer the traced replay took than the real statement.
    """
    roots = tracer.roots(root_name)
    per_iteration = tracer.by_iteration("layer")
    shares: dict[str, list[float]] = {layer: [] for layer in SHARE_LAYERS}
    attributed: list[float] = []
    for root in roots:
        total = root["end"] - root["start"]
        layers = per_iteration[root["iteration"]]
        for layer in SHARE_LAYERS:
            shares[layer].append(layers.get(layer, 0.0) / total)
        attributed.append(1.0 - layers.get("bench", 0.0) / total)
    replay_s = statistics.median(r["end"] - r["start"] for r in roots)
    metrics = {
        f"self_share.{layer}": statistics.median(values)
        for layer, values in shares.items()
    }
    metrics["bench.unattributed_share"] = 1.0 - statistics.median(attributed)
    metrics["bench.trace_overhead_share"] = replay_s / statement_s - 1.0
    return metrics


def span_seconds(tracer: Tracer, name: str) -> float:
    """Median over iterations of the summed duration of spans called ``name``."""
    totals: dict[int, float] = {}
    for s in tracer.spans:
        if s["name"] == name:
            totals[s["iteration"]] = totals.get(s["iteration"], 0.0) + s["end"] - s["start"]
    return statistics.median(totals.values()) if totals else 0.0


def setup_metrics(env: Env, live_rows: int) -> dict[str, float]:
    """Set-up stage seconds and the heap's space overhead (every workload)."""
    table = env.db.table(TABLE)
    return {
        "rdbms.load_table_s": env.setup_parts["load_table_s"],
        "compiler.compile_udf_s": env.setup_parts["compile_udf_s"],
        "rdbms.heapfile.bytes_per_user_byte": table.size_bytes
        / (live_rows * env.spec.schema.row_width),
    }


def pool_metrics(env: Env) -> dict[str, float]:
    """Buffer-pool counters since the last ``reset_stats()``."""
    pool = env.db.buffer_pool.stats
    return {
        "rdbms.buffer_pool.hit_rate": pool.hit_rate,
        "rdbms.buffer_pool.evictions": float(pool.evictions),
    }


def access_metrics(tracer: Tracer, env: Env) -> dict[str, float]:
    """Parse, scan, page walk and decode from the replayed statements' spans."""
    pages = env.db.table(TABLE).page_count
    return {
        "rdbms.query.parse_us": span_seconds(tracer, "rdbms.query.parse") * 1e6,
        "rdbms.heapfile.scan_pages_s": span_seconds(tracer, "rdbms.heapfile.scan_pages"),
        "hw.strider.page_walk_us_per_page": span_seconds(tracer, "hw.strider.page_walk")
        / pages * 1e6,
        "hw.access_engine.decode_us_per_page": span_seconds(tracer, "hw.access_engine.decode")
        / pages * 1e6,
    }


def armed_overhead(name: str, bare, armed, pairs: int) -> dict[str, float]:
    """``name`` and ``name.q1``/``name.q3``: paired ``armed / bare - 1``."""
    ratios = paired_overhead(bare, armed, pairs)
    return {name: ratios["median"], f"{name}.q1": ratios["q1"], f"{name}.q3": ratios["q3"]}
