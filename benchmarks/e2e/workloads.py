"""The workload registry and the one function that runs a workload end to end."""

from __future__ import annotations

import gc
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import online, score, serve, train
from .common import Env, Outcome
from .data import Inputs
from .spans import Tracer
from .stats import Reference, Samples, peak_rss_mib, summary

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"

#: set-ups per untraced run; ``setup_s`` is their (reference-corrected) median.
SETUP_REPEATS = 3
#: probe executions either side of a set-up.  One set-up is a single call of
#: seconds with nothing to interleave, so its two probes must each be steady:
#: with 3 executions the corrected set-up spread more than the raw one
#: (0.28 against 0.15 over ten runs), with 10 or more about half as much.
SETUP_PROBE_REPEATS = 15


@dataclass(frozen=True)
class Workload:
    generate: Callable[[str, np.random.Generator, bool], Inputs]
    setup: Callable[[Inputs], Env]
    e2e: Callable[[Env, float, Outcome], None]
    trace: Callable[[Env, float, Tracer, Outcome, bool], None]


def _of(module) -> Workload:
    return Workload(module.generate, module.setup, module.e2e, module.trace)


WORKLOADS: dict[str, Workload] = {
    "train_dense": _of(train),
    "train_sharded": _of(train),
    "score_scan": _of(score),
    "sql_filtered_predict": _of(score),
    "online_refresh": _of(online),
    "serve_point": _of(serve),
}


def catalogue() -> dict:
    """``BENCHMARK.json``: the single list of workloads, metrics, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def generate(name: str, seed: int, smoke: bool) -> Inputs:
    """The workload's inputs: a pure function of ``(name, seed, smoke)``."""
    # Mix the workload name in so two workloads never share a table.
    offset = sorted(WORKLOADS).index(name)
    return WORKLOADS[name].generate(name, np.random.default_rng([seed, offset]), smoke)


def run(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Run one workload in this process; returns the result record.

    Untraced runs measure the end-to-end metrics (tracing off, set-up
    repeated :data:`SETUP_REPEATS` times).  Traced runs do the staged
    replay and the per-layer probes instead, and dump the spans.
    """
    workload = WORKLOADS[name]
    spec = catalogue()
    inputs = generate(name, seed, smoke)
    out = Outcome()
    reference = Reference()
    setups = Samples()
    for _ in range(1 if traced else SETUP_REPEATS):
        env = None  # free the previous system before the next is built
        gc.collect()
        setups.probes.append(reference.seconds(SETUP_PROBE_REPEATS))
        env = workload.setup(inputs)
        setups.raw.append(env.setup_s)
    setups.probes.append(reference.seconds(SETUP_PROBE_REPEATS))
    if traced:
        tracer = Tracer()
        workload.trace(env, seconds, tracer, out, smoke)
        tracer.dump(OUT_DIR / f"trace-{name}.json")
        declared = spec["per_layer"]
        # A layer this workload never calls did zero work here.
        metrics = {m["name"]: out.metrics.pop(m["name"], 0.0) for m in declared}
    else:
        workload.e2e(env, seconds, out)
        out.metrics["setup_s"] = statistics.median(setups.corrected)
        out.samples["setup_s"] = summary(setups.raw)
        out.metrics["peak_rss_mb"] = peak_rss_mib()
        declared = spec["end_to_end"]
        metrics = {m["name"]: out.metrics.pop(m["name"]) for m in declared}
    if out.metrics:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(out.metrics)}")
    units = {m["name"]: m["unit"] for m in declared}
    return {
        "workload": name,
        "traced": traced,
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
        "metrics": {
            key: {"value": float(value), "unit": units[key]}
            for key, value in metrics.items()
        },
        "samples": out.samples,
        "notes": out.notes,
        "inputs_sha256": inputs.fingerprint(),
        "setup_parts": env.setup_parts,
    }
