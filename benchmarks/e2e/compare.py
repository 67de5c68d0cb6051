"""Referee two result files written by the suite (``--out``).

For each workload x metric: both medians, the relative difference, the
bound, and a verdict.  End-to-end metrics are judged against their bound
from ``BENCHMARK.json``; schedule-derived counts must be equal; per-layer
timings have no bound and are listed for attribution only.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from .workloads import catalogue

#: metrics that repeat exactly run to run (one client, no timers): any
#: difference is a behaviour change, not noise.
EXACT = frozenset(
    {
        "hw.modelled_cycles",
        "rdbms.wal.records",
        "rdbms.buffer_pool.evictions",
        "translator.tape.runs_per_stmt",
        "core.refresh.tuples_trained",
        "serving.microbatch.shed",
        "failed_ops_share",
    }
)


def _median(metric: dict) -> float:
    return statistics.median(metric["values"])


def _spread(metric: dict) -> float | None:
    """Inter-quartile range over the median, when there are runs enough."""
    values = metric["values"]
    if len(values) < 3:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return abs((q3 - q1) / median) if median else None


def verdict(a: dict, b: dict, spec: dict | None, exact: bool) -> tuple[float, str]:
    """``(relative difference of B from A, ok|regressed|unresolved|-)``."""
    ma, mb = _median(a), _median(b)
    diff = (mb - ma) / abs(ma) if ma else (0.0 if mb == ma else float("inf"))
    if exact:
        return diff, "ok" if ma == mb else "regressed"
    if spec is None:
        return diff, "-"
    worse = -diff if spec["better"] == "higher" else diff
    if worse <= spec["bound"]:
        return diff, "ok"
    spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
    if spreads and max(spreads) > spec["bound"]:
        better_everywhere = (
            min(b["values"]) > max(a["values"])
            if spec["better"] == "higher"
            else max(b["values"]) < min(a["values"])
        )
        if not better_everywhere:
            return diff, "unresolved"
    return diff, "regressed"


def main(path_a: Path, path_b: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    bounded = {m["name"]: m for m in catalogue()["end_to_end"]}
    counts = {"ok": 0, "regressed": 0, "unresolved": 0, "-": 0}
    print(f"A = {path_a} ({a['stamp']['git_rev']})  B = {path_b} ({b['stamp']['git_rev']})")
    for workload, run_a in a["workloads"].items():
        run_b = b["workloads"].get(workload)
        if run_b is None:
            print(f"\n== {workload}: missing from B")
            counts["regressed"] += 1
            continue
        print(f"\n== {workload}")
        print(f"   {'metric':<52} {'A':>14} {'B':>14} {'diff':>9} {'bound':>6}  verdict")
        for name, ma in run_a["metrics"].items():
            mb = run_b["metrics"].get(name)
            if mb is None:
                continue
            spec = bounded.get(name)
            exact = name in EXACT
            diff, status = verdict(ma, mb, spec, exact)
            counts[status] += 1
            bound = "exact" if exact else (f"{spec['bound']:.2f}" if spec else "")
            print(
                f"   {name:<52} {_median(ma):>14.6g} {_median(mb):>14.6g} "
                f"{diff:>+9.2%} {bound:>6}  {status}"
            )
    print(
        f"\n{counts['ok']} ok, {counts['regressed']} regressed, "
        f"{counts['unresolved']} unresolved (spread wider than the bound), "
        f"{counts['-']} unbounded per-layer rows"
    )
    return 1 if counts["regressed"] else 0
