"""Command line of the referee benchmark.

One workload (what the PR driver runs)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints notes, then one JSON object as the last line of standard output.
Without ``--workload`` every workload runs in a fresh interpreter, every
metric is printed by name with its unit, ``--out FILE`` keeps the stamped
results, and ``--compare A.json B.json`` referees two such files.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import subprocess
import sys
from multiprocessing import resource_tracker
from pathlib import Path

from . import compare, stats, workloads

NOTES = """\
Reading the numbers:
 - one closed-loop client means no queueing: a faster layer saves at most its
   share of the blocking path (see the self_share.* rows of a traced run);
 - with stream=True on 2 cores extraction overlaps epoch 0, so access-path
   savings on the train workloads are partly hidden;
 - online_refresh trades read cost, write cost and space: read
   online.insert_rows_per_s, online.refresh_p50_ms, online.score_tuples_per_s
   and rdbms.heapfile.bytes_per_user_byte together;
 - hw.modelled_cycles is simulated time, not host time: it may only move when
   a change says it alters the modelled design."""


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: staged replay with spans, per-layer metrics (one workload); "
        "with no --workload: also run every workload traced",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--out", type=Path, help="write the stamped results here")
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="untraced runs per workload in suite mode (medians and quartiles are kept)",
    )
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    return parser


def _seconds(args: argparse.Namespace) -> float:
    if args.seconds is not None:
        return args.seconds
    return 1.0 if args.smoke else float(workloads.catalogue()["run_seconds"])


def _run_one(args: argparse.Namespace) -> int:
    record = workloads.run(
        args.workload, args.seed, _seconds(args), bool(args.trace), args.smoke
    )
    for note in record["notes"]:
        print(f"# {note}")
    for failure in record["failures"]:
        print(f"# FAILED CHECK: {failure}")
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if record["correct"] else 1


def _child(args: argparse.Namespace, name: str, traced: bool, out: Path) -> dict:
    """Run one workload in a fresh interpreter and read its record back."""
    command = [
        sys.executable, str(Path(__file__).with_name("run.py")),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(_seconds(args)),
        "--trace", str(int(traced)), "--out", str(out),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True)
    if not out.exists():
        raise RuntimeError(
            f"{name} (trace={int(traced)}) exited {done.returncode} without a result:\n"
            f"{done.stdout}{done.stderr}"
        )
    record = json.loads(out.read_text())
    out.unlink()
    return record


def _run_suite(args: argparse.Namespace) -> int:
    spec = workloads.catalogue()
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = workloads.OUT_DIR / "child-result.json"
    results = {"stamp": stats.stamp(args.seed), "smoke": args.smoke, "workloads": {}}
    ok = True
    names = [entry["name"] for entry in spec["workloads"]]
    # Every untraced run before any traced one: train_sharded's traced run
    # fills both cores for seconds, and the host slows whatever runs next.  It
    # waits for the host to recover before it exits; this order needs no wait.
    all_runs = {
        name: [_child(args, name, False, scratch) for _ in range(args.repeat)]
        for name in names
    }
    if args.trace:
        for name in names:
            all_runs[name].append(_child(args, name, True, scratch))
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = all_runs[name]
        print(f"\n== {name}: {entry['why']}")
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for record in runs:
            for key, metric in record["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
                units[key] = metric["unit"]
            for failure in record["failures"]:
                print(f"   FAILED CHECK: {failure}")
            attempted += record["attempted"]
            failed += record["failed"]
            ok = ok and record["correct"]
        values["failed_ops_share"] = [failed / max(1, attempted)]
        units["failed_ops_share"] = "ratio"
        for note in runs[0]["notes"]:
            print(f"   # {note}")
        for key, series in values.items():
            shown = stats.summary(series)
            spread = f"  [{shown['q1']:.6g} .. {shown['q3']:.6g}] n={shown['n']}" if len(series) > 1 else ""
            print(f"   {key:<52} {shown['median']:>16.6g} {units[key]}{spread}")
        results["workloads"][name] = {
            "metrics": {
                key: {"values": series, "unit": units[key], **stats.summary(series)}
                for key, series in values.items()
            },
            "samples": {k: v for record in runs for k, v in record["samples"].items()},
            "attempted": attempted,
            "failed": failed,
            "inputs_sha256": runs[0]["inputs_sha256"],
        }
    print("\n" + NOTES)
    print(f"\nchecks: {'all passed' if ok else 'FAILED'}")
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


def _stop_children() -> None:
    """End and reap every process this interpreter started.

    The segment workers of ``execution="processes"`` are joined by ``src/``;
    what outlives them is multiprocessing's resource tracker, started with the
    first spawn or shared-memory block.  It only exits once this process has,
    and nobody waits for it, so it lingers as a zombie: stop it and wait here.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    # Closes the tracker's pipe and waits for its pid; a no-op if never started.
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    try:
        if args.workload:
            return _run_one(args)
        return _run_suite(args)
    finally:
        _stop_children()
