"""The ``repro`` ops console (``python -m repro.obs``).

Subcommands, each with ``--format table|csv|json`` output:

* ``repro runs`` — list the run registry (one row per recorded train /
  score invocation, read back from the ``repro_runs`` heap table);
* ``repro runs show <id>`` — one run's full record: config, every named
  metric (schedule-derived counters + span rollups), fired faults and
  retry counters;
* ``repro trace <id>`` — the statement trace an ``EXPLAIN ANALYZE`` run
  persisted into the registry: the rendered predicted-vs-actual plan
  plus the per-site span rollup;
* ``repro models`` — the saved-model registry (``SHOW MODELS`` through
  the SQL executor);
* ``repro serve --stats`` — run the micro-batching prediction server on
  the demo workload and print its :meth:`ServingStats.to_dict`.

The database engine is in-process and in-memory, so the CLI cannot
attach to another process's tables; ``runs`` / ``models`` / ``serve``
instead build a small **deterministic demo session** (train → save →
score, telemetry armed, every invocation recorded) and query it back —
the same code path a long-lived embedding application would use against
its own live :class:`~repro.obs.recorder.RunRecorder`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Any, Sequence

#: demo-session sizing: small enough for a CI smoke step, big enough to
#: exercise multi-page scans and multi-batch serving.
DEMO_TUPLES = 512
DEMO_FEATURES = 8
DEMO_SEGMENTS = 2
DEMO_EPOCHS = 2

OUTPUT_FORMATS = ("table", "csv", "json")


# ---------------------------------------------------------------------- #
# output formatting
# ---------------------------------------------------------------------- #
def format_rows(
    rows: Sequence[dict], fmt: str, columns: Sequence[str] | None = None
) -> str:
    """Render a list of row dicts as an aligned table, CSV, or JSON."""
    if fmt == "json":
        return json.dumps(list(rows), indent=2, default=str)
    if not rows:
        return "(no rows)" if fmt == "table" else ""
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[_cell(row.get(col, "")) for col in columns] for row in rows]
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(columns)
        writer.writerows(cells)
        return out.getvalue().rstrip("\n")
    widths = [
        max(len(str(col)), *(len(line[i]) for line in cells))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(str(col).ljust(w) for col, w in zip(columns, widths))
    rule = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(value.ljust(w) for value, w in zip(line, widths))
        for line in cells
    ]
    return "\n".join([header, rule, *body])


def format_mapping(mapping: dict, fmt: str) -> str:
    """Render one key→value mapping (``json`` keeps the nested dict)."""
    if fmt == "json":
        return json.dumps(mapping, indent=2, default=str)
    rows = [{"key": key, "value": value} for key, value in mapping.items()]
    return format_rows(rows, fmt, columns=("key", "value"))


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


# ---------------------------------------------------------------------- #
# the demo session (deterministic in-process workload)
# ---------------------------------------------------------------------- #
def build_demo_session():
    """Train, save, and score one small deterministic workload, recorded.

    Returns ``(system, telemetry_session)`` — a :class:`~repro.core.DAnA`
    whose :class:`~repro.obs.recorder.RunRecorder` holds one train run,
    one score run and one ``EXPLAIN ANALYZE`` score run (with its
    statement trace attached) in real heap tables.
    """
    from repro.algorithms import Hyperparameters, get_algorithm
    from repro.core.dana import DAnA
    from repro.data.synthetic import generate_for_algorithm
    from repro.obs.telemetry import Telemetry, enable_telemetry
    from repro.rdbms.database import Database

    algorithm = get_algorithm("linear")
    hyper = Hyperparameters(
        learning_rate=0.05, merge_coefficient=8, epochs=DEMO_EPOCHS
    )
    spec = algorithm.build_spec(DEMO_FEATURES, hyper)
    data = generate_for_algorithm(
        "linear", DEMO_TUPLES, DEMO_FEATURES, seed=0
    )
    database = Database(page_size=2048)
    database.load_table("demo_table", spec.schema, data)
    system = DAnA(database, record_runs=True)
    system.register_udf("demo_linear", spec, epochs=DEMO_EPOCHS)
    session = Telemetry()
    with enable_telemetry(session):
        run = system.train(
            "demo_linear", "demo_table", epochs=DEMO_EPOCHS, segments=DEMO_SEGMENTS
        )
        system.save_model("demo_model", "demo_linear", run.models)
        system.score_table("demo_linear", "demo_table", model_name="demo_model")
        # One EXPLAIN ANALYZE statement so the registry holds a statement
        # trace for `repro trace` (composes with the armed outer session).
        database.execute(
            "EXPLAIN ANALYZE SELECT * FROM dana.score("
            f"'demo_model', 'demo_table', segments => {DEMO_SEGMENTS});"
        )
    return system, session


# ---------------------------------------------------------------------- #
# subcommands
# ---------------------------------------------------------------------- #
def cmd_runs(args: argparse.Namespace) -> int:
    """``repro runs`` / ``repro runs show <id>``."""
    system, _session = build_demo_session()
    recorder = system.run_recorder
    if getattr(args, "runs_cmd", None) == "show":
        detail = recorder.run_detail(args.run_id)
        if args.format == "json":
            print(json.dumps(detail, indent=2, default=str))
            return 0
        metrics = detail.pop("metrics", {})
        faults = detail.pop("faults", [])
        retry = detail.pop("retry", {})
        config = detail.pop("config", {})
        print(format_mapping(detail, args.format))
        print("\n# config")
        print(format_mapping(config, args.format))
        print("\n# metrics")
        print(format_mapping(metrics, args.format))
        if faults:
            print("\n# faults")
            print(format_rows(faults, args.format))
        if retry:
            print("\n# retry")
            print(format_mapping(retry, args.format))
        return 0
    rows = recorder.runs()
    if args.limit is not None:
        rows = rows[-args.limit :]
    print(format_rows(rows, args.format))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace <run_id>`` — a run's persisted statement trace."""
    from repro.exceptions import CatalogError

    system, _session = build_demo_session()
    recorder = system.run_recorder
    try:
        detail = recorder.run_detail(args.run_id)
    except CatalogError as error:
        print(str(error), file=sys.stderr)
        return 1
    trace = detail.get("trace") or {}
    if not trace:
        print(
            f"run {args.run_id} has no recorded statement trace "
            "(traces are attached by EXPLAIN ANALYZE)",
            file=sys.stderr,
        )
        return 1
    if args.format == "json":
        print(json.dumps(trace, indent=2, default=str))
        return 0
    for line in trace.get("plan", ()):
        print(line)
    rollup = trace.get("rollup", {})
    if rollup:
        print("\n# span rollup")
        rows = [{"site": site, **stats} for site, stats in rollup.items()]
        print(format_rows(rows, args.format))
    return 0


def cmd_models(args: argparse.Namespace) -> int:
    """``repro models`` — SHOW MODELS through the SQL executor."""
    system, _session = build_demo_session()
    result = system.database.execute("SHOW MODELS")
    rows = [dict(zip(result.columns, row)) for row in result.rows]
    print(format_rows(rows, args.format, columns=result.columns))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve --stats`` — demo server stats via ServingStats.to_dict."""
    import numpy as np

    system, _session = build_demo_session()
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(args.requests, DEMO_FEATURES))
    server = system.serve("demo_linear", model_name="demo_model", max_batch_size=16)
    with server:
        futures = [server.submit(row) for row in rows]
        for future in futures:
            future.result(timeout=30.0)
    print(format_mapping(server.stats.to_dict(), args.format))
    return 0


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ops console for the DAnA reproduction",
    )
    parser.add_argument(
        "--format",
        "-f",
        choices=OUTPUT_FORMATS,
        default="table",
        help="output format (default: table)",
    )

    def _accept_format(subparser: argparse.ArgumentParser) -> None:
        # Accept --format after the subcommand too; SUPPRESS keeps the
        # global value unless the flag is actually given here.
        subparser.add_argument(
            "--format",
            "-f",
            choices=OUTPUT_FORMATS,
            default=argparse.SUPPRESS,
            help="output format (default: table)",
        )

    sub = parser.add_subparsers(dest="command", required=True)

    runs = sub.add_parser("runs", help="list recorded runs (demo session)")
    runs.add_argument("--limit", type=int, default=None, help="show only the last N runs")
    _accept_format(runs)
    runs.set_defaults(func=cmd_runs)
    runs_sub = runs.add_subparsers(dest="runs_cmd")
    show = runs_sub.add_parser("show", help="one run's full record")
    show.add_argument("run_id", type=int)
    _accept_format(show)
    show.set_defaults(func=cmd_runs)

    trace = sub.add_parser(
        "trace", help="a run's persisted EXPLAIN ANALYZE statement trace"
    )
    trace.add_argument("run_id", type=int)
    _accept_format(trace)
    trace.set_defaults(func=cmd_trace)

    models = sub.add_parser("models", help="saved models (SHOW MODELS)")
    _accept_format(models)
    models.set_defaults(func=cmd_models)

    serve = sub.add_parser("serve", help="demo prediction-server stats")
    serve.add_argument(
        "--stats", action="store_true", help="print ServingStats.to_dict()"
    )
    serve.add_argument(
        "--requests", type=int, default=64, help="demo requests to serve"
    )
    _accept_format(serve)
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
