"""Tests for the ``repro`` ops console: formatting units + subcommands.

The subcommand tests go end-to-end through :func:`repro.obs.cli.main`
(argparse included) and read the printed output via capsys — the same
surface the CI smoke step exercises.
"""

import csv
import io
import json

import pytest

from repro.obs.cli import format_mapping, format_rows, main

ROWS = [
    {"name": "a", "value": 1.25, "count": 3},
    {"name": "b", "value": 0.5, "count": 11},
]


class TestFormatters:
    def test_table_alignment(self):
        out = format_rows(ROWS, "table")
        lines = out.splitlines()
        assert lines[0].split() == ["name", "value", "count"]
        assert set(lines[1]) <= {"-", " "}
        assert lines[2].split() == ["a", "1.250", "3"]
        # columns line up: every row has the same width
        assert len({len(line) for line in lines}) == 1

    def test_csv_round_trip(self):
        out = format_rows(ROWS, "csv")
        parsed = list(csv.reader(io.StringIO(out)))
        assert parsed[0] == ["name", "value", "count"]
        assert parsed[1] == ["a", "1.250", "3"]
        assert len(parsed) == 3

    def test_json_round_trip(self):
        parsed = json.loads(format_rows(ROWS, "json"))
        assert parsed == ROWS

    def test_empty_rows(self):
        assert format_rows([], "table") == "(no rows)"
        assert format_rows([], "csv") == ""
        assert json.loads(format_rows([], "json")) == []

    def test_explicit_columns_fill_missing_cells(self):
        out = format_rows([{"a": 1}], "csv", columns=("a", "b"))
        assert out.splitlines()[1] == "1,"

    def test_format_mapping(self):
        mapping = {"requests": 4, "p99": 1.5}
        table = format_mapping(mapping, "table")
        assert "requests" in table and "1.500" in table
        assert json.loads(format_mapping(mapping, "json")) == mapping


@pytest.mark.smoke
class TestSubcommands:
    """End-to-end CLI calls (each builds the in-process demo session)."""

    def test_runs_json(self, capsys):
        assert main(["--format", "json", "runs"]) == 0
        records = json.loads(capsys.readouterr().out)
        # train → save → score, then the EXPLAIN ANALYZE score run whose
        # statement trace `repro trace` renders.
        assert [r["kind"] for r in records] == ["train", "score", "score"]
        assert records[0]["label"] == "demo_linear"
        assert records[1]["model"] == "demo_model:v1"
        assert all(r["tuples"] > 0 for r in records)

    def test_runs_show(self, capsys):
        assert main(["--format", "json", "runs", "show", "1"]) == 0
        detail = json.loads(capsys.readouterr().out)
        assert detail["run_id"] == 1
        assert detail["config"]["segments"] == 2
        assert detail["metrics"]["engine.total_cycles"] == detail["cycles"]
        # the demo session runs under an armed telemetry session, so the
        # record carries span rollups
        assert detail["metrics"]["span.runtime.epoch.count"] >= 2

    def test_runs_table_and_limit(self, capsys):
        assert main(["runs", "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "score" in out
        assert "train" not in out.splitlines()[2]

    def test_trace(self, capsys):
        # the demo session's EXPLAIN ANALYZE score run is the last (3rd)
        # record; its persisted trace renders the annotated plan + rollup.
        assert main(["trace", "3"]) == 0
        out = capsys.readouterr().out
        assert "ScanScore" in out
        assert "predicted:" in out and "actual:" in out
        assert "span rollup" in out
        assert "serving.scorer.segment" in out

    def test_trace_json_round_trip(self, capsys):
        assert main(["--format", "json", "trace", "3"]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["analyze"] is True
        assert trace["operators"]["name"] == "ScanScore"
        assert trace["rollup"]["serving.scorer.segment"]["count"] >= 2

    def test_trace_missing(self, capsys):
        # run 1 (the plain train run) has no trace; unknown ids error too.
        assert main(["trace", "1"]) == 1
        assert "no recorded statement trace" in capsys.readouterr().err
        assert main(["trace", "999"]) == 1
        assert "999" in capsys.readouterr().err

    def test_models_csv(self, capsys):
        assert main(["--format", "csv", "models"]) == 0
        parsed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert parsed[0][0] == "model"
        assert parsed[1][0] == "demo_model"

    def test_serve_stats(self, capsys):
        assert main(["--format", "json", "serve", "--stats", "--requests", "8"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["requests"] == 8
        assert stats["latency_histogram"]["count"] == 8
        assert stats["p99_latency_ms"] >= stats["p50_latency_ms"] >= 0.0

