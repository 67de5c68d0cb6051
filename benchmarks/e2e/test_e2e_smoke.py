"""Tier-1 smoke test of the referee benchmark (``--smoke`` sizes, about 20 s).

The numbers mean nothing at these sizes; what is checked is the contract:
every name ``BENCHMARK.json`` declares is emitted with its unit, every
correctness check passes, inputs depend on the seed and on nothing else, and
the comparator accepts a file against itself.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT)) if p not in sys.path]

from benchmarks.e2e import compare, workloads  # noqa: E402
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


@pytest.fixture(scope="module")
def suite(tmp_path_factory) -> dict:
    """One traced + untraced smoke set of all six workloads."""
    out = tmp_path_factory.mktemp("e2e") / "suite.json"
    done = subprocess.run(
        [*RUN, "--smoke", "--seconds", "0.3", "--seed", str(SEED), "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())
    result["path"] = out
    result["stdout"] = done.stdout
    return result


def test_every_declared_metric_is_emitted_with_its_unit(suite):
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert sorted(suite["workloads"]) == sorted(WORKLOADS)
    for name, run in suite["workloads"].items():
        emitted = {k: v["unit"] for k, v in run["metrics"].items()}
        assert emitted.pop("failed_ops_share") == "ratio"
        assert emitted == declared, name
        assert run["failed"] == 0 and run["attempted"] > 0, name
        for metric in SPEC["end_to_end"]:
            assert run["metrics"][metric["name"]]["median"] > 0, (name, metric["name"])
    assert "checks: all passed" in suite["stdout"]


def test_results_are_stamped(suite):
    stamp = suite["stamp"]
    assert stamp["seed"] == SEED and stamp["usable_cores"] >= 1
    assert {"git_rev", "git_dirty", "python", "numpy"} <= set(stamp)
    metric = suite["workloads"]["score_scan"]["metrics"]["throughput_per_s"]
    assert {"values", "n", "median", "q1", "q3"} <= set(metric)


def test_inputs_depend_on_the_seed_only(suite):
    for name in WORKLOADS:
        same = workloads.generate(name, SEED, smoke=True)
        other = workloads.generate(name, SEED + 1, smoke=True)
        # The child interpreter generated the very same bytes and SQL text.
        assert same.fingerprint() == suite["workloads"][name]["inputs_sha256"]
        assert other.fingerprint() != same.fingerprint()


def test_driver_result_line_and_trace_dump():
    done = subprocess.run(
        [*RUN, "--workload", "sql_filtered_predict", "--smoke", "--seconds", "0.2",
         "--seed", "3", "--trace", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    spans = json.loads((HERE / "out" / "trace-sql_filtered_predict.json").read_text())["spans"]
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    assert all(s["end"] >= s["start"] and s["iteration"] is not None for s in spans)


def test_compare_accepts_a_file_against_itself_and_rejects_a_regression(
    suite, tmp_path, capsys
):
    assert compare.main(suite["path"], suite["path"]) == 0
    worse = json.loads(suite["path"].read_text())
    metric = worse["workloads"]["train_dense"]["metrics"]["throughput_per_s"]
    metric["values"] = [v / 2 for v in metric["values"]]
    cycles = worse["workloads"]["score_scan"]["metrics"]["hw.modelled_cycles"]
    cycles["values"] = [v + 1 for v in cycles["values"]]
    path = tmp_path / "worse.json"
    path.write_text(json.dumps(worse))
    capsys.readouterr()
    assert compare.main(suite["path"], path) == 1
    assert ", 2 regressed" in capsys.readouterr().out


def test_spawned_workers_reimport_a_guarded_entry_point(suite):
    # execution="processes" spawns workers that re-import run.py as __main__;
    # an unguarded entry point would start the suite again in every worker.
    metrics = suite["workloads"]["train_sharded"]["metrics"]
    assert metrics["cluster.sharded.train_s.processes"]["median"] > 0
    assert metrics["cluster.ipc_round_trips"]["median"] > 0


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads Linux /proc")
def test_a_run_leaves_no_process_behind():
    # The traced train_sharded run spawns workers, which starts multiprocessing's
    # resource tracker; nobody waited for it and it stayed behind as a zombie.
    child = subprocess.Popen(
        [*RUN, "--workload", "train_sharded", "--smoke", "--seconds", "0.2",
         "--seed", "3", "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, start_new_session=True,
    )
    output, _ = child.communicate(timeout=60)
    assert child.returncode == 0, output
    left = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue  # ended while we were looking
        if int(fields[3]) == child.pid:  # session id: the run's own session
            left.append((stat.parent.name, fields[0]))
    assert not left, left
