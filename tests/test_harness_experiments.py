"""Tests for the experiment harness: every table/figure function produces
rows whose *shape* matches the paper's qualitative findings."""

import json
import pathlib

import pytest

from repro.harness import format_table
from repro.harness.experiments import (
    EXPERIMENTS,
    ablation_design_space,
    fig8_real_datasets,
    fig9_synthetic_nominal,
    fig10_synthetic_extensive,
    fig11_strider_benefit,
    fig12_thread_sweep,
    fig13_greenplum_segments,
    fig14_bandwidth_sweep,
    fig15_end_to_end,
    fig15_external_breakdown,
    fig16_tabla,
    table2_strider_isa,
    table3_workloads,
    table5_absolute_runtimes,
)


def _row(rows, **filters):
    for row in rows:
        if all(row.get(k) == v for k, v in filters.items()):
            return row
    raise AssertionError(f"no row matching {filters}")


class TestTables:
    def test_table2_programs_fit_isa(self):
        rows = table2_strider_isa()
        assert len(rows) == 3
        assert all(row["all_words_fit_22_bits"] for row in rows)
        assert all(row["instruction_bits"] == 22 for row in rows)

    def test_table3_has_all_workloads(self):
        rows = table3_workloads()
        assert len(rows) == 14
        netflix = _row(rows, workload="Netflix")
        assert netflix["model_topology"] == "6040x3952x10"

    def test_table5_ordering_matches_paper(self):
        rows = table5_absolute_runtimes()
        assert len(rows) == 14
        for row in rows:
            assert row["dana_postgres_s"] < row["madlib_postgres_s"] * 1.2
        # the largest MADlib runtime is the S/E Logistic workload, as in Table 5
        worst = max(rows, key=lambda r: r["madlib_postgres_s"])
        assert worst["workload"] == "S/E Logistic"


class TestSpeedupFigures:
    def test_fig8_geomean_in_paper_ballpark(self):
        rows = fig8_real_datasets(warm_cache=True)
        geomean_row = _row(rows, workload="Geomean")
        assert 5.0 <= geomean_row["dana_speedup"] <= 14.0      # paper: 8.3
        assert 1.2 <= geomean_row["greenplum_speedup"] <= 4.0   # paper: 2.1
        best = _row(rows, workload="Remote Sensing LR")
        assert best["dana_speedup"] > 20                        # paper: 28.2

    def test_fig8_cold_cache_lower_than_warm(self):
        warm = _row(fig8_real_datasets(True), workload="Geomean")["dana_speedup"]
        cold = _row(fig8_real_datasets(False), workload="Geomean")["dana_speedup"]
        assert cold < warm

    def test_fig9_and_fig10_dana_wins(self):
        for rows in (fig9_synthetic_nominal(True), fig10_synthetic_extensive(True)):
            geomean_row = _row(rows, workload="Geomean")
            assert geomean_row["dana_speedup"] > geomean_row["greenplum_speedup"]

    def test_fig9_lrmf_is_dana_weak_spot(self):
        rows = fig9_synthetic_nominal(True)
        lrmf = _row(rows, workload="S/N LRMF")
        others = [r for r in rows if r["workload"] not in ("S/N LRMF", "Geomean")]
        assert all(lrmf["dana_speedup"] <= r["dana_speedup"] for r in others)
        assert lrmf["greenplum_speedup"] >= lrmf["dana_speedup"] * 0.8

    def test_every_speedup_row_has_paper_reference(self):
        for rows in (fig8_real_datasets(True), fig9_synthetic_nominal(True)):
            for row in rows:
                assert row["paper_dana_speedup"] is not None


class TestAblationsAndSweeps:
    def test_fig11_striders_amplify(self):
        rows = fig11_strider_benefit()
        geomean_row = _row(rows, workload="Geomean")
        assert geomean_row["dana_with_strider"] > geomean_row["dana_without_strider"]
        assert geomean_row["strider_amplification"] > 1.5

    def test_fig12_narrow_models_scale_with_threads(self):
        rows = fig12_thread_sweep()
        rs = [r for r in rows if r["workload"] == "Remote Sensing LR"]
        assert rs[0]["runtime_vs_single_thread"] == pytest.approx(1.0)
        assert min(r["runtime_vs_single_thread"] for r in rs) < 0.5
        # monotonically non-increasing runtime with more threads
        values = [r["runtime_vs_single_thread"] for r in rs]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_fig12_lrmf_flat(self):
        rows = fig12_thread_sweep()
        netflix = [r["runtime_vs_single_thread"] for r in rows if r["workload"] == "Netflix"]
        assert max(netflix) - min(netflix) < 0.1

    def test_fig13_eight_segments_best(self):
        rows = fig13_greenplum_segments()
        for workload in ("Remote Sensing LR", "Patient"):
            eight = _row(rows, workload=workload, segments=8)["speedup_vs_8_segments"]
            sixteen = _row(rows, workload=workload, segments=16)["speedup_vs_8_segments"]
            postgres = _row(rows, workload=workload, segments="postgres")["speedup_vs_8_segments"]
            assert eight == pytest.approx(1.0)
            assert sixteen < 1.0
            assert postgres < 1.0

    def test_fig14_bandwidth_monotone(self):
        rows = fig14_bandwidth_sweep()
        geomeans = {r["bandwidth_scale"]: r["speedup_vs_baseline_bandwidth"]
                    for r in rows if r["workload"] == "Geomean"}
        assert geomeans[0.25] < geomeans[0.5] < geomeans[1.0] <= geomeans[2.0] <= geomeans[4.0]

    def test_fig14_lrmf_insensitive(self):
        rows = fig14_bandwidth_sweep()
        lrmf = {r["bandwidth_scale"]: r["speedup_vs_baseline_bandwidth"]
                for r in rows if r["workload"] == "S/N LRMF"}
        assert lrmf[4.0] - lrmf[0.25] < 0.3

    def test_fig15_export_dominates(self):
        rows = fig15_external_breakdown()
        assert rows, "no external-library rows"
        for row in rows:
            assert row["data_export_pct"] > row["data_transform_pct"]

    def test_fig15_dana_fastest_end_to_end(self):
        rows = fig15_end_to_end()
        for row in rows:
            competitors = [v for k, v in row.items()
                           if k in ("liblinear", "dimmwitted", "madlib_greenplum") and v]
            assert row["dana"] >= max(competitors) * 0.8

    def test_fig16_dana_beats_tabla(self):
        rows = fig16_tabla()
        geomean_row = _row(rows, workload="Geomean")
        assert geomean_row["dana_speedup_over_tabla"] > 1.5

    def test_design_space_ablation(self):
        rows = ablation_design_space("Remote Sensing LR")
        assert any(row["chosen"] for row in rows)
        chosen = _row(rows, chosen=True)
        best_cycles = min(row["cycles_per_epoch"] for row in rows)
        assert chosen["cycles_per_epoch"] <= best_cycles * 1.01


class TestHarnessUtilities:
    def test_registry_complete(self):
        assert len(EXPERIMENTS) >= 15
        for name, fn in EXPERIMENTS.items():
            assert callable(fn), name

    def test_format_table(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2.5, "b": None}]
        text = format_table(rows, title="demo")
        assert "demo" in text and "a" in text and "x" in text and "-" in text
        assert format_table([]) == "(no rows)"


#: ``{(experiment, row, column): (value at PR 20, value now)}`` — every cell
#: of the paper harness that has moved since the rows recorded in
#: ``tests/data/paper_figures_pr20.json``, with its cause.
MOVED_CELLS = {
    # PR 21, the FPGA model walks a page with Strider.walk_cost: one more
    # cycle per tuple (the line-pointer READB its hand formula forgot), which
    # shows where the page walk is the bottleneck — the three S/N workloads
    # that are Strider-bound at 4x bandwidth
    ("fig14_bandwidth_sweep", 34, "speedup_vs_baseline_bandwidth"): (2.395, 2.393),
    ("fig14_bandwidth_sweep", 39, "speedup_vs_baseline_bandwidth"): (2.734, 2.732),
    ("fig14_bandwidth_sweep", 49, "speedup_vs_baseline_bandwidth"): (2.419, 2.418),
    # PR 21, the estimator's data cycles are AccessEngineStats.of_page_runs:
    # the generator's page walk is the interpreter's (+1 cycle per page) and
    # AXI cycles are ceiled per wave, as AccessEngineStats.merge_batch books
    **{
        ("ablation_design_space", row, "data_cycles_per_epoch"): (1834833.4, 1834912.0)
        for row in range(8)
    },
    **{
        ("ablation_design_space", row, "cycles_per_epoch"): (1834833.4, 1834912.0)
        for row in range(4, 8)  # the bandwidth-bound candidates
    },
    # PR 21, the estimator's compute cycles are engine_epoch_cost: the last,
    # partial batch merges only the tuples it holds (one tree-bus level less)
    ("ablation_design_space", 2, "compute_cycles_per_epoch"): (4067728.0, 4067721.0),
    ("ablation_design_space", 2, "cycles_per_epoch"): (4067728.0, 4067721.0),
    ("ablation_design_space", 5, "compute_cycles_per_epoch"): (944320.0, 944313.0),
}


def test_figures_are_the_recorded_ones_except_the_named_cells():
    """Figure pin: every row of every experiment (the functional Fig. 13
    column aside) equals the rows recorded at PR 20, except the cells
    ``MOVED_CELLS`` names — a cost-model change must say which printed
    numbers it moved, and why."""
    recorded = json.loads(
        (pathlib.Path(__file__).parent / "data" / "paper_figures_pr20.json").read_text()
    )
    assert set(recorded) == set(EXPERIMENTS) - {"fig13_greenplum_segments"}
    unmoved = set(MOVED_CELLS)
    for name, rows in recorded.items():
        regenerated = EXPERIMENTS[name]()
        assert len(regenerated) == len(rows), name
        for index, (row, now) in enumerate(zip(rows, regenerated)):
            assert set(row) == set(now), (name, index)
            for column, value in row.items():
                cell = (name, index, column)
                was, expected = MOVED_CELLS.get(cell, (value, value))
                assert value == was, cell
                assert now[column] == expected, cell
                if now[column] != value:
                    unmoved.discard(cell)
    assert not unmoved, f"listed as moved but equal to the record: {sorted(unmoved)}"
