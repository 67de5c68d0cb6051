"""Tests for the analytical performance models (CPU, IO, FPGA, reports)."""

import dataclasses

import pytest

from repro.algorithms import algorithm_keys
from repro.data import WORKLOADS, get_workload, real_workloads
from repro.hw import TreeBus
from repro.hw.fpga import DEFAULT_FPGA
from repro.hw.ledger import engine_epoch_cost
from repro.perf import (
    DAnAModel,
    ExternalLibraryModel,
    GreenplumModel,
    IOModel,
    MADlibPostgresModel,
    PAPER_EPOCHS,
    RuntimeBreakdown,
    TABLAModel,
    epochs_for,
    format_seconds,
    geomean,
)
from repro.perf.fpga_model import PAPER_LAYOUT
from repro.rdbms.types import Schema


class TestReportHelpers:
    def test_breakdown_total_and_speedup(self):
        a = RuntimeBreakdown(system="A", workload="w", io=1.0, compute=3.0)
        b = RuntimeBreakdown(system="B", workload="w", io=0.5, compute=0.5)
        assert a.total == 4.0
        assert b.speedup_over(a) == pytest.approx(4.0)
        assert a.as_dict()["total_s"] == 4.0

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0

    def test_format_seconds(self):
        assert format_seconds(0.61) == "0s 610ms"
        assert format_seconds(131.0) == "2m 11s"
        assert format_seconds(3666) == "1h 1m 6s"

    def test_epochs_for_covers_every_workload(self):
        for workload in WORKLOADS:
            assert workload.name in PAPER_EPOCHS
            assert epochs_for(workload) >= 1


class TestIOModel:
    def test_cold_cache_costs_more_than_warm(self):
        io = IOModel()
        workload = get_workload("Remote Sensing LR")
        cold = io.total_io_seconds(workload, warm_cache=False, epochs=5)
        warm = io.total_io_seconds(workload, warm_cache=True, epochs=5)
        assert cold > warm
        assert warm == pytest.approx(0.0)

    def test_oversized_table_pays_per_epoch_io(self):
        io = IOModel()
        workload = get_workload("S/E SVM")  # 38 GB, larger than the 30 GB cache
        estimate = io.estimate(workload, warm_cache=True, epochs=10)
        assert 0.0 < estimate.resident_fraction < 1.0
        assert estimate.per_epoch_seconds > 0.0

    def test_small_table_fits(self):
        io = IOModel()
        workload = get_workload("WLAN")
        estimate = io.estimate(workload, warm_cache=True, epochs=10)
        assert estimate.resident_fraction == 1.0
        assert estimate.per_epoch_seconds == 0.0

    def test_scan_seconds_scale_with_pages(self):
        io = IOModel()
        assert io.scan_seconds(2000) > io.scan_seconds(1000) > 0


class TestCPUModels:
    def test_madlib_scales_with_model_width(self):
        madlib = MADlibPostgresModel()
        narrow = madlib.epoch_compute_seconds(get_workload("Remote Sensing LR"))
        wide = madlib.epoch_compute_seconds(get_workload("S/N Logistic"))
        assert wide > narrow

    def test_linear_regression_is_single_pass(self):
        madlib = MADlibPostgresModel()
        workload = get_workload("Patient")
        assert madlib.total_compute_seconds(workload, epochs=10) == pytest.approx(
            madlib.total_compute_seconds(workload, epochs=100)
        )

    def test_greenplum_sweet_spot_at_8_segments(self):
        workload = get_workload("Remote Sensing LR")
        epochs = epochs_for(workload)
        totals = {
            segments: GreenplumModel(segments=segments).estimate(workload, epochs).total
            for segments in (1, 4, 8, 16)
        }
        assert totals[8] < totals[4] < totals[1]
        assert totals[8] < totals[16]

    def test_greenplum_beats_single_node_on_compute_bound(self):
        workload = get_workload("S/N Logistic")
        epochs = epochs_for(workload)
        madlib = MADlibPostgresModel().estimate(workload, epochs)
        greenplum = GreenplumModel(8).estimate(workload, epochs)
        assert greenplum.total < madlib.total

    def test_external_library_breakdown_sums_to_one(self):
        model = ExternalLibraryModel(library="Liblinear")
        workload = get_workload("Remote Sensing LR")
        fractions = model.breakdown_fractions(workload, epochs_for(workload))
        assert sum(fractions.values()) == pytest.approx(1.0, abs=0.01)
        assert fractions["data_export"] > 0.4  # export dominates (Figure 15a)

    def test_external_svm_compute_is_slow(self):
        model = ExternalLibraryModel(library="DimmWitted")
        workload = get_workload("Remote Sensing SVM")
        epochs = epochs_for(workload)
        external = model.compute_seconds(workload, epochs)
        madlib = MADlibPostgresModel().total_compute_seconds(workload, epochs)
        assert external > madlib  # paper §7.3: external SVM solvers lose to MADlib


class TestDAnAModel:
    def test_dana_beats_madlib_on_real_workloads(self):
        madlib = MADlibPostgresModel()
        dana = DAnAModel()
        speedups = []
        for workload in real_workloads():
            epochs = epochs_for(workload)
            speedups.append(
                madlib.estimate(workload, epochs).total / dana.estimate(workload, epochs).total
            )
        assert all(s >= 1.0 for s in speedups)
        assert 5.0 < geomean(speedups) < 14.0       # paper: 8.3x
        assert max(speedups) > 20.0                 # paper: 28.2x

    def test_blog_feedback_smallest_real_speedup(self):
        madlib = MADlibPostgresModel()
        dana = DAnAModel()
        speedups = {}
        for workload in real_workloads():
            epochs = epochs_for(workload)
            speedups[workload.name] = (
                madlib.estimate(workload, epochs).total / dana.estimate(workload, epochs).total
            )
        assert min(speedups, key=speedups.get) == "Blog Feedback"

    def test_cold_cache_reduces_speedup(self):
        madlib = MADlibPostgresModel()
        dana = DAnAModel()
        workload = get_workload("Remote Sensing LR")
        epochs = epochs_for(workload)
        warm = madlib.estimate(workload, epochs, True).total / dana.estimate(workload, epochs, True).total
        cold = madlib.estimate(workload, epochs, False).total / dana.estimate(workload, epochs, False).total
        assert cold < warm

    def test_striders_amplify_speedup(self):
        dana = DAnAModel()
        no_strider = dana.without_striders()
        workload = get_workload("Remote Sensing LR")
        epochs = epochs_for(workload)
        assert no_strider.estimate(workload, epochs).total > dana.estimate(workload, epochs).total

    def test_bandwidth_sensitivity_direction(self):
        dana = DAnAModel()
        workload = get_workload("S/N Logistic")        # bandwidth-bound
        epochs = epochs_for(workload)
        slower = dana.with_bandwidth_scale(0.25).estimate(workload, epochs).total
        faster = dana.with_bandwidth_scale(4.0).estimate(workload, epochs).total
        baseline = dana.estimate(workload, epochs).total
        assert slower > baseline > faster

    def test_lrmf_insensitive_to_bandwidth(self):
        dana = DAnAModel()
        workload = get_workload("S/N LRMF")            # compute-bound
        epochs = epochs_for(workload)
        slow = dana.with_bandwidth_scale(0.25).estimate(workload, epochs).total
        base = dana.estimate(workload, epochs).total
        assert slow / base < 1.3

    def test_more_threads_help_narrow_models(self):
        workload = get_workload("Remote Sensing LR")
        single = DAnAModel(merge_coefficient=1, max_threads=1).epoch_cost(workload)
        many = DAnAModel(merge_coefficient=64).epoch_cost(workload)
        assert many.compute_seconds < single.compute_seconds

    def test_tabla_slower_than_dana(self):
        tabla = TABLAModel()
        dana = DAnAModel()
        speedups = []
        for name in ("Remote Sensing LR", "WLAN", "Remote Sensing SVM", "Patient"):
            workload = get_workload(name)
            epochs = epochs_for(workload)
            speedups.append(
                tabla.estimate(workload, epochs).total / dana.estimate(workload, epochs).total
            )
        assert geomean(speedups) > 1.5

    def test_greenplum_competitive_on_lrmf(self):
        madlib = MADlibPostgresModel()
        workload = get_workload("S/N LRMF")
        epochs = epochs_for(workload)
        base = madlib.estimate(workload, epochs).total
        dana_speedup = base / DAnAModel().estimate(workload, epochs).total
        gp_speedup = base / GreenplumModel(8).estimate(workload, epochs).total
        assert gp_speedup >= dana_speedup * 0.8    # paper: Greenplum wins LRMF

    def test_design_cache_reused(self):
        dana = DAnAModel()
        workload = get_workload("WLAN")
        first_design, first_graph = dana.design_for(workload)
        second_design, second_graph = dana.design_for(workload)
        assert first_design is second_design
        assert first_graph is second_graph

    @pytest.mark.parametrize("key", algorithm_keys())
    def test_page_walk_is_the_interpreter_count(self, key, walk_full_page):
        """Regression: the model's hand formula forgot the line-pointer READB
        (61 vs 62 cycles per Remote Sensing LR tuple) and sized the on-page
        tuple with the line pointer added.  At an integer tuples/page the
        model's page walk is what the interpreter counts on a packed page."""
        workload = next(w for w in WORKLOADS if w.algorithm_key == key)
        # a Table 3 LRMF row is wider than a page: narrow it to 100 ratings
        columns = 100 if key == "lrmf" else workload.model_topology[0] + 1
        schema = Schema.training_schema(columns - 1)
        capacity, walked = walk_full_page(PAPER_LAYOUT, schema)
        workload = dataclasses.replace(
            workload,
            paper_pages=100,
            paper_tuples=100 * capacity,
            paper_size_mb=100 * capacity * (schema.row_width + 12 + 2) / 2**20,
        )
        assert schema.row_width == workload.tuple_bytes
        assert workload.tuples_per_page == capacity
        assert DAnAModel().strider_cycles_per_page(workload) == walked.cycles

    @pytest.mark.parametrize(
        "workload", [w for w in WORKLOADS if w.algorithm_key != "lrmf"], ids=lambda w: w.name
    )
    def test_compute_cycles_are_the_chosen_design_points(self, workload):
        """The figures' compute seconds are the cycles the design-space
        estimator priced with the engine's own epoch function."""
        model = DAnAModel()
        design, graph = model.design_for(workload)
        point = design.design_point
        cost = model.epoch_cost(workload)
        assert cost.compute_seconds == (
            point.compute_cycles_per_epoch / DEFAULT_FPGA.frequency_hz
        )
        engine, _bus = engine_epoch_cost(
            workload.paper_tuples,
            batch_size=point.threads,
            threads=point.threads,
            region_cycles=(point.update_rule_cycles, point.post_merge_cycles, 0),
            merge_widths=[graph.node(i).element_count for i in graph.merge_node_ids],
            bus=TreeBus(alu_count=design.aus_per_cluster),
            epoch_end=False,
        )
        assert engine.total_cycles == point.compute_cycles_per_epoch
        assert engine.tuples_processed == workload.paper_tuples
