"""Tests for the access engine, payload decoder, FPGA spec and accelerator."""

import copy

import numpy as np
import pytest

from repro.algorithms import Hyperparameters, LinearRegression
from repro.compiler import ExecutionBinary, HardwareGenerator, Scheduler
from repro.exceptions import ConfigurationError, HardwareError
from repro.hw import (
    ARRIA_10,
    AccessEngine,
    AccessEngineConfig,
    AccessEngineStats,
    DAnAAccelerator,
    DEFAULT_FPGA,
    PayloadDecoder,
    ULTRASCALE_PLUS_VU9P,
)
from repro.compiler.strider_compiler import compile_strider
from repro.rdbms import Database
from repro.translator import translate


class TestFPGASpec:
    def test_vu9p_matches_table4(self):
        assert ULTRASCALE_PLUS_VU9P.luts == 1_182_000
        assert ULTRASCALE_PLUS_VU9P.flip_flops == 2_364_000
        assert ULTRASCALE_PLUS_VU9P.frequency_mhz == 150.0
        assert ULTRASCALE_PLUS_VU9P.bram_bytes == 44 * 1024 * 1024
        assert ULTRASCALE_PLUS_VU9P.dsp_slices == 6_840

    def test_compute_unit_cap(self):
        assert ULTRASCALE_PLUS_VU9P.max_analytic_units() == 1024

    def test_bandwidth_scaling(self):
        scaled = DEFAULT_FPGA.with_bandwidth_scale(2.0)
        assert scaled.axi_bytes_per_second == pytest.approx(2 * DEFAULT_FPGA.axi_bytes_per_second)
        with pytest.raises(ConfigurationError):
            DEFAULT_FPGA.with_bandwidth_scale(0)

    def test_arria10_is_smaller(self):
        assert ARRIA_10.bram_bytes < ULTRASCALE_PLUS_VU9P.bram_bytes
        assert ARRIA_10.max_analytic_units() < ULTRASCALE_PLUS_VU9P.max_analytic_units()

    def test_invalid_spec(self):
        from repro.hw.fpga import FPGASpec

        with pytest.raises(ConfigurationError):
            FPGASpec(name="x", luts=1, flip_flops=1, frequency_mhz=0, bram_bytes=1, dsp_slices=1)


class TestPayloadDecoder:
    def test_decode(self, linear_spec):
        decoder = PayloadDecoder(linear_spec.schema)
        payload = linear_spec.schema.encode_row((1.0, 2.0, 3.0, 4.0, 5.0))
        np.testing.assert_allclose(decoder.decode(payload), [1, 2, 3, 4, 5])

    def test_decode_wrong_length(self, linear_spec):
        decoder = PayloadDecoder(linear_spec.schema)
        with pytest.raises(HardwareError):
            decoder.decode(b"\x00" * 3)

    def test_decode_many_empty(self, linear_spec):
        decoder = PayloadDecoder(linear_spec.schema)
        assert decoder.decode_many([]).shape == (0, 5)


class TestAccessEngine:
    def _engine(self, db, spec, num_striders=4):
        layout = db.layout
        strider = compile_strider(layout, spec.schema)
        config = AccessEngineConfig(num_striders=num_striders, page_size=layout.page_size)
        return AccessEngine(config, strider.program, spec.schema, DEFAULT_FPGA)

    def test_extract_table_matches_loaded_data(self, small_database, linear_spec, small_regression_data):
        engine = self._engine(small_database, linear_spec)
        pages = [img for _no, img in small_database.table("train").scan_pages(small_database.buffer_pool)]
        extracted = engine.extract_table(pages)
        assert extracted.shape == small_regression_data.shape
        np.testing.assert_allclose(extracted, small_regression_data, rtol=1e-5, atol=1e-5)

    def test_stats_accumulate(self, small_database, linear_spec):
        engine = self._engine(small_database, linear_spec, num_striders=2)
        pages = [img for _no, img in small_database.table("train").scan_pages(small_database.buffer_pool)]
        engine.extract_table(pages)
        assert engine.stats.pages_processed == len(pages)
        assert engine.stats.tuples_extracted == 200
        assert engine.stats.axi_cycles > 0
        assert engine.stats.strider_cycles_total >= engine.stats.strider_cycles_critical

    def test_parallel_striders_reduce_critical_cycles(self, linear_spec, rng):
        # Build a multi-page table so that page-level parallelism is visible.
        data = rng.normal(size=(2000, 5))
        db = Database(page_size=8 * 1024)
        db.load_table("big", linear_spec.schema, data)
        pages = [img for _no, img in db.table("big").scan_pages(db.buffer_pool)]
        assert len(pages) > 4
        serial = self._engine(db, linear_spec, num_striders=1)
        parallel = self._engine(db, linear_spec, num_striders=len(pages))
        serial.extract_table(pages)
        parallel.extract_table(pages)
        assert parallel.stats.strider_cycles_critical < serial.stats.strider_cycles_critical

    def test_wrong_page_size_rejected(self, small_database, linear_spec):
        engine = self._engine(small_database, linear_spec)
        with pytest.raises(HardwareError):
            engine.extract_table([b"\x00" * 128])

    @pytest.mark.parametrize("num_striders", [1, 2, 3, 64])
    def test_partition_cost_equals_the_booked_walk(self, linear_spec, rng, num_striders):
        # The cost function prices a partition from per-page tuple counts
        # alone; walking the pages must book exactly that, field for field
        # (full pages plus a partial tail page; 9 pages leave a ragged last wave).
        data = rng.normal(size=(1130, 5))
        db = Database(page_size=4 * 1024)
        db.load_table("big", linear_spec.schema, data)
        table = db.table("big")
        pages = [img for _no, img in table.scan_pages(db.buffer_pool)]
        per_page = table.tuples_per_page()
        counts = [min(per_page, 1130 - i * per_page) for i in range(len(pages))]
        assert len(set(counts)) == 2 and len(pages) % 2 == 1
        engine = self._engine(db, linear_spec, num_striders=num_striders)
        predicted = engine.partition_cost(counts)
        assert engine.stats == AccessEngineStats()  # pricing books nothing
        engine.extract_table(pages)
        assert predicted == engine.stats
        assert predicted.access_cycles == (
            engine.stats.strider_cycles_critical + engine.stats.axi_cycles
        )
        # the CPU-decode model books no access activity, so it prices none
        assert engine.partition_cost(counts, use_striders=False) == AccessEngineStats()
        assert engine.partition_cost([]) == AccessEngineStats()

    def test_invalid_config(self):
        with pytest.raises(HardwareError):
            AccessEngineConfig(num_striders=0, page_size=8192)


class TestDAnAAccelerator:
    @pytest.fixture
    def accelerator(self, small_database, linear_spec):
        graph = translate(linear_spec.algo)
        generator = HardwareGenerator(
            graph,
            small_database.layout,
            linear_spec.schema,
            DEFAULT_FPGA,
            merge_coefficient=linear_spec.algo.merge_coefficient,
            n_tuples=200,
        )
        design = generator.generate()
        schedule = Scheduler(graph, design.acs_per_thread).schedule()
        binary = ExecutionBinary.build(
            "linearR", "linear", design, generator.strider_compilation, schedule, graph
        )
        return DAnAAccelerator(binary, linear_spec.schema, DEFAULT_FPGA)

    def test_binary_describe(self, accelerator):
        description = accelerator.binary.describe()
        assert description["udf"] == "linearR"
        assert description["strider_instructions"] > 0
        assert description["engine_instructions"] > 0
        assert description["operation_map_entries"] > 0

    def test_train_from_pages_learns(self, accelerator, small_database, linear_spec, small_regression_data):
        pages = [img for _no, img in small_database.table("train").scan_pages(small_database.buffer_pool)]
        run = accelerator.train_from_pages(
            pages, linear_spec.initial_models, linear_spec.bind_tuple, epochs=40
        )
        loss = LinearRegression().loss(small_regression_data, run.models)
        assert loss < 0.05
        assert run.tuples_extracted == 200
        assert run.access_stats.pages_processed == len(pages)
        assert run.engine_stats.total_cycles > 0

    def test_with_and_without_striders_same_result(self, accelerator, small_database, linear_spec):
        pages = [img for _no, img in small_database.table("train").scan_pages(small_database.buffer_pool)]
        rows = small_database.table("train").read_all(small_database.buffer_pool)
        with_striders = accelerator.train_from_pages(
            pages, linear_spec.initial_models, linear_spec.bind_tuple, epochs=10
        )
        # The CPU-decode model, through the same seam: the RDBMS-side rows,
        # no Strider activity booked.
        strider_stats = copy.copy(accelerator.access_engine.stats)
        source = accelerator.access_engine.open(pages, use_striders=False, stream=False)
        np.testing.assert_array_equal(source.rows(), rows)
        from_rows = accelerator.train(
            source, linear_spec.initial_models, linear_spec.bind_tuple, epochs=10
        )
        assert from_rows.tuples_extracted == len(rows)
        # The run reports its own (zero) counters; the engine's cumulative
        # ones did not move.
        assert from_rows.access_stats == AccessEngineStats()
        assert accelerator.access_engine.stats == strider_stats
        np.testing.assert_allclose(
            with_striders.models["mo"], from_rows.models["mo"], rtol=1e-5, atol=1e-6
        )
