"""Tests for the pipelined epoch runtime (repro.runtime).

Invariants enforced here:

* **streaming changes nothing but wall-clock** — at the default
  ``staleness=1`` the pipelined path (streamed extraction, shared
  ``EpochDriver`` loop) is bit-identical — models *and*
  schedule-derived counters — to the barriered/materialized path for all
  four algorithms at segments ∈ {1, 2, 4}, and on the single-engine path;
* **``staleness=k`` trades merges for staleness, boundedly** — the
  merge cadence is ``ceil(epochs / staleness)`` and the final loss stays
  within tolerance of the merge-every-epoch fit;
* **configuration fails fast** — invalid ``DAnA.train`` arguments raise
  ``ConfigurationError`` naming the valid choices;
* **the lock-step epoch plan is cached** — a ``shuffle=False`` epoch block
  is stacked once and reused, never re-trimmed per epoch;
* **blocks are the materialised batches** — ``BatchSource.blocks`` over any
  chunking cuts exactly the batches of slicing the stacked matrix.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import Hyperparameters, get_algorithm
from repro.cluster import ShardedDAnA
from repro.cluster.sharded import _LockstepStep
from repro.core import DAnA, TrainPlan
from repro.data.synthetic import generate_for_algorithm
from repro.exceptions import ConfigurationError, HardwareError
from repro.perf.segment_model import ShardedRunCost
from repro.rdbms import Database
from repro.runtime import BatchSource
from repro.runtime.epoch_driver import merge_boundary

LRMF_TOPOLOGY = (24, 18, 4)
EPOCHS = 4


def _system(key, n_tuples=640, merge=8, epochs=EPOCHS, seed=11):
    algorithm = get_algorithm(key)
    n_features = 4 if key == "lrmf" else 6
    topology = LRMF_TOPOLOGY if key == "lrmf" else ()
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=merge, epochs=epochs)
    spec = algorithm.build_spec(n_features, hyper, topology)
    data = generate_for_algorithm(key, n_tuples, n_features, LRMF_TOPOLOGY, seed=seed)
    database = Database(page_size=8 * 1024)
    database.load_table("train", spec.schema, data)
    database.warm_cache("train")
    system = DAnA(database)
    system.register_udf(key, spec, epochs=epochs)
    return system, spec, algorithm, data


# ---------------------------------------------------------------------- #
# BatchSource: the bounded double buffer
# ---------------------------------------------------------------------- #
class TestBatchSource:
    def _chunks(self, sizes, n_cols=3, start=0):
        offset = start
        for size in sizes:
            chunk = np.arange(offset, offset + size * n_cols, dtype=np.float64)
            yield chunk.reshape(size, n_cols)
            offset += size * n_cols

    def test_batches_match_materialized_slicing(self):
        chunks = list(self._chunks([5, 1, 7, 0, 4]))
        rows = np.vstack(chunks)
        source = BatchSource(iter(chunks), n_columns=3)
        batches = list(source.batches(4))
        expected = [rows[s : s + 4] for s in range(0, len(rows), 4)]
        assert len(batches) == len(expected)
        for got, want in zip(batches, expected):
            np.testing.assert_array_equal(got, want)

    def test_rows_equals_vstack_and_is_cached(self):
        chunks = list(self._chunks([3, 2]))
        source = BatchSource(iter(chunks), n_columns=3)
        rows = source.rows()
        np.testing.assert_array_equal(rows, np.vstack(chunks))
        assert source.rows() is rows

    def test_batches_are_restartable_after_partial_consumption(self):
        chunks = list(self._chunks([4, 4, 4]))
        source = BatchSource(iter(chunks), n_columns=3)
        first = next(iter(source.batches(5)))
        again = list(source.batches(5))
        np.testing.assert_array_equal(again[0], first)
        np.testing.assert_array_equal(np.vstack(again), np.vstack(chunks))

    def test_has_rows_peeks_past_empty_chunks(self):
        source = BatchSource(self._chunks([0, 0, 2]), n_columns=3)
        assert source.has_rows()
        empty = BatchSource(self._chunks([0, 0]), n_columns=3)
        assert not empty.has_rows()

    def test_empty_stream(self):
        source = BatchSource(iter(()), n_columns=4)
        assert list(source.batches(8)) == []
        assert source.rows().shape == (0, 4)

    def test_from_rows_is_the_degenerate_source(self):
        rows = np.arange(12.0).reshape(4, 3)
        source = BatchSource.from_rows(rows)
        assert source.has_rows()
        np.testing.assert_array_equal(source.rows(), rows)
        np.testing.assert_array_equal(next(iter(source.batches(2))), rows[:2])

    def test_chunks_are_the_matrices_as_delivered(self):
        chunks = list(self._chunks([5, 1, 0, 7, 4]))
        given = [chunk for chunk in chunks if len(chunk)]
        for source in (
            BatchSource(iter(chunks), n_columns=3),
            BatchSource.from_chunks(chunks, n_columns=3),
        ):
            first = next(iter(source.chunks()))  # restartable, like batches()
            got = list(source.chunks())
            assert got[0] is first
            assert len(got) == len(given)
            assert all(a is b for a, b in zip(got, given))  # identity: no copy
            assert source.sizes == [5, 1, 0, 7, 4]

    def test_from_chunks_stacks_on_demand_and_keeps_its_granularity(self):
        chunks = list(self._chunks([5, 1, 0, 7, 4]))
        stacked = np.vstack(chunks)
        source = BatchSource.from_chunks(chunks, n_columns=3)
        assert source.materialised and source._rows is None  # nothing stacked yet
        for size in (1, 4, 6, 100):
            want = [stacked[s : s + size] for s in range(0, len(stacked), size)]
            got = list(source.batches(size))
            assert [b.tolist() for b in got] == [b.tolist() for b in want]
        rows = source.rows()
        np.testing.assert_array_equal(rows, stacked)
        assert source.rows() is rows
        # still one matrix per wave, now views of the one stacked copy
        again = list(source.chunks())
        assert [c.tolist() for c in again] == [c.tolist() for c in chunks if len(c)]
        assert all(np.shares_memory(chunk, rows) for chunk in again)
        assert [b.tolist() for b in source.batches(4)] == [
            stacked[s : s + 4].tolist() for s in range(0, len(stacked), 4)
        ]

    def test_a_single_chunk_is_the_callers_matrix(self):
        rows = np.arange(12.0).reshape(4, 3)
        source = BatchSource.from_rows(rows)
        assert source.materialised
        assert source.rows() is rows
        assert [chunk is rows for chunk in source.chunks()] == [True]
        assert np.shares_memory(next(iter(source.batches(2))), rows)
        empty = BatchSource.from_chunks([], n_columns=3)
        assert list(empty.chunks()) == [] and empty.rows().shape == (0, 3)

    @settings(max_examples=80, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=23), max_size=8),
        batch_size=st.integers(min_value=1, max_value=9),
    )
    def test_blocks_cut_the_batches_of_the_materialised_matrix(self, sizes, batch_size):
        """Whatever the chunking: whole batches per block, the straddling
        batch on its own, the tail last, and batch boundaries equal to
        slicing the stacked matrix."""
        chunks = list(self._chunks(sizes))
        stacked = np.vstack(chunks) if chunks else np.empty((0, 3))
        source = BatchSource.from_chunks(chunks, n_columns=3)
        blocks = list(source.blocks(batch_size))
        assert all(len(block) for block in blocks)
        assert all(len(block) % batch_size == 0 for block in blocks[:-1])
        if blocks and len(blocks[-1]) % batch_size:
            assert len(blocks[-1]) < batch_size  # the one short tail, last
        got = [
            block[s : s + batch_size]
            for block in blocks
            for s in range(0, len(block), batch_size)
        ]
        want = [stacked[s : s + batch_size] for s in range(0, len(stacked), batch_size)]
        assert [b.tolist() for b in got] == [b.tolist() for b in want]
        assert [b.tolist() for b in source.batches(batch_size)] == [
            b.tolist() for b in want
        ]
        # the only copies are batches that straddle two chunks
        for block in blocks:
            if not any(np.shares_memory(block, chunk) for chunk in chunks):
                assert len(block) <= batch_size

    def test_producer_errors_propagate_to_consumer(self):
        def chunks():
            yield np.ones((2, 3))
            raise HardwareError("page walk failed")

        source = BatchSource(chunks(), n_columns=3)
        with pytest.raises(HardwareError, match="page walk failed"):
            source.rows()


# ---------------------------------------------------------------------- #
# the merge-boundary rule
# ---------------------------------------------------------------------- #
class TestMergeBoundary:
    def test_bulk_merges_every_epoch(self):
        assert [merge_boundary(e, 1, 10) for e in range(4)] == [0, 1, 2, 3]

    def test_stale_boundaries_every_k_epochs_and_final(self):
        # boundaries at epochs 2, 5, ... and always the final epoch
        assert merge_boundary(0, 3, 10) == 2
        assert merge_boundary(3, 3, 10) == 5
        assert merge_boundary(9, 3, 10) == 9
        assert merge_boundary(7, 3, 8) == 7
        assert merge_boundary(4, 1, 10) == 4


# ---------------------------------------------------------------------- #
# merge-every-epoch pipelined == barriered, bit for bit
# ---------------------------------------------------------------------- #
class TestStreamingParity:
    @pytest.mark.parametrize("key", ["linear", "logistic", "svm", "lrmf"])
    @pytest.mark.parametrize("segments", [1, 2, 4])
    def test_sharded_stream_parity(self, key, segments):
        system, spec, _algo, _data = _system(key)
        streamed = system.train(key, "train", epochs=EPOCHS, segments=segments)
        barriered = system.train(
            key, "train", epochs=EPOCHS, segments=segments, stream=False
        )
        assert streamed.cluster.stream and not barriered.cluster.stream
        assert streamed.cluster.staleness == 1
        for name in streamed.models:
            np.testing.assert_array_equal(streamed.models[name], barriered.models[name])
        assert streamed.engine_stats == barriered.engine_stats
        assert streamed.access_stats == barriered.access_stats
        assert streamed.tuples_extracted == barriered.tuples_extracted
        assert streamed.cluster.merges_performed == barriered.cluster.merges_performed
        assert (
            streamed.cluster.cross_merge_cycles == barriered.cluster.cross_merge_cycles
        )

    @pytest.mark.parametrize("key", ["linear", "lrmf"])
    def test_single_engine_stream_parity(self, key):
        system, spec, _algo, _data = _system(key)
        streamed = system.train(key, "train", epochs=EPOCHS)
        barriered = system.train(key, "train", epochs=EPOCHS, stream=False)
        for name in streamed.models:
            np.testing.assert_array_equal(streamed.models[name], barriered.models[name])
        assert streamed.engine_stats == barriered.engine_stats
        assert streamed.access_stats == barriered.access_stats

    def test_shuffled_stream_parity(self):
        """Shuffled epochs materialise first but must stay bit-identical."""
        system, spec, _algo, _data = _system("linear")
        a = system.train("linear", "train", epochs=4, segments=4, shuffle=True, seed=7)
        b = system.train(
            "linear", "train", epochs=4, segments=4, shuffle=True, seed=7, stream=False
        )
        for name in a.models:
            np.testing.assert_array_equal(a.models[name], b.models[name])
        assert a.engine_stats == b.engine_stats


# ---------------------------------------------------------------------- #
# staleness=k: bounded staleness semantics + quality
# ---------------------------------------------------------------------- #
class TestStaleSynchronous:
    @pytest.mark.parametrize("execution", ["lockstep", "threads"])
    @pytest.mark.parametrize("staleness", [1, 2, 3, 4, 8])
    def test_merge_cadence(self, staleness, execution):
        """``staleness`` alone decides the cadence, whatever the strategy."""
        system, spec, _algo, _data = _system("linear", epochs=6)
        run = system.train(
            "linear",
            "train",
            epochs=6,
            segments=4,
            execution=execution,
            staleness=staleness,
        )
        assert run.epochs_run == 6
        assert run.cluster.merges_performed == math.ceil(6 / staleness)
        assert run.cluster.staleness == staleness
        # every tuple still trained exactly once per epoch
        assert run.engine_stats.tuples_processed == 640 * 6

    def test_staleness_one_is_bitwise_bsp(self):
        system, spec, _algo, _data = _system("linear")
        bsp = system.train("linear", "train", epochs=EPOCHS, segments=4)
        stale = system.train(
            "linear",
            "train",
            epochs=EPOCHS,
            segments=4,
            staleness=1,
        )
        for name in bsp.models:
            np.testing.assert_array_equal(stale.models[name], bsp.models[name])
        assert stale.engine_stats == bsp.engine_stats

    @pytest.mark.parametrize("key", ["linear", "logistic", "svm", "lrmf"])
    @pytest.mark.parametrize("execution", ["auto", "threads"])
    def test_convergence_quality_within_tolerance_of_bsp(self, key, execution):
        system, spec, algorithm, data = _system(key, epochs=6)
        bsp = system.train(key, "train", epochs=6, segments=4, execution=execution)
        stale = system.train(
            key,
            "train",
            epochs=6,
            segments=4,
            execution=execution,
            staleness=3,
        )
        initial_loss = algorithm.loss(data, spec.initial_models)
        bsp_loss = algorithm.loss(data, bsp.models)
        stale_loss = algorithm.loss(data, stale.models)
        # Learning happened, and bounded staleness stays near the BSP fit.
        assert stale_loss < 0.6 * initial_loss
        assert stale_loss <= 2.0 * bsp_loss + 1e-9

    @pytest.mark.parametrize("staleness", [2, 4])
    def test_lockstep_matches_threads_under_staleness(self, staleness):
        """The strategies stay parity oracles with merge-free windows."""
        system, spec, _algo, _data = _system("linear", epochs=6)
        lock = system.train(
            "linear", "train", epochs=6, segments=4, staleness=staleness,
        )
        thr = system.train(
            "linear", "train", epochs=6, segments=4, execution="threads",
            staleness=staleness,
        )
        assert lock.cluster.mode == "lockstep" and thr.cluster.mode == "threads"
        for name in lock.models:
            np.testing.assert_allclose(
                lock.models[name], thr.models[name], rtol=1e-9, atol=1e-12
            )
        assert lock.engine_stats == thr.engine_stats
        assert lock.epochs_run == thr.epochs_run
        assert lock.cluster.merges_performed == thr.cluster.merges_performed

    def test_convergence_stops_only_at_window_boundaries(self):
        """Threads + staleness: every window trains count epochs per segment,
        so a converging run stops on a merge boundary with consistent
        tuple/epoch accounting (no mixed-staleness merges)."""
        algorithm = get_algorithm("linear")
        hyper = Hyperparameters(
            learning_rate=0.05,
            merge_coefficient=8,
            epochs=40,
            convergence_tolerance=0.5,
        )
        spec = algorithm.build_spec(6, hyper)
        data = generate_for_algorithm("linear", 650, 6, seed=11)
        database = Database(page_size=8 * 1024)
        database.load_table("train", spec.schema, data)
        database.warm_cache("train")
        system = DAnA(database)
        system.register_udf("linear", spec, epochs=40)
        run = system.train(
            "linear",
            "train",
            epochs=40,
            segments=2,
            execution="threads",
            staleness=4,
        )
        assert run.converged
        assert run.epochs_run < 40
        assert run.epochs_run % 4 == 0  # stopped on a merge boundary
        assert run.engine_stats.tuples_processed == len(data) * run.epochs_run

    def test_stale_runs_are_reproducible(self):
        system, spec, _algo, _data = _system("linear")
        kwargs = dict(
            epochs=6, segments=4, shuffle=True, seed=42, staleness=2,
        )
        a = system.train("linear", "train", **kwargs)
        b = system.train("linear", "train", **kwargs)
        for name in a.models:
            np.testing.assert_array_equal(a.models[name], b.models[name])
        assert a.engine_stats == b.engine_stats


# ---------------------------------------------------------------------- #
# DAnA.train configuration validation (fail fast, name the choices)
# ---------------------------------------------------------------------- #
class TestConfigValidation:
    @pytest.fixture()
    def system(self):
        system, _spec, _algo, _data = _system("linear")
        return system

    def test_segments_below_one(self, system):
        with pytest.raises(ConfigurationError, match="segments"):
            system.train("linear", "train", epochs=2, segments=0)
        with pytest.raises(ConfigurationError, match="segments"):
            system.train("linear", "train", epochs=2, segments=-3)

    def test_unknown_execution_strategy(self, system):
        with pytest.raises(ConfigurationError, match="lockstep"):
            system.train("linear", "train", epochs=2, segments=2, execution="warp")

    def test_invalid_staleness(self, system):
        with pytest.raises(ConfigurationError, match="staleness"):
            system.train("linear", "train", epochs=2, segments=2, staleness=0)

    def test_validation_applies_to_single_path_too(self, system):
        with pytest.raises(ConfigurationError, match="staleness"):
            system.train("linear", "train", epochs=2, staleness=0)

    def test_invalid_epochs(self, system):
        with pytest.raises(ConfigurationError, match="epochs"):
            system.train("linear", "train", epochs=0)
        with pytest.raises(ConfigurationError, match="epochs"):
            system.train("linear", "train", epochs=-2, segments=2)


# ---------------------------------------------------------------------- #
# lock-step epoch plan caching (shuffle=False blocks stacked once)
# ---------------------------------------------------------------------- #
class TestLockstepPlanCache:
    def _sharded(self):
        system, spec, _algo, _data = _system("linear")
        binary = system.compile_udf("linear", "train")
        plan = TrainPlan.resolve(
            system._registered("linear"),
            "train",
            binary,
            epochs=1,
            segments=4,
            stream=False,
        )
        sharded = ShardedDAnA(system.database, binary, spec, plan)
        # One run materialises workers + aggregator for direct step access.
        sharded.train()
        return sharded

    def test_static_epoch_plan_is_reused(self):
        sharded = self._sharded()
        step = _LockstepStep(sharded, shuffle=False, convergence_check=True)
        state = step.begin(
            {k: np.array(v) for k, v in sharded.spec.initial_models.items()}
        )
        assert step._static_plan is None
        state, _ = step.run_epoch(state, 0)
        plan = step._static_plan
        assert plan is not None
        state, _ = step.run_epoch(state, 1)
        assert step._static_plan is plan  # stacked once, reused verbatim

    def test_shuffled_epochs_never_cache_a_plan(self):
        sharded = self._sharded()
        step = _LockstepStep(sharded, shuffle=True, convergence_check=True)
        state = step.begin(
            {k: np.array(v) for k, v in sharded.spec.initial_models.items()}
        )
        state, _ = step.run_epoch(state, 0)
        assert step._static_plan is None


# ---------------------------------------------------------------------- #
# pipelined critical-path book-keeping (perf.segment_model)
# ---------------------------------------------------------------------- #
class TestPipelinedCostModel:
    def test_pipelined_books_max_not_sum(self):
        system, spec, _algo, _data = _system("linear")
        run = system.train("linear", "train", epochs=EPOCHS, segments=4)
        cost = ShardedRunCost.from_run(run)
        slowest_overlap = max(
            max(a, e)
            for a, e in zip(cost.segment_access_cycles, cost.segment_engine_cycles)
        )
        assert (
            cost.pipelined_critical_path_cycles
            == slowest_overlap + cost.cross_merge_cycles
        )
        assert cost.pipelined_critical_path_cycles < cost.critical_path_cycles
        assert cost.pipeline_speedup > 1.0
