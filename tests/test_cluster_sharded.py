"""Tests for the sharded multi-segment execution subsystem (repro.cluster).

Invariants enforced here:

* **segments=1 is the single-engine path, exactly** — same model bits, same
  schedule-derived engine counters, same access-engine counters;
* **lockstep == threads** — the segment-axis vectorized executor computes
  what the per-segment thread-pool oracle computes;
* **segments∈{2,4,8} still learn** — every algorithm converges to the
  reference fit within tolerance despite per-epoch model merging;
* **cycle counters are consistent across segment counts** — total tuples,
  pages and extraction counts are invariant, and the critical path shrinks
  as segments are added;
* **runs are reproducible** — a fixed seed makes sharded shuffled runs
  bit-identical;
* **the model merge is shared** — GreenplumRunner and ModelAggregator can
  not drift apart.
"""

import numpy as np
import pytest

from repro.algorithms import Hyperparameters, get_algorithm
from repro.baselines import GreenplumRunner
from repro.cluster import (
    ModelAggregator,
    PagePartition,
    Partitioner,
    ShardedDAnA,
)
from repro.core import DAnA, TrainPlan
from repro.data.synthetic import generate_for_algorithm
from repro.exceptions import ConfigurationError
from repro.hw.tree_bus import TreeBus
from repro.rdbms import Database

LRMF_TOPOLOGY = (24, 18, 4)
EPOCHS = 6


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
# Partitioner
# ---------------------------------------------------------------------- #
class TestPartitioner:
    def test_partitions_cover_all_pages_disjointly(self):
        parts = Partitioner().partition(37, 5)
        assert [p.segment_id for p in parts] == list(range(5))
        seen = [page for p in parts for page in p.page_nos]
        assert sorted(seen) == list(range(37))

    def test_round_robin_is_balanced(self):
        parts = Partitioner().partition(38, 4)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_round_robin_is_the_page_modulo_segments_deal(self):
        for pages, segments in ((0, 3), (1, 4), (37, 5), (64, 4), (7, 7)):
            dealt = [[] for _ in range(segments)]
            for page_no in range(pages):
                dealt[page_no % segments].append(page_no)
            for partitioner in (Partitioner(), Partitioner("round_robin", seed=0)):
                parts = partitioner.partition(pages, segments)
                assert [list(part.page_nos) for part in parts] == dealt

    def test_partition_table_uses_catalog(self):
        system, spec, _algo, _data = _system("linear")
        parts = Partitioner().partition_table(system.database, "train", 3)
        total_pages = system.database.table("train").page_count
        assert sum(len(p) for p in parts) == total_pages
        assert isinstance(parts[0], PagePartition)

    def test_rejects_unknown_strategy_and_bad_counts(self):
        for strategy in ("range", "hash"):
            with pytest.raises(ConfigurationError, match="round_robin"):
                Partitioner(strategy)
        with pytest.raises(ConfigurationError):
            Partitioner().partition(10, 0)


# ---------------------------------------------------------------------- #
# ModelAggregator (shared with the Greenplum baseline)
# ---------------------------------------------------------------------- #
class TestModelAggregator:
    def test_average_matches_manual_mean(self):
        rng = np.random.default_rng(0)
        models = [{"mo": rng.normal(size=5)} for _ in range(4)]
        merged = ModelAggregator("average").merge(models)
        np.testing.assert_array_equal(
            merged["mo"], np.mean([m["mo"] for m in models], axis=0)
        )

    def test_greenplum_runner_merge_parity(self):
        """The baseline's merge IS the aggregator (no drift possible)."""
        system, spec, _algo, _data = _system("linear")
        runner = GreenplumRunner(system.database, spec, segments=4, epochs=2)
        assert isinstance(runner.aggregator, ModelAggregator)
        rng = np.random.default_rng(1)
        models = [{"mo": rng.normal(size=6)} for _ in range(4)]
        np.testing.assert_array_equal(
            runner._merge_models(models)["mo"],
            ModelAggregator("average").merge(models)["mo"],
        )

    def test_gradient_sum_combines_disjoint_deltas_exactly(self):
        base = {"L": np.zeros(6)}
        a = {"L": np.array([1.0, 2.0, 0, 0, 0, 0])}
        b = {"L": np.array([0, 0, 0, 0, 3.0, 4.0])}
        merged = ModelAggregator("gradient_sum").merge([a, b], base=base)
        np.testing.assert_array_equal(merged["L"], [1, 2, 0, 0, 3, 4])

    def test_gradient_sum_requires_base(self):
        with pytest.raises(ConfigurationError):
            ModelAggregator("gradient_sum").merge(
                [{"mo": np.ones(2)}, {"mo": np.zeros(2)}]
            )

    def test_single_segment_merge_is_identity(self):
        value = np.array([1.0, 2.0, 3.0])
        for strategy in ("average", "gradient_sum"):
            merged = ModelAggregator(strategy).merge([{"mo": value}])
            np.testing.assert_array_equal(merged["mo"], value)

    def test_stacked_equals_list_merge(self):
        rng = np.random.default_rng(2)
        stacked = rng.normal(size=(3, 4))
        as_list = [{"mo": stacked[i]} for i in range(3)]
        for strategy, base in (("average", None), ("gradient_sum", {"mo": np.zeros(4)})):
            agg = ModelAggregator(strategy)
            np.testing.assert_allclose(
                agg.merge_stacked({"mo": stacked}, base=base)["mo"],
                agg.merge(as_list, base=base)["mo"],
            )

    def test_tree_bus_accounting(self):
        bus = TreeBus(alu_count=4)
        ModelAggregator("average", tree_bus=bus).merge(
            [{"mo": np.ones(8)} for _ in range(4)]
        )
        assert bus.stats.merges_performed == 1
        assert bus.stats.levels_traversed == 2      # ceil(log2(4)) levels
        assert bus.stats.operations_executed == 3 * 8
        assert bus.stats.cycles == 2 * 2            # 2 levels * ceil(8/4)


# ---------------------------------------------------------------------- #
# segments=1 == single-engine path, exactly
# ---------------------------------------------------------------------- #
class TestSingleSegmentExact:
    @pytest.mark.parametrize("key", ["linear", "logistic", "svm", "lrmf"])
    def test_models_and_counters_identical(self, key):
        system, spec, _algo, _data = _system(key)
        single = system.train(key, "train", epochs=EPOCHS)
        sharded = system.train(key, "train", epochs=EPOCHS, segments=1)
        for name in single.models:
            np.testing.assert_array_equal(sharded.models[name], single.models[name])
        assert sharded.engine_stats == single.engine_stats
        assert sharded.access_stats == single.access_stats
        assert sharded.tuples_extracted == single.tuples_extracted
        assert sharded.epochs_run == single.training.epochs_run


# ---------------------------------------------------------------------- #
# lockstep == threads (the per-segment oracle)
# ---------------------------------------------------------------------- #
class TestLockstepMatchesThreads:
    @pytest.mark.parametrize("key", ["linear", "logistic", "svm"])
    @pytest.mark.parametrize("segments", [2, 4, 8])
    def test_parity(self, key, segments):
        system, spec, _algo, _data = _system(key)
        lockstep = system.train(key, "train", epochs=EPOCHS, segments=segments)
        threads = system.train(
            key, "train", epochs=EPOCHS, segments=segments, execution="threads"
        )
        assert lockstep.cluster.mode == "lockstep"
        assert threads.cluster.mode == "threads"
        for name in lockstep.models:
            np.testing.assert_allclose(
                lockstep.models[name], threads.models[name], rtol=1e-9, atol=1e-12
            )
        assert lockstep.engine_stats == threads.engine_stats
        assert lockstep.cluster.cross_merge_cycles == threads.cluster.cross_merge_cycles

    def test_convergence_tolerance_parity(self):
        """Early stopping must agree between lockstep and the oracle."""
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
        lockstep = system.train("linear", "train", epochs=40, segments=2)
        threads = system.train(
            "linear", "train", epochs=40, segments=2, execution="threads"
        )
        assert lockstep.cluster.mode == "lockstep"
        assert lockstep.converged and threads.converged
        assert lockstep.epochs_run == threads.epochs_run < 40
        for name in lockstep.models:
            np.testing.assert_allclose(
                lockstep.models[name], threads.models[name], rtol=1e-9
            )

    def test_lrmf_falls_back_to_threads(self):
        system, spec, _algo, _data = _system("lrmf")
        run = system.train("lrmf", "train", epochs=2, segments=4)
        assert run.cluster.mode == "threads"
        assert run.cluster.aggregation_strategy == "gradient_sum"
        with pytest.raises(ConfigurationError):
            system.train("lrmf", "train", epochs=2, segments=4, execution="lockstep")


# ---------------------------------------------------------------------- #
# segments∈{2,4,8} converge to the reference fit within tolerance
# ---------------------------------------------------------------------- #
class TestShardedConvergence:
    @pytest.mark.parametrize("key", ["linear", "logistic", "svm", "lrmf"])
    @pytest.mark.parametrize("segments", [2, 4, 8])
    def test_converges_within_tolerance(self, key, segments):
        system, spec, algorithm, data = _system(key)
        run = system.train(key, "train", epochs=EPOCHS, segments=segments)
        initial_loss = algorithm.loss(data, spec.initial_models)
        reference = algorithm.reference_fit(data, spec.hyperparameters, EPOCHS)
        reference_loss = algorithm.loss(data, reference)
        sharded_loss = algorithm.loss(data, run.models)
        # Learning happened, and epoch-merged training lands near the
        # sequential reference fit (model averaging trades a bounded amount
        # of per-epoch progress for segment parallelism).
        assert sharded_loss < 0.6 * initial_loss
        assert sharded_loss <= 2.0 * reference_loss + 1e-9


# ---------------------------------------------------------------------- #
# cycle counters consistent across segment counts
# ---------------------------------------------------------------------- #
class TestCounterConsistency:
    @pytest.mark.parametrize("key", ["linear", "lrmf"])
    def test_invariants_across_segment_counts(self, key):
        system, spec, _algo, data = _system(key)
        page_count = system.database.table("train").page_count
        runs = {
            n: system.train(key, "train", epochs=EPOCHS, segments=n)
            for n in (1, 2, 4, 8)
        }
        criticals = []
        for n, run in runs.items():
            # every tuple is extracted and trained exactly once per epoch
            assert run.tuples_extracted == len(data)
            assert run.engine_stats.tuples_processed == len(data) * EPOCHS
            assert run.access_stats.pages_processed == page_count
            assert sum(seg.pages for seg in run.segments) == page_count
            assert run.epochs_run == EPOCHS
            assert run.engine_stats.epochs_completed == EPOCHS
            criticals.append(run.critical_path_cycles)
            if n > 1:
                assert run.cluster.merges_performed == EPOCHS
                assert run.cluster.cross_merge_cycles > 0
        # Sharding shortens the modelled critical path: strictly from 1→2
        # segments, then monotonically until the page supply runs out (heap
        # pages are the distribution unit, so a 4-page table saturates at 4
        # useful segments).
        assert criticals[1] < criticals[0]
        assert all(b <= a for a, b in zip(criticals, criticals[1:]))

    def test_per_segment_counters_sum_to_aggregate(self):
        system, spec, _algo, _data = _system("linear")
        run = system.train("linear", "train", epochs=EPOCHS, segments=4)
        assert run.engine_stats.tuples_processed == sum(
            seg.engine_stats.tuples_processed for seg in run.segments
        )
        assert run.access_stats.strider_cycles_critical == max(
            seg.access_stats.strider_cycles_critical for seg in run.segments
        )


# ---------------------------------------------------------------------- #
# reproducibility: one seeded generator through shuffling
# ---------------------------------------------------------------------- #
class TestReproducibility:
    @pytest.mark.parametrize("execution", ["auto", "threads"])
    def test_shuffled_sharded_runs_are_bit_identical(self, execution):
        system, spec, _algo, _data = _system("linear")
        kwargs = dict(
            epochs=4, segments=4, shuffle=True, seed=123, execution=execution,
        )
        first = system.train("linear", "train", **kwargs)
        second = system.train("linear", "train", **kwargs)
        for name in first.models:
            np.testing.assert_array_equal(first.models[name], second.models[name])
        assert first.engine_stats == second.engine_stats

    def test_different_seed_changes_shuffled_run(self):
        system, spec, _algo, _data = _system("linear")
        a = system.train("linear", "train", epochs=4, segments=4, shuffle=True, seed=1)
        b = system.train("linear", "train", epochs=4, segments=4, shuffle=True, seed=2)
        assert any(
            not np.array_equal(a.models[name], b.models[name]) for name in a.models
        )

    def test_single_segment_shuffled_matches_single_engine_exactly(self):
        """segments=1 consumes the same rng stream as the single path."""
        system, spec, _algo, _data = _system("linear")
        single = system.train("linear", "train", epochs=4, shuffle=True, seed=9)
        sharded = system.train(
            "linear", "train", epochs=4, shuffle=True, seed=9, segments=1
        )
        np.testing.assert_array_equal(sharded.models["mo"], single.models["mo"])
        assert sharded.engine_stats == single.engine_stats

    def test_single_path_shuffle_is_seeded(self):
        system, spec, _algo, _data = _system("linear")
        a = system.train("linear", "train", epochs=4, shuffle=True, seed=5)
        b = system.train("linear", "train", epochs=4, shuffle=True, seed=5)
        np.testing.assert_array_equal(a.models["mo"], b.models["mo"])


# ---------------------------------------------------------------------- #
# facade plumbing
# ---------------------------------------------------------------------- #
class TestFacade:
    def test_sharded_result_surface(self):
        system, spec, _algo, _data = _system("linear")
        run = system.train("linear", "train", epochs=2, segments=3)
        assert run.cluster.segments == 3
        assert len(run.segments) == 3
        assert run.critical_path_cycles > 0
        assert run.cluster.aggregation_strategy == "average"

    def test_use_striders_false_bypasses_access_engine(self):
        system, spec, algorithm, data = _system("linear")
        with_striders = system.train("linear", "train", epochs=3, segments=4)
        system.use_striders = False
        without = system.train("linear", "train", epochs=3, segments=4)
        # CPU-fed extraction books no Strider/AXI activity but trains on
        # exactly the same tuples.
        assert without.access_stats.strider_cycles_total == 0
        assert without.access_stats.pages_processed == 0
        assert without.tuples_extracted == with_striders.tuples_extracted == len(data)
        for name in with_striders.models:
            np.testing.assert_array_equal(without.models[name], with_striders.models[name])

    def test_invalid_configuration(self):
        system, spec, _algo, _data = _system("linear")
        binary = system.compile_udf("linear", "train")
        registered = system._registered("linear")
        with pytest.raises(ConfigurationError):
            TrainPlan.resolve(registered, "train", binary, segments=0)
        with pytest.raises(ConfigurationError):
            TrainPlan.resolve(registered, "train", binary, segments=2, execution="warp")
        single = TrainPlan.resolve(registered, "train", binary)
        with pytest.raises(ConfigurationError):
            # a single-accelerator plan carries no partitioning to shard by
            ShardedDAnA(system.database, binary, spec, single)
