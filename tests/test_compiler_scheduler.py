"""Tests for the static scheduler, hardware generator and design space."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import Hyperparameters, algorithm_keys, get_algorithm
from repro.compiler import (
    DesignSpaceExplorer,
    HardwareGenerator,
    Scheduler,
    SubNodeExpander,
    WorkloadShape,
    estimate_region_cycles,
)
from repro.compiler import design_space
from repro.compiler.scheduler import broadcast_source_index, node_ref
from repro.core import DAnA
from repro.data.synthetic import generate_for_algorithm
from repro.exceptions import ResourceError, SchedulingError
from repro.hw import ExecutionEngine, TreeBus
from repro.hw.fpga import ARRIA_10, DEFAULT_FPGA, FPGASpec
from repro.hw.ledger import engine_epoch_cost
from repro.isa.engine_isa import AUS_PER_CLUSTER
from repro.rdbms import Database
from repro.rdbms.page import PageLayout
from repro.rdbms.types import Schema
from repro.translator import NodeKind, Region, translate

LRMF_TOPOLOGY = (96, 64, 4)


def _spec(key, n_features, merge_coefficient=8):
    """A registered algorithm's spec (LRMF's width is its rank)."""
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=merge_coefficient)
    topology = LRMF_TOPOLOGY if key == "lrmf" else ()
    return get_algorithm(key).build_spec(
        LRMF_TOPOLOGY[2] if key == "lrmf" else n_features, hyper, topology
    )


@pytest.fixture
def graph(linear_algo_factory):
    return translate(linear_algo_factory(n_features=10, merge_coefficient=8))


class TestSubNodeExpansion:
    def test_broadcast_source_index(self):
        # scalar source
        assert broadcast_source_index(5, (10,), ()) == 0
        # identical shapes
        assert broadcast_source_index(7, (10,), (10,)) == 7
        # replicated smaller operand: out (2, 3), src (3,)
        assert broadcast_source_index(4, (2, 3), (3,)) == 1

    def test_primary_node_expansion_count(self, graph):
        expander = SubNodeExpander(graph)
        for node in graph.compute_nodes():
            subs = expander.expand(node)
            expected = node.sub_node_count(graph.input_dims_of(node))
            if node.kind is NodeKind.GROUP:
                # the expander adds one copy-out per output element
                assert len(subs) == expected + node.element_count
            elif node.kind is NodeKind.MERGE:
                assert subs == []
            else:
                assert len(subs) == expected

    def test_group_expansion_has_reduction_tree(self, graph):
        expander = SubNodeExpander(graph)
        group = next(n for n in graph.nodes() if n.kind is NodeKind.GROUP)
        subs = expander.expand(group)
        from repro.dsl import Operator

        multiplies = [s for s in subs if s.op is Operator.MUL]
        adds = [s for s in subs if s.op is Operator.ADD]
        assert len(multiplies) == 10          # K products
        assert len(adds) == 9 + 1             # K-1 reductions + final copy-out


class TestScheduler:
    def test_schedule_is_complete_and_resource_safe(self, graph):
        schedule = Scheduler(graph, acs_per_thread=2).schedule()
        program = schedule.program
        assert program.update_rule_cycles > 0
        assert program.post_merge_cycles > 0
        for steps in (program.update_rule_steps, program.post_merge_steps):
            for step in steps:
                assert len(step.cluster_instructions) <= 2
                for instruction in step.cluster_instructions:
                    assert instruction.enabled_au_count <= AUS_PER_CLUSTER

    def test_more_clusters_means_fewer_cycles(self, linear_algo_factory):
        graph = translate(linear_algo_factory(n_features=64, merge_coefficient=8))
        narrow = Scheduler(graph, acs_per_thread=1).schedule()
        wide = Scheduler(graph, acs_per_thread=8).schedule()
        assert wide.update_rule_cycles < narrow.update_rule_cycles

    def test_selective_simd_one_operation_per_cluster(self, graph):
        schedule = Scheduler(graph, acs_per_thread=4).schedule()
        for step in schedule.program.update_rule_steps:
            cluster_ids = [ci.cluster_id for ci in step.cluster_instructions]
            assert len(cluster_ids) == len(set(cluster_ids))

    def test_schedule_stats_utilization(self, graph):
        schedule = Scheduler(graph, acs_per_thread=2).schedule()
        stats = schedule.stats[Region.UPDATE_RULE]
        assert 0 < stats.average_au_utilization <= 1.0
        assert stats.operations == sum(
            ci.enabled_au_count
            for step in schedule.program.update_rule_steps
            for ci in step.cluster_instructions
        )

    def test_invalid_cluster_count(self, graph):
        with pytest.raises(SchedulingError):
            Scheduler(graph, acs_per_thread=0)

    def test_estimate_is_lower_bound_of_real_schedule(self, graph):
        real = Scheduler(graph, acs_per_thread=2).schedule()
        estimate = estimate_region_cycles(graph, Region.UPDATE_RULE, acs_per_thread=2)
        assert estimate <= real.update_rule_cycles * 2  # same order of magnitude
        assert estimate >= 1

    def test_convergence_region_scheduled(self, linear_algo_factory):
        from repro import dana

        algo = linear_algo_factory(n_features=6)
        graph = translate(algo)
        schedule = Scheduler(graph, acs_per_thread=1).schedule()
        assert schedule.program.convergence_cycles == 0  # no convergence condition

    def test_address_map_covers_all_destinations(self, graph):
        schedule = Scheduler(graph, acs_per_thread=2).schedule()
        for step in schedule.program.update_rule_steps:
            for instruction in step.cluster_instructions:
                for slot in instruction.au_slots:
                    assert slot.dest_address < len(schedule.address_map)


class TestHardwareGenerator:
    def _generator(self, graph, fpga=DEFAULT_FPGA, n_tuples=10_000, merge=8):
        return HardwareGenerator(
            graph,
            PageLayout(page_size=32 * 1024),
            Schema.training_schema(10),
            fpga,
            merge_coefficient=merge,
            n_tuples=n_tuples,
        )

    def test_design_respects_fpga_budget(self, graph):
        design = self._generator(graph).generate()
        assert design.total_aus <= DEFAULT_FPGA.max_analytic_units()
        assert design.threads <= 8
        assert design.num_striders >= 1
        assert design.bram.total_bytes <= DEFAULT_FPGA.bram_bytes

    def test_smaller_fpga_gets_smaller_design(self, graph):
        big = self._generator(graph, DEFAULT_FPGA).generate()
        small = self._generator(graph, ARRIA_10).generate()
        assert small.total_aus <= big.total_aus
        assert small.num_striders <= big.num_striders

    def test_thread_count_bounded_by_merge_coefficient(self, graph):
        design = self._generator(graph, merge=2).generate()
        assert design.threads <= 2

    def test_model_too_large_for_bram(self, linear_algo_factory):
        graph = translate(linear_algo_factory(n_features=64))
        tiny = FPGASpec(
            name="tiny", luts=1000, flip_flops=1000, frequency_mhz=100,
            bram_bytes=60 * 1024, dsp_slices=80,
        )
        generator = HardwareGenerator(
            graph, PageLayout(page_size=32 * 1024), Schema.training_schema(64), tiny,
            merge_coefficient=4, n_tuples=1000,
        )
        with pytest.raises(ResourceError):
            generator.generate()

    def test_access_engine_config(self, graph):
        design = self._generator(graph).generate()
        config = design.access_engine_config
        assert config.num_striders == design.num_striders
        assert config.page_size == 32 * 1024

    @pytest.mark.parametrize(
        "key,n_features,page_size",
        [(key, 12, 8 * 1024) for key in algorithm_keys()]
        # the Remote Sensing LR page of Table 3: 141 tuples, 8,748 cycles
        + [("logistic", 54, 32 * 1024)],
    )
    def test_strider_cycles_per_page_is_the_interpreter_count(
        self, key, n_features, page_size, walk_full_page
    ):
        """Regression: the generator's hand formula folded the header term to
        a constant one cycle short of what the interpreter counts."""
        spec = _spec(key, n_features)
        layout = PageLayout(page_size=page_size)
        generator = HardwareGenerator(
            translate(spec.algo), layout, spec.schema, n_tuples=10_000
        )
        capacity, walked = walk_full_page(layout, spec.schema)
        assert generator.strider_cycles_per_page() == walked.cycles
        if n_features == 54:
            assert (capacity, walked.cycles) == (141, 8748)


class TestDesignSpace:
    def _explorer(self, graph, merge=64, n_tuples=100_000):
        workload = WorkloadShape(
            n_tuples=n_tuples, tuples_per_page=100, page_size=32 * 1024
        )
        return DesignSpaceExplorer(
            graph=graph,
            fpga=DEFAULT_FPGA,
            workload=workload,
            merge_coefficient=merge,
            strider_cycles_per_page=5000,
            num_striders=32,
        )

    def test_candidates_are_powers_of_two(self, graph):
        explorer = self._explorer(graph)
        candidates = explorer.candidate_thread_counts()
        assert candidates[0] == 1
        assert all(b % a == 0 for a, b in zip(candidates, candidates[1:]))

    def test_more_threads_reduce_compute_cycles(self, linear_algo_factory):
        graph = translate(linear_algo_factory(n_features=512, merge_coefficient=64))
        explorer = self._explorer(graph)
        one = explorer.evaluate(1)
        many = explorer.evaluate(32)
        assert many.compute_cycles_per_epoch < one.compute_cycles_per_epoch

    def test_best_is_smallest_within_tolerance(self, graph):
        explorer = self._explorer(graph)
        best = explorer.best()
        floor = min(p.cycles_per_epoch for p in explorer.explore())
        assert best.cycles_per_epoch <= floor * 1.01

    def test_data_cycles_independent_of_threads(self, graph):
        explorer = self._explorer(graph)
        points = explorer.explore()
        assert len({round(p.data_cycles_per_epoch, 3) for p in points}) == 1

    @pytest.mark.parametrize("key", algorithm_keys())
    def test_chosen_point_is_priced_as_the_run_books(self, key, monkeypatch):
        """The estimator and the machine read one cost model: on whole pages,
        with the chosen threads equal to the merge coefficient (the one
        assumption they do not share), the chosen point's data cycles are
        the run's booked access cycles, and its compute cycles are the
        booked engine cycles once the estimated region lengths are replaced
        by the schedule's."""
        spec = _spec(key, 32, merge_coefficient=2)
        database = Database(page_size=2048)
        capacity = database.layout.tuples_per_page(spec.schema)
        n_tuples = 70 * capacity  # whole pages, more than one wave of 64
        data = generate_for_algorithm(key, n_tuples, 32, LRMF_TOPOLOGY, seed=3)
        assert len(data) == n_tuples
        database.load_table("t", spec.schema, data)
        system = DAnA(database)
        system.register_udf("u", spec, epochs=1)
        run = system.train("u", "t", epochs=1)
        binary = system.compile_udf("u", "t")
        design, point = binary.design, binary.design.design_point
        engine = system._registered("u").accelerators["t"].execution_engine
        assert point.threads == engine.threads == engine.batch_size
        assert point.num_striders == design.num_striders  # both MAX_PAGE_BUFFERS

        assert run.access_stats.pages_processed == 70
        assert point.data_cycles_per_epoch == run.access_stats.access_cycles

        schedule = binary.thread_schedule
        lengths = {
            Region.UPDATE_RULE: schedule.update_rule_cycles,
            Region.POST_MERGE: schedule.post_merge_cycles,
        }
        monkeypatch.setattr(
            design_space,
            "estimate_region_cycles",
            lambda graph, region, acs, aus: lengths[region],
        )
        generator = HardwareGenerator(
            binary.graph,
            database.layout,
            spec.schema,
            merge_coefficient=spec.algo.merge_coefficient,
            n_tuples=n_tuples,
        )
        scheduled = generator.generate().design_point
        assert scheduled.threads == point.threads
        booked = run.engine_stats
        assert booked.convergence_cycles == schedule.convergence_cycles
        assert scheduled.compute_cycles_per_epoch == (
            booked.total_cycles - booked.convergence_cycles
        )
        assert (
            scheduled.update_rule_cycles + scheduled.merge_cycles + scheduled.post_merge_cycles
        ) * booked.batches_processed == scheduled.compute_cycles_per_epoch


@functools.lru_cache(maxsize=None)
def _linear_engine(width, merge_coefficient, threads):
    spec = _spec("linear", width, merge_coefficient)
    graph = translate(spec.algo)
    return ExecutionEngine(
        graph, Scheduler(graph, 2).schedule(), threads, TreeBus(alu_count=4)
    )


@settings(max_examples=60, deadline=None)
@given(
    n_tuples=st.integers(0, 5000),
    batch=st.integers(1, 70),
    threads=st.sampled_from((1, 2, 3, 8, 64)),
    width=st.sampled_from((1, 5, 16)),
    merge_coefficient=st.sampled_from((1, 4, 64)),
    epoch_end=st.booleans(),
)
def test_lifted_epoch_function_is_the_engines(
    n_tuples, batch, threads, width, merge_coefficient, epoch_end
):
    """``engine_epoch_cost`` from counts alone == ``ExecutionEngine.epoch_cost``
    == the per-batch reference booking, whatever the batch / thread / merge
    shape (the engine clamps its threads to the merge coefficient)."""
    engine = _linear_engine(width, merge_coefficient, threads)
    schedule = engine.schedule
    lifted = engine_epoch_cost(
        n_tuples,
        batch_size=batch,
        threads=min(threads, merge_coefficient),
        region_cycles=(
            schedule.update_rule_cycles,
            schedule.post_merge_cycles,
            schedule.convergence_cycles,
        ),
        merge_widths=[width],
        bus=TreeBus(alu_count=4),
        epoch_end=epoch_end,
    )
    assert lifted == engine.epoch_cost(n_tuples, batch, epoch_end=epoch_end)
    assert lifted[0].tuples_processed == n_tuples

    reference = ExecutionEngine(
        engine.graph, schedule, threads, TreeBus(alu_count=4), tape=engine.tape
    )
    for start in range(0, n_tuples, batch):
        reference.account_batch(min(batch, n_tuples - start))
    if epoch_end:
        reference.account_epoch_end()
    assert lifted == (reference.stats, reference.tree_bus.stats)
