"""Property-based tests (hypothesis) on core data structures and invariants."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import Hyperparameters, LinearRegression
from repro.compiler import Scheduler
from repro.dsl import Operator
from repro.exceptions import DimensionError
from repro.hw import ExecutionEngine
from repro.hw.strider import Strider
from repro.hw.tree_bus import TreeBus
from repro.isa import Operand, StriderInstruction, StriderOpcode
from repro.compiler.strider_compiler import compile_strider
from repro.rdbms.heaptuple import decode_tuple, encode_tuple, tuple_size
from repro.rdbms.page import HeapPage, PageLayout
from repro.rdbms.types import ColumnType, Schema
from repro.serving import InferencePlan
from repro.translator import broadcast_primary, group_fused, group_single, translate

# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #
finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)
small_dims = st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=3).map(tuple)


class TestPageProperties:
    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(st.lists(finite_floats, min_size=4, max_size=4), min_size=1, max_size=60))
    def test_page_round_trip_any_rows(self, rows):
        """Inserting rows and re-reading the binary page preserves them."""
        schema = Schema.training_schema(3)
        page = HeapPage(PageLayout(page_size=8 * 1024))
        for row in rows:
            page.insert(schema, row)
        restored = HeapPage.from_bytes(page.to_bytes(), PageLayout(page_size=8 * 1024))
        recovered = list(restored.tuples(schema))
        assert len(recovered) == len(rows)
        np.testing.assert_allclose(np.asarray(recovered), np.float32(rows), rtol=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(finite_floats, min_size=5, max_size=5))
    def test_tuple_encode_decode(self, values):
        schema = Schema.training_schema(4)
        decoded = decode_tuple(schema, encode_tuple(schema, values))
        np.testing.assert_allclose(decoded, np.float32(values), rtol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        n_rows=st.integers(min_value=1, max_value=80),
        n_features=st.integers(min_value=1, max_value=24),
    )
    def test_strider_extraction_is_lossless(self, n_rows, n_features):
        """Whatever fits on one page, the Strider extracts all of it, in order."""
        schema = Schema.training_schema(n_features)
        layout = PageLayout(page_size=32 * 1024)
        rng = np.random.default_rng(n_rows * 31 + n_features)
        rows = rng.normal(size=(n_rows, n_features + 1)).astype(np.float32)
        page = HeapPage(layout)
        inserted = 0
        for row in rows:
            if not page.has_room(schema):
                break
            page.insert(schema, row.tolist())
            inserted += 1
        compiled = compile_strider(layout, schema)
        result = Strider(compiled.program).process_page(page.to_bytes())
        assert result.stats.tuples_emitted == inserted
        assert all(len(p) == schema.row_width for p in result.payloads)


class TestISAProperties:
    @settings(max_examples=200, deadline=None)
    @given(word=st.integers(min_value=0, max_value=(1 << 22) - 1))
    def test_decode_encode_round_trip_when_valid(self, word):
        """Any 22-bit word with a valid opcode survives decode → encode."""
        opcode_value = word >> 18
        if opcode_value > 10:
            with pytest.raises(Exception):
                StriderInstruction.decode(word)
            return
        assert StriderInstruction.decode(word).encode() == word

    @settings(max_examples=100, deadline=None)
    @given(field=st.integers(min_value=0, max_value=63))
    def test_operand_field_round_trip(self, field):
        assert Operand.decode(field).encode() == field


class TestDimensionProperties:
    @settings(max_examples=100, deadline=None)
    @given(dims=small_dims)
    def test_broadcast_is_commutative_and_idempotent(self, dims):
        assert broadcast_primary(dims, dims) == dims
        assert broadcast_primary((), dims) == dims
        assert broadcast_primary(dims, ()) == dims

    @settings(max_examples=100, deadline=None)
    @given(dims=small_dims.filter(lambda d: len(d) >= 1), axis=st.integers(min_value=1, max_value=3))
    def test_group_single_removes_exactly_one_axis(self, dims, axis):
        if axis > len(dims):
            with pytest.raises(DimensionError):
                group_single(dims, axis)
            return
        out = group_single(dims, axis)
        assert len(out) == len(dims) - 1
        # every surviving extent appears in the input
        assert np.prod(out, dtype=np.int64) * dims[axis - 1] == np.prod(dims, dtype=np.int64)

    @settings(max_examples=100, deadline=None)
    @given(
        left=st.integers(min_value=1, max_value=6),
        right=st.integers(min_value=1, max_value=6),
        shared=st.integers(min_value=1, max_value=8),
    )
    def test_group_fused_contraction_shape(self, left, right, shared):
        out = group_fused((left, shared), (right, shared), 2)
        assert out == (left, right) or (left, shared) == (right, shared) and out == (left,)


class TestMergeProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        vectors=st.lists(
            st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=3, max_size=3),
            min_size=1,
            max_size=9,
        )
    )
    def test_tree_merge_equals_flat_sum(self, vectors):
        """Pairwise tree reduction must equal a flat sum (merge associativity)."""
        bus = TreeBus(alu_count=4)
        arrays = [np.asarray(v) for v in vectors]
        merged = bus.merge(arrays, Operator.ADD)
        np.testing.assert_allclose(merged, np.sum(arrays, axis=0), rtol=1e-9, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        threads=st.integers(min_value=1, max_value=64),
        elements=st.integers(min_value=1, max_value=500),
    )
    def test_merge_cycles_monotone(self, threads, elements):
        bus = TreeBus(alu_count=8)
        cycles = bus.merge_cycles(threads, elements)
        assert cycles >= 0
        assert bus.merge_cycles(threads * 2, elements) >= cycles


@functools.lru_cache(maxsize=None)
def _linear_design(n_features, merge_coefficient):
    """One compiled linear-regression graph + schedule per shape (cached)."""
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=merge_coefficient)
    spec = LinearRegression().build_spec(n_features, hyper)
    graph = translate(spec.algo)
    return spec, graph, Scheduler(graph, acs_per_thread=2).schedule()


class TestCycleLedgerProperties:
    """Each stage's closed-form cost equals its per-batch / interpreter reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_tuples=st.integers(min_value=0, max_value=700),
        batch_size=st.integers(min_value=2, max_value=40),
        threads=st.integers(min_value=1, max_value=48),
        n_features=st.integers(min_value=1, max_value=20),
        alus=st.integers(min_value=1, max_value=9),
    )
    def test_epoch_cost_is_the_sum_of_per_batch_bookings(
        self, n_tuples, batch_size, threads, n_features, alus
    ):
        _spec, graph, schedule = _linear_design(n_features, batch_size)
        priced, reference = (
            ExecutionEngine(graph, schedule, threads, TreeBus(alu_count=alus))
            for _ in range(2)
        )
        engine_cost, bus_cost = priced.epoch_cost(n_tuples)
        assert priced.stats == type(engine_cost)()  # pricing books nothing
        for start in range(0, n_tuples, reference.batch_size):
            reference.account_batch(min(reference.batch_size, n_tuples - start))
        reference.account_epoch_end()
        assert engine_cost == reference.stats
        assert bus_cost == reference.tree_bus.stats
        # booking adds in place: holders of the stats objects see the epoch
        held_engine, held_bus = priced.stats, priced.tree_bus.stats
        priced.book_epoch(n_tuples)
        priced.book_epoch(n_tuples)
        assert held_engine is priced.stats and held_bus is priced.tree_bus.stats
        assert held_engine == engine_cost * 2 and held_bus == bus_cost + bus_cost
        assert held_engine - engine_cost == engine_cost

    @settings(max_examples=60, deadline=None)
    @given(
        n_tuples=st.integers(min_value=0, max_value=900),
        batch_size=st.integers(min_value=1, max_value=300),
        threads=st.integers(min_value=1, max_value=48),
    )
    def test_forward_cost_is_the_sum_of_per_batch_bookings(
        self, n_tuples, batch_size, threads
    ):
        spec, graph, _schedule = _linear_design(4, 8)
        plan = InferencePlan(graph, spec, threads=threads, acs_per_thread=2)
        reference = plan.new_engine()
        for start in range(0, n_tuples, batch_size):
            reference.account_batch(min(batch_size, n_tuples - start))
        assert plan.forward_cost(n_tuples, batch_size) == reference.stats

    @settings(max_examples=40, deadline=None)
    @given(
        fill=st.sampled_from(["one", "partial", "full"]),
        n_features=st.integers(min_value=1, max_value=24),
        partial=st.integers(min_value=2, max_value=10_000),
        read_width=st.sampled_from([4, 8, 16]),
    )
    def test_walk_cost_equals_the_interpreter(self, fill, n_features, partial, read_width):
        schema = Schema.training_schema(n_features)
        layout = PageLayout(page_size=4 * 1024)
        capacity = layout.tuples_per_page(schema)
        count = {"one": 1, "full": capacity, "partial": 1 + partial % capacity}[fill]
        page = HeapPage(layout)
        for row in np.random.default_rng(count).normal(size=(count, n_features + 1)):
            page.insert(schema, row.tolist())
        strider = Strider(compile_strider(layout, schema).program, read_width_bytes=read_width)
        interpreted = strider.process_page(page.to_bytes())
        assert len(interpreted.payloads) == count
        # both spellings of a page: the lengths a walk parsed, and the one
        # length every tuple has with the per-page counts (a wave / EXPLAIN)
        width = tuple_size(schema)
        assert strider.walk_cost(np.full((2, count), width)) == [interpreted.stats] * 2
        assert strider.walk_cost(width, [count, 1])[0] == interpreted.stats


class TestSchedulerProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        n_features=st.integers(min_value=2, max_value=48),
        acs=st.integers(min_value=1, max_value=8),
    )
    def test_schedule_operation_count_invariant(self, n_features, acs):
        """The scheduler never drops or duplicates atomic operations."""
        from repro.algorithms import Hyperparameters, LinearRegression
        from repro.compiler import Scheduler, SubNodeExpander
        from repro.translator import Region, translate

        spec = LinearRegression().build_spec(n_features, Hyperparameters(merge_coefficient=4))
        graph = translate(spec.algo)
        expander = SubNodeExpander(graph)
        expected = sum(
            len(expander.expand(node))
            for node in graph.compute_nodes([Region.UPDATE_RULE])
        )
        schedule = Scheduler(graph, acs_per_thread=acs).schedule()
        scheduled = sum(
            instruction.enabled_au_count
            for step in schedule.program.update_rule_steps
            for instruction in step.cluster_instructions
        )
        assert scheduled == expected
        # resource safety: never more clusters per step than allocated
        for step in schedule.program.update_rule_steps:
            assert len(step.cluster_instructions) <= acs


class TestBufferPoolProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=8),
        accesses=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=60),
    )
    def test_pool_never_exceeds_capacity_and_counts_add_up(self, capacity, accesses):
        from repro.rdbms.buffer_pool import BufferPool
        from repro.rdbms.storage import StorageManager

        storage = StorageManager()
        storage.create_file("f", 256)
        for i in range(16):
            storage.append_page("f", bytes([i]) * 256)
        pool = BufferPool(storage, pool_bytes=capacity * 256, page_size=256)
        for page_no in accesses:
            pool.get_page("f", page_no)
        assert len(pool) <= capacity
        assert pool.stats.hits + pool.stats.misses == len(accesses)
        assert pool.stats.misses >= len(set(accesses)) - capacity
