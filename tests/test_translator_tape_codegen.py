"""The generated tape: ``train`` == k x (``run`` + ``apply_updates``) == oracle.

:class:`~repro.translator.tape.CompiledTape` lowers a graph to one generated
source with two entry points.  For every registered algorithm and every tape
variant (plain, ``segment_axis``, forward slice) this file holds

* ``train`` over any cut of the stream into blocks (whole batches, the tail
  last) bit-identical — models, last env, convergence verdict — to ``run``
  + ``apply_updates`` per batch, and both
  equal to the per-tuple :class:`~repro.translator.evaluator.HDFGEvaluator`
  paths (bit-identical where no merge reorders a sum; the tree bus adds
  pairwise, a ``ufunc.reduce`` sequentially, so merge graphs agree to a few
  ulp — the tolerance is set from the dtype, not from the observed error);
* the escape rules: fresh env arrays per ``run``, caller arrays never
  mutated, a shared tape safe under concurrent ``train`` calls;
* the binder contract: one leading entry per tuple on both row layouts, and
  a binding that breaks it refused instead of broadcast;
* the generated source itself: readable, node-commented, and named in a
  traceback.

CI runs this file under ``-W error::RuntimeWarning``.
"""

import re
import sys
import threading
import traceback

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.algorithms import Hyperparameters, algorithm_keys, get_algorithm
from repro.compiler import Scheduler
from repro.data.synthetic import generate_for_algorithm
from repro.hw import ExecutionEngine
from repro.translator import CompiledTape, Region, forward_slice, translate
from repro.translator.evaluator import HDFGEvaluator
from repro.translator.tape import TapeCompilationError

KEYS = algorithm_keys()
VARIANTS = ("plain", "segment_axis", "forward")
LRMF_TOPOLOGY = (24, 18, 4)
#: gather graphs (LRMF) do not lower with a segment axis; see
#: ``test_gather_graph_refuses_a_segment_axis``.
CASES = [
    pytest.param(key, variant, id=f"{key}-{variant}")
    for key in KEYS
    for variant in VARIANTS
    if (key, variant) != ("lrmf", "segment_axis")
]
SEGMENTS = 3
BATCH = 8
#: a merge reorders at most BATCH float64 additions per element and epoch.
MERGE_RTOL = 64 * np.finfo(np.float64).eps


def _spec_and_graph(key, tol=0.5):
    n_features = 4 if key == "lrmf" else 6
    hyper = Hyperparameters(
        learning_rate=0.05, merge_coefficient=BATCH, convergence_tolerance=tol
    )
    spec = get_algorithm(key).build_spec(n_features, hyper, LRMF_TOPOLOGY)
    return spec, translate(spec.algo)


def _rows(key, n_tuples, seed=11):
    n_features = 4 if key == "lrmf" else 6
    if not n_tuples:
        return np.empty((0, generate_for_algorithm(key, 1, n_features, LRMF_TOPOLOGY).shape[1]))
    return generate_for_algorithm(key, n_tuples, n_features, LRMF_TOPOLOGY, seed=seed)


class Case:
    """One (algorithm, tape variant): the tape, its binder, models, batches."""

    def __init__(self, key, variant, tol=0.5):
        self.key, self.variant = key, variant
        self.spec, self.graph = _spec_and_graph(key, tol)
        self.bind = self.spec.bind_batch
        if variant == "forward":
            self.forward = forward_slice(self.graph)
            self.tape = CompiledTape(self.forward.graph)
            self.bind = self.spec.bind_predict
        else:
            self.tape = CompiledTape(self.graph, segment_axis=variant == "segment_axis")

    def models(self):
        models = {k: np.array(v, np.float64) for k, v in self.spec.initial_models.items()}
        if self.variant == "segment_axis":
            # replicas that differ, so a segment mix-up cannot cancel out
            models = {
                k: np.stack([v + 0.01 * s for s in range(SEGMENTS)])
                for k, v in models.items()
            }
        return models

    def rows(self, n_tuples):
        if self.variant == "segment_axis":
            return np.stack(
                [_rows(self.key, n_tuples, seed=11 + s) for s in range(SEGMENTS)], axis=1
            )
        return _rows(self.key, n_tuples)

    def batches(self, n_tuples, batch=BATCH):
        rows = self.rows(n_tuples)
        return [rows[s : s + batch] for s in range(0, len(rows), batch)]


def test_gather_graph_refuses_a_segment_axis():
    graph = _spec_and_graph("lrmf")[1]
    with pytest.raises(TapeCompilationError, match="segment axis"):
        CompiledTape(graph, segment_axis=True)
    assert CompiledTape.try_lower(graph, segment_axis=True) is None
    assert CompiledTape.try_lower(graph) is not None


def _per_batch(tape, batches, bind, models):
    """The reference ``train`` replaces: ``run`` + ``apply_updates`` per batch."""
    env = None
    for batch in batches:
        env = tape.run(bind(batch), models)
        tape.apply_updates(env, models)
    return env


def _assert_identical(actual, expected):
    """Bit-identical values (and shapes / dtypes) in two envs or model dicts."""
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys()
        actual, expected = list(actual.values()), list(expected.values())
    assert (actual is None) == (expected is None)
    for slot, (a, e) in enumerate(zip(actual or (), expected or (), strict=True)):
        assert (a is None) == (e is None), slot
        if e is not None:
            a, e = np.asarray(a), np.asarray(e)
            assert a.shape == e.shape and a.dtype == e.dtype, slot
            assert np.array_equal(a, e), slot


def _split(blocks, batch):
    """The merge batches of a block stream, in order."""
    return [block[s : s + batch] for block in blocks for s in range(0, len(block), batch)]


def _assert_train_is_per_batch(case, blocks, batch=BATCH):
    trained, stepped = case.models(), case.models()
    env = case.tape.train(iter(blocks), case.bind, trained, batch)
    expected = _per_batch(case.tape, _split(blocks, batch), case.bind, stepped)
    _assert_identical(trained, stepped)
    verdict = case.tape.convergence_value(expected)  # fills the lazy slots
    assert np.array_equal(case.tape.convergence_value(env), verdict)
    _assert_identical(env, expected)
    assert case.tape.convergence_reached(env) == case.tape.convergence_reached(expected)
    return env, trained


# ---------------------------------------------------------------------- #
# train == k x (run + apply_updates)
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("key,variant", CASES)
class TestTrainIsTheBatchLoop:
    @pytest.mark.parametrize(
        "n_tuples,batch",
        [(40, BATCH), (37, BATCH), (33, BATCH), (5, 1), (3, BATCH)],
        ids=["full", "ragged-tail", "one-tuple-tail", "single-tuple-batches", "one-short"],
    )
    def test_models_env_and_verdict(self, key, variant, n_tuples, batch):
        case = Case(key, variant)
        env, _models = _assert_train_is_per_batch(case, case.batches(n_tuples, batch), batch)
        assert env is not None

    @pytest.mark.parametrize("tol", [1e-9, 1e9], ids=["not-converged", "converged"])
    def test_both_convergence_verdicts(self, key, variant, tol):
        case = Case(key, variant, tol)
        env, _models = _assert_train_is_per_batch(case, case.batches(24))
        has_condition = case.tape.graph.convergence_node_id is not None
        assert case.tape.convergence_reached(env) == (has_condition and tol > 1)

    def test_empty_stream_returns_none_and_leaves_models_alone(self, key, variant):
        case = Case(key, variant)
        models = case.models()
        before = dict(models)
        assert case.tape.train(iter(()), case.bind, models, BATCH) is None
        assert models.keys() == before.keys()
        assert all(models[name] is before[name] for name in before)
        assert case.tape.convergence_value(None) is None

    def test_caller_arrays_are_never_mutated(self, key, variant):
        case = Case(key, variant)
        models = case.models()
        held = dict(models)
        copies = {name: value.copy() for name, value in models.items()}
        batches = case.batches(37)
        frozen = [batch.copy() for batch in batches]
        case.tape.train(batches, case.bind, models, BATCH)
        for name, value in held.items():
            assert np.array_equal(value, copies[name]), name
        for batch, copy in zip(batches, frozen):
            assert np.array_equal(batch, copy)
        if variant != "forward":
            assert all(models[name] is not held[name] for name in held)

    def test_run_twice_returns_envs_that_do_not_alias(self, key, variant):
        case = Case(key, variant)
        (batch,) = case.batches(BATCH)
        models = case.models()
        first = case.tape.run(case.bind(batch), models)
        second = case.tape.run(case.bind(batch), models)
        _assert_identical(first, second)
        computed = [
            node.node_id
            for node in case.tape.graph.nodes()
            if not node.is_leaf and first[node.node_id] is not None
        ]
        assert computed
        for node_id in computed:
            assert not np.shares_memory(first[node_id], second[node_id]), node_id
            # and no computed value is a view of what the caller passed in
            assert not np.shares_memory(first[node_id], batch), node_id


@pytest.mark.parametrize(
    "key,variant", [c for c in CASES if c.values[1] != "forward"]  # it reads no meta
)
def test_binder_may_override_a_meta(key, variant):
    case = Case(key, variant)

    def hot(batch):
        return {**case.spec.bind_batch(batch), "lr": 0.5}

    batches = case.batches(24)
    plain, overridden, stepped = case.models(), case.models(), case.models()
    case.tape.train(batches, case.bind, plain, BATCH)
    env = case.tape.train(batches, hot, overridden, BATCH)
    expected = _per_batch(case.tape, batches, hot, stepped)
    _assert_identical(overridden, stepped)
    _assert_identical(env, expected)
    assert any(not np.array_equal(overridden[k], plain[k]) for k in plain)


@pytest.mark.parametrize("key,variant", CASES)
def test_binder_may_override_a_model(key, variant):
    """A model override is read once per block, so every batch reads it;
    for a model ``train`` carries, the updates still land in ``models``."""
    case = Case(key, variant)
    name, value = next(iter(case.models().items()))

    def pinned(batch):
        return {**case.bind(batch), name: value + 0.1}

    batches = case.batches(24)
    plain, overridden, stepped = case.models(), case.models(), case.models()
    case.tape.train(batches, case.bind, plain, BATCH)
    env = case.tape.train(batches, pinned, overridden, BATCH)
    expected = _per_batch(case.tape, batches, pinned, stepped)
    _assert_identical(overridden, stepped)
    _assert_identical(env, expected)
    if variant != "forward":
        assert not np.array_equal(overridden[name], plain[name])


@settings(max_examples=80, deadline=None)
@given(
    key=st.sampled_from(KEYS),
    variant=st.sampled_from(VARIANTS),
    n_tuples=st.integers(min_value=0, max_value=45),
    batch=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_train_is_the_batch_loop_for_any_cut_into_blocks(
    key, variant, n_tuples, batch, data
):
    """Any cut of the stream into blocks — whole batches, empty blocks
    included, the tail last — trains what the per-batch loop trains."""
    assume((key, variant) != ("lrmf", "segment_axis"))
    case = Case(key, variant)
    rows = case.rows(n_tuples)
    whole = n_tuples // batch
    cuts = data.draw(st.lists(st.integers(0, whole), max_size=4).map(sorted), label="cuts")
    edges = [0, *cuts, whole]
    blocks = [rows[a * batch : b * batch] for a, b in zip(edges, edges[1:])]
    _assert_train_is_per_batch(case, blocks + [rows[whole * batch :]], batch)


@pytest.mark.parametrize("key", KEYS)
def test_binders_keep_one_leading_entry_per_tuple(key):
    """The binder contract: per-tuple arrays keep the leading row axis, on a
    plain ``(n, cols)`` matrix and on the ``(n, S, cols)`` segment layout."""
    spec, graph = _spec_and_graph(key)
    n = 7
    rows = _rows(key, n)
    forward = forward_slice(graph).graph
    for binder, g in ((spec.bind_batch, graph), (spec.bind_predict, forward)):
        per_tuple = {b.name for b in g.bindings if b.kind in ("input", "output")}
        assert per_tuple
        for layout in (rows, np.stack([rows, rows], axis=1)):  # S != cols
            bound = binder(layout)
            assert per_tuple <= bound.keys()
            for name in per_tuple:
                assert np.shape(bound[name])[: layout.ndim - 1] == layout.shape[:-1], name


@pytest.mark.parametrize(
    "name,short,got",
    [
        ("x", lambda v: v[:1], "1"),
        ("y", lambda v: v[:1], "1"),
        ("y", lambda v: v[0], "none (a scalar)"),
    ],
    ids=["x-one-row", "y-one-row", "y-scalar"],
)
def test_misshaped_per_tuple_binding_is_refused_not_broadcast(name, short, got):
    """A binding that lost its row axis would broadcast into a wrong model."""
    case = Case("linear", "plain")
    rows = case.rows(2 * BATCH)

    def binder(block):
        bound = dict(case.bind(block))
        bound[name] = short(bound[name])
        return bound

    models = case.models()
    held = dict(models)
    with pytest.raises(
        TapeCompilationError,
        match=rf"per-tuple variable '{name}' has leading length {re.escape(got)}, "
        rf"expected {2 * BATCH}",
    ):
        case.tape.train([rows], binder, models, BATCH)
    assert all(models[k] is held[k] for k in held)  # nothing written
    with pytest.raises(TapeCompilationError, match="per-tuple variable '(x|y)' has leading"):
        case.tape.run(binder(rows[:BATCH]), case.models())


# ---------------------------------------------------------------------- #
# ... == the per-tuple evaluator
# ---------------------------------------------------------------------- #
def _assert_matches_oracle(key, actual, expected):
    for name in expected:
        if key == "lrmf":  # no merge: nothing reorders a sum
            assert np.array_equal(actual[name], expected[name]), name
        else:
            np.testing.assert_allclose(
                actual[name], expected[name], rtol=MERGE_RTOL, atol=MERGE_RTOL
            )


def _per_tuple_epoch(case, rows, models):
    """One epoch through the per-tuple engine path (no batch binder)."""
    schedule = Scheduler(case.graph, acs_per_thread=2).schedule()
    engine = ExecutionEngine(case.graph, schedule, threads=BATCH)
    assert engine.batch_size == BATCH
    return engine.train(rows, models, case.spec.bind_tuple, epochs=1)


@pytest.mark.parametrize("tol", [1e-9, 1e9], ids=["not-converged", "converged"])
@pytest.mark.parametrize("key", KEYS)
def test_plain_train_matches_the_per_tuple_engine(key, tol):
    case = Case(key, "plain", tol)
    rows = _rows(key, 37)
    models = case.models()
    env = case.tape.train(case.batches(37), case.bind, models, BATCH)
    oracle = _per_tuple_epoch(case, rows, case.models())
    _assert_matches_oracle(key, models, oracle.models)
    assert case.tape.convergence_reached(env) == oracle.converged


@pytest.mark.parametrize("key", [k for k in KEYS if k != "lrmf"])
def test_segment_axis_train_matches_the_per_tuple_engine_per_segment(key):
    case = Case(key, "segment_axis")
    batches = case.batches(32)
    stacked = case.models()
    case.tape.train(batches, case.bind, stacked, BATCH)
    block = np.concatenate(batches, axis=0)
    for s in range(SEGMENTS):
        initial = {name: value[s] for name, value in case.models().items()}
        oracle = _per_tuple_epoch(case, block[:, s], initial)
        _assert_matches_oracle(
            key, {name: value[s] for name, value in stacked.items()}, oracle.models
        )


@pytest.mark.parametrize("key", KEYS)
def test_forward_train_matches_the_per_tuple_evaluator(key):
    case = Case(key, "forward")
    batches = case.batches(13)
    models = case.models()
    env = case.tape.train(batches, case.bind, models, BATCH)
    evaluator = HDFGEvaluator(case.forward.graph)
    score_id = case.forward.score_node_id
    for i, row in enumerate(batches[-1]):
        bound = {n: np.asarray(v)[0] for n, v in case.bind(row[None, :]).items()}
        tuple_env = evaluator.evaluate(
            evaluator.initial_env({**models, **bound}), [Region.UPDATE_RULE]
        )
        assert np.array_equal(env[score_id][i], tuple_env[score_id])


# ---------------------------------------------------------------------- #
# row-addressed updates (LRMF)
# ---------------------------------------------------------------------- #
class TestRowAddressedUpdates:
    def test_one_model_copy_per_call_not_per_batch(self, monkeypatch):
        case = Case("lrmf", "plain")
        batches = case.batches(40)
        assert len(batches) == 5
        copies = []

        def counting_array(*args, **kwargs):
            copies.append(1)
            return np.array(*args, **kwargs)

        # ``array`` is the generated source's name for the model copy
        monkeypatch.setitem(case.tape._train.__globals__, "array", counting_array)
        models = case.models()
        initial = dict(models)
        case.tape.train(batches, case.bind, models, BATCH)
        assert len(copies) == 2  # L and R, once per call
        for name, value in initial.items():
            assert not np.shares_memory(models[name], value)
            assert np.array_equal(value, case.spec.initial_models[name])
        del copies[:]
        _per_batch(case.tape, batches, case.bind, case.models())
        assert len(copies) == 2 * len(batches)  # the per-batch reference

    def test_duplicate_row_indices_keep_the_last_tuples_value(self):
        case = Case("lrmf", "plain")
        rows = _rows("lrmf", BATCH)
        rows[:, 0] = 3.0  # every tuple of the batch addresses row 3 of L
        rows[-2:, 1] = 5.0  # and the last two address row 5 of R
        models = case.models()
        env = case.tape.train([rows], case.bind, models, BATCH)
        update_l, update_r = (u for _n, _v, u in case.graph.update_targets)
        assert np.array_equal(models["L"][3], env[update_l][-1])
        assert np.array_equal(models["R"][5], env[update_r][-1])
        untouched = np.delete(np.arange(LRMF_TOPOLOGY[0]), 3)
        assert np.array_equal(
            models["L"][untouched], case.spec.initial_models["L"][untouched]
        )
        # the env keeps the model its batch read, not the scattered one
        leaf_l = next(b.node_id for b in case.graph.bindings if b.name == "L")
        assert np.array_equal(env[leaf_l], case.spec.initial_models["L"])


# ---------------------------------------------------------------------- #
# one shared tape, many callers
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("key", KEYS)
def test_concurrent_train_on_one_shared_tape(key):
    case = Case(key, "plain")
    streams = [[b.copy() for b in case.batches(200 + 8 * t)] for t in range(4)]
    expected = []
    for stream in streams:
        models = case.models()
        case.tape.train(stream, case.bind, models, BATCH)
        expected.append(models)
    results = [case.models() for _ in streams]
    start = threading.Barrier(len(streams))

    def work(index):
        start.wait(timeout=30)
        for _ in range(3):  # re-train from the same start: last run must match
            results[index] = case.models()
            case.tape.train(streams[index], case.bind, results[index], BATCH)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(streams))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for actual, wanted in zip(results, expected):
        _assert_identical(actual, wanted)


def test_engines_of_one_binary_share_one_compiled_tape():
    from repro.core import DAnA
    from repro.hw.accelerator import DAnAAccelerator
    from repro.rdbms import Database

    db = Database(page_size=8192)
    system = DAnA(db)
    registered = system.register_algorithm_udf("linearR", "linear", n_features=4)
    db.load_table("t", registered.spec.schema, _rows("linear", 8)[:, :5])
    binary = system.compile_udf("linearR", "t")
    assert binary.tape is not None and binary.tape is binary.tape
    engines = [
        DAnAAccelerator(
            binary=binary, schema=registered.spec.schema, fpga=system.fpga
        ).execution_engine
        for _ in range(2)
    ]
    assert engines[0] is not engines[1]
    assert all(engine.tape is binary.tape for engine in engines)
    # a bare engine (no binary at hand) still lowers the graph itself
    bare = ExecutionEngine(binary.graph, binary.thread_schedule, threads=4)
    assert bare.tape is not None and bare.tape is not binary.tape


# ---------------------------------------------------------------------- #
# the generated source
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("key,variant", CASES)
def test_source_is_one_commented_line_per_node(key, variant):
    case = Case(key, variant)
    tape = case.tape
    suffix = ":segment" if variant == "segment_axis" else ""
    assert tape.filename == f"<tape:{tape.graph.name}{suffix}>"
    for node in tape.graph.nodes():
        if node.is_leaf and node.variable_kind is None:
            continue  # constants are globals of the generated module
        lines = [
            line
            for line in tape.source.splitlines()
            if line.strip().startswith(f"v{node.node_id} = ")
        ]
        assert lines, node
        assert all(f"# node {node.node_id} {node.name} " in line for line in lines)
    with pytest.raises(AttributeError):
        tape.source = "def run(): pass"
    assert not hasattr(tape, "_steps") and not hasattr(tape, "_conv_steps")


def test_kernel_error_names_the_offending_node_in_the_traceback():
    case = Case("linear", "plain")
    (batch,) = case.batches(BATCH)
    bound = dict(case.bind(batch))
    bound["x"] = bound["x"][:, :-1]  # one feature short of the model
    with pytest.raises(ValueError, match="could not be broadcast") as caught:
        case.tape.run(bound, case.models())
    text = "".join(traceback.format_exception(caught.value))
    sigma = next(n for n in case.graph.nodes() if n.op is not None and n.op.value == "sigma")
    assert f'File "{case.tape.filename}"' in text
    assert f"# node {sigma.node_id} {sigma.name} sigma" in text
    assert "<string>" not in text
    # the same line, through the loop entry point
    with pytest.raises(ValueError) as caught:
        case.tape.train([batch], lambda rows: bound, case.models(), BATCH)
    assert f"# node {sigma.node_id} {sigma.name} sigma" in "".join(
        traceback.format_exception(caught.value)
    )


def test_missing_per_tuple_binding_is_reported_by_name():
    case = Case("linear", "plain")
    (batch,) = case.batches(BATCH)
    with pytest.raises(TapeCompilationError, match="per-tuple variable 'y'"):
        case.tape.run({"x": batch[:, :-1]}, case.models())
    with pytest.raises(TapeCompilationError, match="per-tuple variable 'y'"):
        case.tape.train([batch], lambda rows: {"x": rows[:, :-1]}, case.models(), BATCH)
