"""Prediction-serving subsystem: registry, inference tape, scorers, server.

Covers the PR-4 contract:

* the forward slice recovers the right score node for all four algorithms
  and never crosses a merge boundary;
* batched inference tape == the per-tuple evaluator forward pass of
  ``tests/oracles/forward.py`` — predictions *and* schedule-derived cycle
  counters — across segment counts;
* registry round trips are bit-identical, and missing/mismatched models
  fail fast with :class:`ConfigurationError`;
* the micro-batching prediction server returns the same predictions as the
  direct path and reports sane latency/throughput statistics.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.algorithms import Hyperparameters, get_algorithm
from repro.core import DAnA
from repro.data.synthetic import generate_for_algorithm
from repro.exceptions import ConfigurationError, TranslationError
from repro.perf import ScoreRunCost
from repro.rdbms import Database
from repro.serving import MODEL_PARAM_SCHEMA, PredictionServer, model_table_name
from repro.translator import NodeKind, Region, forward_slice, translate

from held_engine import HANG_S, HeldEngine
from oracles import forward as per_tuple

N_FEATURES = 8
N_TUPLES = 600
LRMF_TOPOLOGY = (24, 18, 4)

DENSE_ALGORITHMS = ("linear", "logistic", "svm")
ALL_ALGORITHMS = DENSE_ALGORITHMS + ("lrmf",)


def build_system(algorithm_key: str, n_tuples: int = N_TUPLES):
    """A DAnA instance with one registered UDF and a loaded table."""
    algorithm = get_algorithm(algorithm_key)
    if algorithm_key == "lrmf":
        hyper = Hyperparameters(learning_rate=0.05, epochs=2, rank=LRMF_TOPOLOGY[2])
        spec = algorithm.build_spec(0, hyper, model_topology=LRMF_TOPOLOGY)
        data = generate_for_algorithm(
            algorithm_key, n_tuples, LRMF_TOPOLOGY[2], seed=0,
            model_topology=LRMF_TOPOLOGY[:2],
        )
    else:
        hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=16, epochs=2)
        spec = algorithm.build_spec(N_FEATURES, hyper)
        data = generate_for_algorithm(algorithm_key, n_tuples, N_FEATURES, seed=0)
    database = Database()
    database.load_table("t", spec.schema, data)
    system = DAnA(database)
    system.register_udf(algorithm_key, spec, epochs=2)
    return system, spec, data


def trained_models(system: DAnA, algorithm_key: str) -> dict[str, np.ndarray]:
    return system.train(algorithm_key, "t", epochs=2).models


# ---------------------------------------------------------------------- #
# forward lowering
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("key", ALL_ALGORITHMS)
def test_forward_slice_is_merge_free_update_rule_only(key):
    system, spec, _data = build_system(key, n_tuples=64)
    forward = forward_slice(translate(spec.algo))
    kinds = {node.kind for node in forward.graph.nodes()}
    assert NodeKind.MERGE not in kinds
    assert NodeKind.UPDATE not in kinds
    assert all(
        node.region is Region.UPDATE_RULE for node in forward.graph.nodes()
    )
    # No label dependence: every output binding is sliced away.
    assert all(b.kind != "output" for b in forward.graph.bindings)


def test_forward_slice_scores_match_closed_form():
    rng = np.random.default_rng(3)
    X = np.hstack([rng.normal(size=(40, N_FEATURES)), np.zeros((40, 1))])
    w = rng.normal(size=N_FEATURES)

    system, _spec, _data = build_system("linear", n_tuples=64)
    preds = system.predict("linear", X, models={"mo": w})
    np.testing.assert_allclose(preds, X[:, :N_FEATURES] @ w, rtol=1e-9)

    system, _spec, _data = build_system("logistic", n_tuples=64)
    preds = system.predict("logistic", X, models={"mo": w})
    np.testing.assert_allclose(
        preds, 1.0 / (1.0 + np.exp(-(X[:, :N_FEATURES] @ w))), rtol=1e-9
    )

    system, _spec, _data = build_system("svm", n_tuples=64)
    preds = system.predict("svm", X, models={"mo": w})
    np.testing.assert_allclose(preds, X[:, :N_FEATURES] @ w, rtol=1e-9)


def test_forward_slice_lrmf_gathers_factor_rows():
    system, _spec, data = build_system("lrmf", n_tuples=128)
    models = trained_models(system, "lrmf")
    preds = system.predict("lrmf", data, models=models)
    rows = data[:, 0].astype(int)
    cols = data[:, 1].astype(int)
    expected = np.sum(models["L"][rows] * models["R"][cols], axis=1)
    np.testing.assert_allclose(preds, expected, rtol=1e-9)


def test_forward_slice_rejects_label_free_graph():
    from repro import dana

    mo = dana.model([2], name="mo")
    x = dana.input([2], name="x")
    y = dana.output(name="y")
    algo = dana.algo(mo, x, y, name="labelfree")
    algo.setModel(mo - dana.meta(0.1, name="lr") * mo)
    algo.setEpochs(1)
    with pytest.raises(TranslationError):
        forward_slice(translate(algo))


# ---------------------------------------------------------------------- #
# parity: batched tape vs per-tuple oracle
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("key", ALL_ALGORITHMS)
@pytest.mark.parametrize("segments", [1, 2, 4])
def test_score_table_batched_matches_per_tuple_oracle(key, segments):
    system, _spec, _data = build_system(key)
    models = trained_models(system, key)
    batched = system.score_table(key, "t", models=models, segments=segments)
    plan = system._inference_plan(system._registered(key), "t")
    rows = system.database.table("t").read_all(system.database.buffer_pool)
    np.testing.assert_array_equal(
        batched.predictions, per_tuple.score(plan.new_engine(), rows, models)
    )
    # each segment books what the oracle books micro-batch by micro-batch
    # over the tuples that segment scored
    for seg in batched.segments:
        booked = plan.new_engine()
        per_tuple.score(booked, rows[: seg.tuples_scored], models)
        assert seg.inference_stats == booked.stats
    assert batched.tuples_scored == system.database.catalog.table("t").tuple_count


@pytest.mark.parametrize("segments", [1, 2, 4])
def test_score_table_order_is_storage_order(segments):
    system, _spec, _data = build_system("linear")
    models = trained_models(system, "linear")
    sharded = system.score_table("linear", "t", models=models, segments=segments)
    rows = system.database.table("t").read_all(system.database.buffer_pool)
    direct = system.predict("linear", rows, models=models)
    np.testing.assert_array_equal(sharded.predictions, direct)


def test_predict_single_row_returns_scalar():
    system, _spec, data = build_system("linear", n_tuples=64)
    models = trained_models(system, "linear")
    single = system.predict("linear", data[0], models=models)
    block = system.predict("linear", data[:1], models=models)
    assert np.ndim(single) == 0
    assert block.shape == (1,)
    assert float(single) == float(block[0])


def test_predict_counters_are_schedule_derived_and_path_identical():
    system, _spec, data = build_system("linear", n_tuples=200)
    models = trained_models(system, "linear")
    plan = system._inference_plan(system._registered("linear"))
    fast, slow = plan.new_engine(), plan.new_engine()
    p_fast = fast.score(data, models, batch_size=64)
    p_slow = per_tuple.score(slow, data, models, batch_size=64)
    np.testing.assert_array_equal(p_fast, p_slow)
    assert fast.stats == slow.stats
    assert fast.stats.batches_scored == -(-200 // 64)
    assert fast.stats.forward_cycles > 0
    # ceil(batch/threads) rounds per batch, schedule cycles per round.
    rounds = sum(
        -(-min(64, 200 - start) // plan.threads) for start in range(0, 200, 64)
    )
    assert fast.stats.forward_cycles == rounds * plan.forward_cycles_per_round


# ---------------------------------------------------------------------- #
# model registry
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("key", ["linear", "lrmf"])
def test_registry_round_trip_is_bit_identical(key):
    system, _spec, _data = build_system(key)
    models = trained_models(system, key)
    entry = system.save_model("prod", key, models)
    assert entry.version == 1
    assert system.database.catalog.has_table(model_table_name("prod", 1))
    loaded = system.load_model("prod")
    assert set(loaded) == set(models)
    for name, value in models.items():
        assert loaded[name].dtype == np.float64
        np.testing.assert_array_equal(loaded[name], np.asarray(value, np.float64))
    # Saved-model predictions are bit-identical to in-memory predictions.
    in_memory = system.score_table(key, "t", models=models)
    from_registry = system.score_table(key, "t", model_name="prod")
    np.testing.assert_array_equal(in_memory.predictions, from_registry.predictions)


def test_registry_versions_increment_and_load_by_version():
    system, _spec, _data = build_system("linear", n_tuples=64)
    m1 = {"mo": np.arange(N_FEATURES, dtype=np.float64)}
    m2 = {"mo": np.arange(N_FEATURES, dtype=np.float64) * 2}
    assert system.save_model("m", "linear", m1).version == 1
    assert system.save_model("m", "linear", m2).version == 2
    np.testing.assert_array_equal(system.load_model("m", version=1)["mo"], m1["mo"])
    np.testing.assert_array_equal(system.load_model("m")["mo"], m2["mo"])
    assert system.registry.versions("m") == [1, 2]
    # Parameter tables are real catalogued heap tables.
    assert system.database.catalog.table(model_table_name("m", 2)).schema == (
        MODEL_PARAM_SCHEMA
    )


def test_registry_missing_model_and_version_fail_fast():
    system, _spec, _data = build_system("linear", n_tuples=64)
    with pytest.raises(ConfigurationError, match="no saved model"):
        system.load_model("ghost")
    system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
    with pytest.raises(ConfigurationError, match="no version 7"):
        system.load_model("m", version=7)
    with pytest.raises(ConfigurationError, match="no saved model"):
        system.predict("linear", np.zeros((1, N_FEATURES)), model_name="ghost")


def test_mismatched_model_fails_fast():
    system, _spec, _data = build_system("linear", n_tuples=64)
    algorithm = get_algorithm("svm")
    svm_spec = algorithm.build_spec(N_FEATURES, Hyperparameters())
    system.register_udf("svm", svm_spec, epochs=1)
    system.save_model("svm_model", "svm", {"mo": np.zeros(N_FEATURES)})
    with pytest.raises(ConfigurationError, match="trained by algorithm"):
        system.predict(
            "linear", np.zeros((1, N_FEATURES)), model_name="svm_model"
        )
    with pytest.raises(ConfigurationError, match="shape"):
        system.predict(
            "linear", np.zeros((1, N_FEATURES)), models={"mo": np.zeros(3)}
        )
    with pytest.raises(ConfigurationError, match="parameters"):
        system.predict(
            "linear", np.zeros((1, N_FEATURES)), models={"w": np.zeros(N_FEATURES)}
        )
    with pytest.raises(ConfigurationError, match="shape"):
        system.save_model("bad", "linear", {"mo": np.zeros(3)})


def test_serving_kwargs_validated_up_front():
    system, _spec, data = build_system("linear", n_tuples=64)
    models = {"mo": np.zeros(N_FEATURES)}
    with pytest.raises(ConfigurationError, match="exactly one of"):
        system.predict("linear", data, models=models, model_name="m")
    with pytest.raises(ConfigurationError, match="exactly one of"):
        system.predict("linear", data)
    with pytest.raises(TypeError, match="path"):
        system.predict("linear", data, models=models, path="per_tuple")
    with pytest.raises(ConfigurationError, match="batch_size"):
        system.predict("linear", data, models=models, batch_size=0)
    with pytest.raises(ConfigurationError, match="segments"):
        system.score_table("linear", "t", models=models, segments=0)
    for name, value in (("path", "per_tuple"), ("partition_strategy", "hash"), ("seed", 7)):
        with pytest.raises(TypeError, match=name):
            system.score_table("linear", "t", models=models, **{name: value})
    with pytest.raises(ConfigurationError, match="max_batch_size"):
        system.serve("linear", models=models, max_batch_size=0)
    with pytest.raises(ConfigurationError, match="not registered"):
        system.predict("ghost_udf", data, models=models)


def test_serving_batching_window_is_gone():
    """``max_wait_ms`` is no option any more: passing it is a ``TypeError``."""
    system, _spec, _data = build_system("linear", n_tuples=64)
    models = {"mo": np.zeros(N_FEATURES)}
    with pytest.raises(TypeError, match="max_wait_ms"):
        system.serve("linear", models=models, max_wait_ms=2.0)
    engine = system.serve("linear", models=models).engine
    with pytest.raises(TypeError, match="max_wait_ms"):
        PredictionServer(engine, models, max_wait_ms=2.0)


@pytest.mark.parametrize(
    "option, value",
    [
        ("max_batch_size", True),
        ("max_queue_depth", True),
        ("max_concurrent_per_model", True),
        ("deadline_ms", True),
        ("deadline_ms", float("nan")),
        ("deadline_ms", float("inf")),
    ],
)
def test_serving_options_reject_bool_and_non_finite(option, value):
    """A ``bool`` is no count or duration, and a NaN deadline never expires."""
    system, _spec, _data = build_system("linear", n_tuples=64)
    models = {"mo": np.zeros(N_FEATURES)}
    with pytest.raises(ConfigurationError, match=option):
        system.serve("linear", models=models, **{option: value})


@pytest.mark.parametrize("deadline_ms", [True, float("nan"), float("inf")])
def test_serving_request_deadline_rejects_bool_and_non_finite(deadline_ms):
    system, _spec, data = build_system("linear", n_tuples=64)
    with system.serve("linear", models={"mo": np.zeros(N_FEATURES)}) as server:
        with pytest.raises(ConfigurationError, match="deadline_ms"):
            server.submit(data[0], deadline_ms=deadline_ms)
        with pytest.raises(ConfigurationError, match="deadline_ms"):
            server.predict(data[0], deadline_ms=deadline_ms)
        assert server.predict(data[0], deadline_ms=1_000.0) == 0.0
    assert server.stats.requests == 1


# ---------------------------------------------------------------------- #
# micro-batching prediction server
# ---------------------------------------------------------------------- #
def test_prediction_server_matches_direct_predictions():
    system, _spec, data = build_system("linear", n_tuples=200)
    models = trained_models(system, "linear")
    direct = system.predict("linear", data, models=models)
    with system.serve("linear", models=models, max_batch_size=32) as server:
        futures = [server.submit(row) for row in data]
        served = np.array([f.result(timeout=30) for f in futures])
    np.testing.assert_allclose(served, direct, rtol=1e-12)
    stats = server.stats
    assert stats.requests == len(data)
    assert 1 <= stats.batches <= len(data)
    assert stats.mean_batch_size >= 1.0
    assert stats.p99_latency_ms >= stats.p50_latency_ms >= 0.0
    assert stats.requests_per_second > 0


def _held_backlog(server, engine: HeldEngine, blocker, rows) -> list:
    """Submit ``blocker``, hold the scorer inside its batch, queue ``rows``.

    The scorer takes whatever is pending the moment it is free, so with the
    engine held on batch 1 every row of ``rows`` is pending when the gate
    opens: the coalescing is set by the test, not by the thread schedule.
    Returns the futures of ``[blocker, *rows]`` with the gate still closed.
    """
    futures = [server.submit(blocker)]
    assert engine.entered.wait(HANG_S), "the scorer never took the first batch"
    futures += [server.submit(row) for row in rows]
    return futures


def test_prediction_server_coalesces_queued_requests():
    system, _spec, data = build_system("linear", n_tuples=64)
    models = trained_models(system, "linear")
    server = system.serve("linear", models=models, max_batch_size=16)
    engine = HeldEngine.install(server, held=True)
    with server:
        futures = _held_backlog(server, engine, data[0], data[1:33])
        engine.gate.set()
        served = np.array([f.result(timeout=30) for f in futures])
    direct = system.predict("linear", data[:33], models=models)
    np.testing.assert_allclose(served, direct, rtol=1e-12)
    # Batch 1 is the lone blocker; the 32 queued behind it fill two batches.
    assert engine.call_sizes() == [1, 16, 16]
    assert (server.stats.requests, server.stats.batches) == (33, 3)


def test_prediction_server_scorer_never_waits_with_a_timeout():
    """Natural batching: the scorer parks untimed on an empty deque only."""

    class SpyCondition(threading.Condition):
        def __init__(self, lock) -> None:
            super().__init__(lock)
            self.timeouts: list = []

        def wait(self, timeout=None):
            self.timeouts.append(timeout)
            return super().wait(timeout)

    system, _spec, data = build_system("linear", n_tuples=64)
    models = trained_models(system, "linear")
    server = system.serve("linear", models=models, max_batch_size=8)
    server._wake = spy = SpyCondition(server._lock)
    with server:
        for row in data[:4]:  # lone requests on an idle server
            server.predict(row)
        futures = [server.submit(row) for row in data[:64]]  # a burst
        served = [f.result(timeout=30) for f in futures]
    np.testing.assert_array_equal(served, system.predict("linear", data[:64], models=models))
    assert spy.timeouts, "the scorer never parked"
    assert set(spy.timeouts) == {None}


def test_prediction_server_concurrent_submitters_stress():
    """Eight submitters, a tiny switch interval, a blocking depth of eight.

    Submitters park on the full deque and the scorer parks on an empty one,
    both on the same condition: a lost notify strands a request (its
    ``result`` times out), a lost update miscounts.
    """
    system, _spec, data = build_system("linear", n_tuples=64)
    models = trained_models(system, "linear")
    direct = system.predict("linear", data, models=models)
    server = system.serve("linear", models=models, max_batch_size=4)
    engine = HeldEngine.install(server)
    results: dict[int, list] = {}

    def client(k: int) -> None:
        futures = [server.submit(data[(k + i) % len(data)]) for i in range(100)]
        results[k] = [f.result(timeout=HANG_S) for f in futures]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with server:
            clients = [threading.Thread(target=client, args=(k,)) for k in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(HANG_S)
            assert not any(thread.is_alive() for thread in clients)
    finally:
        sys.setswitchinterval(interval)
    for k in range(8):
        np.testing.assert_array_equal(
            results[k], direct[(k + np.arange(100)) % len(data)]
        )
    assert server.stats.requests == 800
    assert max(engine.call_sizes()) <= 4


@pytest.mark.parametrize(
    "held", [pytest.param(False, id="stop-idle"), pytest.param(True, id="stop-while-held")]
)
def test_prediction_server_wake_up_rule(held):
    """A submit wakes an idle scorer; ``stop()`` wakes it and drains at once."""
    system, _spec, data = build_system("linear", n_tuples=64)
    models = trained_models(system, "linear")
    server = system.serve("linear", models=models, max_batch_size=16)
    engine = HeldEngine.install(server, held=held)
    server.start()
    try:
        time.sleep(0.05)  # let the scorer park idle
        if held:
            futures = _held_backlog(server, engine, data[0], data[1:9])
            threading.Timer(0.02, engine.gate.set).start()
        else:
            # Answered only if the submit wakes the parked scorer: a missed
            # idle notify times out here.
            futures = [server.submit(data[0])]
            futures[0].result(timeout=1.0)
        started = time.perf_counter()
        server.stop()  # wakes an idle scorer; drains a held batch's backlog
        served = [f.result(timeout=HANG_S) for f in futures]
        elapsed = time.perf_counter() - started
    finally:
        engine.gate.set()
        server.stop(drain=False)
    assert elapsed < 1.0
    assert server.stats.requests == len(futures)
    direct = system.predict("linear", data[: len(futures)], models=models)
    np.testing.assert_array_equal(served, direct)
    assert engine.call_sizes() == ([1, 8] if held else [1])


def test_malformed_row_fails_alone_in_its_micro_batch():
    system, _spec, data = build_system("linear", n_tuples=64)
    models = trained_models(system, "linear")
    rows = [data[1], data[2], data[3], np.zeros(2), data[4], data[5], data[6]]
    server = system.serve("linear", models=models, max_batch_size=8)
    engine = HeldEngine.install(server, held=True)
    with server:
        # The seven requests queue behind the held blocker: one micro-batch.
        futures = _held_backlog(server, engine, data[0], rows)
        engine.gate.set()
        with pytest.raises(ValueError):
            futures[4].result(timeout=30)
        served = [f.result(timeout=30) for f in futures[:4] + futures[5:]]
    np.testing.assert_array_equal(
        served, system.predict("linear", data[:7], models=models)
    )
    # The batch of seven could not be stacked, so each row was re-scored
    # alone; its six good rows still count as one served micro-batch.
    assert engine.call_sizes() == [1] * 8
    assert (server.stats.batches, server.stats.requests) == (2, 7)


def test_prediction_server_restarts_after_stop():
    system, _spec, data = build_system("linear", n_tuples=64)
    models = trained_models(system, "linear")
    server = system.serve("linear", models=models, max_batch_size=8)
    server.start()
    first = server.predict(data[0])
    server.stop()
    server.start()  # a stopped server must be restartable
    try:
        assert server.predict(data[0]) == first
    finally:
        server.stop()


def test_prediction_server_survives_cancelled_futures():
    system, _spec, data = build_system("linear", n_tuples=64)
    models = {"mo": np.ones(N_FEATURES)}
    server = system.serve("linear", models=models, max_batch_size=4)
    engine = HeldEngine.install(server, held=True)
    with server:
        # A request is cancellable only while the scorer is busy elsewhere.
        doomed, alive = _held_backlog(server, engine, data[3], data[:2])[1:]
        assert doomed.cancel()  # client gave up before the scorer picked it up
        engine.gate.set()
        # The scorer must skip the cancelled future and keep serving
        # everyone else.
        assert np.isfinite(alive.result(timeout=30))
        assert float(server.predict(data[2])) == pytest.approx(
            float(np.sum(data[2][:N_FEATURES]))
        )


def test_registry_rejects_duplicate_element_indices():
    system, _spec, _data = build_system("linear", n_tuples=64)
    system.save_model("m", "linear", {"mo": np.arange(N_FEATURES, dtype=np.float64)})
    # Corrupt the parameter table: right row count, but one element index
    # duplicated and one missing — must fail loudly, not return garbage.
    table = model_table_name("m", 1)
    system.database.drop_table(table)
    rows = [(0, i, float(i)) for i in range(N_FEATURES)]
    rows[1] = (0, 0, 99.0)  # idx 1 missing, idx 0 duplicated
    system.database.load_table(table, MODEL_PARAM_SCHEMA, rows)
    with pytest.raises(ConfigurationError, match="corrupt"):
        system.load_model("m")


def test_score_table_counters_independent_of_call_order():
    # A predict() before score_table() (which compiles a nominal table-less
    # design) must not change the table scoring's schedule-derived counters.
    system_a, _spec, data = build_system("linear")
    system_b, _spec2, _data2 = build_system("linear")
    models = {"mo": np.linspace(-1.0, 1.0, N_FEATURES)}
    system_a.predict("linear", data[:4], models=models)
    scored_a = system_a.score_table("linear", "t", models=models, segments=2)
    scored_b = system_b.score_table("linear", "t", models=models, segments=2)
    assert scored_a.inference_stats == scored_b.inference_stats
    np.testing.assert_array_equal(scored_a.predictions, scored_b.predictions)


def test_prediction_server_rejects_when_stopped_and_bad_rows():
    system, _spec, data = build_system("linear", n_tuples=64)
    models = {"mo": np.zeros(N_FEATURES)}
    server = system.serve("linear", models=models)
    with pytest.raises(ConfigurationError, match="not running"):
        server.submit(data[0])
    with server:
        with pytest.raises(ConfigurationError, match="1-D"):
            server.submit(data[:2])
        assert server.predict(data[0]) == pytest.approx(0.0)
    with pytest.raises(ConfigurationError, match="not running"):
        server.submit(data[0])


# ---------------------------------------------------------------------- #
# model hot-swap
# ---------------------------------------------------------------------- #
def test_hot_swap_scores_later_requests_with_new_model():
    system, _spec, data = build_system("linear", n_tuples=64)
    v1 = {"mo": np.zeros(N_FEATURES)}
    v2 = {"mo": np.ones(N_FEATURES)}
    system.save_model("m", "linear", v1)
    with system.serve("linear", model_name="m") as server:
        assert server.model_version == 1
        before = [server.predict(row) for row in data[:4]]
        system.save_model("m", "linear", v2)
        entry = server.reload()  # latest version
        assert entry.version == 2 and server.model_version == 2
        after = [server.predict(row) for row in data[:4]]
    assert all(value == 0.0 for value in before)
    expected = np.sum(data[:4, :N_FEATURES], axis=1)
    np.testing.assert_allclose(after, expected, rtol=1e-12)
    assert server.stats.swaps == 1
    # Bit-identical to a cold restart on the new version.
    with system.serve("linear", model_name="m") as cold:
        cold_preds = [cold.predict(row) for row in data[:4]]
    np.testing.assert_array_equal(after, cold_preds)


def test_hot_swap_by_explicit_version_and_rollback():
    system, _spec, data = build_system("linear", n_tuples=64)
    system.save_model("m", "linear", {"mo": np.zeros(N_FEATURES)})
    system.save_model("m", "linear", {"mo": np.ones(N_FEATURES)})
    with system.serve("linear", model_name="m") as server:
        assert server.model_version == 2
        server.reload(version=1)  # rollback
        assert server.model_version == 1
        assert server.predict(data[0]) == pytest.approx(0.0)
        with pytest.raises(ConfigurationError, match="no version 9"):
            server.reload(version=9)
        # A failed reload leaves the served model untouched.
        assert server.model_version == 1
        assert server.predict(data[1]) == pytest.approx(0.0)


def test_hot_swap_during_active_drain_is_batch_atomic():
    """Swap while a burst is in flight: every request scores with exactly
    the old or the new model — never a half-swapped mixture — and requests
    submitted after the swap returns use the new version."""
    system, _spec, data = build_system("linear", n_tuples=256)
    v1 = {"mo": np.zeros(N_FEATURES)}
    v2 = {"mo": np.ones(N_FEATURES)}
    system.save_model("m", "linear", v1)
    system.save_model("m", "linear", v2)
    expected_v2 = np.sum(data[:, :N_FEATURES], axis=1)
    with system.serve("linear", model_name="m", version=1, max_batch_size=8) as server:
        in_flight = [server.submit(row) for row in data[:128]]
        server.reload(version=2)  # concurrent with the draining burst
        late = [server.submit(row) for row in data[128:160]]
        drained = np.array([f.result(timeout=30) for f in in_flight])
        late_preds = np.array([f.result(timeout=30) for f in late])
    # In-flight requests score with one of the two models, atomically.
    for index, value in enumerate(drained):
        assert value == pytest.approx(0.0) or value == pytest.approx(
            expected_v2[index], rel=1e-12
        )
    # Requests submitted after reload() returned must use the new model:
    # reload swaps under the server lock, and batches snapshot at score
    # time, so nothing submitted later can see the old parameters.
    np.testing.assert_allclose(late_preds, expected_v2[128:160], rtol=1e-12)
    assert server.stats.swaps == 1


def test_swap_models_requires_registry_backing_for_reload():
    system, _spec, data = build_system("linear", n_tuples=64)
    server = system.serve("linear", models={"mo": np.zeros(N_FEATURES)})
    assert server.model_version is None
    with pytest.raises(ConfigurationError, match="in-memory model mapping"):
        server.reload()
    with pytest.raises(ConfigurationError, match="non-empty model mapping"):
        server.swap_models({})
    # In-memory swap still works (no registry round trip).
    with server:
        server.swap_models({"mo": np.ones(N_FEATURES)})
        assert server.predict(data[0]) == pytest.approx(
            float(np.sum(data[0][:N_FEATURES]))
        )
    assert server.stats.swaps == 1


# ---------------------------------------------------------------------- #
# serving cost model
# ---------------------------------------------------------------------- #
def test_score_run_cost_books_critical_path_and_cost_column():
    system, _spec, _data = build_system("linear")
    models = trained_models(system, "linear")
    result = system.score_table("linear", "t", models=models, segments=2)
    cost = ScoreRunCost.from_result(result)
    assert cost.segments == 2
    assert cost.tuples_scored == N_TUPLES
    assert cost.critical_path_cycles == result.critical_path_cycles
    assert cost.critical_path_cycles >= cost.pipelined_critical_path_cycles > 0
    assert cost.inference_cycles_per_tuple > 0
    assert cost.seconds() > 0
    assert cost.tuples_per_second() > 0


def test_empty_table_scores_empty():
    algorithm = get_algorithm("linear")
    spec = algorithm.build_spec(N_FEATURES, Hyperparameters())
    database = Database()
    database.load_table("empty", spec.schema, np.empty((0, N_FEATURES + 1)))
    system = DAnA(database)
    system.register_udf("linear", spec)
    result = system.score_table(
        "linear", "empty", models={"mo": np.zeros(N_FEATURES)}
    )
    assert result.tuples_scored == 0
    assert result.predictions.shape[0] == 0


# ---------------------------------------------------------------------- #
# predicate push-down: WHERE below the forward tape
# ---------------------------------------------------------------------- #
FILTER_BATCH = 16
#: x0 holds the storage position, so these pick page ranges: the first
#: leaves three of fifteen pages non-empty (and one of four round-robin
#: segments with nothing to score), the second matches nothing.
FILTER_SOME = "x0 >= 200 AND x0 < 260 AND x1 > 0"
FILTER_NONE = "x0 < 0"
FILTER_MODELS = {"mo": np.linspace(-1.0, 1.0, N_FEATURES)}


def build_filter_system(use_striders: bool = True, key: str = "linear") -> DAnA:
    """A registry-built UDF (process workers can rebuild it) over 15 small pages."""
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=16, epochs=2)
    data = generate_for_algorithm(key, N_TUPLES, N_FEATURES, seed=0)
    data[:, 0] = np.arange(N_TUPLES)
    database = Database(page_size=2048)
    system = DAnA(database, use_striders=use_striders)
    registered = system.register_algorithm_udf(key, key, N_FEATURES, hyper, epochs=2)
    database.load_table("t", registered.spec.schema, data)
    return system


def filter_plan(system: DAnA, where_sql: str, **kwargs):
    """The plan ``SELECT dana.predict(...) FROM t WHERE <where_sql>`` resolves
    to, with the serving knobs the SQL surface does not expose."""
    from repro.core import ScorePlan
    from repro.rdbms import parse
    from repro.rdbms.predicate import ColumnPredicate

    (udf,) = system.registered_udfs()
    where = parse(f"SELECT * FROM t WHERE {where_sql}").where
    return ScorePlan.resolve(
        system._registered(udf),
        "t",
        use_striders=system.use_striders,
        where=ColumnPredicate.compile(system.database.table("t").schema, where),
        **{"batch_size": FILTER_BATCH, **kwargs},
    )


def reference_mask(system: DAnA, where_sql: str) -> np.ndarray:
    """The per-row oracle: ``matches_row`` over a tuple-at-a-time scan."""
    from repro.rdbms import matches_row, parse

    table = system.database.table("t")
    where = parse(f"SELECT * FROM t WHERE {where_sql}").where
    return np.array(
        [
            matches_row(table.schema, row, where)
            for row in table.scan_tuples(system.database.buffer_pool)
        ]
    )


@pytest.mark.parametrize("use_striders", (True, False))
@pytest.mark.parametrize("segments", (1, 4))
def test_filtered_scan_and_score_parity_grid(use_striders, segments):
    from repro.cluster import Partitioner

    system = build_filter_system(use_striders)
    mask = reference_mask(system, FILTER_SOME)
    assert 0 < mask.sum() < 60
    unfiltered = system.score_table(
        "linear",
        "t",
        models=FILTER_MODELS,
        segments=segments,
        stream=False,
        batch_size=FILTER_BATCH,
    )
    # qualifying tuples per segment, from the page partition alone
    per_page = system.database.table("t").tuples_per_page()
    parts = Partitioner().partition_table(system.database, "t", segments)
    qualifying = [
        sum(int(mask[no * per_page : (no + 1) * per_page].sum()) for no in part.page_nos)
        for part in parts
    ]
    assert sum(qualifying) == mask.sum()
    if segments == 4:
        assert min(qualifying) == 0  # a whole segment is filtered away
    inference = system._inference_plan(system._registered("linear"), "t")

    cells = {}
    for stream in (True, False):
        for execution in ("threads", "processes"):
            plan = filter_plan(
                system, FILTER_SOME, segments=segments, stream=stream, execution=execution
            )
            cells[stream, execution] = result = system._score(plan, FILTER_MODELS)
            np.testing.assert_array_equal(
                result.predictions, unfiltered.predictions[mask]
            )
            assert result.stream == (
                stream and use_striders and execution != "processes"
            )
            assert result.tuples_scanned == N_TUPLES
            assert result.tuples_scored == mask.sum()
            for seg, seg_all, n in zip(result.segments, unfiltered.segments, qualifying):
                # every page is still walked: the access counters do not move
                assert seg.access_stats == seg_all.access_stats
                # the engine books dense micro-batches of qualifying tuples
                assert seg.tuples_scored == seg.inference_stats.tuples_scored == n
                assert seg.inference_stats.batches_scored == -(-n // FILTER_BATCH)
                assert seg.inference_stats.forward_cycles == (
                    inference.forward_cost(n, FILTER_BATCH).forward_cycles
                )
            if use_striders:
                assert (
                    sum(seg.access_stats.tuples_extracted for seg in result.segments)
                    == N_TUPLES
                )
    first = cells[True, "threads"]
    for result in cells.values():
        assert result.inference_stats == first.inference_stats
        assert [s.inference_stats for s in result.segments] == [
            s.inference_stats for s in first.segments
        ]
    assert first.inference_stats.forward_cycles < unfiltered.inference_stats.forward_cycles


@pytest.mark.parametrize("key", ("linear", "lrmf"))
@pytest.mark.parametrize("stream", (True, False))
@pytest.mark.parametrize("segments", (1, 4))
def test_predicate_matching_nothing_returns_zero_rows(key, stream, segments):
    if key == "lrmf":
        system, _spec, _data = build_system("lrmf")
        where_sql, models = "value < 0 AND value > 0", trained_models(system, "lrmf")
    else:
        system, where_sql, models = build_filter_system(), FILTER_NONE, FILTER_MODELS
    everything = system.score_table(key, "t", models=models, segments=segments)
    plan = filter_plan(system, where_sql, segments=segments, stream=stream)
    result = system._score(plan, models)
    assert result.predictions.shape == (0,) + everything.predictions.shape[1:]
    assert result.tuples_scanned == everything.tuples_scored > 0
    assert result.inference_stats == type(result.inference_stats)()
    assert [seg.access_stats for seg in result.segments] == [
        seg.access_stats for seg in everything.segments
    ]


def test_sql_predict_where_is_the_filtered_plan():
    """The statement and the plan-level grid above are the same run."""
    system = build_filter_system()
    system.save_model("m", "linear", FILTER_MODELS)
    statement = system.database.execute(
        f"SELECT dana.predict('m') FROM t WHERE {FILTER_SOME}"
    )
    direct = system._score(filter_plan(system, FILTER_SOME, batch_size=None), FILTER_MODELS)
    np.testing.assert_array_equal(
        [row[0] for row in statement.rows], direct.predictions
    )
    assert statement.payload.inference_stats == direct.inference_stats


def test_hw_decode_span_reports_the_filter_output_only_when_armed():
    from repro.obs import enable_telemetry

    system = build_filter_system()
    mask = reference_mask(system, FILTER_SOME)
    with enable_telemetry() as session:
        system._score(filter_plan(system, FILTER_SOME, stream=False), FILTER_MODELS)
    spans = [s for s in session.tracer.to_list() if s["name"] == "hw.decode"]
    assert sum(s["attrs"]["tuples"] for s in spans) == N_TUPLES
    assert sum(s["attrs"]["tuples_out"] for s in spans) == mask.sum()
    with enable_telemetry() as session:
        system.score_table("linear", "t", models=FILTER_MODELS, stream=False)
    spans = [s for s in session.tracer.to_list() if s["name"] == "hw.decode"]
    assert spans and all("tuples_out" not in s["attrs"] for s in spans)


@pytest.mark.chaos
class TestChaosFilteredScoring:
    """A re-walk re-filters: recovered filtered runs stay bit-identical."""

    def _baseline(self, system, **kwargs):
        return system._score(filter_plan(system, FILTER_SOME, **kwargs), FILTER_MODELS)

    def test_streaming_producer_restart_refilters(self):
        from repro.reliability import FaultPlan, RetryPolicy, inject_faults

        system = build_filter_system()
        baseline = self._baseline(system, segments=2, stream=True)
        plan = filter_plan(
            system,
            FILTER_SOME,
            segments=2,
            stream=True,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
        )
        with inject_faults(FaultPlan.transient(("hw.strider.page_walk", 1))) as injector:
            chaotic = system._score(plan, FILTER_MODELS)
        assert len(injector.fired) == 1
        assert chaotic.retry.retries >= 1
        np.testing.assert_array_equal(chaotic.predictions, baseline.predictions)
        assert chaotic.inference_stats == baseline.inference_stats
        assert [s.access_stats for s in chaotic.segments] == [
            s.access_stats for s in baseline.segments
        ]

    def test_redistributed_pages_are_filtered_by_their_adopters(self):
        from repro.reliability import FaultPlan, RetryPolicy, inject_faults

        system = build_filter_system()
        baseline = self._baseline(system, segments=4)
        plan = filter_plan(
            system,
            FILTER_SOME,
            segments=4,
            retry=RetryPolicy(max_attempts=1, degradation="redistribute"),
        )
        with inject_faults(FaultPlan.transient(("serving.scorer.segment", 1))):
            chaotic = system._score(plan, FILTER_MODELS)
        assert chaotic.retry.redistributed >= 1
        np.testing.assert_array_equal(chaotic.predictions, baseline.predictions)
        assert chaotic.inference_stats.tuples_scored == baseline.tuples_scored
