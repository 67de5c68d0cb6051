"""Robustness and failure-injection tests across the stack."""

import copy

import numpy as np
import pytest

from repro import dana
from repro.compiler import compile_strider
from repro.exceptions import (
    CompilerError,
    DSLError,
    HardwareError,
    ISAError,
    RDBMSError,
    ReproError,
    StriderError,
    TranslationError,
)
from repro.hw.strider import Strider
from repro.rdbms import Database, HeapPage, PageLayout, Schema
from repro.translator import translate


class TestExceptionHierarchy:
    def test_all_subsystem_errors_are_repro_errors(self):
        for exc in (RDBMSError, DSLError, TranslationError, CompilerError, ISAError, HardwareError):
            assert issubclass(exc, ReproError)

    def test_strider_error_is_hardware_error(self):
        assert issubclass(StriderError, HardwareError)

    def test_catchable_at_the_top_level(self):
        with pytest.raises(ReproError):
            Schema.training_schema(2).encode_row((1.0,))


class TestDanaAliasModule:
    def test_alias_exports_match_dsl(self):
        import repro.dana as dana_module
        import repro.dsl as dsl

        for name in ("model", "input", "output", "meta", "algo", "sigma", "sigmoid", "norm"):
            assert getattr(dana_module, name) is getattr(dsl, name)

    def test_paper_snippet_compiles(self):
        # Verbatim structure of the §4.3 snippet (with Python-legal dims).
        mo = dana.model([10])
        inp = dana.input([10])
        out = dana.output()
        lr = dana.meta(0.3)
        linearR = dana.algo(mo, inp, out)
        s = dana.sigma(mo * inp, 1)
        er = s - out
        grad = er * inp
        up = lr * grad
        mo_up = mo - up
        linearR.setModel(mo_up)
        merge_coef = dana.meta(8)
        linearR.merge(grad, merge_coef, "+")
        convergence_factor = dana.meta(0.01)
        n = dana.norm(grad, 1)
        linearR.setConvergence(n < convergence_factor)
        linearR.setEpochs(10)
        graph = translate(linearR)
        assert graph.convergence_node_id is not None
        assert len(graph.merge_node_ids) == 1


class TestCorruptedPages:
    def test_truncated_page_rejected_by_heap_page(self):
        layout = PageLayout(page_size=8192)
        with pytest.raises(RDBMSError):
            HeapPage.from_bytes(b"\x00" * 100, layout)

    def test_strider_on_zeroed_page_emits_nothing_harmful(self):
        # A zeroed page claims free_space_start == 0 < line-pointer start, so
        # the walk loop exits after its first (do-while) iteration without
        # reading out of bounds.
        layout = PageLayout(page_size=8192)
        schema = Schema.training_schema(4)
        compiled = compile_strider(layout, schema)
        result = Strider(compiled.program).process_page(bytes(8192))
        assert result.stats.tuples_emitted <= 1

    def test_strider_on_garbage_page_fails_safely(self):
        layout = PageLayout(page_size=1024)
        schema = Schema.training_schema(4)
        compiled = compile_strider(layout, schema)
        rng = np.random.default_rng(0)
        garbage = bytes(rng.integers(0, 256, size=1024, dtype=np.uint8))
        strider = Strider(compiled.program, max_instructions=100_000)
        # Either the walk terminates quickly or it raises a StriderError;
        # it must never hang or crash the interpreter.
        try:
            result = strider.process_page(garbage)
            assert result.stats.instructions_executed <= 100_000
        except StriderError:
            pass


class TestEmptyAndEdgeCaseTables:
    def test_empty_table_scan(self):
        db = Database(page_size=8192)
        schema = Schema.training_schema(3)
        db.create_table("empty", schema)
        assert db.execute("SELECT count(*) FROM empty").rows == [(0,)]
        assert db.table("empty").read_all(db.buffer_pool).shape == (0, 4)

    def test_single_tuple_table_trains(self):
        from repro.algorithms import Hyperparameters, LinearRegression
        from repro.core import DAnA

        spec = LinearRegression().build_spec(3, Hyperparameters(merge_coefficient=4, epochs=3))
        db = Database(page_size=8192)
        db.load_table("one", spec.schema, np.array([[1.0, 2.0, 3.0, 4.0]]))
        system = DAnA(db)
        system.register_udf("lr", spec, epochs=3)
        run = system.train("lr", "one")
        assert run.tuples_extracted == 1
        assert np.all(np.isfinite(run.models["mo"]))

    def test_wide_tuple_must_fit_page(self):
        db = Database(page_size=8192)
        schema = Schema.training_schema(5000)
        table = db.create_table("wide", schema)
        with pytest.raises(ReproError):
            table.bulk_load([np.zeros(5001).tolist()])


class TestDSLMisuse:
    def test_group_axis_out_of_range_detected_at_translation(self):
        mo, x, y = dana.model([4], name="mo"), dana.input([4], name="x"), dana.output(name="y")
        algo = dana.algo(mo, x, y)
        algo.setModel(mo - 0.1 * dana.sigma(mo * x, 3) * mo)
        algo.setEpochs(1)
        with pytest.raises(ReproError):
            translate(algo)

    def test_missing_terminator(self):
        mo, x, y = dana.model([4]), dana.input([4]), dana.output()
        algo = dana.algo(mo, x, y)
        algo.setModel(mo)
        with pytest.raises(DSLError):
            translate(algo)


# ---------------------------------------------------------------------- #
# Chaos parity suite (ISSUE 6): deterministic fault injection + retry
# ---------------------------------------------------------------------- #
import threading

from repro.algorithms import Hyperparameters, get_algorithm
from repro.core import DAnA
from repro.data.synthetic import generate_for_algorithm
from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    RetryExhaustedError,
    ServerOverloadedError,
    ServingError,
    TransientError,
)
from repro.reliability import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    RetryStats,
    fault_point,
    inject_faults,
)

LRMF_TOPOLOGY = (24, 18, 4)
ALGORITHMS = ("linear", "logistic", "svm", "lrmf")
#: zero-sleep retry policy used by the chaos runs (tests never wait).
RETRY = RetryPolicy(max_attempts=3, backoff_s=0.0)


def _chaos_system(key, n_tuples=192, epochs=2, seed=11, use_striders=True):
    """A fresh DAnA system with one algorithm UDF over a loaded table."""
    algorithm = get_algorithm(key)
    n_features = 4 if key == "lrmf" else 6
    topology = LRMF_TOPOLOGY if key == "lrmf" else ()
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=8, epochs=epochs)
    spec = algorithm.build_spec(n_features, hyper, topology)
    data = generate_for_algorithm(key, n_tuples, n_features, LRMF_TOPOLOGY, seed=seed)
    database = Database(page_size=8 * 1024)
    database.load_table("train", spec.schema, data)
    database.warm_cache("train")
    system = DAnA(database, use_striders=use_striders)
    system.register_udf(key, spec, epochs=epochs)
    return system, spec


def _lingering_threads():
    """Producer / fan-out dispatch threads that outlived their run."""
    return [
        t.name
        for t in threading.enumerate()
        if t.name == "batch-source-producer" or t.name.startswith("segment-fanout")
    ]


def _assert_models_equal(expected, actual):
    assert set(expected) == set(actual)
    for name in expected:
        np.testing.assert_array_equal(expected[name], actual[name])


def _assert_train_parity(baseline, chaotic):
    """Bit-identical models + schedule-derived counters (retry excluded)."""
    _assert_models_equal(baseline.models, chaotic.models)
    assert baseline.engine_stats.__dict__ == chaotic.engine_stats.__dict__
    assert baseline.access_stats.__dict__ == chaotic.access_stats.__dict__
    assert baseline.tuples_extracted == chaotic.tuples_extracted


def _assert_sharded_parity(baseline, chaotic):
    _assert_train_parity(baseline, chaotic)
    assert baseline.epochs_run == chaotic.epochs_run
    assert baseline.converged == chaotic.converged
    assert len(baseline.segments) == len(chaotic.segments)
    for base_seg, chaos_seg in zip(baseline.segments, chaotic.segments):
        assert base_seg.engine_stats.__dict__ == chaos_seg.engine_stats.__dict__
        assert base_seg.access_stats.__dict__ == chaos_seg.access_stats.__dict__
    assert (
        baseline.cluster.tree_bus.__dict__ == chaotic.cluster.tree_bus.__dict__
    )
    assert baseline.cluster.merges_performed == chaotic.cluster.merges_performed


@pytest.mark.chaos
class TestChaosTrainingParity:
    """Runs that retried injected faults are bit-identical to fault-free."""

    @pytest.mark.parametrize("key", ALGORITHMS)
    def test_single_accelerator_stream_parity(self, key):
        baseline_system, _spec = _chaos_system(key)
        baseline = baseline_system.train(key, "train", stream=True)

        chaos_system, _spec = _chaos_system(key)
        plan = FaultPlan.transient(
            ("hw.strider.page_walk", 2),
            ("runtime.batch_source.producer", 1),
        )
        with inject_faults(plan) as injector:
            chaotic = chaos_system.train(key, "train", stream=True, retry=RETRY)
        assert len(injector.fired) == 2
        assert chaotic.retry_stats.faults >= 2
        assert chaotic.retry_stats.retries >= 2
        _assert_train_parity(baseline, chaotic)

    @pytest.mark.parametrize("key", ALGORITHMS)
    @pytest.mark.parametrize("segments", [1, 2, 4])
    def test_sharded_parity(self, key, segments):
        system, _spec = _chaos_system(key)
        baseline = system.train(key, "train", segments=segments)

        plan = FaultPlan.transient(
            ("cluster.segment_worker.epoch", 1),
            ("hw.strider.page_walk", 2),
            ("runtime.batch_source.producer", 1),
        )
        with inject_faults(plan) as injector:
            chaotic = system.train(key, "train", segments=segments, retry=RETRY)
        assert len(injector.fired) == 3
        assert chaotic.cluster.retry.faults >= 3
        _assert_sharded_parity(baseline, chaotic)

    def test_fault_without_retry_propagates(self):
        system, _spec = _chaos_system("linear")
        with inject_faults(FaultPlan.transient(("cluster.segment_worker.epoch", 1))):
            with pytest.raises(TransientError):
                system.train("linear", "train", segments=2)

    def test_training_rejects_redistribute(self):
        system, _spec = _chaos_system("linear")
        with pytest.raises(ConfigurationError, match="redistribute"):
            system.train(
                "linear",
                "train",
                retry=RetryPolicy(degradation="redistribute"),
            )

    def test_train_rejects_non_policy_retry(self):
        system, _spec = _chaos_system("linear")
        with pytest.raises(ConfigurationError, match="RetryPolicy"):
            system.train("linear", "train", retry=3)

    def test_retry_exhaustion_raises(self):
        system, _spec = _chaos_system("linear")
        plan = FaultPlan.transient(
            ("cluster.segment_worker.epoch", 1),
            ("cluster.segment_worker.epoch", 2),
        )
        policy = RetryPolicy(max_attempts=2, backoff_s=0.0)
        with inject_faults(plan):
            with pytest.raises(RetryExhaustedError, match="training window"):
                system.train("linear", "train", segments=1, retry=policy)

    @pytest.mark.parametrize("execution", ["lockstep", "threads"])
    def test_cpu_decode_run_survives_a_producer_fault(self, execution):
        """``use_striders=False`` used to stream each segment through a
        source built without the restart recipe, so one producer fault
        poisoned it and every retry re-raised.  The seam materialises CPU
        decode, so the armed site is simply never reached."""
        system, _spec = _chaos_system("linear", n_tuples=2048, use_striders=False)
        kwargs = dict(segments=2, execution=execution, retry=RETRY)
        baseline = system.train("linear", "train", **kwargs)
        plan = FaultPlan.transient(("runtime.batch_source.producer", 2))
        with inject_faults(plan) as injector:
            chaotic = system.train("linear", "train", **kwargs)
        assert injector.fired == [] and not chaotic.cluster.stream
        assert chaotic.cluster.retry == baseline.cluster.retry
        assert chaotic.cluster.retry.faults == 0
        _assert_sharded_parity(baseline, chaotic)

    def test_overlapped_cpu_decode_source_restarts(self):
        """The restart recipe is wired at the seam for both decodes: an
        overlapped CPU-decode source recovers like the Strider walk."""
        system, _spec = _chaos_system("linear", n_tuples=2048)
        table = system.database.table("train")
        images = [image for _no, image in table.scan_pages(system.database.buffer_pool)]
        access = system.accelerator_for("linear", "train").access_engine
        before = copy.copy(access.stats)
        with inject_faults(
            FaultPlan.transient(("runtime.batch_source.producer", 2))
        ) as injector:
            source = access.open(images, use_striders=False, stream=True, retry=RETRY)
            rows = source.rows()
        assert len(injector.fired) == 1
        assert (source.retry_stats.faults, source.retry_stats.retries) == (1, 1)
        np.testing.assert_array_equal(
            rows, table.read_all(system.database.buffer_pool)
        )
        assert source.sizes == [len(c) for c in access.cpu_decode_pages(images)]
        assert access.stats == before  # CPU decode books no Strider activity

    def test_producer_restart_honours_the_retry_deadline(self):
        """The producer restart draws on the policy's own budget: a fault
        past ``deadline_s`` gives up with ``RetryPolicy.run``'s error
        instead of restarting until ``max_attempts``."""
        system, _spec = _chaos_system("linear", n_tuples=2048)
        site = "runtime.batch_source.producer"
        plan = FaultPlan(
            [
                FaultSpec(site=site, call=1, kind="latency", latency_s=0.2),
                FaultSpec(site=site, call=2),
                FaultSpec(site=site, call=3),
            ]
        )
        policy = RetryPolicy(max_attempts=5, deadline_s=0.05)
        with inject_faults(plan) as injector:
            with pytest.raises(
                RetryExhaustedError,
                match=r"batch-source producer missed its 0\.05s retry deadline "
                r"after 1 attempt",
            ):
                system.train("linear", "train", retry=policy)
        assert [entry.kind for entry in injector.fired] == ["latency", "error"]
        assert _lingering_threads() == []

    def test_no_producer_threads_leak(self):
        system, _spec = _chaos_system("linear")
        plan = FaultPlan.transient(("runtime.batch_source.producer", 1))
        with inject_faults(plan):
            system.train("linear", "train", segments=2, retry=RETRY)
        assert _lingering_threads() == []

    @pytest.mark.parametrize("execution", ["lockstep", "threads"])
    def test_no_producer_threads_leak_when_run_fails_before_first_epoch(
        self, execution
    ):
        """Without retry a page-walk fault surfaces while the run is still
        picking its active segments; the other segments' producers, parked
        on their bounded queues, must be released all the same."""
        system, _spec = _chaos_system("linear", n_tuples=2048)
        for _ in range(2):
            with inject_faults(FaultPlan.transient(("hw.strider.page_walk", 1))):
                with pytest.raises(TransientError):
                    system.train(
                        "linear", "train", segments=4, execution=execution
                    )
        assert _lingering_threads() == []


@pytest.mark.chaos
class TestChaosScoringParity:
    """Retried / redistributed scoring is bit-identical to fault-free."""

    @pytest.mark.parametrize("key", ALGORITHMS)
    def test_segment_retry_parity(self, key):
        system, spec = _chaos_system(key)
        baseline = system.score_table(
            key, "train", models=spec.initial_models, segments=2
        )
        plan = FaultPlan.transient(
            ("serving.scorer.segment", 1),
            ("serving.inference.score", 2),
        )
        with inject_faults(plan) as injector:
            chaotic = system.score_table(
                key, "train", models=spec.initial_models, segments=2, retry=RETRY
            )
        assert len(injector.fired) == 2
        assert chaotic.retry.faults >= 2
        np.testing.assert_array_equal(baseline.predictions, chaotic.predictions)
        assert (
            baseline.inference_stats.__dict__ == chaotic.inference_stats.__dict__
        )
        # (ported from the legacy bench) armed-but-idle supervision is the
        # same computation too: no fault fires, nothing is retried
        idle = system.score_table(
            key, "train", models=spec.initial_models, segments=2, retry=RETRY
        )
        assert idle.retry.faults == idle.retry.retries == 0
        np.testing.assert_array_equal(baseline.predictions, idle.predictions)
        assert baseline.inference_stats == idle.inference_stats
        for base_seg, chaos_seg in zip(baseline.segments, chaotic.segments):
            assert (
                base_seg.inference_stats.__dict__
                == chaos_seg.inference_stats.__dict__
            )

    @pytest.mark.parametrize("segments", [1, 2, 4])
    def test_streamed_scoring_parity(self, segments):
        system, spec = _chaos_system("linear")
        baseline = system.score_table(
            "linear", "train", models=spec.initial_models, segments=segments
        )
        plan = FaultPlan.transient(
            ("hw.strider.page_walk", 1),
            ("runtime.batch_source.producer", 1),
        )
        with inject_faults(plan) as injector:
            chaotic = system.score_table(
                "linear",
                "train",
                models=spec.initial_models,
                segments=segments,
                retry=RETRY,
            )
        assert len(injector.fired) == 2
        np.testing.assert_array_equal(baseline.predictions, chaotic.predictions)
        assert (
            baseline.inference_stats.__dict__ == chaotic.inference_stats.__dict__
        )

    @pytest.mark.parametrize("key", ["linear", "lrmf"])
    def test_redistribute_predictions_bit_identical(self, key):
        system, spec = _chaos_system(key)
        baseline = system.score_table(
            key, "train", models=spec.initial_models, segments=4
        )
        # max_attempts=1: the first segment to hit the fault fails
        # permanently and its pages are adopted by the survivors.
        policy = RetryPolicy(max_attempts=1, degradation="redistribute")
        plan = FaultPlan.transient(("serving.scorer.segment", 1))
        with inject_faults(plan):
            chaotic = system.score_table(
                key, "train", models=spec.initial_models, segments=4, retry=policy
            )
        assert chaotic.retry.redistributed >= 1
        np.testing.assert_array_equal(baseline.predictions, chaotic.predictions)

    def test_redistribute_with_no_survivors_raises(self):
        system, spec = _chaos_system("linear")
        policy = RetryPolicy(max_attempts=1, degradation="redistribute")
        plan = FaultPlan.transient(("serving.scorer.segment", 1))
        with inject_faults(plan):
            with pytest.raises(RetryExhaustedError):
                system.score_table(
                    "linear",
                    "train",
                    models=spec.initial_models,
                    segments=1,
                    retry=policy,
                )

    def test_exhaustion_with_fail_degradation_raises(self):
        system, spec = _chaos_system("linear")
        policy = RetryPolicy(max_attempts=2, backoff_s=0.0)
        plan = FaultPlan.transient(
            ("serving.scorer.segment", 1),
            ("serving.scorer.segment", 2),
        )
        with inject_faults(plan):
            with pytest.raises(RetryExhaustedError):
                system.score_table(
                    "linear",
                    "train",
                    models=spec.initial_models,
                    segments=1,
                    retry=policy,
                )


class TestFaultPlanValidation:
    def test_rejects_unknown_site(self):
        with pytest.raises(ConfigurationError, match="unknown fault site"):
            FaultPlan([FaultSpec(site="nope", call=1)])

    def test_rejects_bad_call_index(self):
        with pytest.raises(ConfigurationError, match="call index"):
            FaultPlan([FaultSpec(site="hw.strider.page_walk", call=0)])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="fault kind"):
            FaultPlan([FaultSpec(site="hw.strider.page_walk", call=1, kind="crash")])

    def test_rejects_duplicate_schedule(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            FaultPlan.transient(
                ("hw.strider.page_walk", 1), ("hw.strider.page_walk", 1)
            )

    def test_arming_is_exclusive(self):
        plan = FaultPlan.transient(("hw.strider.page_walk", 1))
        with inject_faults(plan):
            with pytest.raises(ConfigurationError, match="already armed"):
                with inject_faults(plan):
                    pass

    @pytest.mark.chaos
    def test_latency_fault_delays_but_succeeds(self):
        system, _spec = _chaos_system("linear", n_tuples=64, epochs=1)
        baseline = system.train("linear", "train", segments=2)
        plan = FaultPlan(
            [
                FaultSpec(
                    site="cluster.segment_worker.epoch",
                    call=1,
                    kind="latency",
                    latency_s=0.01,
                )
            ]
        )
        with inject_faults(plan) as injector:
            delayed = system.train("linear", "train", segments=2)
        assert [entry.kind for entry in injector.fired] == ["latency"]
        _assert_sharded_parity(baseline, delayed)


class TestRetryPolicyUnit:
    def test_retries_transient_until_success(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("boom")
            return "ok"

        stats = RetryStats()
        resets = []
        policy = RetryPolicy(max_attempts=3, backoff_s=0.0)
        assert policy.run(flaky, stats=stats, reset=lambda: resets.append(1)) == "ok"
        assert stats.attempts == 3
        assert stats.retries == 2
        assert stats.faults == 2
        assert len(resets) == 2  # reset precedes every re-attempt

    def test_non_transient_errors_propagate_immediately(self):
        policy = RetryPolicy(max_attempts=3, backoff_s=0.0)
        with pytest.raises(ValueError):
            policy.run(lambda: (_ for _ in ()).throw(ValueError("real bug")))

    def test_exhaustion_chains_last_fault(self):
        policy = RetryPolicy(max_attempts=2, backoff_s=0.0)

        def always():
            raise TransientError("again")

        with pytest.raises(RetryExhaustedError) as info:
            policy.run(always, label="unit op")
        assert "unit op" in str(info.value)
        assert isinstance(info.value.__cause__, TransientError)

    def test_validation_fails_fast(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(degradation="shrug")

    def test_seeded_jitter_schedule_is_reproducible(self):
        policy = RetryPolicy(backoff_s=0.001, jitter=0.5, seed=9)
        a, b = policy.sleeps(), policy.sleeps()
        assert a._rng.uniform(0.0, 1.0) == b._rng.uniform(0.0, 1.0)


@pytest.mark.chaos
class TestServerAdmission:
    """Admission control: shedding, deadlines, timeouts, drain, no leaks."""

    @staticmethod
    def _server(spec, system, **kwargs):
        return system.serve("linear", models=spec.initial_models, **kwargs)

    @staticmethod
    def _slow_plan(calls, latency_s=0.25):
        return FaultPlan(
            [
                FaultSpec(
                    site="serving.inference.score",
                    call=call,
                    kind="latency",
                    latency_s=latency_s,
                )
                for call in range(1, calls + 1)
            ]
        )

    def test_burst_sheds_with_server_overloaded(self):
        system, spec = _chaos_system("linear", n_tuples=64, epochs=1)
        row = np.zeros(6)
        server = self._server(
            spec, system, max_batch_size=1, max_queue_depth=2
        )
        futures, sheds = [], 0
        with inject_faults(self._slow_plan(calls=12)):
            with server:
                for _ in range(12):
                    try:
                        futures.append(server.submit(row))
                    except ServerOverloadedError:
                        sheds += 1
                # stop() drains: every admitted request is scored.
        assert sheds >= 1
        assert futures, "at least one request must have been admitted"
        assert server.stats.shed == sheds
        assert all(np.isfinite(f.result(timeout=5)) for f in futures)

    def test_queued_request_misses_deadline(self):
        system, spec = _chaos_system("linear", n_tuples=64, epochs=1)
        row = np.zeros(6)
        server = self._server(spec, system, max_batch_size=1)
        with inject_faults(self._slow_plan(calls=1, latency_s=0.3)):
            with server:
                slow = server.submit(row)
                late = server.submit(row, deadline_ms=25.0)
                assert np.isfinite(float(slow.result(timeout=5)))
                with pytest.raises(DeadlineExceededError, match="deadline"):
                    late.result(timeout=5)
        assert server.stats.deadline_exceeded == 1

    def test_predict_timeout_cancels_and_counts(self):
        system, spec = _chaos_system("linear", n_tuples=64, epochs=1)
        row = np.zeros(6)
        server = self._server(spec, system, max_batch_size=1)
        with inject_faults(self._slow_plan(calls=1, latency_s=0.4)):
            with server:
                blocker = server.submit(row)  # holds the scorer busy
                with pytest.raises(DeadlineExceededError, match="cancelled"):
                    server.predict(row, timeout=0.05)
                assert np.isfinite(float(blocker.result(timeout=5)))
                # the server keeps serving after a cancelled request.
                assert np.isfinite(server.predict(row, timeout=5))
        assert server.stats.timeouts == 1

    def test_per_model_concurrency_limit_sheds(self):
        system, spec = _chaos_system("linear", n_tuples=64, epochs=1)
        row = np.zeros(6)
        server = self._server(
            spec,
            system,
            max_batch_size=1,
            max_queue_depth=8,
            max_concurrent_per_model=1,
        )
        with inject_faults(self._slow_plan(calls=1, latency_s=0.3)):
            with server:
                admitted = server.submit(row)
                with pytest.raises(ServerOverloadedError, match="in flight"):
                    server.submit(row)
                assert np.isfinite(float(admitted.result(timeout=5)))
                # The slot frees once the request resolves.
                assert np.isfinite(server.predict(row, timeout=5))
        assert server.stats.shed == 1

    def test_stop_without_drain_fails_queued_requests(self):
        system, spec = _chaos_system("linear", n_tuples=64, epochs=1)
        row = np.zeros(6)
        server = self._server(
            spec, system, max_batch_size=1, max_queue_depth=8
        )
        # Every call is slow, so the backlog cannot drain before stop().
        with inject_faults(self._slow_plan(calls=8, latency_s=0.3)):
            server.start()
            server.submit(row)
            queued = [server.submit(row) for _ in range(3)]
            server.stop(drain=False)
            for future in queued:
                with pytest.raises(ServingError):
                    future.result(timeout=5)

    def test_no_scorer_threads_leak(self):
        system, spec = _chaos_system("linear", n_tuples=64, epochs=1)
        row = np.zeros(6)
        server = self._server(spec, system, max_queue_depth=4)
        for _ in range(2):  # start/stop cycles, including a restart
            with server:
                assert np.isfinite(server.predict(row, timeout=5))
        lingering = [
            t
            for t in threading.enumerate()
            if t.name == "prediction-server" and t.is_alive()
        ]
        assert lingering == []
        with pytest.raises(ConfigurationError, match="not running"):
            server.submit(row)

    def test_validation_fails_fast(self):
        system, spec = _chaos_system("linear", n_tuples=64, epochs=1)
        with pytest.raises(ConfigurationError, match="max_queue_depth"):
            self._server(spec, system, max_queue_depth=0)
        with pytest.raises(ConfigurationError, match="deadline_ms"):
            self._server(spec, system, deadline_ms=-5.0)
        with pytest.raises(ConfigurationError, match="max_concurrent_per_model"):
            self._server(spec, system, max_concurrent_per_model=0)
        server = self._server(spec, system)
        with server:
            with pytest.raises(ConfigurationError, match="deadline_ms"):
                server.submit(np.zeros(6), deadline_ms=0)


# ---------------------------------------------------------------------- #
# fault machinery across the process boundary (pickle + call offsets)
# ---------------------------------------------------------------------- #
class TestFaultMachineryPickleSafety:
    """Plans and policies are shipped to worker processes verbatim."""

    def test_fault_spec_and_plan_round_trip(self):
        import pickle

        plan = FaultPlan(
            [
                FaultSpec("cluster.segment_worker.epoch", 3, "exit"),
                FaultSpec("hw.strider.page_walk", 2),
                FaultSpec("serving.scorer.segment", 1, "latency", latency_s=0.01),
            ]
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.faults == plan.faults
        assert clone.lookup("hw.strider.page_walk", 2) == plan.faults[1]
        spec = pickle.loads(pickle.dumps(plan.faults[0]))
        assert spec == plan.faults[0]

    def test_retry_policy_round_trip(self):
        import pickle

        policy = RetryPolicy(
            max_attempts=5, backoff_s=0.25, multiplier=3.0, jitter=0.1, seed=9
        )
        clone = pickle.loads(pickle.dumps(policy))
        assert clone == policy

    def test_without_kind_drops_only_that_kind(self):
        plan = FaultPlan(
            [
                FaultSpec("cluster.segment_worker.epoch", 3, "exit"),
                FaultSpec("cluster.segment_worker.epoch", 5, "error"),
            ]
        )
        respawn_plan = plan.without_kind("exit")
        assert [f.kind for f in respawn_plan.faults] == ["error"]
        assert plan.lookup("cluster.segment_worker.epoch", 3) is not None
        assert respawn_plan.lookup("cluster.segment_worker.epoch", 3) is None

    def test_injector_offsets_preadvance_call_counters(self):
        """A respawned worker resumes the fault schedule where it died."""
        site = "cluster.segment_worker.epoch"
        plan = FaultPlan.transient((site, 3))
        with inject_faults(plan, offsets={site: 2}) as injector:
            with pytest.raises(TransientError):
                fault_point(site)  # call 1 + offset 2 == scheduled call 3
        assert [(f.site, f.call) for f in injector.fired] == [(site, 3)]
        # Without the offset the same plan needs three calls to fire.
        with inject_faults(plan) as injector:
            fault_point(site)
            fault_point(site)
            with pytest.raises(TransientError):
                fault_point(site)
        assert len(injector.fired) == 1


# ---------------------------------------------------------------------- #
# process-pool chaos: workers die mid-epoch and recover bit-identically
# ---------------------------------------------------------------------- #
@pytest.mark.chaos
class TestProcessChaosParity:
    """Killed / faulting worker processes recover to bit-identical runs."""

    def test_worker_exit_mid_epoch_recovers_bit_identically(self):
        """kind="exit" kills the worker child with os._exit mid-window; the
        parent must see the death as a TransientError, respawn the worker
        from the last good checkpoint, and finish the run bit-identical to
        the fault-free processes run."""
        system, _spec = _chaos_system("linear", epochs=4)
        baseline = system.train(
            "linear", "train", segments=2, execution="processes"
        )
        plan = FaultPlan(
            [FaultSpec("cluster.segment_worker.epoch", 3, kind="exit")]
        )
        with inject_faults(plan):
            chaotic = system.train(
                "linear", "train", segments=2, execution="processes", retry=RETRY
            )
        # The dying child cannot ship its fired-log entry (it is gone);
        # the supervision counters are where the death is recorded.
        assert chaotic.cluster.retry.faults >= 1
        assert chaotic.cluster.retry.retries >= 1
        _assert_sharded_parity(baseline, chaotic)

    def test_in_child_error_fault_retried_inside_worker(self):
        """kind="error" faults fire inside the child and are absorbed by
        the shipped retry policy without killing the process; the fired
        log entry ships back to the parent's injector."""
        system, _spec = _chaos_system("linear", epochs=4)
        baseline = system.train(
            "linear", "train", segments=2, execution="processes"
        )
        plan = FaultPlan.transient(("cluster.segment_worker.epoch", 2))
        with inject_faults(plan) as injector:
            chaotic = system.train(
                "linear", "train", segments=2, execution="processes", retry=RETRY
            )
        assert [(f.site, f.call) for f in injector.fired] == [
            ("cluster.segment_worker.epoch", 2)
        ]
        assert chaotic.cluster.retry.faults >= 1
        _assert_sharded_parity(baseline, chaotic)

    def test_exit_without_retry_is_fatal(self):
        """A dead worker without supervision propagates TransientError."""
        system, _spec = _chaos_system("linear", epochs=2)
        plan = FaultPlan(
            [FaultSpec("cluster.segment_worker.epoch", 1, kind="exit")]
        )
        with inject_faults(plan):
            with pytest.raises(TransientError, match="died"):
                system.train("linear", "train", segments=2, execution="processes")


# ---------------------------------------------------------------------- #
# fan-out lifecycle: repeated failure leaks no store, child or thread
# ---------------------------------------------------------------------- #
@pytest.mark.chaos
class TestFanoutLifecycle:
    """Whatever way a fanned-out run ends, its resources end with it."""

    #: a segment is *killed* in its worker process (``kind="exit"`` fires in
    #: the child), *faulted* on a thread (transient sites).
    FAULTS = {
        ("train", "processes"): [
            FaultSpec("cluster.segment_worker.epoch", 1, kind="exit")
        ],
        ("score", "processes"): [FaultSpec("hw.strider.page_walk", 1, kind="exit")],
        ("train", "threads"): [FaultSpec("hw.strider.page_walk", 1)],
        ("score", "threads"): [FaultSpec("hw.strider.page_walk", 1)],
    }

    @pytest.mark.parametrize("retry", [None, RETRY], ids=["fail_fast", "retry"])
    @pytest.mark.parametrize("execution", ["threads", "processes"])
    @pytest.mark.parametrize("kind", ["train", "score"])
    def test_repeated_failure_releases_everything(self, kind, execution, retry):
        import multiprocessing

        from repro.runtime import live_store_names

        system, spec = _chaos_system("linear", n_tuples=2048)
        if kind == "train":
            run = lambda **kw: system.train(  # noqa: E731
                "linear", "train", segments=4, execution=execution, **kw
            )
        else:
            # stream=False: the walk fault fails the attempt itself (a
            # streaming producer would absorb it without a segment retry).
            run = lambda **kw: system.score_table(  # noqa: E731
                "linear",
                "train",
                models=spec.initial_models,
                segments=4,
                execution=execution,
                stream=False,
                **kw,
            )
        baseline = run()
        for _ in range(2):
            with inject_faults(FaultPlan(self.FAULTS[kind, execution])):
                if retry is None:
                    with pytest.raises(TransientError):
                        run()
                    continue
                recovered = run(retry=retry)
            stats = recovered.cluster.retry if kind == "train" else recovered.retry
            assert stats.faults >= 1
            if kind == "train":
                _assert_sharded_parity(baseline, recovered)
            else:
                np.testing.assert_array_equal(
                    baseline.predictions, recovered.predictions
                )
        assert live_store_names() == []
        assert multiprocessing.active_children() == []
        assert _lingering_threads() == []
