"""Telemetry layer tests: metric primitives, spans, arming, and parity.

The parity class is the load-bearing one: arming a telemetry session must
leave models, predictions and every schedule-derived counter bit-identical
to a telemetry-off run — spans and histograms are wall-clock observers,
never inputs to the computation.
"""

import json

import numpy as np
import pytest

from repro.algorithms import Hyperparameters, get_algorithm
from repro.core.dana import DAnA
from repro.data.synthetic import generate_for_algorithm
from repro.exceptions import ConfigurationError
from repro.obs import (
    DEFAULT_SECONDS_BUCKETS,
    HISTOGRAM_SITES,
    SPAN_SITES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanTracer,
    StatementTrace,
    Telemetry,
    enable_telemetry,
    telemetry,
)
from repro.rdbms import Database
from repro.serving.microbatch import LATENCY_BUCKETS_S

LRMF_TOPOLOGY = (24, 18, 4)
ALGORITHMS = ("linear", "logistic", "svm", "lrmf")


def _system(key, n_tuples=192, epochs=2, seed=11):
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
    system = DAnA(database)
    system.register_udf(key, spec, epochs=epochs)
    return system


class TestCounter:
    def test_monotonic_add(self):
        counter = Counter("requests")
        counter.add()
        counter.add(2.5)
        assert counter.value == 3.5
        assert counter.to_dict() == {"type": "counter", "value": 3.5}

    def test_negative_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            Counter("requests").add(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge("queue_depth")
        assert gauge.value == 0.0
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3.0
        assert gauge.to_dict() == {"type": "gauge", "value": 3.0}


class TestHistogram:
    def test_bucket_counts(self):
        hist = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.bucket_counts == [1, 1, 1, 1]
        assert hist.count == 4
        assert hist.min == 0.05
        assert hist.max == 50.0
        assert hist.mean == pytest.approx((0.05 + 0.5 + 5.0 + 50.0) / 4)

    def test_buckets_must_increase(self):
        with pytest.raises(ConfigurationError):
            Histogram("bad", buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("bad", buckets=())

    def test_observe_many_matches_observe_loop(self):
        values = list(np.random.default_rng(0).uniform(0.0, 3.0, size=500))
        one_by_one = Histogram("a", buckets=DEFAULT_SECONDS_BUCKETS, window=64)
        bulk = Histogram("b", buckets=DEFAULT_SECONDS_BUCKETS, window=64)
        for value in values:
            one_by_one.observe(value)
        bulk.observe_many(values)
        assert bulk.bucket_counts == one_by_one.bucket_counts
        assert bulk.count == one_by_one.count
        assert bulk.sum == pytest.approx(one_by_one.sum)
        assert bulk.min == one_by_one.min
        assert bulk.max == one_by_one.max
        assert list(bulk.samples) == pytest.approx(list(one_by_one.samples))

    @pytest.mark.parametrize("buckets", [DEFAULT_SECONDS_BUCKETS, LATENCY_BUCKETS_S])
    def test_one_value_observe_many_matches_the_numpy_path(self, buckets):
        """``observe_many([v])`` (bisect) books exactly what ``[v, v]`` (NumPy) does.

        Two one-value calls against one two-value call: ``v + v`` is exact,
        so every field of ``to_dict()`` and the sample window must agree bit
        for bit, on bucket edges and their float neighbours included.
        """
        edges = np.asarray(buckets)
        values = np.concatenate(
            [
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                [0.0, -1.0, 1e-9, 1e6, np.inf, -np.inf],
            ]
        )
        for value in values.tolist():
            singles = Histogram("bisect", buckets=buckets, window=4)
            pair = Histogram("numpy", buckets=buckets, window=4)
            singles.observe_many([value])
            singles.observe_many((value,))
            pair.observe_many([value, value])
            assert singles.to_dict() == pair.to_dict(), value
            assert list(singles.samples) == list(pair.samples)

    def test_windowed_percentile_is_exact(self):
        hist = Histogram("lat", buckets=(1e9,), window=1000)
        values = np.random.default_rng(1).normal(loc=5.0, scale=2.0, size=999)
        hist.observe_many(values)
        assert hist.percentile(50) == pytest.approx(
            float(np.percentile(values, 50))
        )
        assert hist.percentile(99) == pytest.approx(
            float(np.percentile(values, 99))
        )

    def test_bucket_percentile_estimate(self):
        hist = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        hist.observe_many([0.5] * 50 + [3.0] * 50)
        # the p50 rank falls on the boundary of the first bucket
        assert 0.0 <= hist.percentile(50) <= 1.0
        assert 2.0 <= hist.percentile(99) <= 4.0

    def test_empty_percentile(self):
        assert Histogram("lat").percentile(99) == 0.0


class TestMetricsRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.names() == ["a", "h"]

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ConfigurationError):
            registry.gauge("a")

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("c").add(2)
        registry.histogram("h").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["c"]["type"] == "counter"
        assert snapshot["h"]["type"] == "histogram"
        json.dumps(snapshot)  # must be JSON-serializable as-is


class TestSpanTracer:
    def test_nesting_depth_and_parent(self):
        tracer = SpanTracer()
        outer = tracer.start("runtime.epoch", epoch=0)
        inner = tracer.start("cluster.segment.train", segment=1)
        tracer.finish(inner)
        tracer.finish(outer, executed=True)
        spans = tracer.to_list()
        assert [span["name"] for span in spans] == [
            "cluster.segment.train",
            "runtime.epoch",
        ]
        assert spans[0]["depth"] == 1
        assert spans[0]["parent"] == "runtime.epoch"
        assert spans[1]["depth"] == 0
        assert spans[1]["parent"] is None
        assert spans[1]["attrs"] == {"epoch": 0, "executed": True}
        assert all(span["duration_s"] >= 0.0 for span in spans)

    def test_rollup_and_mark(self):
        tracer = SpanTracer()
        for _ in range(3):
            tracer.finish(tracer.start("hw.decode"))
        mark = tracer.mark()
        tracer.finish(tracer.start("hw.decode"))
        assert tracer.rollup()["hw.decode"]["count"] == 4
        assert tracer.rollup(start=mark)["hw.decode"]["count"] == 1
        assert len(tracer) == 4

    def test_to_json(self):
        tracer = SpanTracer()
        tracer.finish(tracer.start("sql.execute", statement="Select"))
        parsed = json.loads(tracer.to_json())
        assert parsed[0]["name"] == "sql.execute"


class TestArming:
    def test_disarmed_by_default(self):
        assert telemetry() is None

    def test_enable_scopes_the_session(self):
        session = Telemetry()
        with enable_telemetry(session) as armed:
            assert armed is session
            assert telemetry() is session
        assert telemetry() is None

    def test_nesting_composes(self):
        outer_session = Telemetry()
        inner_session = Telemetry()
        with enable_telemetry(outer_session):
            span = outer_session.span("sql.execute")
            outer_session.finish(span)
            with enable_telemetry(inner_session):
                assert telemetry() is inner_session
                span = inner_session.span("runtime.epoch")
                inner_session.finish(span)
            # the outer session is re-armed and has absorbed the inner copy
            assert telemetry() is outer_session
            outer_rollup = outer_session.tracer.rollup()
            assert outer_rollup["sql.execute"]["count"] == 1
            assert outer_rollup["runtime.epoch"]["count"] == 1
            # the inner session kept only its own private spans
            inner_rollup = inner_session.tracer.rollup()
            assert set(inner_rollup) == {"runtime.epoch"}
        assert telemetry() is None

    def test_statement_trace_composes_with_outer_session(self):
        outer_session = Telemetry()
        trace = StatementTrace()
        with enable_telemetry(outer_session):
            with trace:
                span = telemetry().span("sql.execute")
                telemetry().finish(span)
            assert telemetry() is outer_session
        assert telemetry() is None
        assert trace.rollup()["sql.execute"]["count"] == 1
        assert outer_session.tracer.rollup()["sql.execute"]["count"] == 1
        assert trace.wall_seconds > 0.0
        payload = trace.to_payload()
        assert set(payload) == {"wall_seconds", "rollup", "spans", "metrics"}

    def test_site_tables_are_disjoint(self):
        assert not set(SPAN_SITES) & set(HISTOGRAM_SITES)


@pytest.mark.parametrize("key", ALGORITHMS)
@pytest.mark.parametrize("segments", [1, 2, 4])
class TestTelemetryParity:
    """Telemetry-on runs are bit-identical to telemetry-off runs."""

    def test_train_and_score_parity(self, key, segments):
        baseline_system = _system(key)
        baseline = baseline_system.train(key, "train", segments=segments)
        baseline_scores = baseline_system.score_table(
            key, "train", models=baseline.models, segments=segments
        )

        armed_system = _system(key)
        with enable_telemetry() as session:
            armed = armed_system.train(key, "train", segments=segments)
            armed_scores = armed_system.score_table(
                key, "train", models=armed.models, segments=segments
            )

        assert set(baseline.models) == set(armed.models)
        for name in baseline.models:
            np.testing.assert_array_equal(baseline.models[name], armed.models[name])
        assert baseline.engine_stats.__dict__ == armed.engine_stats.__dict__
        assert baseline.access_stats.__dict__ == armed.access_stats.__dict__
        np.testing.assert_array_equal(
            baseline_scores.predictions, armed_scores.predictions
        )
        assert baseline_scores.inference_stats == armed_scores.inference_stats
        assert (
            baseline_scores.critical_path_cycles == armed_scores.critical_path_cycles
        )

        # the observers actually observed: spans landed at known sites
        rollup = session.tracer.rollup()
        assert rollup, "an armed train/score run recorded no spans"
        assert set(rollup) <= set(SPAN_SITES)
        assert rollup["serving.scorer.segment"]["count"] == segments


class TestInstrumentationSites:
    def test_lockstep_train_spans(self):
        # lockstep trains all segments on one segment-axis tape, so the
        # per-segment train span does not apply; the epoch and merge
        # spans carry the trace.
        system = _system("linear")
        with enable_telemetry() as session:
            system.train("linear", "train", segments=2)
        rollup = session.tracer.rollup()
        assert rollup["cluster.segment.merge"]["count"] >= 1
        assert rollup["runtime.epoch"]["count"] >= 2
        assert rollup["hw.strider.page_walk"]["count"] >= 1
        assert rollup["hw.decode"]["count"] >= 1

    def test_threads_train_spans(self):
        system = _system("linear")
        with enable_telemetry() as session:
            system.train("linear", "train", segments=2, execution="threads")
        rollup = session.tracer.rollup()
        assert rollup["cluster.segment.train"]["count"] >= 2
        assert rollup["cluster.segment.merge"]["count"] >= 1
        assert rollup["runtime.epoch"]["count"] >= 2

    def test_failed_attempt_closes_its_span_and_retry_is_top_level(self):
        """A faulted segment attempt records its own span (``error=`` set)
        and the retried attempt opens at depth 0, not nested under it."""
        from repro.exceptions import TransientError
        from repro.reliability import FaultPlan, RetryPolicy, inject_faults

        fault = FaultPlan.transient(("hw.strider.page_walk", 1))
        system = _system("linear")
        models = system.train("linear", "train").models
        with enable_telemetry() as session, inject_faults(fault):
            system.score_table(
                "linear",
                "train",
                models=models,
                stream=False,
                retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
            )
        spans = [
            (s["depth"], s["parent"], s["attrs"].get("error"))
            for s in session.tracer.to_list()
            if s["name"] == "serving.scorer.segment"
        ]
        assert spans == [(0, None, "TransientError"), (0, None, None)]
        # Training: the producer faults on its second page, i.e. after the
        # run picked its active segments and inside the first window's span.
        # (81 pages: past one wave of 64 page buffers, so a producer runs)
        system = _system("linear", n_tuples=16384)
        fault = FaultPlan.transient(("runtime.batch_source.producer", 2))
        with enable_telemetry() as session, inject_faults(fault):
            with pytest.raises(TransientError):
                system.train("linear", "train", segments=1, execution="threads")
        spans = [
            s["attrs"].get("error")
            for s in session.tracer.to_list()
            if s["name"] == "cluster.segment.train"
        ]
        assert spans == ["TransientError"]

    def test_sql_execute_span(self):
        system = _system("linear")
        with enable_telemetry() as session:
            result = system.execute("SELECT COUNT(*) FROM train")
        spans = [
            span
            for span in session.tracer.to_list()
            if span["name"] == "sql.execute"
        ]
        assert len(spans) == 1
        assert spans[0]["attrs"]["rows"] == len(result.rows)
