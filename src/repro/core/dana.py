"""The DAnA system facade: UDF registration, compilation and query execution.

This is the top of the stack drawn in the paper's Figure 2.  A data
scientist expresses the learning algorithm with the Python-embedded DSL,
registers it as a UDF, and invokes it from SQL::

    from repro import dana
    from repro.core import DAnA
    from repro.rdbms import Database

    db = Database()
    system = DAnA(db)
    system.register_algorithm_udf("linearR", "linear", n_features=10)
    result = db.execute("SELECT * FROM dana.linearR('training_data_table');")

Behind the scenes the facade runs the full DAnA workflow: translate the UDF
into an hDFG, let the hardware generator pick the accelerator design for
the target FPGA and page layout, compile the Strider program and the
execution-engine schedule, store everything in the RDBMS catalog, and —
when the query runs — stream the table's buffer-pool pages through the
simulated accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.algorithms import Hyperparameters, get_algorithm
from repro.algorithms.base import AlgorithmSpec
from repro.cluster import ShardedDAnA, ShardedRunResult
from repro.compiler import ExecutionBinary
from repro.core.plan import ScorePlan, TrainPlan, resolve_batching
from repro.core.sql_runtime import SqlRuntime
from repro.exceptions import ConfigurationError
from repro.hw import DAnAAccelerator, DEFAULT_FPGA, FPGASpec
from repro.hw.accelerator import AcceleratorRunResult
from repro.obs.recorder import RunRecorder
from repro.obs.telemetry import telemetry
from repro.rdbms import AcceleratorEntry, Database, ModelEntry
from repro.rdbms.query import QueryResult
from repro.reliability import RetryPolicy
from repro.serving import (
    InferencePlan,
    ModelRegistry,
    PredictionServer,
    ScanScorer,
    ScoreResult,
)


@dataclass
class RegisteredUDF:
    """A UDF registered with DAnA, compiled lazily per target table."""

    name: str
    spec: AlgorithmSpec
    epochs: int | None = None
    binaries: dict[str, ExecutionBinary] = field(default_factory=dict)
    accelerators: dict[str, DAnAAccelerator] = field(default_factory=dict)
    #: forward-only serving plans, compiled lazily on first predict/score,
    #: keyed by table name ("" = the table-less point-serving design).
    inference_plans: dict[str, InferencePlan] = field(default_factory=dict)


@dataclass
class RefreshResult:
    """Outcome of one :meth:`DAnA.refresh_model` call."""

    #: registry entry now serving — the freshly-saved version, or the
    #: unchanged input entry when the refresh was a no-op.
    entry: ModelEntry
    #: version the refresh started from.
    previous_version: int
    #: True when new pages were trained and a new version was saved.
    refreshed: bool
    #: heap table the refresh scanned.
    table_name: str
    #: the model's LSN watermark before the refresh (scan lower bound).
    watermark: int
    #: WAL LSN the refresh scan was pinned to; becomes the new version's
    #: watermark when ``refreshed``.
    snapshot_lsn: int
    #: heap pages trained (pages stamped past the watermark as of
    #: ``snapshot_lsn``).
    pages_trained: int
    #: tuples the warm-start run consumed — page-granular, so a restamped
    #: tail page may contribute a few pre-watermark rows.
    tuples_trained: int
    #: the warm-start training run (``None`` on a no-op).
    run: AcceleratorRunResult | None = None


class DAnA:
    """In-Database Acceleration of Advanced Analytics."""

    def __init__(
        self,
        database: Database,
        fpga: FPGASpec = DEFAULT_FPGA,
        use_striders: bool = True,
        record_runs: bool = False,
    ) -> None:
        """Bind a DAnA system to one database instance.

        Args:
            database: the host RDBMS; the system attaches itself as the
                database's serving runtime (a
                :class:`~repro.core.sql_runtime.SqlRuntime`), so SQL
                prediction and ``CREATE MODEL`` statements route here.
            fpga: the target FPGA specification for generated accelerators.
            use_striders: when False, tuples are extracted by the CPU-side
                page decode instead of the simulated Strider walk.
            record_runs: when True, every :meth:`train` / :meth:`score_table`
                invocation is persisted into the ``repro_runs`` /
                ``repro_run_metrics`` heap tables by a
                :class:`~repro.obs.recorder.RunRecorder` (queryable via SQL
                and the ``repro`` CLI).  Off by default: recording writes
                to the database.
        """
        self.database = database
        self.fpga = fpga
        self.use_striders = use_striders
        self.registry = ModelRegistry(database)
        self.run_recorder: RunRecorder | None = (
            RunRecorder(database) if record_runs else None
        )
        self._udfs: dict[str, RegisteredUDF] = {}
        self.sql = SqlRuntime(self)
        database.attach_serving_runtime(self.sql)

    def enable_run_recording(self) -> RunRecorder:
        """Turn on run recording for this system; returns the recorder."""
        if self.run_recorder is None:
            self.run_recorder = RunRecorder(self.database)
        return self.run_recorder

    # ------------------------------------------------------------------ #
    # UDF registration
    # ------------------------------------------------------------------ #
    def register_udf(
        self, udf_name: str, spec: AlgorithmSpec, epochs: int | None = None
    ) -> RegisteredUDF:
        """Register a hand-written DSL program as an accelerated UDF."""
        if udf_name in self._udfs:
            raise ConfigurationError(f"UDF {udf_name!r} is already registered")
        registered = RegisteredUDF(name=udf_name, spec=spec, epochs=epochs)
        self._udfs[udf_name] = registered

        def handler(db: Database, table_name: str) -> QueryResult:
            return self.sql.udf_call(udf_name, table_name)

        self.database.register_udf(udf_name, handler)
        return registered

    def register_algorithm_udf(
        self,
        udf_name: str,
        algorithm_key: str,
        n_features: int,
        hyper: Hyperparameters | None = None,
        model_topology: tuple[int, ...] = (),
        epochs: int | None = None,
    ) -> RegisteredUDF:
        """Register one of the built-in algorithms as an accelerated UDF."""
        algorithm = get_algorithm(algorithm_key)
        spec = algorithm.build_spec(n_features, hyper or Hyperparameters(), model_topology)
        return self.register_udf(udf_name, spec, epochs=epochs)

    def registered_udfs(self) -> list[str]:
        """Names of all registered UDFs, sorted."""
        return sorted(self._udfs)

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #
    def compile_udf(self, udf_name: str, table_name: str) -> ExecutionBinary:
        """Compile (or fetch the cached) accelerator for a UDF/table pair."""
        registered = self._registered(udf_name)
        if table_name in registered.binaries:
            return registered.binaries[table_name]
        spec = registered.spec
        table_entry = self.database.catalog.table(table_name)
        binary = ExecutionBinary.compile(
            udf_name,
            spec,
            table_entry.layout,
            self.fpga,
            n_tuples=max(1, table_entry.tuple_count),
            metadata={"table": table_name},
        )
        registered.binaries[table_name] = binary
        registered.accelerators[table_name] = DAnAAccelerator(
            binary=binary, schema=spec.schema, fpga=self.fpga
        )
        # Store the accelerator metadata in the RDBMS catalog (Figure 2).
        self.database.register_accelerator(
            AcceleratorEntry(
                udf_name=udf_name,
                algorithm=spec.name,
                design=binary.design,
                strider_program=binary.strider.program,
                execution_schedule=binary.thread_schedule.program,
                metadata=binary.describe(),
            )
        )
        return binary

    def accelerator_for(self, udf_name: str, table_name: str) -> DAnAAccelerator:
        """The compiled accelerator instance for a UDF/table pair."""
        self.compile_udf(udf_name, table_name)
        return self._registered(udf_name).accelerators[table_name]

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(self, sql: str) -> QueryResult:
        """Execute a SQL statement (UDF calls run on the accelerator)."""
        return self.database.execute(sql)

    def train(
        self,
        udf_name: str,
        table_name: str,
        epochs: int | None = None,
        segments: int | None = None,
        execution: str = "auto",
        shuffle: bool = False,
        seed: int = 0,
        staleness: int = 1,
        stream: bool = True,
        retry: RetryPolicy | None = None,
    ) -> AcceleratorRunResult | ShardedRunResult:
        """Train a registered UDF over a table without going through SQL.

        ``segments=None`` (the default) runs the classic single-accelerator
        path.  ``segments=N`` deploys one DAnA accelerator per segment
        (:mod:`repro.cluster`): heap pages are dealt round-robin,
        per-segment models are merged the way the graph implies (averaged,
        or summed deltas for row-gathering graphs such as LRMF), and
        ``execution`` picks the lock-step vectorized or thread-pool
        strategy.  A fixed ``seed`` makes sharded runs — including
        ``shuffle=True`` epoch orders — bit-reproducible.

        The epoch runtime (:mod:`repro.runtime`) is pipelined: with
        ``stream=True`` (default) the first epoch pulls the extraction one
        wave of pages at a time, and ``staleness`` sets the cross-segment merge
        cadence — 1 (default) merges behind a barrier every epoch, the
        paper's semantics; ``k`` merges every ``k`` epochs and after the
        last, so segments run ahead on local models between merges.

        A ``retry`` policy (:class:`~repro.reliability.RetryPolicy`) makes
        the run fault-tolerant: transient faults in the Strider page walk,
        the streamed extraction or a segment's training window are retried
        from a checkpoint with bounded backoff, and the recovered run's
        models and counters are **bit-identical** to a fault-free run.
        Training rejects ``degradation="redistribute"`` (reassigning a
        failed segment's pages would change the merge schedule).
        """
        registered = self._registered(udf_name)
        plan = TrainPlan.resolve(
            registered,
            table_name,
            self.compile_udf(udf_name, table_name),
            use_striders=self.use_striders,
            epochs=epochs,
            segments=segments,
            execution=execution,
            shuffle=shuffle,
            seed=seed,
            staleness=staleness,
            stream=stream,
            retry=retry,
        )
        return self._train(plan)

    # ------------------------------------------------------------------ #
    # prediction serving
    # ------------------------------------------------------------------ #
    def save_model(
        self,
        model_name: str,
        udf_name: str,
        models: Mapping[str, np.ndarray],
        metadata: dict | None = None,
        watermark: int | None = None,
    ) -> ModelEntry:
        """Persist a trained model into heap tables through the catalog.

        ``models`` is the model mapping of a finished training run (e.g.
        ``run.models``); its parameter names and shapes must match the
        registered UDF's spec.  Each save creates a new version; the
        round trip through :meth:`load_model` is bit-identical.

        ``watermark`` records the WAL LSN the training scan was pinned to
        (``run.snapshot_lsn``) as ``metadata["lsn_watermark"]`` — the point
        :meth:`refresh_model` later resumes from.  A model saved without a
        watermark refreshes from LSN 0 (every logged write is "new").
        """
        spec = self._registered(udf_name).spec
        self._check_model_shapes(spec, models, context=f"save_model({model_name!r})")
        meta = {"udf": udf_name, "model_topology": list(spec.model_topology)}
        if watermark is not None:
            meta["lsn_watermark"] = int(watermark)
        meta.update(metadata or {})
        return self.registry.save(
            model_name, models, algorithm=spec.name, metadata=meta
        )

    def load_model(
        self, model_name: str, version: int | None = None
    ) -> dict[str, np.ndarray]:
        """Load a saved model (latest version by default) from its heap table."""
        models, _entry = self.registry.load(model_name, version)
        return models

    def refresh_model(
        self,
        model_name: str,
        version: int | None = None,
        table_name: str | None = None,
        epochs: int | None = None,
        stream: bool = True,
        retry: RetryPolicy | None = None,
        server: PredictionServer | None = None,
    ) -> RefreshResult:
        """Incrementally refresh a saved model from rows logged since it trained.

        Warm-starts the UDF's accelerator from the saved parameters and
        trains **only** the heap pages stamped past the model's
        ``lsn_watermark`` metadata, pinned to the WAL LSN captured when
        the refresh starts; the result is saved as a new version whose
        watermark is that LSN.  Refresh cost therefore scales with the
        rows written since the model last trained, not with the table
        size.  The scan set is page-granular: the tail page a
        watermark-era insert partially filled re-appears once later
        inserts restamp it, so a refresh may re-see a few pre-watermark
        rows (see :meth:`~repro.rdbms.HeapFile.pages_newer_than`).

        With no pages past the watermark the call is a **no-op**: nothing
        trains, no version is saved, and the returned
        :class:`RefreshResult` carries the unchanged entry.

        ``table_name`` defaults to the table recorded in the model's
        ``trained_on`` metadata (``CREATE MODEL`` and refresh itself
        record it); pass it explicitly for models saved through
        :meth:`save_model` without one.  ``server`` hot-swaps the new
        version into a running :class:`~repro.serving.PredictionServer`
        via ``reload()`` as soon as it is saved — in-flight batches drain
        on the old version, later ones score with the refreshed model.
        """
        models, entry = self.registry.load(model_name, version)
        registered = self._udf_for_model(entry)
        udf_name = registered.name
        resolved_table = table_name or entry.metadata.get("trained_on", "")
        if not resolved_table:
            raise ConfigurationError(
                f"saved model {model_name!r} v{entry.version} records no "
                "trained_on table; pass table_name= explicitly"
            )
        if not self.database.catalog.has_table(resolved_table):
            raise ConfigurationError(f"table {resolved_table!r} does not exist")
        watermark = int(entry.metadata.get("lsn_watermark", 0))
        heapfile = self.database.table(resolved_table)
        as_of = self.database.wal.current_lsn
        new_pages = heapfile.pages_newer_than(watermark, as_of)
        obs = telemetry()
        span = (
            obs.span(
                "core.refresh_model",
                model=model_name,
                table=resolved_table,
                watermark=watermark,
                pages=len(new_pages),
            )
            if obs is not None
            else None
        )
        if not new_pages:
            if span is not None:
                obs.finish(span, refreshed=False)
            return RefreshResult(
                entry=entry,
                previous_version=entry.version,
                refreshed=False,
                table_name=resolved_table,
                watermark=watermark,
                snapshot_lsn=as_of,
                pages_trained=0,
                tuples_trained=0,
            )
        recorder = self.run_recorder
        watch = recorder.begin() if recorder is not None else None
        try:
            binary = self.compile_udf(udf_name, resolved_table)
            plan = TrainPlan.resolve(
                registered,
                resolved_table,
                binary,
                use_striders=self.use_striders,
                epochs=epochs,
                stream=stream,
                retry=retry,
            )
            # The UDF's cached accelerator: its counters accumulate, and the
            # run result carries this refresh's own share of them (the bench
            # gate checks it scales with the delta, not the table).
            run = self._train_single(
                plan,
                initial_models=models,
                page_nos=new_pages,
                as_of=as_of,
            )
            new_entry = self.save_model(
                model_name,
                udf_name,
                run.models,
                metadata={
                    "trained_on": resolved_table,
                    "refreshed_from": entry.version,
                    "refresh_pages": len(new_pages),
                },
                watermark=as_of,
            )
        except BaseException:
            if span is not None:
                obs.finish(span, error=True)
            raise
        if span is not None:
            obs.finish(span, refreshed=True, version=new_entry.version)
        if server is not None:
            server.reload(version=new_entry.version)
        if recorder is not None:
            recorder.record_train(
                plan,
                run,
                watch,
                kind="refresh",
                label=model_name,
                extra_config={
                    "from_version": entry.version,
                    "watermark": watermark,
                    "snapshot_lsn": as_of,
                    "pages": len(new_pages),
                },
                model_name=model_name,
                model_version=new_entry.version,
            )
        return RefreshResult(
            entry=new_entry,
            previous_version=entry.version,
            refreshed=True,
            table_name=resolved_table,
            watermark=watermark,
            snapshot_lsn=as_of,
            pages_trained=len(new_pages),
            tuples_trained=run.tuples_extracted,
            run=run,
        )

    def predict(
        self,
        udf_name: str,
        rows: np.ndarray,
        models: Mapping[str, np.ndarray] | None = None,
        model_name: str | None = None,
        version: int | None = None,
        batch_size: int | None = None,
    ) -> np.ndarray:
        """Score in-memory feature rows with a registered UDF's forward pass.

        Exactly one of ``models`` (an in-memory model mapping) or
        ``model_name`` (a saved model in the registry) must be supplied.
        ``rows`` is a ``(B, columns)`` block — a trailing label column is
        ignored — or a single 1-D feature row, which returns a scalar.
        """
        batch_size = resolve_batching(batch_size)
        registered = self._registered(udf_name)
        resolved, _entry = self._resolve_models(
            registered.spec, models, model_name, version
        )
        plan = self._inference_plan(registered)
        rows = np.asarray(rows, dtype=np.float64)
        single = rows.ndim == 1
        if single:
            rows = rows[None, :]
        predictions = plan.new_engine().score(rows, resolved, batch_size=batch_size)
        return predictions[0] if single else predictions

    def score_table(
        self,
        udf_name: str,
        table_name: str,
        models: Mapping[str, np.ndarray] | None = None,
        model_name: str | None = None,
        version: int | None = None,
        segments: int | None = None,
        batch_size: int | None = None,
        stream: bool = True,
        retry: RetryPolicy | None = None,
        execution: str = "threads",
    ) -> ScoreResult:
        """Score every tuple of a heap table via the bulk Strider page walk.

        ``segments=N`` partitions the table's heap pages with the training
        cluster's partitioner and scans-and-scores one accelerator per
        segment concurrently; predictions come back in storage order
        regardless.  ``batch_size`` is the micro-batch the forward cycles
        are booked at.  ``stream=True`` (default) has each segment's
        forward tape pull its Strider page walk one wave at a time through
        a :class:`~repro.runtime.BatchSource`; ``stream=False``
        materialises the extraction first — the streaming oracle,
        bit-identical predictions and counters.

        A ``retry`` policy retries each segment's scan-and-score after
        transient faults (fresh engine per attempt, so the successful
        attempt is bit-identical to a fault-free one);
        ``degradation="redistribute"`` additionally reassigns a
        permanently-failed segment's pages across the surviving segments —
        predictions stay bit-identical because reassembly is by page
        number, not by segment.

        ``execution="processes"`` scores each segment in a spawned worker
        process over zero-copy shared-memory page views instead of a
        thread — bit-identical predictions and counters, real-core overlap
        (see :mod:`repro.cluster.fanout`).
        """
        plan = ScorePlan.resolve(
            self._registered(udf_name),
            table_name,
            use_striders=self.use_striders,
            segments=segments,
            batch_size=batch_size,
            stream=stream,
            retry=retry,
            execution=execution,
        )
        return self._score(plan, models, model_name, version)

    def serve(
        self,
        udf_name: str,
        models: Mapping[str, np.ndarray] | None = None,
        model_name: str | None = None,
        version: int | None = None,
        max_batch_size: int = 64,
        max_queue_depth: int | None = None,
        deadline_ms: float | None = None,
        max_concurrent_per_model: int | None = None,
    ) -> PredictionServer:
        """A micro-batching prediction server bound to one model.

        The returned server is not started; use it as a context manager
        (or call ``start()``/``stop()``) and submit point requests with
        ``submit``/``predict``.  When built from a saved model
        (``model_name=``), the server supports registry-versioned
        **hot-swap**: ``server.reload(version=...)`` re-resolves the model
        from the registry and swaps it in between micro-batches — in-flight
        batches drain on the old model, later batches score with the new
        version, bit-identically to a cold restart on that version.

        ``max_queue_depth`` switches the server into admission-control
        mode: a submit against a full queue is **shed** with
        :class:`~repro.exceptions.ServerOverloadedError` instead of
        blocking.  ``deadline_ms`` fails queued requests that would be
        scored too late with
        :class:`~repro.exceptions.DeadlineExceededError`, and
        ``max_concurrent_per_model`` bounds in-flight requests per served
        model version (see :class:`~repro.serving.PredictionServer`).
        """
        registered = self._registered(udf_name)
        resolved, entry = self._resolve_models(
            registered.spec, models, model_name, version
        )
        plan = self._inference_plan(registered)
        loader = None
        if model_name is not None:
            def loader(requested_version: int | None):
                return self._resolve_models(
                    registered.spec, None, model_name, requested_version
                )
        return PredictionServer(
            plan.new_engine(),
            resolved,
            max_batch_size=max_batch_size,
            model_loader=loader,
            model_version=entry.version if entry is not None else None,
            max_queue_depth=max_queue_depth,
            deadline_ms=deadline_ms,
            max_concurrent_per_model=max_concurrent_per_model,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _registered(self, udf_name: str) -> RegisteredUDF:
        try:
            return self._udfs[udf_name]
        except KeyError:
            raise ConfigurationError(f"UDF {udf_name!r} is not registered") from None

    def _udf_for_model(self, entry: ModelEntry) -> RegisteredUDF:
        """The registered UDF a saved model was trained by."""
        udf_name = entry.metadata.get("udf", "")
        if udf_name not in self._udfs:
            raise ConfigurationError(
                f"saved model {entry.name!r} v{entry.version} was trained by "
                f"UDF {udf_name!r}, which is not registered with this DAnA "
                f"system; registered UDFs: {self.registered_udfs()}"
            )
        return self._udfs[udf_name]

    def _train(self, plan: TrainPlan) -> AcceleratorRunResult | ShardedRunResult:
        """Execute (and, when recording, record) one resolved training plan."""
        recorder = self.run_recorder
        watch = recorder.begin() if recorder is not None else None
        if plan.segments is None:
            result = self._train_single(plan)
        else:
            # One accelerator per segment, trained with epoch merges.
            result = ShardedDAnA(
                self.database,
                self.compile_udf(plan.udf, plan.table),
                self._udfs[plan.udf].spec,
                plan,
                self.fpga,
            ).train()
        if recorder is not None:
            recorder.record_train(plan, result, watch)
        return result

    def _train_single(
        self,
        plan: TrainPlan,
        initial_models: Mapping[str, np.ndarray] | None = None,
        page_nos: list[int] | None = None,
        as_of: int | None = None,
    ) -> AcceleratorRunResult:
        """The single-accelerator routine behind train, UDF calls and refresh.

        Trains the UDF's cached accelerator — by default from the spec's
        initial models over every page as of now; :meth:`refresh_model`
        passes the saved parameters, the pages past its watermark and the
        LSN it computed them at.
        """
        spec = self._udfs[plan.udf].spec
        accelerator = self.accelerator_for(plan.udf, plan.table)
        if as_of is None:
            # Pin the scan to the heap as of now: concurrent inserts land in
            # the WAL but stay invisible to this run, and the run's LSN
            # becomes the saved model's refresh watermark.
            as_of = self.database.wal.current_lsn
        page_images = self.database.table(plan.table).images_as_of(
            self.database.buffer_pool, page_nos, as_of
        )
        result = accelerator.train(
            accelerator.access_engine.open(page_images, **plan.extraction()),
            initial_models=(
                spec.initial_models if initial_models is None else initial_models
            ),
            bind_tuple=spec.bind_tuple,
            epochs=plan.epochs,
            bind_batch=spec.bind_batch,
            shuffle=plan.shuffle,
            rng=np.random.default_rng(plan.seed) if plan.shuffle else None,
        )
        result.snapshot_lsn = as_of
        return result

    def _score(
        self,
        plan: ScorePlan,
        models: Mapping[str, np.ndarray] | None = None,
        model_name: str | None = None,
        version: int | None = None,
    ) -> ScoreResult:
        """Execute (and, when recording, record) one resolved scoring plan."""
        registered = self._udfs[plan.udf]
        resolved, entry = self._resolve_models(
            registered.spec, models, model_name, version
        )
        scorer = ScanScorer(
            self.database,
            self.compile_udf(plan.udf, plan.table),
            registered.spec,
            self._inference_plan(registered, plan.table),
            plan,
            self.fpga,
        )
        recorder = self.run_recorder
        watch = recorder.begin() if recorder is not None else None
        result = scorer.score_table(resolved)
        if recorder is not None:
            recorder.record_score(
                plan,
                result,
                watch,
                model_name=entry.name if entry is not None else "",
                model_version=entry.version if entry is not None else None,
            )
        return result

    def _inference_plan(
        self, registered: RegisteredUDF, table_name: str | None = None
    ) -> InferencePlan:
        """A forward-only serving plan (compiled once per design, cached).

        Table scoring always uses the design compiled for *that* table, and
        table-less point serving always uses a nominal design compiled
        against the database's page layout — so the schedule-derived
        serving counters are a function of the call's arguments, never of
        the order earlier API calls compiled things in.
        """
        key = table_name or ""
        plan = registered.inference_plans.get(key)
        if plan is not None:
            return plan
        spec = registered.spec
        if table_name is not None:
            binary = self.compile_udf(registered.name, table_name)
        else:
            binary = ExecutionBinary.compile(
                registered.name, spec, self.database.layout, self.fpga, n_tuples=4096
            )
        plan = InferencePlan.from_binary(binary, spec)
        registered.inference_plans[key] = plan
        return plan

    def _resolve_models(
        self,
        spec: AlgorithmSpec,
        models: Mapping[str, np.ndarray] | None,
        model_name: str | None,
        version: int | None,
    ) -> tuple[dict[str, np.ndarray], ModelEntry | None]:
        """Resolve and validate the model a serving call scores with.

        Returns ``(models, entry)`` where ``entry`` is the registry
        descriptor when the model came from the registry, else ``None``.
        """
        if (models is None) == (model_name is None):
            raise ConfigurationError(
                "supply exactly one of models= (an in-memory model mapping) "
                "or model_name= (a saved model in the registry)"
            )
        entry: ModelEntry | None = None
        if model_name is not None:
            models, entry = self.registry.load(model_name, version)
            if entry.algorithm and entry.algorithm != spec.name:
                raise ConfigurationError(
                    f"saved model {model_name!r} v{entry.version} was trained by "
                    f"algorithm {entry.algorithm!r} but this UDF runs {spec.name!r}"
                )
            context = f"saved model {model_name!r} v{entry.version}"
        else:
            context = "models="
        self._check_model_shapes(spec, models, context=context)
        return {
            name: np.asarray(value, dtype=np.float64)
            for name, value in models.items()
        }, entry

    def _check_model_shapes(
        self, spec: AlgorithmSpec, models: Mapping[str, np.ndarray], context: str
    ) -> None:
        if not isinstance(models, Mapping) or not models:
            raise ConfigurationError(
                f"{context}: expected a non-empty mapping of model parameter "
                f"arrays, got {models!r}"
            )
        expected = {
            name: np.shape(value) for name, value in spec.initial_models.items()
        }
        got = {name: np.shape(value) for name, value in models.items()}
        if set(got) != set(expected):
            raise ConfigurationError(
                f"{context}: model parameters {sorted(got)} do not match the "
                f"algorithm's parameters {sorted(expected)}"
            )
        for name, shape in expected.items():
            if got[name] != shape:
                raise ConfigurationError(
                    f"{context}: parameter {name!r} has shape {got[name]} but "
                    f"the algorithm expects {shape}"
                )
