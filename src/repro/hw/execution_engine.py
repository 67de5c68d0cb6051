"""Multi-threaded execution engine simulator (paper §5.2).

The execution engine runs multiple threads of the update rule over
different training tuples, merges their partial results on the tree bus and
applies the post-merge computation (optimizer step) once per batch.

Three execution paths are provided:

* **batched tape path** — the default fast path: the hDFG is compiled once
  into a :class:`~repro.translator.tape.CompiledTape` — one generated
  function of NumPy kernels with the epoch's batch loop inside it — and
  every merge batch is evaluated in one shot, with the tree-bus merge as a
  single reduction over the batch axis (no per-tuple Python, and no
  per-batch dispatch, in the epoch loop);
* **per-tuple functional path** — per-tuple evaluation of the hDFG with
  :class:`~repro.translator.evaluator.HDFGEvaluator`, kept as the
  correctness oracle for the tape and used when no batch binder is
  available or the graph cannot be lowered to a tape;
* **microcode path** — cycle-by-cycle execution of the compiled
  :class:`~repro.isa.engine_isa.EngineProgram` on simulated Analytic
  Clusters/Units, used by the test-suite to validate that the static
  schedule computes exactly what the hDFG specifies.

Cycle accounting uses the static schedule lengths: every consumed batch
costs ``update_rule_cycles`` (all threads run in lock-step on their own
tuple) plus the tree-bus merge cost plus ``post_merge_cycles``.  That
arithmetic is stated once, in :func:`repro.hw.ledger.engine_epoch_cost`
(a function of counts alone, so the design-space estimator reads it too);
:meth:`ExecutionEngine.epoch_cost` calls it with the static schedule's
region lengths: the tape paths book it **once per epoch** — a pure
function of the tuple count, so nothing is booked inside the batch loop —
``EXPLAIN`` predicts with it, and the per-tuple oracle keeps booking batch
by batch (:meth:`ExecutionEngine.account_batch`), the reference the parity
tests hold the closed form to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.exceptions import ExecutionEngineError
from repro.dsl.operations import Operator
from repro.hw.alu import ALU
from repro.hw.analytic_cluster import AnalyticCluster
from repro.hw.ledger import EngineRunStats, TreeBusStats, engine_epoch_cost
from repro.hw.tree_bus import TreeBus
from repro.isa.engine_isa import SourceKind
from repro.runtime import BatchSource, EpochDriver, EpochStep
from repro.translator.evaluator import HDFGEvaluator
from repro.translator.hdfg import HDFG, NodeKind, Region
from repro.translator.tape import BatchBinder, CompiledTape
from repro.compiler.scheduler import ThreadSchedule, node_ref

TupleBinder = Callable[[np.ndarray], dict[str, np.ndarray | float]]


@dataclass
class TrainingResult:
    """Outcome of running the execution engine over a dataset."""

    models: dict[str, np.ndarray]
    epochs_run: int
    converged: bool
    stats: EngineRunStats = field(default_factory=EngineRunStats)


class ExecutionEngine:
    """Simulates the multi-threaded execution engine for one compiled UDF."""

    def __init__(
        self,
        graph: HDFG,
        schedule: ThreadSchedule,
        threads: int,
        tree_bus: TreeBus | None = None,
        tape: CompiledTape | None = None,
    ) -> None:
        if threads < 1:
            raise ExecutionEngineError("the execution engine needs at least one thread")
        self.graph = graph
        self.schedule = schedule
        self.evaluator = HDFGEvaluator(graph)
        self.tree_bus = tree_bus or TreeBus()
        self.stats = EngineRunStats()
        self._merge_nodes = [graph.node(i) for i in graph.merge_node_ids]
        self._gather_nodes = [n for n in graph.nodes() if n.kind is NodeKind.GATHER]
        # Without a merge function the update rule is inherently sequential
        # (each tuple's update must see the previous model), so parallel
        # threads would silently drop work; fall back to one thread unless
        # the model is row-addressed (Hogwild-style LRMF updates).  With a
        # merge function, the merge coefficient is the batch size the user
        # asked for and therefore bounds the usable thread count.
        if not self._merge_nodes and not self._gather_nodes:
            threads = 1
        elif self._merge_nodes:
            max_coefficient = max(
                node.merge_coefficient or 1 for node in self._merge_nodes
            )
            threads = min(threads, max_coefficient)
        self.threads = max(1, threads)
        # The merge coefficient fixes the *batch* semantics of the algorithm:
        # that many tuples contribute to one model update regardless of how
        # many hardware threads the generator allocated.  When fewer threads
        # than the coefficient are available, each thread simply consumes
        # several tuples per batch (more engine rounds, same arithmetic).
        if self._merge_nodes:
            self.batch_size = max(
                node.merge_coefficient or 1 for node in self._merge_nodes
            )
        elif self._gather_nodes:
            self.batch_size = self.threads
        else:
            self.batch_size = 1
        # Structural queries hoisted out of the per-batch hot path: which
        # node ids each variable name binds to, whether updates are
        # row-addressed, and the merge widths for the cycle model.
        self._binding_ids_by_name: dict[str, set[int]] = {}
        for binding in graph.bindings:
            self._binding_ids_by_name.setdefault(binding.name, set()).add(
                binding.node_id
            )
        self._gather_updates = self._compute_gather_updates()
        self._merge_widths = [node.element_count for node in self._merge_nodes]
        # The schedule is static, so its region lengths are too — hoist
        # them instead of re-deriving them from the instruction stream
        # every time an epoch is priced.
        self._region_cycles = (
            self.schedule.update_rule_cycles,
            self.schedule.post_merge_cycles,
            self.schedule.convergence_cycles,
        )
        # The binary compiles the tape once per UDF and hands it to every
        # engine; a bare engine lowers the graph itself.  Graphs the tape
        # cannot lower keep the per-tuple evaluator as their only path.
        self.tape = tape if tape is not None else CompiledTape.try_lower(graph)

    # ------------------------------------------------------------------ #
    # fast functional path
    # ------------------------------------------------------------------ #
    def train(
        self,
        rows: np.ndarray | BatchSource,
        initial_models: Mapping[str, np.ndarray],
        bind_tuple: TupleBinder | None,
        epochs: int,
        convergence_check: bool = True,
        rng: np.random.Generator | None = None,
        shuffle: bool = False,
        bind_batch: BatchBinder | None = None,
    ) -> TrainingResult:
        """Train over ``rows`` for up to ``epochs``.

        ``rows`` is the extraction to consume: a
        :class:`~repro.runtime.BatchSource` from the extraction seam, or a
        plain tuple matrix (wrapped as the pre-extracted source).  The
        first epoch of an unshuffled run consumes batches straight off a
        source that is still streaming — the access engine's page walk
        overlaps this engine's compute — and every other epoch trains from
        the materialised matrix.  Models, batch boundaries and cycle
        counters do not depend on which.

        When ``bind_batch`` is supplied and the graph lowered to a
        :class:`CompiledTape`, whole merge batches are evaluated in one
        NumPy shot; otherwise each tuple is bound with ``bind_tuple`` and
        evaluated through the per-tuple oracle.  Both paths produce the
        same models and the same schedule-derived cycle counters.
        """
        source = rows if isinstance(rows, BatchSource) else BatchSource.from_rows(rows)
        use_tape = bind_batch is not None and self.tape is not None
        if not use_tape and bind_tuple is None:
            raise ExecutionEngineError(
                "per-tuple training requires a bind_tuple binder"
            )
        step = _SingleEngineStep(
            engine=self,
            source=source,
            bind_tuple=bind_tuple,
            bind_batch=bind_batch,
            use_tape=use_tape,
            shuffle=shuffle,
            rng=rng,
            convergence_check=convergence_check,
        )
        result = EpochDriver(step, convergence_check=convergence_check).run(
            initial_models, epochs
        )
        return TrainingResult(
            models=result.models,
            epochs_run=result.epochs_run,
            converged=result.converged,
            stats=self.stats,
        )

    def iter_batches(self, rows: np.ndarray):
        """Slice ``rows`` into the engine's consecutive merge batches."""
        batch_size = self.batch_size
        for start in range(0, len(rows), batch_size):
            yield rows[start : start + batch_size]

    # ------------------------------------------------------------------ #
    # cycle ledger
    # ------------------------------------------------------------------ #
    def epoch_cost(
        self, n_tuples: int, batch_size: int | None = None, epoch_end: bool = True
    ) -> tuple[EngineRunStats, TreeBusStats]:
        """What one epoch over ``n_tuples`` tuples books: engine and thread bus.

        :func:`repro.hw.ledger.engine_epoch_cost` — the one statement of
        the engine cycle model — over the static schedule's region lengths,
        this engine's threads and bus, and merge batches of ``batch_size``
        (default :attr:`batch_size`).  The tape paths book it once per epoch
        (:meth:`book_epoch`), ``EXPLAIN`` prices plans with it, and the
        per-batch adders are the same function over one batch size.
        """
        return engine_epoch_cost(
            n_tuples,
            batch_size=self.batch_size if batch_size is None else batch_size,
            threads=self.threads,
            region_cycles=self._region_cycles,
            merge_widths=self._merge_widths,
            bus=self.tree_bus,
            epoch_end=epoch_end,
        )

    def book_epoch(self, n_tuples: int) -> None:
        """Book one finished epoch, in place — after its last batch: a
        streamed first epoch only knows its tuple count by then, and a
        faulted epoch never gets here, so it books nothing."""
        self._book(self.epoch_cost(n_tuples))

    def _book(
        self, cost: tuple[EngineRunStats, TreeBusStats], account_tree_bus: bool = True
    ) -> None:
        engine, bus = cost
        self.stats += engine
        if account_tree_bus:
            self.tree_bus.stats += bus

    def account_batch(self, batch_len: int, account_tree_bus: bool = True) -> None:
        """Book one consumed batch — the per-batch reference for :meth:`epoch_cost`.

        The per-tuple oracle books this way (``account_tree_bus=False``:
        :meth:`TreeBus.merge` books the bus itself), which makes the
        tape-vs-per-tuple parity tests the oracle of the closed form.
        """
        self.account_batches(batch_len, 1, account_tree_bus=account_tree_bus)

    def account_batches(
        self, batch_len: int, count: int, account_tree_bus: bool = True
    ) -> None:
        """Book ``count`` identical batches of ``batch_len`` tuples."""
        self._book(
            self.epoch_cost(count * batch_len, batch_len, epoch_end=False),
            account_tree_bus,
        )

    def account_epoch_end(self) -> None:
        """Book the end of an epoch: its convergence check."""
        self._book(self.epoch_cost(0))

    def _train_one_epoch_tape(
        self,
        batches: Iterable[np.ndarray],
        models: dict[str, np.ndarray],
        bind_batch: BatchBinder,
    ) -> list | None:
        """One epoch on the batched tape; accounting matches the tuple path."""
        n_tuples = 0

        def counted() -> Iterator[np.ndarray]:
            # a streamed first epoch only knows its tuple count at the end
            nonlocal n_tuples
            for batch in batches:
                n_tuples += len(batch)
                yield batch

        env = self.tape.train(counted(), bind_batch, models)
        self.book_epoch(n_tuples)
        return env

    def _train_one_epoch(
        self,
        batches: Iterable[np.ndarray],
        models: dict[str, np.ndarray],
        bind_tuple: TupleBinder,
    ) -> dict:
        last_env: dict = {}
        for batch in batches:
            last_env = self._process_batch(batch, models, bind_tuple)
            self.account_batch(len(batch), account_tree_bus=False)
        self.account_epoch_end()
        return last_env

    def _process_batch(
        self,
        batch: np.ndarray,
        models: dict[str, np.ndarray],
        bind_tuple: TupleBinder,
    ) -> dict:
        per_thread_envs = []
        for row in batch:
            bindings = dict(bind_tuple(np.asarray(row, dtype=np.float64)))
            for name, value in models.items():
                bindings.setdefault(name, value)
            env = self.evaluator.initial_env(bindings)
            env = self.evaluator.evaluate(env, [Region.UPDATE_RULE])
            per_thread_envs.append(env)

        if self._gather_updates:
            # Row-addressed models (LRMF): apply each thread's update in turn,
            # Hogwild-style, because different tuples touch different rows.
            for env in per_thread_envs:
                env = self.evaluator.evaluate(env, [Region.UPDATE_RULE, Region.POST_MERGE])
                self._apply_updates(env, models)
            return per_thread_envs[-1]

        # Aggregate merge-node values across threads on the tree bus.
        lead_env = per_thread_envs[0]
        for merge_node in self._merge_nodes:
            operand_id = merge_node.inputs[0]
            values = [env[operand_id] for env in per_thread_envs if operand_id in env]
            merged = self.tree_bus.merge(values, merge_node.merge_operator)
            lead_env[merge_node.node_id] = merged
        lead_env = self.evaluator.evaluate(lead_env, [Region.UPDATE_RULE, Region.POST_MERGE])
        self._apply_updates(lead_env, models)
        return lead_env

    # ------------------------------------------------------------------ #
    # model write-back
    # ------------------------------------------------------------------ #
    def _apply_updates(self, env: dict, models: dict[str, np.ndarray]) -> None:
        results = self.evaluator.model_results(env)
        for name, value in results.items():
            if name not in models:
                models[name] = value
                continue
            current = models[name]
            if value.shape == current.shape:
                models[name] = value
                continue
            # Row-addressed update: find the gather node for this model to
            # recover which row the tuple addressed.
            row_index = self._gather_row_index(name, env)
            if row_index is None:
                raise ExecutionEngineError(
                    f"update for model {name!r} has shape {value.shape} but the model "
                    f"is {current.shape} and no gather index was found"
                )
            current = current.copy()
            current[row_index] = value
            models[name] = current

    def _gather_row_index(self, model_name: str, env: dict) -> int | None:
        model_node_ids = self._binding_ids_by_name.get(model_name, ())
        for gather in self._gather_nodes:
            if gather.inputs[0] in model_node_ids and gather.inputs[1] in env:
                return int(round(float(np.asarray(env[gather.inputs[1]]))))
        return None

    def _compute_gather_updates(self) -> bool:
        if not self._gather_nodes:
            return False
        model_dims = {
            name: self.graph.node(var_node_id).dims
            for name, var_node_id, _u in self.graph.update_targets
            if var_node_id >= 0
        }
        for name, _var_node_id, update_node_id in self.graph.update_targets:
            update_dims = self.graph.node(update_node_id).dims
            if name in model_dims and update_dims != model_dims[name]:
                return True
        return False

    def _convergence_reached(self, env: dict) -> bool:
        if self.graph.convergence_node_id is None:
            return False
        env = self.evaluator.evaluate(
            env, [Region.UPDATE_RULE, Region.POST_MERGE, Region.CONVERGENCE]
        )
        return self.evaluator.convergence_reached(env)

    # ------------------------------------------------------------------ #
    # microcode path (schedule validation)
    # ------------------------------------------------------------------ #
    def execute_microcode(
        self,
        variable_values: Mapping[str, np.ndarray | float],
        regions: Iterable[Region] = (Region.UPDATE_RULE,),
        merged_values: Mapping[int, np.ndarray] | None = None,
    ) -> dict[int, np.ndarray]:
        """Execute the compiled engine program on simulated ACs/AUs.

        ``variable_values`` binds DSL variable names to values;
        ``merged_values`` optionally injects merge-node results (needed when
        executing the post-merge region).  Returns the computed value of
        every hDFG node touched by the executed steps, keyed by node id.
        """
        regions = list(regions)
        address_map = self.schedule.address_map
        memory: dict[int, float] = {}
        supported = self.graph.required_operators() | {Operator.ADD}
        alu = ALU(supported)
        clusters = [
            AnalyticCluster(cluster_id=i, alu=alu)
            for i in range(self.schedule.acs_per_thread)
        ]
        # All AUs of the thread share one scratchpad image so that values
        # produced on one AU are visible to consumers scheduled elsewhere.
        for cluster in clusters:
            for au in cluster.aus:
                au.data_memory = memory
                au.memory_words = max(4096, len(address_map) + 1024)

        # Pre-load leaves (variables, constants) and gather staging values.
        env = self.evaluator.initial_env(dict(variable_values))
        env = self.evaluator.evaluate(env, [])
        self._preload_memory(memory, env)
        for gather in self._gather_nodes:
            source = np.asarray(env.get(gather.inputs[0]))
            index_value = env.get(gather.inputs[1])
            if source is None or index_value is None:
                continue
            row = np.atleast_1d(source[int(round(float(index_value)))])
            for i in range(gather.element_count):
                key = ("gather", gather.node_id, i)
                if address_map.known(key):
                    memory[address_map.address_of(key)] = float(row.flat[i])
        if merged_values:
            for node_id, value in merged_values.items():
                flat = np.atleast_1d(np.asarray(value, dtype=np.float64)).ravel()
                for i, v in enumerate(flat):
                    key = node_ref(node_id, i)
                    if address_map.known(key):
                        memory[address_map.address_of(key)] = float(v)

        step_lists = {
            Region.UPDATE_RULE: self.schedule.program.update_rule_steps,
            Region.POST_MERGE: self.schedule.program.post_merge_steps,
            Region.CONVERGENCE: self.schedule.program.convergence_steps,
        }
        for region in regions:
            for step in step_lists[region]:
                for instruction in step.cluster_instructions:
                    cluster = clusters[instruction.cluster_id % len(clusters)]
                    fixed = instruction
                    if instruction.cluster_id >= len(clusters):
                        fixed = type(instruction)(
                            cluster_id=cluster.cluster_id,
                            operation=instruction.operation,
                            au_slots=instruction.au_slots,
                        )
                    cluster.execute_instruction(fixed)

        # Collect node outputs back from the scratchpad.
        results: dict[int, np.ndarray] = {}
        for node in self.graph.nodes():
            if node.is_leaf or node.kind in (NodeKind.UPDATE, NodeKind.MERGE):
                continue
            if node.region not in regions:
                continue
            values = []
            complete = True
            for i in range(node.element_count):
                key = node_ref(node.node_id, i)
                if not address_map.known(key):
                    complete = False
                    break
                address = address_map.address_of(key)
                if address not in memory:
                    complete = False
                    break
                values.append(memory[address])
            if complete:
                results[node.node_id] = np.asarray(values, dtype=np.float64).reshape(
                    node.dims if node.dims else ()
                )
        return results

    def _preload_memory(self, memory: dict[int, float], env: dict) -> None:
        address_map = self.schedule.address_map
        for node in self.graph.nodes():
            if not node.is_leaf or node.node_id not in env:
                continue
            flat = np.atleast_1d(np.asarray(env[node.node_id], dtype=np.float64)).ravel()
            for i, value in enumerate(flat):
                key = node_ref(node.node_id, i)
                if address_map.known(key):
                    memory[address_map.address_of(key)] = float(value)


class _SingleEngineStep(EpochStep):
    """The single-engine strategy for the shared :class:`EpochDriver` loop.

    The state *is* the model dict (the tape / evaluator update it in
    place), there is nothing to merge, and the only pipelining decision is
    whether the first epoch may consume batches straight off a
    :class:`BatchSource` that is still streaming (possible when the epoch
    order is the storage order, i.e. ``shuffle=False``).
    """

    merges = False

    def __init__(
        self,
        engine: ExecutionEngine,
        source: BatchSource,
        bind_tuple: TupleBinder | None,
        bind_batch: BatchBinder | None,
        use_tape: bool,
        shuffle: bool,
        rng: np.random.Generator | None,
        convergence_check: bool,
    ) -> None:
        self.engine = engine
        self.source = source
        self.bind_tuple = bind_tuple
        self.bind_batch = bind_batch
        self.use_tape = use_tape
        self.shuffle = shuffle
        self.rng = rng
        self.convergence_check = convergence_check

    def run_epoch(self, models: dict[str, np.ndarray], epoch_index: int):
        engine, source = self.engine, self.source
        if epoch_index == 0 and not self.shuffle and not source.materialised:
            batches = source.batches(engine.batch_size)
        else:
            epoch_rows = source.rows()
            if self.shuffle:
                order = np.arange(len(epoch_rows))
                (self.rng or np.random.default_rng(0)).shuffle(order)
                epoch_rows = epoch_rows[order]
            batches = engine.iter_batches(epoch_rows)
        if self.use_tape:
            env = engine._train_one_epoch_tape(batches, models, self.bind_batch)
            reached = self.convergence_check and engine.tape.convergence_reached(env)
        else:
            env = engine._train_one_epoch(batches, models, self.bind_tuple)
            reached = self.convergence_check and engine._convergence_reached(env)
        return models, reached
