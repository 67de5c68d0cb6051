"""Batched execution tape: one hDFG lowered once to one generated function.

:class:`~repro.translator.evaluator.HDFGEvaluator` walks the graph once per
training tuple with a fresh ``dict`` environment — exactly the
tuple-at-a-time anti-pattern the paper builds DAnA to eliminate.  DAnA's
execution engine runs a *static* schedule (every operand route resolved ahead
of time, no dispatch at run time); :class:`CompiledTape` is its software
twin.  It lowers the hDFG **once** into straight-line Python source:

* topological order, operator dispatch, region filtering and broadcast
  shapes are resolved at compile time — each node is one emitted line over
  locals (``v6 = multiply(v5[:, None], v2)  # node 6 expr_8 *``), a reducer
  a direct ``np.add.reduce`` / ``np.multiply.reduce``;
* every per-tuple value carries a leading **batch axis**, so one pass over
  the lines evaluates the update rule for an entire ``(B, ...)`` batch —
  including batched GATHER (LRMF row addressing via fancy indexing) and the
  tree-bus merge, a single ``ufunc.reduce`` over the batch axis;
* with ``segment_axis=True`` (lock-step sharding, :mod:`repro.cluster`)
  model values also carry a **segment axis** ``S``, one replica per
  accelerator, and per-tuple values are laid out ``(B, S, ...)``: one batch
  is the same step for every segment, and the batch-axis merge leaves one
  merged value per segment;
* the source is ``compile()``-d once and registered with :mod:`linecache`
  under :attr:`CompiledTape.filename` (``<tape:graph-name[:segment]>``; two
  graphs of one name share it, the last compiled owns the displayed text),
  so a NumPy error inside a kernel shows the offending node's line.

Two entry points are cut from that one statement list — for plain,
segment-axis and forward-slice tapes alike.  :meth:`CompiledTape.run`
evaluates one batch and returns the environment, a list indexed by node id:
with :meth:`CompiledTape.apply_updates` the per-batch reference, and what
the scorer calls.  :meth:`CompiledTape.train` runs a whole **stream** of
merge batches: the ``for batch in batches:`` loop lives inside the generated
function, each updated model is carried in a local from batch to batch and
written to ``models`` once, after the last batch, and the env list is built
once, from the last batch's locals.

Escape rule for a buffer ``train`` reuses across batches: it must be a local
of one call (tapes are shared across engines; the ``threads`` strategy runs
one concurrently), must never back a value that escapes (an ``env`` entry, a
``models[...]`` value) and must not assume the batch shape (a tail batch is
ragged).  Kernel outputs are fresh arrays (``out=`` scratch measured 0.3 of
7 us/batch: not worth a second statement list); the one reused buffer is the
row-addressed (LRMF) model copy, see :meth:`CompiledTape._compile_write_back`.

The tape computes exactly what the per-tuple evaluator computes (the
microcode path and :class:`HDFGEvaluator` remain the correctness oracles);
constructs the lowering cannot prove equivalent (non-associative merges,
outer-product contractions over batched operands, gathers or contractions
under a segment axis) raise :class:`TapeCompilationError`, and callers fall
back to the per-tuple / per-segment path.
"""

from __future__ import annotations

import linecache
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.exceptions import TranslationError
from repro.dsl.operations import Operator
from repro.translator.hdfg import HDFG, HDFGNode, NodeKind, Region

BatchEnv = list  # one slot per node id
BatchBinder = Callable[[np.ndarray], Mapping[str, "np.ndarray | float"]]


class TapeCompilationError(TranslationError):
    """The graph uses a construct the batched tape cannot lower faithfully."""


# Operators by the name the generated source calls them under.
_PRIMARY_UFUNCS = {
    Operator.ADD: "add",
    Operator.SUB: "subtract",
    Operator.MUL: "multiply",
    Operator.DIV: "divide",
}
_COMPARE_UFUNCS = {Operator.GT: "greater", Operator.LT: "less"}
# Merging across the batch axis is only order-independent for associative
# operators; the tree bus merges pairwise, a ufunc reduction sequentially.
_ASSOCIATIVE_MERGE_UFUNCS = {Operator.ADD: "add_reduce", Operator.MUL: "multiply_reduce"}


def _missing_binding(batch_values: Mapping, names: tuple[str, ...]) -> Exception:
    name = next((n for n in names if n not in batch_values), names[0])
    return TapeCompilationError(f"batch bindings are missing per-tuple variable {name!r}")


def _outer_operands(
    left: np.ndarray, right: np.ndarray, axis0: int, a_rank: int, b_rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """Align two unbatched operands of an outer-combining contraction: the
    contracted axis moves last, left free axes lead, right free axes follow."""
    left = np.moveaxis(left, axis0, -1)
    right = np.moveaxis(right, axis0, -1)
    left = left.reshape(left.shape[:-1] + (1,) * b_rank + (left.shape[-1],))
    return left, right.reshape((1,) * a_rank + right.shape)


#: every global the generated source reads; a tape adds its constants and
#: its model / meta defaults as ``c<id>`` / ``d<id>``.
_KERNEL_GLOBALS = {
    "add_reduce": np.add.reduce,
    "multiply_reduce": np.multiply.reduce,
    "NO_ROWS": np.empty(0, dtype=np.int64),
    "missing_binding": _missing_binding,
    "outer_operands": _outer_operands,
}
_NUMPY_NAMES = ("exp", "sqrt", "square", "rint", "asarray", "array", "float64", "int64")
for _name in (*_PRIMARY_UFUNCS.values(), *_COMPARE_UFUNCS.values(), *_NUMPY_NAMES):
    _KERNEL_GLOBALS[_name] = getattr(np, _name)


def _pad_after_lead(ref: str, lead: int, pad: int) -> str:
    """Insert ``pad`` singleton axes right after the ``lead`` structure axes.

    An operand stores its logical dims after its structure axes (the batch
    axis, and in segment mode the segment axis), so right-aligning it
    against a higher-rank operand needs the singletons *between* the
    structure axes and the logical dims (a plain NumPy broadcast would
    misalign a structure axis with a logical axis).
    """
    return f"{ref}[{', '.join([':'] * lead + ['None'] * pad)}]"


def _reducer(op: Operator, axis: int, operand: str) -> str:
    if op is Operator.SIGMA:
        return f"add_reduce({operand}, {axis})"
    if op is Operator.PI:
        return f"multiply_reduce({operand}, {axis})"
    if op is Operator.NORM:
        return f"sqrt(add_reduce(square({operand}), {axis}))"
    raise TapeCompilationError(f"{op.value!r} is not a group operation")


def _block(lines: Iterable[str], depth: int) -> str:
    return "".join(f"{'    ' * depth}{line}\n" for line in lines)


class CompiledTape:
    """One hDFG lowered into one generated function of batched NumPy kernels."""

    def __init__(self, graph: HDFG, segment_axis: bool = False) -> None:
        self.graph = graph
        self.segment_axis = segment_axis
        #: pseudo-filename the generated source is compiled and cached under.
        self.filename = f"<tape:{graph.name}{':segment' if segment_axis else ''}>"
        slots = (max(n.node_id for n in graph.nodes()) + 1) if len(graph) else 0
        #: per-node flag: does the value carry a leading batch axis?
        self._batched: list[bool] = [False] * slots
        #: per-node flag (segment mode only): does the value carry a segment
        #: axis?  Batched values are laid out ``(B, S, ...)``, model-derived
        #: values ``(S, ...)``; metas and constants stay shared/scalar.
        self._segmented: list[bool] = [False] * slots
        #: node id -> the name generated code reads the value under.
        self._refs: dict[int, str] = {}
        #: model / meta name -> the ``m<id>`` locals holding its per-call value.
        self._carried: dict[str, list[str]] = {}
        namespace = dict(_KERNEL_GLOBALS)
        resolve, load = self._compile_leaves(namespace)
        # Convergence-region kernels are split off the per-batch hot path:
        # the engine checks convergence once per epoch, so they run lazily
        # in :meth:`convergence_reached` on the epoch's last batch env.
        body, converge, lazy = [], [], set()
        for node in graph.topological_order():
            if node.is_leaf:
                continue
            compile_kind = getattr(self, f"_compile_{node.kind.value}", None)
            if compile_kind is None:
                raise TapeCompilationError(f"cannot compile node of kind {node.kind}")
            self._refs[node.node_id] = f"v{node.node_id}"
            line = self._node_line(node, compile_kind(node))
            if node.region is Region.CONVERGENCE:
                lazy.add(node.node_id)
                converge += [line, f"env[{node.node_id}] = v{node.node_id}"]
            else:
                body.append(line)
        self._conv_id = conv = graph.convergence_node_id
        self._conv_batched = conv is not None and self._batched[conv]
        # Which tuple of a batch stands in for a per-tuple (batched) value
        # when the engine needs a single representative: the per-tuple
        # oracle carries the *first* tuple's env through the merge path
        # (lead env) but the *last* tuple's env through the gather and
        # sequential paths.
        self._lead_index = 0 if graph.merge_node_ids else -1
        slot_refs = ["None" if i in lazy else self._ref(i) for i in range(slots)]
        env = ", ".join(slot_refs)
        unpack = f"[{', '.join(r if r[0] == 'v' else '_' for r in slot_refs)}] = env"
        apply, begin, scatter, carry, finish = self._compile_write_back()
        # ``resolve`` runs once per call, ``load`` + ``body`` once per batch;
        # ``run`` and ``train`` are cut from the same lists.
        source = self._source = (
            "def run(batch_values, models):\n"
            + _block(resolve + load + body, 1)
            + f"    return [{env}]\n\n\n"
            "def train(batches, bind_batch, models):\n"
            + _block(resolve + begin + ["batch = None", "for batch in batches:"], 1)
            + _block(["batch_values = bind_batch(batch)"] + scatter + load + body + carry, 2)
            + _block(["if batch is None:", "    return None"] + finish, 1)
            + f"    return [{env}]\n\n\n"
            "def apply_updates(env, models):\n" + _block([unpack] + apply, 1) + "\n\n"
            "def converge(env):\n" + _block([unpack] + converge, 1)
        )
        lines = source.splitlines(True)
        linecache.cache[self.filename] = (len(source), None, lines, self.filename)
        exec(compile(source, self.filename, "exec"), namespace)
        self._run = namespace["run"]
        self._train = namespace["train"]
        self._apply_updates = namespace["apply_updates"]
        self._converge = namespace["converge"]

    @classmethod
    def try_lower(cls, graph: HDFG, segment_axis: bool = False) -> "CompiledTape | None":
        """The graph's tape, or ``None`` when the batched lowering refuses it
        (the caller then keeps the per-tuple / per-segment path)."""
        try:
            return cls(graph, segment_axis)
        except TapeCompilationError:
            return None

    @property
    def source(self) -> str:
        """The generated Python source (``run``, ``train``, ``apply_updates``,
        ``converge``); a node's line ends in ``# node <id> <name> <op>``."""
        return self._source

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #
    def _compile_leaves(self, namespace: dict) -> tuple[list[str], list[str]]:
        """Seed the environment: ``resolve`` lines (once per call — each
        model / meta from ``models`` or its declared default) and ``load``
        lines (once per batch — per-tuple variables, binder overrides)."""
        resolve, per_tuple, named, names = [], [], [], []
        for binding in self.graph.bindings:
            nid, name = binding.node_id, binding.name
            node = self.graph.node(nid)
            self._refs[nid] = f"v{nid}"
            bound = f"asarray(batch_values[{name!r}], float64)"
            if binding.kind in ("input", "output"):
                self._batched[nid] = True
                self._segmented[nid] = self.segment_axis
                per_tuple.append("    " + self._node_line(node, bound))
                names.append(name)
                continue
            self._segmented[nid] = self.segment_axis and binding.kind == "model"
            namespace[f"d{nid}"] = (
                None if binding.value is None else np.asarray(binding.value, np.float64)
            )
            self._carried.setdefault(name, []).append(f"m{nid}")
            resolve.append(
                f"m{nid} = asarray(models[{name!r}], float64) "
                f"if {name!r} in models else d{nid}"
            )
            named.append(
                self._node_line(node, f"{bound} if {name!r} in batch_values else m{nid}")
            )
        for node in self.graph.nodes():
            if node.kind is NodeKind.CONSTANT or (
                node.kind is NodeKind.VARIABLE
                and node.node_id not in self._refs
                and node.constant_value is not None
            ):
                self._refs[node.node_id] = f"c{node.node_id}"
                namespace[f"c{node.node_id}"] = np.asarray(node.constant_value, np.float64)
        if per_tuple:
            per_tuple = ["try:", *per_tuple, "except KeyError:"] + [
                f"    raise missing_binding(batch_values, {tuple(names)!r}) from None"
            ]
        return resolve, per_tuple + named

    @staticmethod
    def _node_line(node: HDFGNode, expression: str) -> str:
        op = node.op or node.merge_operator
        tag = op.value if op is not None else (node.variable_kind or node.kind.value)
        name = " ".join(node.name.split())
        return f"v{node.node_id} = {expression}  # node {node.node_id} {name} {tag}"

    def _ref(self, node_id: int) -> str:
        """A node's value in generated code (``None``: an unbound leaf)."""
        return self._refs.get(node_id, "None")

    def _input_dims(self, node_id: int) -> tuple[int, ...]:
        return self.graph.node(node_id).dims

    def _lead_axes(self, node_id: int) -> int:
        """Number of structure axes ahead of the node's logical dims."""
        return int(self._batched[node_id]) + int(self._segmented[node_id])

    def _inherit_axes(self, node: HDFGNode) -> None:
        """An element-wise result is structured like its operands."""
        self._batched[node.node_id] = any(self._batched[i] for i in node.inputs)
        self._segmented[node.node_id] = any(self._segmented[i] for i in node.inputs)

    def _elementwise_operands(self, input_ids: tuple[int, ...]) -> list[str]:
        """Operand expressions, with the broadcast fix-up that right-aligns a
        structured operand's logical dims decided here, not per run."""
        target_rank = max(len(self._input_dims(i)) for i in input_ids)
        operands = []
        for i in input_ids:
            pad = target_rank - len(self._input_dims(i))
            lead = self._lead_axes(i)
            operands.append(
                _pad_after_lead(self._ref(i), lead, pad) if lead and pad else self._ref(i)
            )
        return operands

    def _compile_primary(self, node: HDFGNode) -> str:
        self._inherit_axes(node)
        va, vb = self._elementwise_operands(node.inputs)
        if node.op in _PRIMARY_UFUNCS:
            return f"{_PRIMARY_UFUNCS[node.op]}({va}, {vb})"
        if node.op in _COMPARE_UFUNCS:
            return f"{_COMPARE_UFUNCS[node.op]}({va}, {vb}).astype(float64)"
        raise TapeCompilationError(f"{node.op!r} is not a primary operation")

    def _compile_nonlinear(self, node: HDFGNode) -> str:
        self._inherit_axes(node)
        value = self._ref(node.inputs[0])
        if node.op is Operator.SIGMOID:
            return f"1.0 / (1.0 + exp(-{value}))"
        if node.op is Operator.GAUSSIAN:
            return f"exp(-square({value}))"
        if node.op is Operator.SQRT:
            return f"sqrt({value})"
        raise TapeCompilationError(f"{node.op!r} is not a non-linear operation")

    def _compile_group(self, node: HDFGNode) -> str:
        nid = node.node_id
        axis0 = (node.axis or 1) - 1
        self._inherit_axes(node)
        if node.inner_op is None or len(node.inputs) == 1:
            (operand,) = node.inputs
            return _reducer(node.op, axis0 + self._lead_axes(operand), self._ref(operand))
        a, b = node.inputs
        ldims, rdims = self._input_dims(a), self._input_dims(b)
        inner = _PRIMARY_UFUNCS.get(node.inner_op)
        if ldims == rdims or not ldims or not rdims:
            if inner is None:
                raise TapeCompilationError(
                    f"cannot fuse {node.inner_op!r} into a batched group operation"
                )
            va, vb = self._elementwise_operands(node.inputs)
            return _reducer(node.op, axis0 + self._lead_axes(nid), f"{inner}({va}, {vb})")
        # Outer-combining contraction (generalised matrix product): only
        # lowered for unbatched operands; a batched version would need a
        # per-node einsum plan, which no current workload exercises.
        if self._batched[a] or self._batched[b]:
            raise TapeCompilationError(
                f"group node {node.name!r} outer-combines batched operands of "
                f"shapes {list(ldims)} and {list(rdims)}"
            )
        if self._segmented[a] or self._segmented[b]:
            raise TapeCompilationError(
                f"group node {node.name!r} outer-combines segment-replicated "
                "operands; the contraction plan cannot carry a segment axis"
            )
        if inner is None:
            raise TapeCompilationError(f"cannot fuse {node.inner_op!r} into a contraction")
        aligned = (
            f"*outer_operands({self._ref(a)}, {self._ref(b)}, "
            f"{axis0}, {len(ldims) - 1}, {len(rdims) - 1})"
        )
        return _reducer(node.op, -1, f"{inner}({aligned})")

    def _compile_gather(self, node: HDFGNode) -> str:
        source, index = node.inputs
        if self.segment_axis:
            # A gathered row would need per-segment fancy indexing over the
            # stacked source; the cluster layer executes gather graphs
            # (LRMF) per segment instead.
            raise TapeCompilationError(
                f"gather node {node.name!r} cannot be lowered with a segment axis"
            )
        if self._batched[source]:
            raise TapeCompilationError(
                f"gather node {node.name!r} selects from a per-tuple source"
            )
        src, idx = self._ref(source), self._ref(index)
        if self._batched[index]:
            self._batched[node.node_id] = True
            return f"{src}[rint({idx}).astype(int64)]"
        return f"asarray({src}[int(round(float({idx})))], float64)"

    def _compile_merge(self, node: HDFGNode) -> str:
        (operand,) = node.inputs
        if node.merge_operator not in _ASSOCIATIVE_MERGE_UFUNCS:
            raise TapeCompilationError(
                f"merge operator {node.merge_operator!r} is not associative; "
                "the batched reduction would not match the tree bus"
            )
        if not self._batched[operand]:
            raise TapeCompilationError(
                f"merge node {node.name!r} aggregates a value that does not "
                "depend on the training tuple"
            )
        # The reduction collapses the batch axis only; in segment mode the
        # result keeps one merged value per segment ((S, ...) layout).
        self._segmented[node.node_id] = self._segmented[operand]
        reduce = _ASSOCIATIVE_MERGE_UFUNCS[node.merge_operator]
        return f"{reduce}({self._ref(operand)}, 0)"

    def _compile_update(self, node: HDFGNode) -> str:
        self._inherit_axes(node)
        return self._ref(node.inputs[0])

    def _compile_write_back(self) -> tuple[list[str], ...]:
        """Model write-back lines, from one resolution of each update target:
        ``apply`` (:meth:`apply_updates`: one ``run`` env into ``models``) and,
        for ``train``, lines before the loop, at the top of a batch, at its
        end and after the loop — ``u<k>`` carries update ``k``'s model value
        and the ``m<id>`` locals the next batch's ``load`` reads."""
        apply, begin, scatter, carry, finish = [], [], [], [], []
        gather_nodes = [n for n in self.graph.nodes() if n.kind is NodeKind.GATHER]
        for k, (name, var_id, update_id) in enumerate(self.graph.update_targets):
            carried = " = ".join(self._carried.get(name, []) + [f"u{k}"])
            if var_id >= 0 and self._input_dims(update_id) != self._input_dims(var_id):
                # Row-addressed (LRMF): the batch of gathered-row updates
                # lands via one fancy-index assignment.  ``train`` copies the
                # model once per call and scatters a batch's rows in place at
                # the top of the next batch — the last batch's into a second
                # copy, so the returned env keeps the model that batch read.
                binding_ids = {b.node_id for b in self.graph.bindings if b.name == name}
                index_node = next(
                    (g.inputs[1] for g in gather_nodes if g.inputs[0] in binding_ids), None
                )
                if index_node is None:
                    raise TapeCompilationError(
                        f"row-addressed update of model {name!r} has no gather index"
                    )
                rows = f"rint({self._ref(index_node)}).astype(int64)"
                copy = f"array(models[{name!r}], float64)"
                apply += [f"u{k} = {copy}", f"u{k}[{rows}] = {self._ref(update_id)}"]
                begin += [f"{carried} = {copy}", f"r{k}, s{k} = NO_ROWS, 0.0"]
                scatter.append(f"u{k}[r{k}] = s{k}")
                carry.append(f"r{k}, s{k} = {rows}, {self._ref(update_id)}")
                finish += [f"u{k} = u{k}.copy()", f"u{k}[r{k}] = s{k}"]
            else:
                # A full-model update that stays per-tuple applies the lead
                # env's value (see ``_lead_index``).
                lead = f"[{self._lead_index}]" if self._batched[update_id] else ""
                value = f"asarray({self._ref(update_id)}, float64){lead}"
                apply.append(f"u{k} = {value}")
                carry.append(f"{carried} = {value}")
            apply.append(f"models[{name!r}] = u{k}")
            finish.append(f"models[{name!r}] = u{k}")
        return apply, begin, scatter, carry, finish

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        batch_values: Mapping[str, np.ndarray | float],
        models: Mapping[str, np.ndarray],
    ) -> BatchEnv:
        """Evaluate every region for one batch; returns the node-id env list.

        ``batch_values`` binds per-tuple variables to arrays with a leading
        batch axis (and may override meta variables with scalars);
        ``models`` binds model variables to their current, shared values.
        Every computed entry of the returned env is a fresh array.
        """
        return self._run(batch_values, models)

    def train(
        self,
        batches: Iterable[np.ndarray],
        bind_batch: BatchBinder,
        models: dict[str, np.ndarray],
    ) -> BatchEnv | None:
        """Run a stream of merge batches; returns the last batch's env.

        Equal to ``env = run(bind_batch(batch), models); apply_updates(env,
        models)`` per batch, with the loop inside the generated function:
        each updated model is carried in a local and ``models`` is written
        once, after the last batch (arrays the caller passed in are never
        mutated).  An empty stream returns ``None``, ``models`` untouched.
        """
        return self._train(batches, bind_batch, models)

    def apply_updates(self, env: BatchEnv, models: dict[str, np.ndarray]) -> None:
        """Write one :meth:`run` batch's model updates back into ``models``.

        Row-addressed models (LRMF) take the whole batch of gathered-row
        updates via one fancy-index assignment into a copy; duplicate row
        indices keep the last tuple's value, like the engine's Hogwild-style
        sequential application of updates computed from batch-start models.
        """
        self._apply_updates(env, models)

    def convergence_value(self, env: BatchEnv | None) -> np.ndarray | None:
        """Evaluate the convergence predicate on a finished batch env.

        Convergence kernels were kept off the per-batch hot path, so they
        are evaluated here, once per epoch, against the last batch's env.
        Returns the raw predicate value (``> 0.5`` means converged) — a
        scalar for a plain tape, one verdict per segment for a
        ``segment_axis`` tape — or None when the graph has no convergence
        condition or the env is empty.
        """
        if self._conv_id is None or env is None:
            return None
        self._converge(env)
        value = env[self._conv_id]
        if value is None:
            return None
        value = np.asarray(value)
        if self._conv_batched:
            # Match the env the per-tuple engine checks convergence on.
            value = value[self._lead_index]
        return value

    def convergence_reached(self, env: BatchEnv | None) -> bool:
        """True when every lane of the convergence predicate holds."""
        value = self.convergence_value(env)
        return value is not None and bool(np.all(value > 0.5))
