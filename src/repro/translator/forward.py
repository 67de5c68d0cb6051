"""Forward-only lowering of an hDFG for prediction serving.

Training graphs compute a *gradient*: the update rule scores one tuple,
compares the score against the label, and turns the error into a model
update that flows through merge nodes into the optimizer.  Serving only
needs the first third of that pipeline — the score.  :func:`forward_slice`
recovers it structurally from the translated graph, with no extra DSL
surface:

* the **score node** is the first node (in topological order) that combines
  a label-dependent operand with a label-free one — ``er = s - y`` for the
  regressions, ``margin = y * s`` for SVM, ``err = pred - value`` for LRMF.
  Its label-free input is the prediction the algorithm compares against the
  training label;
* the **forward graph** is the ancestor closure of that score node: a
  sub-hDFG sharing node ids (and node objects) with the training graph, so
  the same :class:`~repro.translator.tape.CompiledTape` and
  :class:`~repro.translator.evaluator.HDFGEvaluator` machinery — and the
  same static scheduler, for cycle accounting — run on it unchanged.

The slice never crosses a merge boundary (gradients depend on the label,
so merge nodes are always downstream of the score); a graph where it would
raises :class:`TranslationError` instead of silently lowering batched
merge semantics into a forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import TranslationError
from repro.translator.hdfg import HDFG, NodeKind, Region


@dataclass(frozen=True)
class ForwardGraph:
    """The forward-only slice of one training hDFG."""

    #: sub-hDFG containing only the score node's ancestor closure.
    graph: HDFG
    #: node whose evaluated value is the per-tuple prediction.
    score_node_id: int
    #: the training graph the slice was taken from.
    source: HDFG

    @property
    def score_dims(self) -> tuple[int, ...]:
        """Logical dimensions of one tuple's prediction (``()`` for a scalar score)."""
        return self.graph.node(self.score_node_id).dims


def _label_dependent(graph: HDFG) -> set[int]:
    """Node ids whose value depends on an output (label) variable."""
    dependent = set(graph.output_node_ids)
    changed = True
    while changed:
        changed = False
        for node in graph.nodes():
            if node.node_id in dependent or node.is_leaf:
                continue
            if any(i in dependent for i in node.inputs):
                dependent.add(node.node_id)
                changed = True
    return dependent


def find_score_node(graph: HDFG) -> int:
    """The node holding the prediction the update rule scores labels against."""
    if not graph.output_node_ids:
        raise TranslationError(
            f"graph {graph.name!r} binds no output variable; cannot identify "
            "a prediction node for forward-only lowering"
        )
    dependent = _label_dependent(graph)
    for node in graph.topological_order():
        if node.is_leaf or node.node_id not in dependent:
            continue
        free = [i for i in node.inputs if i not in dependent]
        if not free:
            continue
        # Prefer a computed score over a bare leaf operand; ties keep
        # input order (deterministic for a given translation).
        free.sort(key=lambda i: graph.node(i).is_leaf)
        return free[0]
    raise TranslationError(
        f"graph {graph.name!r} never combines a label-free value with the "
        "output variable; cannot identify a prediction node"
    )


def _ancestor_closure(graph: HDFG, root_id: int) -> set[int]:
    closure: set[int] = set()
    stack = [root_id]
    while stack:
        node = graph.node(stack.pop())
        if node.node_id in closure:
            continue
        closure.add(node.node_id)
        stack.extend(node.inputs)
    return closure


def forward_slice(graph: HDFG) -> ForwardGraph:
    """Lower a training hDFG to its forward-only (inference) sub-graph."""
    score_id = find_score_node(graph)
    closure = _ancestor_closure(graph, score_id)
    forward = HDFG(name=f"{graph.name}_forward")
    for node in graph.nodes():
        if node.node_id not in closure:
            continue
        if node.kind is NodeKind.MERGE or node.region is not Region.UPDATE_RULE:
            raise TranslationError(
                f"forward slice of {graph.name!r} crosses a merge/epoch "
                f"boundary at node {node.name!r}; the prediction must be a "
                "pure per-tuple value"
            )
        forward.add_node(node)
    forward.bindings = [b for b in graph.bindings if b.node_id in closure]
    forward.model_node_ids = [i for i in graph.model_node_ids if i in closure]
    forward.input_node_ids = [i for i in graph.input_node_ids if i in closure]
    forward.meta_node_ids = [i for i in graph.meta_node_ids if i in closure]
    return ForwardGraph(graph=forward, score_node_id=score_id, source=graph)
