"""Hierarchical DataFlow Graph (hDFG) produced by DAnA's translator.

Each node of the hDFG represents a multi-dimensional operation; each edge is
a multi-dimensional vector (paper §3/§4.4).  Nodes are *hierarchical*: a
node decomposes into atomic **sub-nodes**, each a single scalar operation of
the execution engine, which is the unit the scheduler maps onto Analytic
Units.

Group operations fuse their inner primary operation, exactly as the paper's
Figure 3b shows a single ``SIGMA`` node consuming ``mo`` and ``in``
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

from repro.exceptions import TranslationError
from repro.dsl.operations import Operator


class NodeKind(Enum):
    """Kinds of hDFG nodes."""

    VARIABLE = "variable"      # model / input / output / meta leaf
    CONSTANT = "constant"      # literal constant leaf
    PRIMARY = "primary"        # element-wise +,-,*,/,>,<
    NONLINEAR = "nonlinear"    # sigmoid, gaussian, sqrt
    GROUP = "group"            # sigma, pi, norm (with optional fused inner op)
    GATHER = "gather"          # row selection for LRMF-style models
    MERGE = "merge"            # merge boundary between threads
    UPDATE = "update"          # binds the updated model value to the model variable


class Region(Enum):
    """Which phase of the per-epoch computation a node belongs to.

    ``UPDATE_RULE`` nodes run once per training tuple in every thread;
    ``POST_MERGE`` nodes run once per merge batch (they consume merged
    values); ``CONVERGENCE`` nodes run once per epoch.
    """

    UPDATE_RULE = "update_rule"
    POST_MERGE = "post_merge"
    CONVERGENCE = "convergence"


@dataclass
class HDFGNode:
    """One node of the hierarchical dataflow graph."""

    node_id: int
    kind: NodeKind
    op: Operator | None = None
    inputs: tuple[int, ...] = ()
    dims: tuple[int, ...] = ()
    axis: int | None = None
    inner_op: Operator | None = None
    name: str = ""
    region: Region = Region.UPDATE_RULE
    variable_kind: str | None = None   # for VARIABLE nodes: model/input/output/meta
    constant_value: float | None = None
    merge_operator: Operator | None = None
    merge_coefficient: int | None = None

    @property
    def element_count(self) -> int:
        """Number of scalar elements produced by this node."""
        count = 1
        for d in self.dims:
            count *= d
        return count

    @property
    def is_leaf(self) -> bool:
        """True for variable and constant nodes: bound, never computed."""
        return self.kind in (NodeKind.VARIABLE, NodeKind.CONSTANT)

    def sub_node_count(self, input_dims: list[tuple[int, ...]]) -> int:
        """Number of atomic scalar operations this node decomposes into.

        ``input_dims`` are the dimensions of the node's inputs in order.
        Leaves contribute no compute.  Group operations contract over the
        grouping axis, so they contribute ``K`` multiplies and ``K - 1``
        reduction operations per output element (``K`` being the extent of
        the contracted axis).
        """
        if self.is_leaf or self.kind in (NodeKind.UPDATE,):
            return 0
        if self.kind in (NodeKind.PRIMARY, NodeKind.NONLINEAR):
            return self.element_count
        if self.kind is NodeKind.GATHER:
            return self.element_count  # one move per selected element
        if self.kind is NodeKind.MERGE:
            return self.element_count
        if self.kind is NodeKind.GROUP:
            contracted = self._contracted_extent(input_dims)
            per_output = contracted if self.inner_op is not None else 0
            per_output += max(0, contracted - 1)
            extra = 1 if self.op is Operator.NORM else 0  # final sqrt
            return self.element_count * per_output + extra
        raise TranslationError(f"cannot size node of kind {self.kind}")

    def reduction_depth(self, input_dims: list[tuple[int, ...]]) -> int:
        """Critical-path depth (in dependent operations) of this node."""
        if self.kind is NodeKind.GROUP:
            contracted = self._contracted_extent(input_dims)
            depth = math.ceil(math.log2(contracted)) if contracted > 1 else 1
            if self.inner_op is not None:
                depth += 1
            if self.op is Operator.NORM:
                depth += 1
            return depth
        if self.is_leaf or self.kind is NodeKind.UPDATE:
            return 0
        return 1

    def _contracted_extent(self, input_dims: list[tuple[int, ...]]) -> int:
        if self.axis is None:
            raise TranslationError(f"group node {self.name} has no axis")
        if not input_dims:
            return 1
        dims = input_dims[0]
        if self.axis > len(dims):
            raise TranslationError(
                f"group axis {self.axis} exceeds operand rank {len(dims)} in {self.name}"
            )
        return dims[self.axis - 1]


class HDFG:
    """The hierarchical dataflow graph for one UDF."""

    def __init__(self, name: str = "hdfg") -> None:
        self.name = name
        self._nodes: dict[int, HDFGNode] = {}
        self._order: list[int] = []
        self.model_node_ids: list[int] = []
        self.input_node_ids: list[int] = []
        self.output_node_ids: list[int] = []
        self.meta_node_ids: list[int] = []
        self.update_node_id: int | None = None
        self.update_node_ids: list[int] = []
        # (model variable name, model variable node id, update node id)
        self.update_targets: list[tuple[str, int, int]] = []
        self.convergence_node_id: int | None = None
        self.merge_node_ids: list[int] = []
        self.bindings: list["VariableBinding"] = []

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: HDFGNode) -> HDFGNode:
        """Append ``node``; its inputs must already be in the graph, which
        keeps construction order a topological order.

        Raises:
            TranslationError: duplicate node id, or an unknown input id.
        """
        if node.node_id in self._nodes:
            raise TranslationError(f"duplicate node id {node.node_id}")
        for dep in node.inputs:
            if dep not in self._nodes:
                raise TranslationError(
                    f"node {node.name!r} depends on unknown node id {dep}"
                )
        self._nodes[node.node_id] = node
        self._order.append(node.node_id)
        return node

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def node(self, node_id: int) -> HDFGNode:
        """The node with id ``node_id`` (:class:`TranslationError` if absent)."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TranslationError(f"no node with id {node_id}") from None

    def nodes(self) -> list[HDFGNode]:
        """Every node, in construction (= dependency) order."""
        return [self._nodes[i] for i in self._order]

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[HDFGNode]:
        return iter(self.nodes())

    def input_dims_of(self, node: HDFGNode) -> list[tuple[int, ...]]:
        """Dimensions of ``node``'s inputs, in input order."""
        return [self.node(i).dims for i in node.inputs]

    def compute_nodes(self, regions: Iterable[Region] | None = None) -> list[HDFGNode]:
        """Non-leaf nodes, optionally filtered to the given regions."""
        selected = []
        wanted = set(regions) if regions is not None else None
        for node in self.nodes():
            if node.is_leaf or node.kind is NodeKind.UPDATE:
                continue
            if wanted is not None and node.region not in wanted:
                continue
            selected.append(node)
        return selected

    def consumers(self, node_id: int) -> list[HDFGNode]:
        """The nodes that read ``node_id``'s value, in dependency order."""
        return [n for n in self.nodes() if node_id in n.inputs]

    # ------------------------------------------------------------------ #
    # aggregate statistics used by the hardware generator
    # ------------------------------------------------------------------ #
    def topological_order(self) -> list[HDFGNode]:
        """Nodes in dependency order (construction order is already topological)."""
        return self.nodes()

    def total_sub_nodes(self, regions: Iterable[Region] | None = None) -> int:
        """Total number of atomic operations across the selected regions."""
        return sum(
            node.sub_node_count(self.input_dims_of(node))
            for node in self.compute_nodes(regions)
        )

    def critical_path_depth(self, regions: Iterable[Region] | None = None) -> int:
        """Length (in dependent atomic operations) of the longest path."""
        wanted = set(regions) if regions is not None else None
        depth: dict[int, int] = {}
        best = 0
        for node in self.nodes():
            if node.is_leaf:
                depth[node.node_id] = 0
                continue
            if wanted is not None and node.region not in wanted:
                depth[node.node_id] = max(
                    (depth.get(i, 0) for i in node.inputs), default=0
                )
                continue
            own = node.reduction_depth(self.input_dims_of(node))
            depth[node.node_id] = own + max(
                (depth.get(i, 0) for i in node.inputs), default=0
            )
            best = max(best, depth[node.node_id])
        return best

    def required_operators(self) -> set[Operator]:
        """The set of ALU operations the accelerator must support."""
        ops: set[Operator] = set()
        for node in self.nodes():
            if node.op is not None and node.kind is not NodeKind.GROUP:
                ops.add(node.op)
            if node.kind is NodeKind.GROUP:
                from repro.dsl.operations import GROUP_REDUCE_OP

                ops.add(GROUP_REDUCE_OP[node.op])
                if node.inner_op is not None:
                    ops.add(node.inner_op)
                if node.op is Operator.NORM:
                    ops.add(Operator.SQRT)
            if node.merge_operator is not None:
                ops.add(node.merge_operator)
        return ops

    def summary(self) -> dict[str, int]:
        """Compact statistics dictionary (useful for reports and tests)."""
        return {
            "nodes": len(self),
            "compute_nodes": len(self.compute_nodes()),
            "sub_nodes_update_rule": self.total_sub_nodes([Region.UPDATE_RULE]),
            "sub_nodes_post_merge": self.total_sub_nodes([Region.POST_MERGE]),
            "sub_nodes_convergence": self.total_sub_nodes([Region.CONVERGENCE]),
            "critical_path": self.critical_path_depth(),
            "merge_nodes": len(self.merge_node_ids),
        }


@dataclass
class VariableBinding:
    """Mapping from hDFG variable nodes back to the DSL declarations."""

    node_id: int
    name: str
    kind: str
    dims: tuple[int, ...]
    value: float | None = None
    column_slice: tuple[int, int] | None = field(default=None)
