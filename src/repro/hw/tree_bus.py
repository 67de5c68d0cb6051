"""Computationally-enabled tree bus that merges per-thread results.

"Results across the threads are combined via a computationally-enabled tree
bus in accordance to the merge function.  This bus has attached ALUs to
perform computations on in-flight data." (paper §5.2)

The tree bus combines the merge-node value of every active thread pairwise,
level by level, using the merge operator, so merging ``T`` threads of an
``E``-element vector costs ``ceil(log2(T))`` levels of ``E`` element-wise
operations each.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ExecutionEngineError
from repro.dsl.operations import Operator
from repro.hw.alu import ALU
from repro.hw.ledger import TreeBusStats


class TreeBus:
    """Pairwise reduction network across execution-engine threads."""

    def __init__(self, alu_count: int = 8, alu: ALU | None = None) -> None:
        if alu_count < 1:
            raise ExecutionEngineError("the tree bus needs at least one ALU")
        self.alu_count = alu_count
        self.alu = alu or ALU()
        self.stats = TreeBusStats()

    def merge(self, values: list[np.ndarray], operator: Operator) -> np.ndarray:
        """Combine per-thread arrays pairwise with ``operator``."""
        if not values:
            raise ExecutionEngineError("cannot merge an empty set of thread results")
        current = [np.asarray(v, dtype=np.float64) for v in values]
        element_count = int(np.asarray(current[0]).size)
        value_count = len(current)
        while len(current) > 1:
            nxt: list[np.ndarray] = []
            for i in range(0, len(current) - 1, 2):
                left, right = current[i], current[i + 1]
                combined = np.vectorize(
                    lambda a, b: self.alu.execute(operator, float(a), float(b))
                )(left, right) if left.size <= 64 else self._bulk(operator, left, right)
                nxt.append(np.asarray(combined, dtype=np.float64))
            if len(current) % 2 == 1:
                nxt.append(current[-1])
            current = nxt
        self.account_merge(value_count, element_count)
        return current[0]

    def merge_cost(self, value_count: int, element_count: int) -> TreeBusStats:
        """What one pairwise merge of ``value_count`` values books.

        The one statement of the bus cost model: the values are halved level
        by level, each level costing ``ceil(elements / ALUs)`` cycles and
        one operation per paired element.  :meth:`merge` books it after
        materialising the reduction, the batched tape (one ``ufunc.reduce``)
        through the engine's epoch cost, ``EXPLAIN`` prices merges with it.
        """
        if value_count < 1:
            raise ExecutionEngineError("cannot merge an empty set of thread results")
        cost = TreeBusStats(merges_performed=1)
        level_cycles = math.ceil(element_count / self.alu_count)
        remaining = value_count
        while remaining > 1:
            pairs = remaining // 2
            cost.operations_executed += pairs * element_count
            cost.cycles += level_cycles
            cost.levels_traversed += 1
            remaining -= pairs
        return cost

    def account_merge(self, value_count: int, element_count: int, repeat: int = 1) -> None:
        """Book ``repeat`` identical merges (see :meth:`merge_cost`)."""
        cost = self.merge_cost(value_count, element_count)
        if repeat >= 1:
            self.stats += cost * repeat

    def merge_cycles(self, thread_count: int, element_count: int) -> int:
        """Cycles of merging ``thread_count`` values, without booking them."""
        return self.merge_cost(max(1, thread_count), element_count).cycles

    def _bulk(self, operator: Operator, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Vectorised fallback for wide merges (functionally identical)."""
        if operator is Operator.ADD:
            return left + right
        if operator is Operator.MUL:
            return left * right
        if operator is Operator.SUB:
            return left - right
        if operator is Operator.DIV:
            return left / right
        raise ExecutionEngineError(f"unsupported merge operator {operator.value!r}")
