"""Arithmetic Logic Unit of an Analytic Unit.

The ALU executes both the basic mathematical operations and the complicated
non-linear operations (sigmoid, gaussian, square root); its internals are
reconfigured according to the operations required by the hDFG (paper §5.2),
which the hardware generator expresses by listing the supported operators.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.exceptions import ExecutionEngineError
from repro.dsl.operations import ALU_LATENCY, Operator


class ALU:
    """A single reconfigurable ALU supporting a fixed set of operators."""

    def __init__(self, supported_ops: Iterable[Operator] | None = None) -> None:
        self.supported_ops = frozenset(supported_ops) if supported_ops is not None else None

    def supports(self, op: Operator) -> bool:
        """True when the ALU was synthesised with ``op`` (all ops when unrestricted)."""
        return self.supported_ops is None or op in self.supported_ops

    def latency(self, op: Operator) -> int:
        """Cycles ``op`` occupies the ALU (at least one)."""
        return max(1, ALU_LATENCY.get(op, 1))

    def execute(self, op: Operator, a: float, b: float = 0.0) -> float:
        """Apply ``op`` to scalar operands."""
        if not self.supports(op):
            raise ExecutionEngineError(
                f"the ALU was not synthesised with support for {op.value!r}"
            )
        if op is Operator.ADD:
            return a + b
        if op is Operator.SUB:
            return a - b
        if op is Operator.MUL:
            return a * b
        if op is Operator.DIV:
            if b == 0.0:
                raise ExecutionEngineError("division by zero in the execution engine")
            return a / b
        if op is Operator.GT:
            return 1.0 if a > b else 0.0
        if op is Operator.LT:
            return 1.0 if a < b else 0.0
        if op is Operator.SIGMOID:
            return 1.0 / (1.0 + math.exp(-a))
        if op is Operator.GAUSSIAN:
            return math.exp(-(a * a))
        if op is Operator.SQRT:
            if a < 0:
                raise ExecutionEngineError("square root of a negative value")
            return math.sqrt(a)
        raise ExecutionEngineError(f"ALU cannot execute {op.value!r} directly")
