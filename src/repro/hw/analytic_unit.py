"""Analytic Unit (AU): the basic compute element of the execution engine.

An AU (paper Figure 7b) owns a private data-memory scratchpad, can read
operands from that memory, from the registers of its left/right neighbours,
from the intra-cluster bus FIFO or from an immediate, runs the operation
through its ALU and routes the result to memory, its neighbours, the bus or
the thread output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import ExecutionEngineError
from repro.dsl.operations import Operator
from repro.hw.alu import ALU
from repro.isa.engine_isa import AUInstruction, AUOperand, DestKind, SourceKind


@dataclass
class AUStats:
    """Execution counters of one analytic unit."""

    operations_executed: int = 0
    memory_reads: int = 0
    memory_writes: int = 0
    neighbor_reads: int = 0
    bus_reads: int = 0


class AnalyticUnit:
    """One pipelined compute lane inside an Analytic Cluster."""

    def __init__(self, index: int, alu: ALU | None = None, memory_words: int = 4096) -> None:
        self.index = index
        self.alu = alu or ALU()
        self.memory_words = memory_words
        self.data_memory: dict[int, float] = {}
        self.register: float = 0.0        # value visible to the neighbours
        self.bus_fifo: deque[float] = deque()
        self.stats = AUStats()
        self.left: "AnalyticUnit | None" = None
        self.right: "AnalyticUnit | None" = None

    # ------------------------------------------------------------------ #
    # memory
    # ------------------------------------------------------------------ #
    def write_memory(self, address: int, value: float) -> None:
        """Store ``value`` in scratchpad word ``address``."""
        if address < 0 or address >= self.memory_words:
            raise ExecutionEngineError(
                f"AU{self.index} memory write to {address} outside scratchpad "
                f"of {self.memory_words} words"
            )
        self.data_memory[address] = float(value)
        self.stats.memory_writes += 1

    def read_memory(self, address: int) -> float:
        """Load scratchpad word ``address`` (it must have been written)."""
        self.stats.memory_reads += 1
        try:
            return self.data_memory[address]
        except KeyError:
            raise ExecutionEngineError(
                f"AU{self.index} read of uninitialised scratchpad word {address}"
            ) from None

    # ------------------------------------------------------------------ #
    # operand fetch and execution
    # ------------------------------------------------------------------ #
    def fetch(self, operand: AUOperand) -> float:
        """Resolve one instruction operand: immediate, scratchpad, neighbour or bus."""
        kind = operand.kind
        if kind is SourceKind.IMMEDIATE:
            return operand.value
        if kind is SourceKind.DATA_MEMORY:
            return self.read_memory(operand.address)
        if kind is SourceKind.LEFT_NEIGHBOR:
            self.stats.neighbor_reads += 1
            if self.left is None:
                raise ExecutionEngineError(f"AU{self.index} has no left neighbour")
            return self.left.register
        if kind is SourceKind.RIGHT_NEIGHBOR:
            self.stats.neighbor_reads += 1
            if self.right is None:
                raise ExecutionEngineError(f"AU{self.index} has no right neighbour")
            return self.right.register
        if kind is SourceKind.BUS:
            self.stats.bus_reads += 1
            if not self.bus_fifo:
                raise ExecutionEngineError(f"AU{self.index} bus FIFO is empty")
            return self.bus_fifo.popleft()
        if kind is SourceKind.NONE:
            return 0.0
        raise ExecutionEngineError(f"unknown operand source {kind}")

    def execute(self, operation: Operator, slot: AUInstruction) -> float:
        """Execute one ALU operation described by an AU slot."""
        a = self.fetch(slot.src_a)
        b = self.fetch(slot.src_b)
        result = self.alu.execute(operation, a, b)
        self.stats.operations_executed += 1
        self.register = result
        if slot.dest_kind is DestKind.DATA_MEMORY:
            self.write_memory(slot.dest_address, result)
        elif slot.dest_kind is DestKind.BUS:
            # placed on the shared intra-cluster bus by the cluster controller
            pass
        elif slot.dest_kind is DestKind.NEIGHBORS:
            pass  # the register update above makes it visible to the neighbours
        elif slot.dest_kind is DestKind.OUTPUT:
            pass  # collected by the execution engine / tree bus
        return result
