"""Analytic Cluster (AC): eight AUs running in selective-SIMD lockstep.

The AC (paper Figure 7a) is the control hub of its AUs: it decodes one
cluster-level instruction per step, sends control signals to the AUs whose
enable bit is set, and advances its program counter once all designated AUs
complete.  Each AU is connected to its two neighbours and to a shared
line-topology bus owned by the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ExecutionEngineError
from repro.hw.alu import ALU
from repro.hw.analytic_unit import AnalyticUnit
from repro.isa.engine_isa import AUS_PER_CLUSTER, ACInstruction, DestKind


@dataclass
class ACStats:
    """Execution counters of one analytic cluster."""

    instructions_executed: int = 0
    cycles: int = 0
    operations_executed: int = 0
    bus_transfers: int = 0


class AnalyticCluster:
    """A collection of AUs sharing a controller, program counter and bus."""

    def __init__(self, cluster_id: int, alu: ALU | None = None, aus_per_cluster: int = AUS_PER_CLUSTER) -> None:
        self.cluster_id = cluster_id
        self.aus = [AnalyticUnit(i, alu=alu) for i in range(aus_per_cluster)]
        # neighbour connections (line topology with wrap-around at the ends)
        for i, au in enumerate(self.aus):
            au.left = self.aus[i - 1] if i > 0 else None
            au.right = self.aus[i + 1] if i < len(self.aus) - 1 else None
        self.program_counter = 0
        self.stats = ACStats()

    def au(self, index: int) -> AnalyticUnit:
        """The cluster's ``index``-th analytic unit."""
        if not 0 <= index < len(self.aus):
            raise ExecutionEngineError(
                f"AC{self.cluster_id} has no AU {index} (cluster width is {len(self.aus)})"
            )
        return self.aus[index]

    def execute_instruction(self, instruction: ACInstruction) -> dict[int, float]:
        """Execute one selective-SIMD instruction; returns per-AU results."""
        if instruction.cluster_id != self.cluster_id:
            raise ExecutionEngineError(
                f"instruction for AC{instruction.cluster_id} issued to AC{self.cluster_id}"
            )
        results: dict[int, float] = {}
        bus_values: list[float] = []
        for slot in instruction.au_slots:
            au = self.au(slot.au_index)
            value = au.execute(instruction.operation, slot)
            results[slot.au_index] = value
            if slot.dest_kind is DestKind.BUS:
                bus_values.append(value)
        # Values destined for the bus become visible to every AU's FIFO.
        if bus_values:
            self.stats.bus_transfers += len(bus_values)
            for au in self.aus:
                au.bus_fifo.extend(bus_values)
        self.program_counter += 1
        self.stats.instructions_executed += 1
        self.stats.cycles += instruction.latency
        self.stats.operations_executed += instruction.enabled_au_count
        return results

    def reset(self) -> None:
        """Rewind the program counter and clear every AU's memory, FIFO and register."""
        self.program_counter = 0
        for au in self.aus:
            au.data_memory.clear()
            au.bus_fifo.clear()
            au.register = 0.0
