"""Execution binary: everything the RDBMS catalog stores for one UDF.

"The FPGA design, its schedule, operation map, and instructions are then
stored in the RDBMS catalog.  These components are executed when the query
calls for the corresponding UDF." (paper §6.2)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any

from repro.compiler.hardware_generator import AcceleratorDesign, HardwareGenerator
from repro.compiler.scheduler import Scheduler, ThreadSchedule
from repro.compiler.strider_compiler import StriderCompilationResult
from repro.translator.hdfg import HDFG, NodeKind
from repro.translator.tape import CompiledTape
from repro.translator.translate import translate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.base import AlgorithmSpec
    from repro.hw.fpga import FPGASpec
    from repro.rdbms.page import PageLayout


@dataclass
class OperationMapEntry:
    """Where one hDFG node's atomic operations execute."""

    node_id: int
    node_name: str
    kind: str
    element_count: int
    region: str


@dataclass
class ExecutionBinary:
    """Bundle of accelerator design + compiled schedules for one UDF."""

    udf_name: str
    algorithm: str
    design: AcceleratorDesign
    strider: StriderCompilationResult
    thread_schedule: ThreadSchedule
    graph: HDFG
    operation_map: list[OperationMapEntry] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        udf_name: str,
        algorithm: str,
        design: AcceleratorDesign,
        strider: StriderCompilationResult,
        thread_schedule: ThreadSchedule,
        graph: HDFG,
        metadata: dict[str, Any] | None = None,
    ) -> "ExecutionBinary":
        operation_map = [
            OperationMapEntry(
                node_id=node.node_id,
                node_name=node.name,
                kind=node.kind.value,
                element_count=node.element_count,
                region=node.region.value,
            )
            for node in graph.nodes()
            if not node.is_leaf and node.kind is not NodeKind.UPDATE
        ]
        return cls(
            udf_name=udf_name,
            algorithm=algorithm,
            design=design,
            strider=strider,
            thread_schedule=thread_schedule,
            graph=graph,
            operation_map=operation_map,
            metadata=dict(metadata or {}),
        )

    @classmethod
    def compile(
        cls,
        udf_name: str,
        spec: "AlgorithmSpec",
        layout: "PageLayout",
        fpga: "FPGASpec",
        n_tuples: int,
        metadata: dict[str, Any] | None = None,
    ) -> "ExecutionBinary":
        """Compile a spec end to end: translate → hardware generation →
        static schedule → binary.

        The one compile pipeline: the facade's per-table compile cache and
        the worker processes' in-child rebuild both call it, so a child's
        design and schedules — and every schedule-derived counter — are the
        parent's by construction.  ``n_tuples`` (the count the design is
        sized for) is recorded in the metadata: rebuilds must reuse it, not
        the live catalog count, which drifts once tables are mutable.
        """
        graph = translate(spec.algo)
        generator = HardwareGenerator(
            graph,
            layout,
            spec.schema,
            fpga,
            merge_coefficient=spec.algo.merge_coefficient,
            n_tuples=n_tuples,
        )
        design = generator.generate()
        return cls.build(
            udf_name=udf_name,
            algorithm=spec.name,
            design=design,
            strider=generator.strider_compilation,
            thread_schedule=Scheduler(graph, design.acs_per_thread).schedule(),
            graph=graph,
            metadata={**(metadata or {}), "n_tuples": n_tuples},
        )

    # ------------------------------------------------------------------ #
    # summary accessors used by reports and tests
    # ------------------------------------------------------------------ #
    @property
    def threads(self) -> int:
        return self.design.threads

    @property
    def update_rule_cycles(self) -> int:
        return self.thread_schedule.update_rule_cycles

    @property
    def instruction_footprint(self) -> int:
        return self.thread_schedule.program.instruction_footprint()

    @cached_property
    def tape(self) -> CompiledTape | None:
        """The single-engine batched tape, or ``None`` when the graph does
        not lower (such graphs train through the per-tuple evaluator).

        Compiled on first use and kept with the binary: a tape is immutable
        once compiled, so every accelerator built from this binary — one per
        segment of every sharded statement — shares it.
        """
        return CompiledTape.try_lower(self.graph)

    @cached_property
    def segment_tape(self) -> CompiledTape | None:
        """The segment-axis tape lock-step sharded runs execute, or ``None``.

        Compiled on first use and kept with the binary like :attr:`tape`
        (the planner deciding whether a run *can* go lock-step shares it
        too).  ``None`` when the graph's lowering cannot carry a segment
        axis; such graphs train per segment.
        """
        return CompiledTape.try_lower(self.graph, segment_axis=True)

    def describe(self) -> dict[str, Any]:
        return {
            "udf": self.udf_name,
            "algorithm": self.algorithm,
            "threads": self.threads,
            "acs_per_thread": self.design.acs_per_thread,
            "num_striders": self.design.num_striders,
            "strider_instructions": self.strider.program.instruction_count(),
            "engine_instructions": self.instruction_footprint,
            "update_rule_cycles": self.update_rule_cycles,
            "post_merge_cycles": self.thread_schedule.post_merge_cycles,
            "operation_map_entries": len(self.operation_map),
        }
