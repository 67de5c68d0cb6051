"""Hardware generator: resource allocation and accelerator configuration.

"The hardware generator finalizes the parameters of the reconfigurable
architecture for the Striders and the execution engine. [...] Sizes of the
DBMS page, model, and a single training data record determine the amount of
memory utilized by each Strider.  [...] The remainder of the BRAM memory is
assigned to the page buffer to store as many pages as possible to maximize
the off-chip bandwidth utilization.  Once the number of resident pages is
determined, the hardware generator uses the FPGA's DSP information to
calculate the number of AUs which can be synthesized on the target FPGA."
(paper §6.1)

The generator states no cost arithmetic: the page walk it hands the
design-space estimator is the cycle ledger's ``Strider.walk_cost`` of the
Strider program it just compiled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ResourceError
from repro.hw.access_engine import AccessEngineConfig
from repro.hw.fpga import DEFAULT_FPGA, FPGASpec
from repro.hw.strider import Strider
from repro.isa.engine_isa import AUS_PER_CLUSTER
from repro.rdbms.page import PageLayout
from repro.rdbms.types import Schema
from repro.translator.hdfg import HDFG
from repro.compiler.design_space import DesignPoint, DesignSpaceExplorer, WorkloadShape
from repro.compiler.strider_compiler import StriderCompilationResult, compile_strider

MAX_PAGE_BUFFERS = 64          # practical cap on concurrently-resident pages
FLOAT_BYTES = 4                # on-chip values are single-precision floats


@dataclass
class BRAMAllocation:
    """How the on-chip BRAM budget is split."""

    model_bytes: int
    training_data_bytes: int
    instruction_bytes: int
    page_buffer_bytes: int

    @property
    def total_bytes(self) -> int:
        return (
            self.model_bytes
            + self.training_data_bytes
            + self.instruction_bytes
            + self.page_buffer_bytes
        )


@dataclass
class AcceleratorDesign:
    """Final accelerator configuration chosen by the hardware generator."""

    fpga: FPGASpec
    threads: int
    acs_per_thread: int
    aus_per_cluster: int
    num_striders: int
    page_size: int
    bram: BRAMAllocation
    design_point: DesignPoint
    candidates: list[DesignPoint] = field(default_factory=list)

    @property
    def total_acs(self) -> int:
        return self.threads * self.acs_per_thread

    @property
    def total_aus(self) -> int:
        return self.total_acs * self.aus_per_cluster

    @property
    def access_engine_config(self) -> AccessEngineConfig:
        return AccessEngineConfig(
            num_striders=self.num_striders,
            page_size=self.page_size,
            read_width_bytes=self.fpga.bram_read_width_bytes,
        )


class HardwareGenerator:
    """Sizes the access and execution engines for one UDF + dataset + FPGA."""

    def __init__(
        self,
        graph: HDFG,
        layout: PageLayout,
        schema: Schema,
        fpga: FPGASpec = DEFAULT_FPGA,
        merge_coefficient: int = 1,
        n_tuples: int = 1,
        max_threads: int | None = None,
    ) -> None:
        self.graph = graph
        self.layout = layout
        self.schema = schema
        self.fpga = fpga
        self.merge_coefficient = max(1, merge_coefficient)
        self.n_tuples = max(1, n_tuples)
        self.max_threads = max_threads
        self.strider_compilation: StriderCompilationResult = compile_strider(layout, schema)

    # ------------------------------------------------------------------ #
    # BRAM budgeting
    # ------------------------------------------------------------------ #
    def _model_bytes(self) -> int:
        model_elements = sum(
            self.graph.node(i).element_count for i in self.graph.model_node_ids
        )
        return model_elements * FLOAT_BYTES

    def allocate_bram(self, threads: int) -> BRAMAllocation:
        """Split the BRAM between model copies, staged data and page buffers."""
        model_bytes = self._model_bytes() * max(1, threads)
        # staged raw training data: one extracted tuple per thread (double buffered)
        training_bytes = 2 * threads * self.schema.row_width
        # instruction buffers for striders and clusters (fixed small overhead)
        instruction_bytes = 64 * 1024
        reserved = model_bytes + training_bytes + instruction_bytes
        if reserved >= self.fpga.bram_bytes:
            raise ResourceError(
                f"model and staging storage ({reserved} bytes) exceed the "
                f"{self.fpga.bram_bytes}-byte BRAM of {self.fpga.name}"
            )
        remaining = self.fpga.bram_bytes - reserved
        num_pages = min(MAX_PAGE_BUFFERS, max(1, remaining // self.layout.page_size))
        return BRAMAllocation(
            model_bytes=model_bytes,
            training_data_bytes=training_bytes,
            instruction_bytes=instruction_bytes,
            page_buffer_bytes=num_pages * self.layout.page_size,
        )

    def num_page_buffers(self, threads: int) -> int:
        allocation = self.allocate_bram(threads)
        return max(1, allocation.page_buffer_bytes // self.layout.page_size)

    # ------------------------------------------------------------------ #
    # design generation
    # ------------------------------------------------------------------ #
    def workload_shape(self) -> WorkloadShape:
        tuples_per_page = max(1, self.layout.tuples_per_page(self.schema))
        return WorkloadShape(
            n_tuples=self.n_tuples,
            tuples_per_page=tuples_per_page,
            page_size=self.layout.page_size,
        )

    def strider_cycles_per_page(self) -> int:
        """Cycles of walking one full page: the ledger's ``Strider.walk_cost``
        of the program just compiled, i.e. the interpreter's count."""
        strider = Strider(self.strider_compilation.program, self.fpga.bram_read_width_bytes)
        tuple_bytes = self.layout.tuple_header_size + self.schema.row_width
        full_page = max(1, self.layout.tuples_per_page(self.schema))
        return strider.walk_cost(tuple_bytes, [full_page])[0].cycles

    def generate(self) -> AcceleratorDesign:
        """Choose the best design point and return the accelerator design."""
        # Page buffers are sized with a single-thread model reservation first;
        # the final thread count only changes the (small) model replication.
        provisional_buffers = self.num_page_buffers(threads=1)
        explorer = DesignSpaceExplorer(
            graph=self.graph,
            fpga=self.fpga,
            workload=self.workload_shape(),
            merge_coefficient=(
                min(self.merge_coefficient, self.max_threads)
                if self.max_threads
                else self.merge_coefficient
            ),
            strider_cycles_per_page=self.strider_cycles_per_page(),
            num_striders=provisional_buffers,
        )
        candidates = explorer.explore()
        best = explorer.best(candidates)
        bram = self.allocate_bram(best.threads)
        num_striders = max(1, bram.page_buffer_bytes // self.layout.page_size)
        return AcceleratorDesign(
            fpga=self.fpga,
            threads=best.threads,
            acs_per_thread=best.acs_per_thread,
            aus_per_cluster=AUS_PER_CLUSTER,
            num_striders=num_striders,
            page_size=self.layout.page_size,
            bram=bram,
            design_point=best,
            candidates=candidates,
        )
