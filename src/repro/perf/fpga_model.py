"""FPGA-side runtime models: DAnA, DAnA-without-Striders and TABLA.

The model drives the same hardware-generation pipeline the functional
simulator uses (DSL → hDFG → hardware generator → design point) with the
*paper-scale* dataset statistics and converts cycles into seconds at the
FPGA frequency.  The cycles come from the cycle ledger
(:mod:`repro.hw.ledger`), so the figures are priced by the machine the
tests execute: **compute** is the chosen design point's
``compute_cycles_per_epoch`` (the estimator's ``engine_epoch_cost`` of Table
3's tuple count), the **Strider walk** is ``Strider.walk_cost`` at Table 3's
tuple width and mean tuples per page, composed over its pages by
``AccessEngineStats.of_page_runs``.  Stated here is what is model-only:

* AXI seconds for the bytes Table 3 lists; the data stage is the slower of
  Strider walk and AXI transfer;
* access and execution engines are interleaved, so one epoch costs the
  maximum of the two (plus a small non-overlappable fraction);
* with Striders disabled the CPU extracts and transforms every tuple and
  the transformation cannot be overlapped with the accelerator, which is
  exactly the ablation of Figure 11;
* TABLA is modelled as a single-threaded accelerator fed by the CPU, the
  configuration the paper compares against in Figure 16.

LRMF needs one special case: Table 3 stores one tuple per matrix row (a
dense vector of ratings), and the factor-update chain through the shared
column factors limits how much of that row can be processed in parallel.
The model caps the usable lanes at ``16 × rank``, which reproduces the
paper's observations that LRMF neither scales with threads (Figure 12) nor
with bandwidth (Figure 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algorithms import get_algorithm
from repro.algorithms.base import Hyperparameters
from repro.compiler.hardware_generator import AcceleratorDesign, HardwareGenerator
from repro.data.workloads import PAGE_SIZE, Workload
from repro.hw.access_engine import AccessEngineStats
from repro.hw.fpga import DEFAULT_FPGA, FPGASpec
from repro.hw.strider import Strider, StriderStats
from repro.perf.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.perf.io_model import IOModel
from repro.perf.report import RuntimeBreakdown
from repro.rdbms.page import PageLayout

#: the page format Table 3 counts its pages in.
PAPER_LAYOUT = PageLayout(page_size=PAGE_SIZE)


@dataclass
class EpochCost:
    """Per-epoch cycle/second accounting for one DAnA configuration."""

    compute_seconds: float
    data_seconds: float
    cpu_extract_seconds: float = 0.0
    detail: dict = field(default_factory=dict)

    def engine_seconds(self, non_overlap_fraction: float, overlapped: bool) -> float:
        """Wall seconds per epoch, with or without compute/data overlap."""
        if overlapped:
            base = max(self.compute_seconds, self.data_seconds)
            extra = non_overlap_fraction * min(self.compute_seconds, self.data_seconds)
            return base + extra + self.cpu_extract_seconds
        return self.compute_seconds + self.data_seconds + self.cpu_extract_seconds


class DAnAModel:
    """End-to-end runtime model of DAnA-enhanced PostgreSQL."""

    system_name = "DAnA+PostgreSQL"

    def __init__(
        self,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        fpga: FPGASpec = DEFAULT_FPGA,
        merge_coefficient: int = 16,
        use_striders: bool = True,
        max_threads: int | None = None,
        system_name: str | None = None,
    ) -> None:
        self.cost_model = cost_model
        self.fpga = fpga
        self.merge_coefficient = merge_coefficient
        self.use_striders = use_striders
        self.max_threads = max_threads
        self.io_model = IOModel(cost_model)
        if system_name:
            self.system_name = system_name
        self._design_cache: dict[tuple, tuple[AcceleratorDesign, object, Strider]] = {}

    # ------------------------------------------------------------------ #
    # hardware generation at paper scale
    # ------------------------------------------------------------------ #
    def design_for(self, workload: Workload) -> tuple[AcceleratorDesign, object]:
        """Generate (and cache) the accelerator design for one workload."""
        return self._generated(workload)[:2]

    def _generated(self, workload: Workload) -> tuple[AcceleratorDesign, object, Strider]:
        """The cached design, its hDFG and a Strider on the compiled page walk."""
        key = (
            workload.name,
            self.merge_coefficient,
            self.max_threads,
            self.fpga.dsp_slices,
            round(self.fpga.axi_bandwidth_gbps, 6),
        )
        if key in self._design_cache:
            return self._design_cache[key]
        # LRMF has no merge function (row-addressed Hogwild updates), so a
        # single thread with the full AC allocation is the design the
        # hardware generator would settle on; the functional topology is
        # irrelevant for timing, so a small stand-in builds instantly.
        lrmf = workload.algorithm_key == "lrmf"
        merge_coefficient = 1 if lrmf else self.merge_coefficient
        spec = get_algorithm(workload.algorithm_key).build_spec(
            workload.n_features,
            Hyperparameters(merge_coefficient=merge_coefficient),
            (64, 64, workload.n_features) if lrmf else (),
        )
        from repro.translator import translate

        graph = translate(spec.algo)
        generator = HardwareGenerator(
            graph,
            PAPER_LAYOUT,
            spec.schema,
            self.fpga,
            merge_coefficient=merge_coefficient,
            n_tuples=workload.paper_tuples,
            max_threads=self.max_threads,
        )
        strider = Strider(generator.strider_compilation.program, self.fpga.bram_read_width_bytes)
        self._design_cache[key] = (generator.generate(), graph, strider)
        return self._design_cache[key]

    # ------------------------------------------------------------------ #
    # per-epoch cost
    # ------------------------------------------------------------------ #
    def epoch_cost(self, workload: Workload) -> EpochCost:
        """Compute/data/extract seconds for one epoch of this workload."""
        design, _graph = self.design_for(workload)
        frequency = self.fpga.frequency_hz
        point = design.design_point

        if workload.algorithm_key == "lrmf":
            compute_cycles = self._lrmf_compute_cycles(workload, design)
        else:  # priced by the estimator, with the engine's own epoch function
            compute_cycles = point.compute_cycles_per_epoch
        compute_seconds = compute_cycles / frequency

        walk = StriderStats(cycles=self.strider_cycles_per_page(workload))
        walked = AccessEngineStats.of_page_runs(
            [(walk, workload.paper_pages)],
            design.access_engine_config,
            self.fpga.axi_bytes_per_cycle,
        )
        strider_seconds = walked.strider_cycles_critical / frequency
        axi_seconds = workload.paper_size_bytes / self.fpga.axi_bytes_per_second
        data_seconds = max(strider_seconds, axi_seconds) if self.use_striders else axi_seconds

        cpu_extract_seconds = 0.0
        if not self.use_striders:
            cpu_extract_seconds = (
                workload.paper_tuples * self.cost_model.dana.cpu_extract_per_tuple_s
            )
        return EpochCost(
            compute_seconds=compute_seconds,
            data_seconds=data_seconds,
            cpu_extract_seconds=cpu_extract_seconds,
            detail={
                "threads": design.threads,
                "update_rule_cycles": point.update_rule_cycles,
                "merge_cycles": point.merge_cycles,
                "post_merge_cycles": point.post_merge_cycles,
                "strider_seconds": strider_seconds,
                "axi_seconds": axi_seconds,
                "num_striders": design.num_striders,
            },
        )

    def _lrmf_compute_cycles(self, workload: Workload, design: AcceleratorDesign) -> float:
        rank = workload.n_features
        algorithm = get_algorithm("lrmf")
        flops_per_rating = algorithm.flops_per_tuple(rank)
        lanes = min(design.acs_per_thread * design.aus_per_cluster, 16 * rank)
        cycles_per_tuple = workload.ratings_per_tuple * flops_per_rating / max(1, lanes)
        return workload.paper_tuples * cycles_per_tuple

    def strider_cycles_per_page(self, workload: Workload) -> float:
        """Cycles of walking a mean Table 3 page: the ledger's
        ``Strider.walk_cost`` at Table 3's tuple width.  The closed form is
        affine in the tuple count, so the (fractional) mean tuples per page
        prices the sum over all pages exactly."""
        strider = self._generated(workload)[2]
        tuple_bytes = PAPER_LAYOUT.tuple_header_size + workload.tuple_bytes
        empty, one = strider.walk_cost(tuple_bytes, [0, 1])
        return empty.cycles + (one.cycles - empty.cycles) * workload.tuples_per_page

    # ------------------------------------------------------------------ #
    # end-to-end estimate
    # ------------------------------------------------------------------ #
    def estimate(self, workload: Workload, epochs: int, warm_cache: bool = True) -> RuntimeBreakdown:
        """End-to-end runtime breakdown on the modelled accelerator."""
        cost = self.epoch_cost(workload)
        dana = self.cost_model.dana
        per_epoch = cost.engine_seconds(dana.non_overlap_fraction, overlapped=self.use_striders)
        engine_total = epochs * per_epoch
        io = self.io_model.total_io_seconds(workload, warm_cache, epochs)
        compute_share = epochs * cost.compute_seconds
        data_share = max(0.0, engine_total - compute_share)
        return RuntimeBreakdown(
            system=self.system_name,
            workload=workload.name,
            io=io,
            data_movement=data_share,
            compute=compute_share,
            overhead=dana.per_query_overhead_s,
            detail={
                "epochs": epochs,
                "per_epoch_s": per_epoch,
                "use_striders": self.use_striders,
                **cost.detail,
            },
        )

    # ------------------------------------------------------------------ #
    # sensitivity-study constructors
    # ------------------------------------------------------------------ #
    def with_bandwidth_scale(self, scale: float) -> "DAnAModel":
        """This model with AXI bandwidth scaled (Figure 14 sweep helper)."""
        return DAnAModel(
            cost_model=self.cost_model,
            fpga=self.fpga.with_bandwidth_scale(scale),
            merge_coefficient=self.merge_coefficient,
            use_striders=self.use_striders,
            max_threads=self.max_threads,
            system_name=self.system_name,
        )

    def without_striders(self) -> "DAnAModel":
        """The Figure 11 ablation: same design, CPU-side extraction."""
        return DAnAModel(
            cost_model=self.cost_model,
            fpga=self.fpga,
            merge_coefficient=self.merge_coefficient,
            use_striders=False,
            max_threads=self.max_threads,
            system_name="DAnA w/o Striders",
        )


class TABLAModel(DAnAModel):
    """TABLA-style single-threaded accelerator without database integration.

    TABLA generates a high-quality single-threaded design for the same
    update rules, but it is fed by the CPU (no Striders walking the buffer
    pool) and cannot run multiple update-rule threads, which is exactly the
    gap Figure 16 quantifies.
    """

    system_name = "TABLA"

    def __init__(
        self,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        fpga: FPGASpec = DEFAULT_FPGA,
    ) -> None:
        super().__init__(
            cost_model=cost_model,
            fpga=fpga,
            merge_coefficient=1,
            use_striders=False,
            max_threads=1,
            system_name="TABLA",
        )
