"""Segment-sweep cost model over the ledgers of a sharded training run.

The analytical Greenplum model (:class:`~repro.perf.cpu_model.GreenplumModel`)
regenerates Figure 13 from calibrated constants.  This module is its
functional twin for the sharded DAnA subsystem: :class:`ShardedRunCost`
lifts per-segment reports — the ledgers a ``ShardedRunResult`` measured,
or the ones :func:`~repro.perf.plan_cost.predict_train_cost` priced with
the same cost functions — through one constructor into modelled wall-clock
on the FPGA (segments run concurrently: the slowest one plus the serial
cross-segment merge), and :func:`measured_segment_sweep` normalises measured
runs for the Figure 13 harness.  Nothing here prices a cycle: every number
is lifted from ledgers the stage functions (:mod:`repro.hw.ledger`) produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TYPE_CHECKING

import numpy as np

from repro.hw.fpga import DEFAULT_FPGA, FPGASpec
from repro.hw.ledger import critical_path_cycles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.sharded import ShardedRunResult

#: modelled pipe throughput for pickled worker payloads.  Unix-pipe copies
#: of the small (KB-scale) state dicts land around a few GB/s on commodity
#: hosts; like the Greenplum model's constants this is a calibration knob,
#: not a measurement.
DEFAULT_IPC_BANDWIDTH_BYTES_PER_S = 2e9
#: modelled latency of one blocking send/recv pair on a worker pipe
#: (syscall + scheduler wakeup on both sides).
DEFAULT_IPC_ROUND_TRIP_S = 50e-6


@dataclass(frozen=True)
class ShardedRunCost:
    """Critical-path cycle decomposition of one sharded run, measured or predicted."""

    segments: int
    epochs_run: int
    #: the slowest segment's serial AXI + Strider + engine cycles.
    critical_segment_cycles: int
    cross_merge_cycles: int
    model_elements: int
    #: per-segment stage split: extraction (AXI + Strider) vs
    #: execution-engine cycles, in segment order.
    segment_access_cycles: tuple[int, ...] = ()
    segment_engine_cycles: tuple[int, ...] = ()
    #: cross-segment merges the run performed (or is predicted to).
    merges_performed: int = 0
    #: host-side IPC the run paid to ship state over worker pipes.  Both
    #: are zero for lockstep/threads runs (everything stays in one address
    #: space); ``execution="processes"`` books pickled model/stat payloads
    #: here via :class:`~repro.cluster.fanout.IPCStats`.
    ipc_bytes: int = 0
    ipc_round_trips: int = 0

    @classmethod
    def from_reports(cls, reports: Sequence, **run_fields: int) -> "ShardedRunCost":
        """Lift per-segment ledgers into a cost summary — the one door.

        ``reports`` carry ``access_stats`` and ``engine_stats``: the
        :class:`~repro.cluster.SegmentReport` objects a run measured
        (:meth:`from_run`) or the ones ``predict_train_cost`` priced;
        ``run_fields`` are the run-level fields (epochs, merges, IPC, ...).
        """
        access = tuple(r.access_stats.access_cycles for r in reports)
        engine = tuple(r.engine_stats.total_cycles for r in reports)
        return cls(
            segments=len(reports),
            critical_segment_cycles=critical_path_cycles(zip(access, engine)),
            segment_access_cycles=access,
            segment_engine_cycles=engine,
            **run_fields,
        )

    @classmethod
    def from_run(cls, run) -> "ShardedRunCost":
        """Lift a measured training run, sharded or single-accelerator (an
        :class:`~repro.hw.AcceleratorRunResult` is its own one-segment
        report, and nothing merges)."""
        elements = sum(int(np.size(v)) for v in run.models.values())
        cluster = getattr(run, "cluster", None)
        if cluster is None:
            return cls.from_reports(
                [run],
                epochs_run=run.training.epochs_run,
                cross_merge_cycles=0,
                model_elements=elements,
            )
        return cls.from_reports(
            run.segments,
            epochs_run=run.epochs_run,
            cross_merge_cycles=cluster.cross_merge_cycles,
            model_elements=elements,
            merges_performed=cluster.merges_performed,
            ipc_bytes=cluster.ipc.bytes_shipped,
            ipc_round_trips=cluster.ipc.round_trips,
        )

    @property
    def critical_path_cycles(self) -> int:
        """Same quantity as ``ShardedRunResult.critical_path_cycles``."""
        return self.critical_segment_cycles + self.cross_merge_cycles

    @property
    def pipelined_critical_path_cycles(self) -> int:
        """Critical path when the epoch runtime pipelines its stages:
        streaming extraction overlaps the page walk with engine compute,
        so a segment pays ``max(extract, exec)`` instead of their sum."""
        return critical_path_cycles(
            zip(self.segment_access_cycles, self.segment_engine_cycles),
            self.cross_merge_cycles,
            pipelined=True,
        )

    @property
    def pipeline_speedup(self) -> float:
        """Modelled serial / pipelined critical-path ratio (>= 1.0)."""
        return self.critical_path_cycles / max(1, self.pipelined_critical_path_cycles)

    def seconds(self, fpga: FPGASpec = DEFAULT_FPGA) -> float:
        """Modelled wall-clock of the run at the FPGA's clock."""
        return self.critical_path_cycles * fpga.cycle_time_s

    def pipelined_seconds(self, fpga: FPGASpec = DEFAULT_FPGA) -> float:
        """Modelled wall-clock of the pipelined run at the FPGA's clock."""
        return self.pipelined_critical_path_cycles * fpga.cycle_time_s

    def ipc_overhead_seconds(
        self,
        bandwidth_bytes_per_s: float = DEFAULT_IPC_BANDWIDTH_BYTES_PER_S,
        round_trip_s: float = DEFAULT_IPC_ROUND_TRIP_S,
    ) -> float:
        """Modelled host-side cost of the run's worker-pipe traffic.

        Charges every shipped byte against a pipe bandwidth and every
        blocking send/recv pair a fixed round-trip latency.  Zero for
        lockstep/threads runs, so adding this term keeps the three
        execution strategies comparable on one axis.
        """
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("IPC bandwidth must be positive")
        return (
            self.ipc_bytes / bandwidth_bytes_per_s
            + self.ipc_round_trips * round_trip_s
        )

    def total_seconds(
        self,
        fpga: FPGASpec = DEFAULT_FPGA,
        bandwidth_bytes_per_s: float = DEFAULT_IPC_BANDWIDTH_BYTES_PER_S,
        round_trip_s: float = DEFAULT_IPC_ROUND_TRIP_S,
    ) -> float:
        """Modelled wall-clock including host-side IPC overhead.

        ``seconds()`` is the device-only critical path; a process-parallel
        run additionally serialises state over pipes each window, and this
        is where that term is booked.
        """
        return self.seconds(fpga) + self.ipc_overhead_seconds(
            bandwidth_bytes_per_s, round_trip_s
        )


def measured_segment_sweep(
    runs: dict[int, "ShardedRunResult"],
    reference_segments: int = 8,
    fpga: FPGASpec = DEFAULT_FPGA,
) -> dict[int, dict]:
    """Normalised critical-path comparison of measured sharded runs.

    ``runs`` maps segment count to its run; the result maps segment count
    to ``{cycles, seconds, speedup_vs_reference}``, the functional-path
    columns of the Figure 13 harness.
    """
    if reference_segments not in runs:
        raise ValueError(
            f"reference segment count {reference_segments} missing from runs"
        )
    reference = ShardedRunCost.from_run(runs[reference_segments]).critical_path_cycles
    table: dict[int, dict] = {}
    for segments, run in sorted(runs.items()):
        cost = ShardedRunCost.from_run(run)
        table[segments] = {
            "cycles": cost.critical_path_cycles,
            "seconds": cost.seconds(fpga),
            "speedup_vs_reference": round(
                reference / max(1, cost.critical_path_cycles), 3
            ),
            "pipelined_cycles": cost.pipelined_critical_path_cycles,
            "pipeline_speedup": round(cost.pipeline_speedup, 3),
        }
    return table
