"""Serving cost model over the ledgers of a scan-and-score run.

The inference twin of :class:`~repro.perf.segment_model.ShardedRunCost`:
:class:`ScoreRunCost` lifts per-segment reports — the ledgers a
``ScoreResult`` measured, or the ones
:func:`~repro.perf.plan_cost.predict_score_cost` priced with the same cost
functions — through one constructor into modelled wall-clock seconds on
the FPGA, and exposes the **inference cost column** the reporting layer
attaches to sweeps: schedule-derived forward cycles per scored tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.hw.fpga import DEFAULT_FPGA, FPGASpec
from repro.hw.ledger import critical_path_cycles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.scorer import ScoreResult


@dataclass(frozen=True)
class ScoreRunCost:
    """Critical-path cycle decomposition of one measured scoring run."""

    segments: int
    tuples_scored: int
    #: per-segment stage split, in segment order: extraction (AXI +
    #: Strider page walk) vs forward-pass compute cycles.
    segment_access_cycles: tuple[int, ...] = ()
    segment_forward_cycles: tuple[int, ...] = ()
    #: True when the run streamed (page walk overlapped the forward tape):
    #: the modelled wall-clock then charges the pipelined critical path.
    stream: bool = False

    @classmethod
    def from_reports(cls, reports: Sequence, stream: bool) -> "ScoreRunCost":
        """Lift per-segment ledgers into a cost summary — the one door:
        the :class:`~repro.serving.SegmentScoreReport` objects a run
        measured (:meth:`from_result`) or the ones
        :func:`~repro.perf.plan_cost.predict_score_cost` priced."""
        return cls(
            segments=len(reports),
            tuples_scored=sum(r.tuples_scored for r in reports),
            segment_access_cycles=tuple(r.access_stats.access_cycles for r in reports),
            segment_forward_cycles=tuple(
                r.inference_stats.total_cycles for r in reports
            ),
            stream=stream,
        )

    @classmethod
    def from_result(cls, result: "ScoreResult") -> "ScoreRunCost":
        """Lift the measured per-segment counters into a cost summary."""
        return cls.from_reports(result.segments, result.stream)

    def _stages(self) -> Iterable[tuple[int, int]]:
        return zip(self.segment_access_cycles, self.segment_forward_cycles)

    @property
    def critical_path_cycles(self) -> int:
        """Slowest segment's serial extract + score path (segments overlap)."""
        return critical_path_cycles(self._stages())

    @property
    def pipelined_critical_path_cycles(self) -> int:
        """Critical path with the page walk overlapping the forward pass."""
        return critical_path_cycles(self._stages(), pipelined=True)

    @property
    def wall_cycles(self) -> int:
        """Cycles charged for the run's wall-clock.

        Streaming runs overlap the page walk with the forward tape, so
        they pay ``max(extract, forward)`` per segment
        (:attr:`pipelined_critical_path_cycles`); materialized runs pay
        the serial sum (:attr:`critical_path_cycles`).
        """
        if self.stream:
            return self.pipelined_critical_path_cycles
        return self.critical_path_cycles

    @property
    def inference_cycles_per_tuple(self) -> float:
        """The inference cost column: forward cycles per scored tuple."""
        if not self.tuples_scored:
            return 0.0
        return sum(self.segment_forward_cycles) / self.tuples_scored

    def seconds(self, fpga: FPGASpec = DEFAULT_FPGA) -> float:
        """Modelled wall-clock of the scoring run at the FPGA's clock."""
        return self.wall_cycles * fpga.cycle_time_s

    def tuples_per_second(self, fpga: FPGASpec = DEFAULT_FPGA) -> float:
        """Modelled scoring throughput at the FPGA's clock."""
        seconds = self.seconds(fpga)
        return self.tuples_scored / seconds if seconds > 0 else 0.0

