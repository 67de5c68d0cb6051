"""The cycle ledger: how schedule-derived counters are added up.

Every reported cycle is a pure function of (static schedule, tuple and
page counts).  Each stage states that function once — ``Strider.walk_cost``,
``AccessEngine.partition_cost``, ``ExecutionEngine.epoch_cost``,
``InferencePlan.forward_cost``, ``TreeBus.merge_cost`` — returning its own
stats dataclass; a run *books* it with ``stats += cost`` and ``EXPLAIN``
*predicts* by calling the same function (``docs/architecture.md``, "The
cycle ledger").  This module holds what those readers share.
"""

from __future__ import annotations

import copy
import operator
from typing import Iterable


class Ledger:
    """Field-driven ``+``, ``-``, ``*`` for a dataclass of additive counters
    (a new field is summed everywhere).  ``+=`` adds **in place**: results,
    retry checkpoints and the cached accelerator hold live stats objects."""

    def __iadd__(self, other):
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def __add__(self, other):
        return copy.copy(self).__iadd__(other)

    def __mul__(self, times: int):
        return type(self)(
            **{name: getattr(self, name) * times for name in self.__dataclass_fields__}
        )

    def __sub__(self, other):
        return self + other * -1


def critical_path_cycles(
    stages: Iterable[tuple[int, int]], merge_cycles: int = 0, *, pipelined: bool = False
) -> int:
    """Modelled wall-clock cycles of a run over concurrent segments.

    ``stages`` holds one ``(access_cycles, compute_cycles)`` pair per
    segment.  Segments run concurrently, so the run takes its slowest
    segment plus the serial cross-segment merge.  A segment pays
    extraction *then* compute, or — ``pipelined``, the streaming schedule
    where the page walk overlaps the engine — the larger of the two.
    """
    stage = max if pipelined else operator.add
    return max((stage(*pair) for pair in stages), default=0) + merge_cycles
