"""The cycle ledger: how schedule-derived counters are added up.

Every reported cycle is a pure function of (static schedule, tuple and
page counts).  Each stage states that function once — ``Strider.walk_cost``,
``AccessEngineStats.of_page_runs`` (the wave composition),
:func:`engine_epoch_cost`, ``InferencePlan.forward_cost``,
``TreeBus.merge_cost`` — returning its own stats dataclass, and everything
else reads it: a run *books* it with ``stats += cost``, ``EXPLAIN``
*predicts* with it, the design-space estimator *chooses* a design with it
and the paper-scale FPGA model *prices the figures* with it
(``docs/architecture.md``, "The cycle ledger").  This module holds what
those readers share; it imports only the standard library, so
``repro.compiler`` can import the engine's stage function from here
although ``hw/execution_engine.py`` imports the compiler's scheduler.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence


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


@dataclass
class TreeBusStats(Ledger):
    """Counters of the merges a tree bus performed."""

    merges_performed: int = 0
    levels_traversed: int = 0
    operations_executed: int = 0
    cycles: int = 0


@dataclass
class EngineRunStats(Ledger):
    """Counters accumulated while training."""

    tuples_processed: int = 0
    batches_processed: int = 0
    epochs_completed: int = 0
    update_rule_cycles: int = 0
    merge_cycles: int = 0
    post_merge_cycles: int = 0
    convergence_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        """Every region's cycles, summed."""
        return (
            self.update_rule_cycles
            + self.merge_cycles
            + self.post_merge_cycles
            + self.convergence_cycles
        )


def engine_epoch_cost(
    n_tuples: int,
    *,
    batch_size: int,
    threads: int,
    region_cycles: tuple[int, int, int],
    merge_widths: Sequence[int],
    bus,
    epoch_end: bool = True,
) -> tuple[EngineRunStats, TreeBusStats]:
    """What one epoch over ``n_tuples`` tuples books: engine and thread bus.

    The one statement of the engine cycle model, from counts alone:
    ``region_cycles`` are one thread's (update-rule, post-merge,
    convergence) lengths — the static schedule's for a run, the scheduler's
    estimate for the design-space estimator — ``merge_widths`` each merge
    node's element count and ``bus`` the ``TreeBus`` that prices a merge.
    Full merge batches of ``batch_size`` plus one remainder batch; the
    threads run in lock-step, so a batch needs ``ceil(batch / threads)``
    rounds of the update rule, one tree-bus merge per merge node and the
    post-merge region; ``epoch_end`` adds the convergence check.
    """
    update_rule, post_merge, convergence = region_cycles
    widest_merge = max(merge_widths, default=0)
    engine, bus_cost = EngineRunStats(), TreeBusStats()
    full, remainder = divmod(n_tuples, batch_size) if n_tuples > 0 else (0, 0)
    for batch_len, count in ((batch_size, full), (remainder, 1)):
        if batch_len < 1 or count < 1:
            continue
        rounds = math.ceil(batch_len / threads)
        engine.batches_processed += count
        engine.tuples_processed += count * batch_len
        engine.update_rule_cycles += count * rounds * update_rule
        engine.merge_cycles += count * bus.merge_cycles(
            min(batch_len, threads), widest_merge
        )
        engine.post_merge_cycles += count * post_merge
        for width in merge_widths:
            bus_cost += bus.merge_cost(batch_len, width) * count
    if epoch_end:
        engine.epochs_completed = 1
        engine.convergence_cycles = convergence
    return engine, bus_cost


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
