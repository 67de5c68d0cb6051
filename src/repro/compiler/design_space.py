"""Design-space exploration for the hardware generator.

"To decide the allocation of resources to each thread vs. number of
threads, we equip the hardware generator with a performance estimation tool
that uses the static schedule of the operations for each design point to
estimate its relative performance.  It chooses the smallest and
best-performing design point which strikes a balance between the number of
cycles for data processing and transfer." (paper §6.1)

A design point fixes the number of execution-engine threads (bounded by the
merge coefficient) and therefore the number of Analytic Clusters available
to each thread.  The estimator is a *reader* of the cycle ledger
(:mod:`repro.hw.ledger`), so the cost model that picks a design is the one
the machine books; for every candidate it calls, and restates nothing of:

* compute cycles per epoch — :func:`~repro.hw.ledger.engine_epoch_cost`
  over :func:`estimate_region_cycles`' region lengths (scheduling every
  candidate of an 8,000-feature model is what the estimate avoids);
* data cycles per epoch — ``AccessEngineStats.of_page_runs``: whole pages
  at the compiled page walk's cycles, in waves of the page buffers.

Its one departure from a run is the batch size ``evaluate`` passes: a merge
batch is one round of ``threads`` tuples, where the machine runs batches of
the merge coefficient in ``ceil(batch / threads)`` rounds (equal when the
chosen thread count is the coefficient).  Estimation is viable because the
hDFG is static, there is no hardware managed cache and the architecture is
fixed during execution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.exceptions import ResourceError
from repro.hw.access_engine import AccessEngineConfig, AccessEngineStats
from repro.hw.fpga import FPGASpec
from repro.hw.ledger import engine_epoch_cost
from repro.hw.strider import StriderStats
from repro.hw.tree_bus import TreeBus
from repro.isa.engine_isa import AUS_PER_CLUSTER
from repro.translator.hdfg import HDFG, Region
from repro.compiler.scheduler import estimate_region_cycles


@dataclass(frozen=True)
class WorkloadShape:
    """The dataset statistics the estimator needs (from the RDBMS catalog)."""

    n_tuples: int
    tuples_per_page: int
    page_size: int

    @property
    def n_pages(self) -> int:
        return max(1, math.ceil(self.n_tuples / max(1, self.tuples_per_page)))


@dataclass(frozen=True)
class DesignPoint:
    """One candidate hardware configuration and its estimated performance.

    The region lengths are the scheduler's fast *estimates*; a run books the
    static schedule's, which ``ExecutionBinary.describe()`` reports under
    the same key (7 vs 8 ``update_rule_cycles`` on a 16-feature linear UDF).
    """

    threads: int
    acs_per_thread: int
    num_striders: int
    update_rule_cycles: int
    merge_cycles: int
    post_merge_cycles: int
    compute_cycles_per_epoch: float
    data_cycles_per_epoch: float

    @property
    def total_aus(self) -> int:
        return self.threads * self.acs_per_thread * AUS_PER_CLUSTER

    @property
    def cycles_per_epoch(self) -> float:
        """Access and execution engines are interleaved, so the slower wins."""
        return max(self.compute_cycles_per_epoch, self.data_cycles_per_epoch)

    @property
    def is_bandwidth_bound(self) -> bool:
        return self.data_cycles_per_epoch > self.compute_cycles_per_epoch


class DesignSpaceExplorer:
    """Enumerates thread-count candidates and picks the best design point."""

    def __init__(
        self,
        graph: HDFG,
        fpga: FPGASpec,
        workload: WorkloadShape,
        merge_coefficient: int,
        strider_cycles_per_page: float,
        num_striders: int,
        aus_per_cluster: int = AUS_PER_CLUSTER,
    ) -> None:
        self.graph = graph
        self.fpga = fpga
        self.workload = workload
        self.merge_coefficient = max(1, merge_coefficient)
        self.strider_cycles_per_page = strider_cycles_per_page
        self.num_striders = max(1, num_striders)
        self.aus_per_cluster = aus_per_cluster

    # ------------------------------------------------------------------ #
    # candidate enumeration
    # ------------------------------------------------------------------ #
    def candidate_thread_counts(self) -> list[int]:
        total_acs = self.total_clusters()
        limit = min(self.merge_coefficient, total_acs)
        candidates = []
        t = 1
        while t <= limit:
            candidates.append(t)
            t *= 2
        if limit not in candidates:
            candidates.append(limit)
        return candidates

    def total_clusters(self) -> int:
        total_aus = self.fpga.max_analytic_units()
        total_acs = total_aus // self.aus_per_cluster
        if total_acs < 1:
            raise ResourceError(
                f"{self.fpga.name} cannot fit a single analytic cluster"
            )
        return total_acs

    # ------------------------------------------------------------------ #
    # estimation
    # ------------------------------------------------------------------ #
    def evaluate(self, threads: int) -> DesignPoint:
        """Price one thread count with the ledger's stage functions."""
        acs_per_thread = max(1, self.total_clusters() // threads)
        update_cycles, post_merge_cycles = (
            estimate_region_cycles(self.graph, region, acs_per_thread, self.aus_per_cluster)
            for region in (Region.UPDATE_RULE, Region.POST_MERGE)
        )
        price = functools.partial(
            engine_epoch_cost,
            batch_size=threads,  # the estimator's assumption: one round per merge
            threads=threads,
            region_cycles=(update_cycles, post_merge_cycles, 0),
            merge_widths=[self.graph.node(i).element_count for i in self.graph.merge_node_ids],
            bus=TreeBus(alu_count=self.aus_per_cluster),
            epoch_end=False,
        )
        # whole pages: a small table must not flip between compute- and
        # bandwidth-bound on how full its last page happens to be
        data = AccessEngineStats.of_page_runs(
            [(StriderStats(cycles=self.strider_cycles_per_page), self.workload.n_pages)],
            AccessEngineConfig(self.num_striders, self.workload.page_size),
            self.fpga.axi_bytes_per_cycle,
        )
        return DesignPoint(
            threads=threads,
            acs_per_thread=acs_per_thread,
            num_striders=self.num_striders,
            update_rule_cycles=update_cycles,
            merge_cycles=price(threads)[0].merge_cycles,
            post_merge_cycles=post_merge_cycles,
            compute_cycles_per_epoch=float(price(self.workload.n_tuples)[0].total_cycles),
            data_cycles_per_epoch=float(data.access_cycles),
        )

    def explore(self) -> list[DesignPoint]:
        """Evaluate every candidate thread count."""
        return [self.evaluate(t) for t in self.candidate_thread_counts()]

    def best(self, points: list[DesignPoint] | None = None) -> DesignPoint:
        """The smallest design point within 1% of the best estimated runtime
        (of ``points``, when the candidates were already explored)."""
        points = points or self.explore()
        best_cycles = min(p.cycles_per_epoch for p in points)
        tolerant = [p for p in points if p.cycles_per_epoch <= best_cycles * 1.01]
        return min(tolerant, key=lambda p: (p.threads, p.cycles_per_epoch))
