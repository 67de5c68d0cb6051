"""Calibrated cost constants for the end-to-end runtime model.

The reproduction runs on a laptop-scale functional simulator, so absolute
runtimes of the paper's testbed (4-core i7-6700 + SSD for the software
systems, a VU9P FPGA for DAnA) are modelled analytically.  The constants
below are calibrated against the absolute runtimes of Table 5 and the
hardware of §7 ("Experimental setup"); they are deliberately simple —
an effective throughput plus a per-item overhead per subsystem — because
the paper's comparisons depend on *ratios* between systems, not on exact
magnitudes.

Everything is exposed as one dataclass so benchmarks can run sensitivity
studies (e.g. Figure 14's bandwidth sweep) by replacing a single field.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CPUCostModel:
    """Single-node CPU execution (PostgreSQL + MADlib style UDFs)."""

    #: effective floating-point throughput of the interpreted / UDF-based
    #: per-tuple execution path (GFLOP/s).  MADlib pays per-tuple function
    #: call and de-serialisation costs, so this is far below peak.
    effective_gflops: float = 0.9
    #: effective throughput when the algorithm's inner loop is easily
    #: vectorised by the compiler (the paper's linear-regression workloads).
    vectorized_gflops: float = 6.5
    #: fixed per-tuple overhead of the executor + UDF call (seconds).
    per_tuple_overhead_s: float = 3.5e-7
    #: per-page overhead of the buffer-pool/heap access path (seconds).
    per_page_overhead_s: float = 2.0e-6
    #: fixed per-query overhead (parse/plan/aggregate setup, seconds).
    per_query_overhead_s: float = 0.05


@dataclass(frozen=True)
class GreenplumCostModel:
    """Scale-out (segment-parallel) MADlib execution on one machine."""

    #: physical cores of the testbed (i7-6700: 4 cores / 8 threads).
    physical_cores: int = 4
    #: efficiency of parallelising the per-epoch work across segments.
    parallel_efficiency: float = 0.45
    #: per-segment per-epoch coordination overhead (seconds).
    per_segment_epoch_overhead_s: float = 0.002
    #: fixed per-query overhead (dispatcher, motion setup, seconds).
    per_query_overhead_s: float = 0.45


@dataclass(frozen=True)
class StorageCostModel:
    """Cold-cache I/O: reading training pages from the SSD."""

    #: sequential read bandwidth of the SATA SSD (bytes/second).
    disk_bandwidth_bytes: float = 520e6
    #: per-page request overhead (seconds).
    per_page_seek_s: float = 2.0e-6


@dataclass(frozen=True)
class ExternalLibraryCostModel:
    """Out-of-RDBMS libraries (Liblinear / DimmWitted)."""

    #: COPY-to-file export bandwidth out of PostgreSQL (bytes/second).
    export_bandwidth_bytes: float = 95e6
    #: parsing/reformatting bandwidth into the library's format (bytes/s).
    transform_bandwidth_bytes: float = 1.6e9
    #: multi-core compute throughput for algorithms the library vectorises
    #: well (GFLOP/s across up to 16 threads on 4 cores).
    compute_gflops: float = 11.0
    #: throughput for solvers that fight the storage layout (the paper finds
    #: Liblinear/DimmWitted SVM far slower than MADlib's in-database SVM).
    svm_compute_gflops: float = 0.045
    #: per-tuple overhead of the library's data structures (seconds).
    per_tuple_overhead_s: float = 6.0e-8


@dataclass(frozen=True)
class DAnACostModel:
    """DAnA-specific constants that are not derived from the FPGA spec."""

    #: per-query overhead: catalog lookup, configuration-data shipping,
    #: execution-engine programming (seconds).
    per_query_overhead_s: float = 0.03
    #: CPU cost of extracting + transforming ONE tuple when Striders are
    #: disabled and the CPU feeds the execution engine (seconds/tuple).
    cpu_extract_per_tuple_s: float = 1.5e-7
    #: fraction of the per-epoch data movement that cannot be overlapped
    #: with compute (pipeline fill, handshakes).
    non_overlap_fraction: float = 0.05


@dataclass(frozen=True)
class CostModel:
    """Bundle of every calibrated constant used by the runtime models."""

    cpu: CPUCostModel = CPUCostModel()
    greenplum: GreenplumCostModel = GreenplumCostModel()
    storage: StorageCostModel = StorageCostModel()
    external: ExternalLibraryCostModel = ExternalLibraryCostModel()
    dana: DAnACostModel = DAnACostModel()


DEFAULT_COST_MODEL = CostModel()
