"""Analytical performance models that regenerate the paper's figures."""

from repro.perf.calibration import DEFAULT_EPOCHS, PAPER_EPOCHS, epochs_for
from repro.perf.cost_model import (
    CostModel,
    CPUCostModel,
    DAnACostModel,
    DEFAULT_COST_MODEL,
    ExternalLibraryCostModel,
    GreenplumCostModel,
    StorageCostModel,
)
from repro.perf.cpu_model import ExternalLibraryModel, GreenplumModel, MADlibPostgresModel
from repro.perf.fpga_model import DAnAModel, EpochCost, TABLAModel
from repro.perf.io_model import IOEstimate, IOModel
from repro.perf.plan_cost import (
    IPC_MESSAGE_OVERHEAD_BYTES,
    page_tuple_counts,
    predict_score_cost,
    predict_train_cost,
    predicted_merges,
    worker_limit,
)
from repro.perf.report import RuntimeBreakdown, format_seconds, geomean
from repro.perf.segment_model import (
    DEFAULT_IPC_BANDWIDTH_BYTES_PER_S,
    DEFAULT_IPC_ROUND_TRIP_S,
    ShardedRunCost,
    measured_segment_sweep,
)
from repro.perf.serving_model import ScoreRunCost

__all__ = [
    "CPUCostModel",
    "CostModel",
    "DAnACostModel",
    "DAnAModel",
    "DEFAULT_COST_MODEL",
    "DEFAULT_EPOCHS",
    "DEFAULT_IPC_BANDWIDTH_BYTES_PER_S",
    "DEFAULT_IPC_ROUND_TRIP_S",
    "EpochCost",
    "ExternalLibraryCostModel",
    "ExternalLibraryModel",
    "GreenplumCostModel",
    "GreenplumModel",
    "IOEstimate",
    "IOModel",
    "IPC_MESSAGE_OVERHEAD_BYTES",
    "MADlibPostgresModel",
    "PAPER_EPOCHS",
    "RuntimeBreakdown",
    "ScoreRunCost",
    "ShardedRunCost",
    "StorageCostModel",
    "measured_segment_sweep",
    "TABLAModel",
    "epochs_for",
    "format_seconds",
    "geomean",
    "page_tuple_counts",
    "predict_score_cost",
    "predict_train_cost",
    "predicted_merges",
    "worker_limit",
]
