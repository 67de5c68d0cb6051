"""Sharded multi-segment execution: one DAnA accelerator per segment.

The functional counterpart of the paper's Greenplum deployment (Figure 13):
heap pages are partitioned across segments, each segment runs its own
Strider page walk and execution engine, and per-segment models are merged
every epoch on a cluster-level tree bus.  One
:class:`~repro.cluster.fanout.SegmentFanout` carries every fan-out — threads
or worker processes, training or scan-and-score.
"""

from repro.cluster.aggregator import AGGREGATION_STRATEGIES, ModelAggregator
from repro.cluster.partitioner import PagePartition, Partitioner
from repro.cluster.fanout import IPCStats, SegmentFanout, SegmentJob, SegmentProcess
from repro.cluster.segment_worker import SegmentReport, SegmentWorker
from repro.cluster.sharded import (
    ClusterStats,
    EXECUTION_STRATEGIES,
    ShardedDAnA,
    ShardedRunResult,
)

__all__ = [
    "AGGREGATION_STRATEGIES",
    "ClusterStats",
    "EXECUTION_STRATEGIES",
    "IPCStats",
    "ModelAggregator",
    "PagePartition",
    "Partitioner",
    "SegmentFanout",
    "SegmentJob",
    "SegmentProcess",
    "SegmentReport",
    "SegmentWorker",
    "ShardedDAnA",
    "ShardedRunResult",
]
