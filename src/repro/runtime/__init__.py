"""Pipelined epoch runtime: streaming extraction + synchronization policies.

This layer turns the reproduction's epoch execution into the pipeline the
paper's hardware actually is: a :class:`BatchSource` overlaps the access
engine's page walk with the execution engine's compute through a bounded
double-buffer queue, a :class:`SyncPolicy` decides when
per-segment models are merged, and the :class:`EpochDriver` is the single
epoch loop shared by the single-engine, sharded lock-step and sharded
thread-pool execution strategies.

The layer is dependency-light by design (NumPy and the exception hierarchy
only): ``hw`` and ``cluster`` plug their strategies *into* it, never the
other way around.
"""

from repro.runtime.batch_source import BatchSource, DEFAULT_QUEUE_DEPTH
from repro.runtime.epoch_driver import DriverResult, EpochDriver, EpochStep
from repro.runtime.shm import (
    SharedPageStore,
    SharedPageStoreHandle,
    live_store_names,
)
from repro.runtime.sync_policy import (
    BulkSynchronous,
    StaleSynchronous,
    SYNC_POLICIES,
    SyncPolicy,
    make_sync_policy,
)

__all__ = [
    "BatchSource",
    "BulkSynchronous",
    "DEFAULT_QUEUE_DEPTH",
    "DriverResult",
    "EpochDriver",
    "EpochStep",
    "SharedPageStore",
    "SharedPageStoreHandle",
    "StaleSynchronous",
    "SYNC_POLICIES",
    "SyncPolicy",
    "live_store_names",
    "make_sync_policy",
]
