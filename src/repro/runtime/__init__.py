"""Pipelined epoch runtime: streaming extraction + the shared epoch loop.

This layer turns the reproduction's epoch execution into the pipeline the
paper's hardware actually is: a :class:`BatchSource` overlaps the access
engine's page walk with the execution engine's compute through a bounded
double-buffer queue, and the :class:`EpochDriver` is the single epoch loop
shared by the single-engine, sharded lock-step and sharded thread-pool
execution strategies — it merges per-segment models every ``staleness``
epochs (:func:`~repro.runtime.epoch_driver.merge_boundary`).

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

__all__ = [
    "BatchSource",
    "DEFAULT_QUEUE_DEPTH",
    "DriverResult",
    "EpochDriver",
    "EpochStep",
    "SharedPageStore",
    "SharedPageStoreHandle",
    "live_store_names",
]
