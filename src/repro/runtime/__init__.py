"""Pipelined epoch runtime: streaming extraction + the shared epoch loop.

This layer turns the reproduction's epoch execution into the pipeline the
paper's hardware actually is: through a :class:`BatchSource` the
execution engine pulls the access engine's page walk one wave at a time,
on its own thread, and the :class:`EpochDriver` is the single epoch loop
shared by the single-engine, sharded lock-step and sharded thread-pool
execution strategies — it merges per-segment models every ``staleness``
epochs (:func:`~repro.runtime.epoch_driver.merge_boundary`).

The layer is dependency-light by design (NumPy and the exception hierarchy
only): ``hw`` and ``cluster`` plug their strategies *into* it, never the
other way around.
"""

from repro.runtime.batch_source import BatchSource, row_blocks
from repro.runtime.epoch_driver import DriverResult, EpochDriver, EpochStep
from repro.runtime.shm import (
    SharedPageStore,
    SharedPageStoreHandle,
    live_store_names,
)

__all__ = [
    "BatchSource",
    "DriverResult",
    "EpochDriver",
    "EpochStep",
    "SharedPageStore",
    "SharedPageStoreHandle",
    "live_store_names",
    "row_blocks",
]
