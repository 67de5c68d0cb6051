"""Pluggable cross-segment synchronization policies for the epoch runtime.

The paper's deployment merges per-segment models every epoch behind a full
barrier — classic bulk-synchronous parallelism.  That is the right default
(it is bit-identical to sequential semantics up to model averaging), but it
serializes the cross-segment merge into the critical path and makes every
epoch wait for the slowest segment.  The :class:`SyncPolicy` hierarchy lets
the :class:`~repro.runtime.epoch_driver.EpochDriver` relax that barrier:

* :class:`BulkSynchronous` — merge after every epoch, fully barriered; the
  default and the reference semantics;
* :class:`StaleSynchronous` — segments run up to ``staleness`` local epochs
  between global merges (merge boundaries at every ``staleness``-th epoch,
  plus the final epoch), trading bounded model staleness for far fewer
  synchronization points.

Policies are pure schedule objects: they decide *when* a merge happens; the
driver and the execution steps own the how.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError

SYNC_POLICIES = ("bulk_synchronous", "stale_synchronous")


class SyncPolicy:
    """When to merge per-segment models."""

    #: policy name as accepted by ``DAnA.train(sync=...)``.
    name: str = "bulk_synchronous"
    #: maximum number of local epochs a segment may run past the last merge.
    staleness: int = 1

    def next_boundary(self, epoch_index: int, epochs: int) -> int:
        """Index of the next merge epoch at or after ``epoch_index``.

        The driver runs epochs ``epoch_index..next_boundary`` as one window
        and merges at the window's end.  The final epoch is always a
        boundary so every run ends on a merged global model.
        """
        return epoch_index


class BulkSynchronous(SyncPolicy):
    """Merge every epoch behind a full barrier (the paper's semantics)."""

    name = "bulk_synchronous"


class StaleSynchronous(SyncPolicy):
    """Bounded staleness: merge only every ``staleness`` epochs.

    ``staleness=1`` degenerates to the bulk-synchronous cadence.  Between
    boundaries each segment keeps training on its own local model, so fast
    segments are never throttled by per-epoch merges; convergence is judged
    at merge boundaries only (the only points where a global model exists).
    """

    name = "stale_synchronous"

    def __init__(self, staleness: int = 2) -> None:
        if not isinstance(staleness, int) or staleness < 1:
            raise ConfigurationError(
                f"staleness must be an integer >= 1, got {staleness!r}"
            )
        self.staleness = staleness

    def next_boundary(self, epoch_index: int, epochs: int) -> int:
        """Next merge epoch: every ``staleness``-th epoch, plus the last."""
        k = self.staleness
        boundary = epoch_index + (k - 1) - (epoch_index % k)
        return min(boundary, epochs - 1)


def make_sync_policy(name: str, staleness: int = 1) -> SyncPolicy:
    """Build a policy by name, failing fast with the valid choices.

    Staleness bounds are enforced by :class:`StaleSynchronous` itself (the
    only policy that consumes the value).
    """
    if name == "bulk_synchronous":
        return BulkSynchronous()
    if name == "stale_synchronous":
        return StaleSynchronous(staleness)
    raise ConfigurationError(
        f"unknown sync policy {name!r}; expected one of {SYNC_POLICIES}"
    )
