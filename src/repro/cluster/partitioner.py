"""Heap-page partitioning across segments (Greenplum-style distribution).

Greenplum distributes a table's tuples across segments at load time; each
segment's MADlib instance (or, in the paper's deployment, its attached DAnA
accelerator) then trains on its local slice.  The reproduction keeps one
heap file per table, so distribution happens at *page* granularity instead:
the :class:`Partitioner` assigns every heap page of a table to exactly one
segment, and each :class:`~repro.cluster.segment_worker.SegmentWorker`
streams only its own pages through its own Strider-based access engine.

The deal is round-robin: page ``i`` goes to segment ``i % segments``, so
partitions differ in size by at most one page and keep storage order inside
a segment (what Greenplum's ``DISTRIBUTED RANDOMLY`` degenerates to for a
bulk-loaded table).  It is a pure function of ``(page_count, segments)``,
so a sharded run's partitioning is reproducible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdbms.database import Database


@dataclass(frozen=True)
class PagePartition:
    """The heap pages one segment owns."""

    segment_id: int
    page_nos: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.page_nos)


class Partitioner:
    """Deterministically deals a table's heap pages round-robin to segments."""

    def __init__(self, strategy: str = "round_robin", seed: int = 0) -> None:
        # ``strategy`` and ``seed`` exist only for the hand-staged replay's
        # ``Partitioner("round_robin", seed=0)`` call in
        # ``benchmarks/e2e/train.py``; both go when that replay does
        # (ROADMAP item 2(a)).
        if strategy != "round_robin":
            raise ConfigurationError(
                f"unknown partition strategy {strategy!r}; pages are dealt "
                "'round_robin'"
            )

    def partition(self, page_count: int, segments: int) -> list[PagePartition]:
        """Split ``page_count`` heap pages into ``segments`` partitions."""
        if segments < 1:
            raise ConfigurationError("a sharded run needs at least one segment")
        if page_count < 0:
            raise ConfigurationError("page_count cannot be negative")
        return [
            PagePartition(segment_id=i, page_nos=tuple(range(i, page_count, segments)))
            for i in range(segments)
        ]

    def partition_table(
        self,
        database: "Database",
        table_name: str,
        segments: int,
        as_of_lsn: int | None = None,
    ) -> list[PagePartition]:
        """Partition a catalogued table's heap pages across segments.

        ``as_of_lsn`` partitions the page set a snapshot scan will walk
        (pages that existed at that LSN) instead of the live heap, so a
        sharded run started at LSN ``s`` never assigns pages appended by
        concurrent inserts.
        """
        entry = database.catalog.table(table_name)  # raises for unknown tables
        if as_of_lsn is None:
            page_count = database.storage.page_count(entry.file_name)
        else:
            page_count = database.table(table_name).page_count_as_of(as_of_lsn)
        return self.partition(page_count, segments)
