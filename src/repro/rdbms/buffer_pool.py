"""Buffer pool with LRU replacement.

The buffer pool is the hand-off point between the RDBMS engine and DAnA's
access engine: "the RDBMS fills the buffer pool, from which DAnA ships the
data pages to the FPGA" (§3).  It caches page images read through the
storage manager, tracks hits/misses/evictions, and supports pinning so
that pages being streamed to the FPGA are not evicted mid-transfer.

Warm-cache experiments pre-load the training table with
:meth:`BufferPool.prefetch_table`; cold-cache experiments simply start with
an empty pool so every page is a miss.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.exceptions import BufferPoolError
from repro.rdbms.storage import StorageManager

DEFAULT_POOL_BYTES = 8 * 1024 * 1024 * 1024  # 8 GB, the paper's default


@dataclass
class BufferPoolStats:
    """Counters describing buffer-pool behaviour during a run."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    prefetched: int = 0
    invalidated: int = 0

    @property
    def accesses(self) -> int:
        """Total page requests served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of page requests served from the pool."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.prefetched = 0
        self.invalidated = 0


class _Frame:
    __slots__ = ("image", "pin_count", "dirty")

    def __init__(self, image: bytes) -> None:
        self.image = image
        self.pin_count = 0
        self.dirty = False


class BufferPool:
    """An LRU page cache sitting between the storage manager and consumers."""

    def __init__(
        self,
        storage: StorageManager,
        pool_bytes: int = DEFAULT_POOL_BYTES,
        page_size: int = 32 * 1024,
    ) -> None:
        if pool_bytes < page_size:
            raise BufferPoolError("buffer pool must hold at least one page")
        self.storage = storage
        self.page_size = page_size
        self.capacity_pages = max(1, pool_bytes // page_size)
        self._frames: "OrderedDict[tuple[str, int], _Frame]" = OrderedDict()
        self.stats = BufferPoolStats()

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._frames)

    def resident(self, file_name: str, page_no: int) -> bool:
        """True when the page is currently cached in the pool."""
        return (file_name, page_no) in self._frames

    # ------------------------------------------------------------------ #
    # page access
    # ------------------------------------------------------------------ #
    def get_page(self, file_name: str, page_no: int, pin: bool = False) -> bytes:
        """Return a page image, fetching it from storage on a miss."""
        key = (file_name, page_no)
        frame = self._frames.get(key)
        if frame is not None:
            self.stats.hits += 1
            self._frames.move_to_end(key)
        else:
            self.stats.misses += 1
            image = self.storage.read_page(file_name, page_no)
            frame = _Frame(image)
            self._admit(key, frame)
        if pin:
            frame.pin_count += 1
        return frame.image

    def invalidate(self, file_name: str, page_no: int) -> bool:
        """Drop a cached frame after its storage page was rewritten.

        The WAL apply path calls this when it overwrites the tail page in
        place, so the next :meth:`get_page` re-reads the new image instead
        of serving a stale frame.  Returns True when a frame was dropped.
        Raises :class:`BufferPoolError` if the frame is pinned (a page being
        streamed to the accelerator must never change underneath it —
        snapshot scans read pre-images from the heap file's version store
        instead).
        """
        key = (file_name, page_no)
        frame = self._frames.get(key)
        if frame is None:
            return False
        if frame.pin_count > 0:
            raise BufferPoolError(
                f"cannot invalidate pinned page {key}; it is mid-transfer"
            )
        del self._frames[key]
        self.stats.invalidated += 1
        return True

    def unpin(self, file_name: str, page_no: int) -> None:
        """Release a pin taken by ``get_page``; raises BufferPoolError if not pinned."""
        key = (file_name, page_no)
        frame = self._frames.get(key)
        if frame is None or frame.pin_count == 0:
            raise BufferPoolError(f"page {key} is not pinned")
        frame.pin_count -= 1

    def _admit(self, key: tuple[str, int], frame: _Frame) -> None:
        while len(self._frames) >= self.capacity_pages:
            evicted = self._evict_one()
            if not evicted:
                # Everything is pinned; allow the pool to grow rather than
                # deadlock.  This mirrors PostgreSQL refusing to evict pinned
                # buffers.
                break
        self._frames[key] = frame

    def _evict_one(self) -> bool:
        for key, frame in self._frames.items():
            if frame.pin_count == 0:
                del self._frames[key]
                self.stats.evictions += 1
                return True
        return False

    # ------------------------------------------------------------------ #
    # warm / cold cache control
    # ------------------------------------------------------------------ #
    def prefetch_table(self, file_name: str, max_pages: int | None = None) -> int:
        """Pre-load a file into the pool (warm-cache setup).

        Returns the number of pages actually made resident; when the table is
        larger than the pool only a prefix fits, matching the paper's setup
        where "only a part of the synthetic datasets are contained in the
        buffer pool".
        """
        total = self.storage.page_count(file_name)
        if max_pages is not None:
            total = min(total, max_pages)
        loaded = 0
        for page_no in range(total):
            if len(self._frames) >= self.capacity_pages:
                break
            if not self.resident(file_name, page_no):
                image = self.storage.read_page(file_name, page_no)
                self._frames[(file_name, page_no)] = _Frame(image)
                self.stats.prefetched += 1
            loaded += 1
        return loaded

    def clear(self) -> None:
        """Drop every unpinned frame (cold-cache setup)."""
        pinned = {k: f for k, f in self._frames.items() if f.pin_count > 0}
        self._frames = OrderedDict(pinned)

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters."""
        self.stats.reset()
        self.storage.stats.reset()
