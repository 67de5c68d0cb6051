"""Simulated storage manager.

The storage manager keeps every heap file as an in-memory list of binary
page images and records how many page reads and writes were issued.  The
counts feed the I/O portion of the end-to-end runtime model
(:mod:`repro.perf.io_model`): the paper's cold-cache experiments are
dominated by the time needed to pull training pages from an SSD into the
buffer pool, which we model analytically from the observed page-read count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import StorageError


@dataclass
class StorageStats:
    """Counters of physical page I/O issued against the storage manager."""

    page_reads: int = 0
    page_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def reset(self) -> None:
        """Zero the read/write counters."""
        self.page_reads = 0
        self.page_writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def merge(self, other: "StorageStats") -> None:
        """Accumulate another manager's (or worker process's) counters."""
        self.page_reads += other.page_reads
        self.page_writes += other.page_writes
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written


@dataclass
class _FileEntry:
    page_size: int
    pages: list[bytes] = field(default_factory=list)


class StorageManager:
    """Holds heap files and accounts for physical page I/O.

    Files are identified by name (one per table).  Pages within a file are
    addressed by a zero-based page number.
    """

    def __init__(self) -> None:
        self._files: dict[str, _FileEntry] = {}
        self.stats = StorageStats()

    # ------------------------------------------------------------------ #
    # file management
    # ------------------------------------------------------------------ #
    def create_file(self, name: str, page_size: int) -> None:
        """Create an empty page file; raises StorageError on duplicates."""
        if name in self._files:
            raise StorageError(f"file {name!r} already exists")
        self._files[name] = _FileEntry(page_size=page_size)

    def drop_file(self, name: str) -> None:
        """Delete a page file; raises StorageError when missing."""
        if name not in self._files:
            raise StorageError(f"file {name!r} does not exist")
        del self._files[name]

    def has_file(self, name: str) -> bool:
        """True when a page file named ``name`` exists."""
        return name in self._files

    def file_names(self) -> list[str]:
        """Names of all page files, sorted."""
        return sorted(self._files)

    def _entry(self, name: str) -> _FileEntry:
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"file {name!r} does not exist") from None

    def page_count(self, name: str) -> int:
        """Number of pages in a file."""
        return len(self._entry(name).pages)

    def page_size(self, name: str) -> int:
        """Page size of a file in bytes (0 for an empty file)."""
        return self._entry(name).page_size

    def file_bytes(self, name: str) -> int:
        """Total bytes stored in a file."""
        entry = self._entry(name)
        return len(entry.pages) * entry.page_size

    # ------------------------------------------------------------------ #
    # page I/O
    # ------------------------------------------------------------------ #
    def append_page(self, name: str, image: bytes) -> int:
        """Append a page image to the file; returns its page number."""
        entry = self._entry(name)
        if len(image) != entry.page_size:
            raise StorageError(
                f"page image is {len(image)} bytes, file {name!r} uses "
                f"{entry.page_size}-byte pages"
            )
        entry.pages.append(bytes(image))
        self.stats.page_writes += 1
        self.stats.bytes_written += len(image)
        return len(entry.pages) - 1

    def write_page(self, name: str, page_no: int, image: bytes) -> None:
        """Overwrite an existing page."""
        entry = self._entry(name)
        if not 0 <= page_no < len(entry.pages):
            raise StorageError(f"page {page_no} out of range for file {name!r}")
        if len(image) != entry.page_size:
            raise StorageError(
                f"page image is {len(image)} bytes, file {name!r} uses "
                f"{entry.page_size}-byte pages"
            )
        entry.pages[page_no] = bytes(image)
        self.stats.page_writes += 1
        self.stats.bytes_written += len(image)

    def read_page(self, name: str, page_no: int) -> bytes:
        """Read a page image, counting the physical I/O."""
        entry = self._entry(name)
        if not 0 <= page_no < len(entry.pages):
            raise StorageError(f"page {page_no} out of range for file {name!r}")
        self.stats.page_reads += 1
        self.stats.bytes_read += entry.page_size
        return entry.pages[page_no]
