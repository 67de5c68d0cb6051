"""Slotted heap page with a PostgreSQL-style layout (paper Figure 6).

A page is laid out as::

    +--------------------------------------------------------------+
    | page header | tuple pointer 1 | tuple pointer 2 | ...         |
    |              ... free space ...                                |
    |                              ... tuple 2 | tuple 1 | special  |
    +--------------------------------------------------------------+

* The **page header** holds the page size, the start/end of free space, the
  offset of the special space and the tuple count.
* **Tuple pointers** (line pointers) grow downward from the header; each is
  4 bytes: a 2-byte byte-offset and a 2-byte length.
* **Tuple data** grows upward from the special space; each tuple carries the
  8-byte tuple header defined in :mod:`repro.rdbms.heaptuple`.

The exact byte offsets are described by :class:`PageLayout`, which is what
DAnA's compiler consumes to emit Strider instructions — the accelerator
never sees Python objects, only these raw bytes.

The page byte format is known to this module alone, through a vectorised
codec pair that moves whole pages, never single tuples:
:meth:`HeapPage.extend` packs a run of ``schema.record_dtype`` records and
:func:`decode_page_records` gathers them back.  The ``struct``-based
``encode_tuple`` / ``decode_tuple`` stay as the independent per-row reference.
Because ``extend`` only ever adds — nothing placed is rewritten — an earlier
image of a page follows from a later one and the earlier header
(:meth:`HeapPage.image_as_of`), which is all the heap file's version store keeps.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import PageError, PageFullError
from repro.rdbms.heaptuple import TUPLE_HEADER_SIZE, TupleHeader, decode_tuple, tuple_size
from repro.rdbms.types import Schema

DEFAULT_PAGE_SIZE = 32 * 1024
SUPPORTED_PAGE_SIZES = (8 * 1024, 16 * 1024, 32 * 1024)

PAGE_HEADER_SIZE = 24
LINE_POINTER_SIZE = 4

# Page header field offsets (bytes).  These match the Strider assembly in
# §5.1.2 of the paper: the first instruction reads 8 bytes at offset 0 (page
# size), the second reads 2 bytes at offset 8 (free-space start), the third
# reads 4 bytes at offset 10 (free-space end + special offset packed).
_OFF_PAGE_SIZE = 0        # uint64
_OFF_FREE_START = 8       # uint16
_OFF_FREE_END = 10        # uint16
_OFF_SPECIAL = 12         # uint16
_OFF_TUPLE_COUNT = 14     # uint16
_OFF_LSN = 16             # uint64 (reserved)

_HEADER_STRUCT = struct.Struct("<QHHHHQ")
_LINE_POINTER_STRUCT = struct.Struct("<HH")


@dataclass(frozen=True)
class PageLayout:
    """Static description of the page format consumed by the Strider compiler.

    The layout is independent of any particular page's contents: it records
    where the header fields live, how wide line pointers are, and how large
    the per-tuple header is.  DAnA's compiler (§6.2) turns this description
    plus the table schema into a Strider instruction sequence.
    """

    page_size: int = DEFAULT_PAGE_SIZE
    header_size: int = PAGE_HEADER_SIZE
    line_pointer_size: int = LINE_POINTER_SIZE
    tuple_header_size: int = TUPLE_HEADER_SIZE
    special_size: int = 0
    page_size_offset: int = _OFF_PAGE_SIZE
    page_size_width: int = 8
    free_start_offset: int = _OFF_FREE_START
    free_start_width: int = 2
    free_end_offset: int = _OFF_FREE_END
    free_end_width: int = 2
    special_offset: int = _OFF_SPECIAL
    special_width: int = 2
    tuple_count_offset: int = _OFF_TUPLE_COUNT
    tuple_count_width: int = 2

    def __post_init__(self) -> None:
        if self.page_size <= self.header_size + self.special_size:
            raise PageError(
                f"page size {self.page_size} too small for header {self.header_size}"
            )

    @property
    def line_pointer_start(self) -> int:
        """Offset of the first line pointer."""
        return self.header_size

    def usable_bytes(self) -> int:
        """Bytes available for line pointers plus tuple data."""
        return self.page_size - self.header_size - self.special_size

    def tuples_per_page(self, schema: Schema) -> int:
        """Maximum number of tuples of ``schema`` that fit on one page."""
        per_tuple = self.line_pointer_size + self.tuple_header_size + schema.row_width
        return max(0, self.usable_bytes() // per_tuple)

    def pages_for(self, n_tuples: int, schema: Schema) -> int:
        """Number of pages needed to store ``n_tuples`` rows of ``schema``."""
        per_page = self.tuples_per_page(schema)
        if per_page == 0:
            raise PageError(
                f"a tuple of {tuple_size(schema)} bytes does not fit in a "
                f"{self.page_size}-byte page"
            )
        return (n_tuples + per_page - 1) // per_page


class HeapPage:
    """A mutable slotted page holding fixed-width tuples.

    The page owns a ``bytearray`` of exactly ``layout.page_size`` bytes and
    keeps the binary image consistent on every mutation, so the raw bytes can
    be handed to the Strider simulator at any time.
    """

    def __init__(self, layout: PageLayout | None = None) -> None:
        self.layout = layout or PageLayout()
        self._buf = bytearray(self.layout.page_size)
        self._tuple_count = 0
        self._free_start = self.layout.header_size
        self._free_end = self.layout.page_size - self.layout.special_size
        self._lsn = 0
        self._write_header()

    # ------------------------------------------------------------------ #
    # header management
    # ------------------------------------------------------------------ #
    def _write_header(self) -> None:
        header = _HEADER_STRUCT.pack(
            self.layout.page_size,
            self._free_start,
            self._free_end,
            self.layout.page_size - self.layout.special_size,
            self._tuple_count,
            self._lsn,
        )
        self._buf[: PAGE_HEADER_SIZE] = header

    @property
    def page_size(self) -> int:
        """Size of the page image in bytes."""
        return self.layout.page_size

    @property
    def tuple_count(self) -> int:
        """Number of line pointers (stored tuples) on the page."""
        return self._tuple_count

    @property
    def lsn(self) -> int:
        """LSN of the WAL record that last stamped this page (0 = bulk load).

        The LSN lives in the 8 reserved bytes at header offset 16, so it is
        part of the binary image the Striders walk — recovery can therefore
        prove heap state bit-identical, LSN stamps included.
        """
        return self._lsn

    def set_lsn(self, lsn: int) -> None:
        """Stamp the page with the LSN of the mutating WAL record."""
        if lsn < 0:
            raise PageError(f"page LSN must be non-negative, got {lsn}")
        self._lsn = int(lsn)
        self._write_header()

    @property
    def free_space(self) -> int:
        """Bytes left in the hole between pointers and tuple data."""
        return self._free_end - self._free_start

    @property
    def free_space_start(self) -> int:
        """Offset where the next line pointer would be written."""
        return self._free_start

    @property
    def free_space_end(self) -> int:
        """Offset where the hole ends (start of tuple data)."""
        return self._free_end

    # ------------------------------------------------------------------ #
    # tuple operations
    # ------------------------------------------------------------------ #
    def has_room(self, schema: Schema) -> bool:
        """True when a tuple of ``payload_size`` bytes still fits."""
        needed = LINE_POINTER_SIZE + tuple_size(schema)
        return self.free_space >= needed

    def extend(self, schema: Schema, records: np.ndarray, lsn: int | None = None) -> int:
        """Pack as many of ``records`` as fit; returns how many were placed.

        The one routine that writes tuples into a page buffer: headers plus
        :meth:`Schema.to_records` payloads land as one block below the
        free-space end, their line pointers as one block above its start,
        and the page header — stamped with ``lsn`` when given — is written
        once.  Raises :class:`PageFullError` when not even one record fits.
        """
        width = tuple_size(schema)
        placed = min(len(records), self.free_space // (LINE_POINTER_SIZE + width))
        if placed == 0 and len(records):
            raise PageFullError(
                f"tuple of {width} bytes does not fit in {self.free_space} free bytes"
            )
        tuples = np.empty((placed, width), dtype=np.uint8)
        tuples[:, :TUPLE_HEADER_SIZE] = np.frombuffer(
            TupleHeader(t_len=width, attr_count=len(schema)).encode(), dtype=np.uint8
        )
        tuples[:, TUPLE_HEADER_SIZE:] = (
            records[:placed].view(np.uint8).reshape(placed, schema.row_width)
        )
        # Tuple data grows from the end of the page toward the header, so
        # slot order is descending address order; line pointers grow up.
        pointers = np.empty((placed, 2), dtype="<u2")
        pointers[:, 0] = self._free_end - width * np.arange(1, placed + 1)
        pointers[:, 1] = width
        data_start = self._free_end - placed * width
        self._buf[data_start : self._free_end] = tuples[::-1].tobytes()
        pointers_end = self._free_start + placed * LINE_POINTER_SIZE
        self._buf[self._free_start : pointers_end] = pointers.tobytes()
        self._free_end, self._free_start = data_start, pointers_end
        self._tuple_count += placed
        if lsn is None:
            self._write_header()
        else:
            self.set_lsn(lsn)
        return placed

    def insert(self, schema: Schema, values: Sequence[float | int]) -> int:
        """Insert one row — a one-record :meth:`extend` — and return its slot."""
        self.extend(schema, schema.to_records([values]))
        return self._tuple_count - 1

    def line_pointer(self, slot: int) -> tuple[int, int]:
        """Return ``(offset, length)`` of the tuple in ``slot``."""
        if not 0 <= slot < self._tuple_count:
            raise PageError(f"slot {slot} out of range (page has {self._tuple_count})")
        base = self.layout.line_pointer_start + slot * LINE_POINTER_SIZE
        return _LINE_POINTER_STRUCT.unpack(self._buf[base : base + LINE_POINTER_SIZE])

    def read_raw(self, slot: int) -> bytes:
        """Raw bytes (header + payload) of the tuple in ``slot``."""
        offset, length = self.line_pointer(slot)
        return bytes(self._buf[offset : offset + length])

    def read(self, schema: Schema, slot: int) -> tuple[float | int, ...]:
        """Decode the tuple in ``slot`` into Python values."""
        return decode_tuple(schema, self.read_raw(slot))

    def tuples(self, schema: Schema) -> Iterator[tuple[float | int, ...]]:
        """Iterate over every tuple on the page in slot order."""
        for slot in range(self._tuple_count):
            yield self.read(schema, slot)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """The full binary page image."""
        return bytes(self._buf)

    @property
    def header(self) -> bytes:
        """The page header bytes — all a later :meth:`image_as_of` needs."""
        return bytes(self._buf[:PAGE_HEADER_SIZE])

    @staticmethod
    def image_as_of(image: bytes, header: bytes) -> bytes:
        """The image a page held when ``header`` was its header.

        ``image`` is any later image of the same page.  Pages are
        append-only — line pointers grow up from the header, tuples grow
        down from the page end, the hole between them is zero and nothing
        placed is ever rewritten — so the earlier image is the later one
        with its header put back and everything placed since (the bytes
        between the old free-space bounds) zeroed again.
        """
        _size, free_start, free_end, _special, _count, _lsn = _HEADER_STRUCT.unpack(header)
        if not PAGE_HEADER_SIZE <= free_start <= free_end <= len(image):
            raise PageError(
                f"header free space {free_start}..{free_end} does not fit a "
                f"{len(image)}-byte page image"
            )
        return b"".join(
            (
                header,
                image[PAGE_HEADER_SIZE:free_start],
                bytes(free_end - free_start),
                image[free_end:],
            )
        )

    @classmethod
    def from_bytes(cls, raw: bytes, layout: PageLayout | None = None) -> "HeapPage":
        """Reconstruct a page object from its binary image."""
        layout = layout or PageLayout(page_size=len(raw))
        if len(raw) != layout.page_size:
            raise PageError(
                f"image is {len(raw)} bytes but layout declares {layout.page_size}"
            )
        page = cls.__new__(cls)
        page.layout = layout
        page._buf = bytearray(raw)
        (
            page_size,
            free_start,
            free_end,
            _special,
            tuple_count,
            _lsn,
        ) = _HEADER_STRUCT.unpack(raw[:PAGE_HEADER_SIZE])
        if page_size != layout.page_size:
            raise PageError(
                f"page header declares size {page_size}, layout declares {layout.page_size}"
            )
        page._free_start = free_start
        page._free_end = free_end
        page._tuple_count = tuple_count
        page._lsn = _lsn
        return page

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeapPage(size={self.page_size}, tuples={self._tuple_count}, "
            f"free={self.free_space})"
        )


def decode_page_records(image: bytes, layout: PageLayout, schema: Schema) -> np.ndarray:
    """Decode one raw page image into ``schema.record_dtype`` records, in slot order.

    The line-pointer array is one ``np.frombuffer`` and the tuples are
    gathered by offset in one indexing operation; the checks
    :func:`~repro.rdbms.heaptuple.decode_tuple` applies per tuple
    (``t_len`` against the line pointer, ``attr_count`` against the
    schema) run vectorised, and the first tuple that fails them is handed
    to ``decode_tuple`` so it raises the error it always raised.
    """
    page = HeapPage.from_bytes(image, layout)
    count = page.tuple_count
    pointers_end = layout.line_pointer_start + count * layout.line_pointer_size
    if pointers_end > layout.page_size:
        raise PageError(
            f"page header declares {count} tuples, whose line pointers would "
            f"end at byte {pointers_end} of a {layout.page_size}-byte page"
        )
    pointers = np.frombuffer(
        image, dtype="<u2", count=2 * count, offset=layout.line_pointer_start
    ).reshape(count, 2)
    offsets = pointers[:, :1].astype(np.intp)
    width = tuple_size(schema)
    data = np.frombuffer(image, dtype=np.uint8)
    malformed = (pointers[:, 1] != width) | (offsets[:, 0] + width > len(data))
    if not malformed.any():
        headers = data[offsets + np.arange(4)].view("<u2")  # t_len, attr_count
        malformed = (headers[:, 0] != width) | (headers[:, 1] != len(schema))
    if malformed.any():
        slot = int(np.argmax(malformed))
        decode_tuple(schema, page.read_raw(slot))
        raise PageError(f"tuple in slot {slot} is malformed")
    payloads = data[offsets + np.arange(TUPLE_HEADER_SIZE, width)]
    return payloads.view(schema.record_dtype).reshape(count)


def decode_page_rows(image: bytes, layout: PageLayout, schema: Schema) -> np.ndarray:
    """Decode one raw page image into a ``(tuples, columns)`` float64 matrix.

    The RDBMS-side per-page decode shared by every ``use_striders=False``
    path (training segment workers, the serving scan scorer) and by
    :meth:`HeapFile.read_pages` — one implementation so the CPU-decode
    model cannot drift between them.
    """
    return schema.as_matrix(decode_page_records(image, layout, schema))
