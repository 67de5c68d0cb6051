"""Column types and relation schemas for the miniature RDBMS substrate.

The substrate only needs the types that appear in the paper's training
tables: fixed-width numeric columns (features, labels, matrix indices).
Every type knows how to encode/decode itself to the on-page binary format
so that the Strider simulator can extract raw bytes exactly the way the
hardware would.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import RDBMSError

#: smallest finite magnitude that rounds to infinity as a FLOAT4 — where
#: ``struct.pack("<f", x)`` starts raising ``OverflowError``.
_FLOAT4_OVERFLOW = (2 - 2**-24) * 2.0**127


class ColumnType(Enum):
    """Fixed-width column types supported by the substrate."""

    FLOAT4 = "float4"
    FLOAT8 = "float8"
    INT2 = "int2"
    INT4 = "int4"
    INT8 = "int8"

    @property
    def width(self) -> int:
        """Width of the column in bytes on the page."""
        return _WIDTHS[self]

    @property
    def struct_code(self) -> str:
        """``struct`` format character used for encoding."""
        return _STRUCT_CODES[self]

    @property
    def np_dtype(self) -> str:
        """Little-endian NumPy dtype string of the on-page encoding."""
        return _NP_DTYPES[self]

    @property
    def is_integer(self) -> bool:
        """True for the integer column types (INT2/INT4/INT8)."""
        return self in (ColumnType.INT2, ColumnType.INT4, ColumnType.INT8)

    def encode(self, value: float | int) -> bytes:
        """Encode a Python value into the on-page little-endian bytes.

        Integer columns accept float inputs (NumPy row extraction yields
        floats) as long as the value is integral.
        """
        if self.is_integer and not isinstance(value, int):
            value = int(round(float(value)))
        return struct.pack("<" + self.struct_code, value)

    def decode(self, raw: bytes) -> float | int:
        """Decode on-page bytes back into a Python value."""
        if len(raw) != self.width:
            raise RDBMSError(
                f"cannot decode {self.value}: expected {self.width} bytes, got {len(raw)}"
            )
        return struct.unpack("<" + self.struct_code, raw)[0]


_WIDTHS = {
    ColumnType.FLOAT4: 4,
    ColumnType.FLOAT8: 8,
    ColumnType.INT2: 2,
    ColumnType.INT4: 4,
    ColumnType.INT8: 8,
}

_STRUCT_CODES = {
    ColumnType.FLOAT4: "f",
    ColumnType.FLOAT8: "d",
    ColumnType.INT2: "h",
    ColumnType.INT4: "i",
    ColumnType.INT8: "q",
}

_NP_DTYPES = {
    ColumnType.FLOAT4: "<f4",
    ColumnType.FLOAT8: "<f8",
    ColumnType.INT2: "<i2",
    ColumnType.INT4: "<i4",
    ColumnType.INT8: "<i8",
}


@dataclass(frozen=True)
class Column:
    """A single column of a relation."""

    name: str
    ctype: ColumnType

    @property
    def width(self) -> int:
        """On-page width of this column in bytes."""
        return self.ctype.width


@dataclass(frozen=True)
class Schema:
    """An ordered collection of columns describing a relation.

    The training tables used throughout the paper have the layout
    ``(feature_0, ..., feature_{k-1}, label)`` for the regression /
    classification algorithms and ``(row, col, value)`` for LRMF.
    """

    columns: tuple[Column, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise RDBMSError(f"duplicate column names in schema: {names}")

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    @cached_property
    def names(self) -> tuple[str, ...]:
        """Column names, in schema order."""
        return tuple(c.name for c in self.columns)

    @cached_property
    def widths(self) -> tuple[int, ...]:
        """Per-column on-page widths in bytes, in schema order."""
        return tuple(c.width for c in self.columns)

    @cached_property
    def row_width(self) -> int:
        """Total width of the fixed-size attribute payload, in bytes."""
        return sum(c.width for c in self.columns)

    @cached_property
    def record_dtype(self) -> np.dtype:
        """Packed record dtype of one attribute payload (fields ``c0, c1, ...``).

        ``np.frombuffer(payloads, dtype=schema.record_dtype)`` reinterprets
        a run of fixed-width payloads without touching a tuple in Python;
        ``.tolist()`` on such records yields the tuples ``decode_row`` would
        (INT columns as ``int``, FLOAT4 widened to the double ``struct``
        gives).
        """
        return np.dtype(
            [(f"c{i}", col.ctype.np_dtype) for i, col in enumerate(self.columns)]
        )

    @cached_property
    def _flat_dtype(self) -> np.dtype | None:
        """The single column dtype of a homogeneous schema, else ``None``."""
        codes = {col.ctype.np_dtype for col in self.columns}
        return np.dtype(codes.pop()) if len(codes) == 1 else None

    def as_matrix(self, records: np.ndarray) -> np.ndarray:
        """Widen :attr:`record_dtype` records to a ``(tuples, columns)`` float64 matrix.

        Homogeneous schemas (the common dense-training layout) convert with
        one flat reinterpret; mixed schemas copy column by column.  INT8
        magnitudes beyond 2**53 round to the nearest double, exactly as
        ``np.asarray(rows, dtype=np.float64)`` rounds the decoded ints.
        """
        n_rows, n_cols = len(records), len(self.columns)
        if self._flat_dtype is not None:
            flat = records.view(self._flat_dtype)
            return flat.reshape(n_rows, n_cols).astype(np.float64)
        out = np.empty((n_rows, n_cols), dtype=np.float64)
        for i, name in enumerate(records.dtype.names):
            out[:, i] = records[name]
        return out

    def to_records(self, rows: Iterable[Sequence[float | int]] | np.ndarray) -> np.ndarray:
        """Validate a row batch and encode it as :attr:`record_dtype` records.

        The storage layer's one write door, mirror of :meth:`as_matrix`: a
        2-D array of any numeric dtype, or a sequence of rows, becomes the
        exact on-page payload bytes (``tobytes()`` is the concatenated
        :meth:`encode_row` payloads).  Integer columns round half to even;
        a batch holding floats travels as float64, so INT8 is exact to
        2**53.  The range checks ``struct.pack`` applies run vectorised —
        NumPy casts wrap or saturate silently — and the first failing row
        goes to :meth:`encode_row` to raise the error it always raised; a
        batch not numeric, 2-D and schema-wide raises :class:`RDBMSError`.
        An all-FLOAT4 or all-FLOAT8 schema is checked and cast as one
        matrix (the mirror of :meth:`as_matrix`'s flat reinterpret), any
        other column by column — the same bytes and errors either way.
        """
        if not isinstance(rows, np.ndarray):
            rows = list(rows)
        try:
            matrix = np.asarray(rows) if len(rows) else np.empty((0, len(self)))
            if matrix.dtype.kind not in "iu":
                matrix = matrix.astype(np.float64, copy=False)
        except (TypeError, ValueError) as exc:
            raise RDBMSError(f"rows are not a rectangular numeric batch: {exc}") from None
        if matrix.ndim != 2 or matrix.shape[1] != len(self):
            raise RDBMSError(
                f"expected a 2-D batch of {len(self)}-column rows, got shape {matrix.shape}"
            )
        flat = self._flat_dtype
        if flat is not None and flat.kind == "f":
            # Homogeneous floats (the dense-training layout): one range
            # check and one cast for the whole matrix.  The check runs
            # first, so the cast to FLOAT4 can round but never overflow;
            # it is spelt with comparisons only, so its temporaries are
            # booleans — no second float64 copy of a bulk load.
            values = matrix.astype(np.float64, copy=False)
            if flat.itemsize == 4:
                overflow = (values >= _FLOAT4_OVERFLOW) | (values <= -_FLOAT4_OVERFLOW)
                overflow &= np.isfinite(values)  # ±inf is storable
                self._reject_first(matrix, overflow.any(axis=1))
            return values.astype(flat, order="C").reshape(-1).view(self.record_dtype)
        columns = []
        bad = np.zeros(len(matrix), dtype=bool)
        for col, values in zip(self.columns, matrix.T):
            if not col.ctype.is_integer:
                values = values.astype(np.float64, copy=False)
                if col.ctype is ColumnType.FLOAT4:
                    bad |= np.isfinite(values) & (np.abs(values) >= _FLOAT4_OVERFLOW)
            elif values.dtype.kind == "f":
                values = np.rint(values)
                limit = 2.0 ** (8 * col.width - 1)
                bad |= ~((values >= -limit) & (values < limit))  # NaN fails both
            else:
                info = np.iinfo(col.ctype.np_dtype)
                bad |= (values < info.min) | (values > info.max)
            columns.append(values)
        self._reject_first(matrix, bad)
        records = np.empty(len(matrix), dtype=self.record_dtype)
        for name, values in zip(records.dtype.names, columns):
            records[name] = values  # every value checked: the cast cannot wrap
        return records

    def _reject_first(self, matrix: np.ndarray, bad: np.ndarray) -> None:
        """Raise for the first row of ``matrix`` flagged in ``bad``, if any:
        :meth:`encode_row` on it raises the error ``struct`` always raised."""
        if bad.any():
            self.encode_row(matrix[np.argmax(bad)].tolist())
            raise RDBMSError(f"row {np.argmax(bad)} does not fit the schema's column types")

    def column_offset(self, index: int) -> int:
        """Byte offset of column ``index`` within the attribute payload."""
        if not 0 <= index < len(self.columns):
            raise RDBMSError(f"column index {index} out of range")
        return sum(c.width for c in self.columns[:index])

    def index_of(self, name: str) -> int:
        """Position of a column; raises RDBMSError for unknown names."""
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise RDBMSError(f"no column named {name!r}")

    def encode_row(self, values: Sequence[float | int]) -> bytes:
        """Encode one row of Python values into the attribute payload."""
        if len(values) != len(self.columns):
            raise RDBMSError(
                f"row has {len(values)} values but schema has {len(self.columns)} columns"
            )
        return b"".join(col.ctype.encode(v) for col, v in zip(self.columns, values))

    def decode_row(self, payload: bytes) -> tuple[float | int, ...]:
        """Decode an attribute payload back into a tuple of Python values."""
        if len(payload) != self.row_width:
            raise RDBMSError(
                f"payload is {len(payload)} bytes but schema row width is {self.row_width}"
            )
        out = []
        offset = 0
        for col in self.columns:
            out.append(col.ctype.decode(payload[offset : offset + col.width]))
            offset += col.width
        return tuple(out)

    @classmethod
    def build(cls, specs: Iterable[tuple[str, ColumnType]]) -> "Schema":
        """Construct a schema from ``(name, type)`` pairs."""
        return cls(tuple(Column(name, ctype) for name, ctype in specs))

    @classmethod
    def training_schema(
        cls, n_features: int, feature_type: ColumnType = ColumnType.FLOAT4
    ) -> "Schema":
        """Standard dense training schema: ``n_features`` features + 1 label."""
        cols = [Column(f"x{i}", feature_type) for i in range(n_features)]
        cols.append(Column("y", feature_type))
        return cls(tuple(cols))

    @classmethod
    def lrmf_schema(cls, value_type: ColumnType = ColumnType.FLOAT4) -> "Schema":
        """Sparse-rating schema used by low-rank matrix factorization."""
        return cls(
            (
                Column("row", ColumnType.INT4),
                Column("col", ColumnType.INT4),
                Column("value", value_type),
            )
        )
