"""Unit tests for column types and schemas."""

import numpy as np
import pytest

from repro.exceptions import RDBMSError
from repro.rdbms.types import Column, ColumnType, Schema


class TestColumnType:
    def test_widths(self):
        assert ColumnType.FLOAT4.width == 4
        assert ColumnType.FLOAT8.width == 8
        assert ColumnType.INT2.width == 2
        assert ColumnType.INT4.width == 4
        assert ColumnType.INT8.width == 8

    def test_float_round_trip(self):
        raw = ColumnType.FLOAT8.encode(3.14159)
        assert ColumnType.FLOAT8.decode(raw) == pytest.approx(3.14159)

    def test_float4_round_trip_loses_precision_gracefully(self):
        raw = ColumnType.FLOAT4.encode(1.0 / 3.0)
        assert ColumnType.FLOAT4.decode(raw) == pytest.approx(1.0 / 3.0, rel=1e-6)

    def test_int_round_trip(self):
        raw = ColumnType.INT4.encode(-12345)
        assert ColumnType.INT4.decode(raw) == -12345

    def test_decode_wrong_length_raises(self):
        with pytest.raises(RDBMSError):
            ColumnType.INT4.decode(b"\x00\x01")

    def test_is_integer(self):
        assert ColumnType.INT8.is_integer
        assert not ColumnType.FLOAT4.is_integer


class TestSchema:
    def test_training_schema_shape(self):
        schema = Schema.training_schema(5)
        assert len(schema) == 6
        assert schema.names == ("x0", "x1", "x2", "x3", "x4", "y")
        assert schema.row_width == 6 * 4

    def test_lrmf_schema(self):
        schema = Schema.lrmf_schema()
        assert schema.names == ("row", "col", "value")
        assert schema.row_width == 12

    def test_derived_widths_are_computed_once_and_stay_out_of_identity(self):
        import pickle

        schema = Schema.training_schema(5)
        twin = Schema.training_schema(5)
        assert schema.widths == (4,) * 6 and schema.row_width == 24
        assert schema.names is schema.names and schema.widths is schema.widths
        assert {"names", "widths", "row_width"} <= vars(schema).keys()
        assert "row_width" not in vars(twin)
        assert schema == twin and hash(schema) == hash(twin)  # fields only
        copy = pickle.loads(pickle.dumps(schema))  # shipped to worker processes
        assert copy == schema and copy.row_width == 24

    def test_duplicate_names_rejected(self):
        with pytest.raises(RDBMSError):
            Schema((Column("a", ColumnType.INT4), Column("a", ColumnType.INT4)))

    def test_row_round_trip(self):
        schema = Schema.training_schema(3, ColumnType.FLOAT8)
        row = (1.5, -2.25, 0.125, 7.0)
        assert schema.decode_row(schema.encode_row(row)) == row

    def test_encode_row_wrong_arity(self):
        schema = Schema.training_schema(3)
        with pytest.raises(RDBMSError):
            schema.encode_row((1.0, 2.0))

    def test_column_offset(self):
        schema = Schema.build([("a", ColumnType.INT2), ("b", ColumnType.FLOAT8), ("c", ColumnType.INT4)])
        assert schema.column_offset(0) == 0
        assert schema.column_offset(1) == 2
        assert schema.column_offset(2) == 10
        with pytest.raises(RDBMSError):
            schema.column_offset(3)

    def test_index_of(self):
        schema = Schema.training_schema(2)
        assert schema.index_of("y") == 2
        with pytest.raises(RDBMSError):
            schema.index_of("nope")

    def test_decode_row_rejects_bad_payload(self):
        schema = Schema.training_schema(2)
        with pytest.raises(RDBMSError):
            schema.decode_row(b"\x00" * (schema.row_width + 1))

    def test_mixed_type_round_trip(self):
        schema = Schema.lrmf_schema()
        values = (7, 13, 4.5)
        decoded = schema.decode_row(schema.encode_row(values))
        assert decoded[0] == 7 and decoded[1] == 13
        assert decoded[2] == pytest.approx(4.5)
