"""Vectorised WHERE predicates against the per-row reference.

``ColumnPredicate.mask`` (one evaluation per decoded page) must agree, row
for row, with :func:`repro.rdbms.query.matches_row` (one Python comparison
per decoded value) for every column type, every operator and the literals
that are easy to get wrong: values a ``float32`` comparison would round
onto a stored value, ``true``/``false``, signed zeros, and NaN / ±inf
column values.

One documented limit: INT8 magnitudes beyond 2**53 compare as the
``float64`` the engine already decodes them to (Python compares such an
``int`` with a ``float`` exactly), so the INT8 strategy stops at ±2**53.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import PageError, QueryError
from repro.rdbms import Database
from repro.rdbms.heaptuple import TUPLE_HEADER_SIZE
from repro.rdbms.page import HeapPage, PageLayout, decode_page_records, decode_page_rows
from repro.rdbms.predicate import COMPARISON_UFUNCS, ColumnPredicate, Comparison
from repro.rdbms.query import CountScan, SeqScan, matches_row
from repro.rdbms.types import ColumnType, Schema

OPS = tuple(COMPARISON_UFUNCS)
LAYOUT = PageLayout(page_size=2048)

_INT_BOUNDS = {
    ColumnType.INT2: 2**15 - 1,
    ColumnType.INT4: 2**31 - 1,
    ColumnType.INT8: 2**53,
}


def _column_values(ctype: ColumnType) -> st.SearchStrategy:
    if ctype is ColumnType.FLOAT4:
        return st.floats(width=32, allow_nan=True, allow_infinity=True)
    if ctype is ColumnType.FLOAT8:
        return st.floats(allow_nan=True, allow_infinity=True)
    bound = _INT_BOUNDS[ctype]
    return st.integers(min_value=-bound, max_value=bound)


def _float32_neighbour(value: float, direction: float) -> float:
    with np.errstate(over="ignore"):
        return float(np.nextafter(np.float32(value), np.float32(direction)))


def _stored(ctype: ColumnType, value):
    """The Python value a scan returns for ``value`` stored as ``ctype``."""
    return ctype.decode(ctype.encode(value))


@st.composite
def _cases(draw):
    """``(schema, rows, where)``: one typed column ``c`` beside a FLOAT8 ``d``."""
    ctype = draw(st.sampled_from(list(ColumnType)))
    schema = Schema.build([("c", ctype), ("d", ColumnType.FLOAT8)])
    rows = draw(
        st.lists(
            st.tuples(_column_values(ctype), _column_values(ColumnType.FLOAT8)),
            min_size=0,
            max_size=40,
        )
    )
    finite = [
        float(_stored(ctype, row[0]))
        for row in rows
        if np.isfinite(_stored(ctype, row[0]))
    ]
    literals = [
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=-(2**53), max_value=2**53).map(float),
        st.sampled_from([0.0, -0.0, 1.0, True, False]),
    ]
    if finite:
        # A stored value, its float32 neighbours, and doubles strictly
        # between them: a comparison carried out in float32 would round
        # those onto the stored value and flip the row.
        anchor = st.sampled_from(finite)
        literals.append(anchor)
        for direction in (-np.inf, np.inf):
            neighbour = anchor.map(
                lambda v, d=direction: _float32_neighbour(v, d)
            ).filter(np.isfinite)
            literals.append(neighbour)
            literals.append(
                st.tuples(anchor, neighbour, st.sampled_from([0.25, 0.5, 0.75])).map(
                    lambda avw: avw[0] * (1 - avw[2]) + avw[1] * avw[2]
                )
            )
    literal = st.one_of(*literals)
    where = [Comparison("c", draw(st.sampled_from(OPS)), draw(literal))]
    if draw(st.booleans()):
        where.append(Comparison("d", draw(st.sampled_from(OPS)), draw(literal)))
    return schema, rows, tuple(where)


def _page_image(schema: Schema, rows) -> bytes:
    page = HeapPage(LAYOUT)
    for row in rows:
        page.insert(schema, row)
    return page.to_bytes()


class TestPredicateParity:
    @settings(max_examples=300, deadline=None)
    @given(case=_cases())
    def test_mask_equals_matches_row_for_every_row(self, case):
        schema, rows, where = case
        image = _page_image(schema, rows)
        scanned = list(HeapPage.from_bytes(image, LAYOUT).tuples(schema))
        expected = [matches_row(schema, row, where) for row in scanned]
        predicate = ColumnPredicate.compile(schema, where)
        mask = predicate.mask(decode_page_rows(image, LAYOUT, schema))
        assert mask.dtype == bool
        assert mask.tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(case=_cases())
    def test_select_and_count_equal_the_per_row_oracle(self, case):
        schema, rows, where = case
        database = Database(page_size=LAYOUT.page_size)
        database.load_table("t", schema, rows)
        scanned = list(database.table("t").scan_tuples(database.buffer_pool))
        expected = [row for row in scanned if matches_row(schema, row, where)]
        selected = database.executor.execute_plan(SeqScan("t", where=where)).rows
        # repr distinguishes what == cannot: int from float, -0.0 from 0.0,
        # and it equates NaN with NaN.
        assert repr(selected) == repr(expected)
        counted = database.executor.execute_plan(CountScan("t", where=where)).rows
        assert counted == [(len(expected),)]

    def test_float32_comparison_would_flip_the_row(self):
        """Trap (a) pinned without hypothesis: a literal between two float32
        neighbours must compare in float64."""
        stored = float(np.float32(0.1))
        between = stored + (_float32_neighbour(0.1, np.inf) - stored) / 4
        schema = Schema.build([("c", ColumnType.FLOAT4)])
        predicate = ColumnPredicate.compile(schema, (Comparison("c", "<", between),))
        image = _page_image(schema, [(0.1,)])
        assert predicate.mask(decode_page_rows(image, LAYOUT, schema)).tolist() == [True]
        assert not np.float32(0.1) < np.float32(between)  # what float32 would say


class TestPredicateCompile:
    SCHEMA = Schema.build([("i", ColumnType.INT4), ("f", ColumnType.FLOAT4)])

    def test_empty_clause_compiles_to_none(self):
        assert ColumnPredicate.compile(self.SCHEMA, ()) is None

    @pytest.mark.parametrize("op", OPS)
    def test_unknown_column_and_string_literal_raise_for_every_operator(self, op):
        with pytest.raises(QueryError, match="unknown column 'nope'"):
            ColumnPredicate.compile(self.SCHEMA, (Comparison("nope", op, 1.0),))
        with pytest.raises(QueryError, match="column value of type int"):
            ColumnPredicate.compile(self.SCHEMA, (Comparison("i", op, "abc"),))
        with pytest.raises(QueryError, match="column value of type float"):
            ColumnPredicate.compile(self.SCHEMA, (Comparison("f", op, "abc"),))
        # the reference agrees: no operator answers a string comparison
        with pytest.raises(QueryError, match="column value of type float"):
            matches_row(self.SCHEMA, (1, 0.5), (Comparison("f", op, "abc"),))

    def test_predicate_is_hashable_picklable_and_renders_sql(self):
        where = (Comparison("i", ">=", 2.0), Comparison("f", "<>", True))
        predicate = ColumnPredicate.compile(self.SCHEMA, where)
        assert predicate.sql == "i >= 2.0 AND f <> true"
        clone = pickle.loads(pickle.dumps(predicate))
        assert clone == predicate and hash(clone) == hash(predicate)
        matrix = np.array([[2.0, 1.0], [3.0, 0.5], [1.0, 0.5]])
        assert clone.mask(matrix).tolist() == [False, True, False]


class TestVectorisedPageDecode:
    """``decode_page_records`` keeps the per-tuple decode's values and errors."""

    SCHEMA = Schema.build(
        [
            ("a", ColumnType.INT2),
            ("b", ColumnType.FLOAT4),
            ("c", ColumnType.INT8),
            ("d", ColumnType.FLOAT8),
            ("e", ColumnType.INT4),
        ]
    )
    ROWS = [(1, 0.1, 2**60 + 1, 0.1, -3), (-7, 2.5, -5, float("inf"), 2**31 - 1)]

    def test_records_tolist_equals_scanned_tuples(self):
        image = _page_image(self.SCHEMA, self.ROWS)
        scanned = list(HeapPage.from_bytes(image, LAYOUT).tuples(self.SCHEMA))
        records = decode_page_records(image, LAYOUT, self.SCHEMA)
        assert repr(records.tolist()) == repr(scanned)
        np.testing.assert_array_equal(
            decode_page_rows(image, LAYOUT, self.SCHEMA),
            np.asarray(scanned, dtype=np.float64),
        )

    def test_empty_page(self):
        image = HeapPage(LAYOUT).to_bytes()
        assert decode_page_records(image, LAYOUT, self.SCHEMA).shape == (0,)
        assert decode_page_rows(image, LAYOUT, self.SCHEMA).shape == (0, 5)

    def _corrupt(self, offset_in_tuple: int, value: int) -> bytes:
        image = bytearray(_page_image(self.SCHEMA, self.ROWS))
        tuple_offset = HeapPage.from_bytes(bytes(image), LAYOUT).line_pointer(1)[0]
        position = tuple_offset + offset_in_tuple
        image[position : position + 2] = value.to_bytes(2, "little")
        return bytes(image)

    @pytest.mark.parametrize(
        "offset_in_tuple,message",
        [(0, "tuple header claims 99 bytes"), (2, "tuple has 99 attributes")],
    )
    def test_bad_tuple_header_raises_the_per_tuple_page_error(
        self, offset_in_tuple, message
    ):
        image = self._corrupt(offset_in_tuple, 99)
        with pytest.raises(PageError, match=message) as vectorised:
            decode_page_records(image, LAYOUT, self.SCHEMA)
        with pytest.raises(PageError) as per_tuple:
            list(HeapPage.from_bytes(image, LAYOUT).tuples(self.SCHEMA))
        assert str(vectorised.value) == str(per_tuple.value)

    def test_bad_line_pointer_length_raises(self):
        image = bytearray(_page_image(self.SCHEMA, self.ROWS))
        pointer = LAYOUT.line_pointer_start + LAYOUT.line_pointer_size  # slot 1
        image[pointer + 2 : pointer + 4] = (TUPLE_HEADER_SIZE + 1).to_bytes(2, "little")
        with pytest.raises(PageError, match="tuple header claims"):
            decode_page_records(bytes(image), LAYOUT, self.SCHEMA)

    def test_wrong_page_size_raises(self):
        with pytest.raises(PageError, match="layout declares"):
            decode_page_records(b"\x00" * 128, LAYOUT, self.SCHEMA)
