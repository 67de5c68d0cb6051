"""Unit tests for heap files, the catalog, the database facade and SQL."""

import numpy as np
import pytest

from repro.exceptions import CatalogError, QueryError
from repro.rdbms import (
    AcceleratorEntry,
    Database,
    PageLayout,
    Schema,
    parse,
)
from repro.rdbms.catalog import Catalog, TableEntry
from repro.rdbms.query import CountScan, SeqScan, UDFCall


@pytest.fixture
def db(small_regression_data, linear_spec):
    database = Database(page_size=8 * 1024)
    database.load_table("train", linear_spec.schema, small_regression_data)
    return database


class TestHeapFile:
    def test_bulk_load_counts(self, db):
        table = db.table("train")
        assert table.tuple_count == 200
        assert table.page_count >= 1
        assert db.catalog.table("train").tuple_count == 200

    def test_scan_round_trip(self, db, small_regression_data):
        table = db.table("train")
        data = table.read_all(db.buffer_pool)
        assert data.shape == small_regression_data.shape
        # float4 on-page storage loses precision; compare accordingly
        np.testing.assert_allclose(data, small_regression_data, rtol=1e-6, atol=1e-5)

    def test_tuples_per_page_consistency(self, db):
        table = db.table("train")
        per_page = table.tuples_per_page()
        assert (table.page_count - 1) * per_page < table.tuple_count <= table.page_count * per_page

    def test_scan_goes_through_buffer_pool(self, db):
        db.reset_io_stats()
        list(db.table("train").scan_tuples(db.buffer_pool))
        assert db.buffer_pool.stats.misses == db.table("train").page_count
        list(db.table("train").scan_tuples(db.buffer_pool))
        assert db.buffer_pool.stats.hits >= db.table("train").page_count


class TestCatalog:
    def test_duplicate_table(self):
        catalog = Catalog()
        entry = TableEntry("t", Schema.training_schema(2), "t", PageLayout())
        catalog.register_table(entry)
        with pytest.raises(CatalogError):
            catalog.register_table(entry)

    def test_missing_table(self):
        with pytest.raises(CatalogError):
            Catalog().table("missing")

    def test_accelerator_metadata(self):
        catalog = Catalog()
        entry = AcceleratorEntry(
            udf_name="linearR",
            algorithm="linear",
            design={"threads": 4},
            strider_program=[1, 2, 3],
            execution_schedule=[],
        )
        catalog.register_accelerator(entry)
        assert catalog.has_accelerator("linearR")
        assert catalog.accelerator("linearR").design["threads"] == 4
        with pytest.raises(CatalogError):
            catalog.accelerator("missing")

    def test_udf_registry(self):
        catalog = Catalog()
        catalog.register_udf("f", lambda db, t: None)
        assert catalog.has_udf("f")
        assert catalog.udf_names() == ["f"]
        with pytest.raises(CatalogError):
            catalog.udf("g")


class TestSQLParsing:
    def test_parse_udf_call(self):
        plan = parse("SELECT * FROM dana.linearR('training_data_table');")
        assert isinstance(plan, UDFCall)
        assert plan.udf_name == "linearR"
        assert plan.table_name == "training_data_table"

    def test_parse_udf_call_case_insensitive(self):
        plan = parse("select * from DANA.myUdf('t')")
        assert isinstance(plan, UDFCall)
        assert plan.udf_name == "myUdf"

    def test_parse_seq_scan(self):
        plan = parse("SELECT * FROM train")
        assert isinstance(plan, SeqScan)
        assert plan.columns is None

    def test_parse_projection(self):
        plan = parse("SELECT x0, y FROM train;")
        assert isinstance(plan, SeqScan)
        assert plan.columns == ("x0", "y")

    def test_parse_count(self):
        plan = parse("SELECT count(*) FROM train")
        assert isinstance(plan, CountScan)

    def test_parse_garbage(self):
        with pytest.raises(QueryError):
            parse("DELETE FROM train")


class TestQueryExecution:
    def test_seq_scan(self, db):
        result = db.execute("SELECT * FROM train")
        assert len(result) == 200
        assert result.columns == db.table("train").schema.names

    def test_projection(self, db):
        result = db.execute("SELECT y, x0 FROM train")
        assert result.columns == ("y", "x0")
        assert len(result.rows[0]) == 2

    def test_count(self, db):
        result = db.execute("SELECT count(*) FROM train")
        assert result.rows == [(200,)]

    def test_missing_table(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT * FROM nope")

    def test_udf_black_box_invocation(self, db):
        calls = []

        def handler(database, table_name):
            calls.append(table_name)
            from repro.rdbms.query import QueryResult

            return QueryResult(rows=[("ok",)], columns=("status",))

        db.register_udf("myudf", handler)
        result = db.execute("SELECT * FROM dana.myudf('train')")
        assert calls == ["train"]
        assert result.rows == [("ok",)]

    def test_udf_unknown(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT * FROM dana.unknown('train')")

    def test_udf_missing_table(self, db):
        db.register_udf("f", lambda database, t: None)
        with pytest.raises(QueryError):
            db.execute("SELECT * FROM dana.f('missing')")

    def test_warm_and_cold_cache_controls(self, db):
        resident = db.warm_cache("train")
        assert resident == db.table("train").page_count
        db.cold_cache()
        db.reset_io_stats()
        # (an unfiltered count(*) is answered from the heap file's tuple
        # count and reads no page, so a scan is the cold-cache probe)
        db.execute("SELECT * FROM train")
        assert db.buffer_pool.stats.misses > 0

    def test_duplicate_table_rejected(self, db, linear_spec):
        with pytest.raises(CatalogError):
            db.create_table("train", linear_spec.schema)

    def test_drop_table(self, db):
        db.drop_table("train")
        assert "train" not in db.table_names()
