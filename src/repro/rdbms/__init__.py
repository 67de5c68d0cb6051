"""Miniature RDBMS substrate with a PostgreSQL-style storage layer.

This package provides everything DAnA needs from the host database: binary
heap pages, heap files, a buffer pool, a catalog shared with the
accelerator, and a small SQL front end that can invoke UDFs.
"""

from repro.rdbms.buffer_pool import BufferPool, BufferPoolStats
from repro.rdbms.catalog import (
    AcceleratorEntry,
    Catalog,
    ModelEntry,
    ModelParam,
    TableEntry,
)
from repro.rdbms.database import Database
from repro.rdbms.heapfile import HeapFile
from repro.rdbms.heaptuple import TUPLE_HEADER_SIZE, TupleHeader, decode_tuple, encode_tuple
from repro.rdbms.page import (
    DEFAULT_PAGE_SIZE,
    LINE_POINTER_SIZE,
    PAGE_HEADER_SIZE,
    SUPPORTED_PAGE_SIZES,
    HeapPage,
    PageLayout,
    decode_page_records,
    decode_page_rows,
)
from repro.rdbms.predicate import ColumnPredicate, Comparison
from repro.rdbms.query import (
    ColumnRows,
    CountScan,
    CreateModel,
    DropModel,
    PredictScan,
    QueryExecutor,
    QueryResult,
    ScoreCall,
    SeqScan,
    ServingRuntime,
    ShowModels,
    Token,
    UDFCall,
    caret_message,
    matches_row,
    parse,
    tokenize,
)
from repro.rdbms.storage import StorageManager, StorageStats
from repro.rdbms.types import Column, ColumnType, Schema
from repro.rdbms.wal import WAL_APPEND_FAULT_SITE, WalRecord, WriteAheadLog

__all__ = [
    "AcceleratorEntry",
    "BufferPool",
    "BufferPoolStats",
    "Catalog",
    "Column",
    "ColumnPredicate",
    "ColumnType",
    "ColumnRows",
    "Comparison",
    "CountScan",
    "CreateModel",
    "Database",
    "DropModel",
    "DEFAULT_PAGE_SIZE",
    "HeapFile",
    "HeapPage",
    "LINE_POINTER_SIZE",
    "ModelEntry",
    "ModelParam",
    "PAGE_HEADER_SIZE",
    "PageLayout",
    "PredictScan",
    "QueryExecutor",
    "QueryResult",
    "Schema",
    "ScoreCall",
    "SeqScan",
    "ServingRuntime",
    "ShowModels",
    "StorageManager",
    "StorageStats",
    "SUPPORTED_PAGE_SIZES",
    "TableEntry",
    "Token",
    "TUPLE_HEADER_SIZE",
    "TupleHeader",
    "UDFCall",
    "WAL_APPEND_FAULT_SITE",
    "WalRecord",
    "WriteAheadLog",
    "caret_message",
    "decode_page_records",
    "decode_page_rows",
    "decode_tuple",
    "encode_tuple",
    "matches_row",
    "parse",
    "tokenize",
]
