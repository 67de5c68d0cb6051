"""SQL front end: tokenizer, recursive-descent parser, logical plan, executor.

The paper's premise — like MADlib's "MAD Skills" lineage — is that advanced
analytics live *inside* the RDBMS behind a SQL surface.  This module is that
surface for the reproduction.  It grew from three regex patterns into a
small but real pipeline: a tokenizer, a recursive-descent parser producing
immutable logical-plan nodes, and an executor that walks the plan against
the :class:`~repro.rdbms.database.Database` (the classic parse → plan →
execute shape of Figure 2).

Supported statements (full grammar with examples in ``docs/sql.md``):

* ``SELECT * | cols | count(*) FROM <table> [WHERE ...] [LIMIT n]``
* ``SELECT * FROM dana.<udf>('<table>')`` — invoke a registered training
  UDF (the DAnA accelerator, MADlib baseline, ...) as a black box;
* ``SELECT dana.predict('<model>' [, version => k]) [AS name]
  FROM <table> [WHERE ...] [LIMIT n]`` — score a table with a saved model
  through the batched inference tape;
* ``SELECT * FROM dana.score('<model>', '<table>' [, segments => N,
  version => k, batch_size => B, stream => true|false,
  execution => 'threads'|'processes']) [LIMIT n]`` — sharded
  scan-and-score with explicit serving knobs;
* ``CREATE MODEL <name> AS TRAIN <udf> ON <table> [WITH (epochs => e,
  segments => N, ...)]`` — train and persist a model version;
* ``DROP MODEL <name> [VERSION k]`` and ``SHOW MODELS``;
* ``EXPLAIN [ANALYZE] <statement>`` — render the statement's operator
  tree with predicted costs from :mod:`repro.perf`; with ``ANALYZE``
  the statement also executes inside a statement-scoped telemetry
  capture (:class:`~repro.obs.statement_trace.StatementTrace`) and each
  operator shows predicted vs. measured work (see
  :mod:`repro.rdbms.explain`).

Prediction/training statements execute against the **serving runtime** (a
:class:`repro.core.DAnA` instance attached via
:meth:`~repro.rdbms.database.Database.attach_serving_runtime`), so SQL
predictions flow through the same batched inference tape and bulk Strider
scan-and-score as the Python API — never a per-tuple Python detour.

Every parse error echoes the offending statement with a caret under the
offending token (see :func:`caret_message`); executor errors append the
statement they were raised from.
"""

from __future__ import annotations

import operator
import re
from collections import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Protocol, Sequence

import numpy as np

from repro.exceptions import CatalogError, QueryError
from repro.obs.telemetry import telemetry
from repro.rdbms.page import decode_page_records
from repro.rdbms.predicate import COMPARISON_UFUNCS, ColumnPredicate, Comparison

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdbms.heapfile import HeapFile
    from repro.rdbms.types import Schema

#: comparison operators accepted in WHERE predicates.
COMPARISON_OPS = tuple(COMPARISON_UFUNCS)

#: statement keywords that may start a statement (used for error hints).
_STATEMENT_STARTERS = ("SELECT", "CREATE", "DROP", "SHOW", "EXPLAIN")

#: words rejected in name positions because they would make the grammar
#: ambiguous there (``train``, ``model``, ``version``, ... stay legal
#: table/column/model names).
_RESERVED = frozenset(
    {"select", "from", "where", "limit", "and", "as",
     "create", "drop", "show", "on", "with"}
)

#: a number may carry a sign and an exponent: the grammar has no
#: arithmetic, so a leading ``-`` can only be a sign.
_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<string>'(?:[^']|'')*')
    | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>=>|<>|!=|<=|>=|[=<>().,;*])
    """,
    re.VERBOSE,
)


# ---------------------------------------------------------------------- #
# error formatting
# ---------------------------------------------------------------------- #
def caret_message(sql: str, position: int, message: str) -> str:
    """Format ``message`` with the statement echoed and a caret at ``position``.

    Args:
        sql: the full statement text the error occurred in.
        position: 0-based character offset of the offending token.
        message: the one-line diagnosis.

    Returns:
        A multi-line string: the message, the offending source line, and a
        caret (``^``) under the offending column.
    """
    position = max(0, min(position, len(sql)))
    line_start = sql.rfind("\n", 0, position) + 1
    line_end = sql.find("\n", position)
    if line_end == -1:
        line_end = len(sql)
    line = sql[line_start:line_end]
    column = position - line_start
    return (
        f"{message}\n  {line}\n  {' ' * column}^ (at position {position})"
    )


def _parse_error(sql: str, position: int, message: str) -> QueryError:
    """A :class:`QueryError` carrying the statement and caret position."""
    error = QueryError(caret_message(sql, position, message))
    error.statement = sql
    error.position = position
    return error


def _unquote(raw: str) -> str:
    """A string token's value: strip quotes, unescape doubled quotes."""
    return raw[1:-1].replace("''", "'")


def _is_integer(number: str) -> bool:
    """True for a number token with neither a fraction nor an exponent."""
    return number.removeprefix("-").isdigit()


# ---------------------------------------------------------------------- #
# tokenizer
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Token:
    """One lexical token of a SQL statement.

    ``kind`` is one of ``"string"``, ``"number"``, ``"ident"``, ``"op"``
    or ``"end"``; ``value`` is the raw source text (strings keep their
    quotes) and ``position`` the 0-based character offset in the statement.
    """

    kind: str
    value: str
    position: int

    @property
    def upper(self) -> str:
        """The token text upper-cased (keyword comparisons)."""
        return self.value.upper()


def tokenize(sql: str) -> list[Token]:
    """Split a statement into :class:`Token` objects.

    Args:
        sql: the statement text.

    Returns:
        The token list, terminated by one ``"end"`` token.

    Raises:
        QueryError: on any character no token pattern matches, with the
            statement and a caret at the bad character.
    """
    tokens: list[Token] = []
    position = 0
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            raise _parse_error(
                sql, position, f"unexpected character {sql[position]!r}"
            )
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append(Token(kind=kind, value=match.group(), position=position))
        position = match.end()
    tokens.append(Token(kind="end", value="", position=len(sql)))
    return tokens


# ---------------------------------------------------------------------- #
# logical plan nodes
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SeqScan:
    """Plan node for ``SELECT [cols|*] FROM <table> [WHERE][LIMIT]``."""

    table_name: str
    columns: tuple[str, ...] | None = None  # None means ``*``
    where: tuple[Comparison, ...] = ()
    limit: int | None = None


@dataclass(frozen=True)
class CountScan:
    """Plan node for ``SELECT count(*) FROM <table> [WHERE]``."""

    table_name: str
    where: tuple[Comparison, ...] = ()


@dataclass(frozen=True)
class UDFCall:
    """Plan node for ``SELECT * FROM dana.<udf>('<table>')``."""

    udf_name: str
    table_name: str


@dataclass(frozen=True)
class PredictScan:
    """Plan node for ``SELECT dana.predict('<model>', ...) FROM <table>``.

    Executed by the serving runtime: WHERE is evaluated per decoded page
    on the access path, the qualifying tuples are scored through the
    batched inference tape (bit-identical to the same rows of
    ``DAnA.score_table``), then LIMIT truncates the returned rows.
    """

    model_name: str
    table_name: str
    version: int | None = None
    where: tuple[Comparison, ...] = ()
    limit: int | None = None
    alias: str | None = None


@dataclass(frozen=True)
class ScoreCall:
    """Plan node for ``SELECT * FROM dana.score('<model>', '<table>', ...)``."""

    model_name: str
    table_name: str
    version: int | None = None
    segments: int | None = None
    batch_size: int | None = None
    stream: bool | None = None
    #: segment fan-out strategy (``'threads'`` or ``'processes'``);
    #: ``None`` keeps ``score_table``'s default.
    execution: str | None = None
    limit: int | None = None


@dataclass(frozen=True)
class CreateModel:
    """Plan node for ``CREATE MODEL <name> AS TRAIN <udf> ON <table>``.

    ``options`` holds the ``WITH (key => value, ...)`` pairs verbatim; the
    serving runtime validates them against ``DAnA.train``'s configuration.
    """

    model_name: str
    udf_name: str
    table_name: str
    options: tuple[tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class DropModel:
    """Plan node for ``DROP MODEL <name> [VERSION k]``."""

    model_name: str
    version: int | None = None


@dataclass(frozen=True)
class ShowModels:
    """Plan node for ``SHOW MODELS``."""


@dataclass(frozen=True)
class Explain:
    """Plan node for ``EXPLAIN [ANALYZE] <statement>``.

    ``statement`` is the wrapped statement's own plan node; ``analyze``
    is True when the statement should also be executed under a
    statement-scoped telemetry capture.
    """

    statement: "LogicalPlan"
    analyze: bool = False


LogicalPlan = (
    SeqScan
    | CountScan
    | UDFCall
    | PredictScan
    | ScoreCall
    | CreateModel
    | DropModel
    | ShowModels
    | Explain
)


# ---------------------------------------------------------------------- #
# parser
# ---------------------------------------------------------------------- #
class _Parser:
    """Recursive-descent parser over the token stream of one statement."""

    def __init__(self, sql: str) -> None:
        self.sql = sql
        self.tokens = tokenize(sql)
        self.index = 0

    # -- token-stream helpers ------------------------------------------ #
    def peek(self, ahead: int = 0) -> Token:
        index = min(self.index + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.peek()
        if token.kind != "end":
            self.index += 1
        return token

    def error(self, message: str, token: Token | None = None) -> QueryError:
        token = token or self.peek()
        return _parse_error(self.sql, token.position, message)

    def at_keyword(self, *words: str) -> bool:
        token = self.peek()
        return token.kind == "ident" and token.upper in words

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self.error(f"expected {word}")
        return self.advance()

    def expect_op(self, op: str, what: str | None = None) -> Token:
        token = self.peek()
        if token.kind != "op" or token.value != op:
            raise self.error(what or f"expected {op!r}")
        return self.advance()

    def accept_op(self, op: str) -> bool:
        token = self.peek()
        if token.kind == "op" and token.value == op:
            self.advance()
            return True
        return False

    def expect_name(self, what: str) -> str:
        token = self.peek()
        if token.kind != "ident" or token.value.lower() in _RESERVED:
            raise self.error(f"expected {what}")
        return self.advance().value

    def expect_string(self, what: str) -> str:
        token = self.peek()
        if token.kind != "string":
            raise self.error(f"expected a quoted {what}, e.g. '<{what}>'")
        self.advance()
        return _unquote(token.value)

    def expect_int(self, what: str) -> int:
        token = self.peek()
        if token.kind != "number" or not _is_integer(token.value):
            raise self.error(f"expected an integer {what}")
        self.advance()
        return int(token.value)

    def expect_end(self) -> None:
        self.accept_op(";")
        token = self.peek()
        if token.kind != "end":
            raise self.error(f"unexpected trailing input {token.value!r}")

    # -- grammar ------------------------------------------------------- #
    def statement(self) -> LogicalPlan:
        if self.at_keyword("EXPLAIN"):
            return self._explain()
        if self.at_keyword("SELECT"):
            return self._select()
        if self.at_keyword("CREATE"):
            return self._create_model()
        if self.at_keyword("DROP"):
            return self._drop_model()
        if self.at_keyword("SHOW"):
            return self._show_models()
        raise self.error(
            "unsupported statement; expected one of "
            + ", ".join(_STATEMENT_STARTERS)
        )

    def _explain(self) -> Explain:
        """``EXPLAIN [ANALYZE] <statement>`` — wraps any other statement."""
        self.expect_keyword("EXPLAIN")
        analyze = False
        if self.at_keyword("ANALYZE"):
            self.advance()
            analyze = True
        if self.at_keyword("EXPLAIN"):
            raise self.error("EXPLAIN statements cannot be nested")
        return Explain(statement=self.statement(), analyze=analyze)

    def _select(self) -> LogicalPlan:
        self.expect_keyword("SELECT")
        # select list: *, count(*), dana.predict(...), or a column list.
        star = count = False
        predict: dict[str, Any] | None = None
        columns: tuple[str, ...] | None = None
        if self.accept_op("*"):
            star = True
        elif self.at_keyword("COUNT") and self.peek(1).value == "(":
            self.advance()
            self.expect_op("(")
            self.expect_op("*", "count(*) is the only supported aggregate")
            self.expect_op(")")
            count = True
        elif self.at_keyword("DANA") and self.peek(1).value == ".":
            predict = self._predict_call()
        else:
            names = [self.expect_name("a column name or '*'")]
            while self.accept_op(","):
                names.append(self.expect_name("a column name"))
            columns = tuple(names)
        self.expect_keyword("FROM")

        # FROM item: plain table, dana.<udf>('<table>'), or dana.score(...).
        if self.at_keyword("DANA") and self.peek(1).value == ".":
            from_call = self._from_dana_call(star)
        else:
            from_call = None
        if from_call is None:
            table_name = self.expect_name("a table name")
        where = self._where_clause()
        limit = self._limit_clause()
        self.expect_end()

        if predict is not None:
            if from_call is not None:
                raise self.error(
                    "dana.predict(...) selects FROM a plain table, "
                    "not from another dana.* call"
                )
            return PredictScan(
                model_name=predict["model"],
                table_name=table_name,
                version=predict["version"],
                where=where,
                limit=limit,
                alias=predict["alias"],
            )
        if from_call is not None:
            if where:
                raise self.error(
                    "WHERE is not supported on dana.* FROM calls; "
                    "filter the input table instead"
                )
            if isinstance(from_call, ScoreCall):
                return ScoreCall(
                    model_name=from_call.model_name,
                    table_name=from_call.table_name,
                    version=from_call.version,
                    segments=from_call.segments,
                    batch_size=from_call.batch_size,
                    stream=from_call.stream,
                    execution=from_call.execution,
                    limit=limit,
                )
            if limit is not None:
                raise self.error("LIMIT is not supported on training UDF calls")
            return from_call
        if count:
            if limit is not None:
                raise self.error("LIMIT is not supported with count(*)")
            return CountScan(table_name=table_name, where=where)
        return SeqScan(
            table_name=table_name, columns=columns, where=where, limit=limit
        )

    def _predict_call(self) -> dict[str, Any]:
        """``dana.predict('<model>' [, version => k]) [AS name]``."""
        self.expect_keyword("DANA")
        self.expect_op(".")
        name_token = self.peek()
        if name_token.upper != "PREDICT":
            raise self.error(
                "only dana.predict(...) may appear in the select list "
                "(dana.<udf>(...) and dana.score(...) are FROM items)"
            )
        self.advance()
        self.expect_op("(")
        model = self.expect_string("model")
        kwargs = self._kwargs_until_close(allowed={"version": "int"})
        alias = None
        if self.at_keyword("AS"):
            self.advance()
            alias = self.expect_name("an alias after AS")
        return {"model": model, "version": kwargs.get("version"), "alias": alias}

    def _from_dana_call(self, star: bool) -> UDFCall | ScoreCall:
        """``dana.<udf>('<table>')`` or ``dana.score('<model>', '<table>', ...)``."""
        dana_token = self.peek()
        self.expect_keyword("DANA")
        self.expect_op(".")
        name = self.expect_name("a UDF name after 'dana.'")
        if not star:
            raise _parse_error(
                self.sql,
                dana_token.position,
                "dana.* FROM calls support only SELECT *",
            )
        if name.lower() == "predict":
            raise self.error(
                "dana.predict(...) belongs in the select list: "
                "SELECT dana.predict('<model>') FROM <table>"
            )
        self.expect_op("(")
        if name.lower() == "score":
            model = self.expect_string("model")
            self.expect_op(",", "dana.score needs ('<model>', '<table>', ...)")
            table = self.expect_string("table")
            kwargs = self._kwargs_until_close(
                allowed={
                    "segments": "int",
                    "version": "int",
                    "batch_size": "int",
                    "stream": "bool",
                    "execution": "str",
                }
            )
            return ScoreCall(
                model_name=model,
                table_name=table,
                version=kwargs.get("version"),
                segments=kwargs.get("segments"),
                batch_size=kwargs.get("batch_size"),
                stream=kwargs.get("stream"),
                execution=kwargs.get("execution"),
            )
        table = self.expect_string("table")
        self.expect_op(")")
        return UDFCall(udf_name=name, table_name=table)

    def _kwargs_until_close(self, allowed: dict[str, str]) -> dict[str, Any]:
        """Parse ``, key => value`` pairs up to the closing ``)``.

        ``allowed`` maps keyword names to expected value kinds (``"int"``,
        ``"bool"`` or ``"str"``); anything else raises with a caret at the
        keyword.
        """
        kwargs: dict[str, Any] = {}
        while self.accept_op(","):
            key_token = self.peek()
            key = self.expect_name("an argument name").lower()
            if key not in allowed:
                raise _parse_error(
                    self.sql,
                    key_token.position,
                    f"unknown argument {key!r}; expected one of "
                    f"{sorted(allowed)}",
                )
            self.expect_op("=>", f"expected '=>' after {key!r}")
            if allowed[key] == "bool":
                if not self.at_keyword("TRUE", "FALSE"):
                    raise self.error(f"expected true or false for {key!r}")
                kwargs[key] = self.advance().upper == "TRUE"
            elif allowed[key] == "str":
                kwargs[key] = self.expect_string(f"value for {key!r}")
            else:
                kwargs[key] = self.expect_int(f"value for {key!r}")
        self.expect_op(")")
        return kwargs

    def _where_clause(self) -> tuple[Comparison, ...]:
        if not self.at_keyword("WHERE"):
            return ()
        self.advance()
        comparisons = [self._comparison()]
        while self.at_keyword("AND"):
            self.advance()
            comparisons.append(self._comparison())
        return tuple(comparisons)

    def _comparison(self) -> Comparison:
        column = self.expect_name("a column name in WHERE")
        op_token = self.peek()
        if op_token.kind != "op" or op_token.value not in COMPARISON_OPS:
            raise self.error(
                f"expected a comparison operator {COMPARISON_OPS}"
            )
        self.advance()
        value_token = self.peek()
        if value_token.kind == "number":
            value: float | str | bool = float(value_token.value)
            self.advance()
        elif value_token.kind == "string":
            value = _unquote(value_token.value)
            self.advance()
        elif self.at_keyword("TRUE", "FALSE"):
            value = self.advance().upper == "TRUE"
        else:
            raise self.error("expected a number, quoted string, true or false")
        return Comparison(column=column, op=op_token.value, value=value)

    def _limit_clause(self) -> int | None:
        if not self.at_keyword("LIMIT"):
            return None
        self.advance()
        limit = self.expect_int("after LIMIT")
        if limit < 0:
            raise self.error("LIMIT must be >= 0")
        return limit

    def _create_model(self) -> CreateModel:
        self.expect_keyword("CREATE")
        self.expect_keyword("MODEL")
        model_name = self.expect_name("a model name")
        self.expect_keyword("AS")
        self.expect_keyword("TRAIN")
        udf_name = self.expect_name("a registered UDF name after TRAIN")
        self.expect_keyword("ON")
        table_name = self.expect_name("a table name after ON")
        options: list[tuple[str, Any]] = []
        if self.at_keyword("WITH"):
            self.advance()
            self.expect_op("(")
            options.append(self._option())
            while self.accept_op(","):
                options.append(self._option())
            self.expect_op(")")
        self.expect_end()
        return CreateModel(
            model_name=model_name,
            udf_name=udf_name,
            table_name=table_name,
            options=tuple(options),
        )

    def _option(self) -> tuple[str, Any]:
        """One ``key => value`` pair of a CREATE MODEL WITH clause."""
        key = self.expect_name("an option name").lower()
        self.expect_op("=>", f"expected '=>' after {key!r}")
        token = self.peek()
        if token.kind == "number":
            self.advance()
            value: Any = int(token.value) if _is_integer(token.value) else float(token.value)
        elif token.kind == "string":
            self.advance()
            value = _unquote(token.value)
        elif self.at_keyword("TRUE", "FALSE"):
            value = self.advance().upper == "TRUE"
        elif token.kind == "ident":
            value = self.advance().value
        else:
            raise self.error(f"expected a value for option {key!r}")
        return key, value

    def _drop_model(self) -> DropModel:
        self.expect_keyword("DROP")
        self.expect_keyword("MODEL")
        model_name = self.expect_name("a model name")
        version = None
        if self.at_keyword("VERSION"):
            self.advance()
            version = self.expect_int("after VERSION")
        self.expect_end()
        return DropModel(model_name=model_name, version=version)

    def _show_models(self) -> ShowModels:
        self.expect_keyword("SHOW")
        self.expect_keyword("MODELS")
        self.expect_end()
        return ShowModels()


def parse(sql: str) -> LogicalPlan:
    """Parse one SQL statement into a logical-plan node.

    Args:
        sql: the statement text (a trailing ``;`` is optional).

    Returns:
        The immutable plan node (one of :data:`LogicalPlan`).

    Raises:
        QueryError: on any lexical or syntactic problem; the message echoes
            the statement with a caret at the offending position.
    """
    return _Parser(sql).statement()


# ---------------------------------------------------------------------- #
# predicate evaluation: the per-row reference
# ---------------------------------------------------------------------- #
def matches_row(
    schema: "Schema", row: Sequence[Any], comparisons: Iterable[Comparison]
) -> bool:
    """True when ``row`` satisfies every comparison (AND semantics).

    The per-row reference of :class:`~repro.rdbms.predicate.ColumnPredicate`:
    no statement evaluates its WHERE through this function (they filter a
    decoded page at a time); the property tests and the frozen benchmark's
    staged replay do.

    Args:
        schema: the table schema (resolves column names to positions).
        row: one scanned tuple, in schema order.
        comparisons: the parsed WHERE predicates.

    Returns:
        Whether all comparisons hold for the row.

    Raises:
        QueryError: when a comparison names a column the schema lacks or
            compares a numeric value with a string literal.
    """
    for comparison in comparisons:
        try:
            index = schema.index_of(comparison.column)
        except Exception:
            raise QueryError(
                f"WHERE references unknown column {comparison.column!r}; "
                f"table columns are {list(schema.names)}"
            ) from None
        value = row[index]
        target = comparison.value
        op = comparison.op
        try:
            if isinstance(target, str):
                # ``=`` / ``!=`` would answer silently where ``<`` raises.
                raise TypeError
            if op == "=":
                ok = value == target
            elif op in ("!=", "<>"):
                ok = value != target
            elif op == "<":
                ok = value < target
            elif op == "<=":
                ok = value <= target
            elif op == ">":
                ok = value > target
            else:  # ">="
                ok = value >= target
        except TypeError:
            raise QueryError(
                f"WHERE comparison {comparison.column} {op} {target!r} is "
                f"not valid for a column value of type "
                f"{type(value).__name__}"
            ) from None
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------- #
# results, runtime protocol, executor
# ---------------------------------------------------------------------- #
class ColumnRows(abc.Sequence):
    """A one-column result set as a lazy sequence over the column's array.

    What a scoring statement returns as :attr:`QueryResult.rows`: the rows
    ``[(value,) for value in column.tolist()]`` without building them.
    ``len()`` and ``rows[i]`` (a 1-tuple holding a float, or a list for a
    vector-valued column) read the array; slicing, iteration, ``==`` —
    with a list on either side, or another view — and ``repr`` build the
    list once and keep it.
    """

    def __init__(self, column: np.ndarray) -> None:
        """Wrap ``column``: one result row per element along its first axis."""
        self.column = column
        self._rows: list[tuple[Any]] | None = None

    def _list(self) -> list[tuple[Any]]:
        if self._rows is None:
            self._rows = [(value,) for value in self.column.tolist()]
        return self._rows

    def __len__(self) -> int:
        return len(self.column)

    def __getitem__(self, index):
        if self._rows is not None or isinstance(index, slice):
            return self._list()[index]
        return (self.column[operator.index(index)].tolist(),)

    def __iter__(self) -> Iterator[tuple[Any]]:
        return iter(self._list())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnRows):
            other = other._list()
        if isinstance(other, list):
            return self._list() == other
        return NotImplemented

    __hash__ = None  # compares by value, like the list it stands for

    def __repr__(self) -> str:
        return repr(self._list())


@dataclass
class QueryResult:
    """Result of executing a query.

    ``rows`` holds the output rows (scan results, a statement's summary
    row — a plain list — or, for ``dana.predict`` / ``dana.score``, a
    :class:`ColumnRows` view over the prediction array); ``payload``
    carries structured output such as a trained-model report or a
    :class:`~repro.serving.ScoreResult`, and ``stats`` holds engine-side
    counters.
    """

    rows: Sequence[tuple[Any, ...]] = field(default_factory=list)
    columns: tuple[str, ...] = ()
    payload: Any = None
    stats: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        """Number of result rows."""
        return len(self.rows)


class UDFHandler(Protocol):
    """Callable invoked by the executor for ``dana.<udf>()`` queries."""

    def __call__(self, database: Any, table_name: str) -> QueryResult:
        """Run the UDF over ``table_name`` and return its result rows."""
        ...


class ServingRuntime(Protocol):
    """What the executor needs from an attached DAnA system.

    :class:`repro.core.DAnA` implements this protocol and attaches itself
    to the database on construction; the executor routes prediction and
    model-training statements through it so SQL scoring runs on the same
    batched inference tape as the Python API.
    """

    def sql_predict(self, plan: PredictScan) -> QueryResult:
        """Execute ``SELECT dana.predict(...) FROM ...``."""
        ...

    def sql_score(self, plan: ScoreCall) -> QueryResult:
        """Execute ``SELECT * FROM dana.score(...)``."""
        ...

    def sql_create_model(self, plan: CreateModel) -> QueryResult:
        """Execute ``CREATE MODEL ... AS TRAIN ...``."""
        ...

    def sql_explain(self, plan: LogicalPlan) -> Any:
        """Build the EXPLAIN operator tree of a serving statement.

        Returns a :class:`~repro.rdbms.explain.PlanOperator` describing
        how the runtime would execute the statement, with predicted
        costs from the :mod:`repro.perf` models.
        """
        ...


class QueryExecutor:
    """Executes logical plans against a :class:`repro.rdbms.database.Database`.

    Scans, ``count(*)``, ``SHOW MODELS`` and ``DROP MODEL`` run directly on
    the storage/catalog layer; UDF calls dispatch to registered handlers;
    predict/score/CREATE MODEL statements dispatch to the attached
    :class:`ServingRuntime`.
    """

    def __init__(self, database: Any) -> None:
        """Bind the executor to one database instance."""
        self.database = database

    def execute(self, sql: str) -> QueryResult:
        """Parse and execute one statement.

        Args:
            sql: the statement text.

        Returns:
            The :class:`QueryResult` of the plan's execution.

        Raises:
            QueryError: on parse errors (with a caret position) or
                execution errors (with the statement appended).
        """
        plan = parse(sql)
        obs = telemetry()
        span = (
            obs.span("sql.execute", statement=type(plan).__name__)
            if obs is not None
            else None
        )
        try:
            result = self.execute_plan(plan)
        except QueryError as error:
            if getattr(error, "statement", None) is None:
                wrapped = QueryError(f"{error}\n  in statement: {sql.strip()}")
                wrapped.statement = sql
                raise wrapped from None
            raise
        if span is not None:
            obs.finish(span, rows=len(result.rows))
        return result

    def execute_plan(self, plan: LogicalPlan) -> QueryResult:
        """Execute an already-parsed logical plan node."""
        if isinstance(plan, UDFCall):
            return self._execute_udf(plan)
        if isinstance(plan, CountScan):
            return self._execute_count(plan)
        if isinstance(plan, SeqScan):
            return self._execute_scan(plan)
        if isinstance(plan, PredictScan):
            return self._serving_runtime().sql_predict(plan)
        if isinstance(plan, ScoreCall):
            return self._serving_runtime().sql_score(plan)
        if isinstance(plan, CreateModel):
            return self._serving_runtime().sql_create_model(plan)
        if isinstance(plan, DropModel):
            return self._execute_drop_model(plan)
        if isinstance(plan, ShowModels):
            return self._execute_show_models()
        if isinstance(plan, Explain):
            return self._execute_explain(plan)
        raise QueryError(f"unknown plan node {plan!r}")

    # ------------------------------------------------------------------ #
    # plan node execution
    # ------------------------------------------------------------------ #
    def _serving_runtime(self) -> ServingRuntime:
        runtime = getattr(self.database, "serving_runtime", None)
        if runtime is None:
            raise QueryError(
                "no DAnA system is attached to this database; construct "
                "repro.core.DAnA(database) before running prediction or "
                "CREATE MODEL statements"
            )
        return runtime

    def _execute_udf(self, plan: UDFCall) -> QueryResult:
        catalog = self.database.catalog
        if not catalog.has_udf(plan.udf_name):
            raise QueryError(
                f"UDF dana.{plan.udf_name} is not registered; "
                f"registered UDFs: {catalog.udf_names()}"
            )
        if not catalog.has_table(plan.table_name):
            raise QueryError(f"table {plan.table_name!r} does not exist")
        handler = catalog.udf(plan.udf_name)
        return handler(self.database, plan.table_name)

    def _table(self, table_name: str) -> "HeapFile":
        if not self.database.catalog.has_table(table_name):
            raise QueryError(f"table {table_name!r} does not exist")
        return self.database.table(table_name)

    def _scan_pages(
        self, table: "HeapFile", predicate: ColumnPredicate | None
    ) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        """``(records, qualifying mask)`` of each page, via the buffer pool.

        One vectorised decode and one predicate evaluation per page; the
        mask is ``None`` when the statement has no WHERE.
        """
        schema = table.schema
        for _page_no, image in table.scan_pages(self.database.buffer_pool):
            records = decode_page_records(image, table.layout, schema)
            if predicate is None:
                yield records, None
            else:
                yield records, predicate.mask(schema.as_matrix(records))

    def _execute_scan(self, plan: SeqScan) -> QueryResult:
        table = self._table(plan.table_name)
        schema = table.schema
        predicate = ColumnPredicate.compile(schema, plan.where)
        # Python tuples are materialised for qualifying rows only.
        rows = [
            row
            for records, mask in self._scan_pages(table, predicate)
            for row in (records if mask is None else records[mask]).tolist()
        ]
        if plan.limit is not None:
            rows = rows[: plan.limit]
        if plan.columns is not None:
            indexes = [schema.index_of(c) for c in plan.columns]
            rows = [tuple(row[i] for i in indexes) for row in rows]
            columns = plan.columns
        else:
            columns = schema.names
        return QueryResult(rows=rows, columns=columns)

    def _execute_count(self, plan: CountScan) -> QueryResult:
        table = self._table(plan.table_name)
        predicate = ColumnPredicate.compile(table.schema, plan.where)
        if predicate is None:
            # The live count an un-pinned scan would produce, no tuple decoded.
            count = table.tuple_count
        else:
            count = sum(
                int(mask.sum()) for _records, mask in self._scan_pages(table, predicate)
            )
        return QueryResult(rows=[(count,)], columns=("count",))

    def _execute_drop_model(self, plan: DropModel) -> QueryResult:
        try:
            dropped = self.database.drop_model(plan.model_name, plan.version)
        except CatalogError as error:
            raise QueryError(str(error)) from None
        return QueryResult(
            rows=[(plan.model_name, version) for version in dropped],
            columns=("model", "dropped_version"),
        )

    def _execute_explain(self, plan: Explain) -> QueryResult:
        """Execute ``EXPLAIN [ANALYZE]``: build, (optionally) run, render.

        Plain ``EXPLAIN`` never executes the statement — the operator
        tree carries only resolved knobs and predicted costs.  ``EXPLAIN
        ANALYZE`` executes it inside a
        :class:`~repro.obs.statement_trace.StatementTrace`, annotates
        predicted-vs-actual per operator, and — when the statement
        recorded a run — persists the trace payload onto that run so
        ``repro trace <run_id>`` can replay it.
        """
        from repro.obs.statement_trace import StatementTrace
        from repro.rdbms.explain import PlanExplainer

        explainer = PlanExplainer(self.database)
        report = explainer.build_report(plan)
        stats: dict[str, Any] = {"analyze": plan.analyze}
        if plan.analyze:
            catalog = self.database.catalog
            runs_before = catalog.next_run_id()
            trace = StatementTrace()
            with trace:
                inner = self.execute_plan(plan.statement)
            report.result = inner
            report.trace = trace.to_payload()
            explainer.annotate(report, trace, inner)
            runs_after = catalog.next_run_id()
            runtime = getattr(self.database, "serving_runtime", None)
            recorder = getattr(runtime, "run_recorder", None)
            if recorder is not None and runs_after > runs_before:
                report.run_id = runs_after - 1
                recorder.attach_trace(report.run_id, report.to_payload())
            stats["run_id"] = report.run_id
        return QueryResult(
            rows=[(line,) for line in report.render()],
            columns=("QUERY PLAN",),
            payload=report,
            stats=stats,
        )

    def _execute_show_models(self) -> QueryResult:
        rows = []
        for entry in self.database.catalog.models():
            params = ",".join(
                f"{p.name}({'x'.join(map(str, p.shape)) or 'scalar'})"
                for p in entry.params
            )
            rows.append(
                (entry.name, entry.version, entry.algorithm, entry.table_name, params)
            )
        return QueryResult(
            rows=rows,
            columns=("model", "version", "algorithm", "table_name", "parameters"),
        )
