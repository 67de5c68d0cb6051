"""WHERE predicates compiled once per statement, evaluated once per page.

DAnA's Striders cleanse tuples at page granularity on their way to the
engine so that nothing is paid per tuple on the host (paper §5.1).  A
``WHERE`` clause follows the same rule here: the parsed
:class:`Comparison` terms are compiled **once**, against the table schema,
into a :class:`ColumnPredicate` — a column index, a NumPy comparison ufunc
and a ``float64`` literal per term — whose :meth:`ColumnPredicate.mask`
filters a whole decoded page matrix in a few vectorised operations.
``SELECT``, ``count(*)`` and ``dana.predict`` all evaluate their ``WHERE``
through it; :func:`repro.rdbms.query.matches_row` stays as the per-row
reference the property tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.exceptions import QueryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdbms.types import Schema

#: comparison operators accepted in WHERE predicates → their NumPy ufunc.
COMPARISON_UFUNCS = {
    "=": np.equal,
    "!=": np.not_equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


@dataclass(frozen=True)
class Comparison:
    """One ``<column> <op> <literal>`` predicate of a WHERE clause."""

    column: str
    op: str
    value: float | str | bool

    @property
    def sql(self) -> str:
        """The comparison as SQL text."""
        if isinstance(self.value, bool):
            literal = "true" if self.value else "false"
        elif isinstance(self.value, str):
            literal = "'" + self.value.replace("'", "''") + "'"
        else:
            literal = repr(self.value)
        return f"{self.column} {self.op} {literal}"


@dataclass(frozen=True)
class ColumnPredicate:
    """A WHERE clause (AND of comparisons) resolved against one schema.

    Frozen, hashable and picklable: a scoring statement's predicate rides
    on its :class:`~repro.core.plan.ScorePlan` into worker processes.
    """

    comparisons: tuple[Comparison, ...]
    #: ``(column index, comparison ufunc, float64 literal)`` per comparison.
    terms: tuple[tuple[int, np.ufunc, np.float64], ...] = field(repr=False)

    @classmethod
    def compile(
        cls, schema: "Schema", where: Sequence[Comparison]
    ) -> "ColumnPredicate | None":
        """Resolve ``where`` against ``schema``; ``None`` for an empty clause.

        Every column the substrate stores is numeric, so a literal is a
        number or ``true``/``false`` (compared as 1/0, like Python compares
        a number with a ``bool``); both are held as ``float64`` — the type
        every decode path widens column values to.

        Raises:
            QueryError: when a comparison names a column the schema lacks,
                or compares a (numeric) column with a string literal.
        """
        if not where:
            return None
        names = schema.names
        terms = []
        for comparison in where:
            if comparison.column not in names:
                raise QueryError(
                    f"WHERE references unknown column {comparison.column!r}; "
                    f"table columns are {list(names)}"
                )
            index = names.index(comparison.column)
            if isinstance(comparison.value, str):
                ctype = schema.columns[index].ctype
                raise QueryError(
                    f"WHERE comparison {comparison.column} {comparison.op} "
                    f"{comparison.value!r} is not valid for a column value of "
                    f"type {'int' if ctype.is_integer else 'float'}"
                )
            terms.append(
                (index, COMPARISON_UFUNCS[comparison.op], np.float64(comparison.value))
            )
        return cls(comparisons=tuple(where), terms=tuple(terms))

    @property
    def sql(self) -> str:
        """The clause as SQL text (what ``EXPLAIN`` and the run record show)."""
        return " AND ".join(comparison.sql for comparison in self.comparisons)

    def mask(self, matrix: np.ndarray) -> np.ndarray:
        """Which rows of a decoded ``(tuples, columns)`` matrix qualify.

        ``matrix`` must be the ``float64`` matrix the decode paths produce:
        comparing a ``float32`` column with the literal would round the
        literal to ``float32`` first (NumPy's weak-scalar rule) and flip
        rows whose value sits next to it.  Row ``i`` of the result equals
        ``matches_row(schema, row_i, comparisons)`` with one documented
        limit: INT8 magnitudes beyond 2**53 compare as the ``float64`` the
        engine already decodes them to.
        """
        (index, compare, literal), *rest = self.terms
        keep = compare(matrix[:, index], literal)
        for index, compare, literal in rest:
            keep &= compare(matrix[:, index], literal)
        return keep
