"""Model registry: versioned model parameters persisted as heap tables.

MADlib stores trained models as ordinary database tables so that scoring
stays set-oriented and inside the RDBMS; the registry reproduces that
shape on the miniature substrate.  ``save`` flattens every named parameter
into ``(param, idx, value)`` rows, bulk-loads them into a real heap table
(pages, slotted tuples, buffer-pool reads — the same storage path training
tables use) and registers a :class:`~repro.rdbms.catalog.ModelEntry`
descriptor in the system catalog.  ``load`` scans the table back through
the buffer pool and reassembles the arrays from the descriptor's shapes.

Values are stored as ``FLOAT8`` columns, so a save/load round trip is
**bit-identical**: predictions from a loaded model match the in-memory
model exactly.  Missing models/versions raise
:class:`~repro.exceptions.ConfigurationError` naming what *is* available,
in the fail-fast style of ``DAnA.train`` validation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.exceptions import CatalogError, ConfigurationError
from repro.rdbms.catalog import ModelEntry, ModelParam
from repro.rdbms.types import ColumnType, Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdbms.database import Database

#: heap-table layout of one saved model: one row per scalar element.
MODEL_PARAM_SCHEMA = Schema.build(
    [
        ("param", ColumnType.INT4),   # index into ModelEntry.params
        ("idx", ColumnType.INT8),     # flat (C-order) element index
        ("value", ColumnType.FLOAT8), # exact float64 payload
    ]
)


def model_table_name(name: str, version: int) -> str:
    """The heap table holding one saved model version's parameters."""
    return f"dana_model__{name}__v{version}"


class ModelRegistry:
    """Persists and restores versioned models through the RDBMS."""

    def __init__(self, database: "Database") -> None:
        self.database = database

    # ------------------------------------------------------------------ #
    # save
    # ------------------------------------------------------------------ #
    def save(
        self,
        name: str,
        models: Mapping[str, np.ndarray],
        algorithm: str = "",
        metadata: dict | None = None,
    ) -> ModelEntry:
        """Persist ``models`` as the next version of ``name``."""
        if not isinstance(name, str) or not name:
            raise ConfigurationError(
                f"model name must be a non-empty string, got {name!r}"
            )
        if not models:
            raise ConfigurationError(
                f"cannot save model {name!r}: the model mapping is empty"
            )
        version = self.next_version(name)
        table = model_table_name(name, version)
        params: list[ModelParam] = []
        blocks: list[np.ndarray] = []
        for param_id, param_name in enumerate(sorted(models)):
            array = np.asarray(models[param_name], dtype=np.float64)
            params.append(
                ModelParam(name=param_name, shape=tuple(int(d) for d in array.shape))
            )
            flat = array.ravel(order="C")
            # One (n, 3) float64 block per parameter; float64 carries the
            # INT4 param id and INT8 element index exactly through the
            # storage write funnel (Schema.to_records).
            blocks.append(
                np.column_stack(
                    [np.full(flat.size, param_id, dtype=np.float64),
                     np.arange(flat.size, dtype=np.float64),
                     flat]
                )
            )
        rows = np.vstack(blocks) if blocks else np.empty((0, 3))
        self.database.load_table(table, MODEL_PARAM_SCHEMA, rows)
        entry = ModelEntry(
            name=name,
            version=version,
            algorithm=algorithm,
            table_name=table,
            params=params,
            metadata=dict(metadata or {}),
        )
        self.database.catalog.register_model(entry)
        return entry

    # ------------------------------------------------------------------ #
    # load
    # ------------------------------------------------------------------ #
    def load(
        self, name: str, version: int | None = None
    ) -> tuple[dict[str, np.ndarray], ModelEntry]:
        """Reassemble a saved model; returns ``(models, entry)``."""
        entry = self.entry(name, version)
        data = self.database.table(entry.table_name).read_all(
            self.database.buffer_pool
        )
        models: dict[str, np.ndarray] = {}
        for param_id, param in enumerate(entry.params):
            rows = data[data[:, 0] == param_id] if len(data) else data
            indices = rows[:, 1].astype(np.int64) if len(rows) else np.empty(0, np.int64)
            # The idx column must be a permutation of the element range —
            # a matching row count alone would let duplicated/missing
            # indices slip through and leave uninitialized elements.
            if len(rows) != param.element_count or not np.array_equal(
                np.sort(indices), np.arange(param.element_count)
            ):
                raise ConfigurationError(
                    f"saved model {name!r} v{entry.version} is corrupt: parameter "
                    f"{param.name!r} has {len(rows)} stored elements "
                    f"(expected every index in 0..{param.element_count - 1} "
                    "exactly once)"
                )
            flat = np.empty(param.element_count, dtype=np.float64)
            flat[indices] = rows[:, 2]
            models[param.name] = flat.reshape(param.shape)
        return models, entry

    def entry(self, name: str, version: int | None = None) -> ModelEntry:
        """Catalog descriptor of a saved model (fail-fast on misses)."""
        try:
            return self.database.catalog.model(name, version)
        except CatalogError as error:
            raise ConfigurationError(str(error)) from None

    # ------------------------------------------------------------------ #
    # drop
    # ------------------------------------------------------------------ #
    def drop(self, name: str, version: int | None = None) -> list[int]:
        """Drop a saved model's parameter tables and catalog entries.

        Args:
            name: the saved model's name.
            version: one version to drop, or ``None`` for all versions.

        Returns:
            The dropped version numbers, ascending.

        Raises:
            ConfigurationError: when the model (or version) does not exist,
                naming what *is* available.
        """
        try:
            return self.database.drop_model(name, version)
        except CatalogError as error:
            raise ConfigurationError(str(error)) from None

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def names(self) -> list[str]:
        """Names of all saved models, sorted."""
        return self.database.catalog.model_names()

    def versions(self, name: str) -> list[int]:
        """Saved versions of ``name``, ascending (empty when unknown)."""
        return self.database.catalog.model_versions(name)

    def next_version(self, name: str) -> int:
        """The version number the next :meth:`save` of ``name`` will get."""
        versions = self.versions(name)
        return (versions[-1] + 1) if versions else 1
