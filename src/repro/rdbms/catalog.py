"""System catalog.

Besides the usual table metadata, the catalog is where DAnA stores the
generated accelerator artefacts: "DAnA stores accelerator metadata (Strider
and execution engine instruction schedules) in the RDBMS's catalog along
with the name of a UDF to be invoked from the query" (§3).  The catalog is
therefore shared between the database engine and the (simulated) FPGA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import CatalogError
from repro.rdbms.page import PageLayout
from repro.rdbms.types import Schema


@dataclass
class TableEntry:
    """Catalog record for one table."""

    name: str
    schema: Schema
    file_name: str
    layout: PageLayout
    tuple_count: int = 0


@dataclass(frozen=True)
class ModelParam:
    """Shape descriptor of one named parameter of a saved model."""

    name: str
    shape: tuple[int, ...]

    @property
    def element_count(self) -> int:
        """Number of scalar elements of this parameter (product of shape)."""
        count = 1
        for d in self.shape:
            count *= d
        return count


@dataclass
class ModelEntry:
    """Catalog record for one saved (versioned) model.

    The parameter *values* live in a real heap table (``table_name``, one
    row per scalar element — the MADlib shape of models-as-tables); the
    catalog holds everything a scan of that table cannot reconstruct:
    parameter names and shapes, the producing algorithm, and free-form
    metadata.
    """

    name: str
    version: int
    algorithm: str
    table_name: str
    params: list[ModelParam] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)


@dataclass
class AcceleratorEntry:
    """Catalog record for one compiled DAnA UDF.

    ``design`` is the hardware configuration produced by the hardware
    generator, ``strider_program`` the access-engine instructions, and
    ``execution_schedule`` the execution-engine micro-instruction schedule.
    They are stored opaquely so the catalog has no dependency on the
    compiler packages.
    """

    udf_name: str
    algorithm: str
    design: Any
    strider_program: Any
    execution_schedule: Any
    metadata: dict[str, Any] = field(default_factory=dict)


@dataclass
class RunEntry:
    """Catalog record for one recorded train / score / bench run.

    The *numeric* run facts (schedule-derived counters, span rollups,
    wall time) live in the ``repro_runs`` / ``repro_run_metrics`` heap
    tables — the database is its own telemetry backend — while the
    catalog holds everything a numeric heap scan cannot reconstruct:
    the run kind, labels, config, git revision, and the structured
    fault / retry record.
    """

    #: monotonically increasing run id (the heap tables' join key).
    run_id: int
    #: one of ``("train", "score", "refresh")``.
    kind: str
    #: human label: the UDF for training, the table for scoring.
    label: str
    #: the scanned heap table, when the run scanned one.
    table_name: str = ""
    #: saved-model name/version the run produced or served, if any.
    model_name: str = ""
    model_version: int | None = None
    #: the algorithm behind the run's UDF/model, when known.
    algorithm: str = ""
    #: the invocation's configuration kwargs (JSON-friendly values).
    config: dict[str, Any] = field(default_factory=dict)
    #: ``git rev-parse --short HEAD`` at record time ("" when unknown).
    git_rev: str = ""
    #: ISO-8601 wall-clock timestamp at run start.
    started_at: str = ""
    #: end-to-end wall-clock seconds of the invocation.
    wall_seconds: float = 0.0
    #: fired injected faults during the run (``site``/``call``/``kind``
    #: dicts, from :class:`repro.reliability.faults.FaultLogEntry`).
    faults: list[dict] = field(default_factory=list)
    #: retry counters of the run (:class:`repro.reliability.retry.RetryStats`
    #: as a dict; empty when the run had no retry supervision).
    retry: dict[str, int] = field(default_factory=dict)
    #: statement-trace payload of an ``EXPLAIN ANALYZE`` run (rendered
    #: plan, operator tree, span dump) — empty unless a trace was
    #: attached via :meth:`repro.obs.recorder.RunRecorder.attach_trace`.
    trace: dict[str, Any] = field(default_factory=dict)


class Catalog:
    """In-memory system catalog shared by the engine and the accelerator."""

    def __init__(self) -> None:
        self._tables: dict[str, TableEntry] = {}
        self._accelerators: dict[str, AcceleratorEntry] = {}
        self._udf_handlers: dict[str, Any] = {}
        self._models: dict[str, dict[int, ModelEntry]] = {}
        self._runs: dict[int, RunEntry] = {}
        self._run_metric_ids: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # tables
    # ------------------------------------------------------------------ #
    def register_table(self, entry: TableEntry) -> None:
        """Register a new table; raises CatalogError on duplicates."""
        if entry.name in self._tables:
            raise CatalogError(f"table {entry.name!r} already exists")
        self._tables[entry.name] = entry

    def drop_table(self, name: str) -> None:
        """Remove a table's catalog entry; raises CatalogError when missing."""
        if name not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[name]

    def has_table(self, name: str) -> bool:
        """True when a table named ``name`` is registered."""
        return name in self._tables

    def table(self, name: str) -> TableEntry:
        """The catalog entry of ``name``; raises CatalogError when missing."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def tables(self) -> list[TableEntry]:
        """All table entries, sorted by name."""
        return [self._tables[k] for k in sorted(self._tables)]

    def update_tuple_count(self, name: str, tuple_count: int) -> None:
        """Record a table's tuple count after a bulk load."""
        self.table(name).tuple_count = tuple_count

    # ------------------------------------------------------------------ #
    # accelerator metadata (DAnA)
    # ------------------------------------------------------------------ #
    def register_accelerator(self, entry: AcceleratorEntry) -> None:
        """Store (or replace) a compiled UDF's accelerator metadata."""
        self._accelerators[entry.udf_name] = entry

    def has_accelerator(self, udf_name: str) -> bool:
        """True when accelerator metadata exists for ``udf_name``."""
        return udf_name in self._accelerators

    def accelerator(self, udf_name: str) -> AcceleratorEntry:
        """Accelerator metadata of a UDF; raises CatalogError when missing."""
        try:
            return self._accelerators[udf_name]
        except KeyError:
            raise CatalogError(
                f"no accelerator registered for UDF {udf_name!r}"
            ) from None

    def accelerators(self) -> list[AcceleratorEntry]:
        """All accelerator entries, sorted by UDF name."""
        return [self._accelerators[k] for k in sorted(self._accelerators)]

    # ------------------------------------------------------------------ #
    # saved models (prediction serving)
    # ------------------------------------------------------------------ #
    def register_model(self, entry: ModelEntry) -> None:
        """Register one saved model version; raises CatalogError on duplicates."""
        versions = self._models.setdefault(entry.name, {})
        if entry.version in versions:
            raise CatalogError(
                f"model {entry.name!r} version {entry.version} already exists"
            )
        versions[entry.version] = entry

    def has_model(self, name: str, version: int | None = None) -> bool:
        """True when the model (and, if given, the version) exists."""
        versions = self._models.get(name)
        if not versions:
            return False
        return version is None or version in versions

    def model(self, name: str, version: int | None = None) -> ModelEntry:
        """Look up a saved model (latest version when ``version`` is None)."""
        versions = self._models.get(name)
        if not versions:
            raise CatalogError(
                f"no saved model named {name!r}; available: {self.model_names()}"
            )
        if version is None:
            return versions[max(versions)]
        try:
            return versions[version]
        except KeyError:
            raise CatalogError(
                f"model {name!r} has no version {version}; "
                f"available versions: {sorted(versions)}"
            ) from None

    def drop_model(self, name: str, version: int | None = None) -> list[int]:
        """Remove a saved model's catalog entries.

        Args:
            name: the model name.
            version: one version to drop, or ``None`` for every version.

        Returns:
            The dropped version numbers, ascending.

        Raises:
            CatalogError: when the model (or the named version) does not
                exist.
        """
        versions = self._models.get(name)
        if not versions:
            raise CatalogError(
                f"no saved model named {name!r}; available: {self.model_names()}"
            )
        if version is None:
            dropped = sorted(versions)
            del self._models[name]
            return dropped
        if version not in versions:
            raise CatalogError(
                f"model {name!r} has no version {version}; "
                f"available versions: {sorted(versions)}"
            )
        del versions[version]
        if not versions:
            del self._models[name]
        return [version]

    def model_names(self) -> list[str]:
        """Names of all saved models, sorted."""
        return sorted(self._models)

    def model_versions(self, name: str) -> list[int]:
        """Saved versions of ``name``, ascending (empty when unknown)."""
        return sorted(self._models.get(name, ()))

    def models(self) -> list[ModelEntry]:
        """Every saved model version, sorted by (name, version)."""
        return [
            self._models[name][version]
            for name in sorted(self._models)
            for version in sorted(self._models[name])
        ]

    # ------------------------------------------------------------------ #
    # run history (observability)
    # ------------------------------------------------------------------ #
    def next_run_id(self) -> int:
        """The id the next recorded run will get (1-based, monotonic)."""
        return max(self._runs, default=0) + 1

    def register_run(self, entry: RunEntry) -> None:
        """Register one run record; raises CatalogError on duplicate ids."""
        if entry.run_id in self._runs:
            raise CatalogError(f"run {entry.run_id} already recorded")
        if entry.kind not in ("train", "score", "refresh"):
            raise CatalogError(
                f"unknown run kind {entry.kind!r}; "
                "expected 'train', 'score' or 'refresh'"
            )
        self._runs[entry.run_id] = entry

    def has_run(self, run_id: int) -> bool:
        """True when a run with this id is recorded."""
        return run_id in self._runs

    def run(self, run_id: int) -> RunEntry:
        """The run record of ``run_id``; raises CatalogError when missing."""
        try:
            return self._runs[run_id]
        except KeyError:
            raise CatalogError(
                f"no recorded run with id {run_id}; "
                f"recorded: {sorted(self._runs)}"
            ) from None

    def runs(self) -> list[RunEntry]:
        """All recorded runs, ascending by run id."""
        return [self._runs[k] for k in sorted(self._runs)]

    def run_metric_id(self, name: str) -> int:
        """The stable integer id of a run-metric name (assigning it once).

        ``repro_run_metrics`` rows are purely numeric (the heap pages
        hold only fixed-width columns), so metric *names* map to small
        integers here, in assignment order.
        """
        metric_id = self._run_metric_ids.get(name)
        if metric_id is None:
            metric_id = len(self._run_metric_ids) + 1
            self._run_metric_ids[name] = metric_id
        return metric_id

    def run_metric_names(self) -> dict[int, str]:
        """The ``{metric_id: name}`` mapping for decoding metric scans."""
        return {v: k for k, v in self._run_metric_ids.items()}

    # ------------------------------------------------------------------ #
    # UDF handlers (black-box callables invoked by the executor)
    # ------------------------------------------------------------------ #
    def register_udf(self, name: str, handler: Any) -> None:
        """Register a callable invoked for ``SELECT * FROM dana.<name>(...)``."""
        self._udf_handlers[name] = handler

    def has_udf(self, name: str) -> bool:
        """True when a UDF handler named ``name`` is registered."""
        return name in self._udf_handlers

    def udf(self, name: str) -> Any:
        """The handler of a registered UDF; raises CatalogError when missing."""
        try:
            return self._udf_handlers[name]
        except KeyError:
            raise CatalogError(f"no UDF named {name!r} is registered") from None

    def udf_names(self) -> list[str]:
        """Names of all registered UDF handlers, sorted."""
        return sorted(self._udf_handlers)
