"""One resolved plan per run: every knob is decided once, here.

DAnA's workflow (paper Figure 2) resolves a UDF into one accelerator design,
stores it in the catalog, and every later query executes that stored
decision.  :class:`TrainPlan` and :class:`ScorePlan` are the run-level twin:
a frozen record of how one run executes, built by a single ``resolve(...)``
from the public call's keyword arguments (or a SQL statement's options) plus
the registered UDF.  ``resolve`` does all validation, defaulting and
derivation — the epoch default chain, ``execution="auto"`` → a concrete
strategy, the *effective* ``stream`` (one rule, :func:`_effective_stream`),
the aggregation the graph implies, the merge cadence, retry legality, the
worker clamp — and nothing downstream re-decides any of it: the extraction
seam takes :meth:`_Plan.extraction`, :class:`~repro.cluster.ShardedDAnA` and
:class:`~repro.serving.ScanScorer` execute the plan, ``EXPLAIN``
(:mod:`repro.core.explain`) prints and prices its fields, and the run
recorder, ``ClusterStats`` and ``ScoreResult`` report them.  So ``EXPLAIN``
knobs, run report and recorded config agree by construction, and an invalid
option fails with one message through the Python API, SQL and ``EXPLAIN``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, get_args, get_type_hints

from repro.cluster import EXECUTION_STRATEGIES
from repro.cluster.fanout import builder_metadata
from repro.exceptions import ConfigurationError
from repro.perf.plan_cost import worker_limit
from repro.rdbms.predicate import ColumnPredicate
from repro.reliability import RetryPolicy
from repro.serving import DEFAULT_SCORE_BATCH, SCORING_EXECUTION_STRATEGIES
from repro.translator.hdfg import NodeKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler import ExecutionBinary
    from repro.core.dana import RegisteredUDF


def _option() -> Any:
    """A plan field that is also a user-settable run option.

    The field's name is the option's spelling in ``DAnA.train`` kwargs and
    in ``CREATE MODEL ... WITH (...)``; its annotation is the option's type.
    """
    return field(metadata={"option": True})


def option_types(plan_class: type) -> dict[str, type]:
    """``{option name: scalar type}`` of a plan class's settable options."""
    hints = get_type_hints(plan_class)
    return {
        f.name: next(
            t
            for t in get_args(hints[f.name]) or (hints[f.name],)
            if t is not type(None)
        )
        for f in fields(plan_class)
        if f.metadata.get("option")
    }


class _Plan:
    """Shared reporting surface of the two plan dataclasses."""

    def as_config(self) -> dict[str, Any]:
        """The resolved knobs as the flat dict recorded with the run.

        ``retry`` collapses to whether a policy was supplied.
        """
        config = {f.name: getattr(self, f.name) for f in fields(self)}
        config["retry"] = self.retry is not None
        return config

    def extraction(self) -> dict[str, Any]:
        """The knobs the extraction seam consumes, as its keyword arguments.

        Every executor opens its pages with
        ``AccessEngine.open(images, **plan.extraction())`` and from then on
        only consumes the returned source; nothing else reads them to
        decide how a run executes.
        """
        return {
            "use_striders": self.use_striders,
            "stream": self.stream,
            "retry": self.retry,
        }


def _effective_stream(stream: bool, use_striders: bool, execution: str) -> bool:
    """Whether a run's extraction overlaps its compute — the one rule.

    Only the Strider walk streams: the CPU-decode model feeds the engine
    from materialised rows, and worker processes materialise their
    partitions (no cross-process streaming).
    """
    return stream and use_striders and execution != "processes"


def _check_bool(name: str, value: Any) -> None:
    if not isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a bool, got {value!r}")


def _check_int(name: str, value: Any, none_means: str | None = None) -> None:
    """Reject a count knob that is not an integer >= 1.

    ``bool`` is an ``int`` subclass but never a count, so ``True`` fails
    here as it does in SQL.  ``none_means`` names what ``None`` selects for
    the knobs that may be left unset.
    """
    if value is None and none_means is not None:
        return
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        optional = f" (or None for {none_means})" if none_means else ""
        raise ConfigurationError(
            f"{name} must be an integer >= 1{optional}, got {value!r}"
        )


def _check_retry(retry: RetryPolicy | None, allow_redistribute: bool) -> None:
    """Reject a ``retry=`` the call cannot honour, before anything runs."""
    if retry is None:
        return
    if not isinstance(retry, RetryPolicy):
        raise ConfigurationError(
            f"retry must be a repro.reliability.RetryPolicy (or None to "
            f"fail fast on the first transient fault), got {retry!r}"
        )
    if not allow_redistribute and retry.degradation == "redistribute":
        raise ConfigurationError(
            "degradation='redistribute' applies to scoring only: training "
            "retries each segment in place, because redistributing a failed "
            "segment's pages would change the cross-segment merge schedule "
            "(and with it the trained models)"
        )


def resolve_batching(batch_size: int | None) -> int:
    """Validate a scoring ``batch_size``; ``None`` resolves to the default
    scoring micro-batch."""
    _check_int("batch_size", batch_size, "the default scoring micro-batch")
    return batch_size or DEFAULT_SCORE_BATCH


@dataclass(frozen=True)
class TrainPlan(_Plan):
    """How one training run executes (``DAnA.train``, ``CREATE MODEL``, a
    UDF call, ``refresh_model``).

    The seven option fields carry *resolved* values: ``epochs`` is never
    ``None``, ``execution`` is never ``"auto"``, and a single-accelerator
    run (``segments=None``) has no aggregation or staleness.
    """

    udf: str
    table: str
    algorithm: str
    use_striders: bool
    epochs: int = _option()
    #: ``None`` = the classic single-accelerator path.
    segments: int | None = _option()
    #: how segment models merge, derived from the graph (not an option):
    #: ``"gradient_sum"`` iff it gathers rows, else ``"average"``.
    aggregation: str | None
    #: ``"single"``, ``"lockstep"``, ``"threads"`` or ``"processes"``.
    execution: str = _option()
    shuffle: bool = _option()
    seed: int = _option()
    #: local epochs between cross-segment merges (1 = the paper's
    #: merge-every-epoch barrier; see ``runtime.epoch_driver.merge_boundary``).
    staleness: int | None = _option()
    #: *effective* streaming (see :func:`_effective_stream`).
    stream: bool = _option()
    retry: RetryPolicy | None
    #: concurrent fan-out width (0: no fan-out — single or lock-step).
    workers: int

    @classmethod
    def resolve(
        cls,
        registered: "RegisteredUDF",
        table_name: str,
        binary: "ExecutionBinary",
        *,
        use_striders: bool = True,
        epochs: int | None = None,
        segments: int | None = None,
        execution: str = "auto",
        shuffle: bool = False,
        seed: int = 0,
        staleness: int = 1,
        stream: bool = True,
        retry: RetryPolicy | None = None,
    ) -> "TrainPlan":
        """Validate the run's knobs and derive everything execution needs.

        Every knob is validated whether or not the run consumes it (a
        single-accelerator run still rejects a ``staleness`` of 0); the
        ones it does not consume are then normalised away.

        Raises:
            ConfigurationError: naming the valid choices of the offending
                knob.
        """
        spec = registered.spec
        _check_int("epochs", epochs, "the registered / convergence-bound default")
        _check_int("segments", segments, "the single-accelerator path")
        if execution not in EXECUTION_STRATEGIES:
            raise ConfigurationError(
                f"unknown execution strategy {execution!r}; "
                f"expected one of {EXECUTION_STRATEGIES}"
            )
        _check_int("staleness", staleness)
        _check_bool("shuffle", shuffle)
        _check_bool("stream", stream)
        _check_retry(retry, allow_redistribute=False)
        common = dict(
            udf=registered.name,
            table=table_name,
            algorithm=spec.name,
            use_striders=use_striders,
            epochs=epochs or registered.epochs or spec.algo.convergence.epoch_bound,
            segments=segments,
            shuffle=shuffle,
            seed=seed,
            retry=retry,
        )
        if segments is None:
            return cls(
                **common,
                aggregation=None,
                execution="single",
                staleness=None,
                stream=_effective_stream(stream, use_striders, "single"),
                workers=0,
            )
        # Row-addressed (gather) graphs cannot carry a segment axis: they
        # train per segment and merge by summed deltas, not averaging.
        row_addressed = any(
            node.kind is NodeKind.GATHER for node in binary.graph.nodes()
        )
        lockstep_capable = (
            segments > 1
            and spec.bind_batch is not None
            and execution in ("auto", "lockstep")
            and binary.segment_tape is not None
        )
        if execution == "lockstep" and not lockstep_capable:
            raise ConfigurationError(
                "lockstep execution requires a merge-based graph with a batch "
                "binder and at least two segments"
            )
        if execution == "processes":
            # Worker processes rebuild the spec from its registry recipe,
            # which hand-written specs lack: fail before anything spawns.
            builder_metadata(spec)
        elif execution == "auto":
            execution = "lockstep" if lockstep_capable else "threads"
        return cls(
            **common,
            aggregation="gradient_sum" if row_addressed else "average",
            execution=execution,
            staleness=staleness,
            stream=_effective_stream(stream, use_striders, execution),
            # Lock-step evaluates all segments on one vectorized tape.
            workers=0 if execution == "lockstep" else worker_limit(segments),
        )


@dataclass(frozen=True)
class ScorePlan(_Plan):
    """How one scan-and-score run executes (``DAnA.score_table``,
    ``dana.score``, ``dana.predict``)."""

    udf: str
    table: str
    algorithm: str
    use_striders: bool
    segments: int
    batch_size: int
    #: *effective* streaming (see :func:`_effective_stream`).
    stream: bool
    #: ``"threads"`` or ``"processes"``.
    execution: str
    retry: RetryPolicy | None
    #: concurrent fan-out width: ``worker_limit(segments)``.
    workers: int
    #: the statement's compiled WHERE (``dana.predict ... WHERE``), applied
    #: on the access path before the forward tape; ``None`` scores every
    #: tuple.  Filled from the statement, not a user-settable option.
    where: ColumnPredicate | None = None

    def as_config(self) -> dict[str, Any]:
        """The resolved knobs, with the predicate rendered as its SQL text."""
        config = super().as_config()
        config["where"] = None if self.where is None else self.where.sql
        return config

    @classmethod
    def resolve(
        cls,
        registered: "RegisteredUDF",
        table_name: str,
        *,
        use_striders: bool = True,
        segments: int | None = None,
        batch_size: int | None = None,
        stream: bool = True,
        retry: RetryPolicy | None = None,
        execution: str = "threads",
        where: ColumnPredicate | None = None,
    ) -> "ScorePlan":
        """Validate a scoring run's knobs and derive what execution needs.

        ``where`` is a statement's WHERE already compiled against the
        table's schema (:meth:`ColumnPredicate.compile` owns its checks).

        Raises:
            ConfigurationError: naming the valid choices of the offending
                knob.
        """
        batch_size = resolve_batching(batch_size)
        _check_int("segments", segments, "a single scan-and-score segment")
        _check_bool("stream", stream)
        if execution not in SCORING_EXECUTION_STRATEGIES:
            raise ConfigurationError(
                f"unknown scoring execution strategy {execution!r}; "
                f"expected one of {SCORING_EXECUTION_STRATEGIES}"
            )
        _check_retry(retry, allow_redistribute=True)
        if execution == "processes":
            builder_metadata(registered.spec)  # fail before exporting pages
        segments = segments or 1
        return cls(
            udf=registered.name,
            table=table_name,
            algorithm=registered.spec.name,
            use_striders=use_striders,
            segments=segments,
            batch_size=batch_size,
            stream=_effective_stream(stream, use_striders, execution),
            execution=execution,
            retry=retry,
            workers=worker_limit(segments),
            where=where,
        )
