"""Process-parallel segment execution over shared-memory heap pages.

Threads-mode sharding (:class:`~repro.cluster.sharded.ShardedDAnA` with
``execution="threads"``) overlaps segments only where NumPy drops the GIL;
``execution="processes"`` promotes every segment to a real OS process so
the per-segment training windows overlap on real cores.  The design:

* the parent exports the table's heap pages **once** into a
  :class:`~repro.runtime.shm.SharedPageStore`; children attach and run the
  unchanged Strider bulk walk over zero-copy page views;
* each child rebuilds its accelerator from a **pickle-safe**
  :class:`SegmentTask` descriptor (algorithm registry key + hyperparameters
  + page layout + FPGA spec + page numbers + the seeded
  ``SeedSequence`` recipe) — live accelerator objects are never pickled;
* per window, the parent ships the merged global model down and the child
  ships back its updated model plus *all* of its counters (engine, tree
  bus, access engine/Striders, shared-store page I/O, retry, RNG state,
  telemetry export), so the parent's
  :class:`~repro.cluster.aggregator.ModelAggregator` merge, the cluster
  :meth:`~repro.hw.tree_bus.TreeBus.account_merge` booking, and the run
  reports are exactly those of a threads-mode run;
* a dead worker process surfaces as a
  :class:`~repro.exceptions.TransientError` at the parent's dispatch for
  the ``cluster.segment_worker.epoch`` site, so an ordinary
  :class:`~repro.reliability.RetryPolicy` respawns the worker from its
  last per-window checkpoint — bit-identical recovery.

Everything is keyed to the **spawn** start method: children import the
library fresh (fork would duplicate locks, buffer pools and armed
telemetry), which is also why the descriptors must be picklable.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.algorithms.base import Hyperparameters
from repro.algorithms.registry import get_algorithm
from repro.cluster.partitioner import PagePartition
from repro.cluster.segment_worker import SegmentWorker, run_stale_window
from repro.exceptions import (
    ConfigurationError,
    RetryExhaustedError,
    TransientError,
)
from repro.hw.access_engine import AccessEngineStats
from repro.hw.accelerator import DAnAAccelerator
from repro.hw.execution_engine import EngineRunStats
from repro.hw.fpga import FPGASpec
from repro.hw.tree_bus import TreeBusStats
from repro.obs.telemetry import Telemetry, enable_telemetry, telemetry
from repro.rdbms.page import PageLayout
from repro.rdbms.storage import StorageStats
from repro.reliability.faults import FaultPlan, active_injector, inject_faults
from repro.reliability.retry import RetryPolicy, RetryStats
from repro.runtime.shm import SharedPageStore, SharedPageStoreHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.base import AlgorithmSpec
    from repro.compiler.execution_binary import ExecutionBinary

#: join grace before a worker process is forcibly terminated, seconds.
SHUTDOWN_GRACE_S = 5.0


@dataclass
class IPCStats:
    """Measured parent<->worker IPC volume of one process-parallel run."""

    #: pickled bytes shipped across the command/reply pipes, both ways.
    bytes_shipped: int = 0
    #: command/reply round trips (one per worker per window + handshakes).
    round_trips: int = 0

    def merge(self, other: "IPCStats") -> None:
        """Accumulate another run's counters into this one."""
        self.bytes_shipped += other.bytes_shipped
        self.round_trips += other.round_trips


@dataclass(frozen=True)
class ChaosConfig:
    """Fault plan shipped into worker processes (with resume offsets)."""

    plan: FaultPlan
    offsets: dict[str, int] | None = None


@dataclass(frozen=True)
class SegmentTask:
    """Pickle-safe description of one segment's training duties.

    Carries everything a spawned child needs to rebuild the segment's
    accelerator deterministically — never live objects.
    """

    segment_id: int
    udf_name: str
    #: algorithm registry key (``spec.name``); the child rebuilds the spec
    #: via :func:`~repro.algorithms.registry.get_algorithm`.
    algorithm: str
    n_features: int
    model_topology: tuple[int, ...]
    hyperparameters: Hyperparameters
    layout: PageLayout
    fpga: FPGASpec
    #: table tuple count the hardware generator sized the design for.
    n_tuples: int
    page_nos: tuple[int, ...]
    #: (seed, segments, segment_id) is the exact ``SeedSequence`` spawn
    #: recipe the in-process strategies use, so shuffles stay bit-identical.
    seed: int
    segments: int
    use_striders: bool
    shuffle: bool
    retry: RetryPolicy | None = None


@dataclass(frozen=True)
class ScoreTask:
    """Pickle-safe description of one segment's scan-and-score duties."""

    segment_id: int
    udf_name: str
    algorithm: str
    n_features: int
    model_topology: tuple[int, ...]
    hyperparameters: Hyperparameters
    layout: PageLayout
    fpga: FPGASpec
    n_tuples: int
    page_nos: tuple[int, ...]
    use_striders: bool
    path: str
    batch_size: int | None
    stream: bool


def builder_metadata(spec: "AlgorithmSpec") -> dict:
    """The spec's rebuild recipe, or raise when it cannot cross a process.

    Specs built by the algorithm registry carry
    ``metadata["builder"] = {"algorithm", "n_features", "model_topology"}``;
    hand-written DSL specs do not, and cannot be rebuilt inside a spawned
    worker (their binders are closures, which do not pickle).
    """
    builder = spec.metadata.get("builder") if spec.metadata else None
    if not builder:
        raise ConfigurationError(
            f"algorithm spec {spec.name!r} carries no builder metadata; "
            'execution="processes" needs a registry-built spec '
            "(register_algorithm_udf) so worker processes can rebuild it"
        )
    return builder


def rebuild_spec_and_binary(
    algorithm: str,
    n_features: int,
    hyperparameters: Hyperparameters,
    model_topology: tuple[int, ...],
    udf_name: str,
    layout: PageLayout,
    fpga: FPGASpec,
    n_tuples: int,
) -> tuple["AlgorithmSpec", "ExecutionBinary"]:
    """Recompile a UDF inside a worker process, exactly like the facade.

    Rebuilds the spec from its registry recipe and runs the same
    :meth:`~repro.compiler.ExecutionBinary.compile` pipeline
    :meth:`repro.core.DAnA.compile_udf` runs, so every schedule-derived
    counter is identical to the parent's.
    """
    from repro.compiler import ExecutionBinary

    spec = get_algorithm(algorithm).build_spec(
        n_features, hyperparameters, model_topology
    )
    binary = ExecutionBinary.compile(
        udf_name, spec, layout, fpga, n_tuples, metadata={"process_worker": True}
    )
    return spec, binary


def segment_rngs(seed: int, segments: int) -> list[np.random.Generator]:
    """One generator per segment — the recipe every execution strategy shares.

    A single segment draws from ``default_rng(seed)`` directly — the same
    stream the single-engine path consumes — so ``segments=1`` stays
    bit-exact even with ``shuffle=True``; more segments get independent
    spawned streams.
    """
    if segments == 1:
        return [np.random.default_rng(seed)]
    return [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(segments)
    ]


# ---------------------------------------------------------------------- #
# pipe protocol (pickle once, measure exactly)
# ---------------------------------------------------------------------- #
def _send_msg(conn, obj) -> int:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(data)
    return len(data)


def _recv_msg(conn) -> tuple[object, int]:
    data = conn.recv_bytes()
    return pickle.loads(data), len(data)


def _safe_send(conn, obj) -> None:
    try:
        _send_msg(conn, obj)
    except (BrokenPipeError, OSError):  # parent already gone
        pass
    except Exception:
        # unpicklable exception payload: degrade to its repr
        try:
            _send_msg(conn, ("raise", RuntimeError(repr(obj))))
        except Exception:
            pass


# ---------------------------------------------------------------------- #
# worker-process mains (module-level: spawn targets must pickle)
# ---------------------------------------------------------------------- #
def _restore_worker(worker: SegmentWorker, resume: dict) -> None:
    """Roll a freshly-built worker onto a prior incarnation's checkpoint."""
    worker.engine.stats.__dict__.update(resume["engine_stats"].__dict__)
    worker.engine.tree_bus.stats.__dict__.update(resume["bus_stats"].__dict__)
    worker.accelerator.access_engine.stats.__dict__.update(
        resume["access_stats"].__dict__
    )
    worker.retry_stats.__dict__.update(resume["retry_stats"].__dict__)
    if resume.get("rng_state") is not None and worker.rng is not None:
        worker.rng.bit_generator.state = copy.deepcopy(resume["rng_state"])


def _worker_snapshot(worker: SegmentWorker, store: SharedPageStore, injector, fired_seen: int) -> dict:
    """Everything the parent merges back after a handshake or window."""
    snapshot = {
        "engine_stats": copy.copy(worker.engine.stats),
        "bus_stats": copy.copy(worker.engine.tree_bus.stats),
        "access_stats": copy.copy(worker.accelerator.access_engine.stats),
        "storage": copy.copy(store.stats),
        "tuples_extracted": worker.tuples_extracted,
        "retry_stats": copy.copy(worker.retry_stats),
        "rng_state": (
            copy.deepcopy(worker.rng.bit_generator.state)
            if worker.rng is not None
            else None
        ),
        "fault_calls": dict(injector.calls) if injector is not None else None,
        "fired": list(injector.fired[fired_seen:]) if injector is not None else [],
    }
    return snapshot


def _segment_child_main(
    conn,
    task: SegmentTask,
    handle: SharedPageStoreHandle,
    chaos: ChaosConfig | None,
    resume: dict | None,
) -> None:
    """Entry point of one persistent segment worker process."""
    store: SharedPageStore | None = None
    armed = None
    fired_seen = 0
    try:
        injector = None
        if chaos is not None:
            armed = inject_faults(chaos.plan, offsets=chaos.offsets)
            injector = armed.__enter__()
        store = SharedPageStore.attach(handle)
        spec, binary = rebuild_spec_and_binary(
            task.algorithm,
            task.n_features,
            task.hyperparameters,
            task.model_topology,
            task.udf_name,
            task.layout,
            task.fpga,
            task.n_tuples,
        )
        accelerator = DAnAAccelerator(
            binary=binary, schema=spec.schema, fpga=task.fpga
        )
        worker = SegmentWorker(
            segment_id=task.segment_id,
            accelerator=accelerator,
            partition=PagePartition(task.segment_id, task.page_nos),
            rng=segment_rngs(task.seed, task.segments)[task.segment_id],
        )
        images = [store.page(no) for no in task.page_nos]
        worker.extract_pages(
            images,
            use_striders=task.use_striders,
            layout=task.layout,
            schema=spec.schema,
        )
        if resume is not None:
            _restore_worker(worker, resume)
        snapshot = _worker_snapshot(worker, store, injector, fired_seen)
        fired_seen += len(snapshot["fired"])
        snapshot["has_rows"] = worker.has_rows()
        snapshot["pid"] = os.getpid()
        _send_msg(conn, ("ready", snapshot))
    except TransientError as error:
        _safe_send(conn, ("transient", str(error)))
        return
    except BaseException as error:  # noqa: BLE001 - shipped to the parent
        _safe_send(conn, ("raise", error))
        return

    while True:
        try:
            message, _size = _recv_msg(conn)
        except (EOFError, OSError):  # parent went away
            break
        command = message[0]
        if command == "shutdown":
            _safe_send(conn, ("bye", None))
            break
        if command != "window":
            _safe_send(
                conn, ("raise", RuntimeError(f"unknown command {command!r}"))
            )
            continue
        _cmd, models, count, convergence_check, capture_telemetry = message
        try:
            session = Telemetry() if capture_telemetry else None
            if session is not None:
                with enable_telemetry(session):
                    result = run_stale_window(
                        worker,
                        spec,
                        models,
                        count,
                        task.shuffle,
                        convergence_check,
                        retry=task.retry,
                        retry_stats=worker.retry_stats,
                    )
            else:
                result = run_stale_window(
                    worker,
                    spec,
                    models,
                    count,
                    task.shuffle,
                    convergence_check,
                    retry=task.retry,
                    retry_stats=worker.retry_stats,
                )
            payload = _worker_snapshot(worker, store, injector, fired_seen)
            fired_seen += len(payload["fired"])
            payload["models"] = result.models
            payload["epochs_run"] = result.epochs_run
            payload["converged"] = result.converged
            payload["telemetry"] = session.export() if session is not None else None
            _send_msg(conn, ("ok", payload))
        except TransientError as error:
            _safe_send(conn, ("transient", str(error)))
        except RetryExhaustedError as error:
            _safe_send(conn, ("exhausted", str(error)))
        except BaseException as error:  # noqa: BLE001 - shipped to the parent
            _safe_send(conn, ("raise", error))
    if store is not None:
        store.close()
    if armed is not None:
        armed.__exit__(None, None, None)
    try:
        conn.close()
    except OSError:  # pragma: no cover - already closed
        pass


def _score_child_main(
    conn,
    task: ScoreTask,
    handle: SharedPageStoreHandle,
    models: Mapping[str, np.ndarray],
) -> None:
    """Entry point of one one-shot scan-and-score worker process."""
    store: SharedPageStore | None = None
    try:
        from repro.rdbms.heapfile import decode_page_rows
        from repro.serving.inference import DEFAULT_SCORE_BATCH, InferencePlan

        store = SharedPageStore.attach(handle)
        spec, binary = rebuild_spec_and_binary(
            task.algorithm,
            task.n_features,
            task.hyperparameters,
            task.model_topology,
            task.udf_name,
            task.layout,
            task.fpga,
            task.n_tuples,
        )
        plan = InferencePlan.from_binary(binary, spec)
        engine = plan.new_engine()
        images = [store.page(no) for no in task.page_nos]
        if task.use_striders:
            accelerator = DAnAAccelerator(
                binary=binary, schema=spec.schema, fpga=task.fpga
            )
            if task.stream:
                predictions, sizes = accelerator.score_stream_from_pages(
                    images,
                    models,
                    engine,
                    batch_size=task.batch_size or DEFAULT_SCORE_BATCH,
                    path=task.path,
                )
            else:
                predictions, sizes = accelerator.score_from_pages(
                    images, models, engine, path=task.path, batch_size=task.batch_size
                )
            access_stats = accelerator.access_engine.stats
        else:
            chunks = [
                decode_page_rows(image, task.layout, spec.schema) for image in images
            ]
            sizes = [len(chunk) for chunk in chunks]
            rows = (
                np.vstack(chunks) if chunks else np.empty((0, len(spec.schema)))
            )
            predictions = engine.score(
                rows, models, path=task.path, batch_size=task.batch_size
            )
            access_stats = AccessEngineStats()
        payload = {
            "predictions": predictions,
            "sizes": sizes,
            "tuples_scored": engine.stats.tuples_scored,
            "access_stats": copy.copy(access_stats),
            "inference_stats": copy.copy(engine.stats),
            "storage": copy.copy(store.stats),
            "pid": os.getpid(),
        }
        _send_msg(conn, ("ok", payload))
    except TransientError as error:
        _safe_send(conn, ("transient", str(error)))
    except BaseException as error:  # noqa: BLE001 - shipped to the parent
        _safe_send(conn, ("raise", error))
    finally:
        if store is not None:
            store.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


# ---------------------------------------------------------------------- #
# parent-side handles
# ---------------------------------------------------------------------- #
class ProcessSegmentWorker:
    """Parent-side handle for one persistent segment worker process.

    Duck-types the stats surface of
    :class:`~repro.cluster.segment_worker.SegmentWorker` (``segment_id``,
    ``partition``, ``tuples_extracted``, engine/access counters) so the
    sharded facade builds its :class:`~repro.cluster.sharded.SegmentReport`
    from either kind of worker.
    """

    def __init__(
        self,
        task: SegmentTask,
        handle: SharedPageStoreHandle,
        pool: "ProcessSegmentPool",
    ) -> None:
        self.task = task
        self.handle = handle
        self.pool = pool
        self.segment_id = task.segment_id
        self.partition = PagePartition(task.segment_id, task.page_nos)
        self.process = None
        self.conn = None
        self.pid: int | None = None
        self.has_rows = False
        self.tuples_extracted = 0
        self.engine_stats = EngineRunStats()
        self.bus_stats = TreeBusStats()
        self.access_stats = AccessEngineStats()
        #: fault/retry counters the child booked for its in-window retries.
        self.child_retry_stats = RetryStats()
        #: fault/retry counters of parent-side death supervision.
        self.supervision_retry_stats = RetryStats()
        #: cumulative shared-store page I/O already merged into the parent.
        self._storage_applied = StorageStats()
        #: last-good state a respawned incarnation resumes from.
        self._checkpoint: dict | None = None
        self._fault_calls: dict[str, int] | None = None

    # -- lifecycle ------------------------------------------------------ #
    def start(self) -> None:
        """(Re)spawn the worker process and run the init handshake."""
        self.kill()
        chaos = self.pool.chaos
        if chaos is not None and self._checkpoint is not None:
            # Respawn after a death: the exit fault already fired (one-shot
            # crash, not a crash loop) and per-site call counters resume
            # where the last *reported* state left them.
            chaos = ChaosConfig(
                plan=chaos.plan.without_kind("exit"), offsets=self._fault_calls
            )
        parent_conn, child_conn = self.pool.context.Pipe()
        process = self.pool.context.Process(
            target=_segment_child_main,
            args=(child_conn, self.task, self.handle, chaos, self._checkpoint),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.process, self.conn = process, parent_conn
        payload = self._recv()
        self.pid = payload.get("pid")
        self.has_rows = bool(payload["has_rows"])
        self._apply(payload)

    def respawn(self) -> None:
        """Death-recovery reset hook for :meth:`RetryPolicy.run`."""
        self._storage_applied = StorageStats()
        self.start()

    def kill(self) -> None:
        """Terminate the child process immediately (also used by tests)."""
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover
                pass
            self.conn = None
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=SHUTDOWN_GRACE_S)
        self.process = None

    def shutdown(self) -> None:
        """Graceful stop: ask the child to exit, then reap it."""
        if self.conn is not None and self.process is not None and self.process.is_alive():
            try:
                self._send(("shutdown",))
                _recv_msg(self.conn)  # "bye"
            except (TransientError, EOFError, OSError):
                pass
        if self.process is not None:
            self.process.join(timeout=SHUTDOWN_GRACE_S)
            if self.process.is_alive():  # pragma: no cover - stuck child
                self.process.terminate()
                self.process.join(timeout=SHUTDOWN_GRACE_S)
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover
                pass
        self.process, self.conn = None, None

    # -- protocol ------------------------------------------------------- #
    def _died(self, cause: BaseException) -> TransientError:
        return TransientError(
            f"segment {self.segment_id} worker process "
            f"(pid {self.pid}) died mid-window"
        )

    def _send(self, message) -> None:
        try:
            size = _send_msg(self.conn, message)
        except (BrokenPipeError, OSError) as error:
            raise self._died(error) from error
        self.pool.account_ipc(size)

    def _recv(self) -> dict:
        try:
            message, size = _recv_msg(self.conn)
        except (EOFError, OSError) as error:
            raise self._died(error) from error
        self.pool.account_ipc(size, round_trip=True)
        kind, payload = message
        if kind == "transient":
            raise TransientError(payload)
        if kind == "exhausted":
            raise RetryExhaustedError(payload)
        if kind == "raise":
            raise payload
        return payload

    def request_window(
        self,
        models: dict[str, np.ndarray],
        count: int,
        convergence_check: bool,
        capture_telemetry: bool,
    ) -> dict:
        """Run one stale window in the child; apply its shipped state."""
        self._send(("window", models, count, convergence_check, capture_telemetry))
        payload = self._recv()
        self._apply(payload)
        return payload

    # -- shipped-state application -------------------------------------- #
    def _apply(self, payload: dict) -> None:
        self.engine_stats = payload["engine_stats"]
        self.bus_stats = payload["bus_stats"]
        self.access_stats = payload["access_stats"]
        self.tuples_extracted = payload["tuples_extracted"]
        self.child_retry_stats = payload["retry_stats"]
        self._fault_calls = payload.get("fault_calls")
        self._checkpoint = {
            "engine_stats": copy.copy(payload["engine_stats"]),
            "bus_stats": copy.copy(payload["bus_stats"]),
            "access_stats": copy.copy(payload["access_stats"]),
            "retry_stats": copy.copy(payload["retry_stats"]),
            "rng_state": payload.get("rng_state"),
        }
        self.pool.absorb(self, payload)


class ProcessSegmentPool:
    """Persistent spawn-safe pool: one process per segment, reused windows.

    The pool owns nothing but the processes — the shared page store is
    created (and unlinked) by the caller, and merge/convergence decisions
    stay in the parent's epoch step.
    """

    def __init__(
        self,
        tasks: list[SegmentTask],
        handle: SharedPageStoreHandle,
        worker_limit: int,
        retry: RetryPolicy | None = None,
        chaos: ChaosConfig | None = None,
        storage_sink: StorageStats | None = None,
    ) -> None:
        self.context = multiprocessing.get_context("spawn")
        self.retry = retry
        self.chaos = chaos
        self.storage_sink = storage_sink
        self.ipc = IPCStats()
        self._merge_lock = threading.Lock()
        self.workers = [ProcessSegmentWorker(task, handle, self) for task in tasks]
        #: concurrent dispatch width (the plan's worker clamp), so a
        #: ``segments > cores`` run supervises at most one window per core.
        self.worker_limit = worker_limit
        #: workers whose partitions hold at least one tuple (set by start).
        self.active: list[ProcessSegmentWorker] = []
        self._executor: ThreadPoolExecutor | None = None

    # -- lifecycle ------------------------------------------------------ #
    def start(self) -> None:
        """Spawn every worker (concurrently) and run the init handshakes."""
        if len(self.workers) > 1:
            self._executor = ThreadPoolExecutor(max_workers=self.worker_limit)
            list(self._executor.map(self._supervised_start, self.workers))
        else:
            for worker in self.workers:
                self._supervised_start(worker)
        self.active = [worker for worker in self.workers if worker.has_rows]

    def _supervised_start(self, worker: ProcessSegmentWorker) -> None:
        if self.retry is None:
            worker.start()
            return
        self.retry.run(
            worker.start,
            stats=worker.supervision_retry_stats,
            label=f"segment {worker.segment_id} worker process start",
        )

    def shutdown(self) -> None:
        """Stop every worker process and the dispatch executor."""
        for worker in self.workers:
            worker.shutdown()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- windows -------------------------------------------------------- #
    def run_window(
        self,
        models_per_worker: list[dict[str, np.ndarray]],
        count: int,
        convergence_check: bool,
    ) -> list[dict]:
        """One stale window on every active worker, processes in parallel."""
        capture = telemetry() is not None

        def dispatch(pair):
            index, worker = pair
            return self._supervised_window(
                worker, models_per_worker[index], count, convergence_check, capture
            )

        if self._executor is not None and len(self.active) > 1:
            return list(self._executor.map(dispatch, enumerate(self.active)))
        return [dispatch(pair) for pair in enumerate(self.active)]

    def _supervised_window(
        self,
        worker: ProcessSegmentWorker,
        models: dict[str, np.ndarray],
        count: int,
        convergence_check: bool,
        capture: bool,
    ) -> dict:
        def attempt() -> dict:
            return worker.request_window(models, count, convergence_check, capture)

        if self.retry is None:
            return attempt()
        return self.retry.run(
            attempt,
            stats=worker.supervision_retry_stats,
            reset=worker.respawn,
            label=f"segment {worker.segment_id} worker process window",
        )

    # -- merge-back ----------------------------------------------------- #
    def account_ipc(self, size: int, round_trip: bool = False) -> None:
        """Book one pipe transfer into the run's IPC counters."""
        with self._merge_lock:
            self.ipc.bytes_shipped += size
            if round_trip:
                self.ipc.round_trips += 1

    def absorb(self, worker: ProcessSegmentWorker, payload: dict) -> None:
        """Merge a child's shipped side-state into the parent session.

        Shared-store page reads go into the parent's
        :class:`~repro.rdbms.storage.StorageStats` (as deltas against what
        this worker already reported), fired faults land in the parent's
        armed injector log, and the child's telemetry export is absorbed
        into the parent's armed session tagged with segment id + pid.
        """
        with self._merge_lock:
            storage = payload.get("storage")
            if storage is not None and self.storage_sink is not None:
                applied = worker._storage_applied
                self.storage_sink.page_reads += storage.page_reads - applied.page_reads
                self.storage_sink.page_writes += (
                    storage.page_writes - applied.page_writes
                )
                self.storage_sink.bytes_read += storage.bytes_read - applied.bytes_read
                self.storage_sink.bytes_written += (
                    storage.bytes_written - applied.bytes_written
                )
                worker._storage_applied = storage
            fired = payload.get("fired")
            if fired:
                injector = active_injector()
                if injector is not None:
                    injector.fired.extend(fired)
        exported = payload.get("telemetry")
        if exported is not None:
            session = telemetry()
            if session is not None:
                session.absorb(exported, segment=worker.segment_id, worker_pid=worker.pid)


def chaos_from_active_injector() -> ChaosConfig | None:
    """Ship the currently-armed fault plan into worker processes, if any.

    In processes mode the segment-level fault sites fire inside the
    children (each child counts its own calls); the parent's injector
    collects the children's fired-fault log as windows report back.
    """
    injector = active_injector()
    if injector is None:
        return None
    return ChaosConfig(plan=injector.plan, offsets=None)


def score_segment_in_process(
    context,
    task: ScoreTask,
    handle: SharedPageStoreHandle,
    models: Mapping[str, np.ndarray],
    ipc: IPCStats | None = None,
) -> dict:
    """Score one partition in a fresh one-shot worker process.

    Spawns the child, ships the descriptor + models, and blocks for the
    result payload.  A child death surfaces as
    :class:`~repro.exceptions.TransientError` so the scorer's existing
    retry/redistribute supervision applies unchanged.
    """
    parent_conn, child_conn = context.Pipe()
    process = context.Process(
        target=_score_child_main,
        args=(child_conn, task, handle, dict(models)),
        daemon=True,
    )
    process.start()
    child_conn.close()
    try:
        try:
            message, size = _recv_msg(parent_conn)
        except (EOFError, OSError) as error:
            raise TransientError(
                f"segment {task.segment_id} scoring process died"
            ) from error
        if ipc is not None:
            ipc.bytes_shipped += size
            ipc.round_trips += 1
        kind, payload = message
        if kind == "transient":
            raise TransientError(payload)
        if kind == "raise":
            raise payload
        return payload
    finally:
        parent_conn.close()
        process.join(timeout=SHUTDOWN_GRACE_S)
        if process.is_alive():  # pragma: no cover - stuck child
            process.terminate()
            process.join(timeout=SHUTDOWN_GRACE_S)
