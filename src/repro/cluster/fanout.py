"""The one segment fan-out behind sharded training and scan-and-score.

DAnA scales out with one accelerator per Greenplum segment, each fed by its
own Striders and combined UDA-style; learning and scoring use the same
mechanism.  :class:`SegmentFanout` is that mechanism for one run, driven by
the run's resolved plan (:mod:`repro.core.plan`)::

    plan -> partition -> page images -> dispatch -> {thread | child} -> merge-back

* **partition + pages** — the table is partitioned as of the run's scan-start
  LSN and every page image is pulled on the caller's thread (the buffer pool
  is not thread-safe; pool threads and children only ever see bytes).
  ``execution="processes"`` exports the snapshot **once** into a
  :class:`~repro.runtime.shm.SharedPageStore` that children attach.
* **dispatch** — :meth:`SegmentFanout.map` is the only thread pool: clamped
  to ``plan.workers``, inline on the caller's thread when there is one job
  or one worker.  :meth:`SegmentFanout.supervise` is the only retry wrapper.
* **children** — one spawn site, one entry point (:func:`_child_main`), one
  parent-side handle (:class:`SegmentProcess`) and one reply decoder.  A
  child is described by a pickle-safe :class:`SegmentJob` (registry rebuild
  recipe + its page partition + *the frozen plan itself*) — live
  accelerators are never pickled.  It serves ``extract`` / ``window``
  (training: a persistent :class:`~repro.cluster.segment_worker.SegmentWorker`)
  or ``score`` (the scorer's segment body) requests; a dead child surfaces
  as :class:`~repro.exceptions.TransientError`, so an ordinary
  :class:`~repro.reliability.RetryPolicy` respawns it.
* **merge-back** — :meth:`SegmentFanout.absorb` folds every reply's
  side-state (shared-store page reads, fired faults, telemetry export) into
  the parent, and IPC volume is booked where the bytes cross the pipe.
* **lifetimes** — the fan-out is a context manager owning the executor, the
  children and the page store; whatever way the run ends, its one exit
  releases them (a streaming source holds no thread, so there is nothing
  of it to release).

Everything is keyed to the **spawn** start method: children import the
library fresh (fork would duplicate locks, buffer pools and armed
telemetry), which is also why the descriptors must be picklable.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

import numpy as np

from repro.algorithms.base import Hyperparameters
from repro.algorithms.registry import get_algorithm
from repro.cluster.partitioner import PagePartition, Partitioner
from repro.cluster.segment_worker import SegmentWorker
from repro.exceptions import (
    ConfigurationError,
    RetryExhaustedError,
    TransientError,
)
from repro.hw.fpga import FPGASpec
from repro.obs.telemetry import Telemetry, enable_telemetry, telemetry
from repro.rdbms.page import PageLayout
from repro.rdbms.storage import StorageStats
from repro.reliability.faults import FaultPlan, active_injector, inject_faults
from repro.reliability.retry import RetryStats
from repro.runtime.shm import SharedPageStore, SharedPageStoreHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.base import AlgorithmSpec
    from repro.compiler.execution_binary import ExecutionBinary
    from repro.core.plan import ScorePlan, TrainPlan
    from repro.rdbms.database import Database

T = TypeVar("T")
R = TypeVar("R")

#: join grace before a worker process is forcibly terminated, seconds.
SHUTDOWN_GRACE_S = 5.0


@dataclass
class IPCStats:
    """Measured parent<->worker IPC volume of one process-parallel run."""

    #: pickled bytes shipped across the command/reply pipes, both ways.
    bytes_shipped: int = 0
    #: replies received (one per worker per window/score + handshakes).
    round_trips: int = 0

    def merge(self, other: "IPCStats") -> None:
        """Accumulate another run's counters into this one."""
        self.bytes_shipped += other.bytes_shipped
        self.round_trips += other.round_trips


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


@dataclass(frozen=True)
class SegmentJob:
    """Pickle-safe description of one segment's duties in a worker process.

    The frozen plan says *what* to do (train or score, and every knob of
    it); the remaining fields are the recipe a spawned child needs to
    rebuild the parent's accelerator design deterministically.
    """

    #: the segment's id and the heap pages it owns.
    part: PagePartition
    plan: "TrainPlan | ScorePlan"
    udf_name: str
    #: algorithm registry key (``spec.name``); the child rebuilds the spec
    #: via :func:`~repro.algorithms.registry.get_algorithm`.
    algorithm: str
    n_features: int
    model_topology: tuple[int, ...]
    hyperparameters: Hyperparameters
    layout: PageLayout
    fpga: FPGASpec
    #: the tuple count the parent's binary was *compiled* for, not the live
    #: catalog count: a table that grew since compile would rebuild a
    #: different design and break counter bit-identity with the threads
    #: fan-out.
    n_tuples: int

    def rebuild(self) -> tuple["AlgorithmSpec", "ExecutionBinary"]:
        """Recompile the UDF inside a worker process, exactly like the facade.

        Rebuilds the spec from its registry recipe and runs the same
        :meth:`~repro.compiler.ExecutionBinary.compile` pipeline
        :meth:`repro.core.DAnA.compile_udf` runs, so every schedule-derived
        counter is identical to the parent's.
        """
        from repro.compiler import ExecutionBinary

        spec = get_algorithm(self.algorithm).build_spec(
            self.n_features, self.hyperparameters, self.model_topology
        )
        binary = ExecutionBinary.compile(
            self.udf_name,
            spec,
            self.layout,
            self.fpga,
            self.n_tuples,
            metadata={"process_worker": True},
        )
        return spec, binary


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
# child side (module-level: spawn targets must pickle)
# ---------------------------------------------------------------------- #
class _SegmentChild:
    """Child-side state of one worker process.

    Built once per process: the armed fault plan, the shared-store
    attachment, the rebuilt design and the partition's zero-copy page
    views; training adds the persistent segment worker.
    """

    def __init__(
        self,
        stack: ExitStack,
        job: SegmentJob,
        handle: SharedPageStoreHandle,
        fault_plan: FaultPlan | None,
        fault_offsets: dict[str, int] | None,
    ) -> None:
        self.job = job
        self.injector = (
            stack.enter_context(inject_faults(fault_plan, offsets=fault_offsets))
            if fault_plan is not None
            else None
        )
        self.fired_seen = 0
        self.store = SharedPageStore.attach(handle)
        stack.callback(self.store.close)
        self.spec, self.binary = job.rebuild()
        self.images = [self.store.page(no) for no in job.part.page_nos]
        self.worker: SegmentWorker | None = None

    def serve(self, request: tuple) -> dict:
        """Answer one request: its payload plus the side-state to merge back."""
        kind, *args = request
        if kind == "extract":
            payload = self._extract(*args)
        elif kind == "window":
            payload = self._window(*args)
        elif kind == "score":
            payload = self._score(*args)
        else:
            raise RuntimeError(f"unknown command {kind!r}")
        injector = self.injector
        fired = injector.fired[self.fired_seen :] if injector is not None else []
        self.fired_seen += len(fired)
        # Page reads and fired faults ship as deltas since the last reply,
        # so the parent's merge-back is a plain accumulate.
        payload["storage"], self.store.stats = self.store.stats, StorageStats()
        payload["fired"] = fired
        payload["fault_calls"] = dict(injector.calls) if injector is not None else None
        return payload

    def _extract(self, resume: dict | None) -> dict:
        """Build the segment worker and open its partition.

        ``resume`` is a dead incarnation's last reported state: counters,
        RNG stream and in-window retry counters continue from it (the
        extraction counters need no restore — the re-walk re-books them).
        """
        job, plan = self.job, self.job.plan
        self.worker = worker = SegmentWorker.open(
            job.part,
            self.images,
            self.binary,
            self.spec,
            job.fpga,
            plan,
            segment_rngs(plan.seed, plan.segments)[job.part.segment_id],
        )
        if resume is not None:
            worker.restore(resume["checkpoint"])
            worker.retry_stats = resume["retry_stats"]
        return self._train_state(has_rows=worker.has_rows())

    def _window(
        self, models: dict, count: int, convergence_check: bool, capture: bool
    ) -> dict:
        """One stale window on the worker, under a local telemetry session
        when the parent's is armed (the export ships back with the reply)."""
        plan, worker = self.job.plan, self.worker
        session = Telemetry() if capture else None
        with enable_telemetry(session) if capture else nullcontext():
            result = worker.train_window(
                models, self.spec, count, plan.shuffle, convergence_check, plan.retry
            )
        return self._train_state(
            result=result, telemetry=session.export() if capture else None
        )

    def _train_state(self, **payload) -> dict:
        worker = self.worker
        payload["report"] = worker.report()
        payload["checkpoint"] = worker.checkpoint()
        payload["retry_stats"] = worker.retry_stats
        return payload

    def _score(self, models: dict) -> dict:
        """One scan-and-score attempt over this segment's pages."""
        # serving imports cluster, so the scorer's body is bound late.
        from repro.serving.inference import InferencePlan
        from repro.serving.scorer import score_segment

        job = self.job
        retry_stats = RetryStats()
        outcome = score_segment(
            job.plan,
            self.binary,
            self.spec,
            job.fpga,
            InferencePlan.from_binary(self.binary, self.spec),
            job.part,
            self.images,
            models,
            retry_stats,
        )
        return {"outcome": outcome, "retry_stats": retry_stats}


def _child_main(
    conn,
    job: SegmentJob,
    handle: SharedPageStoreHandle,
    fault_plan: FaultPlan | None,
    fault_offsets: dict[str, int] | None,
    request: tuple,
) -> None:
    """Entry point of every segment worker process.

    ``request`` ships with the spawn, so a child's first command costs no
    pipe message; afterwards it serves one request per message until
    ``shutdown`` or the parent goes away.  Every request is answered with
    one ``(kind, payload)`` reply: ``ok`` carries the payload, ``transient``
    / ``exhausted`` carry the message of the matching reliability error and
    ``raise`` the exception itself — :meth:`SegmentProcess._recv` decodes
    them.
    """
    with ExitStack() as stack:
        stack.callback(conn.close)
        child: _SegmentChild | None = None
        while request[0] != "shutdown":
            try:
                if child is None:
                    child = _SegmentChild(stack, job, handle, fault_plan, fault_offsets)
                reply = ("ok", child.serve(request))
            except TransientError as error:
                reply = ("transient", str(error))
            except RetryExhaustedError as error:
                reply = ("exhausted", str(error))
            except BaseException as error:  # noqa: BLE001 - shipped to the parent
                reply = ("raise", error)
            _safe_send(conn, reply)
            try:
                request, _size = _recv_msg(conn)
            except (EOFError, OSError):  # parent went away
                break


# ---------------------------------------------------------------------- #
# parent side
# ---------------------------------------------------------------------- #
class SegmentProcess:
    """Parent-side handle of one segment's worker process."""

    def __init__(self, fanout: "SegmentFanout", job: SegmentJob) -> None:
        self.fanout = fanout
        self.job = job
        self.segment_id = job.part.segment_id
        self.process = None
        self.conn = None
        self.pid: int | None = None
        #: the child's latest ``ok`` payload — its shipped state.
        self.last: dict = {}
        #: fault/retry counters of parent-side supervision (deaths, respawns).
        self.retry_stats = RetryStats()

    def spawn(self, request: tuple) -> dict:
        """(Re)start the child on ``request``; returns its first reply."""
        self.close()
        fanout = self.fanout
        fault_plan, offsets = fanout.fault_plan, None
        if fault_plan is not None and self.pid is not None:
            # Respawn after a death: the exit fault already fired (one-shot
            # crash, not a crash loop) and per-site call counters resume
            # where the last *reported* state left them.
            fault_plan = fault_plan.without_kind("exit")
            offsets = self.last.get("fault_calls")
        parent_conn, child_conn = fanout.context.Pipe()
        process = fanout.context.Process(
            target=_child_main,
            args=(
                child_conn,
                self.job,
                fanout.store.handle(),
                fault_plan,
                offsets,
                request,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.process, self.conn, self.pid = process, parent_conn, process.pid
        return self._recv()

    def request(self, message: tuple) -> dict:
        """One command/reply round trip with the running child."""
        self._send(message)
        return self._recv()

    def close(self) -> None:
        """Stop the child: ask a live one to exit, reap it, kill a stuck one."""
        if self.conn is not None:
            if self.process.is_alive():
                try:
                    self._send(("shutdown",))
                except TransientError:
                    pass
            self.conn.close()
            self.conn = None
        if self.process is not None:
            self.process.join(timeout=SHUTDOWN_GRACE_S)
            if self.process.is_alive():  # pragma: no cover - stuck child
                self.process.terminate()
                self.process.join(timeout=SHUTDOWN_GRACE_S)
            self.process = None

    def _died(self) -> TransientError:
        return TransientError(
            f"segment {self.segment_id} worker process (pid {self.pid}) died "
            "before replying"
        )

    def _send(self, message: tuple) -> None:
        try:
            size = _send_msg(self.conn, message)
        except (BrokenPipeError, OSError) as error:
            raise self._died() from error
        self.fanout.book_ipc(size)

    def _recv(self) -> dict:
        try:
            (kind, payload), size = _recv_msg(self.conn)
        except (EOFError, OSError) as error:
            raise self._died() from error
        self.fanout.book_ipc(size, round_trip=True)
        if kind == "transient":
            raise TransientError(payload)
        if kind == "exhausted":
            raise RetryExhaustedError(payload)
        if kind == "raise":
            raise payload
        self.last = payload
        self.fanout.absorb(self, payload)
        return payload


class SegmentFanout:
    """One run's segment fan-out: partitions, pages, dispatch, children.

    Use as a context manager around the whole run; see the module
    docstring for the pipeline.  ``processes`` holds one
    :class:`SegmentProcess` per partition for ``execution="processes"``
    and is empty otherwise.
    """

    def __init__(
        self,
        database: "Database",
        binary: "ExecutionBinary",
        spec: "AlgorithmSpec",
        plan: "TrainPlan | ScorePlan",
        fpga: FPGASpec,
    ) -> None:
        self.database = database
        self.binary = binary
        self.spec = spec
        self.plan = plan
        self.fpga = fpga
        self.ipc = IPCStats()
        self.processes: list[SegmentProcess] = []
        self.store: SharedPageStore | None = None
        self.fault_plan: FaultPlan | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def __enter__(self) -> "SegmentFanout":
        plan, database = self.plan, self.database
        self.heapfile = database.table(plan.table)
        # Pin the whole run to the heap as of this LSN: the partitioning,
        # every page image and the worker-process export all come from the
        # snapshot, so concurrent inserts cannot perturb an in-flight run.
        self.as_of = database.wal.current_lsn
        self.parts = Partitioner().partition_table(
            database, plan.table, plan.segments, as_of_lsn=self.as_of
        )
        with ExitStack() as stack:
            if plan.execution == "processes":
                builder = builder_metadata(self.spec)
                self.store = stack.enter_context(
                    SharedPageStore.from_heapfile(
                        self.heapfile, database.buffer_pool, as_of_lsn=self.as_of
                    )
                )
                # Segment-level fault sites fire inside the children (each
                # child counts its own calls); their fired-fault logs come
                # back with the replies.
                injector = active_injector()
                self.fault_plan = injector.plan if injector is not None else None
                self.context = multiprocessing.get_context("spawn")
                self.processes = [
                    SegmentProcess(
                        self,
                        SegmentJob(
                            part=part,
                            plan=plan,
                            udf_name=self.binary.udf_name,
                            algorithm=builder["algorithm"],
                            n_features=builder["n_features"],
                            model_topology=tuple(builder["model_topology"]),
                            hyperparameters=self.spec.hyperparameters,
                            layout=self.heapfile.layout,
                            fpga=self.fpga,
                            n_tuples=self.binary.metadata["n_tuples"],
                        ),
                    )
                    for part in self.parts
                ]
                for process in self.processes:
                    stack.callback(process.close)
            self._stack = stack.pop_all()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # LIFO: the executor drains in-flight jobs first (their children
        # are still alive to answer), then children, the store.
        self._stack.__exit__(exc_type, exc, tb)

    # -- pages ---------------------------------------------------------- #
    def images(self, part: PagePartition) -> list:
        """The partition's page images, pulled on the caller's thread.

        Through the buffer pool as of the run's LSN, in one
        :meth:`~repro.rdbms.heapfile.HeapFile.images_as_of` call — or, for
        a ``processes`` run, zero-copy views of the shared store (the very
        blocks the children walk).
        """
        if self.store is not None:
            return [self.store.page(no) for no in part.page_nos]
        return self.heapfile.images_as_of(
            self.database.buffer_pool, part.page_nos, self.as_of
        )

    # -- dispatch ------------------------------------------------------- #
    def map(self, fn: Callable[[T], R], jobs: Sequence[T]) -> list[R]:
        """Run ``fn`` over ``jobs``, at most ``plan.workers`` at a time.

        One job or one worker runs inline on the caller's thread (no
        executor, no thread hop); otherwise one executor serves every
        dispatch of the run — NumPy kernels release the GIL and children
        are separate processes, so jobs overlap on real cores.  Results
        come back in job order; the first failing job's error propagates.
        """
        if self.plan.workers > 1 and len(jobs) > 1:
            if self._executor is None:
                self._executor = self._stack.enter_context(
                    ThreadPoolExecutor(
                        max_workers=self.plan.workers,
                        thread_name_prefix="segment-fanout",
                    )
                )
            return list(self._executor.map(fn, jobs))
        return [fn(job) for job in jobs]

    def supervise(
        self,
        attempt: Callable[[], R],
        stats: RetryStats,
        label: str,
        reset: Callable[[], None] | None = None,
    ) -> R:
        """Run one segment attempt under the plan's retry policy.

        Without a policy the first transient fault propagates; with one,
        ``reset`` restores pre-attempt state before every re-attempt.
        """
        retry = self.plan.retry
        if retry is None:
            return attempt()
        return retry.run(attempt, stats=stats, reset=reset, label=label)

    # -- merge-back ----------------------------------------------------- #
    def book_ipc(self, size: int, round_trip: bool = False) -> None:
        """Book one pipe transfer into the run's IPC counters."""
        with self._lock:
            self.ipc.bytes_shipped += size
            if round_trip:
                self.ipc.round_trips += 1

    def absorb(self, process: SegmentProcess, payload: dict) -> None:
        """Merge a child's shipped side-state into the parent session.

        Shared-store page reads go into the parent's
        :class:`~repro.rdbms.storage.StorageStats`, fired faults land in
        the parent's armed injector log, and a telemetry export is absorbed
        into the parent's armed session tagged with segment id + pid.
        """
        with self._lock:
            self.database.storage.stats.merge(payload["storage"])
            injector = active_injector()
            if injector is not None:
                injector.fired.extend(payload["fired"])
        exported = payload.get("telemetry")
        session = telemetry()
        if exported is not None and session is not None:
            session.absorb(
                exported, segment=process.segment_id, worker_pid=process.pid
            )
