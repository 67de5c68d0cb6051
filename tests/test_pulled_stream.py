"""A streamed scan pulls its waves on the thread that consumes them.

``BatchSource`` has no producer thread: whoever consumes a live source —
the epoch loop, a segment's forward tape — walks and decodes the next wave
when it asks for it.  Pinned here against whole statements:

* **no thread** — a streamed ``score_table`` (segments unset and four) and
  a streamed ``train`` (single accelerator, lock-step and threads) start no
  thread but the fan-out pool's, and the ``runtime.batch_source.producer``
  fault site fires on a thread that consumes the source;
* **spans nest** — a streamed scan's ``hw.strider.page_walk`` and
  ``hw.decode`` spans sit under its ``serving.scorer.segment`` span, and a
  streamed train's under its epoch or segment span (only the sharded
  runtime's active-segment peek, one wave per segment, runs outside one);
* **one stack of the table** — a streamed lock-step run trains later epochs
  on the rounds its first epoch stacked, bit-identically to the
  materialised run and to ``execution="threads"``;
* **nothing pinned** — with the garbage collector off, a drained or a
  failed streamed statement hands back the memory it traced and leaves no
  page-image list alive.
"""

from __future__ import annotations

import gc
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import repro.hw.access_engine as access_engine_module
import repro.runtime.batch_source as batch_source_module
import repro.serving.scorer as scorer_module
from repro.algorithms import Hyperparameters, get_algorithm
from repro.cluster.segment_worker import SegmentWorker
from repro.core import DAnA
from repro.data.synthetic import generate_for_algorithm
from repro.exceptions import TransientError
from repro.obs import enable_telemetry
from repro.rdbms import Database
from repro.reliability import FaultPlan, FaultSpec, inject_faults
from repro.runtime.batch_source import PRODUCER_FAULT_SITE

SEGMENTS = 4
N_FEATURES = 6
#: the statements under test, each streamed (the default)
KINDS = ("score", "score-segments", "train", "lockstep", "threads")


def _system(n_tuples: int) -> tuple[DAnA, dict]:
    spec = get_algorithm("linear").build_spec(
        N_FEATURES, Hyperparameters(learning_rate=0.05, merge_coefficient=8, epochs=2)
    )
    database = Database(page_size=8 * 1024)
    data = generate_for_algorithm("linear", n_tuples, N_FEATURES, seed=3)
    database.load_table("train", spec.schema, data)
    database.warm_cache("train")
    system = DAnA(database)
    system.register_udf("linear", spec, epochs=2)
    return system, spec.initial_models


@pytest.fixture(scope="module")
def streamed():
    """324 pages of 8 KiB: past one wave of page buffers in every segment,
    so every segment's source is a live stream."""
    system, models = _system(65536)
    wave = system.compile_udf("linear", "train").design.num_striders
    assert system.database.table("train").page_count > SEGMENTS * wave
    return system, models


def _run(system: DAnA, models: dict, kind: str):
    if kind == "score":
        return system.score_table("linear", "train", models=models)
    if kind == "score-segments":
        return system.score_table("linear", "train", models=models, segments=SEGMENTS)
    if kind == "train":
        return system.train("linear", "train")
    return system.train("linear", "train", segments=SEGMENTS, execution=kind)


# ---------------------------------------------------------------------- #
# no thread, and the fault site fires where the source is consumed
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", KINDS)
def test_a_streamed_statement_starts_no_thread_but_the_fanout_pool(
    streamed, kind, monkeypatch
):
    system, models = streamed
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    _run(system, models, kind)
    assert all(name.startswith("segment-fanout") for name in started), started


@pytest.mark.chaos
@pytest.mark.parametrize("kind", KINDS)
def test_the_producer_fault_site_fires_on_the_consuming_thread(
    streamed, kind, monkeypatch
):
    system, models = streamed
    fired, consumers = [], {threading.get_ident()}
    site = batch_source_module.fault_point

    def on_site(name):
        fired.append(threading.get_ident())
        site(name)

    def consuming(body):
        def run(*args, **kwargs):
            consumers.add(threading.get_ident())
            return body(*args, **kwargs)

        return run

    monkeypatch.setattr(batch_source_module, "fault_point", on_site)
    monkeypatch.setattr(scorer_module, "score_segment", consuming(scorer_module.score_segment))
    monkeypatch.setattr(SegmentWorker, "train_window", consuming(SegmentWorker.train_window))
    # armed with a fault that never comes, so the per-page site loop runs
    with inject_faults(FaultPlan([FaultSpec(PRODUCER_FAULT_SITE, 10**6)])):
        _run(system, models, kind)
    assert len(fired) == system.database.table("train").page_count
    assert set(fired) <= consumers


# ---------------------------------------------------------------------- #
# the walk's spans nest under the statement's own spans
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "kind, parent, peeked",
    [
        ("score", "serving.scorer.segment", 0),
        ("score-segments", "serving.scorer.segment", 0),
        ("train", "runtime.epoch", 0),
        ("lockstep", "runtime.epoch", SEGMENTS),
        # a segment's window runs its engine's epochs inside its
        # cluster.segment.train span
        ("threads", "runtime.epoch", SEGMENTS),
    ],
)
def test_a_streamed_walk_nests_under_the_statement_spans(streamed, kind, parent, peeked):
    """They were roots on a producer thread before the pull."""
    system, models = streamed
    with enable_telemetry() as session:
        _run(system, models, kind)
    parents = [
        span["parent"]
        for span in session.tracer.to_list()
        if span["name"] in ("hw.strider.page_walk", "hw.decode")
    ]
    # The sharded runtime picks its active segments by pulling each
    # partition's first wave (one walk and one decode span) before epoch 0.
    assert parents.count(None) == 2 * peeked
    assert set(parents) - {None} == {parent}


# ---------------------------------------------------------------------- #
# lock-step: the streamed epoch's rounds are the static plan
# ---------------------------------------------------------------------- #
def test_streamed_lockstep_reuses_its_rounds_bit_identically(streamed):
    system, _models = streamed
    kwargs = dict(segments=SEGMENTS, epochs=3)
    runs = [
        system.train("linear", "train", execution="lockstep", **kwargs),
        system.train("linear", "train", execution="lockstep", stream=False, **kwargs),
        system.train("linear", "train", execution="threads", **kwargs),
    ]
    assert runs[0].cluster.stream and not runs[1].cluster.stream
    for run in runs[1:]:
        for name in runs[0].models:
            np.testing.assert_array_equal(run.models[name], runs[0].models[name])
        assert run.engine_stats == runs[0].engine_stats


# ---------------------------------------------------------------------- #
# a finished stream pins nothing
# ---------------------------------------------------------------------- #
N_SMALL = 16384  # 81 pages: one page buffer wave and then some
TABLE_BYTES = N_SMALL * (N_FEATURES + 1) * 8  # the decoded float64 table


def _retained(statement, pages: list) -> tuple[int, list]:
    """Traced bytes three runs of ``statement`` leave behind, and the page
    lists still alive, with the garbage collector off throughout."""
    statement()  # warm: compiled designs, registry table, first allocations
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        pages.clear()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            statement()
        grown = tracemalloc.get_traced_memory()[0] - before
        return grown, [ref for ref in pages if ref() is not None]
    finally:
        tracemalloc.stop()
        gc.enable()


@pytest.mark.chaos
@pytest.mark.parametrize("statement", ["score", "create", "failed-create"])
def test_a_finished_streamed_statement_pins_nothing(statement, monkeypatch):
    system, models = _system(N_SMALL)
    pages: list[weakref.ref] = []

    class Pages(list):
        def __init__(self, *args):
            super().__init__(*args)
            pages.append(weakref.ref(self))

    # A streamed scan keeps its page images in a plain list, which takes no
    # weak reference: have the access engine build a subclass that does.
    monkeypatch.setattr(access_engine_module, "list", Pages, raising=False)
    names = iter(range(100))

    def create():
        system.database.execute(f"CREATE MODEL m{next(names)} AS TRAIN linear ON train")

    def failed_create():
        with inject_faults(FaultPlan.transient((PRODUCER_FAULT_SITE, 2))):
            try:
                create()
            except TransientError:
                return
        pytest.fail("the armed fault did not fail the statement")

    run = {
        "score": lambda: system.score_table("linear", "train", models=models),
        "create": create,
        "failed-create": failed_create,
    }[statement]
    grown, alive = _retained(run, pages)
    assert pages and alive == []
    assert grown < TABLE_BYTES // 4, grown
