"""Multi-threaded access engine: AXI interface, shifter, page buffers, Striders.

The access engine (paper §5.1, Figure 5) receives uncompressed database
pages over the AXI interface, stores each page in a page buffer, aligns the
data with a shifter, and lets the page's Strider extract, cleanse and emit
the training tuples toward the execution engine.  Multiple page buffers are
processed in parallel — one Strider per buffer — which is where the
"process data at page granularity to amortise the cost of per-tuple
transfer" benefit comes from.

The simulator is functional (it produces the exact float vectors the
execution engine consumes, straight from the binary page images).  The
**wave** — ``num_striders`` page images — is its unit of execution from
page image to pulled item (:meth:`AccessEngine.waves`): one vectorised
:meth:`Strider.walk_wave <repro.hw.strider.Strider.walk_wave>` and one
decode per wave, one WHERE mask per wave, one
:class:`~repro.runtime.BatchSource` item per wave carrying per-page tuple
counts.  The per-page :meth:`Strider.process_page_bulk
<repro.hw.strider.Strider.process_page_bulk>` +
:meth:`PayloadDecoder.decode_many` chain is the reference, and the fallback
for any page the wave walk rejects.  The wave is also the unit of the cycle
account, booked in :meth:`AccessEngineStats.merge_batch`:

* AXI transfer cycles — bytes moved divided by the per-cycle off-chip
  bandwidth of the FPGA;
* Strider cycles — per-instruction cycle counts from the Strider simulator,
  where striders working on different pages run concurrently.

:meth:`AccessEngine.partition_cost` is this stage's entry in the cycle
ledger (:mod:`repro.hw.ledger`): the same account from per-page tuple
counts alone, which is what ``EXPLAIN`` prices an extraction with.

:meth:`AccessEngine.open` is the **one extraction seam** between the two
halves of the accelerator: it alone decides Strider walk vs CPU decode,
streamed vs materialised and how a faulted stream restarts, and hands
every trainer and scorer the same :class:`~repro.runtime.BatchSource`.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import HardwareError
from repro.hw.fpga import FPGASpec
from repro.hw.ledger import Ledger
from repro.hw.strider import Strider, StriderResult, StriderStats, page_walk_template
from repro.isa.strider_isa import StriderProgram
from repro.obs.telemetry import telemetry
from repro.rdbms.page import PageLayout, decode_page_rows
from repro.rdbms.predicate import ColumnPredicate
from repro.rdbms.types import Schema
from repro.reliability.faults import fault_point
from repro.reliability.retry import RetryPolicy
from repro.runtime import BatchSource

#: fault-injection site fired once per wave of the Strider walk.
PAGE_WALK_FAULT_SITE = "hw.strider.page_walk"


@dataclass
class AccessEngineConfig:
    """Static configuration chosen by the hardware generator."""

    num_striders: int
    page_size: int
    read_width_bytes: int = 8

    def __post_init__(self) -> None:
        if self.num_striders < 1:
            raise HardwareError("the access engine needs at least one Strider")
        if self.page_size <= 0:
            raise HardwareError("page size must be positive")


@dataclass
class AccessEngineStats(Ledger):
    """Aggregate counters for one access-engine run."""

    pages_processed: int = 0
    tuples_extracted: int = 0
    bytes_transferred: int = 0
    axi_cycles: int = 0
    strider_cycles_total: int = 0
    strider_cycles_critical: int = 0   # max over parallel striders, summed per batch
    shifter_cycles: int = 0

    @property
    def access_cycles(self) -> int:
        """The extraction stage's modelled cycles: AXI transfer + Strider walk."""
        return self.strider_cycles_critical + self.axi_cycles

    @classmethod
    def across_segments(
        cls, segments: Iterable["AccessEngineStats"]
    ) -> "AccessEngineStats":
        """One run's per-segment counters, summed — except
        ``strider_cycles_critical``, the one non-additive field: segments
        walk concurrently, so the run's is the slowest segment's."""
        segments = list(segments)
        total = sum(segments, cls())
        total.strider_cycles_critical = max(
            (seg.strider_cycles_critical for seg in segments), default=0
        )
        return total

    def merge_batch(self, batch_results: list[StriderResult], page_bytes: int, axi_bytes_per_cycle: float) -> None:
        """Book one wave of pages walked by parallel Striders (its critical
        path is its slowest page); the executed walk and
        :meth:`AccessEngine.partition_cost` both book through here."""
        if not batch_results:
            return
        self.pages_processed += len(batch_results)
        self.tuples_extracted += sum(r.stats.tuples_emitted for r in batch_results)
        transferred = page_bytes * len(batch_results)
        self.bytes_transferred += transferred
        self.axi_cycles += math.ceil(transferred / max(axi_bytes_per_cycle, 1e-9))
        cycles = [r.stats.cycles for r in batch_results]
        self.strider_cycles_total += sum(cycles)
        self.strider_cycles_critical += max(cycles)
        # one shifter pass per page to align data to the BRAM read width
        self.shifter_cycles += len(batch_results)

    @classmethod
    def of_page_runs(
        cls,
        runs: Iterable[tuple[StriderStats, int]],
        config: AccessEngineConfig,
        axi_bytes_per_cycle: float,
    ) -> "AccessEngineStats":
        """What extracting pages with these walk costs books, from counts alone.

        The one statement of the wave composition: ``runs`` of ``pages``
        consecutive pages that each cost ``walk``, cut into waves of
        ``config.num_striders`` as :meth:`AccessEngine.waves` cuts page
        images and booked through :meth:`merge_batch` — a stretch of identical
        waves once, times its length, so a million full pages cost two bookings.
        """
        stats, wave, width = cls(), [], config.num_striders

        def booked(results: list[StriderResult], times: int = 1) -> "AccessEngineStats":
            one = cls()
            one.merge_batch(results, config.page_size, axi_bytes_per_cycle)
            return one * times

        for walk, pages in runs:
            page = StriderResult(stats=walk)
            taken = min(pages, (width - len(wave)) % width)  # top up an open wave
            wave += [page] * taken
            if len(wave) == width:
                stats += booked(wave)
                wave = []
            whole, rest = divmod(pages - taken, width)
            if whole:
                stats += booked([page] * width, whole)
            wave += [page] * rest
        return stats + booked(wave)


class PayloadDecoder:
    """Converts cleansed tuple payloads into float vectors.

    DAnA's compiler emits Strider instructions that "transform user data
    into a floating point format"; the decoder performs that conversion,
    driven by the table schema, so the execution engine always sees
    float feature vectors regardless of the on-page column types.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._struct = struct.Struct(
            "<" + "".join(col.ctype.struct_code for col in schema.columns)
        )
        self.payload_bytes = schema.row_width

    def decode(self, payload: bytes) -> np.ndarray:
        """Decode one cleansed payload into a float vector (the per-tuple reference)."""
        if len(payload) != self.payload_bytes:
            raise HardwareError(
                f"payload is {len(payload)} bytes but the schema expects "
                f"{self.payload_bytes}"
            )
        return np.asarray(self._struct.unpack(payload), dtype=np.float64)

    def decode_many(self, payloads: Iterable[bytes]) -> np.ndarray:
        """Decode a whole FIFO of payloads with one buffer reinterpret.

        Instead of unpacking tuple-at-a-time, the payloads are concatenated
        once and reinterpreted with ``np.frombuffer`` — the software analogue
        of the paper's point that data should move toward the compute engine
        at page granularity, not tuple granularity.
        """
        payloads = payloads if isinstance(payloads, list) else list(payloads)
        if not payloads:
            return np.empty((0, len(self.schema)))
        lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads))
        if (lengths != self.payload_bytes).any():
            bad = int(lengths[lengths != self.payload_bytes][0])
            raise HardwareError(
                f"payload is {bad} bytes but the schema expects "
                f"{self.payload_bytes}"
            )
        records = np.frombuffer(b"".join(payloads), dtype=self.schema.record_dtype)
        return self.schema.as_matrix(records)

    def decode_wave(self, payloads: np.ndarray) -> np.ndarray:
        """Decode a wave walk's ``(tuples, payload_bytes)`` ``uint8`` FIFO matrix."""
        return self.schema.as_matrix(payloads.view(self.schema.record_dtype).ravel())


class AccessEngine:
    """Streams buffer-pool pages through page buffers and Striders."""

    def __init__(
        self,
        config: AccessEngineConfig,
        program: StriderProgram,
        schema: Schema,
        fpga: FPGASpec,
        predicate: ColumnPredicate | None = None,
        layout: PageLayout | None = None,
    ) -> None:
        self.config = config
        self.program = program
        self.schema = schema
        self.fpga = fpga
        self.decoder = PayloadDecoder(schema)
        #: a scoring statement's WHERE: every page is still walked and
        #: decoded (the Strider/AXI counters do not move), but only the
        #: qualifying tuples leave the access engine.
        self.predicate = predicate
        #: the RDBMS page layout the Strider program was compiled for; only
        #: the CPU-decode model (``use_striders=False``) reads it.
        self.layout = layout
        self._striders = [
            Strider(program, read_width_bytes=config.read_width_bytes)
            for _ in range(config.num_striders)
        ]
        self.stats = AccessEngineStats()
        #: :attr:`stats` as they stood when :meth:`open` was last called —
        #: what a run subtracts to report its own counters.
        self.stats_at_open = AccessEngineStats()
        #: hot path uses the bulk page walk (identical payloads and stats);
        #: set to False to force the instruction interpreter (the oracle).
        self.use_bulk_walk = True

    # ------------------------------------------------------------------ #
    # page streaming
    # ------------------------------------------------------------------ #
    def waves(
        self, page_images: Iterable[bytes], use_striders: bool = True
    ) -> Iterator[tuple[np.ndarray, list[int]]]:
        """Extract pages a wave of ``num_striders`` at a time.

        Each item is one wave's ``(tuples, n_columns)`` matrix with its
        per-page tuple counts — the unit the Striders execute, the cycle
        account books and a stream's consumer pulls.  ``use_striders``
        picks the Strider walk (with cycle accounting) or the CPU-decode
        model: tuples decoded by the RDBMS layer, no Strider or AXI
        activity booked.  A :attr:`predicate` keeps each wave's qualifying
        tuples only; the counts are then per page *after* the filter.
        """
        extract = self._process_batch if use_striders else self._cpu_decode_batch
        return map(extract, self._waves(page_images))

    def process_pages(self, page_images: Iterable[bytes]) -> Iterator[np.ndarray]:
        """The Strider walk page by page: ``(tuples_on_page, n_columns)`` arrays."""
        return _by_page(self.waves(page_images))

    def cpu_decode_pages(self, page_images: Iterable[bytes]) -> Iterator[np.ndarray]:
        """The ``use_striders=False`` model page by page, like :meth:`process_pages`."""
        return _by_page(self.waves(page_images, use_striders=False))

    def _waves(self, items: Iterable) -> Iterator[list]:
        """Consecutive waves of ``num_striders`` items (the last may be short)."""
        items = iter(items)
        while wave := list(itertools.islice(items, self.config.num_striders)):
            yield wave

    def open(
        self,
        page_images: Iterable[bytes],
        *,
        use_striders: bool = True,
        stream: bool = True,
        retry: RetryPolicy | None = None,
    ) -> BatchSource:
        """Open the extraction of ``page_images``: the one seam to the engines.

        Every trainer and scorer gets its tuples from the source returned
        here and never re-decides how they were produced:

        * ``use_striders`` picks the decode: the Strider wave walk (with
          cycle accounting) or the CPU-decode model, both through
          :meth:`waves`.  :attr:`predicate` filters either, per decoded
          wave.
        * ``stream`` picks the schedule: a stream the consumer pulls one
          wave at a time on its own thread (the paper's page buffers
          feeding the engine wave by wave), or the whole table decoded
          before this call returns — the streaming oracle.  Tuples,
          batches, per-page :attr:`BatchSource.sizes` and counters are
          identical either way.  A stream takes the page list up front (a
          restart re-walks it); a materialised walk consumes
          ``page_images`` lazily.  Read :attr:`stats` only once a stream is
          drained — its pulls book them until then.
          **One-wave rule:** a page list of at most one wave
          (``len(page_images) <= config.num_striders``) is a single pull,
          so there is nothing to interleave: it is extracted here, through
          the same :meth:`waves` walk, and its source is materialised from
          the start, unless a ``retry`` policy asks for a restartable
          stream.
        * ``retry`` makes a stream **restartable**: a
          transient fault resets :attr:`stats` to their value at this call
          and re-walks the same page list from the top — even if the table
          has grown since — while the source replays delivered chunks from
          its cache, so tuples and final counters are bit-identical to a
          fault-free run.
        """
        walk = functools.partial(self.waves, use_striders=use_striders)
        opened = self.stats_at_open = copy.copy(self.stats)
        if stream:
            page_images = list(page_images)
            # one-wave rule: a single pull leaves nothing to interleave
            stream = retry is not None or len(page_images) > self.config.num_striders
        if not stream:
            return BatchSource.from_chunks(list(walk(page_images)), len(self.schema))

        def rewalk() -> Iterator[tuple[np.ndarray, list[int]]]:
            self.stats = copy.copy(opened)
            return walk(page_images)

        return BatchSource(
            walk(page_images), len(self.schema), chunk_factory=rewalk, retry=retry
        )

    def extract_table(self, page_images: Iterable[bytes]) -> np.ndarray:
        """Materialise every tuple of the supplied pages as one array."""
        return self.open(page_images, stream=False).rows()

    def stream_table(self, page_images: Iterable[bytes]) -> BatchSource:
        """The Strider walk as a stream pulled wave by wave (see :meth:`open`)."""
        return self.open(page_images)

    def _process_batch(self, batch: list[bytes]) -> tuple[np.ndarray, list[int]]:
        """Walk, book and decode one wave of page images.

        With the bulk walk on, the wave is one :meth:`Strider.walk_wave
        <repro.hw.strider.Strider.walk_wave>` over the joined images; the
        pages it rejects — every page, with the bulk walk off — are walked
        alone and their tuples spliced in at their place.  Equal-count
        pages share one :class:`~repro.hw.strider.StriderResult`, as they
        share their counters.
        """
        fault_point(PAGE_WALK_FAULT_SITE)
        obs = telemetry()
        span = (
            obs.span("hw.strider.page_walk", pages=len(batch))
            if obs is not None
            else None
        )
        page_size = self.config.page_size
        if set(map(len, batch)) != {page_size}:
            for image in batch:  # name the first wrong-sized image
                if len(image) != page_size:
                    raise HardwareError(
                        f"page image is {len(image)} bytes, expected {page_size}"
                    )
        width = self.decoder.payload_bytes
        if self.use_bulk_walk:
            pages = np.frombuffer(b"".join(batch), dtype=np.uint8)
            payloads, proven = self._striders[0].walk_wave(
                pages.reshape(len(batch), page_size), width
            )
            walk_alone = Strider.process_page_bulk
        else:  # the interpreter walks every page alone
            payloads, proven = np.empty((0, width), dtype=np.uint8), [None] * len(batch)
            walk_alone = Strider.process_page
        distinct = {id(stats): stats for stats in proven}
        shared = {
            key: StriderResult(stats=stats)
            for key, stats in distinct.items()
            if stats is not None
        }
        results = list(map(shared.get, map(id, proven)))
        rejected = id(None) in distinct  # by identity: no StriderStats.__eq__
        if rejected:
            results = [
                walk_alone(strider, image) if result is None else result
                for image, strider, result in zip(batch, self._striders, results)
            ]
        self.stats.merge_batch(results, page_size, self.fpga.axi_bytes_per_cycle)
        if span is not None:
            obs.finish(span)
            span = obs.span("hw.decode", pages=len(results))
        rows = self.decoder.decode_wave(payloads)
        sizes = [result.stats.tuples_emitted for result in results]
        if rejected:
            pieces, start = [], 0
            for result, stats in zip(results, proven):
                if stats is None:
                    pieces.append(self.decoder.decode_many(result.payloads))
                else:
                    pieces.append(rows[start : start + stats.tuples_emitted])
                    start += stats.tuples_emitted
            rows = np.vstack(pieces)
        tuples = len(rows)
        rows, sizes = self._qualify(rows, sizes)
        if span is not None:
            late = {"tuples_out": len(rows)} if self.predicate is not None else {}
            obs.finish(span, tuples=tuples, **late)
        return rows, sizes

    def _cpu_decode_batch(self, batch: list[bytes]) -> tuple[np.ndarray, list[int]]:
        """One wave through the RDBMS-side page decode (books nothing)."""
        chunks = [decode_page_rows(image, self.layout, self.schema) for image in batch]
        return self._qualify(np.vstack(chunks), [len(chunk) for chunk in chunks])

    def _qualify(
        self, rows: np.ndarray, sizes: list[int]
    ) -> tuple[np.ndarray, list[int]]:
        """Keep a wave's tuples that pass :attr:`predicate`: one mask per
        wave, qualifying counts per page from its running sum at the page
        boundaries (a page may keep — or hold — no tuple at all)."""
        if self.predicate is None:
            return rows, sizes
        mask = self.predicate.mask(rows)
        passed = np.concatenate(([0], np.cumsum(mask)))
        bounds = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
        return rows[mask], np.diff(passed[bounds]).tolist()

    # ------------------------------------------------------------------ #
    # cycle ledger
    # ------------------------------------------------------------------ #
    def partition_cost(
        self, page_tuple_counts: Sequence[int], *, use_striders: bool = True
    ) -> AccessEngineStats:
        """What extracting pages with these tuple counts books (``EXPLAIN``'s price).

        The decisions an executed extraction goes through: ``use_striders``
        as :meth:`open` takes it (CPU decode books nothing), then each
        page's :meth:`Strider.walk_cost <repro.hw.strider.Strider.walk_cost>`
        composed by :meth:`AccessEngineStats.of_page_runs`.  Every tuple is
        as long as the schema says, so the work is per run of equal-count
        pages, not per page or per tuple.
        """
        if not use_striders:
            return AccessEngineStats()
        template = page_walk_template(self.program)
        if template is None:
            raise HardwareError("only the compiled page-walk idiom has a closed form")
        tuple_bytes = template.strip_bytes + self.decoder.payload_bytes
        counts, lengths = [], []  # runs of equal-count pages: a bulk load has two
        for count, pages in itertools.groupby(page_tuple_counts):
            counts.append(count)
            lengths.append(len(list(pages)))
        walks = self._striders[0].walk_cost(tuple_bytes, counts)
        return AccessEngineStats.of_page_runs(
            zip(walks, lengths), self.config, self.fpga.axi_bytes_per_cycle
        )


def _by_page(waves: Iterable[tuple[np.ndarray, list[int]]]) -> Iterator[np.ndarray]:
    """Cut each wave item back into its per-page tuple arrays (views)."""
    for rows, sizes in waves:
        yield from np.split(rows, np.cumsum(sizes[:-1]))
