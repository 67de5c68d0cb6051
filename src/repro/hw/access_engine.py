"""Multi-threaded access engine: AXI interface, shifter, page buffers, Striders.

The access engine (paper §5.1, Figure 5) receives uncompressed database
pages over the AXI interface, stores each page in a page buffer, aligns the
data with a shifter, and lets the page's Strider extract, cleanse and emit
the training tuples toward the execution engine.  Multiple page buffers are
processed in parallel — one Strider per buffer — which is where the
"process data at page granularity to amortise the cost of per-tuple
transfer" benefit comes from.

The simulator is functional (it produces the exact float vectors the
execution engine consumes, straight from the binary page images) and keeps
a cycle account, booked wave by wave in
:meth:`AccessEngineStats.merge_batch`:

* AXI transfer cycles — bytes moved divided by the per-cycle off-chip
  bandwidth of the FPGA;
* Strider cycles — per-instruction cycle counts from the Strider simulator,
  where striders working on different pages run concurrently.

:meth:`AccessEngine.partition_cost` is this stage's entry in the cycle
ledger (:mod:`repro.hw.ledger`): the same account from per-page tuple
counts alone, which is what ``EXPLAIN`` prices an extraction with.

:meth:`AccessEngine.open` is the **one extraction seam** between the two
halves of the accelerator: it alone decides Strider walk vs CPU decode,
overlapped vs materialised and how a faulted producer restarts, and hands
every trainer and scorer the same :class:`~repro.runtime.BatchSource`.
"""

from __future__ import annotations

import copy
import itertools
import math
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import HardwareError
from repro.hw.fpga import FPGASpec
from repro.hw.ledger import Ledger
from repro.hw.strider import Strider, StriderResult, page_walk_template
from repro.isa.strider_isa import StriderProgram
from repro.obs.telemetry import telemetry
from repro.rdbms.page import PageLayout, decode_page_rows
from repro.rdbms.predicate import ColumnPredicate
from repro.rdbms.types import Schema
from repro.reliability.faults import fault_point
from repro.reliability.retry import RetryPolicy
from repro.runtime import BatchSource

#: fault-injection site fired once per bulk page-walk batch.
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
    def process_pages(self, page_images: Iterable[bytes]) -> Iterator[np.ndarray]:
        """Process pages in batches of ``num_striders``; yield per-page tuples.

        Each yielded array has shape ``(tuples_on_page, n_columns)``.
        """
        for wave in self._waves(page_images):
            yield from self._process_batch(wave)

    def _waves(self, items: Iterable) -> Iterator[list]:
        """Consecutive waves of ``num_striders`` items (the last may be short)."""
        items = iter(items)
        while wave := list(itertools.islice(items, self.config.num_striders)):
            yield wave

    def cpu_decode_pages(self, page_images: Iterable[bytes]) -> Iterator[np.ndarray]:
        """Per-page RDBMS-side decode: the ``use_striders=False`` model.

        The CPU feeds the engine directly: tuples are decoded by the RDBMS
        layer and no Strider or AXI activity is booked.  A :attr:`predicate`
        keeps each page's qualifying tuples only, like :meth:`process_pages`.
        """
        for image in page_images:
            chunk = decode_page_rows(image, self.layout, self.schema)
            if self.predicate is not None:
                chunk = chunk[self.predicate.mask(chunk)]
            yield chunk

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

        * ``use_striders`` picks the decode: the Strider bulk walk
          (:meth:`process_pages`, with cycle accounting) or the CPU-decode
          model (:meth:`cpu_decode_pages`).  :attr:`predicate` filters
          either, per decoded page.
        * ``stream`` picks the schedule: an overlapped producer thread
          behind a bounded double buffer (the paper's page buffers feeding
          the engine while later pages are still being cleansed), or the
          whole table decoded before this call returns — the overlap
          oracle.  Tuples, batches, per-page :attr:`BatchSource.sizes` and
          counters are identical either way.  An overlapped walk takes the
          page list up front (the buffer pool is not thread-safe, so pages
          are pulled on the caller's thread); a materialised one consumes
          ``page_images`` lazily.  Read :attr:`stats` only once an
          overlapped source is drained — its producer owns them until then.
        * ``retry`` makes an overlapped producer **restartable**: a
          transient fault resets :attr:`stats` to their value at this call
          and re-walks the same page list from the top — even if the table
          has grown since — while the source replays delivered chunks from
          its cache, so tuples and final counters are bit-identical to a
          fault-free run.
        """
        walk = self.process_pages if use_striders else self.cpu_decode_pages
        opened = self.stats_at_open = copy.copy(self.stats)
        if not stream:
            return BatchSource.from_chunks(list(walk(page_images)), len(self.schema))
        images = list(page_images)

        def rewalk() -> Iterator[np.ndarray]:
            self.stats = copy.copy(opened)
            return walk(images)

        return BatchSource(
            walk(images), len(self.schema), chunk_factory=rewalk, retry=retry
        )

    def extract_table(self, page_images: Iterable[bytes]) -> np.ndarray:
        """Materialise every tuple of the supplied pages as one array."""
        return self.open(page_images, stream=False).rows()

    def stream_table(self, page_images: Iterable[bytes]) -> BatchSource:
        """The Strider walk streamed through the double buffer (see :meth:`open`)."""
        return self.open(page_images)

    def _process_batch(self, batch: list[bytes]) -> list[np.ndarray]:
        fault_point(PAGE_WALK_FAULT_SITE)
        obs = telemetry()
        span = (
            obs.span("hw.strider.page_walk", pages=len(batch))
            if obs is not None
            else None
        )
        results: list[StriderResult] = []
        for image, strider in zip(batch, self._striders):
            if len(image) != self.config.page_size:
                raise HardwareError(
                    f"page image is {len(image)} bytes, expected {self.config.page_size}"
                )
            if self.use_bulk_walk:
                results.append(strider.process_page_bulk(image))
            else:
                results.append(strider.process_page(image))
        self.stats.merge_batch(
            results, self.config.page_size, self.fpga.axi_bytes_per_cycle
        )
        if span is not None:
            obs.finish(span)
            span = obs.span("hw.decode", pages=len(results))
        decoded = [self.decoder.decode_many(result.payloads) for result in results]
        if span is not None:
            late = {"tuples": sum(len(chunk) for chunk in decoded)}
        if self.predicate is not None:
            decoded = [chunk[self.predicate.mask(chunk)] for chunk in decoded]
            if span is not None:
                late["tuples_out"] = sum(len(chunk) for chunk in decoded)
        if span is not None:
            obs.finish(span, **late)
        return decoded

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
        through :meth:`AccessEngineStats.merge_batch` in waves of
        ``num_striders``, like :meth:`process_pages`.  The walk cost is
        memoised by tuple count (a bulk-loaded partition has at most two),
        so the work is per page, not per tuple.
        """
        stats = AccessEngineStats()
        if not use_striders:
            return stats
        template = page_walk_template(self.program)
        if template is None:
            raise HardwareError("only the compiled page-walk idiom has a closed form")
        tuple_bytes = template.strip_bytes + self.decoder.payload_bytes
        walks = {
            count: StriderResult(
                stats=self._striders[0].walk_cost(np.full(count, tuple_bytes))
            )
            for count in set(page_tuple_counts)
        }
        for wave in self._waves(page_tuple_counts):
            stats.merge_batch(
                [walks[count] for count in wave],
                self.config.page_size,
                self.fpga.axi_bytes_per_cycle,
            )
        return stats
