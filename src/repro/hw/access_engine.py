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
a cycle account:

* AXI transfer cycles — bytes moved divided by the per-cycle off-chip
  bandwidth of the FPGA;
* Strider cycles — per-instruction cycle counts from the Strider simulator,
  where striders working on different pages run concurrently.

:meth:`AccessEngine.open` is the **one extraction seam** between the two
halves of the accelerator: it alone decides Strider walk vs CPU decode,
overlapped vs materialised and how a faulted producer restarts, and hands
every trainer and scorer the same :class:`~repro.runtime.BatchSource`.
"""

from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import HardwareError
from repro.hw.fpga import FPGASpec
from repro.hw.strider import Strider, StriderResult
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
class AccessEngineStats:
    """Aggregate counters for one access-engine run."""

    pages_processed: int = 0
    tuples_extracted: int = 0
    bytes_transferred: int = 0
    axi_cycles: int = 0
    strider_cycles_total: int = 0
    strider_cycles_critical: int = 0   # max over parallel striders, summed per batch
    shifter_cycles: int = 0

    def merge_batch(self, batch_results: list[StriderResult], page_bytes: int, axi_bytes_per_cycle: float) -> None:
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
        batch: list[bytes] = []
        for image in page_images:
            batch.append(image)
            if len(batch) == self.config.num_striders:
                yield from self._process_batch(batch)
                batch = []
        if batch:
            yield from self._process_batch(batch)

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
    # analytic cycle model (used when pages are not materially streamed)
    # ------------------------------------------------------------------ #
    def estimate_cycles_per_page(self, tuples_per_page: int) -> dict[str, float]:
        """Estimate per-page access-engine cycles without executing a page.

        The estimate mirrors the measured behaviour of :class:`Strider`:
        header processing plus a per-tuple loop whose read/cleanse cost is
        proportional to the tuple size in BRAM words.
        """
        tuple_bytes = self.schema.row_width + 8  # payload + tuple header
        words = max(1, math.ceil(tuple_bytes / self.config.read_width_bytes))
        payload_words = max(1, math.ceil(self.schema.row_width / self.config.read_width_bytes))
        header_cycles = 6
        per_tuple_cycles = 4 + words + payload_words  # pointer read/extracts + tuple read + cleanse
        strider_cycles = header_cycles + per_tuple_cycles * max(1, tuples_per_page)
        axi_cycles = math.ceil(
            self.config.page_size / max(self.fpga.axi_bytes_per_cycle, 1e-9)
        )
        return {
            "strider_cycles": float(strider_cycles),
            "axi_cycles": float(axi_cycles),
            "per_tuple_cycles": float(per_tuple_cycles),
        }

    def estimate_partition_cycles(
        self, page_tuple_counts: Sequence[int]
    ) -> dict[str, int]:
        """Predict one partition's extraction stage without walking a page.

        Mirrors the batched accounting of
        :meth:`AccessEngineStats.merge_batch`: pages walk in waves of
        ``num_striders`` parallel striders, each wave's critical strider
        cost is its slowest page, and the AXI transfer is booked per wave
        over the wave's full byte volume.  Returns the same stage split
        the measured counters expose (``access_cycles`` is
        ``strider_cycles_critical + axi_cycles``, the definition segment
        reports use).
        """
        striders = max(1, self.config.num_striders)
        if not len(page_tuple_counts):
            return {
                "strider_cycles_critical": 0,
                "axi_cycles": 0,
                "access_cycles": 0,
            }
        # Vectorized over pages: the per-page estimate is an affine
        # function of the tuple count, so the whole partition reduces to
        # one reshape + max per wave (EXPLAIN prices plans over partition
        # tuple counts, so this runs per statement, not per run).
        base = self.estimate_cycles_per_page(1)
        per_tuple = int(base["per_tuple_cycles"])
        header_cycles = int(base["strider_cycles"]) - per_tuple
        counts = np.maximum(np.asarray(page_tuple_counts, dtype=np.int64), 1)
        pad = (-len(counts)) % striders
        padded = np.pad(counts, (0, pad), constant_values=0)
        waves = padded.reshape(-1, striders)
        per_page = header_cycles + per_tuple * waves
        # padding rows contribute 0 tuples but still carry header cycles;
        # mask them out of the wave maximum entirely.
        per_page[waves == 0] = 0
        strider_critical = int(per_page.max(axis=1).sum())
        wave_sizes = (waves > 0).sum(axis=1)
        axi_per_wave = np.ceil(
            self.config.page_size
            * wave_sizes
            / max(self.fpga.axi_bytes_per_cycle, 1e-9)
        )
        axi_cycles = int(axi_per_wave.sum())
        return {
            "strider_cycles_critical": strider_critical,
            "axi_cycles": axi_cycles,
            "access_cycles": strider_critical + axi_cycles,
        }
