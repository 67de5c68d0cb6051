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
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import HardwareError
from repro.hw.fpga import FPGASpec
from repro.hw.strider import Strider, StriderResult
from repro.isa.strider_isa import StriderProgram
from repro.obs.telemetry import telemetry
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


def stack_chunks(chunks: Sequence[np.ndarray], n_columns: int) -> np.ndarray:
    """Per-page chunks as one tuple matrix (``(0, n_columns)`` when empty)."""
    return np.vstack(chunks) if len(chunks) else np.empty((0, n_columns))


class AccessEngine:
    """Streams buffer-pool pages through page buffers and Striders."""

    def __init__(
        self,
        config: AccessEngineConfig,
        program: StriderProgram,
        schema: Schema,
        fpga: FPGASpec,
        predicate: ColumnPredicate | None = None,
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
        self._striders = [
            Strider(program, read_width_bytes=config.read_width_bytes)
            for _ in range(config.num_striders)
        ]
        self.stats = AccessEngineStats()
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

    def extract_table(self, page_images: Iterable[bytes]) -> np.ndarray:
        """Materialise every tuple of the supplied pages as one array."""
        return stack_chunks(list(self.process_pages(page_images)), len(self.schema))

    def stream_table(
        self,
        page_images: Iterable[bytes],
        queue_depth: int = 2,
        retry: RetryPolicy | None = None,
    ) -> BatchSource:
        """Stream the page walk through a bounded double buffer.

        The returned :class:`~repro.runtime.BatchSource` runs
        :meth:`process_pages` on a producer thread, so Strider extraction
        overlaps the execution engine's compute exactly like the paper's
        page buffers feed the engine while later pages are still being
        cleansed.  Payloads and cycle counters are identical to
        :meth:`extract_table` (read :attr:`stats` only after the stream is
        drained — the producer thread owns them until then).

        With a ``retry`` policy the source is **restartable**: a transient
        producer fault resets :attr:`stats` and re-walks the (materialised)
        page list from the top, replaying already-delivered chunks from the
        consumer cache — so the delivered tuples and the final counters are
        bit-identical to a fault-free run.
        """
        if retry is None:
            return BatchSource(
                self.process_pages(page_images),
                n_columns=len(self.schema),
                queue_depth=queue_depth,
            )
        images = list(page_images)

        def fresh() -> Iterator[np.ndarray]:
            # Restart hook: the fresh walk re-books every page, so the
            # counters restart from zero to stay bit-identical.
            self.stats = AccessEngineStats()
            return self.process_pages(images)

        return BatchSource(
            self.process_pages(images),
            n_columns=len(self.schema),
            queue_depth=queue_depth,
            chunk_factory=fresh,
            retry=retry,
        )

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
