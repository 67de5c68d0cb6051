"""Functional + cycle-approximate simulator of one Strider (paper §5.1).

A Strider walks one database page that the access engine has staged in a
page buffer.  It executes the Strider ISA (:mod:`repro.isa.strider_isa`):
it reads the page header to locate the line pointers and tuple data,
chases the pointers, strips tuple headers ("cleansing") and pushes the raw
attribute payloads into an output FIFO that feeds the execution engine.

The simulator is faithful at the byte level — it only ever sees the binary
page image — and approximates time by charging one cycle per instruction
plus extra cycles for multi-word page-buffer reads (the BRAM read width of
the target FPGA bounds how many bytes move per cycle).

Three execution modes are provided, each the oracle of the one above it.
The **instruction interpreter** (:meth:`Strider.process_page`) executes the
program word by word.  The **bulk page walk**
(:meth:`Strider.process_page_bulk`) recognises the canonical page-walk
idiom the Strider compiler emits (header reads → pointer-chasing loop →
cleanse/emit), parses all line pointers with one NumPy reinterpret and
slices every payload directly from the page image — producing
byte-identical payloads and the exact :class:`StriderStats` the interpreter
would have recorded; programs that do not match the idiom (or pages whose
headers are inconsistent) silently fall back to the interpreter.  The
**wave walk** (:meth:`Strider.walk_wave`) is what the access engine runs:
the bulk walk over a whole wave of page buffers at once — the paper's
parallel Striders — with the same checks vectorised; a page it cannot
prove is left to the bulk walk alone.  All three book one cost model,
:meth:`Strider.walk_cost`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import StriderError
from repro.hw.ledger import Ledger
from repro.isa.strider_isa import (
    NUM_CONFIG_REGISTERS,
    NUM_TEMP_REGISTERS,
    Operand,
    OperandKind,
    StriderInstruction,
    StriderOpcode,
    StriderProgram,
)

_WORD_MASK_64 = (1 << 64) - 1


@dataclass
class StriderStats(Ledger):
    """Execution counters for one Strider run over one page."""

    instructions_executed: int = 0
    cycles: int = 0
    bytes_read: int = 0
    bytes_emitted: int = 0
    tuples_emitted: int = 0
    loop_iterations: int = 0


@dataclass
class StriderResult:
    """Output of walking one page: cleansed tuple payloads plus statistics."""

    payloads: list[bytes] = field(default_factory=list)
    stats: StriderStats = field(default_factory=StriderStats)


@dataclass(frozen=True)
class _PageWalkTemplate:
    """Static parameters recovered from the canonical compiled page walk.

    The Strider compiler always emits the same 13-instruction idiom: four
    header reads, a cursor initialisation, then a 7-instruction
    pointer-chasing loop.  Matching it once lets the bulk walk replace the
    per-tuple interpreter loop with array operations while still charging
    exactly the cycles the interpreter would.
    """

    header_reads: tuple[tuple[int, int], ...]  # (page offset, width) per READB
    free_start_offset: int                     # where the free-space start lives
    free_start_width: int
    line_pointer_start: int
    line_pointer_size: int
    strip_bytes: int                           # tuple header stripped by CLN
    emits: bool                                # CLN mode pushes the payload


def _static_value(
    operand: Operand,
    constants: dict[int, int],
    used_config: set[int] | None = None,
) -> int | None:
    """Resolve an operand that must be known before execution starts.

    ``used_config`` collects the configuration registers a resolution relied
    on, so the matcher can reject programs where a header read overwrites
    one of them at runtime (the constant-pool value would be stale).
    """
    if operand.kind is OperandKind.IMMEDIATE:
        return operand.value
    if operand.kind is OperandKind.CONFIG:
        if used_config is not None and operand.value in constants:
            used_config.add(operand.value)
        return constants.get(operand.value)
    return None


def _match_page_walk(program: StriderProgram) -> _PageWalkTemplate | None:
    """Recognise the compiler's page-walk idiom; ``None`` if it differs."""
    inst = program.instructions
    constants = program.constants
    if len(inst) != 13:
        return None
    expected = [
        StriderOpcode.READB, StriderOpcode.READB, StriderOpcode.READB,
        StriderOpcode.READB, StriderOpcode.AD, StriderOpcode.BENTR,
        StriderOpcode.READB, StriderOpcode.EXTRB, StriderOpcode.EXTRB,
        StriderOpcode.READB, StriderOpcode.CLN, StriderOpcode.AD,
        StriderOpcode.BEXIT,
    ]
    if [i.opcode for i in inst] != expected:
        return None
    used_config: set[int] = set()
    header_reads: list[tuple[int, int]] = []
    header_dest: dict[int, int] = {}  # config register -> header read index
    for idx in range(4):
        read = inst[idx]
        offset = _static_value(read.op0, constants, used_config)
        width = _static_value(read.op1, constants, used_config)
        if offset is None or width is None or read.op2.kind is not OperandKind.CONFIG:
            return None
        header_reads.append((offset, width))
        header_dest[read.op2.value] = idx
    cursor_init = inst[4]
    if cursor_init.op0.kind is not OperandKind.TEMP:
        return None
    cursor_reg = cursor_init.op0.value
    base = _static_value(cursor_init.op1, constants, used_config)
    bias = _static_value(cursor_init.op2, constants, used_config)
    if base is None or bias is None:
        return None
    lp_start = base + bias
    lp_read = inst[6]
    if lp_read.op0.kind is not OperandKind.TEMP or lp_read.op0.value != cursor_reg:
        return None
    lp_size = _static_value(lp_read.op1, constants, used_config)
    # The bulk walk reinterprets pointers as (u16 offset, u16 length) pairs,
    # so the extracts must read exactly those fields of a 4-byte pointer.
    extr_off, extr_len = inst[7], inst[8]
    if lp_size != 4:
        return None
    if (_static_value(extr_off.op0, constants), _static_value(extr_off.op1, constants)) != (0, 2):
        return None
    if (_static_value(extr_len.op0, constants), _static_value(extr_len.op1, constants)) != (2, 2):
        return None
    if extr_off.op2.kind is not OperandKind.TEMP or extr_len.op2.kind is not OperandKind.TEMP:
        return None
    off_reg, len_reg = extr_off.op2.value, extr_len.op2.value
    tuple_read = inst[9]
    if (
        tuple_read.op0.kind is not OperandKind.TEMP
        or tuple_read.op0.value != off_reg
        or tuple_read.op1.kind is not OperandKind.TEMP
        or tuple_read.op1.value != len_reg
    ):
        return None
    cln = inst[10]
    strip = _static_value(cln.op0, constants, used_config)
    cln_length = _static_value(cln.op1, constants, used_config)
    mode = _static_value(cln.op2, constants, used_config)
    if strip is None or cln_length != 0 or mode is None:
        return None
    advance = inst[11]
    if (
        advance.op0.kind is not OperandKind.TEMP
        or advance.op0.value != cursor_reg
        or advance.op1.kind is not OperandKind.TEMP
        or advance.op1.value != cursor_reg
        or _static_value(advance.op2, constants, used_config) != lp_size
    ):
        return None
    bexit = inst[12]
    if (
        _static_value(bexit.op0, constants, used_config) != 1  # cursor >= bound
        or bexit.op1.kind is not OperandKind.TEMP
        or bexit.op1.value != cursor_reg
        or bexit.op2.kind is not OperandKind.CONFIG
        or bexit.op2.value not in header_dest
    ):
        return None
    # A header READB overwrites its destination register at runtime: any
    # operand resolved from the constant pool that aliases one of those
    # registers would execute with a stale value here, so the program is
    # not the idiom — let the interpreter run it.
    if used_config & header_dest.keys():
        return None
    fs_offset, fs_width = header_reads[header_dest[bexit.op2.value]]
    return _PageWalkTemplate(
        header_reads=tuple(header_reads),
        free_start_offset=fs_offset,
        free_start_width=fs_width,
        line_pointer_start=lp_start,
        line_pointer_size=lp_size,
        strip_bytes=strip,
        emits=mode != 0,
    )


def page_walk_template(program: StriderProgram) -> _PageWalkTemplate | None:
    """``program``'s bulk-walk template, matched once and kept on the program.

    All Striders of an access engine — and every fresh accelerator built from
    the same binary — run one program object (never edited once in use).
    """
    if "_page_walk_template" not in vars(program):
        program._page_walk_template = _match_page_walk(program)
    return program._page_walk_template


def walk_costs(program: StriderProgram) -> dict[tuple[int, int, int], StriderStats]:
    """``program``'s wave-walk prices, kept on the program like its template.

    Keyed by ``(read width, tuple width, tuple count)``; each entry is the
    read-only :class:`StriderStats` every equal-count page of every wave
    shares, so a fresh accelerator built from the same binary prices a
    count it has seen before without calling :meth:`Strider.walk_cost`.
    """
    return vars(program).setdefault("_walk_costs", {})


def _page_rows(pages: np.ndarray, index: np.ndarray, columns: slice) -> np.ndarray:
    """``pages[index, columns]``: a view when ``index`` is one consecutive run."""
    first = int(index[0])
    if int(index[-1]) - first == len(index) - 1:
        return pages[first : first + len(index), columns]
    return pages[index, columns]


class Strider:
    """Executes a :class:`StriderProgram` against one binary page image."""

    def __init__(
        self,
        program: StriderProgram,
        read_width_bytes: int = 8,
        max_instructions: int = 2_000_000,
    ) -> None:
        if read_width_bytes <= 0:
            raise StriderError("read width must be positive")
        self.program = program
        self.read_width_bytes = read_width_bytes
        self.max_instructions = max_instructions
        self._page_walk = page_walk_template(program)
        self._costs = walk_costs(program)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def process_page(self, page_image: bytes) -> StriderResult:
        """Run the program over one page and collect the emitted payloads."""
        state = _StriderState(page_image, self.program.constants)
        result = StriderResult()
        instructions = self.program.instructions
        pc = 0
        loop_entry: int | None = None
        while pc < len(instructions):
            if result.stats.instructions_executed >= self.max_instructions:
                raise StriderError(
                    "instruction budget exhausted; the Strider program does not terminate"
                )
            inst = instructions[pc]
            result.stats.instructions_executed += 1
            result.stats.cycles += self._instruction_cycles(inst, state)
            if inst.opcode is StriderOpcode.BENTR:
                loop_entry = pc + 1
                pc += 1
                continue
            if inst.opcode is StriderOpcode.BEXIT:
                if self._branch_exit_taken(inst, state):
                    loop_entry = None
                    pc += 1
                else:
                    if loop_entry is None:
                        raise StriderError("bexit executed without a preceding bentr")
                    result.stats.loop_iterations += 1
                    pc = loop_entry
                continue
            self._execute(inst, state, result)
            pc += 1
        result.stats.bytes_read = state.bytes_read
        return result

    def process_page_bulk(self, page_image: bytes) -> StriderResult:
        """Fast page walk: same payloads and stats as :meth:`process_page`.

        Used by the access engine on the hot path; any program or page the
        bulk walk cannot prove equivalent falls back to the interpreter.
        """
        template = self._page_walk
        if template is not None:
            result = self._bulk_walk(page_image, template)
            if result is not None:
                return result
        return self.process_page(page_image)

    def _bulk_walk(
        self, page: bytes, t: _PageWalkTemplate
    ) -> StriderResult | None:
        page_len = len(page)
        fs_end = t.free_start_offset + t.free_start_width
        if fs_end > page_len or t.line_pointer_start >= page_len:
            return None
        free_start = int.from_bytes(page[t.free_start_offset : fs_end], "little")
        span = free_start - t.line_pointer_start
        # Zero or misaligned pointer arrays take the interpreter's exact
        # (and exactly as odd) behaviour instead of approximating it here.
        if span <= 0 or span % t.line_pointer_size:
            return None
        if t.line_pointer_start + span > page_len:
            return None
        count = span // t.line_pointer_size
        pointers = np.frombuffer(
            page, dtype="<u2", count=2 * count, offset=t.line_pointer_start
        ).reshape(count, 2)
        offsets = pointers[:, 0].astype(np.int64)
        lengths = pointers[:, 1].astype(np.int64)
        if bool((offsets + lengths > page_len).any()):
            return None
        result = StriderResult(stats=self.walk_cost(lengths[None, :])[0])
        if t.emits:
            strip = t.strip_bytes
            result.payloads = [
                page[o + strip : o + l]
                for o, l in zip(offsets.tolist(), lengths.tolist())
            ]
        return result

    def walk_wave(
        self, pages: np.ndarray, payload_bytes: int
    ) -> tuple[np.ndarray, list[StriderStats | None]]:
        """Walk a wave of page buffers at once: the bulk walk over many pages.

        ``pages`` is a ``(pages, page_size)`` ``uint8`` view of the wave's
        page images.  Every ``free_start`` and line-pointer array is read
        with array operations, pages are grouped by tuple count, and the
        checks of :meth:`process_page_bulk` run vectorised on the
        ``uint16`` pointers themselves — plus one it leaves to the decoder:
        every payload is ``payload_bytes`` wide.  A group of consecutive
        pages (the usual one) reads its pointers and tuples through slices
        of ``pages``; any other gathers them.  A group whose tuples are
        packed back-to-back in descending slot order (what
        ``HeapPage.extend`` writes) is lifted with one strided slice, any
        other with one gather; either way it is copied into the FIFO as
        ``payload_bytes``-wide records.

        Returns the proven pages' cleansed payloads, page then slot order,
        as one ``(tuples, payload_bytes)`` ``uint8`` matrix — byte for byte
        the FIFO :meth:`process_page_bulk` would have filled — and each
        page's counters (one shared, read-only :class:`StriderStats` per
        distinct tuple count, kept on the program across waves and
        accelerators), ``None`` where a check rejected the page: that page
        must be walked alone, so every error and every odd-header
        behaviour stays :meth:`process_page_bulk`'s.
        """
        n_pages, page_len = pages.shape
        stats: list[StriderStats | None] = [None] * n_pages
        payloads = np.empty((0, payload_bytes), dtype=np.uint8)
        t = self._page_walk
        if t is None or not t.emits or t.free_start_width > 7:
            return payloads, stats  # nothing to prove: every page is walked alone
        fs_end = t.free_start_offset + t.free_start_width
        width = t.strip_bytes + payload_bytes
        last_offset = page_len - width  # where the last whole tuple can start
        if fs_end > page_len or t.line_pointer_start >= page_len or last_offset < 0:
            return payloads, stats
        little_endian = 1 << 8 * np.arange(t.free_start_width, dtype=np.int64)
        free_start = pages[:, t.free_start_offset : fs_end].astype(np.int64) @ little_endian
        span = free_start - t.line_pointer_start
        proven = (span > 0) & (span % t.line_pointer_size == 0) & (free_start <= page_len)
        counts = np.where(proven, span // t.line_pointer_size, 0)
        groups: list[tuple[np.ndarray, np.ndarray]] = []
        for count in np.unique(counts[proven]).tolist():
            index = np.flatnonzero(counts == count)
            pointers_end = t.line_pointer_start + count * t.line_pointer_size
            pointers = _page_rows(pages, index, slice(t.line_pointer_start, pointers_end))
            pointers = pointers.view("<u2").reshape(len(index), count, 2)
            offsets, lengths = pointers[..., 0], pointers[..., 1]
            # lengths == width, so "ends on the page" is "starts by last_offset"
            fits = ((lengths == width) & (offsets <= last_offset)).all(axis=1)
            if not fits.all():
                proven[index[~fits]] = False
                index, offsets = index[fits], offsets[fits]
            if len(index):
                groups.append((index, offsets))
        counts[~proven] = 0
        ends = np.cumsum(counts)
        payloads = np.empty((int(ends[-1]), payload_bytes), dtype=np.uint8)
        record = np.dtype((np.void, payload_bytes))
        fifo = payloads.view(record)[:, 0]
        for index, offsets in groups:
            n, count = offsets.shape
            first = int(index[0])
            run = int(index[-1]) - first == n - 1
            # Every tuple is ``width`` bytes, so a page's cost is its count's.
            cost = self._count_cost(width, count)
            if run:
                stats[first : first + n] = [cost] * n
            else:
                for page in index.tolist():
                    stats[page] = cost
            top = int(offsets[0, 0]) + width
            if (offsets == top - width * np.arange(1, count + 1)).all():
                lifted = _page_rows(pages, index, slice(top - count * width, top))
                lifted = lifted.reshape(n, count, width)[:, ::-1, t.strip_bytes :]
            else:
                lifted = pages[
                    index[:, None, None],
                    offsets[:, :, None] + np.arange(t.strip_bytes, width),
                ]
            lifted = lifted.view(record)[..., 0]
            if run:
                fifo[ends[first] - count : ends[first + n - 1]].reshape(n, count)[...] = lifted
            else:
                fifo[((ends[index] - count)[:, None] + np.arange(count)).ravel()] = lifted.ravel()
        return payloads, stats

    def _count_cost(self, tuple_bytes: int, count: int) -> StriderStats:
        """:meth:`walk_cost` of one page of ``count`` ``tuple_bytes``-wide
        tuples, priced once per program (see :func:`walk_costs`)."""
        key = (self.read_width_bytes, tuple_bytes, count)
        cost = self._costs.get(key)
        if cost is None:
            cost = self._costs[key] = self.walk_cost(tuple_bytes, [count])[0]
        return cost

    def walk_cost(
        self, lengths: np.ndarray | int, counts: np.ndarray | None = None
    ) -> list[StriderStats]:
        """What walking pages of tuples with these on-page lengths books, per page.

        The one statement of the page-walk model: the counters the
        interpreter (:meth:`process_page`) records for the compiled idiom,
        in closed form.  ``lengths`` is a ``(pages, tuples)`` array of the
        lengths a walk parsed — or, with ``counts``, the one length every
        tuple has and the per-page tuple counts, which is what the wave
        walk has proven and what the access engine's partition cost knows
        from the schema.  Per loop pass: READB pointer, EXTRB, EXTRB, READB
        tuple, CLN, AD, BEXIT.  (Only the compiled idiom has this closed
        form.)
        """
        t = self._page_walk
        lengths = np.asarray(lengths, dtype=np.int64)
        uniform = counts is not None
        counts = (
            np.asarray(counts, dtype=np.int64)
            if uniform
            else np.full(lengths.shape[0], lengths.shape[1], dtype=np.int64)
        )

        def per_page(per_tuple: np.ndarray) -> np.ndarray:
            return counts * per_tuple if uniform else per_tuple.sum(axis=1)

        payload_lengths = np.maximum(lengths - t.strip_bytes, 0)
        rw = self.read_width_bytes
        header_cycles = sum(max(1, -(-width // rw)) for _o, width in t.header_reads)
        pointer_words = max(1, -(-t.line_pointer_size // rw))
        cycles = (
            header_cycles
            + 2  # cursor init AD + BENTR
            + counts * (pointer_words + 4)  # two EXTRBs, AD, BEXIT per pass
            + per_page(np.maximum(1, -(-lengths // rw)))  # READB tuple
            + per_page(np.maximum(1, -(-payload_lengths // rw)))  # CLN
        )
        bytes_read = (
            sum(width for _offset, width in t.header_reads)
            + counts * t.line_pointer_size
            + per_page(lengths)
        )
        emitted = per_page(payload_lengths) if t.emits else np.zeros_like(counts)
        return [
            StriderStats(
                instructions_executed=6 + 7 * count,
                cycles=page_cycles,
                bytes_read=page_bytes,
                bytes_emitted=page_emitted,
                tuples_emitted=count if t.emits else 0,
                loop_iterations=count - 1,
            )
            for count, page_cycles, page_bytes, page_emitted in zip(
                counts.tolist(), cycles.tolist(), bytes_read.tolist(), emitted.tolist()
            )
        ]

    # ------------------------------------------------------------------ #
    # instruction execution
    # ------------------------------------------------------------------ #
    def _execute(self, inst: StriderInstruction, state: "_StriderState", result: StriderResult) -> None:
        op = inst.opcode
        if op is StriderOpcode.READB:
            addr = state.value(inst.op0)
            nbytes = state.value(inst.op1)
            raw = state.read_page(addr, nbytes)
            state.staging = raw
            state.store(inst.op2, int.from_bytes(raw[:8], "little"))
        elif op is StriderOpcode.EXTRB:
            offset = state.value(inst.op0)
            nbytes = state.value(inst.op1)
            if offset + nbytes > len(state.staging):
                raise StriderError(
                    f"extrB reads bytes [{offset}, {offset + nbytes}) beyond the "
                    f"{len(state.staging)}-byte staging register"
                )
            value = int.from_bytes(state.staging[offset : offset + nbytes], "little")
            state.store(inst.op2, value)
        elif op is StriderOpcode.EXTRBI:
            bit_offset = state.value(inst.op0)
            nbits = state.value(inst.op1)
            word = int.from_bytes(state.staging[:8], "little")
            value = (word >> bit_offset) & ((1 << nbits) - 1)
            state.store(inst.op2, value)
        elif op is StriderOpcode.WRITEB:
            addr = state.value(inst.op0)
            nbytes = state.value(inst.op1)
            value = state.value(inst.op2)
            state.write_page(addr, value.to_bytes(max(1, nbytes), "little")[:nbytes])
        elif op is StriderOpcode.CLN:
            strip = state.value(inst.op0)
            length = state.value(inst.op1)
            mode = state.value(inst.op2)
            payload = state.staging[strip:] if length == 0 else state.staging[strip : strip + length]
            state.staging = payload
            if mode != 0:
                result.payloads.append(bytes(payload))
                result.stats.tuples_emitted += 1
                result.stats.bytes_emitted += len(payload)
        elif op is StriderOpcode.INS:
            value = state.value(inst.op0)
            count = max(1, state.value(inst.op1))
            state.staging = state.staging + bytes([value & 0xFF]) * count
        elif op in (StriderOpcode.AD, StriderOpcode.SUB, StriderOpcode.MUL):
            a = state.value(inst.op1)
            b = state.value(inst.op2)
            if op is StriderOpcode.AD:
                value = a + b
            elif op is StriderOpcode.SUB:
                value = a - b
            else:
                value = a * b
            state.store(inst.op0, value & _WORD_MASK_64)
        else:  # pragma: no cover - BENTR/BEXIT handled by the main loop
            raise StriderError(f"unexpected opcode {op}")

    def _branch_exit_taken(self, inst: StriderInstruction, state: "_StriderState") -> bool:
        condition = state.value(inst.op0)
        a = state.value(inst.op1)
        b = state.value(inst.op2)
        if condition == 0:
            return a == b
        if condition == 1:
            return a >= b
        if condition == 2:
            return a < b
        if condition == 3:
            return a != b
        raise StriderError(f"unknown bexit condition code {condition}")

    def _instruction_cycles(self, inst: StriderInstruction, state: "_StriderState") -> int:
        """Cycle cost: 1 per instruction, plus extra BRAM words for big reads."""
        if inst.opcode in (StriderOpcode.READB, StriderOpcode.CLN, StriderOpcode.WRITEB):
            nbytes = state.value(inst.op1)
            if inst.opcode is StriderOpcode.CLN and nbytes == 0:
                nbytes = max(0, len(state.staging) - state.value(inst.op0))
            words = max(1, -(-nbytes // self.read_width_bytes))
            return words
        return 1


class _StriderState:
    """Register file, staging register and page-buffer view of one Strider."""

    def __init__(self, page_image: bytes, constants: dict[int, int]) -> None:
        self.page = bytearray(page_image)
        self.config = [0] * NUM_CONFIG_REGISTERS
        self.temps = [0] * NUM_TEMP_REGISTERS
        self.staging = b""
        self.bytes_read = 0
        for reg, value in constants.items():
            if not 0 <= reg < NUM_CONFIG_REGISTERS:
                raise StriderError(f"constant register index {reg} out of range")
            self.config[reg] = value

    def value(self, operand: Operand) -> int:
        if operand.kind is OperandKind.IMMEDIATE:
            return operand.value
        if operand.kind is OperandKind.CONFIG:
            return self.config[operand.value]
        return self.temps[operand.value]

    def store(self, operand: Operand, value: int) -> None:
        if operand.kind is OperandKind.CONFIG:
            self.config[operand.value] = value
        elif operand.kind is OperandKind.TEMP:
            self.temps[operand.value] = value
        # Storing to an immediate destination discards the value (used by
        # instructions that only care about the staging register).

    def read_page(self, addr: int, nbytes: int) -> bytes:
        if addr < 0 or addr + nbytes > len(self.page):
            raise StriderError(
                f"page-buffer read [{addr}, {addr + nbytes}) out of bounds "
                f"(page is {len(self.page)} bytes)"
            )
        self.bytes_read += nbytes
        return bytes(self.page[addr : addr + nbytes])

    def write_page(self, addr: int, data: bytes) -> None:
        if addr < 0 or addr + len(data) > len(self.page):
            raise StriderError(
                f"page-buffer write [{addr}, {addr + len(data)}) out of bounds"
            )
        self.page[addr : addr + len(data)] = data
