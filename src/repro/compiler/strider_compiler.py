"""Strider compiler: page layout + table schema → Strider program.

"The compiler converts the database page configuration into a set of
Strider instructions that process the page and tuple headers and transform
user data into a floating point format" (paper §3/§6.2).  Given the
:class:`~repro.rdbms.page.PageLayout` of the target RDBMS and the table
schema, this module emits the 22-bit instruction sequence each Strider
runs, mirroring the assembly listing of §5.1.2:

1. process the page header (page size, free-space bounds, tuple count);
2. process the tuple pointers (line pointers);
3. loop over every tuple: read its bytes, cleanse the tuple header, emit
   the raw attribute payload, advance to the next pointer, and exit the
   loop once the pointer cursor reaches the free space.

Constants that do not fit in a 6-bit immediate (the line-pointer start
offset, large header sizes) are placed in the program's constant pool and
shipped to configuration registers over the configuration-data channel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import CompilerError
from repro.isa.strider_isa import (
    Operand,
    StriderInstruction,
    StriderOpcode,
    StriderProgram,
    cr,
    imm,
    tr,
)
from repro.rdbms.page import PageLayout
from repro.rdbms.types import Schema

# Configuration-register allocation used by generated programs.
CR_PAGE_SIZE = 0
CR_FREE_START = 1
CR_FREE_END = 2
CR_TUPLE_COUNT = 3
CR_LINE_POINTER_START = 4
CR_LINE_POINTER_SIZE = 5
CR_TUPLE_HEADER_SIZE = 6
CR_TUPLE_PAYLOAD_SIZE = 7

# Temporary-register allocation.
TR_CURSOR = 0        # line-pointer cursor
TR_POINTER = 1       # raw line-pointer word
TR_TUPLE_OFFSET = 2  # byte offset of the current tuple
TR_TUPLE_LENGTH = 3  # byte length of the current tuple
TR_SCRATCH = 4


def _operand_for(value: int, register: int) -> tuple[Operand, dict[int, int]]:
    """Use an immediate when the value fits, otherwise a constant register."""
    if 0 <= value < 32:
        return imm(value), {}
    return cr(register), {register: value}


@dataclass(frozen=True)
class StriderCompilationResult:
    """Program plus the per-page statistics the performance model needs."""

    program: StriderProgram
    #: the page layout the program walks (the CPU-decode model reads the
    #: same pages through it).
    layout: PageLayout
    header_instructions: int
    loop_instructions: int
    tuple_payload_bytes: int

    def instructions_for_page(self, tuples_on_page: int) -> int:
        """Dynamic instruction count for a page holding ``tuples_on_page`` rows."""
        return self.header_instructions + self.loop_instructions * max(1, tuples_on_page)


class StriderCompiler:
    """Generates Strider programs for a given RDBMS page layout."""

    def __init__(self, layout: PageLayout, schema: Schema) -> None:
        self.layout = layout
        self.schema = schema

    def compile(self) -> StriderCompilationResult:
        """Emit the page-walking program for this layout and schema."""
        layout = self.layout
        constants: dict[int, int] = {
            CR_LINE_POINTER_START: layout.line_pointer_start,
            CR_LINE_POINTER_SIZE: layout.line_pointer_size,
            CR_TUPLE_HEADER_SIZE: layout.tuple_header_size,
            CR_TUPLE_PAYLOAD_SIZE: self.schema.row_width,
        }
        instructions: list[StriderInstruction] = []

        # -------------------------------------------------------------- #
        # page-header processing
        # -------------------------------------------------------------- #
        header = [
            StriderInstruction(
                StriderOpcode.READB,
                imm(layout.page_size_offset),
                imm(layout.page_size_width),
                cr(CR_PAGE_SIZE),
            ),
            StriderInstruction(
                StriderOpcode.READB,
                imm(layout.free_start_offset),
                imm(layout.free_start_width),
                cr(CR_FREE_START),
            ),
            StriderInstruction(
                StriderOpcode.READB,
                imm(layout.free_end_offset),
                imm(layout.free_end_width),
                cr(CR_FREE_END),
            ),
            StriderInstruction(
                StriderOpcode.READB,
                imm(layout.tuple_count_offset),
                imm(layout.tuple_count_width),
                cr(CR_TUPLE_COUNT),
            ),
            # cursor <- first line pointer
            StriderInstruction(
                StriderOpcode.AD, tr(TR_CURSOR), cr(CR_LINE_POINTER_START), imm(0)
            ),
        ]
        instructions.extend(header)

        # -------------------------------------------------------------- #
        # tuple-pointer processing + tuple extraction loop
        # -------------------------------------------------------------- #
        strip_operand, extra = _operand_for(layout.tuple_header_size, CR_TUPLE_HEADER_SIZE)
        constants.update(extra)
        lp_size_operand, extra = _operand_for(layout.line_pointer_size, CR_LINE_POINTER_SIZE)
        constants.update(extra)
        if layout.line_pointer_size > 8:
            raise CompilerError("line pointers wider than 8 bytes are not supported")

        loop = [
            StriderInstruction(StriderOpcode.BENTR),
            # read the current line pointer into the staging register
            StriderInstruction(
                StriderOpcode.READB, tr(TR_CURSOR), lp_size_operand, tr(TR_POINTER)
            ),
            # tuple byte-offset and byte-length from the pointer
            StriderInstruction(
                StriderOpcode.EXTRB, imm(0), imm(2), tr(TR_TUPLE_OFFSET)
            ),
            StriderInstruction(
                StriderOpcode.EXTRB, imm(2), imm(2), tr(TR_TUPLE_LENGTH)
            ),
            # read the whole tuple (header + payload) into the staging register
            StriderInstruction(
                StriderOpcode.READB,
                tr(TR_TUPLE_OFFSET),
                tr(TR_TUPLE_LENGTH),
                tr(TR_SCRATCH),
            ),
            # cleanse: strip the tuple header and emit the payload downstream
            StriderInstruction(StriderOpcode.CLN, strip_operand, imm(0), imm(2)),
            # advance the cursor to the next line pointer
            StriderInstruction(
                StriderOpcode.AD, tr(TR_CURSOR), tr(TR_CURSOR), lp_size_operand
            ),
            # exit once the cursor reaches the start of the free space
            StriderInstruction(
                StriderOpcode.BEXIT, imm(1), tr(TR_CURSOR), cr(CR_FREE_START)
            ),
        ]
        instructions.extend(loop)

        program = StriderProgram(
            instructions=instructions,
            constants=constants,
            description=(
                f"page walk for {self.layout.page_size}-byte pages, "
                f"{self.schema.row_width}-byte tuples"
            ),
        )
        # bentr is a marker and does not repeat per tuple, so the per-tuple
        # dynamic count excludes it.
        loop_dynamic = len(loop) - 1
        return StriderCompilationResult(
            program=program,
            layout=self.layout,
            header_instructions=len(header),
            loop_instructions=loop_dynamic,
            tuple_payload_bytes=self.schema.row_width,
        )


def compile_strider(layout: PageLayout, schema: Schema) -> StriderCompilationResult:
    """Convenience wrapper for :class:`StriderCompiler`."""
    return StriderCompiler(layout, schema).compile()
