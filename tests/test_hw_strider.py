"""Tests for the Strider simulator + Strider compiler against real pages."""

import numpy as np
import pytest

from repro.compiler import compile_strider
from repro.exceptions import StriderError
from repro.hw.access_engine import PayloadDecoder
from repro.hw.strider import Strider
from repro.isa import StriderInstruction, StriderOpcode, StriderProgram, cr, imm, tr
from repro.rdbms.heaptuple import decode_tuple
from repro.rdbms.page import HeapPage, PageLayout
from repro.rdbms.types import Schema


@pytest.fixture
def layout():
    return PageLayout(page_size=8 * 1024)


@pytest.fixture
def schema():
    return Schema.training_schema(4)


@pytest.fixture
def page_with_rows(layout, schema):
    page = HeapPage(layout)
    rows = [(float(i), float(i) * 2, -float(i), 1.0, float(i) % 3) for i in range(20)]
    for row in rows:
        page.insert(schema, row)
    return page, rows


class TestStriderCompiler:
    def test_program_structure(self, layout, schema):
        result = compile_strider(layout, schema)
        opcodes = [inst.opcode for inst in result.program.instructions]
        assert opcodes.count(StriderOpcode.READB) >= 5
        assert StriderOpcode.BENTR in opcodes
        assert StriderOpcode.BEXIT in opcodes
        assert StriderOpcode.CLN in opcodes
        assert result.header_instructions > 0
        assert result.loop_instructions > 0

    def test_all_instructions_encode(self, layout, schema):
        result = compile_strider(layout, schema)
        for word in result.program.encode():
            assert 0 <= word < (1 << 22)

    def test_constants_cover_large_offsets(self, layout, schema):
        result = compile_strider(layout, schema)
        # line-pointer start (24) does not fit in a 5-bit immediate
        assert any(v == layout.line_pointer_start for v in result.program.constants.values())

    def test_dynamic_instruction_count(self, layout, schema):
        result = compile_strider(layout, schema)
        assert result.instructions_for_page(10) == (
            result.header_instructions + 10 * result.loop_instructions
        )


class TestStriderExecution:
    def test_extracts_every_tuple(self, layout, schema, page_with_rows):
        page, rows = page_with_rows
        result = compile_strider(layout, schema)
        strider = Strider(result.program)
        out = strider.process_page(page.to_bytes())
        assert out.stats.tuples_emitted == len(rows)
        decoder = PayloadDecoder(schema)
        decoded = decoder.decode_many(out.payloads)
        np.testing.assert_allclose(decoded, np.asarray(rows), rtol=1e-6)

    def test_payloads_are_cleansed(self, layout, schema, page_with_rows):
        page, rows = page_with_rows
        result = compile_strider(layout, schema)
        out = Strider(result.program).process_page(page.to_bytes())
        # the payload is exactly the attribute bytes: no tuple header left
        assert all(len(p) == schema.row_width for p in out.payloads)
        assert decode_tuple(schema, page.read_raw(0)) == rows[0]

    def test_cycle_accounting(self, layout, schema, page_with_rows):
        page, rows = page_with_rows
        result = compile_strider(layout, schema)
        out = Strider(result.program).process_page(page.to_bytes())
        assert out.stats.cycles >= out.stats.instructions_executed
        assert out.stats.loop_iterations == len(rows) - 1
        assert out.stats.bytes_read > 0

    def test_different_page_sizes(self, schema):
        for page_size in (8 * 1024, 16 * 1024, 32 * 1024):
            layout = PageLayout(page_size=page_size)
            page = HeapPage(layout)
            rows = [(1.0, 2.0, 3.0, 4.0, 5.0)] * 7
            for row in rows:
                page.insert(schema, row)
            result = compile_strider(layout, schema)
            out = Strider(result.program).process_page(page.to_bytes())
            assert out.stats.tuples_emitted == 7

    def test_wide_tuples(self):
        layout = PageLayout(page_size=32 * 1024)
        schema = Schema.training_schema(520)
        page = HeapPage(layout)
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(10, 521))
        for row in rows:
            page.insert(schema, row.tolist())
        result = compile_strider(layout, schema)
        out = Strider(result.program).process_page(page.to_bytes())
        decoded = PayloadDecoder(schema).decode_many(out.payloads)
        np.testing.assert_allclose(decoded, rows, rtol=1e-5, atol=1e-5)

    def test_lrmf_schema_page(self):
        layout = PageLayout(page_size=8 * 1024)
        schema = Schema.lrmf_schema()
        page = HeapPage(layout)
        rows = [(3, 5, 4.5), (1, 2, 2.0), (0, 7, 1.5)]
        for row in rows:
            page.insert(schema, row)
        result = compile_strider(layout, schema)
        out = Strider(result.program).process_page(page.to_bytes())
        decoded = PayloadDecoder(schema).decode_many(out.payloads)
        np.testing.assert_allclose(decoded, np.asarray(rows, dtype=float), rtol=1e-6)

    def test_out_of_bounds_read_rejected(self):
        program = StriderProgram(
            instructions=[StriderInstruction(StriderOpcode.READB, cr(0), imm(8), tr(0))],
            constants={0: 10_000},
        )
        with pytest.raises(StriderError):
            Strider(program).process_page(b"\x00" * 1024)

    def test_runaway_loop_detected(self):
        program = StriderProgram(
            instructions=[
                StriderInstruction(StriderOpcode.BENTR),
                StriderInstruction(StriderOpcode.AD, tr(0), tr(0), imm(0)),
                StriderInstruction(StriderOpcode.BEXIT, imm(0), tr(0), imm(1)),
            ],
            constants={},
        )
        with pytest.raises(StriderError):
            Strider(program, max_instructions=1000).process_page(b"\x00" * 1024)

    def test_arithmetic_and_extract_instructions(self):
        # hand-written program: read 4 bytes, extract the second byte,
        # do arithmetic on registers, and emit a cleansed payload.
        page = bytearray(64)
        page[0:4] = (10).to_bytes(4, "little")
        page[8:16] = b"ABCDEFGH"
        program = StriderProgram(
            instructions=[
                StriderInstruction(StriderOpcode.READB, imm(0), imm(4), tr(0)),
                StriderInstruction(StriderOpcode.EXTRB, imm(1), imm(1), tr(1)),
                StriderInstruction(StriderOpcode.AD, tr(2), tr(0), imm(5)),
                StriderInstruction(StriderOpcode.MUL, tr(3), tr(2), imm(2)),
                StriderInstruction(StriderOpcode.SUB, tr(4), tr(3), imm(6)),
                StriderInstruction(StriderOpcode.READB, imm(8), imm(8), tr(5)),
                StriderInstruction(StriderOpcode.CLN, imm(2), imm(4), imm(2)),
            ],
            constants={},
        )
        strider = Strider(program)
        out = strider.process_page(bytes(page))
        assert out.payloads == [b"CDEF"]

    def test_extrbi_bit_extraction(self):
        page = bytearray(16)
        page[0] = 0b1011_0110
        program = StriderProgram(
            instructions=[
                StriderInstruction(StriderOpcode.READB, imm(0), imm(1), tr(0)),
                StriderInstruction(StriderOpcode.EXTRBI, imm(1), imm(3), tr(1)),
                StriderInstruction(StriderOpcode.INS, imm(7), imm(2), imm(0)),
                StriderInstruction(StriderOpcode.CLN, imm(0), imm(0), imm(2)),
            ],
            constants={},
        )
        out = Strider(program).process_page(bytes(page))
        # bits [1:4) of 0b10110110 are 0b011 = 3; payload = original byte + 2 inserted bytes
        assert out.payloads == [bytes([0b1011_0110, 7, 7])]


class TestPageWalkTemplateIsMatchedOncePerProgram:
    """An access engine's Striders — and every fresh accelerator built from
    the same binary — share one matched template."""

    def test_one_match_per_program_however_many_striders(self, layout, schema, monkeypatch):
        import repro.hw.strider as strider_module
        from repro.hw import DEFAULT_FPGA, AccessEngine, AccessEngineConfig

        calls = []
        match = strider_module._match_page_walk
        monkeypatch.setattr(
            strider_module, "_match_page_walk", lambda program: calls.append(program) or match(program)
        )
        program = compile_strider(layout, schema).program
        config = AccessEngineConfig(num_striders=64, page_size=layout.page_size)
        engines = [AccessEngine(config, program, schema, DEFAULT_FPGA) for _ in range(3)]
        assert calls == [program]
        templates = {id(s._page_walk) for engine in engines for s in engine._striders}
        assert len(templates) == 1 and engines[0]._striders[0]._page_walk is not None
        # a different program object is matched on its own
        other = compile_strider(layout, schema).program
        assert Strider(other)._page_walk == engines[0]._striders[0]._page_walk
        assert calls == [program, other]

    def test_shared_template_keeps_payloads_stats_and_the_interpreter_fallback(
        self, layout, schema, page_with_rows
    ):
        page, _rows = page_with_rows
        program = compile_strider(layout, schema).program
        first, second = Strider(program), Strider(program)
        oracle = first.process_page(page.to_bytes())
        for strider in (first, second):
            bulk = strider.process_page_bulk(page.to_bytes())
            assert bulk.payloads == oracle.payloads and bulk.stats == oracle.stats
        unmatched = StriderProgram(
            instructions=[StriderInstruction(StriderOpcode.READB, imm(0), imm(8), tr(0))],
            constants={},
        )
        assert Strider(unmatched)._page_walk is None and Strider(unmatched)._page_walk is None
        assert (
            Strider(unmatched).process_page_bulk(bytes(64)).stats
            == Strider(unmatched).process_page(bytes(64)).stats
        )
