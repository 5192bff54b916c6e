"""Tests for the Verilog-subset interpreter and RTL equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    Codebook,
    NineCDecoder,
    NineCEncoder,
    TernaryVector,
    assign_lengths_by_frequency,
)
from repro.decompressor import (
    RTLSimulator,
    generate_decoder_verilog,
    parse_module,
    run_decoder_rtl,
)
from repro.decompressor.rtlsim import (
    Binary,
    Const,
    Ident,
    Ternary,
    Unary,
    _TokenStream,
    parse_expression,
    strip_comments,
    tokenize,
)

from .conftest import ternary_vectors


def expr(text):
    return parse_expression(_TokenStream(tokenize(text)))


class TestLexerParser:
    def test_tokenize(self):
        assert tokenize("a <= b + 1;") == ["a", "<=", "b", "+", "1", ";"]

    def test_sized_literal(self):
        assert tokenize("2'b10") == ["2'b10"]

    def test_strip_comments(self):
        assert strip_comments("a // hi\nb") == "a \nb"

    def test_expression_shapes(self):
        assert expr("5") == Const(5)
        assert expr("2'b10") == Const(2)
        assert expr("x") == Ident("x")
        assert expr("!x") == Unary("!", Ident("x"))
        assert expr("a == b") == Binary("==", Ident("a"), Ident("b"))
        parsed = expr("s ? a : b")
        assert isinstance(parsed, Ternary)

    def test_precedence(self):
        parsed = expr("a == 1 && b == 2")
        assert parsed.op == "&&"
        assert parsed.left.op == "=="

    def test_parentheses(self):
        parsed = expr("!(a && b)")
        assert isinstance(parsed, Unary)

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError):
            tokenize('a <= "string"')

    def test_bad_expression_rejected(self):
        with pytest.raises(ValueError):
            expr(";")


class TestModuleParsing:
    def test_parses_generated_decoder(self):
        module = parse_module(generate_decoder_verilog(8))
        assert module.name == "ninec_decoder"
        assert module.ports["clk"].direction == "input"
        assert module.ports["ack"].is_reg
        assert module.localparams["K"] == 8
        assert "state" in module.regs
        assert "ready" in module.wires
        assert module.reset_body and module.clocked_body

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_module("not verilog at all")

    def test_rejects_module_without_always(self):
        with pytest.raises(ValueError):
            parse_module("module m (input wire a);\nendmodule\n")


class TestSimulatorBasics:
    def setup_method(self):
        self.sim = RTLSimulator(parse_module(generate_decoder_verilog(8)))

    def test_reset_state(self):
        assert self.sim.read("state") == \
            self.sim.module.localparams["ST_S0"]
        assert self.sim.read("case_valid") == 0

    def test_unknown_input_rejected(self):
        with pytest.raises(ValueError):
            self.sim.set_inputs(bogus=1)

    def test_unknown_identifier_rejected(self):
        with pytest.raises(ValueError):
            self.sim.read("no_such_net")

    def test_c1_block_decodes(self):
        # codeword "0" -> case_valid, then 8 zero bits at one per cycle
        sim = self.sim
        sim.set_inputs(rst_n=1, dec_en=1, ate_tick=1, data_in=0)
        sim.step()
        sim.set_inputs(ate_tick=0)
        assert sim.read("case_valid") == 1
        bits = []
        for _ in range(8):
            assert sim.read("scan_en") == 1
            bits.append(sim.read("scan_out"))
            sim.step()
        assert bits == [0] * 8
        assert sim.read("case_valid") == 0
        assert sim.read("ack") == 1

    def test_wire_reads_follow_every_change(self):
        # settled wires are cached; each way of changing the state
        # must drop that cache
        sim = self.sim
        sim.set_inputs(rst_n=1, dec_en=0, ate_tick=1, data_in=0)
        assert sim.read("ready") == 0
        sim.set_inputs(dec_en=1)
        assert sim.read("ready") == 1
        sim.step()  # codeword "0": a C1 block, whose zeros need no data
        assert sim.read("ready") == 0
        sim.reset()
        assert sim.read("ready") == 1
        state = dict(sim.regs, case_valid=1, half_sel=0,
                     sel_left=sim.module.localparams["SEL_ZERO"])
        sim.regs = state
        assert sim.read("ready") == 0
        state["case_valid"] = 0  # the simulator keeps its own copy
        assert sim.read("ready") == 0

    def test_state_changes_only_through_the_api(self):
        # an in-place write would bypass the wire cache, so it fails
        sim = self.sim
        with pytest.raises(TypeError):
            sim.regs["case_valid"] = 1
        with pytest.raises(TypeError):
            sim.inputs["dec_en"] = 1
        sim.set_inputs(dec_en=1)
        assert sim.inputs["dec_en"] == 1

    def test_ready_low_during_uniform_half(self):
        sim = self.sim
        sim.set_inputs(rst_n=1, dec_en=1, ate_tick=1, data_in=0)
        sim.step()
        sim.set_inputs(ate_tick=0)
        assert sim.read("ready") == 0  # driving zeros, no data needed


class TestRTLEquivalence:
    """The interpreted RTL must match the software decoder exactly."""

    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_random_streams(self, k):
        rng = np.random.default_rng(k)
        rtl = generate_decoder_verilog(k)
        for _ in range(4):
            data = TernaryVector(rng.integers(0, 3, 48).astype(np.uint8))
            encoding = NineCEncoder(k).encode(data)
            bits = [0 if b == 2 else int(b) for b in encoding.stream]
            software = NineCDecoder(k).decode_stream(TernaryVector(bits))
            hardware = run_decoder_rtl(rtl, bits)
            assert hardware == [int(b) for b in software]

    @given(ternary_vectors(min_size=1, max_size=48))
    @settings(max_examples=25, deadline=None)
    def test_equivalence_property(self, data):
        encoding = NineCEncoder(8).encode(data)
        bits = [0 if b == 2 else int(b) for b in encoding.stream]
        software = NineCDecoder(8).decode_stream(TernaryVector(bits))
        hardware = run_decoder_rtl(generate_decoder_verilog(8), bits)
        assert hardware == [int(b) for b in software]

    def test_reassigned_codebook_rtl(self):
        data = TernaryVector("X01X1111" * 6 + "00000000" * 2)
        base = NineCEncoder(8).encode(data)
        book = Codebook.from_lengths(
            assign_lengths_by_frequency(base.case_counts)
        )
        encoding = NineCEncoder(8, book).encode(data)
        bits = [0 if b == 2 else int(b) for b in encoding.stream]
        software = NineCDecoder(8, book).decode_stream(TernaryVector(bits))
        rtl = generate_decoder_verilog(8, book)
        assert run_decoder_rtl(rtl, bits) == [int(b) for b in software]

    def test_deadlock_detected(self):
        # A truncated stream leaves the decoder waiting for data bits.
        data = TernaryVector("01100110")  # C9 block: codeword + payload
        encoding = NineCEncoder(8).encode(data)
        bits = [int(b) for b in encoding.stream][:5]  # cut the payload
        with pytest.raises(RuntimeError):
            run_decoder_rtl(generate_decoder_verilog(8), bits,
                            max_cycles=200)
