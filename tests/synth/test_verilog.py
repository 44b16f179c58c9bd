"""Tests for structural Verilog emission."""

import pytest

from repro.synth import (
    Adder,
    ComplexMultiplier,
    Module,
    Register,
    StreamingPermuter,
    emit_verilog,
)
from repro.noc import build_router
from repro.fft import build_fft


def make_module():
    m = Module("demo_core")
    m.add_port("din", 32, "in")
    m.add_port("dout", 32, "out")
    m.add("in_reg", Register(32))
    m.add("adder", Adder(32))
    m.add("out_reg", Register(32))
    m.chain("in_reg", "adder", "out_reg")
    return m


class TestEmission:
    def test_module_wrapper(self):
        text = emit_verilog(make_module())
        assert text.count("module demo_core") == 1
        assert text.count("endmodule") == 1

    def test_ports_declared(self):
        text = emit_verilog(make_module())
        assert "input wire [31:0] din" in text
        assert "output wire [31:0] dout" in text
        assert "input wire clk" in text

    def test_all_instances_present(self):
        m = make_module()
        text = emit_verilog(m)
        for inst in m.instances:
            assert inst.name in text

    def test_edges_become_assigns(self):
        text = emit_verilog(make_module())
        assert "assign adder_d = in_reg_q;" in text
        assert "assign out_reg_d = adder_q;" in text

    def test_sequential_instances_get_always_blocks(self):
        text = emit_verilog(make_module())
        assert "always @(posedge clk)" in text

    def test_identifier_sanitization(self):
        m = Module("weird name!")
        m.add("a-b.c", Adder(4))
        text = emit_verilog(m)
        assert "module weird_name_" in text
        assert "a_b_c" in text


def clocked(text: str, ident: str) -> bool:
    """Whether an instance was emitted as an always block (else an assign)."""
    always = f"always @(posedge clk) begin : {ident}" in text
    assign = f"assign {ident}_q = {ident}_f({ident}_d);" in text
    assert always != assign
    return always


class TestSequentialStanzas:
    """An instance is clocked exactly when the STA launches paths from it."""

    @pytest.mark.parametrize(
        "primitive, replicate, sequential",
        [
            (ComplexMultiplier(16), 1, True),
            (ComplexMultiplier(16), 4, True),
            (ComplexMultiplier(16, pipelined=False), 1, False),
            (StreamingPermuter(4, 24), 1, True),
            (StreamingPermuter(2, 24), 3, True),
            (StreamingPermuter(1, 24), 1, False),
        ],
    )
    def test_sequential_flag_decides(self, primitive, replicate, sequential):
        m = Module("m")
        inst = m.add("dut", primitive, replicate=replicate)
        assert inst.sequential is sequential
        assert clocked(emit_verilog(m), "dut") is sequential

    def test_streaming_fft_multiplier_and_permuter_are_clocked(self):
        module = build_fft(
            dict(
                streaming_width=8,
                radix=2,
                bit_width=16,
                twiddle_storage="bram_rom",
                scaling="per_stage",
                architecture="streaming",
            )
        )
        text = emit_verilog(module)
        kinds = {inst.name: inst.primitive.kind() for inst in module.instances}
        assert kinds["stage0_twiddle_mult"] == "ComplexMultiplierx4"
        assert kinds["stage0_permute"] == "StreamingPermuter"
        for inst in module.instances:
            assert clocked(text, inst.name) is inst.sequential, inst.name


class TestGeneratedIpEmission:
    def test_router_emits(self):
        module = build_router(
            dict(
                num_vcs=2,
                buffer_depth=4,
                flit_width=32,
                vc_allocator="separable_input_first",
                sw_allocator="round_robin",
                pipeline_stages=2,
                crossbar_type="mux",
                speculative=False,
                buffer_org="private",
            )
        )
        text = emit_verilog(module)
        assert "endmodule" in text
        assert "crossbar" in text
        assert len(text.splitlines()) > 40

    def test_fft_emits(self):
        module = build_fft(
            dict(
                streaming_width=4,
                radix=4,
                bit_width=12,
                twiddle_storage="bram_rom",
                scaling="per_stage",
                architecture="streaming",
            )
        )
        text = emit_verilog(module)
        assert "endmodule" in text
        assert "twiddle" in text


class TestGateVerilog:
    def test_half_adder(self):
        from repro.synth import GateNetwork, emit_gate_verilog

        g = GateNetwork("half_adder")
        a, b = g.pi("a"), g.pi("b")
        g.po("sum", g.XOR(a, b))
        g.po("carry", g.AND(a, b))
        text = emit_gate_verilog(g)
        assert "module half_adder" in text
        assert "^" in text and "&" in text
        assert "assign sum" in text and "assign carry" in text
        assert text.count("endmodule") == 1

    def test_mux_and_not(self):
        from repro.synth import GateNetwork, emit_gate_verilog

        g = GateNetwork("mux_not")
        s, a, b = g.pi("s"), g.pi("a"), g.pi("b")
        g.po("y", g.MUX(s, g.NOT(a), b))
        text = emit_gate_verilog(g)
        assert "?" in text and "~" in text

    def test_dead_logic_omitted(self):
        from repro.synth import GateNetwork, emit_gate_verilog

        g = GateNetwork("dce")
        a, b = g.pi("a"), g.pi("b")
        g.AND(a, b)  # dead
        g.po("y", g.OR(a, b))
        text = emit_gate_verilog(g)
        assert "&" not in text

    def test_constant_nodes_inline(self):
        from repro.synth import GateNetwork, emit_gate_verilog

        g = GateNetwork("const_use")
        s = g.pi("s")
        g.po("y", g.MUX(s, g.const(True), g.pi("a")))
        text = emit_gate_verilog(g)
        assert "1'b1" in text

    def test_word_adder_emits(self):
        from repro.synth import GateNetwork, emit_gate_verilog

        g = GateNetwork("adder4")
        a, b = g.word("a", 4), g.word("b", 4)
        g.po_word("sum", g.add_words(a, b))
        text = emit_gate_verilog(g)
        assert "a_0_" in text  # sanitized a[0]
        assert text.count("assign") > 10
