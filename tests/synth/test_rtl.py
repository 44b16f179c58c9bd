"""Tests for the word-level RTL DSL."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import SynthesisError
from repro.synth import Rtl


def drive_word(name, value, width):
    return {f"{name}[{i}]": (value >> i) & 1 for i in range(width)}


def read_word(outputs, name, width):
    return sum(outputs[f"{name}[{i}]"] << i for i in range(width))


def comb_eval(build, inputs, widths, out_name, out_width):
    """Build a combinational design, simulate one vector, read one word."""
    m = Rtl("comb")
    build(m)
    sim = m.simulator()
    assignment = {}
    for name, value in inputs.items():
        assignment.update(drive_word(name, value, widths[name]))
    return read_word(sim.step(assignment), out_name, out_width)


class TestCombinationalOps:
    @pytest.mark.parametrize("x,y", [(0, 0), (7, 9), (255, 255), (200, 55)])
    def test_add(self, x, y):
        def build(m):
            a, b = m.input("a", 8), m.input("b", 8)
            m.output("y", a + b)

        assert comb_eval(build, {"a": x, "b": y}, {"a": 8, "b": 8}, "y", 9) == x + y

    @pytest.mark.parametrize("x,y", [(9, 4), (4, 9), (100, 100), (255, 0)])
    def test_sub_and_ge(self, x, y):
        def build(m):
            a, b = m.input("a", 8), m.input("b", 8)
            m.output("d", (a - b)[0:8])
            m.output("ge", a.ge(b))

        m = Rtl("c")
        build(m)
        sim = m.simulator()
        out = sim.step({**drive_word("a", x, 8), **drive_word("b", y, 8)})
        assert read_word(out, "d", 8) == (x - y) % 256
        assert out["ge[0]"] == int(x >= y)

    def test_bitwise(self):
        def build(m):
            a, b = m.input("a", 8), m.input("b", 8)
            m.output("and_", a & b)
            m.output("or_", a | b)
            m.output("xor_", a ^ b)
            m.output("not_", ~a)

        m = Rtl("c")
        build(m)
        out = m.simulator().step({**drive_word("a", 0b1100_1010, 8), **drive_word("b", 0b1010_0110, 8)})
        assert read_word(out, "and_", 8) == 0b1000_0010
        assert read_word(out, "or_", 8) == 0b1110_1110
        assert read_word(out, "xor_", 8) == 0b0110_1100
        assert read_word(out, "not_", 8) == 0b0011_0101

    def test_eq(self):
        def build(m):
            a, b = m.input("a", 6), m.input("b", 6)
            m.output("eq", a.eq(b))

        m = Rtl("c")
        build(m)
        sim = m.simulator()
        assert sim.step({**drive_word("a", 33, 6), **drive_word("b", 33, 6)})["eq[0]"] == 1
        assert sim.step({**drive_word("a", 33, 6), **drive_word("b", 32, 6)})["eq[0]"] == 0

    def test_shifts_and_slices(self):
        def build(m):
            a = m.input("a", 8)
            m.output("shl", (a << 2)[0:10])
            m.output("shr", a >> 3)
            m.output("nib", a[4:8])

        m = Rtl("c")
        build(m)
        out = m.simulator().step(drive_word("a", 0b1011_0110, 8))
        assert read_word(out, "shl", 10) == 0b1011_0110 << 2
        assert read_word(out, "shr", 5) == 0b1011_0110 >> 3
        assert read_word(out, "nib", 4) == 0b1011

    def test_reductions(self):
        def build(m):
            a = m.input("a", 4)
            m.output("any", a.any())
            m.output("all", a.all())

        m = Rtl("c")
        build(m)
        sim = m.simulator()
        assert sim.step(drive_word("a", 0, 4))["any[0]"] == 0
        assert sim.step(drive_word("a", 4, 4))["any[0]"] == 1
        assert sim.step(drive_word("a", 15, 4))["all[0]"] == 1
        assert sim.step(drive_word("a", 14, 4))["all[0]"] == 0

    def test_mux_and_const(self):
        m = Rtl("c")
        sel = m.input("sel", 1)
        m.output("y", m.mux(sel, m.const(200, 8), m.const(17, 8)))
        sim = m.simulator()
        assert read_word(sim.step({"sel[0]": 1}), "y", 8) == 200
        assert read_word(sim.step({"sel[0]": 0}), "y", 8) == 17

    def test_concat_resize(self):
        m = Rtl("c")
        a = m.input("a", 4)
        m.output("wide", a.resize(8))
        m.output("pair", a.resize(8) | (a << 4))  # a, then a above it
        out = m.simulator().step(drive_word("a", 0b1001, 4))
        assert read_word(out, "wide", 8) == 0b1001
        assert read_word(out, "pair", 8) == 0b1001_1001


class TestWidthDiscipline:
    def test_mismatch_rejected(self):
        m = Rtl("w")
        a, b = m.input("a", 8), m.input("b", 4)
        with pytest.raises(SynthesisError, match="width mismatch"):
            a + b

    def test_const_range_checked(self):
        m = Rtl("w")
        with pytest.raises(SynthesisError):
            m.const(256, 8)
        with pytest.raises(SynthesisError):
            m.const(-1, 8)

    def test_mux_select_one_bit(self):
        m = Rtl("w")
        a = m.input("a", 2)
        with pytest.raises(SynthesisError, match="1 bit"):
            m.mux(a, a, a)

    def test_raw_python_int_rejected(self):
        m = Rtl("w")
        a = m.input("a", 8)
        with pytest.raises(SynthesisError, match="Rtl.const"):
            a + 5


class TestRegisters:
    def test_next_exactly_once(self):
        m = Rtl("r")
        r = m.reg("r", 4)
        m.next(r, m.const(1, 4))
        with pytest.raises(SynthesisError, match="already"):
            m.next(r, m.const(2, 4))

    def test_next_width_checked(self):
        m = Rtl("r")
        r = m.reg("r", 4)
        with pytest.raises(SynthesisError, match="resize"):
            m.next(r, m.const(1, 5))

    def test_next_requires_register(self):
        m = Rtl("r")
        a = m.input("a", 4)
        with pytest.raises(SynthesisError, match="reg\\(\\)"):
            m.next(a, a)

    def test_init_value(self):
        m = Rtl("r")
        r = m.reg("r", 8, init=42)
        m.next(r, r)
        m.output("y", r)
        assert read_word(m.simulator().step({}), "y", 8) == 42

    def test_counter_via_dsl(self):
        m = Rtl("ctr")
        count = m.reg("count", 5)
        m.next(count, (count + m.const(1, 5)).resize(5))
        m.output("y", count)
        sim = m.simulator()
        values = [read_word(sim.step({}), "y", 5) for _ in range(40)]
        assert values == [i % 32 for i in range(40)]

    def test_synthesize_and_verilog(self):
        m = Rtl("mac")
        a, b = m.input("a", 8), m.input("b", 8)
        acc = m.reg("acc", 10)
        m.next(acc, (acc + (a + b).resize(10)).resize(10))
        m.output("total", acc)
        report = m.synthesize()
        assert report.ffs == 10
        assert report.luts > 5
        text = m.verilog()
        assert "always @(posedge clk)" in text


@settings(max_examples=40, deadline=None)
@given(
    x=st.integers(0, 255),
    y=st.integers(0, 255),
    sel=st.booleans(),
)
def test_datapath_property(x, y, sel):
    """A small ALU slice matches its Python semantics for any inputs."""
    m = Rtl("alu")
    a, b = m.input("a", 8), m.input("b", 8)
    s = m.input("s", 1)
    m.output("y", m.mux(s, (a + b)[0:8], a ^ b))
    out = m.simulator().step(
        {**drive_word("a", x, 8), **drive_word("b", y, 8), "s[0]": int(sel)}
    )
    expected = (x + y) % 256 if sel else x ^ y
    assert read_word(out, "y", 8) == expected
