"""Tests for module construction and content signatures."""

import pytest

from repro.core.errors import SynthesisError
from repro.synth import Adder, Module, Mux, Register, VIRTEX6
from repro.synth.netlist import _Replicated


def simple_module(name="m"):
    m = Module(name)
    m.add("in_reg", Register(8))
    m.add("add", Adder(8))
    m.add("out_reg", Register(8))
    m.chain("in_reg", "add", "out_reg")
    return m


class TestConstruction:
    def test_instances_and_edges(self):
        m = simple_module()
        assert len(m) == 3
        assert ("in_reg", "add") in m.edges
        assert list(m.successors("add")) == ["out_reg"]
        assert list(m.predecessors("add")) == ["in_reg"]

    def test_duplicate_instance_rejected(self):
        m = Module("m")
        m.add("x", Adder(4))
        with pytest.raises(SynthesisError, match="duplicate"):
            m.add("x", Adder(4))

    def test_connect_unknown_rejected(self):
        m = Module("m")
        m.add("x", Adder(4))
        with pytest.raises(SynthesisError, match="unknown instance"):
            m.connect("x", "ghost")

    def test_self_loop_rejected(self):
        m = Module("m")
        m.add("x", Adder(4))
        with pytest.raises(SynthesisError, match="self-loop"):
            m.connect("x", "x")

    def test_instance_lookup(self):
        m = simple_module()
        assert m.instance("add").primitive.kind() == "Adder"
        with pytest.raises(SynthesisError):
            m.instance("nope")

    def test_ports(self):
        m = Module("m")
        m.add_port("din", 32, "in")
        m.add_port("dout", 32, "out")
        assert len(m.ports) == 2
        with pytest.raises(SynthesisError, match="duplicate port"):
            m.add_port("din", 8, "in")
        with pytest.raises(SynthesisError):
            m.add_port("x", 8, "sideways")
        with pytest.raises(SynthesisError):
            m.add_port("y", 0, "in")


class TestReplication:
    def test_replicate_scales_resources(self):
        m = Module("m")
        m.add("adders", Adder(8), replicate=5)
        assert m.resources(VIRTEX6).luts == 40

    def test_replicate_single_timing_node(self):
        # Replication multiplies area but keeps one timing node: the delay
        # through "adders" equals one adder, not five.
        m = Module("m")
        m.add("adders", Adder(8), replicate=5)
        inst = m.instance("adders")
        assert inst.primitive.comb_delay_ns(VIRTEX6) == Adder(8).comb_delay_ns(VIRTEX6)
        assert inst.primitive.kind() == "Adderx5"

    def test_replicate_validation(self):
        m = Module("m")
        with pytest.raises(SynthesisError):
            m.add("x", Adder(8), replicate=0)

    def test_replicated_sequential_flag(self):
        m = Module("m")
        m.add("regs", Register(8), replicate=3)
        assert m.instance("regs").sequential

    def test_replicated_equality_covers_inner_and_count(self):
        a, b = _Replicated(Adder(8), 2), _Replicated(Adder(16), 7)
        assert a != b and _Replicated(Adder(8), 3) != a
        assert len({a, b, _Replicated(Adder(8), 2)}) == 2
        assert a == _Replicated(Adder(8), 2)
        assert "Adder(" in repr(a) and "count=2" in repr(a)


class TestSignature:
    def test_stable(self):
        assert simple_module().signature() == simple_module().signature()

    def test_differs_by_parameter(self):
        a = simple_module()
        b = Module("m")
        b.add("in_reg", Register(8))
        b.add("add", Adder(16))  # wider adder
        b.add("out_reg", Register(8))
        b.chain("in_reg", "add", "out_reg")
        assert a.signature() != b.signature()

    def test_differs_by_name(self):
        assert simple_module("a").signature() != simple_module("b").signature()

    def test_differs_by_wiring(self):
        a = simple_module()
        b = Module("m")
        b.add("in_reg", Register(8))
        b.add("add", Adder(8))
        b.add("out_reg", Register(8))
        b.connect("in_reg", "add")
        # no add -> out_reg edge
        assert a.signature() != b.signature()

    def test_insertion_order_irrelevant(self):
        a = Module("m")
        a.add("x", Adder(8))
        a.add("y", Mux(8, 2))
        b = Module("m")
        b.add("y", Mux(8, 2))
        b.add("x", Adder(8))
        assert a.signature() == b.signature()
