"""A small word-level RTL DSL over :class:`~repro.synth.gates.GateNetwork`.

Gate networks are the honest representation, but nobody wants to write a
datapath one bit at a time. :class:`Rtl` provides signals with operator
overloading — ``a + b``, ``a ^ b``, ``~a``, ``a.eq(b)``, ``mux(sel, t, e)``,
slicing, concatenation, registers with next-state assignment — that
elaborate directly into the structurally-hashed gate network underneath.
Everything stays synthesizable: the result simulates with
:class:`~repro.synth.gates.SequentialSimulator`, maps with
:func:`~repro.synth.lutmap.map_to_luts`, and reports through
:func:`~repro.synth.lutmap.synthesize_gates`.

Width semantics are deliberately explicit (no silent truncation): addition
grows by one bit, operands of bitwise operators must match widths, and
:meth:`Signal.resize` is the only way to change a width.
"""

from __future__ import annotations

from typing import Sequence

from ..core.errors import SynthesisError
from .gates import Gate, GateNetwork

__all__ = ["Signal", "Rtl"]


class Signal:
    """A little-endian word of gate-network bits (bit 0 = LSB)."""

    __slots__ = ("rtl", "bits")

    def __init__(self, rtl: "Rtl", bits: Sequence[Gate]):
        if not bits:
            raise SynthesisError("signals must have at least one bit")
        self.rtl = rtl
        self.bits = tuple(bits)

    # -- structure ---------------------------------------------------------------

    @property
    def width(self) -> int:
        return len(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, index) -> "Signal":
        """Bit-select or slice (always returns a Signal)."""
        if isinstance(index, slice):
            bits = self.bits[index]
            if not bits:
                raise SynthesisError("empty slice of a signal")
            return Signal(self.rtl, bits)
        return Signal(self.rtl, (self.bits[index],))

    def resize(self, width: int) -> "Signal":
        """Zero-extend or truncate to ``width`` bits (explicitly)."""
        if width < 1:
            raise SynthesisError("width must be >= 1")
        g = self.rtl.network
        if width <= self.width:
            return Signal(self.rtl, self.bits[:width])
        pad = (g.const(False),) * (width - self.width)
        return Signal(self.rtl, self.bits + pad)

    # -- helpers -----------------------------------------------------------------

    def _check_partner(self, other: "Signal") -> "Signal":
        if not isinstance(other, Signal):
            raise SynthesisError(
                f"expected a Signal, got {type(other).__name__}; wrap "
                "constants with Rtl.const()"
            )
        if other.width != self.width:
            raise SynthesisError(
                f"width mismatch: {self.width} vs {other.width}; use resize()"
            )
        return other

    # -- bitwise ------------------------------------------------------------------

    def __and__(self, other: "Signal") -> "Signal":
        other = self._check_partner(other)
        g = self.rtl.network
        return Signal(self.rtl, [g.AND(a, b) for a, b in zip(self.bits, other.bits)])

    def __or__(self, other: "Signal") -> "Signal":
        other = self._check_partner(other)
        g = self.rtl.network
        return Signal(self.rtl, [g.OR(a, b) for a, b in zip(self.bits, other.bits)])

    def __xor__(self, other: "Signal") -> "Signal":
        other = self._check_partner(other)
        g = self.rtl.network
        return Signal(self.rtl, [g.XOR(a, b) for a, b in zip(self.bits, other.bits)])

    def __invert__(self) -> "Signal":
        g = self.rtl.network
        return Signal(self.rtl, [g.NOT(a) for a in self.bits])

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: "Signal") -> "Signal":
        """Unsigned addition; result is one bit wider (no overflow loss)."""
        other = self._check_partner(other)
        g = self.rtl.network
        return Signal(self.rtl, g.add_words(self.bits, other.bits))

    def __sub__(self, other: "Signal") -> "Signal":
        """Unsigned subtraction (two's complement); result width + 1.

        The extra top bit is the *borrow-free* flag: 1 when self >= other.
        """
        other = self._check_partner(other)
        g = self.rtl.network
        negated = [g.NOT(b) for b in other.bits]
        return Signal(
            self.rtl, g.add_words(self.bits, negated, carry_in=g.const(True))
        )

    def __lshift__(self, amount: int) -> "Signal":
        """Constant left shift (grows the width)."""
        g = self.rtl.network
        return Signal(self.rtl, (g.const(False),) * amount + self.bits)

    def __rshift__(self, amount: int) -> "Signal":
        """Constant right shift (drops low bits, keeps width >= 1)."""
        bits = self.bits[amount:] or (self.rtl.network.const(False),)
        return Signal(self.rtl, bits)

    # -- comparisons ----------------------------------------------------------------

    def eq(self, other: "Signal") -> "Signal":
        """1-bit equality."""
        other = self._check_partner(other)
        g = self.rtl.network
        matches = [g.NOT(g.XOR(a, b)) for a, b in zip(self.bits, other.bits)]
        result = matches[0]
        for match in matches[1:]:
            result = g.AND(result, match)
        return Signal(self.rtl, (result,))

    def ge(self, other: "Signal") -> "Signal":
        """1-bit unsigned greater-or-equal (borrow-free bit of subtraction)."""
        difference = self - other
        return Signal(self.rtl, (difference.bits[-1],))

    # -- reductions ------------------------------------------------------------------

    def any(self) -> "Signal":
        """1-bit OR-reduction."""
        g = self.rtl.network
        result = self.bits[0]
        for bit in self.bits[1:]:
            result = g.OR(result, bit)
        return Signal(self.rtl, (result,))

    def all(self) -> "Signal":
        """1-bit AND-reduction."""
        g = self.rtl.network
        result = self.bits[0]
        for bit in self.bits[1:]:
            result = g.AND(result, bit)
        return Signal(self.rtl, (result,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.width} bits)"


class Rtl:
    """A word-level design under construction.

    Typical flow::

        m = Rtl("mac")
        a, b = m.input("a", 8), m.input("b", 8)
        acc = m.reg("acc", 20)
        m.next(acc, (acc + (a + b).resize(20)).resize(20))
        m.output("total", acc)
        report = m.synthesize()
    """

    def __init__(self, name: str = "rtl"):
        self.network = GateNetwork(name)
        self._regs: dict[int, Signal] = {}
        self._next_assigned: set[int] = set()

    # -- declarations --------------------------------------------------------------

    def input(self, name: str, width: int) -> Signal:
        """Declare an input word."""
        return Signal(self, self.network.word(name, width))

    def const(self, value: int, width: int) -> Signal:
        """An unsigned constant of the given width."""
        if value < 0 or value >= (1 << width):
            raise SynthesisError(
                f"constant {value} does not fit in {width} bits"
            )
        g = self.network
        return Signal(
            self, [g.const(bool((value >> i) & 1)) for i in range(width)]
        )

    def reg(self, name: str, width: int, init: int = 0) -> Signal:
        """Declare a register word (drive it with :meth:`next`)."""
        if init < 0 or init >= (1 << width):
            raise SynthesisError(f"init {init} does not fit in {width} bits")
        g = self.network
        bits = [
            g.dff(f"{name}[{i}]", init=bool((init >> i) & 1))
            for i in range(width)
        ]
        signal = Signal(self, bits)
        self._regs[id(signal)] = signal
        return signal

    def next(self, register: Signal, value: Signal) -> None:
        """Assign a register's next-cycle value (exactly once)."""
        if id(register) not in self._regs:
            raise SynthesisError("next() target must come from reg()")
        if id(register) in self._next_assigned:
            raise SynthesisError("register already has a next-state assignment")
        if value.width != register.width:
            raise SynthesisError(
                f"next-state width {value.width} != register width "
                f"{register.width}; use resize()"
            )
        for dff, bit in zip(register.bits, value.bits):
            self.network.drive(dff, bit)
        self._next_assigned.add(id(register))

    def output(self, name: str, signal: Signal) -> None:
        """Declare an output word."""
        self.network.po_word(name, signal.bits)

    # -- combinators -----------------------------------------------------------------

    def mux(self, select: Signal, then: Signal, otherwise: Signal) -> Signal:
        """Word-level 2:1 mux on a 1-bit select."""
        if select.width != 1:
            raise SynthesisError("mux select must be 1 bit")
        if then.width != otherwise.width:
            raise SynthesisError("mux arm widths must match")
        g = self.network
        return Signal(
            self,
            [
                g.MUX(select.bits[0], t, o)
                for t, o in zip(then.bits, otherwise.bits)
            ],
        )

    # -- products --------------------------------------------------------------------

    def synthesize(self, k: int = 6):
        """Map and report (see :func:`~repro.synth.lutmap.synthesize_gates`)."""
        from .lutmap import synthesize_gates

        return synthesize_gates(self.network, k=k)

    def simulator(self):
        """A cycle simulator over the elaborated network."""
        from .gates import SequentialSimulator

        return SequentialSimulator(self.network)

    def verilog(self) -> str:
        """Flat gate-level Verilog of the elaborated network."""
        from .verilog import emit_gate_verilog

        return emit_gate_verilog(self.network)
