"""Bit-level gate networks — the synthesis flow's gate-level path.

The primitive-level flow (:mod:`repro.synth.flow`) prices RTL blocks with
closed-form mapping rules, which is what makes 30k-design characterization
runs take seconds. This module provides the ground-truth path those rules
abstract: real gate networks that can be **built** (word-level helper
builders), **optimized** (constant folding, double-negation removal,
structural hashing, dead-code elimination), **simulated** (cycle-free
bit-parallel evaluation over test vectors) and **technology mapped** to
LUT-k (:mod:`repro.synth.lutmap`). Tests use it to validate the closed-form
formulas on small instances; examples use it to show real netlists.

Representation: a DAG of single-output nodes (PIs, constants, AND/OR/XOR/
NOT/MUX gates). Structural hashing is applied at construction, so building
the "same" gate twice returns the same node — the classic strash.
"""

from __future__ import annotations

from typing import Sequence

from ..core.errors import SynthesisError

__all__ = ["Gate", "GateNetwork", "SequentialSimulator"]

#: Supported gate operations and their arities.
_ARITY = {
    "AND": 2,
    "OR": 2,
    "XOR": 2,
    "NOT": 1,
    "MUX": 3,
    "PI": 0,
    "CONST": 0,
    "DFF": 1,
}


class Gate:
    """One node of a gate network (immutable once created)."""

    __slots__ = ("op", "fanins", "uid", "name", "value")

    def __init__(
        self,
        op: str,
        fanins: tuple["Gate", ...],
        uid: int,
        name: str = "",
        value: bool | None = None,
    ):
        self.op = op
        self.fanins = fanins
        self.uid = uid
        self.name = name
        #: Constant value for CONST nodes.
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.op == "PI":
            return f"PI({self.name})"
        if self.op == "CONST":
            return f"CONST({int(bool(self.value))})"
        return f"{self.op}#{self.uid}"


class GateNetwork:
    """A structurally-hashed combinational gate network.

    Build with :meth:`pi`, :meth:`const` and the gate constructors; declare
    outputs with :meth:`po`. Word-level helpers (:meth:`word`,
    :meth:`add_words`, :meth:`mux_words`, ...) build the arithmetic used by
    the tests that validate the closed-form primitive models.
    """

    def __init__(self, name: str = "gates"):
        self.name = name
        self._nodes: list[Gate] = []
        self._strash: dict[tuple, Gate] = {}
        self._pos: list[tuple[str, Gate]] = []
        self._zero = self._raw("CONST", (), value=False)
        self._one = self._raw("CONST", (), value=True)

    # -- construction -------------------------------------------------------------

    def _raw(self, op: str, fanins: tuple[Gate, ...], name: str = "",
             value: bool | None = None) -> Gate:
        gate = Gate(op, fanins, uid=len(self._nodes), name=name, value=value)
        self._nodes.append(gate)
        return gate

    def pi(self, name: str) -> Gate:
        """Declare a primary input bit."""
        return self._raw("PI", (), name=name)

    def const(self, value: bool) -> Gate:
        """The constant 0 or 1 node (shared)."""
        return self._one if value else self._zero

    def po(self, name: str, gate: Gate) -> None:
        """Declare a primary output bit."""
        self._pos.append((name, gate))

    # -- sequential elements ---------------------------------------------------

    def dff(self, name: str = "", init: bool = False) -> Gate:
        """Declare a D flip-flop; wire its input later with :meth:`drive`.

        Created undriven so feedback loops (counters, FSMs) can be built:
        create the DFF, use its output, then drive its input.
        """
        gate = self._raw("DFF", (), name=name, value=init)
        return gate

    def drive(self, dff: Gate, d: Gate) -> None:
        """Connect a DFF's data input."""
        if dff.op != "DFF":
            raise SynthesisError("drive() expects a DFF gate")
        if dff.fanins:
            raise SynthesisError(f"DFF {dff.name or dff.uid} is already driven")
        dff.fanins = (d,)

    def dffs(self) -> tuple[Gate, ...]:
        """All flip-flops, whether or not reachable from an output."""
        return tuple(g for g in self._nodes if g.op == "DFF")

    def _gate(self, op: str, *fanins: Gate) -> Gate:
        if len(fanins) != _ARITY[op]:
            raise SynthesisError(f"{op} takes {_ARITY[op]} fanins, got {len(fanins)}")
        simplified = self._simplify(op, fanins)
        if simplified is not None:
            return simplified
        # Structural hashing: commutative ops canonicalize fanin order.
        key_fanins = tuple(sorted(g.uid for g in fanins)) if op in (
            "AND", "OR", "XOR"
        ) else tuple(g.uid for g in fanins)
        key = (op, key_fanins)
        cached = self._strash.get(key)
        if cached is not None:
            return cached
        gate = self._raw(op, fanins)
        self._strash[key] = gate
        return gate

    # -- local simplification at construction time -----------------------------------

    def _simplify(self, op: str, fanins: tuple[Gate, ...]) -> Gate | None:
        a = fanins[0]
        b = fanins[1] if len(fanins) > 1 else None
        if op == "NOT":
            if a.op == "CONST":
                return self.const(not a.value)
            if a.op == "NOT":
                return a.fanins[0]  # double negation
            return None
        if op == "AND":
            if a.op == "CONST":
                return b if a.value else self._zero
            if b.op == "CONST":
                return a if b.value else self._zero
            if a is b:
                return a
            return None
        if op == "OR":
            if a.op == "CONST":
                return self._one if a.value else b
            if b.op == "CONST":
                return self._one if b.value else a
            if a is b:
                return a
            return None
        if op == "XOR":
            if a.op == "CONST":
                return self.NOT(b) if a.value else b
            if b.op == "CONST":
                return self.NOT(a) if b.value else a
            if a is b:
                return self._zero
            return None
        if op == "MUX":
            select, then, otherwise = fanins
            if select.op == "CONST":
                return then if select.value else otherwise
            if then is otherwise:
                return then
            return None
        return None

    # -- gate constructors ---------------------------------------------------------

    def AND(self, a: Gate, b: Gate) -> Gate:
        return self._gate("AND", a, b)

    def OR(self, a: Gate, b: Gate) -> Gate:
        return self._gate("OR", a, b)

    def XOR(self, a: Gate, b: Gate) -> Gate:
        return self._gate("XOR", a, b)

    def NOT(self, a: Gate) -> Gate:
        return self._gate("NOT", a)

    def MUX(self, select: Gate, then: Gate, otherwise: Gate) -> Gate:
        """2:1 mux: ``then`` when select is 1, else ``otherwise``."""
        return self._gate("MUX", select, then, otherwise)

    # -- word-level helpers ----------------------------------------------------------

    def word(self, name: str, width: int) -> list[Gate]:
        """Declare a little-endian input word (bit 0 = LSB)."""
        return [self.pi(f"{name}[{i}]") for i in range(width)]

    def po_word(self, name: str, bits: Sequence[Gate]) -> None:
        """Declare a word of outputs."""
        for i, bit in enumerate(bits):
            self.po(f"{name}[{i}]", bit)

    def add_words(
        self, a: Sequence[Gate], b: Sequence[Gate], carry_in: Gate | None = None
    ) -> list[Gate]:
        """Ripple-carry addition; returns width+1 bits (carry out last)."""
        if len(a) != len(b):
            raise SynthesisError("add_words needs equal widths")
        carry = carry_in if carry_in is not None else self.const(False)
        out: list[Gate] = []
        for bit_a, bit_b in zip(a, b):
            partial = self.XOR(bit_a, bit_b)
            out.append(self.XOR(partial, carry))
            carry = self.OR(self.AND(bit_a, bit_b), self.AND(partial, carry))
        out.append(carry)
        return out

    def mux_words(
        self, select: Gate, then: Sequence[Gate], otherwise: Sequence[Gate]
    ) -> list[Gate]:
        """Word-level 2:1 mux."""
        if len(then) != len(otherwise):
            raise SynthesisError("mux_words needs equal widths")
        return [self.MUX(select, t, o) for t, o in zip(then, otherwise)]

    def mux_tree(
        self, selects: Sequence[Gate], words: Sequence[Sequence[Gate]]
    ) -> list[Gate]:
        """N:1 word mux from log2(N) select bits (binary select)."""
        if len(words) == 1:
            return list(words[0])
        if 2 ** len(selects) < len(words):
            raise SynthesisError("not enough select bits for mux_tree")
        half = (len(words) + 1) // 2
        low = self.mux_tree(selects[:-1], words[:half]) if half > 1 else list(words[0])
        if len(words) > half:
            rest = words[half:]
            high = (
                self.mux_tree(selects[:-1], rest) if len(rest) > 1 else list(rest[0])
            )
        else:
            high = low
        return self.mux_words(selects[-1], high, low)

    # -- access ---------------------------------------------------------------------

    @property
    def outputs(self) -> tuple[tuple[str, Gate], ...]:
        return tuple(self._pos)

    @property
    def inputs(self) -> tuple[Gate, ...]:
        return tuple(g for g in self._nodes if g.op == "PI")

    def live_nodes(self) -> list[Gate]:
        """Nodes reachable from an output, in combinational topo order.

        DFF outputs act as sources (like PIs) and their data inputs as
        extra roots, so feedback through registers is legal; a DFF appears
        in the order *before* its input cone, mirroring launch semantics.
        """
        seen: set[int] = set()
        order: list[Gate] = []
        roots: list[Gate] = [gate for __, gate in self._pos]
        root_index = 0

        def visit(gate: Gate) -> None:
            stack = [(gate, False)]
            while stack:
                node, expanded = stack.pop()
                if node.uid in seen and not expanded:
                    continue
                if expanded:
                    order.append(node)
                    continue
                seen.add(node.uid)
                if node.op == "DFF":
                    # Source for combinational purposes; its input cone is
                    # scheduled as a separate root.
                    order.append(node)
                    for fanin in node.fanins:
                        roots.append(fanin)
                    continue
                stack.append((node, True))
                for fanin in node.fanins:
                    if fanin.uid not in seen:
                        stack.append((fanin, False))

        while root_index < len(roots):
            visit(roots[root_index])
            root_index += 1
        return order

    def gate_count(self) -> int:
        """Live two-input-equivalent gate count (PIs/consts/DFFs excluded)."""
        return sum(
            1 for g in self.live_nodes() if g.op not in ("PI", "CONST", "DFF")
        )

    def depth(self) -> int:
        """Longest PI-to-PO path in gates."""
        level: dict[int, int] = {}
        for gate in self.live_nodes():
            if gate.op in ("PI", "CONST", "DFF"):
                level[gate.uid] = 0
            else:
                level[gate.uid] = 1 + max(
                    (level[f.uid] for f in gate.fanins), default=0
                )
        endpoints = [level[g.uid] for __, g in self._pos]
        endpoints += [
            level[f.uid] for g in self.live_nodes() if g.op == "DFF"
            for f in g.fanins
        ]
        return max(endpoints, default=0)

    # -- simulation -------------------------------------------------------------------

    def simulate(self, assignment: dict[str, int]) -> dict[str, int]:
        """Evaluate outputs for one input assignment (PI name -> 0/1).

        Uses Python ints as bit-parallel words, so callers may pack up to 63
        test vectors per call by passing multi-bit integers.
        """
        values: dict[int, int] = {}
        mask = ~0
        for gate in self.live_nodes():
            if gate.op == "DFF":
                raise SynthesisError(
                    "network has flip-flops; use SequentialSimulator"
                )
            if gate.op == "PI":
                try:
                    values[gate.uid] = assignment[gate.name]
                except KeyError:
                    raise SynthesisError(f"no value for input {gate.name!r}") from None
            elif gate.op == "CONST":
                values[gate.uid] = mask if gate.value else 0
            elif gate.op == "AND":
                values[gate.uid] = values[gate.fanins[0].uid] & values[gate.fanins[1].uid]
            elif gate.op == "OR":
                values[gate.uid] = values[gate.fanins[0].uid] | values[gate.fanins[1].uid]
            elif gate.op == "XOR":
                values[gate.uid] = values[gate.fanins[0].uid] ^ values[gate.fanins[1].uid]
            elif gate.op == "NOT":
                values[gate.uid] = ~values[gate.fanins[0].uid]
            elif gate.op == "MUX":
                select, then, otherwise = (values[f.uid] for f in gate.fanins)
                values[gate.uid] = (select & then) | (~select & otherwise)
        return {name: values[gate.uid] for name, gate in self._pos}

    def simulate_word(self, words: dict[str, int], widths: dict[str, int]) -> dict[str, int]:
        """Evaluate with word-level inputs (name -> integer value)."""
        assignment: dict[str, int] = {}
        for name, width in widths.items():
            value = words[name]
            for i in range(width):
                assignment[f"{name}[{i}]"] = (value >> i) & 1
        bit_results = self.simulate(assignment)
        outputs: dict[str, int] = {}
        for bit_name, bit_value in bit_results.items():
            if "[" in bit_name:
                word, index = bit_name[:-1].split("[")
                outputs[word] = outputs.get(word, 0) | ((bit_value & 1) << int(index))
            else:
                outputs[bit_name] = bit_value & 1
        return outputs

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GateNetwork({self.name!r}, {self.gate_count()} live gates, "
            f"depth {self.depth()})"
        )


class SequentialSimulator:
    """Cycle-by-cycle evaluation of a gate network with flip-flops.

    State is held per DFF (initialized from each DFF's ``init`` value);
    :meth:`step` evaluates the combinational logic with the current state,
    returns the outputs, and commits the next state — standard two-phase
    synchronous semantics, so feedback loops behave like real registers.
    """

    def __init__(self, network: GateNetwork):
        self.network = network
        self._order = network.live_nodes()
        self._dffs = [g for g in self._order if g.op == "DFF"]
        for dff in self._dffs:
            if not dff.fanins:
                raise SynthesisError(
                    f"DFF {dff.name or dff.uid} was never driven"
                )
        self.state: dict[int, int] = {
            dff.uid: (1 if dff.value else 0) for dff in self._dffs
        }
        self.cycle = 0

    def reset(self) -> None:
        """Restore all registers to their init values."""
        for dff in self._dffs:
            self.state[dff.uid] = 1 if dff.value else 0
        self.cycle = 0

    def step(self, assignment: dict[str, int]) -> dict[str, int]:
        """Advance one clock cycle; returns the PO values *before* the edge."""
        values: dict[int, int] = {}
        for gate in self._order:
            if gate.op == "DFF":
                values[gate.uid] = self.state[gate.uid]
            elif gate.op == "PI":
                try:
                    values[gate.uid] = assignment[gate.name] & 1
                except KeyError:
                    raise SynthesisError(
                        f"no value for input {gate.name!r}"
                    ) from None
            elif gate.op == "CONST":
                values[gate.uid] = 1 if gate.value else 0
            elif gate.op == "AND":
                values[gate.uid] = (
                    values[gate.fanins[0].uid] & values[gate.fanins[1].uid]
                )
            elif gate.op == "OR":
                values[gate.uid] = (
                    values[gate.fanins[0].uid] | values[gate.fanins[1].uid]
                )
            elif gate.op == "XOR":
                values[gate.uid] = (
                    values[gate.fanins[0].uid] ^ values[gate.fanins[1].uid]
                )
            elif gate.op == "NOT":
                values[gate.uid] = 1 - values[gate.fanins[0].uid]
            elif gate.op == "MUX":
                select, then, otherwise = (
                    values[f.uid] for f in gate.fanins
                )
                values[gate.uid] = then if select else otherwise
        outputs = {
            name: values[gate.uid] for name, gate in self.network.outputs
        }
        for dff in self._dffs:
            self.state[dff.uid] = values[dff.fanins[0].uid]
        self.cycle += 1
        return outputs

    def run(self, traces: dict[str, list[int]], cycles: int) -> dict[str, list[int]]:
        """Drive per-cycle input traces and collect per-cycle outputs."""
        collected: dict[str, list[int]] = {
            name: [] for name, __ in self.network.outputs
        }
        for cycle in range(cycles):
            assignment = {
                name: trace[cycle % len(trace)] for name, trace in traces.items()
            }
            outputs = self.step(assignment)
            for name, value in outputs.items():
                collected[name].append(value)
        return collected
