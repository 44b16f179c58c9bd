"""Structural netlists: modules, instances and connections.

A :class:`Module` is a DAG of primitive instances. A connection
``a -> b`` means some output bits of instance ``a`` feed inputs of
instance ``b``; the timing pass walks these edges. Sequential primitives
(registers, block RAMs, counters, SRLs) cut combinational paths.

Ports model the module boundary; by convention (and as every generated IP in
this repository does) inputs and outputs are registered at the boundary, so
the critical path of a module is its worst register-to-register path.

What the flow derives from a primitive alone -- its part of the signature,
and per library its resource vector and STA delay -- is computed once per
distinct primitive in a process-wide memo, not once per instance of every
design: the committed router, FFT and FIR spaces hold 962,652 instances of
4,564 distinct primitives.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from ..core.errors import SynthesisError
from .area import Resources
from .library import TechLibrary
from .primitives import Primitive

__all__ = ["Instance", "Port", "Module", "Mapped"]

#: Distinct primitives the memo holds before it starts over (the committed
#: spaces need 4,564 together).
_MEMO_CAP = 8192
#: Libraries one memo record keeps mappings for before it starts over.
_LIBRARIES_PER_RECORD = 4


class Mapped(NamedTuple):
    """One primitive mapped onto a technology library."""

    sequential: bool
    resources: Resources
    #: Launch (clock-to-out) delay when sequential, else combinational delay.
    delay_ns: float


class _Record:
    """What the flow derives from one distinct primitive.

    ``fragment`` is the primitive's part of :meth:`Module.signature`'s byte
    stream. ``by_lib`` holds the primitive's :class:`Mapped` per library,
    keyed by ``id(lib)``. Each value holds its library, and a hit must be
    that very object: a pickled or copied record keeps ids that another
    library may own.
    """

    __slots__ = ("primitive", "fragment", "by_lib")

    def __init__(self, primitive: Primitive):
        self.primitive = primitive
        self.fragment = primitive.kind() + repr(sorted(primitive.describe().items()))
        self.by_lib: dict[int, tuple[TechLibrary, Mapped]] = {}

    def on(self, lib: TechLibrary) -> Mapped:
        """The primitive mapped onto ``lib``, computed on first use."""
        hit = self.by_lib.get(id(lib))
        if hit is not None and hit[0] is lib:
            return hit[1]
        primitive = self.primitive
        if primitive.sequential:
            clk_to_out = getattr(primitive, "clk_to_out_ns", None)
            delay = clk_to_out(lib) if clk_to_out else lib.ff_clk_to_q_ns
        else:
            delay = primitive.comb_delay_ns(lib)
        mapped = Mapped(primitive.sequential, primitive.resources(lib), delay)
        with _MEMO_LOCK:
            if len(self.by_lib) >= _LIBRARIES_PER_RECORD:
                self.by_lib.clear()
            self.by_lib[id(lib)] = (lib, mapped)
        return mapped


_MEMO: dict[tuple, _Record] = {}
#: Serializes inserts so the caps hold under the thread backend; lookups
#: take no lock, and two threads missing together both compute a record.
_MEMO_LOCK = threading.Lock()


def _memo_key(primitive: Primitive) -> tuple:
    """The primitive's class and field values, each value with its type.

    ``60``, ``60.0`` and ``True`` compare equal but write different
    signature bytes, so equality alone would alias them; ``0.0 == -0.0``
    likewise, so a float zero is keyed by its repr. Dataclasses set their
    fields in declaration order, so positions line up within a class.
    """
    cls = type(primitive)
    if cls is _Replicated:
        count = primitive.count
        return (cls, _memo_key(primitive.inner), count, type(count))
    key = [cls]
    for value in primitive.__dict__.values():
        kind = type(value)
        key.append(value)
        key.append(repr(value) if kind is float and not value else kind)
    return tuple(key)


def _record(primitive: Primitive) -> _Record:
    key = _memo_key(primitive)
    record = _MEMO.get(key)
    if record is None:
        record = _Record(primitive)
        with _MEMO_LOCK:
            if len(_MEMO) >= _MEMO_CAP:
                _MEMO.clear()
            _MEMO[key] = record
    return record


class Port:
    """A module boundary port."""

    __slots__ = ("name", "width", "direction")

    def __init__(self, name: str, width: int, direction: str):
        if direction not in ("in", "out"):
            raise SynthesisError(f"port direction must be 'in' or 'out', got {direction!r}")
        if width < 1:
            raise SynthesisError(f"port {name!r} must have positive width")
        self.name = name
        self.width = width
        self.direction = direction

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Port({self.name!r}, {self.width}, {self.direction!r})"


class Instance:
    """A named instantiation of a primitive inside a module."""

    __slots__ = ("name", "primitive")

    def __init__(self, name: str, primitive: Primitive):
        self.name = name
        self.primitive = primitive

    @property
    def sequential(self) -> bool:
        return self.primitive.sequential

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instance({self.name!r}, {self.primitive.kind()})"


class Module:
    """A flat netlist of primitive instances with dependency edges.

    Generators build modules with :meth:`add`, wire them with
    :meth:`connect`, and hand them to
    :class:`~repro.synth.flow.SynthesisFlow`.
    """

    def __init__(self, name: str):
        self.name = name
        self._instances: dict[str, Instance] = {}
        # An ordered set: the timing pass breaks exact ties by connect order.
        self._edges: dict[tuple[str, str], None] = {}
        self._ports: dict[str, Port] = {}
        # Each instance's memo record, in instance order; built on first
        # use and dropped by add().
        self._records: dict[str, _Record] | None = None

    # -- construction -------------------------------------------------------------

    def add(self, name: str, primitive: Primitive, replicate: int = 1) -> Instance:
        """Add an instance (``replicate`` collapses identical copies).

        Replication multiplies resources without duplicating timing nodes —
        e.g. "one FIFO per VC per port" adds one timing arc but N copies of
        area, matching how identical parallel structures synthesize.
        """
        if name in self._instances:
            raise SynthesisError(f"duplicate instance name {name!r} in module {self.name!r}")
        if replicate < 1:
            raise SynthesisError(f"replicate must be >= 1, got {replicate}")
        primitive = primitive if replicate == 1 else _Replicated(primitive, replicate)
        instance = Instance(name, primitive)
        self._instances[name] = instance
        self._records = None
        return instance

    def connect(self, src: str, dst: str) -> None:
        """Declare that outputs of ``src`` feed inputs of ``dst``."""
        for name in (src, dst):
            if name not in self._instances:
                raise SynthesisError(
                    f"connect({src!r}, {dst!r}): unknown instance {name!r}"
                )
        if src == dst:
            raise SynthesisError(f"self-loop on instance {src!r}")
        self._edges[src, dst] = None

    def chain(self, *names: str) -> None:
        """Connect a pipeline of instances in order."""
        for a, b in zip(names, names[1:]):
            self.connect(a, b)

    def add_port(self, name: str, width: int, direction: str) -> Port:
        """Declare a boundary port."""
        if name in self._ports:
            raise SynthesisError(f"duplicate port {name!r} in module {self.name!r}")
        port = Port(name, width, direction)
        self._ports[name] = port
        return port

    # -- access -------------------------------------------------------------------

    @property
    def instances(self) -> tuple[Instance, ...]:
        return tuple(self._instances.values())

    @property
    def ports(self) -> tuple[Port, ...]:
        return tuple(self._ports.values())

    def instance(self, name: str) -> Instance:
        try:
            return self._instances[name]
        except KeyError:
            raise SynthesisError(f"no instance {name!r} in module {self.name!r}") from None

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset(self._edges)

    def iter_edges(self) -> Iterator[tuple[str, str]]:
        """Edges in the order they were first connected."""
        return iter(self._edges)

    def predecessors(self, name: str) -> Iterator[str]:
        return (a for a, b in self._edges if b == name)

    def successors(self, name: str) -> Iterator[str]:
        return (b for a, b in self._edges if a == name)

    def __len__(self) -> int:
        return len(self._instances)

    # -- aggregation ---------------------------------------------------------------

    def _memo_records(self) -> dict[str, _Record]:
        records = self._records
        if records is None:
            records = self._records = {
                name: _record(inst.primitive) for name, inst in self._instances.items()
            }
        return records

    def mapped(self, lib: TechLibrary) -> dict[str, Mapped]:
        """Each instance's primitive mapped onto ``lib``, in instance order."""
        return {name: record.on(lib) for name, record in self._memo_records().items()}

    def resources(self, lib: TechLibrary) -> Resources:
        """Sum of all instance resource vectors (pre-packing-overhead)."""
        luts = ffs = brams = dsps = 0.0
        for record in self._memo_records().values():
            res = record.on(lib).resources
            luts += res.luts
            ffs += res.ffs
            brams += res.brams
            dsps += res.dsps
        return Resources(luts, ffs, brams, dsps)

    def signature(self) -> str:
        """Stable content hash used to seed deterministic CAD noise.

        The digest covers the module name, then each instance in name order
        (name, kind, sorted parameters), then each edge in sorted order. The
        committed datasets' noise depends on this exact byte stream. An
        instance's kind and sorted parameters come from the process-wide
        memo, written once per distinct primitive.
        """
        records = self._memo_records()
        parts = [self.name]
        for name in sorted(records):
            parts += (name, records[name].fragment)
        parts += map(repr, sorted(self._edges))
        return hashlib.sha256("".join(parts).encode()).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Module({self.name!r}, {len(self._instances)} instances, "
            f"{len(self._edges)} edges)"
        )


@dataclass(frozen=True)
class _Replicated(Primitive):
    """N identical copies of a primitive sharing one timing node."""

    inner: Primitive
    count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sequential", self.inner.sequential)

    def resources(self, lib: TechLibrary) -> Resources:
        return self.inner.resources(lib).scaled(self.count)

    def comb_delay_ns(self, lib: TechLibrary) -> float:
        return self.inner.comb_delay_ns(lib)

    def clk_to_out_ns(self, lib: TechLibrary) -> float:
        inner_clk = getattr(self.inner, "clk_to_out_ns", None)
        return inner_clk(lib) if inner_clk else 0.0

    def kind(self) -> str:
        return f"{self.inner.kind()}x{self.count}"

    def describe(self) -> dict:
        desc = dict(self.inner.describe())
        desc["replicate"] = self.count
        return desc
