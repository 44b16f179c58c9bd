"""Network topologies for the CONNECT-style NoC generator (Figure 2).

Eight topology families, matching the legend of the paper's Figure 2:
ring, double ring, concentrated ring, concentrated double ring, mesh,
torus, fat tree and butterfly — all instantiated for 64 endpoints.

A :class:`Topology` is a concrete graph of routers and channels plus the
derived quantities the network model needs: per-router radix, channel
lengths under a simple floorplan, bisection channel count and average hop
count. Graphs are built with :mod:`networkx` so tests can independently
verify structural properties (degree, connectivity, cut widths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.errors import NautilusError

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

__all__ = [
    "Channel",
    "Topology",
    "TOPOLOGY_FAMILIES",
    "build_topology",
    "ring",
    "double_ring",
    "concentrated_ring",
    "concentrated_double_ring",
    "mesh",
    "torus",
    "fat_tree",
    "butterfly",
]


@dataclass(frozen=True)
class Channel:
    """A (bidirectional) inter-router channel with a physical length."""

    src: str
    dst: str
    length_mm: float


@dataclass(frozen=True)
class Topology:
    """A concrete network topology instance.

    Attributes:
        name: Family name (Figure 2 legend entry).
        endpoints: Number of network endpoints served.
        graph: Router-level connectivity graph (endpoints excluded).
        channels: Inter-router channels with floorplan lengths.
        router_radix: Ports per router (network ports + endpoint ports).
        concentration: Endpoints attached per router.
        bisection_channels: Channels crossing the canonical bisection,
            counted per direction.
        avg_hops: Average router-to-router hop count under uniform traffic
            (closed-form per family).
    """

    name: str
    endpoints: int
    graph: nx.Graph = field(compare=False, repr=False)
    channels: tuple[Channel, ...] = field(compare=False, repr=False)
    router_radix: int
    concentration: int
    bisection_channels: int
    avg_hops: float

    @property
    def num_routers(self) -> int:
        return self.graph.number_of_nodes()

    def total_channel_length_mm(self) -> float:
        """Sum of channel lengths, both directions counted once."""
        return sum(ch.length_mm for ch in self.channels)


#: Die edge assumed for the floorplan model (a 64-endpoint 65nm SoC region).
_DIE_MM = 8.0


def _ring_positions(n: int) -> list[tuple[float, float]]:
    """Place n routers around the die perimeter."""
    radius = _DIE_MM / 2.0
    return [
        (
            radius + radius * math.cos(2 * math.pi * i / n),
            radius + radius * math.sin(2 * math.pi * i / n),
        )
        for i in range(n)
    ]


def _grid_positions(rows: int, cols: int) -> dict[tuple[int, int], tuple[float, float]]:
    """Place a rows x cols grid evenly over the die."""
    dx = _DIE_MM / max(cols - 1, 1)
    dy = _DIE_MM / max(rows - 1, 1)
    return {(r, c): (c * dx, r * dy) for r in range(rows) for c in range(cols)}


def _distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _edges_to_channels(
    graph: nx.Graph, positions: dict[str, tuple[float, float]]
) -> tuple[Channel, ...]:
    return tuple(
        Channel(u, v, max(_distance(positions[u], positions[v]), 0.1))
        for u, v in sorted(graph.edges())
    )


def _ring_family(
    endpoints: int, concentration: int, lanes: int, name: str
) -> Topology:
    """Shared builder for the four ring variants.

    ``lanes`` is 1 for single rings, 2 for double rings (an extra pair of
    ring links per neighbor, modeled as parallel channels).
    """
    import networkx as nx

    num_routers = endpoints // concentration
    graph = nx.MultiGraph() if lanes > 1 else nx.Graph()
    nodes = [f"r{i}" for i in range(num_routers)]
    graph.add_nodes_from(nodes)
    coords = _ring_positions(num_routers)
    positions = dict(zip(nodes, coords))
    channels = []
    for i in range(num_routers):
        u, v = nodes[i], nodes[(i + 1) % num_routers]
        for _ in range(lanes):
            graph.add_edge(u, v)
            channels.append(Channel(u, v, max(_distance(positions[u], positions[v]), 0.1)))
    radix = 2 * lanes + concentration
    # Uniform-traffic average ring distance ~ n/4 hops.
    avg_hops = num_routers / 4.0
    return Topology(
        name=name,
        endpoints=endpoints,
        graph=graph,
        channels=tuple(channels),
        router_radix=radix,
        concentration=concentration,
        bisection_channels=2 * lanes,
        avg_hops=avg_hops,
    )


def ring(endpoints: int = 64) -> Topology:
    """Simple ring: one router per endpoint."""
    return _ring_family(endpoints, 1, 1, "ring")


def double_ring(endpoints: int = 64) -> Topology:
    """Ring with doubled channels (two lanes per neighbor)."""
    return _ring_family(endpoints, 1, 2, "double_ring")


def concentrated_ring(endpoints: int = 64, concentration: int = 4) -> Topology:
    """Ring of ``endpoints/concentration`` routers, several endpoints each."""
    return _ring_family(endpoints, concentration, 1, "concentrated_ring")


def concentrated_double_ring(endpoints: int = 64, concentration: int = 4) -> Topology:
    """Concentrated ring with doubled channels."""
    return _ring_family(endpoints, concentration, 2, "concentrated_double_ring")


def mesh(endpoints: int = 64) -> Topology:
    """2D mesh, one endpoint per router."""
    import networkx as nx

    side = int(math.isqrt(endpoints))
    if side * side != endpoints:
        raise NautilusError(f"mesh needs a square endpoint count, got {endpoints}")
    graph = nx.Graph()
    grid = _grid_positions(side, side)
    positions = {}
    for r in range(side):
        for c in range(side):
            name = f"r{r}_{c}"
            graph.add_node(name)
            positions[name] = grid[(r, c)]
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                graph.add_edge(f"r{r}_{c}", f"r{r}_{c + 1}")
            if r + 1 < side:
                graph.add_edge(f"r{r}_{c}", f"r{r + 1}_{c}")
    channels = _edges_to_channels(graph, positions)
    # Average Manhattan distance on a side x side grid is ~2/3 * side.
    avg_hops = 2.0 * side / 3.0
    return Topology(
        name="mesh",
        endpoints=endpoints,
        graph=graph,
        channels=channels,
        router_radix=5,
        concentration=1,
        bisection_channels=side,
        avg_hops=avg_hops,
    )


def torus(endpoints: int = 64) -> Topology:
    """2D folded torus: mesh plus wraparound links."""
    side = int(math.isqrt(endpoints))
    if side * side != endpoints:
        raise NautilusError(f"torus needs a square endpoint count, got {endpoints}")
    base = mesh(endpoints)
    graph = base.graph.copy()
    positions = {}
    grid = _grid_positions(side, side)
    for r in range(side):
        for c in range(side):
            positions[f"r{r}_{c}"] = grid[(r, c)]
    wrap_channels = list(base.channels)
    for r in range(side):
        u, v = f"r{r}_0", f"r{r}_{side - 1}"
        graph.add_edge(u, v)
        # Folded torus wraparounds route across the die in segments.
        wrap_channels.append(Channel(u, v, _DIE_MM))
    for c in range(side):
        u, v = f"r0_{c}", f"r{side - 1}_{c}"
        graph.add_edge(u, v)
        wrap_channels.append(Channel(u, v, _DIE_MM))
    avg_hops = side / 2.0
    return Topology(
        name="torus",
        endpoints=endpoints,
        graph=graph,
        channels=tuple(wrap_channels),
        router_radix=5,
        concentration=1,
        bisection_channels=2 * side,
        avg_hops=avg_hops,
    )


def fat_tree(endpoints: int = 64, arity: int = 4) -> Topology:
    """k-ary n-tree (here 4-ary 3-tree for 64 endpoints).

    Full bisection bandwidth: every level has ``endpoints/arity`` switches
    of radix ``2 * arity``.
    """
    levels = round(math.log(endpoints, arity))
    if arity**levels != endpoints:
        raise NautilusError(
            f"fat tree needs endpoints to be a power of arity; "
            f"got {endpoints} with arity {arity}"
        )
    import networkx as nx

    per_level = endpoints // arity
    graph = nx.MultiGraph()
    positions = {}
    for level in range(levels):
        for s in range(per_level):
            name = f"l{level}_s{s}"
            graph.add_node(name)
            positions[name] = (
                s * _DIE_MM / max(per_level - 1, 1),
                level * _DIE_MM / max(levels - 1, 1),
            )
    channels = []
    for level in range(levels - 1):
        group = arity ** (level + 1)
        for s in range(per_level):
            block = s // group * group
            for a in range(arity):
                upper = block + (s + a * group // arity) % group
                u, v = f"l{level}_s{s}", f"l{level + 1}_s{upper % per_level}"
                graph.add_edge(u, v)
                channels.append(
                    Channel(u, v, max(_distance(positions[u], positions[v]), 0.1))
                )
    avg_hops = 2.0 * (levels - 1) * (1 - 1.0 / arity) + 1.0
    return Topology(
        name="fat_tree",
        endpoints=endpoints,
        graph=graph,
        channels=tuple(channels),
        router_radix=2 * arity,
        concentration=arity,  # leaves attach at the bottom level
        bisection_channels=endpoints // 2,
        avg_hops=avg_hops,
    )


def butterfly(endpoints: int = 64, arity: int = 4) -> Topology:
    """k-ary n-fly unidirectional butterfly.

    Cheapest path diversity of the lot: exactly one route per source
    destination pair, half-bisection relative to the fat tree.
    """
    stages = round(math.log(endpoints, arity))
    if arity**stages != endpoints:
        raise NautilusError(
            f"butterfly needs endpoints to be a power of arity; "
            f"got {endpoints} with arity {arity}"
        )
    import networkx as nx

    per_stage = endpoints // arity
    graph = nx.MultiDiGraph()
    positions = {}
    for stage in range(stages):
        for s in range(per_stage):
            name = f"st{stage}_s{s}"
            graph.add_node(name)
            positions[name] = (
                stage * _DIE_MM / max(stages - 1, 1),
                s * _DIE_MM / max(per_stage - 1, 1),
            )
    channels = []
    for stage in range(stages - 1):
        digit = arity ** (stages - 2 - stage)
        for s in range(per_stage):
            for a in range(arity):
                # Butterfly permutation: replace one radix-digit per stage.
                t = (s - (s // digit % arity) * digit) + a * digit
                u, v = f"st{stage}_s{s}", f"st{stage + 1}_s{t % per_stage}"
                graph.add_edge(u, v)
                channels.append(
                    Channel(u, v, max(_distance(positions[u], positions[v]), 0.1))
                )
    return Topology(
        name="butterfly",
        endpoints=endpoints,
        graph=graph,
        channels=tuple(channels),
        router_radix=2 * arity,
        concentration=arity,
        bisection_channels=endpoints // 4,
        avg_hops=float(stages),
    )


#: Figure 2 legend: family name -> builder.
TOPOLOGY_FAMILIES = {
    "ring": ring,
    "double_ring": double_ring,
    "concentrated_ring": concentrated_ring,
    "concentrated_double_ring": concentrated_double_ring,
    "mesh": mesh,
    "torus": torus,
    "fat_tree": fat_tree,
    "butterfly": butterfly,
}


def build_topology(family: str, endpoints: int = 64) -> Topology:
    """Instantiate a topology family by name."""
    try:
        builder = TOPOLOGY_FAMILIES[family]
    except KeyError:
        raise NautilusError(
            f"unknown topology family {family!r}; "
            f"choose from {sorted(TOPOLOGY_FAMILIES)}"
        ) from None
    return builder(endpoints)
