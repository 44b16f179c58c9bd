"""Cycle-level NoC simulation — the "and/or simulations" of Section 4.1.

The paper characterizes NoC design points with "FPGA synthesis and/or
simulations" and names throughput among the fitness candidates ("fitness can
correspond to FPGA resource usage, throughput, energy efficiency..."). This
module provides the simulation half: a flit-level, credit-based network
simulator over any :class:`~repro.noc.topology.Topology`, producing the
dynamic metrics (average packet latency, delivered throughput, saturation
point) that synthesis alone cannot.

Model (deliberately classic, Dally & Towles-style):

* one router per topology node; each neighbor link carries one flit per
  cycle per parallel channel (double rings get two);
* input-queued routers with per-input FIFOs of ``buffer_depth * num_vcs``
  flits and credit-based backpressure;
* deterministic shortest-path routing (precomputed with networkx);
* round-robin arbitration per output port;
* per-hop pipeline latency taken from
  :func:`~repro.noc.router.router_latency_cycles`;
* uniform-random single-flit packets injected as a Bernoulli process.

Everything is seeded, so simulated metrics are as reproducible as the
synthesis flow's — a requirement for the offline-dataset methodology.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Mapping

from ..core.errors import NautilusError
from .router import RouterConfig, router_latency_cycles
from .topology import Topology, build_topology
from .traffic import TrafficPattern, UniformRandom

__all__ = [
    "Flit",
    "SimulationReport",
    "NetworkSimulator",
    "simulate_network",
    "saturation_throughput",
]


@dataclass
class Flit:
    """A single-flit packet in flight."""

    source: int
    destination: int
    injected_at: int
    #: Cycle at which the flit becomes eligible for its next hop (models
    #: the router pipeline depth).
    ready_at: int
    hops: int = 0


@dataclass(frozen=True)
class SimulationReport:
    """Outcome of one fixed-rate simulation run."""

    cycles: int
    offered_rate: float
    injected: int
    delivered: int
    avg_latency_cycles: float
    avg_hops: float
    #: Delivered flits per endpoint per cycle.
    delivered_rate: float
    #: Fraction of injection attempts refused by full source queues —
    #: the saturation signature.
    blocked_fraction: float

    def metrics(self) -> dict[str, float]:
        return {
            "sim_latency_cycles": self.avg_latency_cycles,
            "sim_delivered_rate": self.delivered_rate,
            "sim_blocked_fraction": self.blocked_fraction,
            "sim_avg_hops": self.avg_hops,
        }


class NetworkSimulator:
    """Flit-level simulator for one (topology, router config) pair.

    Args:
        topology: The network under test. Endpoints map onto routers
            round-robin according to the topology's concentration.
        config: Router configuration; only ``buffer_depth``, ``num_vcs``
            and the pipeline/speculation knobs (via per-hop latency)
            influence the dynamic behaviour.
        routing: ``"deterministic"`` uses one shortest path per pair (the
            classic oblivious single-path router); ``"diverse"`` randomizes
            per flit among all shortest-path next hops, exploiting the path
            diversity of tori and fat trees (Valiant-lite load balancing).
    """

    def __init__(
        self,
        topology: Topology,
        config: RouterConfig,
        routing: str = "deterministic",
    ):
        if routing not in ("deterministic", "diverse"):
            raise NautilusError(
                f"routing must be 'deterministic' or 'diverse', got {routing!r}"
            )
        self.routing = routing
        self.topology = topology
        self.config = config
        self.hop_latency = router_latency_cycles(config)
        self.queue_capacity = max(config.buffer_depth * config.num_vcs, 1)
        import networkx as nx

        graph = topology.graph
        # Undirected simple view with per-link channel multiplicity.
        self._nodes = list(graph.nodes())
        self._index = {name: i for i, name in enumerate(self._nodes)}
        self._capacity: dict[tuple[int, int], int] = {}
        for u, v in graph.edges():
            a, b = self._index[u], self._index[v]
            for key in ((a, b), (b, a)):
                self._capacity[key] = self._capacity.get(key, 0) + 1
        simple = nx.Graph()
        simple.add_nodes_from(range(len(self._nodes)))
        simple.add_edges_from(
            (a, b) for (a, b) in self._capacity if a < b or (b, a) not in self._capacity
        )
        if not nx.is_connected(simple):
            raise NautilusError(
                f"topology {topology.name!r} is not connected as an "
                "undirected graph; cannot route"
            )
        # next_hops[src][dst] -> all neighbors on *some* shortest path.
        distances = dict(nx.all_pairs_shortest_path_length(simple))
        self._next_hops: list[dict[int, tuple[int, ...]]] = []
        for src in range(len(self._nodes)):
            table: dict[int, tuple[int, ...]] = {}
            for dst, distance in distances[src].items():
                if distance == 0:
                    continue
                options = tuple(
                    nb
                    for nb in simple.neighbors(src)
                    if distances[nb].get(dst, float("inf")) == distance - 1
                )
                table[dst] = options
            self._next_hops.append(table)
        # Endpoint -> attached router (concentration-aware round robin).
        self.endpoints = topology.endpoints
        self._endpoint_router = [
            i % len(self._nodes) for i in range(self.endpoints)
        ]

    # -- simulation --------------------------------------------------------------

    def run(
        self,
        injection_rate: float,
        cycles: int = 2000,
        warmup: int = 200,
        seed: int = 1,
        pattern: TrafficPattern | None = None,
    ) -> SimulationReport:
        """Simulate a synthetic workload at a fixed injection rate.

        Args:
            injection_rate: Probability each endpoint injects a flit per
                cycle (flits/endpoint/cycle offered).
            cycles: Measured cycles (after warmup).
            warmup: Cycles simulated before statistics collection starts.
            seed: Workload RNG seed.
            pattern: Traffic pattern (default uniform random); see
                :mod:`repro.noc.traffic`.
        """
        if not 0.0 < injection_rate <= 1.0:
            raise NautilusError("injection_rate must be in (0, 1]")
        pattern = pattern or UniformRandom()
        rng = random.Random(seed)
        n = len(self._nodes)
        # queues[router][input] where input 0 is the local injection port
        # and inputs 1.. are per-neighbor.
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for (a, b) in self._capacity:
            if b not in neighbors[a]:
                neighbors[a].append(b)
        in_queues: list[dict[int, deque]] = [
            {-1: deque()} | {nb: deque() for nb in neighbors[node]}
            for node in range(n)
        ]
        rr_pointers: list[dict[int, int]] = [
            {out: 0 for out in neighbors[node] + [node]} for node in range(n)
        ]

        injected = delivered = blocked = attempts = 0
        latency_total = 0
        hops_total = 0
        total_cycles = warmup + cycles

        for cycle in range(total_cycles):
            measuring = cycle >= warmup
            # 1. Injection: each endpoint offers a flit with prob rate.
            for endpoint in range(self.endpoints):
                if rng.random() >= injection_rate:
                    continue
                if measuring:
                    attempts += 1
                router = self._endpoint_router[endpoint]
                queue = in_queues[router][-1]
                if len(queue) >= self.queue_capacity:
                    if measuring:
                        blocked += 1
                    continue
                dst_endpoint = pattern.destination(endpoint, self.endpoints, rng)
                if dst_endpoint == endpoint:
                    continue  # self-traffic needs no network
                flit = Flit(
                    source=router,
                    destination=self._endpoint_router[dst_endpoint],
                    injected_at=cycle,
                    ready_at=cycle + 1,
                )
                queue.append(flit)
                if measuring:
                    injected += 1

            # 2. Switching: each router serves each output once per channel.
            moves: list[tuple[int, int, Flit]] = []
            ejects: list[Flit] = []
            for node in range(n):
                queues = in_queues[node]
                input_keys = list(queues.keys())
                # Ejection port: serve flits that have arrived.
                served_eject = 0
                # Per-output grants this cycle.
                for out in neighbors[node] + [node]:
                    capacity = (
                        self._capacity.get((node, out), 0) if out != node else 2
                    )
                    grants = 0
                    pointer = rr_pointers[node][out]
                    for offset in range(len(input_keys)):
                        if grants >= max(capacity, 1):
                            break
                        key = input_keys[(pointer + offset) % len(input_keys)]
                        queue = queues[key]
                        if not queue:
                            continue
                        flit = queue[0]
                        if flit.ready_at > cycle:
                            continue
                        if out == node:
                            if flit.destination != node:
                                continue
                            queue.popleft()
                            ejects.append(flit)
                            grants += 1
                            rr_pointers[node][out] = (
                                (pointer + offset + 1) % len(input_keys)
                            )
                            continue
                        options = self._next_hops[node].get(
                            flit.destination, ()
                        )
                        if self.routing == "deterministic":
                            if not options or options[0] != out:
                                continue
                        else:
                            # Diverse: any minimal next hop is eligible; the
                            # per-output arbitration naturally spreads load.
                            if out not in options:
                                continue
                        # Credit check: space downstream?
                        downstream = in_queues[out][node]
                        pending = sum(1 for (d, k, __) in moves if d == out and k == node)
                        if len(downstream) + pending >= self.queue_capacity:
                            continue
                        queue.popleft()
                        moves.append((out, node, flit))
                        grants += 1
                        rr_pointers[node][out] = (
                            (pointer + offset + 1) % len(input_keys)
                        )

            # 3. Commit movements with per-hop pipeline latency.
            for (dst_node, from_node, flit) in moves:
                flit.hops += 1
                flit.ready_at = cycle + self.hop_latency
                in_queues[dst_node][from_node].append(flit)
            for flit in ejects:
                if flit.injected_at >= warmup:
                    delivered += 1
                    latency_total += cycle - flit.injected_at + 1
                    hops_total += flit.hops

        avg_latency = latency_total / delivered if delivered else float("inf")
        avg_hops = hops_total / delivered if delivered else 0.0
        return SimulationReport(
            cycles=cycles,
            offered_rate=injection_rate,
            injected=injected,
            delivered=delivered,
            avg_latency_cycles=avg_latency,
            avg_hops=avg_hops,
            delivered_rate=delivered / (cycles * self.endpoints),
            blocked_fraction=blocked / attempts if attempts else 0.0,
        )



def simulate_network(
    family: str,
    config: RouterConfig | Mapping | None = None,
    endpoints: int = 64,
    injection_rate: float = 0.1,
    cycles: int = 2000,
    seed: int = 1,
) -> SimulationReport:
    """One-call simulation of a topology family at a fixed load."""
    from .network import default_router_config

    topology = build_topology(family, endpoints)
    if config is None:
        config = default_router_config(topology.router_radix)
    elif isinstance(config, Mapping):
        config = RouterConfig.from_mapping(config)
    return NetworkSimulator(topology, config).run(
        injection_rate, cycles=cycles, seed=seed
    )


def saturation_throughput(
    simulator: NetworkSimulator,
    cycles: int = 1200,
    seed: int = 1,
    blocked_limit: float = 0.05,
) -> float:
    """Estimate the saturation injection rate by bisection.

    The network is saturated once more than ``blocked_limit`` of injection
    attempts are refused by full source queues. Returns the highest
    sustainable flits/endpoint/cycle found.
    """
    low, high = 0.0, 1.0
    for _ in range(7):
        mid = (low + high) / 2.0
        report = simulator.run(mid, cycles=cycles, seed=seed)
        if report.blocked_fraction <= blocked_limit:
            low = mid
        else:
            high = mid
    return low
