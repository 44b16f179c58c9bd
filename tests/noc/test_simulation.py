"""Tests for the cycle-level NoC simulator."""

import pytest

from repro.core.errors import NautilusError
from repro.noc import (
    NetworkSimulator,
    build_topology,
    default_router_config,
    saturation_throughput,
    simulate_network,
)
from repro.noc.router import RouterConfig


@pytest.fixture(scope="module")
def mesh16_simulator():
    topology = build_topology("mesh", 16)
    return NetworkSimulator(topology, default_router_config(5))


class TestBasics:
    def test_low_load_delivers_offered_rate(self, mesh16_simulator):
        report = mesh16_simulator.run(0.05, cycles=1200, seed=3)
        # Delivered ~= offered at low load.
        assert report.delivered_rate == pytest.approx(0.05, rel=0.2)
        assert report.blocked_fraction < 0.01

    def test_latency_at_least_hops_times_pipeline(self, mesh16_simulator):
        report = mesh16_simulator.run(0.02, cycles=1200, seed=3)
        hop_latency = mesh16_simulator.hop_latency
        assert report.avg_latency_cycles >= report.avg_hops * 1.0
        assert report.avg_hops >= 1.0
        assert hop_latency >= 1

    def test_deterministic(self, mesh16_simulator):
        a = mesh16_simulator.run(0.1, cycles=600, seed=7)
        b = mesh16_simulator.run(0.1, cycles=600, seed=7)
        assert a == b

    def test_different_seed_different_outcome(self, mesh16_simulator):
        a = mesh16_simulator.run(0.1, cycles=600, seed=7)
        b = mesh16_simulator.run(0.1, cycles=600, seed=8)
        assert a.avg_latency_cycles != b.avg_latency_cycles

    def test_invalid_rate(self, mesh16_simulator):
        with pytest.raises(NautilusError):
            mesh16_simulator.run(0.0)
        with pytest.raises(NautilusError):
            mesh16_simulator.run(1.5)

    def test_metrics_dict(self, mesh16_simulator):
        metrics = mesh16_simulator.run(0.05, cycles=400).metrics()
        for key in (
            "sim_latency_cycles",
            "sim_delivered_rate",
            "sim_blocked_fraction",
            "sim_avg_hops",
        ):
            assert key in metrics


class TestCongestionBehaviour:
    def test_latency_grows_with_load(self, mesh16_simulator):
        light = mesh16_simulator.run(0.03, cycles=1000, seed=1)
        heavy = mesh16_simulator.run(0.45, cycles=1000, seed=1)
        assert heavy.avg_latency_cycles > light.avg_latency_cycles

    def test_saturation_blocks_injection(self, mesh16_simulator):
        saturated = mesh16_simulator.run(0.95, cycles=800, seed=1)
        assert saturated.blocked_fraction > 0.1
        assert saturated.delivered_rate < 0.95

    def test_deeper_buffers_raise_saturation(self):
        topology = build_topology("mesh", 16)
        shallow = NetworkSimulator(
            topology, default_router_config(5, buffer_depth=1, num_vcs=2)
        )
        deep = NetworkSimulator(
            topology, default_router_config(5, buffer_depth=8, num_vcs=4)
        )
        sat_shallow = saturation_throughput(shallow, cycles=500)
        sat_deep = saturation_throughput(deep, cycles=500)
        assert sat_deep >= sat_shallow

    def test_curve_is_monotone_in_delivered(self, mesh16_simulator):
        curve = [
            mesh16_simulator.run(rate, cycles=700, seed=1)
            for rate in (0.05, 0.15, 0.3)
        ]
        delivered = [r.delivered_rate for r in curve]
        assert delivered == sorted(delivered)


class TestTopologyEffects:
    def test_ring_has_longest_paths(self):
        ring = simulate_network("ring", endpoints=16, injection_rate=0.03, cycles=800)
        mesh = simulate_network("mesh", endpoints=16, injection_rate=0.03, cycles=800)
        assert ring.avg_hops > mesh.avg_hops
        assert ring.avg_latency_cycles > mesh.avg_latency_cycles

    def test_fat_tree_saturates_above_ring(self):
        config = default_router_config(8)
        ring_sim = NetworkSimulator(
            build_topology("ring", 16),
            default_router_config(3),
        )
        tree_sim = NetworkSimulator(build_topology("fat_tree", 16), config)
        assert saturation_throughput(tree_sim, cycles=400) > saturation_throughput(
            ring_sim, cycles=400
        )

    def test_concentration_maps_endpoints(self):
        report = simulate_network(
            "concentrated_ring", endpoints=16, injection_rate=0.05, cycles=600
        )
        assert report.delivered > 0

    def test_speculative_pipeline_cuts_latency(self):
        topology = build_topology("mesh", 16)
        base = default_router_config(5)
        spec = RouterConfig(
            num_vcs=base.num_vcs,
            buffer_depth=base.buffer_depth,
            flit_width=base.flit_width,
            vc_allocator=base.vc_allocator,
            sw_allocator=base.sw_allocator,
            pipeline_stages=base.pipeline_stages,
            crossbar_type=base.crossbar_type,
            speculative=True,
            buffer_org=base.buffer_org,
            num_ports=5,
        )
        lat_base = NetworkSimulator(topology, base).run(0.03, cycles=800).avg_latency_cycles
        lat_spec = NetworkSimulator(topology, spec).run(0.03, cycles=800).avg_latency_cycles
        assert lat_spec < lat_base


class TestRoutingDiversity:
    def test_invalid_routing_rejected(self):
        from repro.core.errors import NautilusError

        topology = build_topology("mesh", 16)
        with pytest.raises(NautilusError, match="routing"):
            NetworkSimulator(topology, default_router_config(5), routing="magic")

    def test_diverse_routing_still_delivers(self):
        topology = build_topology("mesh", 16)
        simulator = NetworkSimulator(
            topology, default_router_config(5), routing="diverse"
        )
        report = simulator.run(0.05, cycles=800, seed=4)
        assert report.delivered_rate == pytest.approx(0.05, rel=0.25)
        assert report.avg_hops >= 1.0

    def test_diversity_unlocks_torus_bisection(self):
        """With single-path routing the torus wastes its path diversity;
        with minimal-adaptive spreading it saturates well above the mesh —
        the textbook 2x-bisection result."""
        mesh_topology = build_topology("mesh", 16)
        torus_topology = build_topology("torus", 16)
        config5 = default_router_config(5)
        sat = {}
        for routing in ("deterministic", "diverse"):
            mesh_sim = NetworkSimulator(mesh_topology, config5, routing=routing)
            torus_sim = NetworkSimulator(torus_topology, config5, routing=routing)
            sat[routing] = (
                saturation_throughput(mesh_sim, cycles=400, seed=3),
                saturation_throughput(torus_sim, cycles=400, seed=3),
            )
        mesh_diverse, torus_diverse = sat["diverse"]
        assert torus_diverse > mesh_diverse
        # Diversity helps the torus more than it helps the mesh.
        mesh_det, torus_det = sat["deterministic"]
        assert (torus_diverse - torus_det) > (mesh_diverse - mesh_det)
