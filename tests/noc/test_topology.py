"""Tests for topology construction: structure, bisection, floorplan."""

import networkx as nx
import pytest

from repro.core.errors import NautilusError
from repro.noc import (
    TOPOLOGY_FAMILIES,
    build_topology,
    butterfly,
    concentrated_double_ring,
    concentrated_ring,
    double_ring,
    fat_tree,
    mesh,
    ring,
    torus,
)


class TestFamilies:
    def test_all_families_build(self):
        for family in TOPOLOGY_FAMILIES:
            topology = build_topology(family, 64)
            assert topology.endpoints == 64
            assert topology.num_routers > 0
            assert topology.bisection_channels > 0
            assert topology.avg_hops > 0

    def test_unknown_family(self):
        with pytest.raises(NautilusError, match="unknown topology"):
            build_topology("hypercube_of_doom")


class TestRings:
    def test_ring_size_and_radix(self):
        t = ring(64)
        assert t.num_routers == 64
        assert t.router_radix == 3  # 2 ring ports + 1 endpoint
        assert t.bisection_channels == 2

    def test_ring_degree(self):
        t = ring(16)
        assert all(d == 2 for _, d in t.graph.degree())

    def test_ring_bisection_matches_min_cut(self):
        # Structural check against networkx on a small instance.
        t = ring(16)
        cut = nx.minimum_edge_cut(t.graph, "r0", "r8")
        assert len(cut) == t.bisection_channels

    def test_double_ring_doubles_channels(self):
        single, double = ring(64), double_ring(64)
        assert len(double.channels) == 2 * len(single.channels)
        assert double.bisection_channels == 2 * single.bisection_channels
        assert double.router_radix == 5

    def test_concentration_shrinks_router_count(self):
        t = concentrated_ring(64, concentration=4)
        assert t.num_routers == 16
        assert t.concentration == 4
        assert t.router_radix == 6  # 2 ring + 4 endpoints

    def test_concentrated_double_ring(self):
        t = concentrated_double_ring(64)
        assert t.num_routers == 16
        assert t.router_radix == 8


class TestMeshTorus:
    def test_mesh_structure(self):
        t = mesh(64)
        assert t.num_routers == 64
        assert t.router_radix == 5
        assert t.bisection_channels == 8
        degrees = [d for _, d in t.graph.degree()]
        assert min(degrees) == 2 and max(degrees) == 4  # corners vs interior

    def test_mesh_requires_square(self):
        with pytest.raises(NautilusError):
            mesh(60)

    def test_torus_wraparound(self):
        m, t = mesh(64), torus(64)
        assert t.graph.number_of_edges() == m.graph.number_of_edges() + 16
        assert all(d == 4 for _, d in t.graph.degree())
        assert t.bisection_channels == 2 * m.bisection_channels

    def test_torus_lower_hops_than_mesh(self):
        assert torus(64).avg_hops < mesh(64).avg_hops


class TestTrees:
    def test_fat_tree_structure(self):
        t = fat_tree(64, arity=4)
        assert t.num_routers == 48  # 3 levels x 16 switches
        assert t.router_radix == 8
        assert t.bisection_channels == 32  # full bisection

    def test_fat_tree_needs_power_of_arity(self):
        with pytest.raises(NautilusError):
            fat_tree(60)

    def test_butterfly_structure(self):
        t = butterfly(64, arity=4)
        assert t.num_routers == 48
        assert t.bisection_channels == 16  # half the fat tree
        # Unidirectional k-ary n-fly: every switch drives `arity` channels
        # except the last stage.
        assert t.graph.number_of_edges() == 2 * 16 * 4

    def test_fat_tree_beats_butterfly_bisection(self):
        assert fat_tree(64).bisection_channels > butterfly(64).bisection_channels


class TestFloorplan:
    def test_channel_lengths_positive(self):
        for family in TOPOLOGY_FAMILIES:
            topology = build_topology(family, 64)
            assert all(ch.length_mm > 0 for ch in topology.channels)

    def test_torus_wrap_links_are_long(self):
        t = torus(64)
        lengths = sorted(ch.length_mm for ch in t.channels)
        assert lengths[-1] > 3 * lengths[0]
