"""Structural tests for the scenario and data-center topologies."""

import pytest

from repro.sim.simulation import Simulation
from repro.topology import (
    BCube,
    FatTree,
    build_chain,
    build_shared_bottleneck,
    build_torus,
    build_triangle,
    build_two_links,
)


class TestScenarios:
    def test_shared_bottleneck_routes_share_queue(self):
        sim = Simulation()
        sc = build_shared_bottleneck(sim, subflows=3)
        single = sc.routes("single")[0]
        multi = sc.routes("multi")
        assert len(multi) == 3
        assert all(r.queues[0] is single.queues[0] for r in multi)

    def test_two_links_are_independent(self):
        sim = Simulation()
        sc = build_two_links(sim, 100.0, 200.0)
        q1 = sc.routes("link1")[0].queues[0]
        q2 = sc.routes("link2")[0].queues[0]
        assert q1 is not q2
        assert q1.rate_pps == 100.0
        assert q2.rate_pps == 200.0
        multi = sc.routes("multi")
        assert multi[0].queues[0] is q1
        assert multi[1].queues[0] is q2

    def test_triangle_each_flow_one_short_one_long(self):
        sim = Simulation()
        sc = build_triangle(sim, rate_pps=800.0)
        for i in range(3):
            short, long = sc.routes(f"f{i}")
            # short path crosses one bottleneck, long crosses two
            bottlenecks_short = [q for q in short.queues if q.rate_pps == 800.0]
            bottlenecks_long = [q for q in long.queues if q.rate_pps == 800.0]
            assert len(bottlenecks_short) == 1
            assert len(bottlenecks_long) == 2

    def test_triangle_each_link_carries_three_subflows(self):
        sim = Simulation()
        sc = build_triangle(sim, rate_pps=800.0)
        counts = {}
        for i in range(3):
            for route in sc.routes(f"f{i}"):
                for q in route.queues:
                    if q.rate_pps == 800.0:
                        counts[q.name] = counts.get(q.name, 0) + 1
        assert sorted(counts.values()) == [3, 3, 3]

    def test_chain_adjacent_flows_share_one_link(self):
        sim = Simulation()
        sc = build_chain(sim, [500.0, 1000.0, 800.0, 300.0])
        assert len(sc.flow_routes) == 3
        f0b = sc.routes("f0")[1].queues[0]
        f1a = sc.routes("f1")[0].queues[0]
        assert f0b is f1a

    def test_chain_needs_two_links(self):
        with pytest.raises(ValueError):
            build_chain(Simulation(), [100.0])

    def test_torus_wiring(self):
        sim = Simulation()
        sc = build_torus(sim, [1000.0] * 5, delay=0.05)
        # flow i's second path is flow i+1's first path
        for i in range(5):
            second = sc.routes(f"f{i}")[1].queues[0]
            first_next = sc.routes(f"f{(i + 1) % 5}")[0].queues[0]
            assert second is first_next

    def test_torus_default_buffer_is_one_bdp(self):
        sim = Simulation()
        sc = build_torus(sim, [1000.0, 1000.0, 100.0, 1000.0, 1000.0], delay=0.05)
        # flow f2's first path crosses link 2 (the 100 pkt/s link).
        assert sc.routes("f2")[0].queues[0].capacity == 10   # 100 * 0.1
        assert sc.routes("f1")[0].queues[0].capacity == 100  # 1000 * 0.1

    def test_torus_needs_three_links(self):
        with pytest.raises(ValueError):
            build_torus(Simulation(), [100.0, 100.0])


class TestFatTree:
    def test_paper_dimensions_k8(self):
        """§4: '128 single-interface hosts and 80 eight-port switches'."""
        ft = FatTree.build(Simulation(), k=8)
        assert ft.num_hosts == 128
        assert ft.num_switches == 80

    def test_k4_dimensions(self):
        ft = FatTree.build(Simulation(), k=4)
        assert ft.num_hosts == 16
        assert ft.num_switches == 20  # 4 core + 8 agg + 8 edge

    def test_switch_port_counts(self):
        ft = FatTree.build(Simulation(), k=4)
        for node, successors in ft.net.adjacency.items():
            if not node.startswith("h"):
                assert len(successors) == 4

    def test_interpod_path_diversity(self):
        """Between pods there are (k/2)^2 shortest paths (one per core)."""
        ft = FatTree.build(Simulation(), k=4)
        paths = ft.net.shortest_paths("h0", "h15")
        assert len(paths) == 4
        assert all(len(p) == 7 for p in paths)  # h-e-a-c-a-e-h

    def test_same_edge_single_path(self):
        ft = FatTree.build(Simulation(), k=4)
        paths = ft.net.shortest_paths("h0", "h1")
        assert len(paths) == 1
        assert len(paths[0]) == 3  # h-e-h

    def test_eight_random_paths_available_interpod(self):
        sim = Simulation(seed=3)
        ft = FatTree.build(sim, k=8)
        paths = ft.net.random_paths("h0", "h127", count=8)
        assert len(paths) == 8
        assert len({tuple(p) for p in paths}) == 8

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            FatTree.build(Simulation(), k=5)

    def test_host_pod_mapping(self):
        ft = FatTree.build(Simulation(), k=4)
        assert ft.host_pod("h0") == 0
        assert ft.host_pod("h4") == 1
        assert ft.host_pod("h15") == 3


class TestBCube:
    def test_paper_dimensions(self):
        """§4: 125 three-interface hosts (BCube(5,2)); the standard
        construction has 75 switches (see DESIGN.md on the paper's '25')."""
        bc = BCube.build(Simulation(), n=5, k=2)
        assert bc.num_hosts == 125
        assert bc.num_switches == 75

    def test_host_interface_count(self):
        bc = BCube.build(Simulation(), n=4, k=1)
        for host in bc.hosts:
            assert len(bc.net.adjacency[host]) == 2  # k+1 interfaces

    def test_switch_port_count(self):
        bc = BCube.build(Simulation(), n=4, k=1)
        for node, successors in bc.net.adjacency.items():
            if node.startswith("s"):
                assert len(successors) == 4  # n ports

    def test_route_reaches_destination(self):
        sim = Simulation(seed=1)
        bc = BCube.build(sim, n=4, k=2)
        path = bc.route_nodes("h000", "h123", start_level=0)
        assert path[0] == "h000"
        assert path[-1] == "h123"

    def test_parallel_paths_are_distinct_and_edge_disjoint_at_hosts(self):
        sim = Simulation(seed=2)
        bc = BCube.build(sim, n=5, k=2)
        paths = bc.parallel_paths("h000", "h421")
        assert len(paths) == 3
        # Each path leaves the source through a different interface (level).
        first_switches = {p[1] for p in paths}
        assert len(first_switches) == 3

    def test_parallel_paths_with_equal_digits_use_detours(self):
        sim = Simulation(seed=3)
        bc = BCube.build(sim, n=5, k=2)
        # destination shares digit at level 0 -> the level-0-start path
        # must detour
        paths = bc.parallel_paths("h012", "h042")
        assert len(paths) == 3
        for p in paths:
            assert p[-1] == "h042"
        first_switches = {p[1] for p in paths}
        assert len(first_switches) == 3

    def test_path_alternates_hosts_and_switches(self):
        sim = Simulation(seed=4)
        bc = BCube.build(sim, n=4, k=1)
        path = bc.route_nodes("h00", "h11", start_level=0)
        for i, node in enumerate(path):
            expected_prefix = "h" if i % 2 == 0 else "s"
            assert node.startswith(expected_prefix)

    def test_one_digit_neighbors(self):
        from repro.traffic.matrix import one_digit_neighbors

        bc = BCube.build(Simulation(), n=5, k=2)
        neighbors = one_digit_neighbors(bc)
        # (k+1)(n-1) = 12 neighbors: the paper's TP2 destination set
        assert all(len(v) == 12 for v in neighbors.values())
        assert "h100" in neighbors["h000"]
        assert "h010" in neighbors["h000"]
        assert "h001" in neighbors["h000"]

    def test_same_host_route_rejected(self):
        bc = BCube.build(Simulation(), n=4, k=1)
        with pytest.raises(ValueError):
            bc.route_nodes("h00", "h00", 0)
