"""The ECMP path queries against networkx, their reference implementation.

``Network.shortest_paths`` and the candidate pool of
``Network.random_paths`` must return the same lists, in the same order,
as ``nx.all_shortest_paths`` and ``nx.all_simple_paths(cutoff=...)`` on
the same directed graph: the seeded ``randrange``/``shuffle`` that pick
the paper's §4 paths index into that order, so a reordering would move
the FatTree/BCube rows.  networkx is a test dependency only.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.network import Network
from repro.sim.simulation import Simulation
from repro.topology import BCube, FatTree

#: ``random_paths``' defaults in the §4 experiments: 8 paths, drawn from
#: simple paths up to 2 hops longer than the shortest when there are
#: fewer than 8 shortest ones.
PATH_COUNT = 8
EXTRA_HOPS = 2


def reference_graph(net: Network) -> nx.DiGraph:
    """The graph ``Network`` used to keep: one edge per directed link, in
    link-insertion order."""
    graph = nx.DiGraph()
    graph.add_nodes_from(net.adjacency)
    graph.add_edges_from(net.links)
    return graph


def host_pairs(graph, hosts, sample, seed):
    """Every ordered host pair at most 4 hops apart, plus ``sample``
    seeded picks among the farther ones."""
    near, far = [], []
    for src in hosts:
        hops = nx.single_source_shortest_path_length(graph, src)
        for dst in hosts:
            if dst != src:
                (near if hops[dst] <= 4 else far).append((src, dst))
    return near + random.Random(seed).sample(far, min(sample, len(far)))


TOPOLOGIES = {
    "fattree_k4": lambda: FatTree.build(Simulation(), k=4),
    "fattree_k8": lambda: FatTree.build(Simulation(), k=8),
    "bcube_4_2": lambda: BCube.build(Simulation(), n=4, k=2),
}


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_topology_paths_match_networkx(name):
    """Shortest paths on every near pair and 60 far ones; the pool on
    every pair whose ``random_paths`` builds one, or 300 seeded picks of
    them (networkx takes ~10 ms per pool at k=8)."""
    topo = TOPOLOGIES[name]()
    net = topo.net
    graph = reference_graph(net)
    pooled = []
    for src, dst in host_pairs(graph, topo.hosts, sample=60, seed=25):
        shortest = net.shortest_paths(src, dst)
        assert shortest == list(nx.all_shortest_paths(graph, src, dst)), (src, dst)
        if len(shortest) < PATH_COUNT:
            pooled.append((src, dst, len(shortest[0]) - 1 + EXTRA_HOPS))
    assert pooled
    for src, dst, cutoff in random.Random(25).sample(pooled, min(300, len(pooled))):
        assert net._simple_paths(src, dst, cutoff) == list(
            nx.all_simple_paths(graph, src, dst, cutoff=cutoff)
        ), (src, dst)


digraphs = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=n,
            max_size=3 * n,
            unique=True,
        ),
    )
)


@given(digraphs, st.integers(min_value=1, max_value=5))
@settings(max_examples=150)
def test_random_digraph_paths_match_networkx(digraph, cutoff):
    """Any small digraph (self-loops, dead ends and isolated nodes
    included), every ordered node pair: same shortest paths or both
    unreachable, and the same simple paths within ``cutoff`` hops."""
    n, edges = digraph
    net = Network(Simulation())
    for v in range(n):
        net.add_node(f"n{v}")
    for a, b in edges:
        net.add_link(f"n{a}", f"n{b}", 100.0, 0.01, 10, bidirectional=False)
    graph = reference_graph(net)
    for src in graph:
        for dst in graph:
            try:
                expected = list(nx.all_shortest_paths(graph, src, dst))
            except nx.NetworkXNoPath:
                with pytest.raises(ValueError, match=f"no path {src}->{dst}"):
                    net.shortest_paths(src, dst)
            else:
                assert net.shortest_paths(src, dst) == expected
            assert net._simple_paths(src, dst, cutoff) == list(
                nx.all_simple_paths(graph, src, dst, cutoff=cutoff)
            )
