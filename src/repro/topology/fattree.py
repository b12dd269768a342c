"""FatTree data-center topology (Al-Fares et al., §4 of the paper).

A k-ary FatTree has k pods, each with k/2 edge and k/2 aggregation
switches; (k/2)² core switches; and k³/4 hosts.  The paper's simulations
use k = 8: "128 single-interface hosts and 80 eight-port switches", all
links 100 Mb/s.

Naming: hosts ``h<i>``, edge ``e<pod>_<j>``, aggregation ``a<pod>_<j>``,
core ``c<g>_<j>`` (core group g is wired to aggregation switch g of every
pod).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..net.network import Network
from ..sim.simulation import Simulation

__all__ = ["FatTree"]


@dataclass
class FatTree:
    """A built k-ary FatTree."""

    sim: Simulation
    net: Network
    k: int
    hosts: List[str]

    @classmethod
    def build(
        cls,
        sim: Simulation,
        k: int = 8,
        rate_pps: float = 8333.0,
        delay: float = 1e-4,
        buffer_pkts: int = 100,
    ) -> "FatTree":
        """Construct a k-ary FatTree (k even).

        Defaults model the paper's setup: 100 Mb/s links (≈8333 pkt/s for
        1500-byte packets) and short intra-datacenter latencies.
        """
        if k < 2 or k % 2:
            raise ValueError(f"FatTree requires even k >= 2, got {k!r}")
        net = Network(sim)
        half = k // 2
        hosts: List[str] = []

        def link(a: str, b: str) -> None:
            net.add_link(a, b, rate_pps, delay, buffer_pkts)

        for pod in range(k):
            for j in range(half):
                edge = f"e{pod}_{j}"
                agg = f"a{pod}_{j}"
                # Hosts under this edge switch.
                for m in range(half):
                    host = f"h{pod * half * half + j * half + m}"
                    hosts.append(host)
                    link(host, edge)
                # Edge to every aggregation switch in the pod.
                for jj in range(half):
                    link(edge, f"a{pod}_{jj}")
            # Aggregation j connects to core group j.
            for j in range(half):
                for m in range(half):
                    link(f"a{pod}_{j}", f"c{j}_{m}")
        hosts.sort(key=lambda h: int(h[1:]))
        return cls(sim=sim, net=net, k=k, hosts=hosts)

    # ------------------------------------------------------------------
    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    @property
    def num_switches(self) -> int:
        return len(self.net.adjacency) - self.num_hosts

    def host_pod(self, host: str) -> int:
        return int(host[1:]) // ((self.k // 2) ** 2)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FatTree(k={self.k}, hosts={self.num_hosts}, "
            f"switches={self.num_switches})"
        )
