"""BCube data-center topology (Guo et al., §4 of the paper).

BCube(n, k) has n^(k+1) hosts, each with k+1 interfaces.  A host's address
is a (k+1)-digit base-n number; the level-l switch ``s<l>_<prefix>``
connects the n hosts whose addresses agree everywhere except digit l.
There are (k+1)·n^k switches with n ports each.

The paper simulates BCube with "125 three-interface hosts and 25 five-port
switches" — 125 hosts matches BCube(5, 2), which in the standard
construction has 75 switches in 3 levels (the paper's 25 appears to be a
typo; see DESIGN.md).  Routing provides k+1 parallel paths between any
host pair, built by correcting address digits in rotated level orders
(BCubeRouting); when the digit a rotation starts with is already equal, a
random detour digit keeps the paths edge-disjoint, as in the BCube paper's
altered paths — this matches the paper's "choosing the intermediate nodes
at random when the algorithm needed a choice".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..net.network import Network
from ..sim.simulation import Simulation

__all__ = ["BCube"]


@dataclass
class BCube:
    """A built BCube(n, k)."""

    sim: Simulation
    net: Network
    n: int
    k: int
    hosts: List[str]

    @classmethod
    def build(
        cls,
        sim: Simulation,
        n: int = 5,
        k: int = 2,
        rate_pps: float = 8333.0,
        delay: float = 1e-4,
        buffer_pkts: int = 100,
    ) -> "BCube":
        if n < 2:
            raise ValueError(f"BCube needs n >= 2, got {n!r}")
        if k < 0:
            raise ValueError(f"BCube needs k >= 0, got {k!r}")
        net = Network(sim)
        levels = k + 1
        num_hosts = n ** levels
        hosts = [cls._host_name(cls._digits(i, n, levels)) for i in range(num_hosts)]
        for i in range(num_hosts):
            digits = cls._digits(i, n, levels)
            for level in range(levels):
                switch = cls._switch_name(level, digits)
                if (cls._host_name(digits), switch) not in net.links:
                    net.add_link(
                        cls._host_name(digits), switch, rate_pps, delay, buffer_pkts
                    )
        return cls(sim=sim, net=net, n=n, k=k, hosts=hosts)

    # ------------------------------------------------------------------
    # Addressing helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _digits(index: int, n: int, levels: int) -> Tuple[int, ...]:
        digits = []
        for _ in range(levels):
            digits.append(index % n)
            index //= n
        return tuple(reversed(digits))  # most-significant digit first

    @staticmethod
    def _host_name(digits: Tuple[int, ...]) -> str:
        return "h" + "".join(str(d) for d in digits)

    @staticmethod
    def _switch_name(level: int, host_digits: Tuple[int, ...]) -> str:
        # A level-l switch is identified by all digits except digit l
        # (digit index counted from the most significant end).
        rest = "".join(
            str(d) for i, d in enumerate(host_digits) if i != level
        )
        return f"s{level}_{rest}"

    def host_digits(self, host: str) -> Tuple[int, ...]:
        return tuple(int(c) for c in host[1:])

    # ------------------------------------------------------------------
    # BCubeRouting
    # ------------------------------------------------------------------
    def route_nodes(
        self,
        src: str,
        dst: str,
        start_level: int,
        rng: Optional[random.Random] = None,
    ) -> List[str]:
        """One BCube path from src to dst correcting digits in the rotated
        level order starting at ``start_level``.

        If the starting digit is already correct, the path detours through a
        random neighbor at that level first (keeping the k+1 paths
        edge-disjoint at the end hosts).
        """
        rng = rng if rng is not None else self.sim.rng
        levels = self.k + 1
        src_digits = list(self.host_digits(src))
        dst_digits = list(self.host_digits(dst))
        if src_digits == dst_digits:
            raise ValueError("src and dst are the same host")
        order = [(start_level + i) % levels for i in range(levels)]
        nodes = [src]
        current = list(src_digits)

        def hop_to(level: int, new_digit: int) -> None:
            switch = self._switch_name(level, tuple(current))
            current[level] = new_digit
            nodes.append(switch)
            nodes.append(self._host_name(tuple(current)))

        detour_level: Optional[int] = None
        first = order[0]
        if current[first] == dst_digits[first]:
            # Altered path: leave through a random wrong digit at the first
            # level, fix it again at the end.
            choices = [d for d in range(self.n) if d != current[first]]
            hop_to(first, rng.choice(choices))
            detour_level = first
        for level in order:
            if level == detour_level:
                continue  # the detoured digit is corrected last
            if current[level] != dst_digits[level]:
                hop_to(level, dst_digits[level])
        if detour_level is not None and current[detour_level] != dst_digits[detour_level]:
            hop_to(detour_level, dst_digits[detour_level])
        if current != dst_digits:
            raise AssertionError("BCube routing failed to reach destination")
        return nodes

    def parallel_paths(
        self, src: str, dst: str, count: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> List[List[str]]:
        """Up to k+1 parallel paths (one per starting level), as used by
        the paper's BCube experiments ("3 edge-disjoint paths")."""
        levels = self.k + 1
        count = levels if count is None else min(count, levels)
        return [
            self.route_nodes(src, dst, start_level=l, rng=rng)
            for l in range(count)
        ]

    def neighbors_by_level(self, host: str) -> List[str]:
        """One neighbor of ``host`` per level (the TP2 destinations: "the
        host's neighbors in the three levels")."""
        digits = list(self.host_digits(host))
        result = []
        for level in range(self.k + 1):
            other = list(digits)
            other[level] = (other[level] + 1) % self.n
            result.append(self._host_name(tuple(other)))
        return result

    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    @property
    def num_switches(self) -> int:
        return len(self.net.adjacency) - self.num_hosts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BCube(n={self.n}, k={self.k}, hosts={self.num_hosts}, "
            f"switches={self.num_switches})"
        )
