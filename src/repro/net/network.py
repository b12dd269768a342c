"""Network builder: nodes, shared link queues, and route construction.

A :class:`Network` owns the directed links of a topology.  Each directed link
is one :class:`~repro.net.queue.DropTailQueue` followed by one
:class:`~repro.net.pipe.Pipe`; every flow routed over the link shares that
queue, which is what makes links into bottlenecks.

Paths are described as node lists; :meth:`Network.route` assembles the
corresponding :class:`~repro.net.route.Route`.  Topology queries (shortest
paths, ECMP path sets) are answered by a breadth-first and a depth-first
search over :attr:`Network.adjacency`, the successor lists in link-insertion
order; both return paths in the order ``networkx``'s ``all_shortest_paths``
and ``all_simple_paths`` would, which the seeded path sampling depends on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim.simulation import Simulation
from .packet import MSS_BYTES
from .pipe import Pipe
from .queue import DropTailQueue
from .route import Route

__all__ = ["Network", "Link", "mbps_to_pps", "pps_to_mbps"]


def mbps_to_pps(mbps: float, mss_bytes: int = MSS_BYTES) -> float:
    """Convert a link rate in Mb/s to full-sized packets per second."""
    return mbps * 1e6 / (8.0 * mss_bytes)


def pps_to_mbps(pps: float, mss_bytes: int = MSS_BYTES) -> float:
    """Convert packets per second (of full-sized packets) to Mb/s."""
    return pps * 8.0 * mss_bytes / 1e6


@dataclass
class Link:
    """One directed link: its queue (buffer + service rate) and pipe."""

    src: str
    dst: str
    queue: DropTailQueue
    pipe: Pipe

    @property
    def rate_pps(self) -> float:
        return self.queue.rate_pps

    @property
    def delay(self) -> float:
        return self.pipe.delay

    @property
    def loss_rate(self) -> float:
        return self.queue.loss_rate

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"


class Network:
    """A topology of named nodes joined by shared-queue links."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.links: Dict[Tuple[str, str], Link] = {}
        # Each node's successors, in link-insertion order.
        self.adjacency: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> None:
        self.adjacency.setdefault(name, [])

    def add_link(
        self,
        src: str,
        dst: str,
        rate_pps: float,
        delay: float,
        buffer_pkts: int,
        bidirectional: bool = True,
    ) -> Link:
        """Create a link (and its reverse twin unless ``bidirectional=False``).

        Returns the forward :class:`Link`.
        """
        link = self._add_one_way(src, dst, rate_pps, delay, buffer_pkts)
        if bidirectional:
            self._add_one_way(dst, src, rate_pps, delay, buffer_pkts)
        return link

    def _add_one_way(self, src, dst, rate_pps, delay, buffer_pkts) -> Link:
        key = (src, dst)
        if key in self.links:
            raise ValueError(f"link {src}->{dst} already exists")
        queue = DropTailQueue(self.sim, rate_pps, buffer_pkts, name=f"{src}->{dst}")
        pipe = Pipe(self.sim, delay, name=f"{src}->{dst}.pipe")
        link = Link(src, dst, queue, pipe)
        self.links[key] = link
        self.adjacency.setdefault(src, []).append(dst)
        self.adjacency.setdefault(dst, [])
        return link

    def link(self, src: str, dst: str) -> Link:
        """Look up the directed link from ``src`` to ``dst``."""
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src}->{dst} in network") from None

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def route(self, nodes: Sequence[str], name: str = "") -> Route:
        """Build the Route along ``nodes``; ACKs return with the reverse
        links' propagation delay (delay-only, uncongested)."""
        if len(nodes) < 2:
            raise ValueError("a route needs at least two nodes")
        elements: List = []
        reverse_delay = 0.0
        for src, dst in zip(nodes, nodes[1:]):
            link = self.link(src, dst)
            elements.append(link.queue)
            elements.append(link.pipe)
            # Reverse propagation: use the reverse link if present, else
            # assume symmetric latency.
            reverse = self.links.get((dst, src))
            reverse_delay += reverse.pipe.delay if reverse else link.pipe.delay
        route_name = name or "->".join(str(n) for n in nodes)
        return Route(self.sim, elements, reverse_delay, name=route_name)

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    def shortest_paths(self, src: str, dst: str) -> List[List[str]]:
        """All shortest-hop paths from src to dst (the ECMP path set).

        A level-by-level BFS records each node's predecessors one level
        up, in visiting order; the paths are then walked back from ``dst``
        depth-first, first predecessor first.  Raises ``ValueError`` when
        ``src`` is not a node or ``dst`` is unreachable from it.
        """
        adj = self.adjacency
        if src not in adj:
            raise ValueError(f"no path {src}->{dst}: {src} is not a node")
        preds: Dict[str, List[str]] = {src: []}
        level: Iterable[str] = [src]
        while level and dst not in preds:
            below: Dict[str, List[str]] = {}  # next level, in discovery order
            for v in level:
                for w in adj[v]:
                    if w in below:
                        below[w].append(v)
                    elif w not in preds:
                        below[w] = [v]
            preds.update(below)
            level = below
        if dst not in preds:
            raise ValueError(f"no path {src}->{dst}")
        paths = []
        stack = [[dst]]
        while stack:
            back = stack.pop()  # dst ... back to the node being expanded
            if back[-1] == src:
                paths.append(back[::-1])
            stack.extend(back + [p] for p in reversed(preds[back[-1]]))
        return paths

    def _simple_paths(self, src: str, dst: str, cutoff: int) -> List[List[str]]:
        """Every loop-free src->dst path of at most ``cutoff`` hops, in
        depth-first order over the successor lists (``cutoff`` >= 1)."""
        if src == dst:
            return [[src]]
        adj = self.adjacency
        paths = []
        path = [src]
        stack = [iter(adj[src])]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                path.pop()
            elif nxt in path:
                continue
            elif nxt == dst:
                paths.append(path + [dst])
            elif len(path) < cutoff:
                path.append(nxt)
                stack.append(iter(adj[nxt]))
        return paths

    def random_shortest_path(
        self, src: str, dst: str, rng: Optional[random.Random] = None
    ) -> List[str]:
        """Pick one shortest-hop path uniformly at random, as the paper's
        ECMP mimic does ("each TCP source picks one of the shortest-hop
        paths at random")."""
        rng = rng if rng is not None else self.sim.rng
        paths = self.shortest_paths(src, dst)
        return paths[rng.randrange(len(paths))]

    def random_paths(
        self,
        src: str,
        dst: str,
        count: int,
        rng: Optional[random.Random] = None,
        cutoff_extra_hops: int = 2,
    ) -> List[List[str]]:
        """Sample ``count`` distinct paths at random (shortest paths first,
        then paths up to ``cutoff_extra_hops`` longer), as in the FatTree
        experiments where "for each pair of hosts we selected 8 paths at
        random"."""
        rng = rng if rng is not None else self.sim.rng
        shortest = self.shortest_paths(src, dst)
        if len(shortest) >= count:
            rng.shuffle(shortest)
            return shortest[:count]
        cutoff = len(shortest[0]) - 1 + cutoff_extra_hops
        pool = self._simple_paths(src, dst, cutoff)
        rng.shuffle(pool)
        # Keep shortest paths preferentially, then fill with longer ones.
        chosen = [p for p in pool if len(p) == len(shortest[0])]
        chosen += [p for p in pool if len(p) != len(shortest[0])]
        return chosen[:count]

    def all_links(self) -> Iterable[Link]:
        return self.links.values()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(nodes={len(self.adjacency)}, "
            f"links={len(self.links)})"
        )
