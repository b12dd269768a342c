"""Routes: ordered element lists that packets traverse.

A :class:`Route` is the forward path of one (sub)flow: a sequence of queues
and pipes, terminated by the receiving endpoint once the flow is attached.
The matching reverse path for ACKs is modelled as a single delay-only pipe
whose latency is the sum of the reverse links' propagation delays — ACK-path
congestion is outside the scope of the paper's evaluation, and this keeps the
hot path small.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from ..sim.simulation import Simulation
from .pipe import Pipe
from .queue import DropTailQueue

__all__ = ["Route"]


class Route:
    """Forward element list plus the reverse-path delay for ACKs.

    Endpoints call :meth:`forward_elements` to build the per-packet route
    tuple (elements + receiving endpoint) and :meth:`reverse_elements` for
    the ACK route (reverse pipe + sending endpoint).
    """

    def __init__(
        self,
        sim: Simulation,
        elements: Sequence[Any],
        reverse_delay: float = 0.0,
        name: str = "",
    ):
        self.sim = sim
        self.elements: Tuple[Any, ...] = tuple(elements)
        self.reverse_delay = float(reverse_delay)
        self.name = name
        self._reverse_pipe = Pipe(sim, self.reverse_delay, name=f"{name}.rev")
        sim.register(self)

    # ------------------------------------------------------------------
    def forward_elements(self, endpoint: Any) -> Tuple[Any, ...]:
        """Route tuple for data packets: elements then the receiver."""
        return self.elements + (endpoint,)

    def reverse_elements(self, endpoint: Any) -> Tuple[Any, ...]:
        """Route tuple for ACKs: the reverse delay pipe then the sender."""
        return (self._reverse_pipe, endpoint)

    # ------------------------------------------------------------------
    @property
    def queues(self) -> List[DropTailQueue]:
        """The drop-tail queues along the forward path."""
        return [e for e in self.elements if isinstance(e, DropTailQueue)]

    @property
    def propagation_delay(self) -> float:
        """Sum of forward pipe delays (no queueing)."""
        return sum(e.delay for e in self.elements if isinstance(e, Pipe))

    @property
    def rtt_floor(self) -> float:
        """Minimum achievable round-trip time (no queueing)."""
        return self.propagation_delay + self.reverse_delay

    @property
    def bottleneck_rate(self) -> float:
        """Smallest queue service rate on the path, in pkt/s."""
        rates = [q.rate_pps for q in self.queues]
        if not rates:
            raise ValueError(f"route {self.name!r} has no queues")
        return min(rates)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Route({self.name!r}, hops={len(self.elements)})"

