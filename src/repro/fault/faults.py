"""Fault injectors: seeded, reproducible network perturbations.

Each fault binds a :class:`~repro.fault.spec.FaultSpec` to one concrete
component (queue, pipe or sender) found by name in the simulation's
component registry.  Injection hooks into the element's ``intercept``
slot (queues, pipes) or wraps ``receive`` (senders) — the data path is
untouched until a fault actually arms.

Reproducibility: every fault draws from its **own** RNG, seeded from
``(sim.seed, kind, target, start)``.  Injected randomness therefore never
perturbs the simulation's main random stream — a faulted run differs from
the clean run only through the fault's actual effects, and two runs with
identical seeds produce bit-identical fault schedules (the property the
``repro point --trace`` determinism test pins down).

Tracing: state transitions emit ``fault.fire`` (armed schedules emit
``fault.armed``); per-packet kills are ordinary ``pkt.drop`` records with
``kind='fault'``, so drop accounting in trace post-processing keeps
working unchanged.
"""

from __future__ import annotations

import random
from fnmatch import fnmatch
from typing import Any, List, Optional, Tuple

from ..net.packet import AckPacket, DataPacket, Packet
from ..net.pipe import Pipe
from ..net.queue import DropTailQueue
from ..net.route import Route
from ..sim.simulation import Simulation
from ..tcp.sender import TcpSender
from .spec import FaultSpec

__all__ = [
    "Fault",
    "LinkFlapFault",
    "LossBurstFault",
    "ReorderFault",
    "SubflowKillFault",
    "AckDropFault",
    "arm_faults",
]


class Fault:
    """Base class: seeded RNG, tracing helpers, intercept chaining."""

    def __init__(self, sim: Simulation, spec: FaultSpec, target: Any,
                 trace=None):
        self.sim = sim
        self.spec = spec
        self.target = target
        self.target_name = getattr(target, "name", "") or repr(target)
        self.trace = sim.trace if trace is None else trace
        # Derived stream: independent of sim.rng, identical across runs
        # with the same (seed, spec, target).
        self.rng = random.Random(
            f"{sim.seed}:{spec.kind}:{self.target_name}:{spec.start}"
        )
        #: Packets affected so far (drops, reorders, kills).
        self.fires = 0

    # -- lifecycle ------------------------------------------------------
    def arm(self) -> None:
        """Announce the fault and schedule its effects."""
        if self.trace.enabled:
            self.trace.emit(
                "fault.armed",
                self.sim.now,
                fault=self.spec.kind,
                target=self.target_name,
                start=self.spec.start,
            )
        self._schedule()

    def _schedule(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    # -- helpers --------------------------------------------------------
    def _at(self, rel: float, callback) -> None:
        """Schedule ``callback`` at scenario time ``rel`` — seconds after
        the run origin on every backend, like ``spec.start`` itself."""
        self.sim.schedule_at(self.sim.at(rel), callback)

    def _chain_intercept(self, mine) -> None:
        """Install ``mine`` on the target's intercept slot, after any
        interceptor already present (first consumer wins)."""
        previous = self.target.intercept
        if previous is None:
            self.target.intercept = mine
        else:
            def chained(packet, _prev=previous, _mine=mine):
                return _prev(packet) or _mine(packet)
            self.target.intercept = chained

    def _fire(self, action: str, seq: Optional[int] = None,
              count: Optional[int] = None) -> None:
        if self.trace.enabled:
            fields = dict(
                fault=self.spec.kind, target=self.target_name, action=action
            )
            if seq is not None:
                fields["seq"] = seq
            if count is not None:
                fields["count"] = count
            self.trace.emit("fault.fire", self.sim.now, **fields)

    def _trace_drop(self, packet: Packet, seq: Optional[int]) -> None:
        if self.trace.enabled:
            self.trace.emit(
                "pkt.drop",
                self.sim.now,
                elem=self.target_name,
                kind="fault",
                flow=getattr(getattr(packet, "flow", None), "name", None),
                seq=seq,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.target_name!r}, "
            f"start={self.spec.start}, fires={self.fires})"
        )


class LinkFlapFault(Fault):
    """Take a link down and up repeatedly.

    While down, every data packet arriving at the target queue is dropped
    (ACKs on the reverse path are unaffected — the model is an outage of
    the forward buffer).  Parameters: ``down_for`` (seconds per outage),
    ``period`` (outage start-to-start spacing), ``repeats``.
    """

    def __init__(self, sim, spec, target, trace=None):
        super().__init__(sim, spec, target, trace=trace)
        self.down = False
        self._dropped_this_outage = 0
        params = spec.params
        self.down_for = float(params.get("down_for", 2.0))
        self.period = float(params.get("period", self.down_for * 3.0))
        self.repeats = int(params.get("repeats", 1))
        if self.down_for <= 0:
            raise ValueError(f"down_for must be > 0, got {self.down_for!r}")
        if self.period < self.down_for:
            raise ValueError(
                f"period {self.period!r} shorter than down_for "
                f"{self.down_for!r}: outages would overlap"
            )

    def _schedule(self) -> None:
        self._chain_intercept(self._intercept)
        for k in range(self.repeats):
            base = self.spec.start + k * self.period
            self._at(base, self._go_down)
            self._at(base + self.down_for, self._go_up)

    def _go_down(self) -> None:
        self.down = True
        self._dropped_this_outage = 0
        self._fire("down")

    def _go_up(self) -> None:
        self.down = False
        self._fire("up", count=self._dropped_this_outage)

    def _intercept(self, packet: Packet) -> bool:
        if not self.down or not isinstance(packet, DataPacket):
            return False
        self.fires += 1
        self._dropped_this_outage += 1
        self._trace_drop(packet, getattr(packet, "seq", None))
        return True


class LossBurstFault(Fault):
    """Random loss with probability ``prob`` during a window of
    ``duration`` seconds from ``start`` (a burst of non-congestion loss on
    a queue or pipe)."""

    def __init__(self, sim, spec, target, trace=None):
        super().__init__(sim, spec, target, trace=trace)
        self.active = False
        self._dropped_this_burst = 0
        params = spec.params
        self.duration = float(params.get("duration", 3.0))
        self.prob = float(params.get("prob", 0.3))
        if not 0.0 < self.prob <= 1.0:
            raise ValueError(f"prob must be in (0, 1], got {self.prob!r}")

    def _schedule(self) -> None:
        self._chain_intercept(self._intercept)
        self._at(self.spec.start, self._begin)
        self._at(self.spec.start + self.duration, self._end)

    def _begin(self) -> None:
        self.active = True
        self._dropped_this_burst = 0
        self._fire("burst_start")

    def _end(self) -> None:
        self.active = False
        self._fire("burst_end", count=self._dropped_this_burst)

    def _intercept(self, packet: Packet) -> bool:
        if not self.active or not isinstance(packet, DataPacket):
            return False
        if self.rng.random() >= self.prob:
            return False
        self.fires += 1
        self._dropped_this_burst += 1
        self._trace_drop(packet, getattr(packet, "seq", None))
        return True


class ReorderFault(Fault):
    """Delay a fraction ``prob`` of data packets by up to ``extra_delay``
    seconds, so they arrive behind packets sent after them.

    The delayed packet is re-presented to the same element after the extra
    delay (with a bypass marker so it is not intercepted twice); nothing
    is lost, so conservation invariants still hold — this fault exercises
    the SACK scoreboard and the connection-level reassembler instead.
    Active from ``start``; bounded by an optional ``duration``.
    """

    def __init__(self, sim, spec, target, trace=None):
        super().__init__(sim, spec, target, trace=trace)
        params = spec.params
        self.prob = float(params.get("prob", 0.1))
        self.extra_delay = float(params.get("extra_delay", 0.02))
        self.duration = params.get("duration")
        if not 0.0 < self.prob <= 1.0:
            raise ValueError(f"prob must be in (0, 1], got {self.prob!r}")
        if self.extra_delay <= 0:
            raise ValueError(
                f"extra_delay must be > 0, got {self.extra_delay!r}"
            )
        self._bypass: Optional[Packet] = None

    def _schedule(self) -> None:
        self._chain_intercept(self._intercept)

    def _active(self) -> bool:
        elapsed = self.sim.elapsed
        if elapsed < self.spec.start:
            return False
        if self.duration is not None:
            return elapsed < self.spec.start + float(self.duration)
        return True

    def _intercept(self, packet: Packet) -> bool:
        if packet is self._bypass:
            self._bypass = None
            return False
        if not self._active() or not isinstance(packet, DataPacket):
            return False
        if self.rng.random() >= self.prob:
            return False
        self.fires += 1
        delay = self.extra_delay * self.rng.random()
        self._fire("reorder", seq=getattr(packet, "seq", None))
        self.sim.schedule_in(delay, self._redeliver, packet)
        return True

    def _redeliver(self, packet: Packet) -> None:
        self._bypass = packet
        try:
            self.target.receive(packet)
        finally:
            self._bypass = None


class SubflowKillFault(Fault):
    """Take one sender's path down at ``start`` (path failure); optionally
    bring it back ``revive_after`` seconds later (path recovery).

    The fault signals ``path_down()`` / ``path_up()`` rather than bare
    ``stop()`` / ``start()``: a plain sender still just freezes, but a
    multipath subflow forwards the signal to its connection, so an attached
    :class:`repro.pathmgr.PathManager` sees the failure, retires the
    subflow (reinjecting stranded data) and fails over — §5's handover
    experiment, composed from a fault plus a policy.
    """

    def __init__(self, sim, spec, target, trace=None):
        super().__init__(sim, spec, target, trace=trace)
        self.revive_after = spec.params.get("revive_after")

    def _schedule(self) -> None:
        self._at(self.spec.start, self._kill)
        if self.revive_after is not None:
            self._at(self.spec.start + float(self.revive_after), self._revive)

    def _kill(self) -> None:
        self.fires += 1
        self.target.path_down(reason="fault")
        self._fire("kill")

    def _revive(self) -> None:
        self.target.path_up(reason="fault")
        self._fire("revive")


class AckDropFault(Fault):
    """Drop a fraction ``prob`` of one sender's incoming ACKs for
    ``duration`` seconds from ``start`` (a lossy reverse path).

    Cumulative ACKs make this safe — a later ACK covers the dropped one —
    but it stresses RTT estimation and timer logic.  Implemented by
    wrapping the sender's ``receive`` (senders are plain objects; queues
    and pipes use the ``intercept`` slot instead because they are
    ``__slots__``-constrained).
    """

    def __init__(self, sim, spec, target, trace=None):
        super().__init__(sim, spec, target, trace=trace)
        self.active = False
        self._dropped_this_window = 0
        params = spec.params
        self.duration = float(params.get("duration", 3.0))
        self.prob = float(params.get("prob", 0.25))
        if not 0.0 < self.prob <= 1.0:
            raise ValueError(f"prob must be in (0, 1], got {self.prob!r}")

    def _schedule(self) -> None:
        original = self.target.receive
        fault = self

        def guarded_receive(ack):
            if (
                fault.active
                and isinstance(ack, AckPacket)
                and fault.rng.random() < fault.prob
            ):
                fault.fires += 1
                fault._dropped_this_window += 1
                fault._trace_drop(ack, getattr(ack, "ack_seq", None))
                return
            original(ack)

        self.target.receive = guarded_receive
        self._at(self.spec.start, self._begin)
        self._at(self.spec.start + self.duration, self._end)

    def _begin(self) -> None:
        self.active = True
        self._dropped_this_window = 0
        self._fire("window_start")

    def _end(self) -> None:
        self.active = False
        self._fire("window_end", count=self._dropped_this_window)


#: kind -> (fault class, acceptable target component types)
_KIND_MAP = {
    "link_flap": (LinkFlapFault, (DropTailQueue,)),
    "loss_burst": (LossBurstFault, (DropTailQueue, Pipe)),
    "reorder": (ReorderFault, (DropTailQueue, Pipe)),
    "subflow_kill": (SubflowKillFault, (TcpSender,)),
    "ack_drop": (AckDropFault, (TcpSender,)),
}


def _candidates(sim: Simulation, types: Tuple[type, ...]) -> List[Tuple[str, Any]]:
    by_name = {}
    on_path = set()
    for component in sim.components:
        if isinstance(component, Route):
            on_path.update(id(e) for e in component.elements)
        elif isinstance(component, types):
            name = getattr(component, "name", "")
            if name:
                by_name.setdefault(name, component)
    # Rank forward-path elements first, then queues before pipes, then by
    # name: a bare "*" should fault a link buffer that actually carries
    # data, not an idle reverse-twin queue or a reverse-path ACK pipe
    # (whose names often sort first).
    return sorted(
        by_name.items(),
        key=lambda item: (
            id(item[1]) not in on_path,
            not isinstance(item[1], DropTailQueue),
            item[0],
        ),
    )


def arm_faults(
    sim: Simulation, specs: List[FaultSpec], trace=None
) -> List[Fault]:
    """Bind each spec to its target component(s) and arm the faults.

    Targets are matched by ``fnmatch`` glob over component names, in
    sorted name order for determinism; the first match is used unless the
    spec sets ``params["scope"] = "all"``.  Raises :class:`ValueError`
    when a spec matches nothing (listing what was available), because a
    silently unarmed fault would make a "fault tolerated" result
    meaningless.
    """
    armed: List[Fault] = []
    for spec in specs:
        cls, types = _KIND_MAP[spec.kind]
        candidates = _candidates(sim, types)
        matches = [
            (name, comp) for name, comp in candidates
            if fnmatch(name, spec.target)
        ]
        if not matches:
            available = ", ".join(name for name, _ in candidates) or "(none)"
            raise ValueError(
                f"fault {spec.kind!r} target {spec.target!r} matches no "
                f"component; eligible components: {available}"
            )
        if spec.params.get("scope") != "all":
            matches = matches[:1]
        for _, component in matches:
            fault = cls(sim, spec, component, trace=trace)
            fault.arm()
            armed.append(fault)
    return armed
