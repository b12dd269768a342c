"""Fault injectors and scripted path changes: one timeline of events.

Each event binds a :class:`~repro.fault.spec.FaultSpec` to one concrete
component (queue, pipe or sender; a path; a managed path) found by name
in the simulation's component registry.  Injection hooks into the
element's ``intercept`` slot (queues, pipes) or wraps ``receive``
(senders) — the data path is untouched until a fault actually arms.

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
    "RateStep",
    "PathLiveness",
    "arm_faults",
]


def _param(spec: FaultSpec, name: str, default: Any, rule: str, ok) -> float:
    """``spec.params[name]`` (or ``default``) as a float, refusing a value
    outside ``rule`` — e.g. an inverted window, which would open after it
    closes and so never close."""
    value = spec.params.get(name, default)
    if value is None or not ok(float(value)):
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return float(value)


def _prob(spec: FaultSpec, default: float) -> float:
    return _param(spec, "prob", default, "in (0, 1]", lambda v: 0 < v <= 1)


def _positive(spec: FaultSpec, name: str, default: Any = None
              ) -> Optional[float]:
    """A > 0 parameter; an optional one (no default) may be absent."""
    if default is None and spec.params.get(name) is None:
        return None
    return _param(spec, name, default, "> 0", lambda v: v > 0)


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


class _WindowFault(Fault):
    """Drop a fraction ``prob`` of the packets the target hooks see while
    a window is open: ``repeats`` windows of ``duration`` seconds,
    ``period`` apart from ``start``, whose edges trace as ``ACTIONS``."""

    ACTIONS = ("", "")

    def __init__(self, sim, spec, target, trace=None, duration=3.0,
                 prob=1.0, period=0.0, repeats=1):
        super().__init__(sim, spec, target, trace=trace)
        self.duration, self.prob = duration, prob
        self.period, self.repeats = period, repeats
        self.active = False
        self._dropped = 0

    def _schedule(self) -> None:
        self._install()
        for k in range(self.repeats):
            base = self.spec.start + k * self.period
            self._at(base, self._open)
            self._at(base + self.duration, self._close)

    def _install(self) -> None:
        """Hook the target: a queue's or pipe's ``intercept`` slot."""
        self._chain_intercept(self._intercept)

    def _open(self) -> None:
        self.active = True
        self._dropped = 0
        self._fire(self.ACTIONS[0])

    def _close(self) -> None:
        self.active = False
        self._fire(self.ACTIONS[1], count=self._dropped)

    def _intercept(self, packet: Packet) -> bool:
        return (self.active and isinstance(packet, DataPacket)
                and self._drops(packet, getattr(packet, "seq", None)))

    def _drops(self, packet: Packet, seq: Optional[int]) -> bool:
        """Draw for ``packet`` (window open); count and trace a drop."""
        if self.prob < 1.0 and self.rng.random() >= self.prob:
            return False
        self.fires += 1
        self._dropped += 1
        self._trace_drop(packet, seq)
        return True


class LinkFlapFault(_WindowFault):
    """Take a link down and up repeatedly.

    While down, every data packet arriving at the target queue is dropped
    (ACKs on the reverse path are unaffected — the model is an outage of
    the forward buffer).  Parameters: ``down_for`` (seconds per outage),
    ``period`` (outage start-to-start spacing), ``repeats``.
    """

    ACTIONS = ("down", "up")

    def __init__(self, sim, spec, target, trace=None):
        down_for = _positive(spec, "down_for", 2.0)
        period = float(spec.params.get("period", down_for * 3.0))
        if period < down_for:
            raise ValueError(
                f"period {period!r} shorter than down_for "
                f"{down_for!r}: outages would overlap"
            )
        repeats = _param(spec, "repeats", 1, ">= 1", lambda v: v >= 1)
        super().__init__(sim, spec, target, trace, down_for, 1.0, period,
                         int(repeats))


class LossBurstFault(_WindowFault):
    """Random loss with probability ``prob`` during a window of
    ``duration`` seconds from ``start`` (a burst of non-congestion loss on
    a queue or pipe)."""

    ACTIONS = ("burst_start", "burst_end")

    def __init__(self, sim, spec, target, trace=None):
        super().__init__(sim, spec, target, trace,
                         _positive(spec, "duration", 3.0), _prob(spec, 0.3))


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
        self.prob = _prob(spec, 0.1)
        self.extra_delay = _positive(spec, "extra_delay", 0.02)
        self.duration = _positive(spec, "duration")
        self._bypass: Optional[Packet] = None

    def _schedule(self) -> None:
        self._chain_intercept(self._intercept)

    def _active(self) -> bool:
        elapsed = self.sim.elapsed
        if elapsed < self.spec.start:
            return False
        if self.duration is not None:
            return elapsed < self.spec.start + self.duration
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
        self.revive_after = _positive(spec, "revive_after")

    def _schedule(self) -> None:
        self._at(self.spec.start, self._kill)
        if self.revive_after is not None:
            self._at(self.spec.start + self.revive_after, self._revive)

    def _kill(self) -> None:
        self.fires += 1
        self.target.path_down(reason="fault")
        self._fire("kill")

    def _revive(self) -> None:
        self.target.path_up(reason="fault")
        self._fire("revive")


class AckDropFault(_WindowFault):
    """Drop a fraction ``prob`` of one sender's incoming ACKs for
    ``duration`` seconds from ``start`` (a lossy reverse path).

    Cumulative ACKs make this safe — a later ACK covers the dropped one —
    but it stresses RTT estimation and timer logic.  Implemented by
    wrapping the sender's ``receive`` (senders are plain objects; queues
    and pipes use the ``intercept`` slot instead because they are
    ``__slots__``-constrained).
    """

    ACTIONS = ("window_start", "window_end")

    def __init__(self, sim, spec, target, trace=None):
        super().__init__(sim, spec, target, trace,
                         _positive(spec, "duration", 3.0), _prob(spec, 0.25))

    def _install(self) -> None:
        original = self.target.receive
        fault = self

        def guarded_receive(ack):
            if not (fault.active and isinstance(ack, AckPacket)
                    and fault._drops(ack, getattr(ack, "ack_seq", None))):
                original(ack)

        self.target.receive = guarded_receive


class _Scripted(Fault):
    """A scripted path change: part of the scenario's own timeline, not a
    perturbation of it, so it announces nothing (no ``fault.armed``) —
    the component it drives traces the transition.  Subclasses define
    ``_apply``, run once at ``start``."""

    def arm(self) -> None:
        self._at(self.spec.start, self._apply)


class RateStep(_Scripted):
    """Set a path's line rate to ``mbps`` at ``start`` (0: a coverage
    outage).  The target is anything with ``set_rate_mbps`` — a sim
    ``WirelessPath`` or an rt ``RtPath`` — so one list drives either."""

    def __init__(self, sim, spec, target, trace=None):
        super().__init__(sim, spec, target, trace=trace)
        self.mbps = _param(spec, "mbps", None, ">= 0", lambda v: v >= 0)
        self._subscribers: List[Any] = []

    def subscribe(self, callback) -> None:
        """Call ``callback(now, target, mbps)`` after the step (once the
        rate has taken effect on the target)."""
        self._subscribers.append(callback)

    def _apply(self) -> None:
        self.target.set_rate_mbps(self.mbps)
        for callback in self._subscribers:
            callback(self.sim.now, self.target, self.mbps)


class PathLiveness(_Scripted):
    """Take a managed path (target ``<connection>.<path>``, e.g. ``m.p1``)
    down or back up at ``start`` through its path manager, with
    ``cause`` (default ``"schedule"``) for the ``pathmgr`` record."""

    def __init__(self, sim, spec, target, trace=None):
        super().__init__(sim, spec, target, trace=trace)
        self.manager, self.path = target
        self.target_name = f"{self.manager.connection.name}.{self.path}"
        self.cause = str(spec.params.get("cause", "schedule"))

    def _apply(self) -> None:
        if self.spec.kind == "path_down":
            self.manager.path_down(self.path, cause=self.cause)
        else:
            self.manager.path_up(self.path, cause=self.cause)


def _of_types(*types: type):
    return lambda c: [(c.name, c)] if isinstance(c, types) else ()


def _rate_settable(c):
    return [(c.name, c)] if hasattr(c, "set_rate_mbps") else ()


def _managed_paths(c):
    # A path manager, duck-typed: the fault layer imports no pathmgr.
    if not hasattr(c, "ordered_paths"):
        return ()
    return [(f"{c.connection.name}.{p.name}", (c, p.name))
            for p in c.ordered_paths()]


#: kind -> (event class, component -> the (name, target) pairs it offers)
_KIND_MAP = {
    "link_flap": (LinkFlapFault, _of_types(DropTailQueue)),
    "loss_burst": (LossBurstFault, _of_types(DropTailQueue, Pipe)),
    "reorder": (ReorderFault, _of_types(DropTailQueue, Pipe)),
    "subflow_kill": (SubflowKillFault, _of_types(TcpSender)),
    "ack_drop": (AckDropFault, _of_types(TcpSender)),
    "rate": (RateStep, _rate_settable),
    "path_down": (PathLiveness, _managed_paths),
    "path_up": (PathLiveness, _managed_paths),
}


def _candidates(sim: Simulation, targets) -> List[Tuple[str, Any]]:
    by_name = {}
    on_path = set()
    for component in sim.components:
        if isinstance(component, Route):
            on_path.update(id(e) for e in component.elements)
            continue
        for name, target in targets(component):
            if name:
                by_name.setdefault(name, target)
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
    """Bind each spec to its target component(s) and arm it: faults and
    scripted path changes alike, in list order, at scenario time.

    Targets are matched by ``fnmatch`` glob over component names (a
    managed path is named ``<connection>.<path>``), in sorted name order
    for determinism; the first match is used unless the spec sets
    ``params["scope"] = "all"``.  Raises :class:`ValueError` when a spec
    matches nothing (listing what was available), because a silently
    unarmed fault would make a "fault tolerated" result meaningless, and
    a silently dropped path change a mobility result.
    """
    armed: List[Fault] = []
    for spec in specs:
        cls, targets = _KIND_MAP[spec.kind]
        candidates = _candidates(sim, targets)
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
