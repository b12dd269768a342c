"""WiFi↔3G handover: wiring a scenario's rate events into the path manager.

The paper's §5 mobile experiment (Fig 17) scripts the client walking out
of WiFi coverage and back; the scenario's ``rate`` events
(:class:`~repro.fault.faults.RateStep`) replay the capacity changes
against the access paths.  This module closes the loop: a
:class:`WirelessHandover` subscribes to those events and translates rate
changes into path-manager transitions.

Two migration modes:

* ``break_before_make`` — the WiFi outage itself triggers the failover:
  the path goes down, stranded data is reinjected, and the policy (or an
  explicit standby activation here) brings up the 3G subflow.  Simple,
  but the connection stalls for the detection + slow-start time.
* ``make_before_break`` — a *degradation* below ``degraded_mbps`` (the
  signal weakening as the user walks away) activates the standby while
  the WiFi subflow still carries data; by the time the outage hits, 3G
  is already warm and only the stranded tail needs reinjection.

Either way, new subflows start in slow start and the coupled controller
recomputes ``alpha`` over the changed set — the RFC 6356 behaviour the
tentpole requires.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from .manager import ManagedPath, PathManager

__all__ = ["WirelessHandover", "HANDOVER_MODES"]

#: Supported migration strategies.
HANDOVER_MODES = ("break_before_make", "make_before_break")


class WirelessHandover:
    """Drives path-manager transitions from the ``rate`` events among
    ``events`` (what ``arm_faults`` or ``CheckContext.arm`` returned)."""

    def __init__(
        self,
        manager: PathManager,
        events: Iterable[Any],
        mode: str = "break_before_make",
        degraded_mbps: Optional[float] = None,
    ):
        if mode not in HANDOVER_MODES:
            known = ", ".join(HANDOVER_MODES)
            raise ValueError(f"unknown handover mode {mode!r}; known: {known}")
        self.manager = manager
        self.mode = mode
        #: Rate at or below which a make-before-break migration pre-warms
        #: the standby (ignored in break_before_make mode).
        self.degraded_mbps = degraded_mbps
        #: Completed migrations (traffic moved to a surviving path).
        self.handovers = 0
        for event in events:
            if event.spec.kind == "rate":
                event.subscribe(self._on_rate_change)

    # ------------------------------------------------------------------
    def _on_rate_change(self, now: float, stepped: Any, mbps: float) -> None:
        # The managed path whose route runs over the stepped path.
        path = next((path for path in self.manager.ordered_paths()
                     if stepped.carries(path.route)), None)
        if path is None:
            return
        if mbps <= 0.0:
            self._outage(path)
        elif not path.up:
            self.manager.path_up(path.name, cause="schedule")
        elif (
            self.mode == "make_before_break"
            and self.degraded_mbps is not None
            and mbps <= self.degraded_mbps
        ):
            # Signal fading: warm the standby while this path still works.
            self.manager.activate_standby(cause="handover")

    def _outage(self, path: ManagedPath) -> None:
        if not path.up:
            return
        had_traffic = any(sf.running for sf in path.subflows)
        self.manager.path_down(path.name, cause="schedule")
        if self.mode == "break_before_make":
            # The policy may already have failed over (backup policy); for
            # policies without a standby notion this is a no-op.
            self.manager.activate_standby(cause="handover")
        survivor = self.manager.first_running_path()
        if had_traffic and survivor is not None:
            self.handovers += 1
            manager = self.manager
            if manager.trace.enabled:
                manager.trace.emit(
                    "pathmgr.handover",
                    manager.sim.now,
                    conn=manager.connection.name,
                    src=path.name,
                    dst=survivor.name,
                    mode=self.mode,
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WirelessHandover(mode={self.mode!r}, "
            f"handovers={self.handovers})"
        )
