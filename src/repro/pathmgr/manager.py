"""The path manager: runtime subflow lifecycle for one MPTCP connection.

The paper's §5 mobility evaluation needs subflows that come and go
*during* a connection — WiFi fades in a stairwell, 3G takes over, WiFi
returns.  :class:`PathManager` owns that lifecycle:

* paths are advertised to the peer (ADD_ADDR analogue) and withdrawn
  (REMOVE_ADDR analogue) through :mod:`repro.mptcp.handshake`;
* subflows are opened through the MP_JOIN machinery (the first one
  through MP_CAPABLE ``connect``), so a middlebox that strips options or
  a peer that refuses a token degrades exactly as §6 requires — the
  connection falls back to the paths that do work;
* path death retires the subflow via
  :meth:`~repro.mptcp.connection.MptcpConnection.retire_subflow`:
  stranded data is reinjected on the survivors, the shared controller
  forgets the dead window (recomputing ``alpha`` over the new set), and
  late ACKs are dropped;
* every transition emits a ``pathmgr.*`` trace event.

Which paths get subflows is delegated to a :class:`~.policy.PathPolicy`
(``full_mesh``, ``ndiffports``, ``backup``).  New subflows are fresh
:class:`~repro.mptcp.subflow.MptcpSubflow` instances, so they start in
slow start as RFC 6356 prescribes for a changed path set.

:class:`ManagedMptcpFlow` bundles connection + receiver + manager into
the flow-shaped object the experiment harness expects.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from ..core.base import CongestionController
from ..mptcp.connection import MptcpConnection, MptcpReceiver
from ..mptcp.handshake import (
    MptcpEndpoint,
    OptionStrippingMiddlebox,
    advertise_address,
    connect,
    join_subflow,
    withdraw_address,
)
from ..mptcp.subflow import MptcpSubflow
from ..net.route import Route
from ..sim.simulation import Simulation
from .policy import PathPolicy, make_policy

__all__ = ["ManagedPath", "PathManager", "ManagedMptcpFlow"]


class ManagedPath:
    """One path under management: route, role, liveness and subflows."""

    def __init__(self, name: str, route: Route, backup: bool = False):
        self.name = name
        self.route = route
        self.backup = backup
        self.up = True
        #: MP_JOIN completed ahead of time (hot standby); consumed by the
        #: next open.
        self.prejoined = False
        #: The peer accepted our ADD_ADDR (False if stripped en route).
        self.advertised = False
        self.addr_id = 0
        #: Live (non-retired) subflows currently on this path.
        self.subflows: List[MptcpSubflow] = []
        #: Subflows ever opened here (names the next one).
        self.opens = 0

    @property
    def role(self) -> str:
        return "backup" if self.backup else "primary"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return (
            f"ManagedPath({self.name!r}, {self.role}, {state}, "
            f"subflows={len(self.subflows)})"
        )


class PathManager:
    """Runtime subflow lifecycle for one :class:`MptcpConnection`.

    Attaches itself to the connection (``connection.path_manager``), so
    path signals raised by subflows — fault injection's ``subflow_kill``,
    the handover module's rate events, a scenario's ``path_down`` /
    ``path_up`` events — arrive here and are answered by the configured
    policy.
    """

    def __init__(
        self,
        connection: MptcpConnection,
        receiver: MptcpReceiver,
        policy: Union[str, PathPolicy] = "full_mesh",
        client: Optional[MptcpEndpoint] = None,
        server: Optional[MptcpEndpoint] = None,
        middlebox: Optional[OptionStrippingMiddlebox] = None,
        sender_kwargs: Optional[dict] = None,
        trace=None,
    ):
        self.sim: Simulation = connection.sim
        self.connection = connection
        self.receiver = receiver
        self.name = f"{connection.name}.pathmgr"
        self.trace = connection.trace if trace is None else trace
        self.policy = make_policy(policy)
        self.client = client if client is not None else MptcpEndpoint(
            f"{connection.name}.client", key=1
        )
        self.server = server if server is not None else MptcpEndpoint(
            f"{connection.name}.server", key=2
        )
        self.middlebox = middlebox
        self.sender_kwargs = dict(sender_kwargs or {})

        #: None until the first path triggers establishment.
        self.multipath: Optional[bool] = None
        self.token: Optional[int] = None

        self.paths: Dict[str, ManagedPath] = {}
        self._order: List[str] = []
        self._path_of: Dict[int, str] = {}   # id(subflow) -> path name
        self._started = False
        self._next_addr_id = 1

        # Counters (scenario rows and tests read these).
        self.subflows_opened = 0
        self.subflows_closed = 0
        self.join_failures = 0

        connection.path_manager = self
        self.sim.register(self)

    # ------------------------------------------------------------------
    # Introspection helpers (used by policies and the handover module)
    # ------------------------------------------------------------------
    def path_order(self) -> List[str]:
        return list(self._order)

    def ordered_paths(self) -> List[ManagedPath]:
        return [self.paths[name] for name in self._order]

    def first_running_path(self) -> Optional[ManagedPath]:
        """The first path (in advertisement order) with a running subflow."""
        for path in self.ordered_paths():
            if path.up and any(sf.running for sf in path.subflows):
                return path
        return None

    def primaries_alive(self) -> bool:
        """Does any primary path still have a live subflow?"""
        return any(
            path.up and not path.backup and path.subflows
            for path in self.ordered_paths()
        )

    # ------------------------------------------------------------------
    # Establishment
    # ------------------------------------------------------------------
    def _establish(self) -> None:
        """MP_CAPABLE negotiation for the first subflow (§6).  A stripped
        option or non-multipath peer leaves ``multipath=False``: the first
        path still carries regular TCP, later joins all fail — the
        single-path fallback that keeps the connection alive."""
        result = connect(self.client, self.server, middlebox=self.middlebox)
        self.multipath = result.multipath
        self.token = result.connection_token

    # ------------------------------------------------------------------
    # Path advertisement / withdrawal (ADD_ADDR / REMOVE_ADDR analogues)
    # ------------------------------------------------------------------
    def add_path(
        self, route: Route, name: str = "", backup: bool = False
    ) -> ManagedPath:
        """Advertise a path and hand it to the policy."""
        label = name or route.name or f"path{len(self.paths)}"
        if label in self.paths:
            raise ValueError(f"duplicate path name {label!r}")
        if self.multipath is None:
            self._establish()
        path = ManagedPath(label, route, backup=backup)
        path.addr_id = self._next_addr_id
        self._next_addr_id += 1
        path.advertised = advertise_address(
            self.client, self.server, self.token, path.addr_id,
            middlebox=self.middlebox,
        )
        self.paths[label] = path
        self._order.append(label)
        self._emit("pathmgr.add_addr", conn=self.connection.name,
                   path=label, role=path.role)
        self.policy.on_path_added(self, path)
        return path

    def remove_path(self, name: str) -> int:
        """Withdraw a path, closing its subflows.  Returns subflows closed."""
        path = self.paths.pop(name, None)
        if path is None:
            return 0
        self._order.remove(name)
        withdraw_address(
            self.client, self.server, self.token, path.addr_id,
            middlebox=self.middlebox,
        )
        self._emit("pathmgr.remove_addr", conn=self.connection.name, path=name)
        closed = self.close_path_subflows(path, reason="remove_addr")
        path.up = False
        path.prejoined = False
        self.policy.on_path_removed(self, path)
        return closed

    # ------------------------------------------------------------------
    # Subflow mechanism (called by policies)
    # ------------------------------------------------------------------
    def open_subflow(
        self, path: ManagedPath, cause: str = "advertise"
    ) -> Optional[MptcpSubflow]:
        """Open a subflow on ``path`` through the handshake machinery.

        The very first subflow rides the MP_CAPABLE connection setup; all
        later ones need an MP_JOIN (skipped when the path was pre-joined
        for standby).  Returns None when the path is down, the connection
        is finished, or the join failed.
        """
        if self.connection.completed or not path.up:
            return None
        if self.subflows_opened > 0:
            if path.prejoined:
                path.prejoined = False
            else:
                result = join_subflow(
                    self.client, self.server, self.token,
                    middlebox=self.middlebox,
                )
                if not result.multipath:
                    self.join_failures += 1
                    self._emit(
                        "pathmgr.join_failed",
                        conn=self.connection.name,
                        path=path.name,
                        reason=result.reason,
                    )
                    return None
        path.opens += 1
        label = f"{self.connection.name}.{path.name}"
        if path.opens > 1:
            label = f"{label}.j{path.opens}"
        subflow = self.connection.add_subflow(name=label, **self.sender_kwargs)
        subflow_receiver = self.receiver.new_subflow_receiver()
        subflow.attach(path.route, subflow_receiver)
        path.subflows.append(subflow)
        self._path_of[id(subflow)] = path.name
        self.subflows_opened += 1
        self._emit(
            "pathmgr.subflow_open",
            conn=self.connection.name,
            path=path.name,
            subflow=label,
            policy=self.policy.name,
            cause=cause,
        )
        if self._started:
            subflow.start()
        return subflow

    def prejoin(self, path: ManagedPath) -> bool:
        """Complete the MP_JOIN for a standby path now, so activating it
        later costs nothing (§5.2's established-but-idle 3G subflow)."""
        if path.prejoined or not path.up:
            return path.prejoined
        result = join_subflow(
            self.client, self.server, self.token, middlebox=self.middlebox
        )
        if result.multipath:
            path.prejoined = True
        else:
            self.join_failures += 1
            self._emit(
                "pathmgr.join_failed",
                conn=self.connection.name,
                path=path.name,
                reason=result.reason,
            )
        return path.prejoined

    def activate_standby(self, cause: str = "primary_down") -> List[ManagedPath]:
        """Open subflows on every up, idle backup path."""
        activated: List[ManagedPath] = []
        for path in self.ordered_paths():
            if not path.backup or not path.up or path.subflows:
                continue
            subflow = self.open_subflow(path, cause=cause)
            if subflow is None:
                continue
            self._emit(
                "pathmgr.standby_activate",
                conn=self.connection.name,
                path=path.name,
                subflow=subflow.name,
            )
            activated.append(path)
        return activated

    def close_path_subflows(self, path: ManagedPath, reason: str) -> int:
        """Retire every subflow on ``path`` (reinjecting stranded data)."""
        closed = 0
        for subflow in list(path.subflows):
            reinjected = self.connection.retire_subflow(subflow, reason=reason)
            path.subflows.remove(subflow)
            self.subflows_closed += 1
            closed += 1
            self._emit(
                "pathmgr.subflow_close",
                conn=self.connection.name,
                path=path.name,
                subflow=subflow.name,
                reason=reason,
                reinjected=reinjected,
            )
        return closed

    # ------------------------------------------------------------------
    # Path liveness transitions
    # ------------------------------------------------------------------
    def path_down(self, name: str, cause: str = "signal") -> None:
        """A path died: close its subflows, let the policy fail over."""
        path = self.paths.get(name)
        if path is None or not path.up:
            return
        path.up = False
        path.prejoined = False   # the standby handshake died with the path
        self._emit("pathmgr.path_down", conn=self.connection.name,
                   path=name, cause=cause)
        self.close_path_subflows(path, reason="path_down")
        self.policy.on_path_down(self, path)

    def path_up(self, name: str, cause: str = "signal") -> None:
        """A failed path recovered: let the policy re-populate it."""
        path = self.paths.get(name)
        if path is None or path.up:
            return
        path.up = True
        self._emit("pathmgr.path_up", conn=self.connection.name, path=name)
        self.policy.on_path_up(self, path)

    # ------------------------------------------------------------------
    # Signals from subflows (via MptcpConnection.notice_path_*)
    # ------------------------------------------------------------------
    def on_subflow_path_down(self, subflow: MptcpSubflow, reason: str = "") -> None:
        name = self._path_of.get(id(subflow))
        if name is not None:
            # A retired subflow no longer speaks for its path, which may
            # have reopened on a fresh subflow since.
            path = self.paths.get(name)
            if path is not None and subflow in path.subflows:
                self.path_down(name, cause=reason or "fault")
            return
        # A subflow built outside the manager (e.g. attaching a manager to
        # a pre-existing MptcpFlow): retire it directly so its data still
        # fails over onto the managed subflows.
        reinjected = self.connection.retire_subflow(
            subflow, reason=reason or "fault"
        )
        self._emit(
            "pathmgr.subflow_close",
            conn=self.connection.name,
            path=subflow.name,
            subflow=subflow.name,
            reason="path_down",
            reinjected=reinjected,
        )

    def on_subflow_path_up(self, subflow: MptcpSubflow, reason: str = "") -> None:
        name = self._path_of.get(id(subflow))
        if name is not None and name in self.paths and not self.paths[name].up:
            self.path_up(name, cause=reason or "signal")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, at: Optional[float] = None) -> None:
        """Start every live subflow; later opens start automatically."""
        self._started = True
        for path in self.ordered_paths():
            for subflow in path.subflows:
                subflow.start(at=at)

    def stop(self) -> None:
        self._started = False
        for path in self.ordered_paths():
            for subflow in path.subflows:
                subflow.stop()

    # ------------------------------------------------------------------
    def _emit(self, ev: str, **fields) -> None:
        if self.trace.enabled:
            self.trace.emit(ev, self.sim.now, **fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PathManager({self.connection.name!r}, "
            f"policy={self.policy.name!r}, paths={len(self.paths)}, "
            f"opened={self.subflows_opened}, closed={self.subflows_closed})"
        )


class ManagedMptcpFlow:
    """Connection + receiver + path manager, flow-shaped.

    The managed counterpart of :class:`~repro.mptcp.connection.MptcpFlow`:
    instead of a fixed route list at construction, paths are advertised
    (and may come and go) at run time::

        flow = ManagedMptcpFlow(sim, make_controller("lia"), policy="backup")
        flow.add_path(wifi.route("m.wifi"), name="wifi")
        flow.add_path(g3.route("m.3g"), name="3g", backup=True)
        flow.start()
    """

    def __init__(
        self,
        sim: Simulation,
        controller: CongestionController,
        policy: Union[str, PathPolicy] = "full_mesh",
        transfer_packets: Optional[int] = None,
        name: str = "mptcp",
        receive_buffer: Optional[int] = None,
        app_read_rate: Optional[float] = None,
        enable_sack: bool = True,
        enable_reinjection: bool = False,
        client: Optional[MptcpEndpoint] = None,
        server: Optional[MptcpEndpoint] = None,
        middlebox: Optional[OptionStrippingMiddlebox] = None,
        **sender_kwargs: Any,
    ):
        self.sim = sim
        self.name = name
        self.connection = MptcpConnection(
            sim,
            controller,
            transfer_packets=transfer_packets,
            name=name,
            enable_reinjection=enable_reinjection,
        )
        self.receiver = MptcpReceiver(
            sim,
            name=f"{name}.rx",
            receive_buffer=receive_buffer,
            app_read_rate=app_read_rate,
            enable_sack=enable_sack,
        )
        self.manager = PathManager(
            self.connection,
            self.receiver,
            policy=policy,
            client=client,
            server=server,
            middlebox=middlebox,
            sender_kwargs=dict(sender_kwargs, enable_sack=enable_sack),
        )

    # ------------------------------------------------------------------
    def add_path(
        self, route: Route, name: str = "", backup: bool = False
    ) -> ManagedPath:
        return self.manager.add_path(route, name=name, backup=backup)

    def remove_path(self, name: str) -> int:
        return self.manager.remove_path(name)

    # ------------------------------------------------------------------
    @property
    def subflows(self) -> List[MptcpSubflow]:
        return self.connection.subflows

    @property
    def controller(self) -> CongestionController:
        return self.connection.controller

    @property
    def packets_delivered(self) -> int:
        return self.receiver.packets_delivered

    @property
    def completed(self) -> bool:
        return self.connection.completed

    def start(self, at: Optional[float] = None) -> None:
        self.manager.start(at=at)

    def stop(self) -> None:
        self.manager.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ManagedMptcpFlow({self.name!r}, "
            f"paths={len(self.manager.paths)})"
        )
