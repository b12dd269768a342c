"""Dynamic path management: the runtime subflow lifecycle (§5, RFC 6356).

The congestion controller couples the windows of whatever subflows exist;
this package decides *which* subflows exist, and when.  A
:class:`PathManager` attaches to an
:class:`~repro.mptcp.connection.MptcpConnection`, advertises paths to the
peer (ADD_ADDR/REMOVE_ADDR analogues), opens subflows through the MP_JOIN
handshake under a pluggable :class:`~.policy.PathPolicy` (``full_mesh``,
``ndiffports``, ``backup``), and retires them on path death — reinjecting
stranded data and recomputing the coupled ``alpha`` over the new set.
:class:`WirelessHandover` connects a scenario's ``rate`` events
(:mod:`repro.fault`) to those transitions for the §5 WiFi→3G mobility
experiments; ``path_down`` / ``path_up`` events script them directly.

See ``docs/PATH_MANAGEMENT.md``.
"""

from .._exports import lazy_exports

#: Public name -> the module defining it (loaded on first use).
_EXPORTS = {
    "BackupPolicy": ".policy",
    "FullMeshPolicy": ".policy",
    "HANDOVER_MODES": ".handover",
    "ManagedMptcpFlow": ".manager",
    "ManagedPath": ".manager",
    "NDiffPortsPolicy": ".policy",
    "PATHMGR_EVENTS": "..obs.schema",
    "POLICIES": ".policy",
    "PathManager": ".manager",
    "PathPolicy": ".policy",
    "WirelessHandover": ".handover",
    "make_policy": ".policy",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
