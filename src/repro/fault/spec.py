"""Declarative fault schedules.

A :class:`FaultSpec` names a fault kind, the element it targets (a glob
over component names), when it starts, and kind-specific parameters.  The
spec layer is deliberately plain data — dicts in, dicts out — so that
fault schedules compose with :class:`~repro.exp.spec.ScenarioSpec`
parameter grids: putting ``{"faults": [spec.to_dict()]}`` in a scenario's
``params`` makes the fault schedule part of the sweep point's identity
(result-cache keys change when the faults do).

:data:`FAULT_PRESETS` provides one ready-made schedule per kind, used by
``repro point <scenario> --param faults=<name>`` and handy as a starting
point in tests:

========== =============================================================
link_flap   take a link down/up repeatedly (§5's wireless handover story)
loss_burst  a burst of random loss on one element
reorder     delay a fraction of packets so they arrive out of order
subflow_kill stop one subflow's sender mid-run (path failure)
ack_drop    drop a fraction of one sender's ACKs (lossy reverse path)
========== =============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

__all__ = ["FaultSpec", "FAULT_KINDS", "FAULT_PRESETS", "resolve_faults"]

#: The fault kinds implemented by :mod:`repro.fault.faults`.
FAULT_KINDS = ("link_flap", "loss_burst", "reorder", "subflow_kill", "ack_drop")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``target`` is an ``fnmatch``-style glob over component names; by
    default the first matching component (in sorted name order, for
    determinism) is faulted, or every match when ``params["scope"]`` is
    ``"all"``.  ``start`` is scenario time — seconds after the run
    origin (``sim.at(start)``) — on every backend.
    """

    kind: str
    target: str = "*"
    start: float = 0.0
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.start < 0:
            raise ValueError(f"fault start must be >= 0, got {self.start!r}")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form, suitable for ScenarioSpec params / JSON."""
        return {
            "kind": self.kind,
            "target": self.target,
            "start": self.start,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        """Inverse of :meth:`to_dict`.  Unknown top-level keys are folded
        into ``params`` so flat dicts like ``{"kind": "loss_burst",
        "prob": 0.5}`` also work."""
        data = dict(data)
        kind = data.pop("kind")
        target = data.pop("target", "*")
        start = data.pop("start", 0.0)
        params = dict(data.pop("params", {}))
        params.update(data)  # remaining flat keys are parameters
        return cls(kind=kind, target=target, start=start, params=params)


#: One representative schedule per kind (timings suit short monitored
#: runs of ``repro point``; override per-field with dicts).
FAULT_PRESETS: Dict[str, FaultSpec] = {
    "link_flap": FaultSpec(
        "link_flap", target="*", start=5.0,
        params={"down_for": 2.0, "period": 6.0, "repeats": 2},
    ),
    "loss_burst": FaultSpec(
        "loss_burst", target="*", start=5.0,
        params={"duration": 3.0, "prob": 0.3},
    ),
    "reorder": FaultSpec(
        "reorder", target="*", start=1.0,
        params={"prob": 0.1, "extra_delay": 0.02},
    ),
    "subflow_kill": FaultSpec("subflow_kill", target="*.sf0", start=8.0),
    "ack_drop": FaultSpec(
        "ack_drop", target="*", start=5.0,
        params={"duration": 3.0, "prob": 0.25},
    ),
}

FaultLike = Union[None, str, Dict[str, Any], FaultSpec]


def resolve_faults(value: Union[FaultLike, List[FaultLike]]) -> List[FaultSpec]:
    """Normalise any reasonable fault description to a list of specs.

    Accepts ``None`` (no faults), a preset name, a dict (see
    :meth:`FaultSpec.from_dict`), a :class:`FaultSpec`, or a list mixing
    all of the above.
    """
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        specs: List[FaultSpec] = []
        for item in value:
            specs.extend(resolve_faults(item))
        return specs
    if isinstance(value, FaultSpec):
        return [value]
    if isinstance(value, str):
        preset = FAULT_PRESETS.get(value)
        if preset is None:
            raise ValueError(
                f"unknown fault preset {value!r}; available: "
                f"{', '.join(sorted(FAULT_PRESETS))}"
            )
        return [preset]
    if isinstance(value, dict):
        return [FaultSpec.from_dict(value)]
    raise TypeError(f"cannot interpret {value!r} as a fault spec")
