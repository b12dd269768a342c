"""Declarative network-event schedules: faults and scripted path changes.

A :class:`FaultSpec` names an event kind, the element it targets (a glob
over component names), when it starts, and kind-specific parameters.  The
spec layer is deliberately plain data — dicts in, dicts out — so that
event schedules compose with :class:`~repro.exp.spec.ScenarioSpec`
parameter grids: putting ``{"faults": [spec.to_dict()]}`` in a scenario's
``params`` makes the schedule part of the sweep point's identity
(result-cache keys change when the events do).

One list holds two families: the five *faults* (:data:`FAULT_KINDS`)
perturb a run and imply invariant checking; the *scripted* kinds
(``rate``, ``path_down``, ``path_up``) are the scenario's own timeline —
Fig 17's capacity walk, a handover's outage, a churned path.  The kind
table is docs/CHECKING.md's (``tools/docs_check.py`` holds it to
:data:`EVENT_KINDS`).  :data:`FAULT_PRESETS` provides one ready-made
schedule per fault kind, used by ``repro point <scenario> --param
faults=<name>`` and handy as a starting point in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

__all__ = ["FaultSpec", "EVENT_KINDS", "FAULT_KINDS", "FAULT_PRESETS",
           "resolve_faults"]

#: The fault kinds: perturbations that imply invariant checking and count
#: toward a row's ``fault_fires``.
FAULT_KINDS = ("link_flap", "loss_burst", "reorder", "subflow_kill", "ack_drop")

#: Every kind :mod:`repro.fault.faults` arms: the faults plus the
#: scripted path changes of a scenario's own timeline.
EVENT_KINDS = FAULT_KINDS + ("rate", "path_down", "path_up")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault or scripted path change.

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
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(EVENT_KINDS)}"
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
