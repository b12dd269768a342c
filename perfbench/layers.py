"""The fold map: which layer a source file's time belongs to.

``cProfile`` attributes self time to code objects; :func:`layer_of` maps a
code object's file name to one of :data:`LAYERS` (and, inside ``rt``, to a
sub-layer).  Every package under ``src/repro/`` must appear in
:data:`PACKAGE_LAYER` — ``test_perfbench.py`` fails on a new unmapped
package rather than letting it fall silently into ``stdlib``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

__all__ = ["LAYERS", "RT_SUBLAYERS", "PACKAGE_LAYER", "layer_of", "fold"]

#: Package under ``src/repro/`` -> layer.
PACKAGE_LAYER: Dict[str, str] = {
    "sim": "sim",
    "net": "net",
    "tcp": "tcp",
    "mptcp": "mptcp",
    "core": "core",
    "pathmgr": "pathmgr",
    "fluid": "fluid",
    "hybrid": "hybrid",
    "obs": "obs",
    "check": "check",
    "fault": "check",
    "exp": "exp",
    "farm": "farm",
    "rt": "rt",
    "harness": "harness",
    "topology": "harness",
    "traffic": "harness",
    "metrics": "harness",
    "utils": "harness",
}

#: The fifteen layers, in stack order.  ``stdlib`` is everything outside
#: ``repro/``: heapq, asyncio, socket, json, pickle, os, and perfbench's
#: own thin wrappers.
LAYERS: Tuple[str, ...] = (
    "sim", "net", "tcp", "mptcp", "core", "pathmgr", "fluid", "hybrid",
    "obs", "check", "exp", "farm", "rt", "harness", "stdlib",
)

#: ``repro/rt/<module>.py`` files reported on their own as ``rt.<module>``
#: (they are also counted in ``rt``).
RT_SUBLAYERS: Tuple[str, ...] = ("codec", "wire", "netem", "loop")

_MARKER = os.sep + "repro" + os.sep


def layer_of(filename: Optional[str]) -> Tuple[str, Optional[str]]:
    """``(layer, rt sub-layer or None)`` for a code object's file name.

    Built-in functions have no file (``None``) and count as ``stdlib``.
    Top-level modules of the package (``cli.py``, ``bench.py``,
    ``__init__.py``) count as ``harness``.
    """
    if not filename:
        return "stdlib", None
    cut = filename.rfind(_MARKER)
    if cut < 0:
        return "stdlib", None
    parts = filename[cut + len(_MARKER):].split(os.sep)
    if len(parts) == 1:
        return "harness", None
    layer = PACKAGE_LAYER.get(parts[0], "stdlib")
    if layer == "rt":
        module = parts[1][:-3] if parts[1].endswith(".py") else parts[1]
        return "rt", module if module in RT_SUBLAYERS else None
    return layer, None


def fold(stats) -> Dict[str, Dict[str, float]]:
    """Fold ``cProfile.Profile.getstats()`` entries into per-layer self
    time and call counts: ``{layer: {"self_s": .., "calls": ..}}`` with
    the rt sub-layers keyed ``rt.<module>``."""
    names = list(LAYERS) + [f"rt.{m}" for m in RT_SUBLAYERS]
    out = {name: {"self_s": 0.0, "calls": 0} for name in names}
    for entry in stats:
        code = entry.code
        filename = None if isinstance(code, str) else code.co_filename
        layer, sub = layer_of(filename)
        targets = [layer] if sub is None else [layer, f"rt.{sub}"]
        for name in targets:
            out[name]["self_s"] += entry.inlinetime
            out[name]["calls"] += entry.callcount
    return out
