"""The metric catalogue: ``BENCHMARK.json`` is the only list of names.

Code produces values keyed by name; units, directions and regression
bounds are read from the file, so a name the code prints but the file
does not list (or the other way round) is an error, not a drift.
"""

from __future__ import annotations

import functools
import json
from typing import Dict

from . import REPO_ROOT

__all__ = ["load", "end_to_end", "per_layer", "unit", "fill"]


@functools.lru_cache(maxsize=1)
def load() -> dict:
    path = REPO_ROOT / "BENCHMARK.json"
    return json.loads(path.read_text(encoding="utf-8"))


def end_to_end() -> Dict[str, dict]:
    return {m["name"]: m for m in load()["end_to_end"]}


def per_layer() -> Dict[str, dict]:
    return {m["name"]: m for m in load()["per_layer"]}


def unit(name: str) -> str:
    entry = end_to_end().get(name) or per_layer()[name]
    return entry["unit"]


def fill(metrics: Dict[str, float], traced: bool) -> None:
    """Check produced names against the catalogue; in a traced run make
    the result exactly the per-layer list (a layer a workload does not
    touch reads 0)."""
    known = {**end_to_end(), **per_layer()}
    unknown = sorted(set(metrics) - set(known))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    if traced:
        values = {name: metrics.get(name, 0.0) for name in per_layer()}
        metrics.clear()
        metrics.update(values)
