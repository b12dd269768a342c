"""``zoo_checked``: the packet tier under the invariant monitor, for all
nine registry controllers."""

from __future__ import annotations

from . import SpecWorkload, med

ALGOS = ("uncoupled", "ewtcp", "coupled", "semicoupled", "lia", "cubic",
         "olia", "balia", "wvegas")
CAPACITY_C = 250.0

SIZES = {
    "full": {"warmup": 0.5, "duration": 1.0},
    "smoke": {"warmup": 0.25, "duration": 0.5},
}


class ZooChecked(SpecWorkload):
    name = "zoo_checked"

    def __init__(self, seed, scale, scratch, tracer):
        super().__init__(seed, scale, scratch, tracer)
        from repro.exp import ScenarioSpec

        with tracer.span("exp.expand", grid="zoo"):
            for algo in ALGOS:
                for mode in ("plain", "checked"):
                    params = {"algo": algo, "capacity_c": CAPACITY_C}
                    if mode == "checked":
                        params["check"] = 1
                    self.specs[f"{algo}.{mode}"] = ScenarioSpec(
                        scenario="torus_balance", params=params, seed=seed,
                        **SIZES[scale])
        self.kinds = list(self.specs)
        self.slice_kinds = [f"{a}.checked" for a in ("lia", "olia", "wvegas")]

    def link_rates(self, spec):
        return [1000.0, 1000.0, CAPACITY_C, 1000.0, 1000.0]

    def rated(self, kinds):
        return [k for k in kinds if k.endswith(".checked")]

    def metrics(self, by_kind):
        out = super().metrics(by_kind)
        # A ratio of neighbours needs no host factor: within a pass the
        # checked run follows the plain run of the same controller.
        ratios = [
            med([c.cpu / p.cpu for c, p in zip(by_kind[f"{a}.checked"],
                                               by_kind[f"{a}.plain"])])
            for a in ALGOS
            if f"{a}.checked" in by_kind and f"{a}.plain" in by_kind]
        if ratios:
            out["monitor_slowdown_x"] = med(ratios)
        return out


build = ZooChecked
