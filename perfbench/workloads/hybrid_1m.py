"""``hybrid_1m``: a million aggregate flows on the fluid/hybrid tier."""

from __future__ import annotations

from dataclasses import replace

from . import SpecWorkload

FLOWS = 1_000_000

#: The committed point has 1000 classes x 1000 flows and runs 4 + 8
#: simulated seconds (26 s of host time).  Host cost follows the class
#: count, not the flow count, so the same million flows are carried by
#: fewer, larger classes over a shorter window: a unit then takes ~1.2 s,
#: short enough for its host factor to describe it and for six or more
#: repeats to fit into one run.
SIZES = {
    "full": {"classes": 160, "warmup": 1.0, "duration": 2.0},
    "smoke": {"classes": 10, "warmup": 0.25, "duration": 0.5},
}


class Hybrid1m(SpecWorkload):
    name = "hybrid_1m"

    def __init__(self, seed, scale, scratch, tracer):
        super().__init__(seed, scale, scratch, tracer)
        from repro.exp import specs_for_grid

        size = dict(SIZES[scale])
        classes = size.pop("classes")
        with tracer.span("exp.expand", grid="fig8_torus_hybrid_1m"):
            (point,) = specs_for_grid("fig8_torus_hybrid_1m", seed=seed,
                                      **size)
        params = dict(point.params, classes=classes,
                      flows_per_class=FLOWS // classes)
        self.specs["lia_1m"] = replace(point, params=params)
        self.kinds = self.slice_kinds = ["lia_1m"]

    def link_rates(self, spec):
        # The sizing rule of the torus_hybrid point function.
        p = spec.params
        at_pos = [0] * 5
        for c in range(p["classes"]):
            at_pos[c % 5] += p["flows_per_class"]
        for k in range(p["tracers"]):
            at_pos[k % 5] += 1
        rates = [p.get("per_flow_pps", 20.0) * (at_pos[i] + at_pos[i - 1])
                 for i in range(5)]
        rates[2] *= p["capacity_c_factor"]
        return rates

    def metrics(self, by_kind):
        out = super().metrics(by_kind)
        row = by_kind["lia_1m"][0].rows[0]
        out["flows_per_s"] = row["aggregate_flows"] / out["cpu_s"]
        return out

    def verify(self, by_kind):
        checks = super().verify(by_kind)
        for kind, samples in by_kind.items():
            for row in samples[0].rows:
                checks.check(row["aggregate_flows"] == FLOWS + 10,
                             f"{kind}: {row['aggregate_flows']} flows")
        return checks


build = Hybrid1m
