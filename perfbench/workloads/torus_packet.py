"""``torus_packet``: the packet tier, and nothing else, doing the work."""

from __future__ import annotations

from . import SpecWorkload

#: Simulated seconds per point.  The committed grid runs 25 + 60 s; the
#: twelve points have to fit several times into one timed run.
SIZES = {
    "full": {"warmup": 2.0, "duration": 4.0},
    "smoke": {"warmup": 0.25, "duration": 0.5},
}


class TorusPacket(SpecWorkload):
    name = "torus_packet"

    def __init__(self, seed, scale, scratch, tracer):
        super().__init__(seed, scale, scratch, tracer)
        from repro.exp import specs_for_grid

        with tracer.span("exp.expand", grid="fig8_torus"):
            specs = specs_for_grid("fig8_torus", seed=seed, **SIZES[scale])
        self.specs = {
            f"{s.params['algo']}@{int(s.params['capacity_c'])}": s
            for s in specs
        }
        self.kinds = list(self.specs)
        # Traced slice: the three algorithms at link C = 250.
        self.slice_kinds = [k for k in self.kinds if k.endswith("@250")]

    def link_rates(self, spec):
        return [1000.0, 1000.0, spec.params["capacity_c"], 1000.0, 1000.0]


build = TorusPacket
