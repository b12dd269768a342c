"""``rt_loopback``: the real-socket stack on loopback UDP."""

from __future__ import annotations

import time
from typing import Dict, List

from . import Checks, Sample, Workload, med, stopwatch

ALGO = "lia"
PATHS = 2
DELAY = 0.005
BUFFER_PKTS = 100
PACED_MBPS = 30.0
SATURATED_MBPS = 400.0
#: The repo's own sim-vs-real tolerance on goodput
#: (``repro.rt.divergence.DEFAULT_TOLERANCES``).
TWIN_TOLERANCE = 0.35
#: Each phase warms up for ``warm`` seconds on fresh sockets, then times
#: the delivery of a fixed number of packets.
SIZES = {
    "full": {"warm": 0.6, "paced_pkts": 7200, "saturated_pkts": 15000},
    "smoke": {"warm": 0.2, "paced_pkts": 500, "saturated_pkts": 3000},
}


class RtLoopback(Workload):
    name = "rt_loopback"
    # The paced units leave the core mostly idle; the reference kernel
    # run after them measures the core waking up, not the host's speed.
    host_normalised = False

    def __init__(self, seed, scale, scratch, tracer):
        super().__init__(seed, scale, scratch, tracer)
        from repro.net.network import mbps_to_pps

        self.size = SIZES[scale]
        self.paced_capacity = PATHS * mbps_to_pps(PACED_MBPS)
        self.kinds = ["paced", "saturated"]
        self.slice_kinds = list(self.kinds)
        self.counts = dict.fromkeys(
            ("rt.datagrams_sent", "rt.datagrams_corrupt", "rt.netem_drops",
             "rt.ctrl_frames"), 0)

    # ------------------------------------------------------------------
    def run_unit(self, kind: str) -> Sample:
        from repro.core.registry import make_controller
        from repro.mptcp.handshake import (AddAddrOption, MpCapableOption,
                                           MpJoinOption)
        from repro.pathmgr import ManagedMptcpFlow
        from repro.rt import NetemProfile, RtPath, RtSimulation

        sample = Sample(kind)
        rate = PACED_MBPS if kind == "paced" else SATURATED_MBPS
        target = self.size[f"{kind}_pkts"]
        profile = NetemProfile(delay=DELAY, rate_mbps=rate,
                               buffer_pkts=BUFFER_PKTS)
        span = self.tracer.span
        sim = RtSimulation(seed=self.seed)
        try:
            with span("rt.open", phase=kind):
                flow = ManagedMptcpFlow(sim, make_controller(ALGO), name="m")
                paths = [RtPath(sim, f"p{i}", profile=profile)
                         for i in range(PATHS)]
                for i, path in enumerate(paths):
                    flow.add_path(path.route(f"m.p{i}"), name=f"p{i}")
                flow.start()
                # The handshake decisions are synchronous; mirror them
                # onto the wire as CTRL frames, as rt.scenarios does.
                manager = flow.manager
                paths[0].send_option(
                    MpCapableOption(sender_key=manager.client.key))
                for name, path in zip(manager.path_order(), paths):
                    path.send_option(
                        AddAddrOption(addr_id=manager.paths[name].addr_id))
                if manager.token is not None:
                    for path in paths[1:]:
                        path.send_option(MpJoinOption(token=manager.token))
            with span("rt.warmup", phase=kind):
                sim.run_for(self.size["warm"])
            with span(f"rt.{kind}", packets=target), stopwatch(sample):
                base = flow.packets_delivered
                # A transfer ten times slower than the paced line rate
                # has failed; do not wait for it.
                deadline = time.perf_counter() + (
                    10.0 * target / self.paced_capacity)
                while flow.packets_delivered - base < target:
                    if time.perf_counter() > deadline:
                        raise RuntimeError(
                            f"{flow.packets_delivered - base} of {target} "
                            "packets at the deadline")
                    sim.run_for(0.005)
                sample.work = flow.packets_delivered - base
            reasm = flow.receiver.reassembler
            sample.rows = [{
                "delivery_gap": reasm.data_cum_ack - reasm.delivered,
                "join_failures": manager.join_failures,
            }]
            for path in paths:
                self.counts["rt.datagrams_sent"] += (
                    path.fwd.sent + path.rev.sent)
                self.counts["rt.netem_drops"] += (
                    path.fwd.dropped + path.rev.dropped)
                self.counts["rt.datagrams_corrupt"] += path.codec_errors
                self.counts["rt.ctrl_frames"] += len(path.options_received)
        finally:
            with span("rt.close", phase=kind):
                sim.close()
        return sample

    def work_counts(self):
        return dict(self.counts)

    # ------------------------------------------------------------------
    def metrics(self, by_kind: Dict[str, List[Sample]]) -> Dict[str, float]:
        # The end-to-end numbers are the paced transfer's: the saturated
        # one swings by a third from run to run on a shared host (a
        # second of slow start, losses and kernel scheduling), so it is
        # reported only through its own metrics, beside its utilisation.
        out: Dict[str, float] = {}
        paced = by_kind.get("paced")
        if paced:
            out["wall_s"] = self.cost(paced, "wall")
            out["cpu_s"] = self.cost(paced, "cpu")
            out["sim_s_per_s"] = med([s.wall / s.cpu for s in paced])
            out["rt_paced_efficiency"] = (
                self.rate(paced, "wall") / self.paced_capacity)
            out["rt_cpu_us_per_pkt"] = 1e6 / self.rate(paced, "cpu")
        saturated = by_kind.get("saturated")
        if saturated:
            out["rt_sat_goodput_pps"] = self.rate(saturated, "wall")
            out["rt_sat_cpu_util"] = med([s.cpu / s.wall for s in saturated])
        return out

    def verify(self, by_kind) -> Checks:
        checks = Checks()
        checks.errors(by_kind)
        for kind, samples in by_kind.items():
            for sample in samples:
                for row in sample.rows:
                    checks.row(kind, row, None)
                    checks.check(row["join_failures"] == 0,
                                 f"{kind}: {row['join_failures']} "
                                 "join failures")
        paced = [s for s in by_kind.get("paced", ()) if s.error is None]
        if paced:
            real = med([s.work / s.wall for s in paced])
            twin = self._sim_twin(med([s.wall for s in paced]))
            checks.check(abs(real - twin) <= TWIN_TOLERANCE * twin,
                         f"paced goodput {real:.0f} pkt/s is more than "
                         f"{TWIN_TOLERANCE:.0%} from its sim twin "
                         f"{twin:.0f} pkt/s")
        return checks

    def _sim_twin(self, duration: float) -> float:
        """Goodput of the paced phase on the simulator: the same flow
        over queue + pipe paths with the netem profile's parameters."""
        from repro.core.registry import make_controller
        from repro.pathmgr import ManagedMptcpFlow
        from repro.sim.simulation import Simulation
        from repro.topology.wireless import build_wifi_path

        sim = Simulation(seed=self.seed)
        flow = ManagedMptcpFlow(sim, make_controller(ALGO), name="m")
        for i in range(PATHS):
            path = build_wifi_path(
                sim, rate_mbps=PACED_MBPS, rtt_floor=2.0 * DELAY,
                buffer_pkts=BUFFER_PKTS, loss_prob=0.0, name=f"p{i}")
            flow.add_path(path.route(f"m.p{i}"), name=f"p{i}")
        flow.start()
        warm = self.size["warm"]
        sim.run_until(warm)
        base = flow.packets_delivered
        sim.run_until(warm + duration)
        return (flow.packets_delivered - base) / duration

    def digest_rows(self, by_kind):
        return None  # wall-clock measurements: nothing repeats exactly


build = RtLoopback
