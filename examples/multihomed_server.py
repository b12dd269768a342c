#!/usr/bin/env python3
"""Multihomed server (§3 / Fig 10): congestion balancing across uplinks.

A dual-homed server has 5 clients on link 1 and 15 on link 2 — link 2 is
three times as congested.  Ten multipath flows join; watch them shift
their traffic onto the emptier link and narrow the gap.

Run:  python examples/multihomed_server.py
"""

from repro import Simulation, make_flow, mbps_to_pps, measure, pps_to_mbps
from repro.topology import build_two_links


def main() -> None:
    sim = Simulation(seed=5)
    rate = mbps_to_pps(100)
    sc = build_two_links(
        sim, rate, rate, delay1=0.010, delay2=0.010,
        buffer1_pkts=100, buffer2_pkts=100,
    )

    group1 = [
        make_flow(sim, [sc.net.route(["s1", "d1"], name=f"g1.{i}")],
                  "reno", name=f"g1.{i}")
        for i in range(5)
    ]
    group2 = [
        make_flow(sim, [sc.net.route(["s2", "d2"], name=f"g2.{i}")],
                  "reno", name=f"g2.{i}")
        for i in range(15)
    ]
    for i, f in enumerate(group1 + group2):
        f.start(at=0.02 * i)

    multis = [
        make_flow(
            sim,
            [sc.net.route(["s1", "d1"], name=f"m{i}.1"),
             sc.net.route(["s2", "d2"], name=f"m{i}.2")],
            "mptcp",
            name=f"m{i}",
        )
        for i in range(10)
    ]

    def report_clients(m):
        g1 = sum(m[f.name] for f in group1) / 5
        g2 = sum(m[f.name] for f in group2) / 15
        print(f"  link-1 client: {pps_to_mbps(g1):5.1f} Mb/s each")
        print(f"  link-2 client: {pps_to_mbps(g2):5.1f} Mb/s each")

    clients = {f.name: f for f in group1 + group2}
    print("phase 1: 5 TCPs on link 1, 15 TCPs on link 2 (no multipath)")
    report_clients(measure(sim, clients, warmup=30.0, duration=30.0))

    print("\nphase 2: 10 MPTCP flows join, able to use both links")
    for i, f in enumerate(multis):
        f.start(at=sim.now + 0.05 * i)
    m = measure(sim, {**clients, **{f.name: f for f in multis}},
                warmup=90.0, duration=60.0)
    report_clients(m)
    link1_share = sum(m.subflow_rates[f.name][0] for f in multis)
    link2_share = sum(m.subflow_rates[f.name][1] for f in multis)
    print(f"  MPTCP aggregate on link 1: {pps_to_mbps(link1_share):5.1f} Mb/s, "
          f"on link 2: {pps_to_mbps(link2_share):5.1f} Mb/s")
    print()
    print("Only a third of the flows are multipath, yet they rebalance the")
    print("server's uplinks by crowding onto the less-congested one.")


if __name__ == "__main__":
    main()
