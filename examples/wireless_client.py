#!/usr/bin/env python3
"""Wireless client (§5): WiFi + 3G, competing traffic, and a coverage gap.

Reproduces the storyline of the paper's mobile experiments: an MPTCP
connection uses a fast lossy WiFi path and a slow overbuffered 3G path
simultaneously, competes with a single-path TCP on WiFi, survives a WiFi
outage, and rebalances when coverage returns.

Run:  python examples/wireless_client.py
"""

from repro import Simulation, make_flow, measure, pps_to_mbps
from repro.fault import FaultSpec, arm_faults
from repro.topology import build_3g_path, build_wifi_path


def main() -> None:
    sim = Simulation(seed=7)
    wifi = build_wifi_path(sim)     # 14.4 Mb/s, 10 ms RTT, 1% loss
    threeg = build_3g_path(sim)     # 2.1 Mb/s, overbuffered (RTT > 1 s)

    # A single-path TCP competes on the WiFi medium.
    competitor = make_flow(sim, [wifi.route("tcp")], "reno", name="tcp-wifi")

    # The multipath client uses both interfaces with the MPTCP algorithm.
    client = make_flow(
        sim,
        [wifi.route("m.wifi"), threeg.route("m.3g")],
        "mptcp",
        name="client",
        enable_reinjection=True,
    )

    # Walk storyline: WiFi disappears at t=40 s, comes back weaker at 70 s.
    arm_faults(sim, [
        FaultSpec("rate", "wifi", 40.0, {"mbps": 0.0}),
        FaultSpec("rate", "wifi", 70.0, {"mbps": 8.0}),
    ])

    competitor.start()
    client.start(at=0.2)

    print("t(s)   client Mb/s   wifi-subflow   3g-subflow   tcp-wifi Mb/s")
    flows = {"client": client, "tcp": competitor}
    for step in range(1, 10):
        t = step * 10.0
        m = measure(sim, flows, warmup=t - 10.0, duration=10.0)
        wifi_rate, threeg_rate = m.subflow_rates["client"]
        note = ""
        if 40 <= t - 10 < 70:
            note = "   <- WiFi outage"
        elif t - 10 >= 70:
            note = "   <- new basestation (8 Mb/s)"
        print(f"{t:4.0f}   {pps_to_mbps(m['client']):8.2f}      "
              f"{pps_to_mbps(wifi_rate):8.2f}     "
              f"{pps_to_mbps(threeg_rate):8.2f}     "
              f"{pps_to_mbps(m['tcp']):8.2f}{note}")

    print()
    print("The multipath client keeps transferring through the outage on 3G")
    print("and takes the new WiFi basestation within seconds — without")
    print("harming the competing single-path WiFi flow.")


if __name__ == "__main__":
    main()
