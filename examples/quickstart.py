#!/usr/bin/env python3
"""Quickstart: a two-path MPTCP flow vs a single-path TCP.

Builds two independent bottleneck links, runs a single-path TCP over link
1 and an MPTCP connection (the paper's coupled algorithm) over both links,
and prints the goodput each achieves.

Run:  python examples/quickstart.py

With ``--trace out.jsonl`` the run also emits a structured event trace
(enqueues, drops, deliveries, cwnd updates, data ACKs — the schema is in
docs/OBSERVABILITY.md) that `python -m repro trace-validate out.jsonl`
checks and docs/OBSERVABILITY.md shows how to turn into a cwnd time series.
"""

from repro import (
    JsonlSink,
    Network,
    Simulation,
    TraceBus,
    make_flow,
    measure,
    pps_to_mbps,
)
from repro.obs import DEFAULT_EVENTS


def main(trace_path: str = None) -> None:
    bus = None
    if trace_path:
        # Protocol-level events only: engine.event_fired is one record per
        # scheduler dispatch and would dwarf everything else.
        bus = TraceBus(
            sinks=[JsonlSink(trace_path)],
            events=DEFAULT_EVENTS,
        )
    sim = Simulation(seed=1, trace=bus)
    net = Network(sim)

    # Two 12 Mb/s links (1000 pkt/s of 1500-byte packets), 50 ms one-way
    # delay, buffers of one bandwidth-delay product.
    net.add_link("client", "server", rate_pps=1000, delay=0.05, buffer_pkts=100)
    net.add_link("client2", "server2", rate_pps=1000, delay=0.05, buffer_pkts=100)

    tcp = make_flow(
        sim, [net.route(["client", "server"])], "reno", name="single-path"
    )
    mptcp = make_flow(
        sim,
        [net.route(["client", "server"]), net.route(["client2", "server2"])],
        "mptcp",
        name="multipath",
    )
    tcp.start()
    mptcp.start(at=0.1)

    # Warm up 20 s, measure 60 s.
    result = measure(
        sim, {"tcp": tcp, "mptcp": mptcp}, warmup=20.0, duration=60.0
    )

    print("Two 12 Mb/s links, single-path TCP shares link 1 with MPTCP:")
    print(f"  single-path TCP : {result['tcp']:7.1f} pkt/s "
          f"({pps_to_mbps(result['tcp']):.1f} Mb/s)")
    print(f"  MPTCP (2 paths) : {result['mptcp']:7.1f} pkt/s "
          f"({pps_to_mbps(result['mptcp']):.1f} Mb/s)")
    split = result.subflow_rates["mptcp"]
    print(f"  MPTCP per-path  : {split[0]:.1f} / {split[1]:.1f} pkt/s")
    print()
    print("MPTCP fills the idle link 2 and, being coupled, leans away from")
    print("the link it shares with the TCP flow (taking less than half of")
    print("it) — yet its total comfortably beats the best single path.")

    if bus is not None:
        bus.close()
        print(f"\ntrace: {bus.events_emitted} events written to {trace_path}")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a structured JSONL event trace to PATH",
    )
    # parse_known_args so running under a test harness's argv still works
    args, _ = parser.parse_known_args()
    main(trace_path=args.trace)
