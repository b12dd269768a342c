#!/usr/bin/env python3
"""A tour of the controller design space on one scenario.

Runs every §2 algorithm — plus the post-paper successors OLIA, BALIA and
wVegas (docs/CONTROLLERS.md) — over the same two unequal,
unequally-congested paths and draws the resulting split: EWTCP's static
weights, COUPLED's all-in on the less-congested path, SEMICOUPLED's
biased split, MPTCP's RTT-compensated allocation, OLIA's harder shift
toward the best path, BALIA's middle ground, and wVegas falling back to
per-path behaviour when congestion shows up as loss rather than delay.

Run:  python examples/algorithm_tour.py
"""

from repro import Simulation, make_flow, measure
from repro.harness.plotting import ascii_bars
from repro.net import DropTailQueue, Pipe, Route


def paths(sim):
    """Path 1: fast but lossy (WiFi-ish).  Path 2: slow, clean (3G-ish)."""
    routes = []
    for i, (rtt, loss) in enumerate(((0.02, 0.0016), (0.2, 0.0004))):
        q = DropTailQueue(sim, 20000.0, 10**6, name=f"q{i}", jitter=0.0)
        lp = Pipe(sim, rtt / 2, name=f"lp{i}", loss_prob=loss)
        routes.append(Route(sim, [q, lp], reverse_delay=rtt / 2, name=f"p{i}"))
    return routes


def run(algo: str):
    sim = Simulation(seed=11)
    flow = make_flow(sim, paths(sim), algo, name=algo)
    flow.start()
    m = measure(sim, {algo: flow}, warmup=30.0, duration=120.0)
    return m[algo], m.subflow_rates[algo]


def main() -> None:
    print("Two fixed-loss paths: path1 = 20 ms RTT / 0.16 % loss,")
    print("                      path2 = 200 ms RTT / 0.04 % loss\n")
    rows_total, rows_p1, rows_p2 = [], [], []
    for algo in ("uncoupled", "ewtcp", "semicoupled", "coupled", "mptcp",
                 "olia", "balia", "wvegas"):
        total, (p1, p2) = run(algo)
        rows_total.append((algo, total))
        rows_p1.append((algo, p1))
        rows_p2.append((algo, p2))
    print("Total throughput (pkt/s):")
    print(ascii_bars(rows_total, unit=" pkt/s"))
    print("\nPath 1 share (fast, lossy):")
    print(ascii_bars(rows_p1, unit=" pkt/s"))
    print("\nPath 2 share (slow, clean):")
    print(ascii_bars(rows_p2, unit=" pkt/s"))
    print()
    print("COUPLED piles onto the clean path and loses the fast one;")
    print("EWTCP splits statically; MPTCP keeps most of the fast path")
    print("while probing the clean one — the §2 design story in one chart.")
    print("OLIA shifts hardest toward the better path, BALIA sits between")
    print("LIA and OLIA, and wVegas (delay-based) behaves per-path here")
    print("because these fixed-loss links never build queueing delay.")


if __name__ == "__main__":
    main()
