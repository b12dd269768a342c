#!/usr/bin/env python3
"""Data center (§4): multipath TCP vs ECMP single-path in a FatTree.

Runs the registered ``datacenter`` point on a k=4 FatTree (16 hosts)
with a random-permutation traffic matrix (TP1), under single-path TCP
(one random shortest path per flow — the paper's ECMP mimic) and under
EWTCP and MPTCP with 4 paths per flow, and compares utilisation and
fairness.  ``python -m repro point datacenter --param k=4 ...`` prints
the same rows.

Run:  python examples/datacenter_fattree.py
"""

from repro.exp import ScenarioSpec, point_function

LINK_RATE = 2083.0  # 25 Mb/s links, keeps the demo quick


def run(algorithm: str, paths: int) -> None:
    row = point_function("datacenter")(ScenarioSpec(
        "datacenter", seed=3, warmup=3.0, duration=5.0,
        params={"topology": "fattree", "k": 4, "pattern": "TP1",
                "algo": algorithm, "paths": paths, "rate": LINK_RATE,
                "buffer": 100},
    ))
    worst = row["rate_quartiles"][0]
    print(f"{algorithm:>8s} ({paths} path{'s' if paths > 1 else ''}): "
          f"mean {row['util_pct']:5.1f}% of NIC,  "
          f"worst flow {100 * worst / LINK_RATE:5.1f}%,  "
          f"Jain {row['jain']:.3f}")


def main() -> None:
    print(f"FatTree k=4, 16 hosts, random permutation (TP1), "
          f"links {LINK_RATE:.0f} pkt/s\n")
    run("single", 1)
    run("ewtcp", 4)
    run("mptcp", 4)
    print()
    print("Single-path flows that hashed onto a congested core link are")
    print("stuck with it; multipath flows find the spare capacity, lifting")
    print("both mean utilisation and the worst flow (the paper's §4 story).")


if __name__ == "__main__":
    main()
