"""§5 / Fig 17 — the mobile walk: coverage changes, continuous rebalance.

Paper experiment: a laptop user walks around a building; WiFi disappears
on the stairwell while 3G holds; a new WiFi basestation is acquired later.
The multipath flow keeps transferring throughout and rebalances within
seconds of every coverage change, while single-path flows stall when their
medium fades.

We replay that storyline as a scripted link schedule:
  t in [0, 60):    good WiFi (14.4 Mb/s) + 3G (2.1 Mb/s)
  t in [60, 90):   stairwell — WiFi outage, 3G improves slightly
  t in [90, 150):  new basestation — WiFi back at 8 Mb/s
"""

from repro import Simulation, Table, measure
from repro.core.registry import make_controller
from repro.mptcp.connection import MptcpFlow
from repro.net.network import pps_to_mbps
from repro.obs.series import SeriesRecorder
from repro.tcp.sender import TcpFlow
from repro.topology import LinkSchedule, build_3g_path, build_wifi_path

from conftest import record

PHASES = ((10.0, 60.0), (65.0, 90.0), (95.0, 150.0))


def run_experiment(seed: int = 151):
    sim = Simulation(seed=seed)
    wifi = build_wifi_path(sim, loss_prob=0.005)
    threeg = build_3g_path(sim)
    schedule = LinkSchedule(
        sim,
        [
            (60.0, wifi, 0.0),      # stairwell: WiFi gone
            (60.0, threeg, 2.8),    # 3G a bit better there
            (90.0, wifi, 8.0),      # new basestation acquired
            (90.0, threeg, 2.1),
        ],
    )
    tcp_wifi = TcpFlow(sim, wifi.route("s1"), make_controller("reno"),
                       name="s1")
    multi = MptcpFlow(
        sim, [wifi.route("m.wifi"), threeg.route("m.3g")],
        make_controller("mptcp"), name="m", enable_reinjection=True,
    )
    rec = SeriesRecorder(sim, interval=5.0)
    rec.add_rate_probe("goodput", lambda: multi.packets_delivered)
    schedule.start()
    tcp_wifi.start()
    multi.start(at=0.2)
    rec.start()

    phase_rates = []
    wifi_subflow_rates = []
    last_total = 0
    last_wifi = 0
    for start, end in PHASES:
        sim.run_until(start)
        base_total = multi.packets_delivered
        base_wifi = multi.subflow_delivered()[0]
        sim.run_until(end)
        window = end - start
        phase_rates.append((multi.packets_delivered - base_total) / window)
        wifi_subflow_rates.append(
            (multi.subflow_delivered()[0] - base_wifi) / window
        )
    return {
        "phase_rates": phase_rates,
        "wifi_subflow_rates": wifi_subflow_rates,
        "timeline": list(zip(*rec.series("goodput"))),
    }


def test_fig17_mobile_walk(benchmark):
    out = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    names = ("good WiFi + 3G", "stairwell (no WiFi)", "new basestation")
    table = Table(["phase", "multipath Mb/s", "wifi-subflow Mb/s"], precision=2)
    for name, total, wifi_rate in zip(
        names, out["phase_rates"], out["wifi_subflow_rates"]
    ):
        table.add_row([name, pps_to_mbps(total), pps_to_mbps(wifi_rate)])
    record("fig17_mobile", table.render(
        "Fig 17 storyline: multipath throughput across coverage changes"
    ))

    good, stairwell, recovered = out["phase_rates"]
    wifi_good, wifi_stairwell, wifi_recovered = out["wifi_subflow_rates"]
    # Connection survives the WiFi outage on 3G alone.
    assert stairwell > 0.5 * 175.0       # >1 Mb/s of the 2.8 Mb/s 3G
    assert wifi_stairwell < 0.1 * wifi_good
    # And takes the new (weaker, shared with the competitor) basestation
    # back within the phase: total clearly above 3G-only, WiFi subflow
    # carrying real traffic again.
    assert recovered > 1.3 * stairwell
    assert wifi_recovered > 10.0 * max(wifi_stairwell, 1e-9)
    assert wifi_recovered > 0.3 * 175.0
    # While WiFi is good the flow uses both media, sharing WiFi with the
    # competing single-path TCP (so well above 3G alone, well below the
    # whole WiFi capacity).
    assert good > 2.0 * 175.0
    assert wifi_good > 175.0
