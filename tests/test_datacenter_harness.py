"""Tests for the data-center traffic matrices (small fabrics)."""

from repro.harness.datacenter import start_matrix
from repro.harness.experiment import measure
from repro.sim.simulation import Simulation
from repro.topology import BCube, FatTree
from repro.traffic import permutation_matrix


def _run(sim, net, pairs, algorithm, paths, duration, bcube=None):
    """Start and measure one matrix; returns per-flow rates, per-link loss
    and mean per-host goodput as a fraction of a 500 pkt/s NIC."""
    flows, sources = start_matrix(
        sim, net, pairs, algorithm, path_count=paths, bcube=bcube
    )
    m = measure(sim, flows, warmup=2.0, duration=duration,
                links=net.all_links())
    rates = m.rates
    loss = {name: m.loss[name] for name, n in m.arrivals.items() if n}
    per_host = {}
    for name, rate in rates.items():
        per_host[sources[name]] = per_host.get(sources[name], 0.0) + rate
    return rates, loss, sum(per_host.values()) / len(per_host) / 500.0


class TestRunMatrixFatTree:
    def _run(self, algorithm, paths, seed=5):
        sim = Simulation(seed=seed)
        ft = FatTree.build(sim, k=4, rate_pps=500.0, buffer_pkts=50)
        pairs = permutation_matrix(ft.hosts, sim.rng)
        return _run(sim, ft.net, pairs, algorithm, paths, duration=3.0)

    def test_one_flow_per_pair(self):
        rates, _, _ = self._run("single", 1)
        assert len(rates) == 16

    def test_multipath_beats_single_path_ecmp(self):
        _, _, single = self._run("single", 1)
        _, _, multi = self._run("mptcp", 4)
        assert multi > single

    def test_utilisation_bounded_by_nic(self):
        _, _, utilisation = self._run("mptcp", 4)
        assert 0.0 < utilisation <= 1.05

    def test_link_loss_reported_for_busy_links(self):
        _, loss, _ = self._run("single", 1)
        assert loss  # at least the congested links report
        assert all(0.0 <= v < 1.0 for v in loss.values())


class TestRunMatrixBCube:
    def test_bcube_parallel_paths_used(self):
        sim = Simulation(seed=6)
        bc = BCube.build(sim, n=3, k=1, rate_pps=500.0, buffer_pkts=50)
        pairs = permutation_matrix(bc.hosts, sim.rng)
        rates, _, utilisation = _run(
            sim, bc.net, pairs, "mptcp", 2, duration=3.0, bcube=bc
        )
        assert len(rates) == 9
        # Multipath over 2 interfaces can exceed one NIC's rate per host.
        assert utilisation > 0.3

    def test_bcube_multipath_uses_multiple_interfaces(self):
        """Sparse traffic: a BCube host's multipath flow exceeds what a
        single interface could carry (the §4 'NIC bottleneck' claim)."""
        sim = Simulation(seed=7)
        bc = BCube.build(sim, n=3, k=1, rate_pps=500.0, buffer_pkts=50)
        pairs = [(bc.hosts[0], bc.hosts[4])]
        rates, _, _ = _run(
            sim, bc.net, pairs, "mptcp", 2, duration=4.0, bcube=bc
        )
        only_rate = list(rates.values())[0]
        assert only_rate > 1.2 * 500.0
