"""Path management (repro.pathmgr): policies, the runtime subflow
lifecycle (MP_JOIN, retirement/reinjection, standby activation), alpha
recomputation on set changes, fault composition, the WiFi→3G handover
scenarios, and the golden handover trace."""

import os
import pathlib

import pytest

from repro.check import CHECK_EVENTS, InvariantMonitor
from repro.cli import main
from repro.core.alpha import AlphaCache
from repro.core.registry import make_controller
from repro.exp import ResultCache, Runner, specs_for_grid
from repro.exp.grids import point_function
from repro.exp.spec import ScenarioSpec
from repro.fault import FaultSpec, arm_faults
from repro.harness.experiment import make_flow
from repro.mptcp.handshake import MpJoinOption, OptionStrippingMiddlebox
from repro.obs import (
    DEFAULT_EVENTS, FilterSink, JsonlSink, MemorySink, TraceBus,
)
from repro.pathmgr import (
    PATHMGR_EVENTS,
    ManagedMptcpFlow,
    NDiffPortsPolicy,
    WirelessHandover,
    make_policy,
)
from repro.sim.simulation import Simulation
from repro.topology import build_two_links
from repro.topology.wireless import build_3g_path, build_wifi_path

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_wifi_3g_handover.txt"

pytestmark = pytest.mark.pathmgr


def _two_link_flow(sim, policy="full_mesh", backup_p1=False, middlebox=None,
                   transfer=None, algo="lia"):
    """A managed two-path flow over two equal 600 pkt/s links."""
    sc = build_two_links(
        sim, 600.0, 600.0, delay1=0.030, delay2=0.030,
        buffer1_pkts=40, buffer2_pkts=40,
    )
    routes = sc.routes("multi")
    flow = ManagedMptcpFlow(
        sim, make_controller(algo), policy=policy, name="m",
        transfer_packets=transfer, middlebox=middlebox,
    )
    flow.add_path(routes[0], name="p0")
    flow.add_path(routes[1], name="p1", backup=backup_p1)
    return sc, flow


class TestPolicies:
    def test_full_mesh_opens_one_subflow_per_path(self):
        sim = Simulation(seed=1)
        _, flow = _two_link_flow(sim, policy="full_mesh")
        assert [sf.name for sf in flow.subflows] == ["m.p0", "m.p1"]
        assert flow.manager.subflows_opened == 2

    def test_ndiffports_opens_n_on_first_path_only(self):
        sim = Simulation(seed=1)
        _, flow = _two_link_flow(sim, policy=NDiffPortsPolicy(n=3))
        paths = flow.manager.paths
        assert len(paths["p0"].subflows) == 3
        assert paths["p1"].subflows == []
        assert len(flow.subflows) == 3

    def test_backup_path_is_hot_standby_until_primary_dies(self):
        sim = Simulation(seed=1)
        _, flow = _two_link_flow(sim, policy="backup", backup_p1=True)
        mgr = flow.manager
        # §5.2: the standby's MP_JOIN is completed up front, but it is idle.
        assert [sf.name for sf in flow.subflows] == ["m.p0"]
        assert mgr.paths["p1"].prejoined
        mgr.path_down("p0")
        assert [sf.name for sf in flow.subflows] == ["m.p1"]
        assert not mgr.paths["p1"].prejoined  # the prejoin was consumed
        # Primary recovery releases the standby back to prejoined-idle.
        mgr.path_up("p0")
        assert [sf.name for sf in flow.subflows] == ["m.p0.j2"]
        assert mgr.paths["p1"].subflows == []
        assert mgr.paths["p1"].prejoined

    def test_make_policy_rejects_unknown_names_and_instance_kwargs(self):
        with pytest.raises(ValueError, match="unknown path policy"):
            make_policy("round_robin")
        with pytest.raises(ValueError, match="kwargs"):
            make_policy(NDiffPortsPolicy(2), n=3)


class TestSubflowLifecycle:
    def test_runtime_add_path_starts_new_subflow_in_slow_start(self):
        sim = Simulation(seed=3)
        sc = build_two_links(sim, 600.0, 600.0, buffer1_pkts=40,
                             buffer2_pkts=40)
        routes = sc.routes("multi")
        flow = ManagedMptcpFlow(sim, make_controller("lia"), name="m")
        flow.add_path(routes[0], name="p0")
        flow.start()
        sim.run_until(5.0)
        old = flow.subflows[0]
        assert old.cwnd > old.init_cwnd
        # RFC 6356: a changed path set recomputes alpha and the newcomer
        # probes from scratch.
        flow.add_path(routes[1], name="p1")
        new = flow.subflows[1]
        assert new.in_slow_start and new.cwnd == new.init_cwnd
        assert len(flow.controller.subflows) == 2
        sim.run_until(8.0)
        assert flow.receiver.subflow_receivers[1].packets_delivered > 0

    def test_path_down_retires_reinjects_and_transfer_completes(self):
        sim = Simulation(seed=4)
        _, flow = _two_link_flow(sim, transfer=800)
        mgr = flow.manager
        flow.start()
        sim.run_until(1.5)
        mgr.path_down("p0", cause="test")
        # The dead subflow left the controller's coupled set immediately.
        assert [sf.name for sf in flow.controller.subflows] == ["m.p1"]
        sim.run_until(60.0)
        assert flow.completed
        reasm = flow.receiver.reassembler
        assert reasm.data_cum_ack - reasm.delivered == 0
        assert mgr.subflows_closed == 1

    def test_remove_path_withdraws_address_and_closes_subflows(self):
        sim = Simulation(seed=5)
        _, flow = _two_link_flow(sim)
        mgr = flow.manager
        assert mgr.remove_path("p1") == 1
        assert "p1" not in mgr.paths
        assert [sf.name for sf in flow.subflows] == ["m.p0"]
        server_addrs = mgr.server.connections[mgr.token]["addrs"]
        assert server_addrs == {mgr.paths["p0"].addr_id}

    def test_full_mesh_reopens_a_recovered_path(self):
        sim = Simulation(seed=6)
        _, flow = _two_link_flow(sim)
        mgr = flow.manager
        flow.start()
        sim.run_until(1.0)
        mgr.path_down("p1")
        sim.run_until(2.0)
        mgr.path_up("p1")
        assert [sf.name for sf in flow.subflows] == ["m.p0", "m.p1.j2"]
        assert flow.subflows[1].in_slow_start


class TestAlphaRecompute:
    def test_cache_refreshes_once_per_window_of_acks(self):
        cache = AlphaCache()
        assert cache.get([10.0, 10.0], [0.1, 0.1]) == pytest.approx(0.5)
        # Stale within the window's worth of ACKs, per RFC 6356...
        assert cache.get([18.0, 2.0], [0.1, 0.1]) == pytest.approx(0.5)
        cache.invalidate()
        assert cache.get([18.0, 2.0], [0.1, 0.1]) != pytest.approx(0.5)

    def test_cache_recomputes_immediately_on_set_size_change(self):
        cache = AlphaCache()
        assert cache.get([10.0, 10.0], [0.1, 0.1]) == pytest.approx(0.5)
        # ...but a changed subflow-set size may never serve the stale value.
        assert cache.get([10.0], [0.1]) == pytest.approx(1.0)
        assert cache.get([10.0, 10.0, 10.0], [0.1, 0.1, 0.1]) == (
            pytest.approx(1.0 / 3.0)
        )

    def test_lia_controller_drops_stale_alpha_when_a_subflow_leaves(self):
        class Stub:
            def __init__(self, cwnd, srtt):
                self.cwnd = cwnd
                self.srtt = srtt

        ctrl = make_controller("lia")
        a, b = Stub(10.0, 0.1), Stub(10.0, 0.1)
        ctrl.add_subflow(a)
        ctrl.add_subflow(b)
        ctrl.on_ack(a)
        assert ctrl.alpha == pytest.approx(0.5)
        ctrl.remove_subflow(b)
        ctrl.on_ack(a)
        # Without the set-change hook this would still be 0.5 for up to a
        # window's worth of ACKs — over-aggressive on the surviving path.
        assert ctrl.alpha == pytest.approx(1.0)


class _JoinStrippingMiddlebox(OptionStrippingMiddlebox):
    """Passes MP_CAPABLE but eats every MP_JOIN (a NAT that only
    mangles secondary-subflow SYNs)."""

    def __init__(self):
        super().__init__(strip_probability=0.0)

    def pass_option(self, option):
        if isinstance(option, MpJoinOption):
            return None
        return option


class TestJoinFailures:
    def test_token_mismatch_refuses_join_but_keeps_connection(self):
        sim = Simulation(seed=7)
        sc = build_two_links(sim, 600.0, 600.0, buffer1_pkts=40,
                             buffer2_pkts=40)
        routes = sc.routes("multi")
        flow = ManagedMptcpFlow(sim, make_controller("lia"), name="m",
                                transfer_packets=300)
        flow.add_path(routes[0], name="p0")
        flow.manager.token = 0xBAD  # blind hijack: not a token the server issued
        flow.add_path(routes[1], name="p1")
        assert flow.manager.join_failures == 1
        assert [sf.name for sf in flow.subflows] == ["m.p0"]
        flow.start()
        sim.run_until(60.0)
        assert flow.completed

    def test_stripped_mp_join_falls_back_to_single_path(self):
        sim = Simulation(seed=8)
        _, flow = _two_link_flow(
            sim, middlebox=_JoinStrippingMiddlebox(), transfer=300
        )
        mgr = flow.manager
        assert mgr.multipath is True  # MP_CAPABLE went through
        assert mgr.join_failures == 1
        assert [sf.name for sf in flow.subflows] == ["m.p0"]
        flow.start()
        sim.run_until(60.0)
        assert flow.completed

    def test_stripped_mp_capable_degrades_to_regular_tcp(self):
        sim = Simulation(seed=9)
        _, flow = _two_link_flow(
            sim, middlebox=OptionStrippingMiddlebox(), transfer=300
        )
        mgr = flow.manager
        assert mgr.multipath is False and mgr.token is None
        # The first path carries plain TCP; every later join is refused.
        assert len(flow.subflows) == 1
        assert mgr.join_failures == 1
        flow.start()
        sim.run_until(60.0)
        assert flow.completed

    def test_join_failures_are_traced(self):
        sink = MemorySink()
        sim = Simulation(seed=8, trace=TraceBus(sinks=[sink]))
        _two_link_flow(sim, middlebox=_JoinStrippingMiddlebox())
        [rec] = sink.of_type("pathmgr.join_failed")
        assert rec["path"] == "p1" and "refused" in rec["reason"]


class TestFaultComposition:
    def test_subflow_kill_fails_over_and_invariants_hold(self):
        sink = MemorySink()
        sim = Simulation(seed=11, trace=TraceBus(sinks=[sink]))
        monitor = InvariantMonitor().attach(sim)
        _, flow = _two_link_flow(sim)
        armed = arm_faults(sim, [FaultSpec(
            "subflow_kill", target="m.p0", start=3.0,
            params={"revive_after": 3.0},
        )])
        monitor.emit_attach(len(armed))
        flow.start()
        sim.run_until(10.0)
        monitor.finish()
        assert monitor.violations == 0
        [down] = sink.of_type("pathmgr.path_down")
        assert down["path"] == "p0" and down["cause"] == "fault"
        assert sink.of_type("pathmgr.path_up")
        # full_mesh reopened the revived path with a fresh subflow.
        assert [sf.name for sf in flow.subflows] == ["m.p1", "m.p0.j2"]
        reasm = flow.receiver.reassembler
        assert reasm.data_cum_ack - reasm.delivered == 0

    def test_killing_a_retired_subflow_spares_the_reopened_one(self):
        # The kill binds m.p1's first subflow when armed; by 3 s that
        # subflow is retired and m.p1.j2 carries the path.
        sink = MemorySink()
        sim = Simulation(seed=13, trace=TraceBus(sinks=[sink]))
        sc = build_two_links(sim, 1000.0, 1000.0)
        routes = sc.routes("multi")
        flow = ManagedMptcpFlow(sim, make_controller("lia"), name="m")
        flow.add_path(routes[0], name="p0")
        flow.add_path(routes[1], name="p1")
        arm_faults(sim, [
            FaultSpec("path_down", "m.p1", 1.0),
            FaultSpec("path_up", "m.p1", 2.0),
            FaultSpec("subflow_kill", "m.p1", 3.0),
        ])
        flow.start()
        sim.run_until(4.0)
        [down] = sink.of_type("pathmgr.path_down")
        assert down["t"] == 1.0
        assert [sf.name for sf in flow.subflows] == ["m.p0", "m.p1.j2"]
        assert flow.manager.paths["p1"].up

    def test_unmanaged_subflow_kill_still_emits_path_down(self):
        sink = MemorySink()
        sim = Simulation(seed=12, trace=TraceBus(sinks=[sink]))
        sc = build_two_links(sim, 1000.0, 1000.0)
        flow = make_flow(sim, sc.routes("multi"), "lia", name="m")
        arm_faults(sim, [FaultSpec("subflow_kill", target="m.sf0", start=2.0)])
        flow.start()
        sim.run_until(6.0)
        [down] = sink.of_type("pathmgr.path_down")
        assert down["path"] == "m.sf0" and down["cause"] == "fault"


class TestHandoverScenarios:
    def _spec(self, scenario, seed=17, **params):
        return ScenarioSpec(scenario=scenario, params=params, seed=seed,
                            warmup=2.0, duration=6.0)

    @pytest.mark.parametrize("mode", ["break_before_make",
                                      "make_before_break"])
    def test_handover_completes_with_zero_delivery_gap(self, mode):
        row = point_function("wifi_3g_handover")(self._spec(
            "wifi_3g_handover", mode=mode, check=1,
        ))
        assert row["handovers"] == 1
        assert row["delivery_gap"] == 0
        assert row["violations"] == 0
        assert row["outage_pps"] > 0          # 3G carried the outage
        assert row["post_pps"] > row["outage_pps"]

    def test_subflow_churn_keeps_delivering(self):
        row = point_function("subflow_churn")(self._spec(
            "subflow_churn", seed=23, policy="full_mesh",
            churn_period=2.0, check=1,
        ))
        assert row["goodput_pps"] > 0
        assert row["subflows_opened"] > 1
        assert row["delivery_gap"] == 0
        assert row["violations"] == 0

    def test_points_are_bit_identical_per_seed(self):
        spec = self._spec("wifi_3g_handover", mode="break_before_make")
        assert (point_function("wifi_3g_handover")(spec)
                == point_function("wifi_3g_handover")(spec))

    def test_handover_grid_runs_through_runner_with_cache(self, tmp_path):
        specs = specs_for_grid("wifi_3g_handover", warmup=1.0,
                               duration=3.0)[:2]
        cache = ResultCache(str(tmp_path / "cache"))
        cold = Runner(parallel=1, cache=cache)
        rows = cold.run(specs)
        assert cold.executed == 2 and cold.cache_hits == 0
        warm = Runner(parallel=1, cache=cache)
        assert warm.run(specs) == rows
        assert warm.executed == 0 and warm.cache_hits == 2

    def test_wireless_handover_rejects_unknown_mode(self):
        sim = Simulation(seed=1)
        wifi = build_wifi_path(sim)
        flow = ManagedMptcpFlow(sim, make_controller("lia"), name="m")
        flow.add_path(wifi.route("m.wifi"), name="wifi")
        with pytest.raises(ValueError, match="unknown handover mode"):
            WirelessHandover(flow.manager, [], mode="teleport")


class TestGoldenHandoverTrace:
    """Pins the exact pathmgr.*/check.* record stream of the scripted
    WiFi→3G handover (backup policy, break-before-make).  Regenerate
    after an intended change with:

        REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
            tests/test_pathmgr.py::TestGoldenHandoverTrace -q
    """

    def _emit(self, path):
        # A monitored bus, as `repro point --trace` builds it.
        bus = TraceBus(sinks=[
            FilterSink(JsonlSink(str(path)), PATHMGR_EVENTS | CHECK_EVENTS)
        ], events=DEFAULT_EVENTS)
        sim = Simulation(seed=17, trace=bus)
        monitor = InvariantMonitor().attach(sim)
        wifi = build_wifi_path(sim, name="wifi")
        g3 = build_3g_path(sim, name="3g")
        flow = ManagedMptcpFlow(sim, make_controller("lia"),
                                policy="backup", name="m")
        flow.add_path(wifi.route("m.wifi"), name="wifi")
        flow.add_path(g3.route("m.3g"), name="3g", backup=True)
        monitor.emit_attach(0)
        events = arm_faults(sim, [
            FaultSpec("rate", "wifi", 5.0, {"mbps": 2.0}),    # fading signal
            FaultSpec("rate", "wifi", 6.0, {"mbps": 0.0}),    # coverage lost
            FaultSpec("rate", "wifi", 11.0, {"mbps": 14.4}),  # coverage back
        ])
        WirelessHandover(flow.manager, events, mode="break_before_make")
        flow.start()
        sim.run_until(14.0)
        monitor.finish()
        bus.close()

    def test_matches_golden_and_validates(self, tmp_path, capsys):
        path = tmp_path / "wifi_3g_handover.jsonl"
        self._emit(path)
        got = path.read_text()
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN.parent.mkdir(exist_ok=True)
            GOLDEN.write_text(got)
            pytest.skip("golden file regenerated")
        assert main(["trace-validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        assert GOLDEN.exists(), (
            "golden trace missing; regenerate with REPRO_REGEN_GOLDEN=1"
        )
        assert got == GOLDEN.read_text()
