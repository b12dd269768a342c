"""Fault injection (repro.fault): seeded schedules arm against named
components, fire reproducibly, and the protocol invariants hold under
every fault kind.  Includes the golden check/fault trace for the
link-flap-on-two-subflow-LIA scenario and the CLI determinism check."""

import json
import os
import pathlib

import pytest

from repro.check import (
    CHECK_EVENTS, InvariantMonitor, observe_simulations, trace_override,
)
from repro.cli import main
from repro.core.registry import make_controller
from repro.exp import specs_for_grid
from repro.exp.grids import point_function
from repro.exp.claims import tolerance_scale
from repro.exp.spec import ScenarioSpec
from repro.fault import (
    FAULT_PRESETS,
    FaultSpec,
    arm_faults,
    resolve_faults,
)
from repro.harness.experiment import make_flow, measure
from repro.mptcp.connection import MptcpFlow
from repro.obs import (
    DEFAULT_EVENTS, FilterSink, JsonlSink, MemorySink, TraceBus,
)
from repro.sim.simulation import Simulation
from repro.topology import build_two_links, build_wifi_path

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_link_flap.txt"

pytestmark = pytest.mark.fault

#: One fast schedule per kind, sized for a 10-simulated-second run.
FAST_FAULTS = {
    "link_flap": {"kind": "link_flap", "target": "s1->d1", "start": 2.0,
                  "params": {"down_for": 1.0, "period": 3.0, "repeats": 2}},
    "loss_burst": {"kind": "loss_burst", "target": "s1->d1", "start": 2.0,
                   "params": {"duration": 3.0, "prob": 0.3}},
    "reorder": {"kind": "reorder", "target": "s1->d1", "start": 1.0,
                "params": {"prob": 0.1, "extra_delay": 0.02,
                           "duration": 6.0}},
    "subflow_kill": {"kind": "subflow_kill", "target": "m.sf0", "start": 4.0},
    "ack_drop": {"kind": "ack_drop", "target": "m.sf0", "start": 2.0,
                 "params": {"duration": 3.0, "prob": 0.25}},
}


def _run_two_links(faults=None, seed=7, end=10.0):
    """Monitored two-subflow LIA run over two 1000 pkt/s links."""
    sink = MemorySink()
    bus = TraceBus(sinks=[sink])
    sim = Simulation(seed=seed, trace=bus)
    monitor = InvariantMonitor().attach(sim)
    sc = build_two_links(sim, 1000.0, 1000.0)
    flow = make_flow(sim, sc.routes("multi"), "lia", name="m")
    armed = arm_faults(sim, resolve_faults(faults)) if faults else []
    monitor.emit_attach(len(armed))
    flow.start()
    m = measure(sim, {"m": flow}, warmup=2.0, duration=end - 2.0)
    monitor.finish()
    return sim, monitor, armed, sink, m


class TestFaultKinds:
    @pytest.mark.parametrize("kind", sorted(FAST_FAULTS))
    def test_fires_and_invariants_hold(self, kind):
        _, monitor, armed, sink, _ = _run_two_links([FAST_FAULTS[kind]])
        (fault,) = armed
        assert fault.fires > 0
        assert monitor.violations == 0
        (armed_ev,) = sink.of_type("fault.armed")
        assert armed_ev["fault"] == kind
        assert sink.of_type("fault.fire")

    def test_link_flap_depresses_only_the_faulted_path(self):
        _, _, _, _, clean = _run_two_links()
        _, _, armed, sink, faulted = _run_two_links(
            [FAST_FAULTS["link_flap"]]
        )
        clean1, clean2 = clean.subflow_rates["m"]
        fault1, fault2 = faulted.subflow_rates["m"]
        assert fault1 < 0.8 * clean1          # flapped path loses goodput
        assert fault2 > 0.8 * clean2          # other path unaffected
        actions = [r["action"] for r in sink.of_type("fault.fire")]
        assert actions == ["down", "up", "down", "up"]
        # every outage reports how many packets it swallowed
        ups = [r for r in sink.of_type("fault.fire") if r["action"] == "up"]
        assert sum(r["count"] for r in ups) == armed[0].fires

    def test_subflow_kill_moves_traffic_to_survivor(self):
        _, _, _, _, faulted = _run_two_links(
            [FAST_FAULTS["subflow_kill"]], end=12.0
        )
        killed, survivor = faulted.subflow_rates["m"]
        assert killed < survivor / 3.0

    def test_injected_drops_traced_with_fault_kind(self):
        _, _, armed, sink, _ = _run_two_links([FAST_FAULTS["loss_burst"]])
        drops = [r for r in sink.of_type("pkt.drop") if r["kind"] == "fault"]
        assert len(drops) == armed[0].fires
        assert all(r["elem"] == "s1->d1" for r in drops)


class TestReproducibility:
    def test_identical_seeds_give_identical_faulted_runs(self):
        spec = [FAST_FAULTS["loss_burst"]]
        _, mon_a, armed_a, sink_a, m_a = _run_two_links(spec)
        _, mon_b, armed_b, sink_b, m_b = _run_two_links(spec)
        assert armed_a[0].fires == armed_b[0].fires
        assert m_a.rates == m_b.rates
        fault_events = lambda s: [r for r in s
                                  if r["ev"].startswith(("fault.", "check."))]
        assert fault_events(sink_a) == fault_events(sink_b)
        assert mon_a.stats() == mon_b.stats()

    def test_arming_does_not_perturb_the_simulation_stream(self):
        # A fault scheduled beyond the horizon must leave the run
        # bit-identical to a clean one: fault RNGs are derived streams,
        # never draws from sim.rng.
        sim_clean, _, _, _, clean = _run_two_links()
        dormant = {"kind": "loss_burst", "target": "s1->d1", "start": 99.0,
                   "params": {"duration": 1.0, "prob": 0.5}}
        sim_armed, _, armed, _, with_dormant = _run_two_links([dormant])
        assert armed[0].fires == 0
        assert clean.rates == with_dormant.rates
        assert sim_clean.rng.getstate() == sim_armed.rng.getstate()


class TestSpecsAndTargeting:
    def test_spec_dict_roundtrip(self):
        spec = FaultSpec("reorder", target="q*", start=1.5,
                         params={"prob": 0.2})
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_flat_dict_keys_become_params(self):
        spec = resolve_faults({"kind": "loss_burst", "prob": 0.5})[0]
        assert spec.params["prob"] == 0.5

    def test_unknown_kind_and_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor_strike")
        with pytest.raises(ValueError, match="unknown fault preset"):
            resolve_faults("meteor_strike")

    def test_presets_resolve(self):
        for name in FAULT_PRESETS:
            (spec,) = resolve_faults(name)
            assert spec.kind == name

    def test_unmatched_target_raises_listing_candidates(self):
        from repro.pathmgr import ManagedMptcpFlow

        sim = Simulation(seed=1)
        sc = build_two_links(sim, 1000.0, 1000.0)
        make_flow(sim, sc.routes("multi"), "lia", name="m")
        with pytest.raises(ValueError, match="s1->d1"):
            arm_faults(sim, [FaultSpec("link_flap", target="nope*")])
        # A scripted path change is never a silent no-op either: an
        # unknown path, or a managed path of another connection.
        flow = ManagedMptcpFlow(sim, make_controller("lia"), name="c")
        for i, route in enumerate(sc.routes("multi")):
            flow.add_path(route, name=f"p{i}")
        build_wifi_path(sim)
        for kind, target, listed in (("rate", "lte", "wifi"),
                                     ("path_down", "c.p9", "c.p1"),
                                     ("path_up", "m.p0", "c.p0")):
            with pytest.raises(ValueError, match=listed):
                arm_faults(sim, [FaultSpec(kind, target, 1.0, {"mbps": 1.0})])

    @pytest.mark.parametrize("kind, params", [
        ("loss_burst", {"duration": -1.0}),
        ("ack_drop", {"duration": -1.0}),
        ("reorder", {"duration": 0.0}),
        ("link_flap", {"repeats": 0}),
        ("subflow_kill", {"revive_after": 0.0}),
        ("rate", {"mbps": -1.0}),
    ], ids=["loss_burst.duration", "ack_drop.duration", "reorder.duration",
            "link_flap.repeats", "subflow_kill.revive_after", "rate.mbps"])
    def test_a_window_that_cannot_open_and_close_is_rejected(self, kind,
                                                             params):
        """Regression: a negative ``duration`` closed a loss burst before
        it opened, so it stayed active for the rest of the run; the other
        values armed a fault that never fired or revived before it
        killed.  Each is refused when the spec is bound."""
        sim = Simulation(seed=1)
        sc = build_two_links(sim, 1000.0, 1000.0)
        make_flow(sim, sc.routes("multi"), "lia", name="m")
        build_wifi_path(sim)
        with pytest.raises(ValueError, match=next(iter(params))):
            arm_faults(sim, [FaultSpec(kind, start=2.0, params=params)])

    def test_scope_all_arms_every_match(self):
        sim = Simulation(seed=1)
        sc = build_two_links(sim, 1000.0, 1000.0)
        make_flow(sim, sc.routes("multi"), "lia", name="m")
        armed = arm_faults(sim, [
            FaultSpec("link_flap", target="s?->d?", start=1.0,
                      params={"scope": "all", "down_for": 0.5}),
        ])
        assert sorted(f.target_name for f in armed) == ["s1->d1", "s2->d2"]

    def test_bare_glob_prefers_a_data_path_queue(self):
        # "*" must bind to a queue that actually carries data, not a
        # reverse-twin buffer or an ACK pipe whose name sorts earlier.
        sim = Simulation(seed=1)
        sc = build_two_links(sim, 1000.0, 1000.0)
        make_flow(sim, sc.routes("multi"), "lia", name="m")
        (fault,) = arm_faults(sim, [FaultSpec("loss_burst")])
        assert fault.target_name == "s1->d1"


class TestExperimentComposition:
    def test_faults_in_params_change_the_cache_key(self):
        base = ScenarioSpec(scenario="rtt_ratio",
                            params={"c2": 800.0, "rtt2": 0.05})
        faulted = ScenarioSpec(
            scenario="rtt_ratio",
            params={"c2": 800.0, "rtt2": 0.05,
                    "faults": [FAST_FAULTS["link_flap"]]},
        )
        assert base.key_material() != faulted.key_material()

    def test_point_function_reports_check_columns_only_when_asked(self):
        plain = ScenarioSpec(
            scenario="rtt_ratio", params={"c2": 400.0, "rtt2": 0.05},
            seed=3, warmup=2.0, duration=2.0,
        )
        row = point_function("rtt_ratio")(plain)
        assert "violations" not in row and "fault_fires" not in row

        checked = ScenarioSpec(
            scenario="rtt_ratio",
            params={"c2": 400.0, "rtt2": 0.05, "check": 1,
                    "faults": [{"kind": "ack_drop", "target": "M.sf0",
                                "start": 2.0,
                                "params": {"duration": 1.0, "prob": 0.3}}]},
            seed=3, warmup=2.0, duration=2.0,
        )
        row = point_function("rtt_ratio")(checked)
        assert row["violations"] == 0
        assert row["fault_fires"] > 0

        # Only the fault kinds imply check: a scripted path change in
        # "faults" arms (the row moves), but adds no monitor columns.
        churn = dict(scenario="subflow_churn", seed=3, warmup=2.0,
                     duration=2.0)
        scripted = point_function("subflow_churn")(ScenarioSpec(
            params={"faults": [{"kind": "path_down", "target": "m.p0",
                                "start": 2.5}]}, **churn))
        assert "violations" not in scripted and "fault_fires" not in scripted
        assert scripted != point_function("subflow_churn")(
            ScenarioSpec(params={}, **churn))


    @pytest.mark.parametrize("tier", [
        pytest.param("packet", id="sim"),
        pytest.param("rt", marks=pytest.mark.realnet),
    ])
    def test_fault_start_is_scenario_time_on_every_backend(self, tier):
        """Regression: faults scheduled ``spec.start`` on the backend
        clock's own epoch, so on real sockets (raw monotonic ``now``) a
        kill with ``start=1.5`` fired 1 ms into the run and an ACK-drop
        window was open from the first packet.  ``start`` is scenario
        time: seconds after the run origin, whatever the backend — also
        for a scripted ``rate`` step and ``path_down``/``path_up`` pair
        on the same event list (on a third path, clear of the faults)."""
        sink = MemorySink()
        spec = ScenarioSpec(
            scenario="rt_loopback",
            params={"tier": tier, "paths": 3, "faults": [
                {"kind": "subflow_kill", "target": "m.p1*", "start": 1.5},
                {"kind": "ack_drop", "target": "m.p0*", "start": 0.6,
                 "params": {"duration": 0.5, "prob": 0.2}},
                {"kind": "rate", "target": "p2", "start": 0.4,
                 "params": {"mbps": 1.0}},
                {"kind": "path_down", "target": "m.p2", "start": 0.8},
                {"kind": "path_up", "target": "m.p2", "start": 1.2},
            ]},
            seed=5, warmup=0.2, duration=1.6,
        )
        steps = []

        def watch_rate_steps(sim):
            def wrap(component):
                if getattr(component, "name", "") == "p2" and hasattr(
                        component, "set_rate_mbps"):
                    inner = component.set_rate_mbps

                    def set_rate_mbps(mbps):
                        steps.append((sim.elapsed, mbps))
                        inner(mbps)
                    component.set_rate_mbps = set_rate_mbps
            sim.on_register(wrap)

        with trace_override(TraceBus(sinks=[sink])), \
                observe_simulations(watch_rate_steps):
            row = point_function("rt_loopback")(spec)
        assert row["violations"] == 0 and row["delivery_gap"] == 0
        runs = sink.of_type("rt.run")
        origin = runs[0]["origin_mono"] if runs else 0.0
        fired = {ev["action"]: ev["t"] - origin
                 for ev in sink.of_type("fault.fire")}
        for ev in ("pathmgr.path_down", "pathmgr.path_up"):
            [fired[ev]] = [rec["t"] - origin for rec in sink.of_type(ev)
                           if rec["path"] == "p2"]
        [(fired["rate"], mbps)] = steps
        assert mbps == 1.0
        # Generous on rt: a loaded machine delays timers, never advances
        # them — the parent's 1.499 s error is far outside either bound.
        slack = 0.0 if tier == "packet" else 0.4 * tolerance_scale()
        for action, start in (("window_start", 0.6), ("window_end", 1.1),
                              ("kill", 1.5), ("rate", 0.4),
                              ("pathmgr.path_down", 0.8),
                              ("pathmgr.path_up", 1.2)):
            assert start <= fired[action] <= start + slack, (action, fired)
        drops = [ev["t"] - origin for ev in sink.of_type("pkt.drop")
                 if ev["kind"] == "fault"]
        assert drops and all(0.6 <= t <= 1.1 + slack for t in drops)


class TestCliCheck:
    # No other --param: the CLI runs the Fig 8 grid's first point.
    ARGS = ["point", "torus_balance", "--param", "faults=link_flap",
            "--seed", "1", "--warmup", "2", "--duration", "4"]

    def test_monitored_faulted_run_is_bit_identical_across_repeats(
        self, tmp_path, capsys
    ):
        out1 = tmp_path / "run1.jsonl"
        out2 = tmp_path / "run2.jsonl"
        assert main(self.ARGS + ["--trace", str(out1)]) == 0
        assert main(self.ARGS + ["--trace", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert b'"fault.fire"' in out1.read_bytes()
        grid_point = json.dumps(specs_for_grid("fig8_torus")[0].params)
        assert grid_point[1:-1] in capsys.readouterr().out
        capsys.readouterr()
        assert main(["trace-validate", str(out1)]) == 0
        assert "OK" in capsys.readouterr().out


class TestGoldenLinkFlapTrace:
    """Pins the exact check.*/fault.* record stream of the link-flap on
    two-subflow-LIA scenario.  Regenerate after an intended change with:

        REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
            tests/test_fault_injection.py::TestGoldenLinkFlapTrace -q
    """

    def _emit(self, path):
        bus = TraceBus(
            sinks=[FilterSink(JsonlSink(str(path)), CHECK_EVENTS)],
            events=DEFAULT_EVENTS,  # a monitored bus, as `repro point` builds
        )
        sim = Simulation(seed=7, trace=bus)
        monitor = InvariantMonitor().attach(sim)
        sc = build_two_links(sim, 1000.0, 1000.0)
        flow = MptcpFlow(sim, sc.routes("multi"), make_controller("lia"),
                         name="m")
        armed = arm_faults(sim, [FaultSpec(
            "link_flap", target="s1->d1", start=2.0,
            params={"down_for": 1.0, "period": 3.0, "repeats": 2},
        )])
        monitor.emit_attach(len(armed))
        flow.start()
        sim.run_until(12.0)
        monitor.finish()
        bus.close()

    def test_matches_golden_and_validates(self, tmp_path, capsys):
        path = tmp_path / "link_flap.jsonl"
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
