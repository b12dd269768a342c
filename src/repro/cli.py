"""Command-line experiment runner: ``python -m repro <command>``.

Gives downstream users one-line access to the paper's scenarios without
writing harness code — any registered point function, one row:

    python -m repro algorithms
    python -m repro point shared_bottleneck --param algo=mptcp
    python -m repro point datacenter --param k=4 --param paths=4 --duration 3

The paper's figures and tables, as cached grids whose claims are checked
(see EXPERIMENTS.md):

    python -m repro sweep paper --parallel 4
    python -m repro sweep paper_fig1

Observability (see docs/OBSERVABILITY.md for the event schema):

    python -m repro trace --scenario quickstart --out trace.jsonl
    python -m repro trace-validate trace.jsonl
    python -m repro series --scenario twolinks --out series.csv

Parameter sweeps over worker processes (see docs/RUNNER.md):

    python -m repro sweep --list
    python -m repro sweep fig16_rtt --parallel 4
    python -m repro sweep demo_rtt --parallel 2 --trace sweep.jsonl

Distributed, crash-resumable farm execution (see docs/RUNNER.md):

    python -m repro farm serve fig16_rtt --root /shared/farm --workers 2
    python -m repro farm work /shared/farm          # on any other host
    python -m repro farm status /shared/farm

Invariant-checked (optionally fault-injected) runs (see docs/CHECKING.md):

    python -m repro check --scenario torus_balance --fault link_flap --seed 1
    python -m repro check --scenario rtt_ratio --param c2=1600 --out check.jsonl

Path management and mobility (see docs/PATH_MANAGEMENT.md):

    python -m repro handover --mode make_before_break
    python -m repro handover --policy full_mesh --trace handover.jsonl
    python -m repro sweep wifi_3g_handover --parallel 2

Real-network backend: the same state machines over loopback UDP sockets
(see docs/REALNET.md):

    python -m repro rt --algo lia --netem lan --trace rt.jsonl
    python -m repro rt --handover --mode make_before_break
    python -m repro rt --divergence
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .check import CHECK_EVENTS, InvariantViolation, trace_override
from .core.registry import ALGORITHMS
from .exp import CLAIMS, ResultCache, Runner, specs_for_grid
from .exp.grids import SCENARIOS, point_function
from .exp.paper import failed_claim
from .exp.spec import ScenarioSpec, TaskSpec, grid_points
from .fault import FAULT_PRESETS
from .harness.experiment import make_flow, standard_series
from .harness.table import Table
from .net.network import pps_to_mbps
from .obs import (
    DEFAULT_EVENTS,
    EVENT_TYPES,
    FilterSink,
    JsonlSink,
    TraceBus,
    TraceSchemaError,
    validate_jsonl,
)
from .pathmgr import HANDOVER_MODES, PATHMGR_EVENTS, POLICIES
from .rt import divergence_report
from .rt.divergence import tolerance_scale as rt_tolerance_scale
from .rt.netem import PROFILES as RT_PROFILES
from .sim.simulation import Simulation
from .topology import (
    SWEEP_GRIDS,
    build_two_links,
    build_3g_path,
    build_wifi_path,
)

__all__ = ["main"]


def _cmd_algorithms(_args) -> int:
    table = Table(["name", "controller"])
    for name in sorted(ALGORITHMS):
        table.add_row([name, ALGORITHMS[name]().__class__.__name__])
    print(table.render("Available congestion control algorithms"))
    return 0


def _cmd_sweep(args) -> int:
    if args.list:
        table = Table(["grid", "points", "scenario", "description"])
        for name in sorted(SWEEP_GRIDS):
            grid = SWEEP_GRIDS[name]
            points = len(grid_points(grid["parameters"]))
            table.add_row([name, points, grid["scenario"], grid["title"]])
        print(table.render("Named sweep grids (python -m repro sweep <grid>)"))
        return 0
    if args.grid is None:
        print("error: name a grid to run, or pass --list", file=sys.stderr)
        return 2
    names = [args.grid]
    if args.grid == "paper":  # the family: every grid that carries claims
        names = [name for name in SWEEP_GRIDS if name in CLAIMS]
    specs = {
        name: specs_for_grid(
            name, seed=args.seed, warmup=args.warmup, duration=args.duration
        )
        for name in names
    }
    # The Runner validates its counts; build it before the trace file is
    # opened so a bad count leaves nothing behind.
    try:
        runner = Runner(
            parallel=args.parallel,
            cache=None if args.no_cache else ResultCache(args.cache_dir),
            timeout=args.timeout,
            retries=args.retries,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bus = None
    if args.trace:
        bus = runner.trace = TraceBus(sinks=[JsonlSink(args.trace)])
    try:
        rows = runner.run([s for name in names for s in specs[name]])
    finally:
        if bus is not None:
            bus.close()
    # A claim is a statement about the registered seed and windows.
    registered = (args.seed is None and args.warmup is None
                  and args.duration is None)
    by_grid, failed, start = {}, [], 0
    for name in names:
        grid_rows = by_grid[name] = rows[start:start + len(specs[name])]
        start += len(grid_rows)
        table = Table(list(grid_rows[0]), precision=4)
        for row in grid_rows:
            table.add_row(list(row.values()))
        print(table.render(SWEEP_GRIDS[name]["title"]))
        if name not in CLAIMS:
            continue
        failure = failed_claim(name, grid_rows) if registered else None
        if failure:
            failed.append(name)
        print(f"{name}: " + (
            "claims skipped (seed/warmup/duration overridden)"
            if not registered
            else f"CLAIM FAILED at {failure}" if failure else "claims hold"
        ))
    print(
        f"{len(rows)} points in {runner.wall:.1f}s wall "
        f"(workers={args.parallel}): {runner.executed} executed, "
        f"{runner.cache_hits} cache hits, {runner.retried} retries"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(by_grid if args.grid == "paper" else rows, fh, indent=2)
        print(f"wrote {len(rows)} rows to {args.out}")
    if failed:
        print(f"FAIL: claims failed on {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_farm_serve(args) -> int:
    from .farm import run_farm

    specs = specs_for_grid(
        args.grid, seed=args.seed, warmup=args.warmup, duration=args.duration
    )
    tasks = [TaskSpec(index=i, spec=s) for i, s in enumerate(specs)]
    bus = None
    if args.trace:
        bus = TraceBus(sinks=[JsonlSink(args.trace)])
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    try:
        broker = run_farm(
            tasks, args.root, workers=args.workers, cache=cache, trace=bus,
            max_failures=args.retries, lease_ttl=args.lease_ttl,
        )
        rows = [broker.raw[t.index] for t in tasks]
    finally:
        if bus is not None:
            bus.close()
    print(
        f"farm complete: {len(rows)} rows ({args.grid}) in {args.root}; "
        f"executed={broker.executed}, store_hits={broker.store_hits}, "
        f"requeued={broker.requeued}"
    )
    print(f"rows: {args.root}/rows.jsonl")
    return 0


def _cmd_farm_work(args) -> int:
    from .farm import work

    processed = work(
        args.root, worker_id=args.id, lease_ttl=args.lease_ttl,
        max_tasks=args.max_tasks, idle_timeout=args.idle_timeout,
    )
    print(f"worker done: {processed} task(s) processed")
    return 0


def _cmd_farm_status(args) -> int:
    from .farm import FarmError, farm_status

    try:
        status = farm_status(args.root)
    except FarmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    table = Table(["quantity", "value"])
    for key in ("state", "tasks", "done", "queued", "leased", "executed",
                "failures"):
        table.add_row([key, status[key]])
    print(table.render(f"farm {args.root}"))
    return 0 if status["state"] != "failed" else 1


#: Required-parameter defaults so ``repro point X`` / ``repro check
#: --scenario X`` run without spelling out a full grid point (override
#: any of them with ``--param``).
CHECK_SCENARIO_DEFAULTS = {
    "torus_balance": {"capacity_c": 250.0},
    "rtt_ratio": {"c2": 800.0, "rtt2": 0.05},
}


def _parse_param(text: str):
    """``key=value`` with JSON-typed values (bare words stay strings)."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {text!r}"
        )
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _run_point(spec: ScenarioSpec, bus: Optional[TraceBus]):
    """Run ``spec``'s point function, its monitored bus being ``bus`` if
    given (closed afterwards); returns the row, or ``None`` after
    reporting an invariant violation."""
    try:
        with trace_override(bus):
            return point_function(spec.scenario)(spec)
    except InvariantViolation as exc:
        print(f"VIOLATION: {exc}", file=sys.stderr)
        return None
    finally:
        if bus is not None:
            bus.close()


def _cmd_point(args) -> int:
    """``point`` runs one registered point function and prints its row;
    ``check`` is the same run under the invariant monitor, optionally
    fault-injected, streaming ``check.*``/``fault.*`` records as JSONL."""
    checked = args.command == "check"
    params = dict(CHECK_SCENARIO_DEFAULTS.get(args.scenario, {}))
    params.update(args.param or ())
    title = f"{args.scenario} (seed {args.seed})"
    sink = bus = None
    log = sys.stdout
    if checked:
        params["check"] = 1
        if args.fault:
            params["faults"] = list(args.fault)
        faults = ", ".join(args.fault) if args.fault else "none"
        title = f"checked {args.scenario} (seed {args.seed}, faults: {faults})"
        # The FilterSink narrows the JSONL output to check.*/fault.*
        # records while the invariant monitor (attached to the same bus
        # inside the point function) still sees everything the bus records.
        sink = JsonlSink(sys.stdout if args.out == "-" else args.out)
        bus = TraceBus(
            sinks=[FilterSink(sink, CHECK_EVENTS)], events=DEFAULT_EVENTS
        )
        if args.out == "-":
            log = sys.stderr
    row = _run_point(ScenarioSpec(
        scenario=args.scenario, params=params, seed=args.seed,
        warmup=args.warmup, duration=args.duration,
    ), bus)
    if row is None:
        return 1
    table = Table(["quantity", "value"], precision=4)
    for key, value in row.items():
        table.add_row([key, value])
    print(table.render(title), file=log)
    if checked:
        print(f"wrote {sink.records_written} check/fault events"
              + ("" if args.out == "-" else f" to {args.out}"), file=log)
    return 0


def _print_handover(row: dict, title: str) -> None:
    """The phase table and counter line of a handover row (either
    backend: ``repro handover`` and ``repro rt --handover``)."""
    table = Table(["phase", "pkt/s", "Mb/s"], precision=1)
    for phase, key in (("before outage", "pre_pps"),
                       ("during outage", "outage_pps"),
                       ("after recovery", "post_pps")):
        table.add_row([phase, row[key], pps_to_mbps(row[key])])
    print(table.render(title))
    print(
        f"handovers={row['handovers']}  "
        f"subflows opened={row['subflows_opened']} "
        f"closed={row['subflows_closed']}  "
        f"join failures={row['join_failures']}  "
        f"delivery gap={row['delivery_gap']}  "
        f"violations={row['violations']}"
    )


def _cmd_handover(args) -> int:
    spec = ScenarioSpec(
        scenario="wifi_3g_handover",
        params={
            "algo": args.algo,
            "policy": args.policy,
            "mode": args.mode,
            "degraded_mbps": args.degraded_mbps,
            "check": 1,
        },
        seed=args.seed,
        warmup=args.warmup,
        duration=args.duration,
    )
    sink = bus = None
    if args.trace:
        sink = JsonlSink(args.trace)
        kept = FilterSink(sink, PATHMGR_EVENTS | CHECK_EVENTS)
        bus = TraceBus(sinks=[kept], events=DEFAULT_EVENTS)
    row = _run_point(spec, bus)
    if row is None:
        return 1
    _print_handover(
        row,
        f"WiFi→3G handover: {args.algo}, {args.policy} policy, "
        f"{args.mode} (seed {args.seed})",
    )
    if args.trace:
        print(f"wrote {sink.records_written} pathmgr/check events "
              f"to {args.trace}")
    if row["delivery_gap"]:
        print("FAIL: nonzero delivery gap — data acknowledged at "
              "connection level but never delivered in order",
              file=sys.stderr)
        return 1
    return 0


def _cmd_rt(args) -> int:
    """Real-backend demos: loopback transfer, handover, divergence."""
    scenario = "rt_handover" if args.handover else "rt_loopback"
    duration = args.duration
    if duration is None:
        duration = 4.5 if args.handover else 2.0
    params = {"algo": args.algo, "check": 1}
    if args.handover:
        params["mode"] = args.mode
    else:
        params["netem"] = args.netem
    spec = ScenarioSpec(
        scenario=scenario, params=params, seed=args.seed,
        warmup=args.warmup, duration=duration,
    )
    sink = bus = None
    if args.trace:
        sink = JsonlSink(args.trace)
        bus = TraceBus(sinks=[sink], events=DEFAULT_EVENTS)
    try:
        if args.divergence:
            report = divergence_report(spec, trace=bus)
            print(report)
            try:
                report.assert_within()
            except AssertionError as exc:
                print(f"FAIL: {exc}", file=sys.stderr)
                return 1
            print("divergence within tolerance "
                  f"(scale={rt_tolerance_scale():g})")
            return 0
        with trace_override(bus):
            row = point_function(scenario)(spec)
    except InvariantViolation as exc:
        print(f"VIOLATION: {exc}", file=sys.stderr)
        return 1
    finally:
        if bus is not None:
            bus.close()
    if args.handover:
        _print_handover(
            row,
            f"WiFi→3G handover on real UDP sockets: {args.algo} "
            f"(seed {args.seed})",
        )
    else:
        table = Table(["metric", "value"], precision=1)
        table.add_row(["goodput (pkt/s)", row["goodput_pps"]])
        table.add_row(["goodput (Mb/s)", pps_to_mbps(row["goodput_pps"])])
        table.add_row(["delivered packets", row["delivered"]])
        table.add_row(["mean total cwnd", row["cwnd_mean"]])
        print(table.render(
            f"two-subflow {args.algo} over loopback UDP "
            f"(netem={args.netem}, seed {args.seed})"
        ))
        print(
            f"subflows={row['subflows_opened']}  "
            f"ctrl frames={row['ctrl_frames']}  "
            f"delivery gap={row['delivery_gap']}  "
            f"violations={row['violations']}"
        )
    if args.trace:
        print(f"wrote {sink.records_written} events to {args.trace}")
    if row["delivery_gap"]:
        print("FAIL: nonzero delivery gap on the real backend",
              file=sys.stderr)
        return 1
    return 0


#: Scenarios the observability commands can build (small, fast shapes that
#: cover single-path, multipath and wireless instrumentation).
OBS_SCENARIOS = ("quickstart", "twolinks", "wireless")


def _build_obs_scenario(sim: Simulation, scenario: str, algo: str):
    """Build one of :data:`OBS_SCENARIOS`; returns (flows, queues)."""
    if scenario in ("quickstart", "twolinks"):
        sc = build_two_links(
            sim, 1000.0, 1000.0, delay1=0.05, delay2=0.05,
            buffer1_pkts=100, buffer2_pkts=100,
        )
        queues = [sc.net.link("s1", "d1").queue, sc.net.link("s2", "d2").queue]
        flows = {}
        if scenario == "quickstart":
            # The examples/quickstart.py shape: a single-path TCP sharing
            # link 1 with a two-path multipath flow.
            tcp = make_flow(sim, sc.routes("link1"), "reno", name="tcp")
            tcp.start()
            flows["tcp"] = tcp
        multi = make_flow(sim, sc.routes("multi"), algo, name="mptcp")
        multi.start(at=0.1)
        flows["mptcp"] = multi
        return flows, queues
    if scenario == "wireless":
        wifi = build_wifi_path(sim)
        threeg = build_3g_path(sim)
        flow = make_flow(
            sim, [wifi.route("m.wifi"), threeg.route("m.3g")], algo, name="m"
        )
        flow.start()
        return {"m": flow}, [wifi.queue, threeg.queue]
    raise ValueError(f"unknown scenario {scenario!r}")


def _cmd_trace(args) -> int:
    events = DEFAULT_EVENTS  # engine.event_fired is opt-in
    if args.events:
        events = {e.strip() for e in args.events.split(",") if e.strip()}
        unknown = events - set(EVENT_TYPES)
        if unknown:
            print(f"unknown event types: {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
    to_stdout = args.out == "-"
    sink = JsonlSink(sys.stdout if to_stdout else args.out)
    bus = TraceBus(sinks=[sink], events=events)
    sim = Simulation(seed=args.seed, trace=bus)
    _build_obs_scenario(sim, args.scenario, args.algo)
    sim.run_until(args.duration)
    sim.finish()
    bus.close()
    log = sys.stderr if to_stdout else sys.stdout
    print(f"wrote {sink.records_written} events "
          f"({args.scenario}, {args.algo}, {args.duration:.0f}s simulated)"
          + ("" if to_stdout else f" to {args.out}"), file=log)
    return 0


def _cmd_trace_validate(args) -> int:
    try:
        count = validate_jsonl(args.path)
    except TraceSchemaError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc.strerror}", file=sys.stderr)
        return 1
    print(f"OK: {count} events conform to the trace schema")
    return 0


def _cmd_series(args) -> int:
    sim = Simulation(seed=args.seed)
    flows, queues = _build_obs_scenario(sim, args.scenario, args.algo)
    rec = standard_series(
        sim, flows, queues=queues, interval=args.interval, warmup=args.warmup
    )
    sim.run_until(args.warmup + args.duration)
    sim.finish()
    to_stdout = args.out == "-"
    target = sys.stdout if to_stdout else args.out
    if args.format == "csv":
        rec.to_csv(target)
    else:
        rec.to_jsonl(target)
    log = sys.stderr if to_stdout else sys.stdout
    print(f"wrote {len(rec.rows)} samples x {len(rec.probe_names)} probes"
          + ("" if to_stdout else f" to {args.out}"), file=log)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multipath TCP congestion control experiments "
                    "(Wischik et al., NSDI 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("algorithms", help="list available algorithms").set_defaults(
        func=_cmd_algorithms
    )

    p = sub.add_parser(
        "sweep",
        help="run a named parameter grid, cached, in-process or over "
             "worker processes",
    )
    p.add_argument("grid", nargs="?",
                   choices=sorted(SWEEP_GRIDS) + ["paper"],
                   help="named grid (see --list), or 'paper' for every "
                        "grid with claims: the paper's figures and tables")
    p.add_argument("--list", action="store_true",
                   help="list the named grids and exit")
    p.add_argument("--parallel", type=int, default=1,
                   help="worker process count (default 1 = in-process)")
    p.add_argument("--cache-dir", default=".sweep-cache",
                   help="result cache directory (default .sweep-cache)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache")
    p.add_argument("--timeout", type=float, default=None,
                   help="wall seconds any one attempt of a point may run; "
                        "points then run in worker processes even with "
                        "--parallel 1 (default: unbounded)")
    p.add_argument("--retries", type=int, default=1,
                   help="failed attempts tolerated per point (default 1)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the grid's base seed")
    p.add_argument("--warmup", type=float, default=None,
                   help="override the grid's warm-up, simulated seconds")
    p.add_argument("--duration", type=float, default=None,
                   help="override the grid's measurement window, "
                        "simulated seconds")
    p.add_argument("--trace", default=None,
                   help="write exp.* progress events to this JSONL file")
    p.add_argument("--out", default=None,
                   help="write result rows to this JSON file")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "farm",
        help="distributed, crash-resumable grid execution over a shared "
             "farm directory (see docs/RUNNER.md)",
    )
    farm_sub = p.add_subparsers(dest="farm_command", required=True)

    fp = farm_sub.add_parser(
        "serve",
        help="serve a named grid into a farm directory, spawn local "
             "workers, aggregate rows (resumes if interrupted)",
    )
    fp.add_argument("grid", choices=sorted(SWEEP_GRIDS),
                    help="named grid (see 'repro sweep --list')")
    fp.add_argument("--root", required=True,
                    help="farm directory (shared filesystem for "
                         "multi-host runs)")
    fp.add_argument("--workers", type=int, default=1,
                    help="local worker processes to spawn (default 1; "
                         "0 = broker only, workers join from elsewhere)")
    fp.add_argument("--cache-dir", default=".sweep-cache",
                    help="shared result cache (default .sweep-cache)")
    fp.add_argument("--no-cache", action="store_true",
                    help="store results inside the farm directory only")
    fp.add_argument("--retries", type=int, default=1,
                    help="failed attempts tolerated per point (default 1)")
    fp.add_argument("--lease-ttl", type=float, default=15.0,
                    help="worker lease heartbeat deadline, seconds")
    fp.add_argument("--seed", type=int, default=None,
                    help="override the grid's base seed")
    fp.add_argument("--warmup", type=float, default=None,
                    help="override the grid's warm-up, simulated seconds")
    fp.add_argument("--duration", type=float, default=None,
                    help="override the grid's measurement window, "
                         "simulated seconds")
    fp.add_argument("--trace", default=None,
                    help="write exp.*/farm.* progress events to this JSONL "
                         "file")
    fp.set_defaults(func=_cmd_farm_serve)

    fp = farm_sub.add_parser(
        "work", help="run one worker against a farm directory"
    )
    fp.add_argument("root", help="farm directory")
    fp.add_argument("--id", default=None,
                    help="worker id (default <hostname>-<pid>)")
    fp.add_argument("--lease-ttl", type=float, default=15.0)
    fp.add_argument("--max-tasks", type=int, default=None,
                    help="exit after this many tasks")
    fp.add_argument("--idle-timeout", type=float, default=None,
                    help="exit after this long without work, seconds")
    fp.set_defaults(func=_cmd_farm_work)

    fp = farm_sub.add_parser(
        "status", help="summarise a farm directory's progress"
    )
    fp.add_argument("root", help="farm directory")
    fp.set_defaults(func=_cmd_farm_status)

    def point_args(p):
        p.add_argument("--param", action="append", type=_parse_param,
                       metavar="KEY=VALUE",
                       help="scenario parameter (repeatable; values parsed "
                            "as JSON when possible)")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--warmup", type=float, default=5.0,
                       help="simulated warm-up seconds (default 5)")
        p.add_argument("--duration", type=float, default=10.0,
                       help="simulated measurement seconds (default 10)")
        p.set_defaults(func=_cmd_point)

    p = sub.add_parser(
        "point",
        help="run one registered point function (any scenario of "
             "'sweep --list') and print its result row",
    )
    p.add_argument("scenario", choices=sorted(SCENARIOS))
    point_args(p)

    p = sub.add_parser(
        "check",
        help="'point' under the invariant monitor, optionally with "
             "injected faults; emit check/fault events as JSONL",
    )
    p.add_argument("--scenario", choices=sorted(SCENARIOS),
                   default="torus_balance")
    p.add_argument("--fault", action="append", default=None,
                   choices=sorted(FAULT_PRESETS),
                   help="inject a preset fault schedule (repeatable)")
    p.add_argument("--out", default="-",
                   help="JSONL path for check.*/fault.* events "
                        "('-' for stdout)")
    point_args(p)

    p = sub.add_parser(
        "handover",
        help="§5 mobility: scripted WiFi outage with path-manager "
             "failover to 3G (see docs/PATH_MANAGEMENT.md)",
    )
    p.add_argument("--algo", default="lia", choices=sorted(ALGORITHMS))
    p.add_argument("--policy", default="backup", choices=sorted(POLICIES),
                   help="path-manager policy (default backup: 3G hot "
                        "standby)")
    p.add_argument("--mode", default="break_before_make",
                   choices=HANDOVER_MODES)
    p.add_argument("--degraded-mbps", type=float, default=5.0,
                   help="make-before-break pre-warm threshold, Mb/s "
                        "(default 5)")
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--warmup", type=float, default=6.0)
    p.add_argument("--duration", type=float, default=18.0,
                   help="measurement window; the WiFi outage spans its "
                        "middle third")
    p.add_argument("--trace", default=None,
                   help="write pathmgr.*/check.* events to this JSONL file")
    p.set_defaults(func=_cmd_handover)

    p = sub.add_parser(
        "rt",
        help="real-network backend: the same state machines over "
             "loopback UDP sockets (see docs/REALNET.md)",
    )
    p.add_argument("--algo", default="lia", choices=sorted(ALGORITHMS))
    p.add_argument("--netem", default="lan", choices=sorted(RT_PROFILES),
                   help="impairment profile for the loopback transfer "
                        "(default lan)")
    p.add_argument("--handover", action="store_true",
                   help="run the WiFi→3G handover on real sockets "
                        "instead of the plain two-subflow transfer")
    p.add_argument("--mode", default="break_before_make",
                   choices=HANDOVER_MODES,
                   help="handover mode (with --handover)")
    p.add_argument("--divergence", action="store_true",
                   help="run the spec on both backends and report "
                        "per-metric sim-vs-real relative error")
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--warmup", type=float, default=0.5,
                   help="wall-clock warmup seconds (default 0.5)")
    p.add_argument("--duration", type=float, default=None,
                   help="wall-clock measurement seconds (default 2; "
                        "4.5 with --handover)")
    p.add_argument("--trace", default=None,
                   help="write all trace events to this JSONL file")
    p.set_defaults(func=_cmd_rt)

    p = sub.add_parser(
        "trace", help="run a scenario with event tracing, emit JSONL"
    )
    p.add_argument("--scenario", choices=OBS_SCENARIOS, default="quickstart")
    p.add_argument("--algo", default="mptcp", choices=sorted(ALGORITHMS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--duration", type=float, default=10.0,
                   help="simulated seconds to trace")
    p.add_argument("--out", default="-",
                   help="output JSONL path ('-' for stdout)")
    p.add_argument("--events", default=None,
                   help="comma-separated event types to record (default: "
                        "all except engine.event_fired)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "trace-validate",
        help="validate a JSONL trace against the documented schema",
    )
    p.add_argument("path", help="JSONL trace file to check")
    p.set_defaults(func=_cmd_trace_validate)

    p = sub.add_parser(
        "series", help="record per-flow/per-queue time series (CSV/JSONL)"
    )
    p.add_argument("--scenario", choices=OBS_SCENARIOS, default="quickstart")
    p.add_argument("--algo", default="mptcp", choices=sorted(ALGORITHMS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--warmup", type=float, default=20.0)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--interval", type=float, default=1.0,
                   help="sampling period, simulated seconds")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--out", default="-",
                   help="output path ('-' for stdout)")
    p.set_defaults(func=_cmd_series)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
