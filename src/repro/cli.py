"""Command-line experiment runner: ``python -m repro <command>``.

Gives downstream users one-line access to the paper's scenarios without
writing harness code — any registered point function, one row:

    python -m repro algorithms
    python -m repro point shared_bottleneck --param algo=mptcp
    python -m repro point datacenter --param k=4 --param paths=4 --duration 3

What a flag or ``--param`` leaves unset comes from the first point of the
scenario's first registered grid (``sweep --list``), seed and windows
included.

The paper's figures and tables, as cached grids whose claims are checked
(see EXPERIMENTS.md):

    python -m repro sweep paper --parallel 4
    python -m repro sweep paper_fig1

Observability of any point (see docs/OBSERVABILITY.md for the event
schema): its monitored trace as JSONL, narrowed to some event types, and
its queues, windows, RTTs and goodputs sampled 100 times after warm-up:

    python -m repro point two_links --trace trace.jsonl
    python -m repro trace-validate trace.jsonl
    python -m repro point torus_balance --trace drops.jsonl --events pkt.drop
    python -m repro point two_links --param cross=tcp --series series.csv

Parameter sweeps over worker processes (see docs/RUNNER.md):

    python -m repro sweep --list
    python -m repro sweep fig16_rtt --parallel 4
    python -m repro sweep demo_rtt --parallel 2 --trace sweep.jsonl

The same sweep over a kept, crash-resumable farm directory that workers
on other hosts can join (``--parallel 0``: broker only; see
docs/RUNNER.md):

    python -m repro sweep fig16_rtt --farm /shared/farm --parallel 2
    python -m repro farm work /shared/farm          # on any other host
    python -m repro farm status /shared/farm

Invariant-checked, optionally fault-injected points, their monitored
trace streamed as JSONL (see docs/CHECKING.md):

    python -m repro point torus_balance --param faults=link_flap --trace -
    python -m repro point rtt_ratio --param c2=1600 --trace check.jsonl

Path management and mobility (see docs/PATH_MANAGEMENT.md):

    python -m repro point wifi_3g_handover --param mode=make_before_break
    python -m repro sweep wifi_3g_handover --parallel 2

The rt tier: the same point functions and state machines over loopback
UDP sockets (``--param tier=rt``), and the claim that they agree with
the simulation (see docs/REALNET.md):

    python -m repro point rt_loopback --trace rt.jsonl
    python -m repro point wifi_3g_handover --param tier=rt --warmup 0.5 --duration 4.5
    python -m repro sweep rt_loopback --no-cache
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional

from .check import InvariantViolation, observe_simulations, trace_override
from .core.registry import ALGORITHMS
from .exp import CLAIMS, ResultCache, Runner, specs_for_grid
from .exp.claims import failed_claim
from .exp.grids import SCENARIOS, point_function
from .exp.spec import ScenarioSpec, grid_points
from .farm import FarmError, farm_status, work
from .harness.table import Table
from .obs import (
    DEFAULT_EVENTS,
    EVENT_TYPES,
    FilterSink,
    JsonlSink,
    TraceBus,
    TraceSchemaError,
    validate_jsonl,
)
from .topology import SWEEP_GRIDS

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
            farm=args.farm,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bus = None
    if args.trace:
        bus = runner.trace = TraceBus(sinks=[JsonlSink(args.trace)])
    try:
        rows = runner.run([s for name in names for s in specs[name]])
    except FarmError as exc:  # e.g. --farm names another grid's directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
        # Rows of one grid may differ in keys (rt-tier rows add the
        # wire's counters); a cell a row lacks prints as "-".
        columns = list(dict.fromkeys(k for row in grid_rows for k in row))
        table = Table(columns, precision=4)
        for row in grid_rows:
            table.add_row([row.get(k) for k in columns])
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


def _cmd_farm_work(args) -> int:
    processed = work(
        args.root, worker_id=args.id, lease_ttl=args.lease_ttl,
        max_tasks=args.max_tasks, idle_timeout=args.idle_timeout,
    )
    print(f"worker done: {processed} task(s) processed")
    return 0


def _cmd_farm_status(args) -> int:
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


def _point_spec(args) -> ScenarioSpec:
    """Each field from its flag, else ``--param``, else the first point
    of the scenario's first registered grid; a point function's own
    defaults cover what none of them sets."""
    grid = next(name for name, g in SWEEP_GRIDS.items()
                if g["scenario"] == args.scenario)
    base = specs_for_grid(grid)[0]
    params = {**base.params, **dict(args.param or ())}
    if args.trace:
        params["check"] = 1
    return replace(
        base, params=params,
        seed=base.seed if args.seed is None else args.seed,
        warmup=base.warmup if args.warmup is None else args.warmup,
        duration=base.duration if args.duration is None else args.duration,
    )


def _series_observer(spec: ScenarioSpec, recorders: list):
    """An ``observe_simulations`` callback: a SeriesRecorder on the run,
    sampling every ``spec.duration / 100`` s after warm-up the depth of
    each queue, the window, RTT and goodput (rate of ``last_acked``) of
    each (sub)flow sender and the goodput of each multipath receiver the
    run registers, including subflows opened mid-run."""
    from .mptcp.connection import MptcpReceiver
    from .net.queue import DropTailQueue
    from .obs.series import (SeriesRecorder, cwnd_probe, queue_depth_probe,
                             rtt_probe)
    from .tcp.sender import TcpSender

    def observe(sim) -> None:
        rec = SeriesRecorder(sim, interval=spec.duration / 100,
                             warmup=spec.warmup)

        def watch(component) -> None:
            if isinstance(component, DropTailQueue):
                rec.add_probe(f"qdepth.{component.name}",
                              queue_depth_probe(component))
            elif isinstance(component, TcpSender):
                rec.add_probe(f"cwnd.{component.name}", cwnd_probe(component))
                rec.add_probe(f"rtt.{component.name}", rtt_probe(component))
                rec.add_rate_probe(f"goodput.{component.name}",
                                   lambda: component.last_acked)
            elif isinstance(component, MptcpReceiver):
                rec.add_rate_probe(f"goodput.{component.name}",
                                   lambda: component.packets_delivered)

        sim.on_register(watch)
        rec.start()
        recorders.append(rec)

    return observe


def _cmd_point(args) -> int:
    """Run one registered point function and print its row.  ``--trace``
    runs it under the invariant monitor and streams the monitored bus's
    records as JSONL (``-``: to stdout, the table to stderr), only the
    ``--events`` types if given; ``--series`` samples the run's
    components (``.jsonl``: JSONL, else CSV; ``-``: CSV to stdout)."""
    events = frozenset(e.strip() for e in (args.events or "").split(",")
                       if e.strip())
    unknown = sorted(events - set(EVENT_TYPES))
    for failed, message in (
        (args.trace == args.series == "-",
         "--trace - and --series - cannot share stdout"),
        (events and not args.trace,
         "--events narrows --trace; name a trace file"),
        (unknown, f"unknown event types: {', '.join(unknown)}"),
    ):
        if failed:
            print(f"error: {message}", file=sys.stderr)
            return 2
    spec = _point_spec(args)
    log = sys.stderr if "-" in (args.trace, args.series) else sys.stdout
    sink = bus = None
    if args.trace:
        sink = JsonlSink(sys.stdout if args.trace == "-" else args.trace)
        # The monitor needs every type it checks on the bus; --events
        # narrows only what the file receives.
        bus = TraceBus(sinks=[FilterSink(sink, events) if events else sink],
                       events=DEFAULT_EVENTS | events)
    recorders: list = []
    observer = _series_observer(spec, recorders) if args.series else None
    try:
        with trace_override(bus), observe_simulations(observer):
            row = point_function(spec.scenario)(spec)
    except InvariantViolation as exc:
        print(f"VIOLATION: {exc}", file=sys.stderr)
        return 1
    finally:
        if bus is not None:
            bus.close()
    table = Table(["quantity", "value"], precision=4)
    for key, value in row.items():
        table.add_row([key, value])
    print(table.render(
        f"{spec.scenario} {json.dumps(spec.params)} (seed {spec.seed}, "
        f"warm-up {spec.warmup:g} s, {spec.duration:g} s)"
    ), file=log)
    if sink is not None:
        print(f"wrote {sink.records_written} events"
              + ("" if args.trace == "-" else f" to {args.trace}"), file=log)
    for rec in recorders:
        write = rec.to_jsonl if args.series.endswith(".jsonl") else rec.to_csv
        write(sys.stdout if args.series == "-" else args.series)
        print(f"wrote {len(rec.rows)} samples x {len(rec.probe_names)} "
              "probes" + ("" if args.series == "-" else f" to {args.series}"),
              file=log)
    if row.get("delivery_gap"):
        print("FAIL: nonzero delivery gap — data acknowledged at "
              "connection level but never delivered in order",
              file=sys.stderr)
        return 1
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
                   help="worker process count (default 1 = in-process; "
                        "0 = broker only, with --farm)")
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
    p.add_argument("--farm", default=None, metavar="DIR",
                   help="run out of process through this farm directory "
                        "and keep it: a rerun resumes it, and workers on "
                        "other hosts join with 'repro farm work DIR'")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "farm",
        help="join or inspect a farm directory that 'sweep --farm' "
             "serves (see docs/RUNNER.md)",
    )
    farm_sub = p.add_subparsers(dest="farm_command", required=True)

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

    p = sub.add_parser(
        "point",
        help="run one registered point function (any scenario of "
             "'sweep --list') and print its result row",
    )
    p.add_argument("scenario", choices=sorted(SCENARIOS))
    p.add_argument("--param", action="append", type=_parse_param,
                   metavar="KEY=VALUE",
                   help="scenario parameter (repeatable; values parsed as "
                        "JSON when possible), e.g. faults=link_flap")
    p.add_argument("--seed", type=int, default=None,
                   help="override the seed (default: the scenario's "
                        "first grid)")
    p.add_argument("--warmup", type=float, default=None,
                   help="override the warm-up, seconds")
    p.add_argument("--duration", type=float, default=None,
                   help="override the measurement window, seconds")
    p.add_argument("--trace", default=None, metavar="PATH|-",
                   help="run under the invariant monitor and write its "
                        "trace records as JSONL ('-' for stdout)")
    p.add_argument("--events", default=None, metavar="LIST",
                   help="with --trace: comma-separated event types the "
                        "file receives (the monitor still sees every type "
                        "it checks; engine.event_fired turns on scheduler "
                        "tracing)")
    p.add_argument("--series", default=None, metavar="PATH|-",
                   help="sample every queue depth and (sub)flow window, "
                        "RTT and goodput 100 times after warm-up; JSONL "
                        "for a .jsonl path, else CSV ('-' for stdout)")
    p.set_defaults(func=_cmd_point)

    p = sub.add_parser(
        "trace-validate",
        help="validate a JSONL trace against the documented schema",
    )
    p.add_argument("path", help="JSONL trace file to check")
    p.set_defaults(func=_cmd_trace_validate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
