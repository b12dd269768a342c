"""Command line of the benchmark: one command prints every metric.

::

    python3 -m perfbench [--workload W] [--seed S] [--seconds N]
                         [--trace [0|1]] [--scale full|smoke] [--out DIR]
    python3 -m perfbench --compare A B

Without ``--workload`` all five run in sequence.  Each workload runs in
a child process; the parent repeats the set-up in further children to
report ``setup_s`` as a median, records the run's conditions, prints
every metric by name with its unit, and ends with one JSON line::

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

``--trace 0`` prints the end-to-end metrics (timed with tracing off),
``--trace 1`` the per-layer metrics of the traced run.  The exit code is
non-zero when an output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import List, Optional

from . import REPO_ROOT, bootstrap, catalog
from .workloads import WORKLOADS

__all__ = ["main"]

#: Set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 5
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170.0
#: Below this the saturated rt phase did not saturate the core and its
#: goodput is not a cost: reported as unresolved.
SATURATED_MIN_UTIL = 0.9


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python3 -m perfbench", description=__doc__.split("::")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed the workload's inputs are made from")
    parser.add_argument("--seconds", type=float,
                        default=float(catalog.load()["run_seconds"]),
                        help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny units, for the self-test")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write result and trace files here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result directories and exit")
    # Internal: the workload child (see perfbench.child).
    for flag in ("--child", "--setup-only"):
        parser.add_argument(flag, action="store_true",
                            help=argparse.SUPPRESS)
    for flag in ("--scratch", "--result"):
        parser.add_argument(flag, help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
def conditions(seed: int) -> dict:
    """What the numbers were measured under."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, timeout=10,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # e.g. an exported checkout
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count() or 1,
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def run_child(args, workload: str, scratch: pathlib.Path,
              setup_only: bool) -> dict:
    result_path = scratch / "child-result.json"
    command = [
        sys.executable, "-m", "perfbench", "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--scratch", str(scratch),
        "--result", str(result_path), "--t0", repr(time.time()),
    ]
    if setup_only:
        command.append("--setup-only")
    if args.out is not None:
        command += ["--out", str(pathlib.Path(args.out).resolve())]
    # The child's own chatter (and its workers') goes to stderr: stdout
    # carries the report and ends with the result line.  The child leads
    # its own process group so that a hung run takes its workers with it.
    child = subprocess.Popen(command, cwd=REPO_ROOT, stdout=sys.stderr,
                             start_new_session=True)
    try:
        status = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise SystemExit(f"perfbench: {workload} child exceeded "
                         f"{CHILD_TIMEOUT_S:g} s and was killed")
    if status != 0:
        raise SystemExit(f"perfbench: {workload} child exited with "
                         f"status {status}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_workload(args, workload: str) -> dict:
    cond = conditions(args.seed)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench-",
                                            dir=REPO_ROOT))
    try:
        setups = []
        if not args.trace:
            setups = [run_child(args, workload, scratch, True)["setup_s"]
                      for _ in range(SETUP_RUNS - 1)]
        result = run_child(args, workload, scratch, False)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(result["setup_s"])
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    cond["loadavg_end"] = list(os.getloadavg())
    failed = len(result["failures"])
    return {
        "schema": "perfbench.result/1",
        "workload": workload,
        "trace": args.trace,
        "scale": args.scale,
        "seconds": args.seconds,
        "conditions": cond,
        # More runnable processes than cores when the run began: the
        # numbers are unresolved, not wrong.
        "noisy": cond["loadavg_start"][0] > cond["nproc"],
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "failures": result["failures"],
        "rows_digest": result["rows_digest"],
        "setup_samples": setups,
        "samples": result["samples"],
        "metrics": {name: {"value": value, "unit": catalog.unit(name)}
                    for name, value in result["metrics"].items()},
    }


def report(result: dict) -> None:
    """Every metric by name with its unit, then the result line."""
    cond = result["conditions"]
    print(f"perfbench {result['workload']} seed={cond['seed']} "
          f"seconds={result['seconds']:g} trace={result['trace']} "
          f"scale={result['scale']} sha={cond['git_sha'][:12]} "
          f"python={cond['python']} nproc={cond['nproc']} "
          f"load={cond['loadavg_start'][0]:.2f}->{cond['loadavg_end'][0]:.2f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"  checks: {result['attempted']} attempted, {result['failed']} "
          f"failed (ops_failed_share {share:g})")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    if result["rows_digest"]:
        print(f"  rows_digest: {result['rows_digest']}")
    if result["noisy"]:
        print("  noisy: load average exceeded nproc at start; "
              "metrics are unresolved")
    util = result["metrics"].get("rt_sat_cpu_util")
    if util is not None and 0.0 < util["value"] < SATURATED_MIN_UTIL:
        print(f"  rt_sat_goodput_pps unresolved: saturated-phase CPU "
              f"utilisation was {util['value']:.2f} "
              f"(< {SATURATED_MIN_UTIL})")
    listed = (catalog.per_layer() if result["trace"]
              else catalog.end_to_end())
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in listed},
    }))


def save(result: dict, out: str) -> None:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = (f"result-{result['workload']}-trace{result['trace']}-"
            f"{stamp}-{os.getpid()}.json")
    path = pathlib.Path(out) / name
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.compare:
        from .compare import main as compare_main

        return compare_main(*args.compare)
    bootstrap()
    if args.child:
        from .child import main as child_main

        return child_main(args)
    if args.out is not None:
        pathlib.Path(args.out).mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in ([args.workload] if args.workload else WORKLOADS):
        result = run_workload(args, workload)
        if args.out is not None:
            save(result, args.out)
        report(result)
        sys.stdout.flush()
        if not result["correct"]:
            status = 1
    return status
