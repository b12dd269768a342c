"""Self-test of the benchmark: ``python -m pytest perfbench -q``.

Not collected by the tier-1 run (``testpaths = ["tests"]``).
"""

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import REPO_ROOT, catalog, compare, layers
from perfbench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
#: "  name   value unit" lines of the report.
METRIC_LINE = re.compile(r"  (\S+)\s+(\S+) (\S+)\Z")


def run(*args, cwd=REPO_ROOT):
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "perfbench", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)
    return proc, time.monotonic() - start


def result_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith("{")]


def printed_metrics(stdout):
    found = {}
    for line in stdout.splitlines():
        match = METRIC_LINE.match(line)
        if match:
            found[match.group(1)] = match.group(3)
    return found


# -- the catalogue -------------------------------------------------------
def test_catalogue_names_and_units_are_well_formed():
    doc = catalog.load()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert doc["paths"] == ["perfbench"]
    setup = catalog.end_to_end()["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert set(compare.WORKLOAD_BOUNDS) <= set(catalog.per_layer())


def test_layers_map_every_package_of_the_simulator():
    packages = sorted(
        p.name for p in (REPO_ROOT / "src" / "repro").iterdir()
        if (p / "__init__.py").is_file())
    assert packages, "no simulator packages found"
    unmapped = [p for p in packages if p not in layers.PACKAGE_LAYER]
    assert not unmapped, (
        f"add {unmapped} to perfbench/layers.py PACKAGE_LAYER: an "
        "unmapped package would be folded into stdlib")
    assert set(layers.PACKAGE_LAYER.values()) <= set(layers.LAYERS)
    for layer in list(layers.LAYERS) + [f"rt.{m}" for m in layers.RT_SUBLAYERS]:
        assert f"{layer}.self_s" in catalog.per_layer()
        assert f"{layer}.calls" in catalog.per_layer()


def test_layer_of():
    src = str(REPO_ROOT / "src" / "repro")
    assert layers.layer_of(f"{src}/tcp/sender.py") == ("tcp", None)
    assert layers.layer_of(f"{src}/fault/faults.py") == ("check", None)
    assert layers.layer_of(f"{src}/rt/codec.py") == ("rt", "codec")
    assert layers.layer_of(f"{src}/rt/scenarios.py") == ("rt", None)
    assert layers.layer_of(f"{src}/cli.py") == ("harness", None)
    assert layers.layer_of("/usr/lib/python3/heapq.py") == ("stdlib", None)
    assert layers.layer_of(None) == ("stdlib", None)


# -- the command -----------------------------------------------------------
def test_smoke_run_prints_every_end_to_end_metric():
    proc, took = run("--scale", "smoke", "--seconds", "0.5", "--seed", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert took < 30.0
    results = result_lines(proc.stdout)
    assert len(results) == len(WORKLOADS)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == list(catalog.end_to_end())
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name
            assert metric["unit"] == catalog.unit(name)
    for workload in WORKLOADS:
        assert f"perfbench {workload} " in proc.stdout
    printed = printed_metrics(proc.stdout)
    # The workload metrics are printed by the timed runs too.
    assert set(compare.WORKLOAD_BOUNDS) - {"ops_failed_share"} <= set(printed)
    assert "ops_failed_share" in proc.stdout
    for name, unit in printed.items():
        assert unit == catalog.unit(name), name


def test_traced_smoke_run_prints_every_per_layer_metric(tmp_path):
    proc, took = run("--workload", "zoo_checked", "--trace", "1", "--scale",
                     "smoke", "--seconds", "0.5", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert took < 30.0
    (result,) = result_lines(proc.stdout)
    assert list(result["metrics"]) == list(catalog.per_layer())
    assert set(printed_metrics(proc.stdout)) == set(catalog.per_layer())
    check, tcp = (result["metrics"][f"{layer}.self_s"]["value"]
                  for layer in ("check", "tcp"))
    assert check > tcp > 0
    assert result["metrics"]["check.records"]["value"] > 0
    assert result["metrics"]["rt.self_s"]["value"] == 0

    trace = json.loads((tmp_path / "trace-zoo_checked.json").read_text())
    names = {span["name"] for span in trace["spans"]}
    assert {"exp.expand", "exp.run", "sim.warmup", "sim.measure"} <= names
    for span in trace["spans"]:
        assert span["workload"] == "zoo_checked"
        assert span["end"] >= span["start"]
    (saved,) = tmp_path.glob("result-zoo_checked-trace1-*.json")
    conditions = json.loads(saved.read_text())["conditions"]
    assert {"git_sha", "python", "platform", "nproc", "loadavg_start",
            "loadavg_end", "seed"} <= set(conditions)


def test_exits_nonzero_without_a_simulator(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO_ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = run("--workload", "torus_packet", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not result_lines(proc.stdout)


# -- --compare ---------------------------------------------------------------
@pytest.mark.parametrize("a, b, better, expected", [
    ([10.0, 10.1, 9.9], [10.2, 10.0, 10.1], "lower", "unchanged"),
    ([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "lower", "regressed"),
    ([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "higher", "improved"),
    ([10.0, 14.0, 8.0], [10.5, 13.0, 9.0], "lower", "unresolved"),
    # Wide spread, but every run of B beats every run of A.
    ([10.0, 14.0, 9.0], [5.0, 7.0, 6.0], "lower", "improved"),
])
def test_verdict(a, b, better, expected):
    assert compare.verdict(a, b, better, bound=0.10) == expected


def test_verdict_noisy_is_unresolved():
    assert compare.verdict([1.0], [2.0], "lower", 0.1, noisy=True) == (
        "unresolved")


def _fake_result(workload, trace, metrics, seed=1):
    return {
        "workload": workload, "trace": trace, "noisy": False, "failed": 0,
        "conditions": {"seed": seed},
        "metrics": {name: {"value": value, "unit": catalog.unit(name)}
                    for name, value in metrics.items()},
    }


def test_compare_reports_regressions_and_count_mismatches(tmp_path, capsys):
    for side, wall, events in (("a", 5.0, 1000), ("b", 7.0, 1001)):
        directory = tmp_path / side
        directory.mkdir()
        for i in range(3):
            timed = _fake_result("torus_packet", 0,
                                 {"wall_s": wall + 0.01 * i, "cpu_s": 4.0})
            traced = _fake_result("torus_packet", 1, {"sim.events": events})
            (directory / f"result-t{i}.json").write_text(json.dumps(timed))
            (directory / f"result-p{i}.json").write_text(json.dumps(traced))
    assert compare.main(str(tmp_path / "a"), str(tmp_path / "a")) == 0
    same = capsys.readouterr().out
    assert "regressed" not in same and "match exactly" in same
    assert compare.main(str(tmp_path / "a"), str(tmp_path / "b")) == 1
    out = capsys.readouterr().out
    assert re.search(r"wall_s .* regressed", out)
    assert re.search(r"cpu_s .* unchanged", out)
    assert "DIFFER: sim.events" in out
