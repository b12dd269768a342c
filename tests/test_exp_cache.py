"""The content-addressed result cache (repro.exp.cache).

Covers the satellite requirements: hit/miss on spec change, invalidation
on code-version change, and corrupted entries falling back to
recomputation instead of crashing.
"""

from __future__ import annotations

import json

import pytest

from repro.exp import ResultCache, Runner, ScenarioSpec, TaskSpec, code_version
from repro.obs import MemorySink, TraceBus

from conftest import sweep

#: In-process execution counter; meaningful because these tests run the
#: runner with parallel=1 (everything in this process).
CALLS = []


def counting_point(x):
    CALLS.append(x)
    return {"val": x + 0.5}


def unserializable_point(x):
    return {"val": {x}}  # a set: not JSON-serializable, so uncacheable


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS.clear()


def _task(**overrides) -> TaskSpec:
    fields = dict(scenario="rtt_ratio", params={"c2": 400.0, "rtt2": 0.05},
                  seed=7, warmup=2.0, duration=4.0)
    fields.update(overrides)
    return TaskSpec(index=0, spec=ScenarioSpec(**fields))


class TestKeying:
    def test_key_is_stable_for_identical_specs(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.key(_task()) == cache.key(_task())

    @pytest.mark.parametrize("change", [
        {"params": {"c2": 800.0, "rtt2": 0.05}},
        {"seed": 8},
        {"warmup": 3.0},
        {"duration": 5.0},
        {"scenario": "torus_balance"},
    ])
    def test_any_spec_change_changes_the_key(self, tmp_path, change):
        cache = ResultCache(tmp_path)
        assert cache.key(_task()) != cache.key(_task(**change))

    def test_code_version_is_stable_hex(self):
        assert code_version() == code_version()
        int(code_version(), 16)
        assert len(code_version()) == 16

    def test_version_change_changes_the_key(self, tmp_path):
        old = ResultCache(tmp_path, version="v1")
        new = ResultCache(tmp_path, version="v2")
        assert old.key(_task()) != new.key(_task())


class TestHitMiss:
    def test_warm_rerun_computes_nothing(self, tmp_path):
        params = {"x": [1, 2, 3]}
        sink = MemorySink()
        cold = sweep(params, counting_point, parallel=1, cache=str(tmp_path))
        assert CALLS == [1, 2, 3]
        warm = sweep(params, counting_point, parallel=1, cache=str(tmp_path),
                     trace=TraceBus(sinks=[sink]))
        assert CALLS == [1, 2, 3], "warm rerun re-executed points"
        assert json.dumps(cold) == json.dumps(warm)
        assert len(sink.of_type("exp.cache_hit")) == 3
        assert sink.of_type("exp.task_start") == []

    def test_spec_change_misses(self, tmp_path):
        sweep({"x": [1]}, counting_point, parallel=1, cache=str(tmp_path))
        sweep({"x": [2]}, counting_point, parallel=1, cache=str(tmp_path))
        assert CALLS == [1, 2]

    def test_code_version_change_invalidates(self, tmp_path):
        task = TaskSpec(0, ScenarioSpec("pt", params={"x": 1}),
                        fn=counting_point)
        Runner(cache=ResultCache(tmp_path, version="v1")).run_tasks([task])
        Runner(cache=ResultCache(tmp_path, version="v1")).run_tasks([task])
        assert CALLS == [1], "same version should have hit"
        Runner(cache=ResultCache(tmp_path, version="v2")).run_tasks([task])
        assert CALLS == [1, 1], "new code version must recompute"

    def test_runner_stats_reflect_hits(self, tmp_path):
        task = TaskSpec(0, ScenarioSpec("pt", params={"x": 4}),
                        fn=counting_point)
        cold = Runner(cache=ResultCache(tmp_path, version="v"))
        cold.run_tasks([task])
        assert (cold.executed, cold.cache_hits) == (1, 0)
        warm = Runner(cache=ResultCache(tmp_path, version="v"))
        warm.run_tasks([task])
        assert (warm.executed, warm.cache_hits) == (0, 1)


class TestCorruption:
    def _entry_files(self, root):
        return [p for p in root.rglob("*.json")]

    def test_corrupt_entry_recomputes_and_repairs(self, tmp_path):
        sweep({"x": [9]}, counting_point, parallel=1, cache=str(tmp_path))
        (entry,) = self._entry_files(tmp_path)
        entry.write_text("{not json")
        rows = sweep({"x": [9]}, counting_point, parallel=1,
                     cache=str(tmp_path))
        assert CALLS == [9, 9], "corrupt entry must fall back to recompute"
        assert rows == [{"x": 9, "val": 9.5}]
        # ... and the entry was rewritten: a third run hits again.
        sweep({"x": [9]}, counting_point, parallel=1, cache=str(tmp_path))
        assert CALLS == [9, 9]

    def test_wrong_shape_entry_is_a_miss(self, tmp_path):
        sweep({"x": [3]}, counting_point, parallel=1, cache=str(tmp_path))
        (entry,) = self._entry_files(tmp_path)
        entry.write_text(json.dumps({"row": [1, 2, 3]}))
        sweep({"x": [3]}, counting_point, parallel=1, cache=str(tmp_path))
        assert CALLS == [3, 3]

    def test_load_missing_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("0" * 64) is None
        assert cache.misses == 1

    def test_unserializable_rows_stay_usable_but_uncached(self, tmp_path):
        rows = sweep({"x": [1]}, unserializable_point, parallel=1,
                     cache=str(tmp_path))
        assert rows == [{"x": 1, "val": {1}}]
        assert self._entry_files(tmp_path) == []
        rows2 = sweep({"x": [1]}, unserializable_point, parallel=1,
                      cache=str(tmp_path))
        assert rows2 == rows


class TestRoundTrip:
    def test_store_load_preserves_values_and_order(self, tmp_path):
        cache = ResultCache(tmp_path, version="v")
        task = _task()
        key = cache.key(task)
        row = {"zeta": 0.30307467057101023, "alpha": 3, "mid": None}
        cache.store(key, task, row)
        loaded = cache.load(key)
        assert loaded == row
        assert list(loaded) == ["zeta", "alpha", "mid"]
