"""The committed BENCH_<n>.json records against BENCHMARK.json, and the
recorder's statistics.  Nothing here runs the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _load_recorder():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = _load_recorder()


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_names_the_benchmark_workloads_metrics_and_units(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    record = json.loads(path.read_text())
    assert path.name == f"BENCH_{record['n']}.json"
    assert record["seconds"] == spec["run_seconds"]
    assert record["seed"] == bench_record.SEED
    if record["base"]:
        assert record["pairs"] >= bench_record.MIN_PAIRS
    assert record["workloads"]
    assert set(record["workloads"]) == {w["name"] for w in spec["workloads"]}
    sides = ["head"] + (["base"] if record["base"] else [])
    for workload, entry in record["workloads"].items():
        for side in sides:
            assert len(entry[side]["runs"]) == record["pairs"], (workload, side)
            for run in entry[side]["runs"]:
                assert set(run["metrics"]) == set(units), (workload, side)
            assert {name: s["unit"] for name, s in entry[side]["summary"].items()} \
                == units, (workload, side)
            if "traced" in entry[side]:
                assert {name: m["unit"] for name, m
                        in entry[side]["traced"]["per_layer"].items()} \
                    == per_layer, (workload, side)
            if record.get("heldout_seed") is not None:
                heldout = entry[side]["heldout"]
                assert len(heldout["runs"]) == record["heldout_pairs"], (workload, side)
                for run in heldout["runs"]:
                    assert set(run["metrics"]) == set(units), (workload, side)
                assert {name: s["unit"] for name, s in heldout["summary"].items()} \
                    == units, (workload, side)
        if record["base"]:
            assert set(entry["comparison"]) == set(units), workload
        if record.get("heldout_seed") is not None:
            assert set(entry["heldout_comparison"]) == set(units), workload
    if record.get("heldout_seed") is not None:
        assert record["heldout_seed"] == bench_record.HELDOUT_SEED
        assert record["heldout_pairs"] == bench_record.HELDOUT_PAIRS
    if "tier1" in record:
        for side in sides:
            tier1 = record["tier1"][side]
            assert set(tier1) == {"wall_s", "returncode", "passed", "failed", "skipped",
                                  "slowest"}, side
            assert tier1["wall_s"] > 0 and tier1["passed"] > 0, side
            assert min(tier1["failed"], tier1["skipped"]) >= 0, side
            times = [t["s"] for t in tier1["slowest"]]
            assert len(times) == min(10, tier1["passed"] + tier1["failed"]
                                     + tier1["skipped"]), side
            assert times == sorted(times, reverse=True), side


def test_summary_is_the_median_and_inclusive_quartiles():
    assert bench_record.summarise([3.0, 1.0, 2.0, 5.0, 4.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_record.summarise([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_comparison_counts_pairs_in_the_metric_s_better_direction():
    base = [90.0, 89.8, 90.2, 90.0]
    lower = bench_record.compare([83.0, 83.5, 91.0, 83.2], base, "lower")
    assert lower["head_better_pairs"] == 3 and lower["pairs"] == 4
    assert lower["median_change"] == pytest.approx(83.35 - 90.0)
    assert lower["base_iqr"] == pytest.approx(0.1)
    assert lower["beyond_base_iqr"]
    higher = bench_record.compare([83.0, 83.5, 91.0, 83.2], base, "higher")
    assert higher["head_better_pairs"] == 1
    assert not higher["beyond_base_iqr"]


def test_traced_record_pairs_each_per_layer_value_with_its_unit():
    run = {"correct": True, "attempted": 64, "failed": 0, "speed_factor_p50": 0.9,
           "metrics": {"pose.ransac_s": 0.0012, "pose.points_in": 8213.3},
           "units": {"pose.ransac_s": "s", "pose.points_in": "count"}, "facts": {}}
    assert bench_record.traced_record(run) == {
        "correct": True, "attempted": 64, "failed": 0, "speed_factor_p50": 0.9,
        "per_layer": {"pose.ransac_s": {"value": 0.0012, "unit": "s"},
                      "pose.points_in": {"value": 8213.3, "unit": "count"}}}


def test_tier1_record_counts_outcomes_and_keeps_the_ten_slowest(tmp_path):
    cases = "".join(f'<testcase classname="tests.test_a" name="t{i}" time="{i}.5"/>'
                    for i in range(10))
    cases += ('<testcase classname="tests.test_b" name="bad" time="0.1">'
              '<failure message="x"/></testcase>'
              '<testcase classname="tests.test_b" name="broken" time="0.2">'
              '<error message="y"/></testcase>'
              '<testcase classname="tests.test_b" name="off" time="30.0">'
              '<skipped message="z"/></testcase>')
    junit = tmp_path / "tier1.xml"
    junit.write_text(f'<testsuites><testsuite name="pytest">{cases}</testsuite></testsuites>')
    record = bench_record.tier1_record(junit, 41.5, 1)
    assert {k: record[k] for k in ("wall_s", "returncode", "passed", "failed",
                                   "skipped")} == {
        "wall_s": 41.5, "returncode": 1, "passed": 10, "failed": 2, "skipped": 1}
    assert record["slowest"][:2] == [{"test": "tests.test_b::off", "s": 30.0},
                                     {"test": "tests.test_a::t9", "s": 9.5}]
    assert [t["test"] for t in record["slowest"]][-1] == "tests.test_a::t1"
