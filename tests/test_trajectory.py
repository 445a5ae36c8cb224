"""BENCH_trajectory.json: the committed before-and-after numbers of each
performance change.  Its commits are not looked up: a shallow checkout
does not have them."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = json.loads((ROOT / "BENCH_trajectory.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}


def test_every_record_has_the_documented_keys():
    keys = set(TRAJECTORY["about"]["record_keys"])
    assert TRAJECTORY["records"]
    for record in TRAJECTORY["records"]:
        assert set(record) == keys, record["commit"]


def test_every_record_names_a_benchmark_workload():
    for record in TRAJECTORY["records"]:
        assert record["workload"] in WORKLOADS


def test_quartiles_bracket_each_median():
    for record in TRAJECTORY["records"]:
        assert 0 <= record["change_faster_pairs"] <= record["pairs"]
        for side in ("parent_call_s_p50", "change_call_s_p50"):
            q = record[side]
            assert q["median"] > 0
            if q["q1"] is not None:
                assert q["q1"] <= q["median"] <= q["q3"], (record["commit"], side)
