"""Tests of the benchmark itself: inputs, oracle, hooks and statistics.

The CLI runs in-process here on smaller versions of each workload's calls,
so the oracle is exercised on the argument shapes the benchmark uses.
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import run as bench
import spans
import workloads
from workloads import WORKLOADS, check_call

from cycleweights import cli, prng

SMALLER = {"--fuzz": "20", "--steps": "12", "--terms": "40", "--restarts": "2"}


def small(argv):
    out = list(argv)
    for i, tok in enumerate(out[:-1]):
        if tok in SMALLER:
            out[i + 1] = SMALLER[tok]
    if out[0] == "pentagon":
        out[out.index("--n") + 1] = "7"
    return out


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def small_calls(name, seed=5):
    return [small(argv) for argv in WORKLOADS[name].sample(seed, 0)]


# --- inputs -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed(name):
    w = WORKLOADS[name]
    assert [w.sample(7, i) for i in range(4)] == [w.sample(7, i) for i in range(4)]


@pytest.mark.parametrize("name", ["fuzz-float", "exact-session", "search"])
def test_seeded_inputs_follow_the_workload_seed(name):
    w = WORKLOADS[name]
    assert w.sample(7, 0) != w.sample(8, 0)
    assert w.sample(7, 1) != w.sample(7, 0)
    assert str(workloads.mix64(8)) in w.sample(8, 0)[0]


def test_sample_seeds_use_splitmix64():
    assert workloads.mix64(0) == 0xE220A8397B1DCDAF
    for z in (1, 12345, (1 << 64) - 1):
        assert workloads.mix64(z) == prng.mix64(z)


# --- oracle -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_accepts_correct_output(name):
    for argv in small_calls(name):
        assert check_call(argv, *call(argv)) is None, argv


def _corrupt(name, index, old, new):
    argv = small_calls(name)[index]
    code, out, err = call(argv)
    assert old in out, (argv, old)
    return check_call(argv, code, out.replace(old, new, 1), err)


@pytest.mark.parametrize("name,index,old,new", [
    ("fuzz-float", 0, "violations=0", "violations=1"),
    ("fuzz-float", 0, "checks=240", "checks=239"),
    ("fuzz-float", 0, "max_ratio=0.", "max_ratio=0.9"),
    ("exact-session", 0, "max_ratio=", "max_ratio=1/1 old="),
    ("exact-session", 1, "max_rel_residual=0.0", "max_rel_residual=1e-300"),
    ("exact-session", 2, ",0,0,0\n3,", ",1/7,0,0\n3,"),
    ("exact-session", 2, "\n4,", "\n4,1"),
    ("exact-session", 3, "\n7,377/4096,", "\n7,377/4095,"),
    ("exact-session", 3, "# verdict holds", "# verdict violated"),
    ("search", 0, "value 0.2763932", "value 0.2763942"),
    ("search", 1, "value 0.543", "value 0.544"),
    ("enumerate-n10", 0, '"cycles": 360', '"cycles": 359'),
    ("enumerate-n10", 0, '"violations": 0', '"violations": 1'),
])
def test_oracle_rejects_altered_stdout(name, index, old, new):
    assert _corrupt(name, index, old, new) is not None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_rejects_wrong_exit_code_traceback_and_empty_output(name):
    argv = small_calls(name)[0]
    code, out, err = call(argv)
    assert check_call(argv, 1, out, err) == "exit code 1"
    assert check_call(argv, code, out, "Traceback (most recent call last):") is not None
    assert check_call(argv, code, "", err) is not None


# --- tracing ----------------------------------------------------------


def test_missing_hooks_are_reported_not_fatal():
    original = prng.mix64
    hooks = (
        spans.Hook("prng", "no_such_function", "prng"),
        spans.Hook("no_such_module", "run", "cli"),
        spans.Hook("prng", "mix64", "prng", lambda a, r: {"prng.streams": 1}),
    )
    tracer = spans.Tracer(hooks)
    tracer.install()
    try:
        prng.mix64(1)
        prng.mix64(2)
    finally:
        tracer.uninstall()
    assert prng.mix64 is original
    assert tracer.absent == ["prng.no_such_function", "no_such_module.run"]
    assert tracer.counts == {"prng.streams": 2}
    assert [s[2] for s in tracer.spans] == ["prng.mix64", "prng.mix64"]


def test_traced_call_counts_module_work():
    argv = small_calls("exact-session")[1]  # identity --fuzz 20 --mode rational
    tracer = spans.Tracer()
    tracer.install()
    try:
        code, out, _ = tracer.spanned(spans.ROOT, call)(argv)
    finally:
        tracer.uninstall()
    assert code == 0 and tracer.absent == []
    m = spans.derive(spans.tally(tracer.spans, tracer.counts, len(out)))
    assert m["quadrilateral.checks"] == 60
    assert m["geometry.configs"] == 20 and m["prng.streams"] == 20
    assert m["quadrilateral.self_s"] > 0 and m["cli.out_bytes"] == len(out)


def test_self_time_subtracts_direct_children():
    spans_ = [
        (1, 0, "cli.run", 0.0, 10.0),
        (2, 1, "bounds.fuzz", 1.0, 9.0),
        (3, 2, "bounds.random_config", 2.0, 3.0),
        (4, 2, "bounds.enumerate_cycles", 3.0, 5.0),
    ]
    t = spans.self_times(spans_)
    assert (t["cli"], t["bounds"], t["geometry"], t["cycles"]) == (2.0, 5.0, 1.0, 2.0)


# --- statistics and entry point -----------------------------------------


def test_tail_has_ten_samples_beyond_it():
    assert bench.tail(range(20, 0, -1)) == (10, 45.0)
    assert bench.tail([3.0, 1.0, 2.0]) == (1.0, 0.0)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(Path(bench.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_the_metrics_run_reports():
    spec = json.loads((Path(bench.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.METRICS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
