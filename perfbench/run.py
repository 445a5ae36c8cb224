"""The cycleweights benchmark: CLI workloads run as a user at a shell runs them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: one CLI call at a time, each in a fresh Python
process (``child.py``), until S seconds have passed.  Every call's output is
checked by the oracle in ``workloads.py``.  A fresh process per call means a
module-level cache is never credited with warm hits that real use never gets.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced sample on the same inputs and reports the per-module
metrics (medians over traced samples) and ``trace.overhead_ratio``.  The last
stdout line is the JSON result; the lines before it name every metric with
its unit, the seed and the run context.  The full result, and with tracing
the spans, are written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import compileall
import gzip
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, check_call, sample_seed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"

CALL_TIMEOUT_S = 60
# spans returned by children are written out until this many are kept
SPAN_CAP = 100_000

END_TO_END = (
    ("setup_s", "s"),
    ("call_s.p50", "s"),
    ("call_s.tail", "s"),
    ("items_per_s", "items/s"),
    ("peak_rss_mb", "MiB"),
)


def run_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def run_call(argv, trace: bool, keep_spans: bool) -> dict:
    """One CLI call in a fresh process: the child's report, or ``fail``."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(ROOT),
           "1" if trace else "0", "1" if keep_spans else "0", "--", *argv]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CALL_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"fail": f"timeout after {CALL_TIMEOUT_S} s"}
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"fail": f"child exit {proc.returncode}: {tail[0]}"}
    report["fail"] = None
    return report


def run_sample(calls, trace: bool, keep_spans: bool) -> dict:
    """A sample runs its calls in order; its time is the sum of their times."""
    reports = []
    for argv in calls:
        r = run_call(argv, trace, keep_spans)
        if not r["fail"]:
            r["fail"] = check_call(argv, r["code"], r["out"], r["err"])
        reports.append(r)
    fails = [r["fail"] for r in reports if r["fail"]]
    sample = {"fail": fails[0] if fails else None}
    if all("call_s" in r for r in reports):
        sample["time_s"] = sum(r["call_s"] for r in reports)
        sample["setup_s"] = [r["setup_s"] for r in reports]
        sample["rss_mb"] = max(r["rss_mb"] for r in reports)
    if trace and all("tallies" in r for r in reports):
        total = {}
        for r in reports:
            for k, v in r["tallies"].items():
                total[k] = total.get(k, 0) + v
        sample["metrics"] = spans.derive(total)
        sample["absent"] = sorted({a for r in reports for a in r["absent"]})
        sample["spans"] = [r.get("spans", []) for r in reports]
    return sample


def tail(times):
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile).  With ten samples or fewer no percentile
    qualifies, and the minimum is reported as percentile 0.
    """
    xs = sorted(times)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * k / len(xs)


def end_to_end(samples, items: int) -> tuple:
    timed = [s for s in samples if "time_s" in s]
    times = [s["time_s"] for s in timed]
    done = sum(items for s in timed if not s["fail"])
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(x for s in timed for x in s["setup_s"]),
        "call_s.p50": statistics.median(times),
        "call_s.tail": tail_value,
        "items_per_s": done / sum(times),
        "peak_rss_mb": max(s["rss_mb"] for s in timed),
    }
    note = f"nearest-rank p{tail_pct:.1f} of {len(times)} samples"
    return metrics, note


def per_layer(untraced, traced) -> dict:
    metrics = {}
    for name, _, _ in spans.METRICS:
        values = [s["metrics"][name] for s in traced if name in s["metrics"]]
        metrics[name] = statistics.median(values) if values else 0.0
    base = statistics.median(s["time_s"] for s in untraced)
    metrics["trace.overhead_ratio"] = statistics.median(s["time_s"] for s in traced) / base
    return metrics


def write_spans(path: Path, traced) -> int:
    """Spans of traced samples as JSON lines, times relative to the call start."""
    kept = 0
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for s in traced:
            for call, call_spans in enumerate(s["spans"]):
                origin = min((sp[3] for sp in call_spans), default=0.0)
                for sid, parent, name, start, end in call_spans:
                    fh.write(json.dumps({
                        "sample": s["index"], "call": call, "id": sid, "parent": parent,
                        "name": name, "start": start - origin, "end": end - origin,
                    }) + "\n")
                    kept += 1
    return kept


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cycleweights" / "cli.py").is_file():
        print(f"error: no cycleweights source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)

    context = {"start": run_context()}
    # bytecode is compiled here so that no call pays for compilation
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(BENCH, quiet=1)
    run_call(["gen", "--n", "5"], False, False)  # warms the file cache

    samples = []
    kept_spans = 0
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        calls = workload.sample(args.seed, i)
        for traced in ((False, True) if trace else (False,)):
            keep = traced and kept_spans < SPAN_CAP
            s = run_sample(calls, traced, keep)
            s.update(index=len(samples), pair=i, seed=sample_seed(args.seed, i), traced=traced)
            kept_spans += sum(len(c) for c in s.get("spans", []))
            samples.append(s)
        i += 1
        if time.perf_counter() >= deadline:
            break
    context["end"] = run_context()

    untraced = [s for s in samples if not s["traced"] and "time_s" in s]
    traced = [s for s in samples if s["traced"] and "metrics" in s and "time_s" in s]
    failed = [s for s in samples if s["fail"]]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": context,
        "attempted": len(samples), "failed": len(failed),
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path, spans_path = OUT_DIR / f"{base}.json", OUT_DIR / f"{base}.spans.jsonl.gz"

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace} samples={len(samples)} (one client, fresh process per call)")
    print("context nproc={nproc} python={python} platform={platform}".format(**context["start"])
          + " loadavg_start={} loadavg_end={}".format(
              ",".join(f"{x:.2f}" for x in context["start"]["loadavg"]),
              ",".join(f"{x:.2f}" for x in context["end"]["loadavg"])))
    for s in failed:
        print(f"FAILED sample {s['index']} (seed {s['seed']}): {s['fail']}")
    print(f"fail_ratio {len(failed) / len(samples):.4f} ratio"
          f"  ({len(failed)} of {len(samples)} samples failed)")

    if not untraced or (trace and not traced):
        print("error: no sample completed", file=sys.stderr)
        metrics = {}
    elif trace:
        metrics = per_layer(untraced, traced)
        units = {m: u for m, u, _ in spans.METRICS}
        absent = sorted({a for s in traced for a in s["absent"]})
        result["absent_hooks"] = absent
        print("absent hooks: " + (", ".join(absent) if absent else "none"))
        n_spans = write_spans(spans_path, traced)
        print(f"spans: {n_spans} from {len(traced)} traced samples"
              f" written to {spans_path.relative_to(ROOT)}")
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
        metrics = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
    else:
        values, note = end_to_end(samples, workload.items)
        result["tail"] = note
        for name, unit in END_TO_END:
            extra = f"  ({note})" if name == "call_s.tail" else ""
            print(f"{name} {values[name]:.6g} {unit}{extra}")
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}

    result["metrics"] = metrics
    result["samples"] = [{k: v for k, v in s.items() if k != "spans"} for s in samples]
    result_path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"result written to {result_path.relative_to(ROOT)}")
    if not metrics:
        return 1
    print(json.dumps({"correct": not failed, "attempted": len(samples),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
