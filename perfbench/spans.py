"""Per-module tracing for the benchmark, from outside the package.

A hook replaces a module-level name that a caller looks up at call time,
such as ``bounds.random_config`` or ``cli.trace``, with a wrapper that
records a span (name, start, end, parent) and any counts the hook defines.
Hooks sit at module boundaries only: never on ``squared_distance`` or other
inner-loop helpers, whose call counts would swamp the trace.  A name that
the package no longer has is reported as absent and skipped.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

ROOT = "cli.run"


@dataclass(frozen=True)
class Hook:
    """``module.name`` is the binding wrapped; ``layer`` is the module the
    callee belongs to.  ``count`` maps (args, result) to a dict of amounts
    added to the tallies; ``span`` False records the counts and no span."""

    module: str
    name: str
    layer: str
    count: object = None
    span: bool = True

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


def _rows_checked(args, report):
    return {"bounds.rows_checked": report.checks}


def _cycles_built(args, cycles):
    return {"cycles.cycles_built": len(cycles)}


def _terms(args, table):
    return {"sequences.terms": len(table.terms)}


def _stream(args, result):
    return {"prng.streams": 1}


HOOKS = (
    Hook("bounds", "fuzz", "bounds", _rows_checked),
    Hook("bounds", "check_k4_bounds", "bounds", _rows_checked),
    Hook("bounds", "check_k5_bounds", "bounds", _rows_checked),
    # the rows a fuzz run holds in memory until it aggregates them
    Hook("bounds", "_aggregate", "bounds", lambda a, r: {"bounds.rows_kept": len(a[4])}),
    Hook("bounds", "random_config", "geometry"),
    Hook("bounds", "enumerate_cycles", "cycles", _cycles_built),
    Hook("bounds", "mix64", "prng", _stream, span=False),
    Hook("quadrilateral", "fuzz_identity", "quadrilateral"),
    Hook("quadrilateral", "verify_identity", "quadrilateral"),
    Hook("quadrilateral", "identity_terms", "quadrilateral"),
    Hook("quadrilateral", "random_config", "geometry"),
    Hook("quadrilateral", "mix64", "prng", _stream, span=False),
    Hook("extremal", "random_config", "geometry"),
    Hook("extremal", "normalized_points", "geometry"),
    Hook("extremal", "mix64", "prng", _stream, span=False),
    Hook("sequences", "sequence_table", "sequences", _terms),
    Hook("cli", "random_config", "geometry"),
    Hook("cli", "enumerate_cycles", "cycles", _cycles_built),
    Hook("cli", "cycle_weight", "cycles"),
    Hook("cli", "trace", "pentagon", lambda a, r: {"pentagon.levels": r.levels}),
    Hook("cli", "sequence_table", "sequences", _terms),
    Hook("cli", "check_sequence_properties", "sequences"),
    Hook("cli", "optimize", "extremal",
         lambda a, r: {"extremal.restarts": r.restarts, "extremal.sweeps": r.sweeps}),
)

LAYER = {h.key: h.layer for h in HOOKS}
LAYER[ROOT] = "cli"
MODULES = ("prng", "geometry", "cycles", "bounds", "quadrilateral", "pentagon",
           "sequences", "extremal", "cli")

# Per-module metrics, in report order.  Tallies add over a sample's calls;
# the derived ones (evals, evals_per_s) are computed from tallies per sample.
METRICS = (
    ("cycles.enumerate_s", "s", "lower"),
    ("cycles.enumerate_calls", "count", "lower"),
    ("cycles.cycles_built", "count", "lower"),
    ("cycles.weight_s", "s", "lower"),
    ("cycles.weight_calls", "count", "lower"),
    ("bounds.self_s", "s", "lower"),
    ("bounds.rows_checked", "count", "lower"),
    ("bounds.rows_kept", "count", "lower"),
    ("geometry.config_s", "s", "lower"),
    ("geometry.configs", "count", "lower"),
    ("prng.streams", "count", "lower"),
    ("geometry.normalize_s", "s", "lower"),
    ("geometry.normalize_calls", "count", "lower"),
    ("extremal.self_s", "s", "lower"),
    ("extremal.evals", "count", "lower"),
    ("extremal.evals_per_s", "1/s", "higher"),
    ("extremal.sweeps", "count", "lower"),
    ("quadrilateral.self_s", "s", "lower"),
    ("quadrilateral.checks", "count", "lower"),
    ("pentagon.trace_s", "s", "lower"),
    ("pentagon.levels", "count", "lower"),
    ("sequences.self_s", "s", "lower"),
    ("sequences.terms", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

DERIVED = ("extremal.evals", "extremal.evals_per_s", "trace.overhead_ratio")

# span-name suffix -> (time tally, call tally)
_SPAN_TALLIES = {
    "enumerate_cycles": ("cycles.enumerate_s", "cycles.enumerate_calls"),
    "cycle_weight": ("cycles.weight_s", "cycles.weight_calls"),
    "random_config": ("geometry.config_s", "geometry.configs"),
    "normalized_points": ("geometry.normalize_s", "geometry.normalize_calls"),
    "identity_terms": (None, "quadrilateral.checks"),
    "trace": ("pentagon.trace_s", None),
    "optimize": ("extremal.span_s", None),
}


class Tracer:
    """Installs hooks, keeps spans and counts in memory, and restores the
    original bindings on :meth:`uninstall`.

    A span is ``(id, parent, name, start, end)``; ids start at 1 and the
    parent of the outermost call is 0.
    """

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans = []
        self.counts = {}
        self.absent = []
        self._stack = [0]
        self._saved = []

    def install(self) -> None:
        for hook in self.hooks:
            try:
                module = importlib.import_module(f"cycleweights.{hook.module}")
            except ImportError:
                self.absent.append(hook.key)
                continue
            original = getattr(module, hook.name, None)
            if original is None:
                self.absent.append(hook.key)
                continue
            self._saved.append((module, hook.name, original))
            setattr(module, hook.name, self._wrap(hook, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _add(self, amounts: dict) -> None:
        for counter, amount in amounts.items():
            self.counts[counter] = self.counts.get(counter, 0) + amount

    def _wrap(self, hook: Hook, fn):
        if not hook.span:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._add(hook.count(args, result))
                return result
            return counted
        return self.spanned(hook.key, fn, hook)

    def spanned(self, name: str, fn, hook: Hook = None):
        """``fn`` wrapped so that each call records a span named ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            spans.append(None)  # reserve the id before any child span takes one
            sid = len(spans)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid - 1] = (sid, parent, name, start, end)
            if hook is not None and hook.count is not None:
                self._add(hook.count(args, result))
            return result
        return wrapper


def self_times(spans) -> dict:
    """Self time per module: each span's duration minus its direct children's."""
    child = {}
    for sid, parent, name, start, end in spans:
        child[parent] = child.get(parent, 0.0) + (end - start)
    out = dict.fromkeys(MODULES, 0.0)
    for sid, parent, name, start, end in spans:
        layer = LAYER.get(name, name.split(".")[0])
        out[layer] = out.get(layer, 0.0) + (end - start) - child.get(sid, 0.0)
    return out


def tally(spans, counts, out_bytes: int) -> dict:
    """Additive tallies of one call: the per-module metrics before deriving."""
    t = dict.fromkeys(
        [m for m, _, _ in METRICS if m not in DERIVED]
        + ["extremal.span_s", "extremal.restarts"], 0
    )
    for name, value in counts.items():
        t[name] = t.get(name, 0) + value
    for sid, parent, name, start, end in spans:
        time_key, call_key = _SPAN_TALLIES.get(name.rsplit(".", 1)[-1], (None, None))
        if time_key:
            t[time_key] += end - start
        if call_key:
            t[call_key] += 1
    selfs = self_times(spans)
    for module in ("bounds", "extremal", "quadrilateral", "sequences", "cli"):
        t[f"{module}.self_s"] = selfs[module]
    t["cli.out_bytes"] = out_bytes
    return t


def derive(t: dict) -> dict:
    """Per-sample metrics from a sample's summed tallies."""
    out = {m: t.get(m, 0) for m, _, _ in METRICS if m not in DERIVED}
    evals = t["geometry.normalize_calls"] - t["extremal.restarts"]
    out["extremal.evals"] = evals
    out["extremal.evals_per_s"] = evals / t["extremal.span_s"] if t["extremal.span_s"] else 0.0
    return out
