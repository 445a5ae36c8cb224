"""Workloads of the cycleweights benchmark and the oracle that checks them.

A workload turns a workload seed into samples.  Sample ``i`` draws its seed
as ``mix64(workload_seed + i)`` and runs one or more CLI argument vectors,
each in a fresh process; the sample's time is the sum of its calls.

The oracle checks one call from its argument vector, exit code, stdout and
stderr.  It never imports the package: every reference value (sqrt(5),
cosines, the Fraction recurrence, the laws of the midpoint iteration) is
computed here, so it holds for any seed and survives any rewrite of the
package that keeps the CLI contract.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

MASK64 = (1 << 64) - 1

# optimizer values may land a few ulp past the spectral extreme
SEARCH_TOL = 1e-9
POLYGON_TOL = 1e-12


def mix64(z: int) -> int:
    """SplitMix64 output for seed ``z``; the CLI's own per-trial seed rule."""
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def sample_seed(workload_seed: int, i: int) -> int:
    return mix64((workload_seed + i) & MASK64)


@dataclass(frozen=True)
class Workload:
    """``items`` is the work one sample completes; ``calls`` maps a sample
    seed to the argument vectors the sample runs, in order."""

    name: str
    items: int
    unit: str
    calls: object

    def sample(self, workload_seed: int, i: int) -> list:
        return self.calls(sample_seed(workload_seed, i))


def _fuzz_float(s):
    return [["verify", "--n", "5", "--fuzz", "10000", "--seed", str(s)]]


def _exact_session(s):
    return [
        ["verify", "--n", "5", "--fuzz", "500", "--mode", "rational", "--seed", str(s)],
        ["identity", "--fuzz", "500", "--mode", "rational", "--seed", str(s)],
        ["iterate", "--seed", str(s), "--mode", "rational", "--steps", "200"],
        ["sequence", "--terms", "1000", "--check"],
    ]


def _search(s):
    common = ["--restarts", "20", "--budget", "500", "--seed", str(s)]
    return [
        ["optimize", "--n", "5", "--objective", "minimize", *common],
        ["optimize", "--n", "7", "--objective", "maximize", *common],
    ]


def _enumerate_n10(s):
    # the regular 10-gon has no seed; every sample repeats the same call
    return [["pentagon", "--n", "10", "--json"]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fuzz-float", 10_000, "configurations", _fuzz_float),
        Workload("exact-session", 1_001, "configurations", _exact_session),
        Workload("search", 40, "restarts", _search),
        Workload("enumerate-n10", 181_440, "cycles", _enumerate_n10),
    )
}


# --- oracle -----------------------------------------------------------


class OracleError(Exception):
    """A call's output is wrong; the message says how."""


def _require(cond, message: str) -> None:
    if not cond:
        raise OracleError(message)


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _fields(line: str, prefix: str) -> dict:
    _require(line.startswith(prefix), f"expected a line starting {prefix!r}")
    return dict(tok.split("=", 1) for tok in line[len(prefix):].split())


def spectral_interval(n: int) -> tuple:
    """Exact range of w(E)/w(K_n): extreme eigenvalues of the cycle Laplacian over n."""
    return (
        (2 - 2 * math.cos(2 * math.pi / n)) / n,
        (2 - 2 * math.cos(2 * math.pi * (n // 2) / n)) / n,
    )


def _check_verify(argv, out: str) -> None:
    trials = int(_opt(argv, "--fuzz"))
    mode = _opt(argv, "--mode", "float")
    _require(_opt(argv, "--n") == "5", "verify oracle covers n = 5 only")
    lines = out.splitlines()
    # rows are printed only for violated or degenerate cycles
    _require(len(lines) == 2, f"expected 2 lines, got {len(lines)}")
    head = _fields(lines[0], "bounds ")
    _require(head.get("n") == "5" and head.get("mode") == mode, "wrong header")
    _require(head.get("trials") == str(trials), "wrong trial count")
    s = _fields(lines[1], "summary ")
    _require(s.get("checks") == str(12 * trials), f"checks {s.get('checks')}")
    _require(s.get("violations") == "0", f"violations {s.get('violations')}")
    _require(s.get("degenerate") == "0", f"degenerate {s.get('degenerate')}")
    if mode == "rational":
        for key in ("min_ratio", "max_ratio"):
            t = 10 * Fraction(s[key]) - 5
            _require(t * t < 5, f"{key} outside (5 -+ sqrt 5)/10")
    else:
        lo, hi = (5 - math.sqrt(5)) / 10, (5 + math.sqrt(5)) / 10
        _require(lo <= float(s["min_ratio"]) <= float(s["max_ratio"]) <= hi,
                 "ratios outside (5 -+ sqrt 5)/10")


def _check_identity(argv, out: str) -> None:
    trials = int(_opt(argv, "--fuzz"))
    _require(_opt(argv, "--mode") == "rational", "identity oracle covers rational only")
    lines = out.splitlines()
    _require(len(lines) == 1, f"expected 1 line, got {len(lines)}")
    f = _fields(lines[0], "identity fuzz ")
    _require(f.get("trials") == str(trials) and f.get("mode") == "rational", "wrong header")
    _require(f.get("checks") == str(3 * trials), f"checks {f.get('checks')}")
    _require(f.get("violations") == "0", f"violations {f.get('violations')}")
    _require(float(f.get("max_rel_residual", "nan")) == 0.0, "non-zero residual")


def _check_iterate(argv, out: str) -> None:
    steps = int(_opt(argv, "--steps"))
    _require(_opt(argv, "--mode") == "rational", "iterate oracle covers rational only")
    lines = out.splitlines()
    _require(len(lines) == steps + 3, f"expected {steps + 3} lines, got {len(lines)}")
    _require(lines[0] == "level,d,e,resA,resB,resC", "wrong header")
    _require(lines[-1] == "# max_rel_residual 0.0", "non-zero max_rel_residual")
    d, e = [], []
    for idx, line in enumerate(lines[1:-1]):
        level, dv, ev, *res = line.split(",")
        _require(level == str(idx + 1) and len(res) == 3, f"bad row {idx + 1}")
        # resA/resB exist for levels 1..steps, resC for 1..steps-1
        present = (idx < steps, idx < steps, idx < steps - 1)
        for r, has in zip(res, present):
            _require(r == ("0" if has else ""), f"residual {r!r} at level {idx + 1}")
        d.append(Fraction(dv))
        e.append(Fraction(ev))
    _require(all(x > 0 for x in d + e), "non-positive weight")
    for i in range(steps):
        _require(4 * d[i + 1] == e[i], f"law A fails at level {i + 1}")
        _require(d[i] + 4 * e[i + 1] == 3 * e[i], f"law B fails at level {i + 1}")


def _check_sequence(argv, out: str) -> None:
    terms = int(_opt(argv, "--terms"))
    lines = out.splitlines()
    _require(lines and lines[0] == "n,a,ratio,bound,bound_decimal", "wrong header")
    rows = lines[1:terms + 2]
    _require(len(rows) == terms + 1, "missing rows")
    a = [Fraction(0), Fraction(1)]
    while len(a) <= terms:
        a.append(Fraction(3, 4) * a[-1] - Fraction(1, 16) * a[-2])
    for n, row in enumerate(rows):
        cols = row.split(",")
        _require(len(cols) == 5 and cols[0] == str(n), f"bad row {n}")
        _require(cols[1] == str(a[n]), f"term a_{n} is wrong")
        if n >= 2:
            _require(cols[3] == str(3 - a[n - 1] / (4 * a[n])), f"bound B({n}) is wrong")
    _require("--check" not in argv or lines[-1] == "# verdict holds", "verdict is not holds")


def _check_optimize(argv, out: str) -> None:
    n = int(_opt(argv, "--n"))
    objective = _opt(argv, "--objective", "maximize")
    lines = out.splitlines()
    values = [ln[len("value "):] for ln in lines if ln.startswith("value ")]
    _require(len(values) == 1, "no value line")
    lo, hi = spectral_interval(n)
    target = lo if objective == "minimize" else hi
    _require(abs(float(values[0]) - target) <= SEARCH_TOL,
             f"value {values[0]} is not within {SEARCH_TOL} of {target!r}")


def _check_pentagon(argv, out: str) -> None:
    _require("--json" in argv, "pentagon oracle reads --json output")
    n = int(_opt(argv, "--n", "5"))
    obj = json.loads(out)
    _require(obj.get("n") == n, "wrong n")
    _require(obj.get("cycles") == math.factorial(n - 1) // 2, f"cycles {obj.get('cycles')}")
    _require(obj.get("violations") == 0, "violations")
    lo, hi = spectral_interval(n)
    _require(abs(obj["min_ratio"] - lo) <= POLYGON_TOL, f"min {obj['min_ratio']!r} != {lo!r}")
    _require(obj["max_ratio"] <= hi + POLYGON_TOL, f"max {obj['max_ratio']!r} > {hi!r}")


_ORACLES = {
    "verify": _check_verify,
    "identity": _check_identity,
    "iterate": _check_iterate,
    "sequence": _check_sequence,
    "optimize": _check_optimize,
    "pentagon": _check_pentagon,
}


def check_call(argv, code: int, out: str, err: str):
    """Return None when the call is correct, else the reason it is not."""
    if "Traceback" in err:
        return "traceback on stderr"
    if code != 0:
        return f"exit code {code}"
    try:
        _ORACLES[argv[0]](argv, out)
    except OracleError as exc:
        return f"{argv[0]}: {exc}"
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError) as exc:
        return f"{argv[0]}: unparsable output ({type(exc).__name__}: {exc})"
    return None
