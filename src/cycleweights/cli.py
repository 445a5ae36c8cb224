"""Command-line interface.

Exit codes: 0 when every requested check holds, 1 when at least one
check is violated, 2 for usage errors, 3 for degenerate input.  Output
for a given argument vector is byte-identical across runs: floats are
rendered with repr (shortest round-trip form), rationals exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import quadrilateral as quad_mod
from .checks import HOLDS, REL_TOL_DERIVED, VIOLATED
from .cycles import Cycle, canonicalize, cycle_weight, enumerate_cycles, total_weight
from .errors import DegenerateError, UsageError
from .extremal import MAXIMIZE, MINIMIZE, conjecture_table, optimize
from .geometry import (
    FLOAT,
    MODES,
    RATIONAL,
    Configuration,
    format_points,
    parse_points,
    random_config,
    regular_polygon,
)
from .pentagon import trace
from .sequences import check_sequence_properties, sequence_table


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Cycle):
        return str(x)
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    return x


def _emit(text: str, out) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(obj, out) -> None:
    _emit(json.dumps(obj, sort_keys=True) + "\n", out)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _tolerance(text: str) -> float:
    """argparse type for every --tol: a finite, positive float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


# --- gen --------------------------------------------------------------


def _cmd_gen(args) -> int:
    if not 3 <= args.n <= 10:
        raise UsageError("--n must be between 3 and 10")
    if args.polygon:
        if args.mode == RATIONAL:
            raise UsageError("regular polygons are float mode only")
        config = regular_polygon(args.n, args.radius)
    else:
        config = random_config(args.seed, args.n, args.dim, args.mode)
    if args.json:
        _emit_json(
            {
                "kind": "points",
                "n": config.n,
                "dim": config.dim,
                "mode": config.mode,
                "points": [_jsonable(list(p)) for p in config.points],
            },
            args.out,
        )
    else:
        _emit(format_points(config), args.out)
    return 0


# --- verify -----------------------------------------------------------


def _bounds_exit(report, duality_report=None) -> int:
    if report.violations or (duality_report is not None and duality_report.verdict == VIOLATED):
        return 1
    return 3 if report.degenerate else 0


def _row_json(r) -> dict:
    return {
        "cycle": str(r.cycle),
        "wE": _jsonable(r.w_cycle),
        "wD": _jsonable(r.w_complement),
        "wK": _jsonable(r.w_total),
        "ratio": _jsonable(r.ratio),
        "verdict": r.verdict,
    }


def _bounds_json_lines(report, duality_report=None) -> str:
    """One JSON object per cycle row, then a summary object."""
    lines = [
        json.dumps({"config_id": r.config_id, **_row_json(r)}, sort_keys=True)
        for r in report.rows
    ]
    if duality_report is not None:
        for r in duality_report.rows:
            lines.append(
                json.dumps(
                    {
                        "kind": "duality",
                        "cycle": str(r.cycle),
                        "complement": str(r.complement),
                        "ratio": _jsonable(r.ratio),
                        "complement_ratio": _jsonable(r.complement_ratio),
                        "residual": _jsonable(r.residual),
                        "lower_attained": r.lower_attained,
                        "upper_attained": r.upper_attained,
                    },
                    sort_keys=True,
                )
            )
    summary = {
        "kind": "summary",
        "n": report.n,
        "mode": report.mode,
        "tolerance": report.tolerance,
        "trials": report.trials,
        "checks": report.checks,
        "violations": report.violations,
        "degenerate": report.degenerate,
        "equalities": report.equalities,
        "min_ratio": _jsonable(report.min_ratio),
        "max_ratio": _jsonable(report.max_ratio),
    }
    if duality_report is not None:
        summary["duality_verdict"] = duality_report.verdict
    lines.append(json.dumps(summary, sort_keys=True))
    return "\n".join(lines) + "\n"


def _bounds_text(report, fuzzing: bool) -> list:
    lines = [
        f"bounds n={report.n} mode={report.mode} tolerance={_fmt(report.tolerance)}"
        f" trials={report.trials}"
    ]
    for r in report.rows:
        prefix = f"config {r.config_id} " if fuzzing else ""
        lines.append(
            f"{prefix}cycle {r.cycle} w_cycle {_fmt(r.w_cycle)}"
            f" ratio {_fmt(r.ratio)} verdict {r.verdict}"
        )
    lines.append(
        f"summary checks={report.checks} violations={report.violations}"
        f" degenerate={report.degenerate} equalities={report.equalities}"
        f" min_ratio={_fmt(report.min_ratio)} max_ratio={_fmt(report.max_ratio)}"
    )
    return lines


def _trial_count(args) -> int:
    """--fuzz may carry the count inline or defer to --trials."""
    return args.trials if args.fuzz == -1 else args.fuzz


def _cmd_verify(args) -> int:
    if (args.infile is None) == (args.fuzz is None):
        raise UsageError("provide exactly one of --in or --fuzz")
    duality_report = None
    if args.infile is not None:
        config = parse_points(_read_input(args.infile))
        if config.n not in (4, 5):
            raise UsageError("bound checks exist for n = 4 and n = 5 only")
        if args.n is not None and args.n != config.n:
            raise UsageError(f"--n {args.n} does not match file ({config.n} points)")
        check = bounds_mod.check_k4_bounds if config.n == 4 else bounds_mod.check_k5_bounds
        report = check(config, args.tol)
        if args.duality:
            if config.n != 5:
                raise UsageError("--duality needs 5 points")
            duality_report = bounds_mod.duality_check(config)
        fuzzing = False
    else:
        if args.n is None:
            raise UsageError("--fuzz needs --n")
        if args.duality:
            raise UsageError("--duality works on a single 5-point input")
        report = bounds_mod.fuzz(
            args.seed, _trial_count(args), args.n, args.dim, args.tol, args.mode
        )
        fuzzing = True
    if args.json:
        _emit(_bounds_json_lines(report, duality_report), args.out)
    else:
        lines = _bounds_text(report, fuzzing)
        if duality_report is not None:
            lines.append(f"duality verdict {duality_report.verdict}")
            for r in duality_report.rows:
                lines.append(
                    f"duality cycle {r.cycle} complement {r.complement}"
                    f" residual {_fmt(r.residual)}"
                    f" lower {r.lower_attained} upper {r.upper_attained}"
                )
        _emit("\n".join(lines) + "\n", args.out)
    return _bounds_exit(report, duality_report)


# --- identity ---------------------------------------------------------


def _cmd_identity(args) -> int:
    if (args.infile is None) == (args.fuzz is None):
        raise UsageError("provide exactly one of --in or --fuzz")
    if args.fuzz is not None:
        rep = quad_mod.fuzz_identity(
            args.seed, _trial_count(args), args.dim, args.mode, args.tol
        )
        if args.json:
            _emit_json(
                {
                    "kind": "identity-fuzz",
                    "trials": rep.trials,
                    "dim": rep.dim,
                    "mode": rep.mode,
                    "tolerance": rep.tolerance,
                    "checks": rep.checks,
                    "violations": rep.violations,
                    "max_rel_residual": rep.max_rel_residual,
                },
                args.out,
            )
        else:
            _emit(
                f"identity fuzz trials={rep.trials} dim={rep.dim} mode={rep.mode}"
                f" checks={rep.checks} violations={rep.violations}"
                f" max_rel_residual={_fmt(rep.max_rel_residual)}\n",
                args.out,
            )
        return 1 if rep.violations else 0

    config = parse_points(_read_input(args.infile))
    if config.n != 4:
        raise UsageError("the identity check needs exactly 4 points")
    pairings = (0, 1, 2) if args.pairing == "all" else (int(args.pairing),)
    reports = [
        quad_mod.verify_identity(
            quad_mod.QuadLabeling(config.points, p, config.mode), args.tol
        )
        for p in pairings
    ]
    violations = sum(1 for r in reports if r.verdict == VIOLATED)
    if args.json:
        _emit_json(
            {
                "kind": "identity",
                "mode": config.mode,
                "tolerance": args.tol,
                "violations": violations,
                "rows": [
                    {
                        "pairing": r.terms.pairing,
                        "l_sq": _jsonable(list(r.terms.l_sq)),
                        "four_r_sq": _jsonable(4 * r.terms.r_sq),
                        "lhs": _jsonable(r.terms.lhs),
                        "rhs": _jsonable(r.terms.rhs),
                        "residual": _jsonable(r.terms.residual),
                        "verdict": r.verdict,
                    }
                    for r in reports
                ],
            },
            args.out,
        )
    else:
        lines = [f"identity mode={config.mode} tolerance={_fmt(args.tol)}"]
        for r in reports:
            t = r.terms
            lines.append(f"pairing {t.pairing} verdict {r.verdict}")
            lines.append("  l_sq " + " ".join(_fmt(v) for v in t.l_sq))
            lines.append(
                f"  4r_sq {_fmt(4 * t.r_sq)} lhs {_fmt(t.lhs)} rhs {_fmt(t.rhs)}"
                f" residual {_fmt(t.residual)}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if violations else 0


# --- iterate ----------------------------------------------------------


def _iterate_config(args) -> Configuration:
    if args.infile is not None:
        config = parse_points(_read_input(args.infile))
        if config.n != 5:
            raise UsageError("midpoint iteration needs exactly 5 points")
        return config
    if args.polygon:
        return regular_polygon(5, args.radius)
    if args.seed is not None:
        return random_config(args.seed, 5, args.dim, args.mode)
    raise UsageError("provide one of --in, --polygon, or --seed")


def _cmd_iterate(args) -> int:
    config = _iterate_config(args)
    try:
        e_cycle = canonicalize([int(t) for t in args.cycle.split(",")])
    except ValueError:
        raise UsageError(f"--cycle takes comma-separated vertices, got {args.cycle!r}") from None
    if e_cycle.n != 5:
        raise UsageError("--cycle must list the 5 vertices")
    tr = trace(config, e_cycle, args.steps)
    if config.mode == RATIONAL:
        violated = any(r != 0 for r in tr.res_a + tr.res_b + tr.res_c)
    else:
        violated = tr.max_relative_residual() > args.tol
    if args.json:
        _emit_json(
            {
                "kind": "trace",
                "mode": tr.mode,
                "cycle": str(e_cycle),
                "levels": [
                    {"level": s.level, "d": _jsonable(s.d), "e": _jsonable(s.e)}
                    for s in tr.states
                ],
                "res_a": _jsonable(list(tr.res_a)),
                "res_b": _jsonable(list(tr.res_b)),
                "res_c": _jsonable(list(tr.res_c)),
                "max_rel_residual": tr.max_relative_residual(),
            },
            args.out,
        )
    else:
        lines = ["level,d,e,resA,resB,resC"]
        steps = len(tr.states) - 1
        for idx, s in enumerate(tr.states):
            ra = _fmt(tr.res_a[idx]) if idx < steps else ""
            rb = _fmt(tr.res_b[idx]) if idx < steps else ""
            rc = _fmt(tr.res_c[idx]) if idx < steps - 1 else ""
            lines.append(f"{s.level},{_fmt(s.d)},{_fmt(s.e)},{ra},{rb},{rc}")
        lines.append(f"# max_rel_residual {_fmt(tr.max_relative_residual())}")
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if violated else 0


# --- sequence ---------------------------------------------------------


def _cmd_sequence(args) -> int:
    if args.terms < 2:
        raise UsageError("--terms must be at least 2")
    table = sequence_table(args.terms)
    check = None
    if args.check:
        if args.terms < 3:
            raise UsageError("--check needs --terms >= 3")
        check = check_sequence_properties(args.terms)
    if args.json:
        obj = {
            "kind": "sequence",
            "terms": [str(t) for t in table.terms],
            "ratios": [str(r) for r in table.ratios],
            "bounds": [str(b) for b in table.bound_values],
            "ratio_decimals": [float(r) for r in table.ratios],
            "bound_decimals": [float(b) for b in table.bound_values],
        }
        if check is not None:
            obj["check"] = {
                "n_checked": check.n_checked,
                "positive_decreasing": check.positive_decreasing,
                "ratio_above_limit": check.ratio_above_limit,
                "ratio_nonincreasing": check.ratio_nonincreasing,
                "final_ratio_gap": check.final_ratio_gap,
                "verdict": check.verdict,
            }
        _emit_json(obj, args.out)
    else:
        lines = ["n,a,ratio,bound,bound_decimal"]
        for n, a in enumerate(table.terms):
            if n >= 2:
                ratio = repr(float(table.ratio(n - 1)))
                bound = str(table.bound(n))
                bound_dec = repr(float(table.bound(n)))
            else:
                ratio = bound = bound_dec = ""
            lines.append(f"{n},{a},{ratio},{bound},{bound_dec}")
        if check is not None:
            lines.append(f"# positive_decreasing {check.positive_decreasing}")
            lines.append(f"# ratio_above_limit {check.ratio_above_limit}")
            lines.append(f"# ratio_nonincreasing {check.ratio_nonincreasing}")
            lines.append(f"# final_ratio_gap {_fmt(check.final_ratio_gap)}")
            lines.append(f"# verdict {check.verdict}")
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if check is not None and check.verdict != HOLDS else 0


# --- optimize ---------------------------------------------------------


def _optimize_json(res):
    return {
        "n": res.n,
        "dim": res.dim,
        "objective_kind": res.objective,
        "value": res.value,
        "bound": list(res.bound) if res.bound is not None else None,
        "witness_points": [list(p) for p in res.config.points],
        "cycle": str(res.cycle),
        "restarts": res.restarts,
        "sweeps": res.sweeps,
    }


def _cmd_optimize(args) -> int:
    if args.conjecture:
        rows = conjecture_table(
            args.seed, range(args.n_min, args.n_max + 1), args.dim,
            args.restarts, args.budget,
        )
        if args.json:
            _emit_json(
                {
                    "kind": "conjecture",
                    "rows": [
                        {
                            "n": r.n,
                            "min": _optimize_json(r.minimum),
                            "max": _optimize_json(r.maximum),
                            "proven": list(r.proven) if r.proven else None,
                            "status": r.status,
                            "min_cycle": str(r.min_cycle),
                            "min_cycle_value": r.min_cycle_value,
                            "max_cycle": str(r.max_cycle),
                            "max_cycle_value": r.max_cycle_value,
                        }
                        for r in rows
                    ],
                },
                args.out,
            )
        else:
            lines = []
            for r in rows:
                proven = (
                    f"proven {_fmt(r.proven[0])} {_fmt(r.proven[1])}"
                    if r.proven
                    else "proven none"
                )
                lines.append(
                    f"n={r.n} min {_fmt(r.minimum.value)} max {_fmt(r.maximum.value)}"
                    f" {proven} status {r.status}"
                )
                lines.append(
                    f"  cycle_check min {r.min_cycle} {_fmt(r.min_cycle_value)}"
                    f" max {r.max_cycle} {_fmt(r.max_cycle_value)}"
                )
            _emit("\n".join(lines) + "\n", args.out)
        bad = any(
            res.within_bounds is False
            for r in rows
            for res in (r.minimum, r.maximum)
        )
        return 1 if bad else 0

    if args.n is None:
        raise UsageError("provide --n (or --conjecture)")
    res = optimize(args.seed, args.n, args.dim, args.objective, args.restarts, args.budget)
    if args.json:
        _emit_json(_optimize_json(res), args.out)
    else:
        bound = (
            f"{_fmt(res.bound[0])} {_fmt(res.bound[1])}" if res.bound else "none"
        )
        lines = [
            f"optimize n={res.n} dim={res.dim} objective={res.objective}"
            f" restarts={res.restarts} budget={args.budget}",
            f"value {_fmt(res.value)}",
            f"bound {bound} within_bounds {res.within_bounds}",
            f"cycle {res.cycle}",
            f"best_restart {res.best_restart} sweeps {res.sweeps}"
            f" accepted {len(res.history)}",
            "witness:",
            format_points(res.config).rstrip("\n"),
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if res.within_bounds is False else 0


# --- pentagon ---------------------------------------------------------


def _cmd_pentagon(args) -> int:
    if not 3 <= args.n <= 10:
        raise UsageError("--n must be between 3 and 10")
    config = regular_polygon(args.n, args.radius)
    w_k = total_weight(config)
    ratios = []
    report = None
    if args.n == 4:
        report = bounds_mod.check_k4_bounds(config)
    elif args.n == 5:
        report = bounds_mod.check_k5_bounds(config)
    if report is not None:
        ratios = [r.ratio for r in report.rows]
        rows_out = [
            f"cycle {r.cycle} ratio {_fmt(r.ratio)} verdict {r.verdict}"
            for r in report.rows
        ]
        violations = report.violations
    else:
        for cy in enumerate_cycles(args.n):
            ratios.append(cycle_weight(config, cy) / w_k)
        rows_out = []
        violations = 0
    lo, hi = min(ratios), max(ratios)
    check = None
    if args.check:
        if args.n != 5:
            raise UsageError("--check applies to the pentagon (n = 5)")
        lo_ok = abs(lo - bounds_mod.K5_LOWER) <= args.tol
        hi_ok = abs(hi - bounds_mod.K5_UPPER) <= args.tol
        check = (lo_ok, hi_ok)
    if args.json:
        obj = {
            "kind": "pentagon",
            "n": args.n,
            "radius": args.radius,
            "cycles": len(ratios),
            "min_ratio": lo,
            "max_ratio": hi,
            "violations": violations,
        }
        if report is not None:
            obj["rows"] = [_row_json(r) for r in report.rows]
        if check is not None:
            obj["check"] = {
                "lower_target": bounds_mod.K5_LOWER,
                "upper_target": bounds_mod.K5_UPPER,
                "lower_ok": check[0],
                "upper_ok": check[1],
                "tolerance": args.tol,
            }
        _emit_json(obj, args.out)
    else:
        lines = [f"regular polygon n={args.n} radius={_fmt(args.radius)}"]
        lines.extend(rows_out)
        lines.append(f"extremes min {_fmt(lo)} max {_fmt(hi)}")
        if check is not None:
            lines.append(
                f"lower observed {_fmt(lo)} target {_fmt(bounds_mod.K5_LOWER)}"
                f" ok {check[0]}"
            )
            lines.append(
                f"upper observed {_fmt(hi)} target {_fmt(bounds_mod.K5_UPPER)}"
                f" ok {check[1]}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    if violations:
        return 1
    if check is not None and not (check[0] and check[1]):
        return 1
    return 0


# --- parser -----------------------------------------------------------


def _add_common(p, *, seed=True, mode=True, out=True):
    if seed:
        p.add_argument("--seed", type=int, default=None)
    if mode:
        p.add_argument("--mode", choices=list(MODES), default=FLOAT)
    p.add_argument("--json", action="store_true")
    if out:
        p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycleweights",
        description="verify and explore squared-distance cycle weights on K4/K5",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a point configuration")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--dim", type=int, choices=(2, 3), default=2)
    p.add_argument("--polygon", action="store_true")
    p.add_argument("--radius", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=_cmd_gen, seed=0)

    p = sub.add_parser("verify", help="check the K4/K5 cycle-weight bounds")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--fuzz", type=int, nargs="?", const=-1, default=None, metavar="TRIALS")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--dim", type=int, choices=(2, 3), default=2)
    p.add_argument("--tol", type=_tolerance, default=REL_TOL_DERIVED)
    p.add_argument("--duality", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_verify, seed=0)

    p = sub.add_parser("identity", help="check the four-point midpoint relation")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--fuzz", type=int, nargs="?", const=-1, default=None, metavar="TRIALS")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--dim", type=int, choices=(2, 3), default=2)
    p.add_argument("--pairing", choices=("0", "1", "2", "all"), default="all")
    p.add_argument("--tol", type=_tolerance, default=REL_TOL_DERIVED)
    _add_common(p)
    p.set_defaults(func=_cmd_identity, seed=0)

    p = sub.add_parser("iterate", help="run the five-point midpoint iteration")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--polygon", action="store_true")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--dim", type=int, choices=(2, 3), default=2)
    p.add_argument("--cycle", default="0,1,2,3,4")
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--tol", type=_tolerance, default=REL_TOL_DERIVED)
    _add_common(p)
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("sequence", help="tabulate the iteration's rational sequence")
    p.add_argument("--terms", type=int, default=10)
    p.add_argument("--check", action="store_true")
    _add_common(p, seed=False, mode=False)
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("optimize", help="search for extremal cycle-weight ratios")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--dim", type=int, choices=(2, 3), default=2)
    p.add_argument("--objective", choices=(MAXIMIZE, MINIMIZE), default=MAXIMIZE)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--conjecture", action="store_true")
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=7)
    _add_common(p, mode=False)
    p.set_defaults(func=_cmd_optimize, seed=0)

    p = sub.add_parser("pentagon", help="regular-polygon ratios and equality checks")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--check", action="store_true")
    p.add_argument("--tol", type=_tolerance, default=1e-12)
    _add_common(p, seed=False, mode=False)
    p.set_defaults(func=_cmd_pentagon)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
