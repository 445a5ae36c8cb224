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

from . import bounds as bounds_mod
from . import quadrilateral as quad_mod
from .checks import HOLDS, REL_TOL_DERIVED, REL_TOL_DIRECT, VIOLATED
from .cycles import Cycle, canonicalize, cycle_extremes
# not called here: the benchmark's tracer hooks these two names on this module
from .cycles import cycle_weight, enumerate_cycles  # noqa: F401
from .errors import DegenerateError, UsageError
from .extremal import MAXIMIZE, MINIMIZE, conjecture_table, optimize
from .geometry import (
    FLOAT, MODES, RATIONAL, Configuration, column_pair_weights, format_points, ordered_sum,
    parse_points, random_config, regular_polygon,
)
from .pentagon import trace
from .prng import MASK64
from .sequences import check_sequence_properties, sequence_table


# From n = 7144 on, a table row holds a reduced int with more digits than an
# int renders as text by default (4300), so a longer table ends in a traceback.
MAX_TERMS = 7000


def _fmt(x) -> str:
    # str of a float is its repr, the shortest round-trip form
    return "" if x is None else str(x)


def _kv(obj, *names) -> str:
    """``name=value`` for each named field of a report, space-separated."""
    return " ".join(f"{name}={_fmt(getattr(obj, name))}" for name in names)


def _jsonable(x, drop=()):
    """JSON form of a report value.

    A record (a named tuple or a ``geometry.Record``) becomes a dict of its
    ``_fields`` less those named in ``drop``; Fractions and Cycles become
    strings, a non-finite float becomes None (``null``: JSON has no NaN or
    Infinity), tuples and lists become lists, and the values of a dict are
    mapped in turn.
    """
    if isinstance(x, (Fraction, Cycle)):
        return str(x)
    if isinstance(x, float) and not math.isfinite(x):
        return None
    fields = getattr(x, "_fields", None)
    if fields is not None:
        return {name: _jsonable(getattr(x, name)) for name in fields if name not in drop}
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    return x


def _emit(args, records, lines) -> None:
    """Write a report to --out, or to stdout when it is not given.

    Under --json it is ``records()``, one JSON object per line; otherwise it
    is ``lines()``.  Only the requested format is built.
    """
    if args.json:
        text = "".join(json.dumps(_jsonable(r), sort_keys=True) + "\n" for r in records())
    else:
        text = "".join(line + "\n" for line in lines())
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from None


def _refuse(args, form, *names) -> None:
    """A usage error for the first named option given a value other than its
    default: the chosen form ``form`` would ignore it."""
    for name in names:
        if name in args.given:
            raise UsageError(f"--{name.replace('_', '-')} has no effect with {form}")


def _mode(args, mode) -> str:
    """The resolved ``mode``; --tol is refused beside a rational one, which decides exactly."""
    if mode == RATIONAL:
        _refuse(args, "rational mode", "tol")
    return mode


def _draw(args) -> tuple:
    """--seed, --dim and --mode of a seeded draw, by default 0, 2 and float."""
    return 0 if args.seed is None else args.seed, args.dim or 2, _mode(args, args.mode or FLOAT)


def _configuration(args, n) -> Configuration:
    """The points of --in ('-' reads stdin), which must number n if n is given;
    else the regular n-gon of --polygon and --radius; else the seeded draw of
    --seed, --dim and --mode.  An option the chosen form ignores is refused."""
    if "infile" in args.given:
        _refuse(args, "--in", "polygon", "radius", "seed", "mode", "dim")
        try:
            if args.infile == "-":
                text = sys.stdin.read()
            else:
                with open(args.infile, encoding="utf-8") as f:
                    text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {args.infile}: {exc}") from None
        config = parse_points(text)
        _mode(args, config.mode)
        if n is not None and config.n != n:
            raise UsageError(f"{args.command} takes {n} points, the file has {config.n}")
        return config
    if "polygon" in args.given:
        _refuse(args, "--polygon", "seed", "mode", "dim")
        return regular_polygon(n, args.radius)
    _refuse(args, "a seeded draw", "radius")
    seed, dim, mode = _draw(args)
    return random_config(seed, n, dim, mode)


def _tolerance(text: str) -> float:
    """argparse type for every --tol: a finite, positive float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type for every --seed: an unsigned 64-bit integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= MASK64:
        raise argparse.ArgumentTypeError(f"must be an integer from 0 to 2**64 - 1, got {text!r}")
    return value


def _row_json(row, *drop) -> dict:
    """A CycleRow, its three weights under the keys wE, wD and wK."""
    weights = {"wE": row.w_cycle, "wD": row.w_complement, "wK": row.w_total}
    return {**_jsonable(row, ("w_cycle", "w_complement", "w_total", *drop)), **weights}


# --- gen --------------------------------------------------------------


def _cmd_gen(args) -> int:
    if not 3 <= args.n <= 10:
        raise UsageError("--n must be between 3 and 10")
    config = _configuration(args, args.n)
    _emit(
        args,
        lambda: [{"kind": "points", "n": config.n, **_jsonable(config)}],
        lambda: format_points(config).splitlines(),
    )
    return 0


# --- verify -----------------------------------------------------------


def _cmd_verify(args) -> int:
    if (args.infile is None) == (args.fuzz is None):
        raise UsageError("provide exactly one of --in or --fuzz")
    duality = None
    if args.infile is not None:
        config = _configuration(args, args.n)
        report = bounds_mod.check_bounds(config, args.tol)
        if args.duality:
            duality = bounds_mod.duality_check(config, args.tol)
    else:
        if args.n is None:
            raise UsageError("--fuzz needs --n")
        _refuse(args, "--fuzz", "duality")
        seed, dim, mode = _draw(args)
        report = bounds_mod.fuzz(seed, args.fuzz, args.n, dim, args.tol, mode)

    def records():
        yield from (_row_json(r) for r in report.rows)
        summary = {"kind": "summary", **_jsonable(report, ("rows",))}
        if duality is not None:
            yield from ({"kind": "duality", **_jsonable(r)} for r in duality.rows)
            summary["duality_verdict"] = duality.verdict
        yield summary

    def lines():
        yield "bounds " + _kv(report, "n", "mode", "tolerance", "trials")
        for r in report.rows:
            prefix = "" if args.fuzz is None else f"config {r.config_id} "
            yield (f"{prefix}cycle {r.cycle} w_cycle {_fmt(r.w_cycle)}"
                   f" ratio {_fmt(r.ratio)} verdict {r.verdict}")
        yield "summary " + _kv(
            report, "checks", "violations", "degenerate", "equalities", "min_ratio", "max_ratio"
        )
        if duality is not None:
            yield f"duality verdict {duality.verdict}"
            for r in duality.rows:
                yield (f"duality cycle {r.cycle} complement {r.complement}"
                       f" residual {_fmt(r.residual)}"
                       f" lower {r.lower_attained} upper {r.upper_attained}")

    _emit(args, records, lines)
    if report.violations or (duality is not None and duality.verdict == VIOLATED):
        return 1
    return 3 if report.degenerate else 0


# --- identity ---------------------------------------------------------


def _cmd_identity(args) -> int:
    if (args.infile is None) == (args.fuzz is None):
        raise UsageError("provide exactly one of --in or --fuzz")
    if args.fuzz is not None:
        _refuse(args, "--fuzz", "pairing")
        seed, dim, mode = _draw(args)
        rep = quad_mod.fuzz_identity(seed, args.fuzz, dim, mode, args.tol)
        fields = ("trials", "dim", "mode", "checks", "violations", "max_rel_residual")
        _emit(
            args,
            lambda: [{"kind": "identity-fuzz", **_jsonable(rep)}],
            lambda: ["identity fuzz " + _kv(rep, *fields)],
        )
        return 1 if rep.violations else 0

    config = _configuration(args, 4)
    pairings = (0, 1, 2) if args.pairing == "all" else (int(args.pairing),)
    reports = [quad_mod.verify_identity(config, p, args.tol) for p in pairings]
    violations = sum(r.verdict == VIOLATED for r in reports)

    def records():
        rows = [
            {**_jsonable(r.terms, ("p_sq", "q_sq", "r_sq")),
             "four_r_sq": 4 * r.terms.r_sq, "verdict": r.verdict}
            for r in reports
        ]
        yield {"kind": "identity", "mode": config.mode, "tolerance": args.tol,
               "violations": violations, "rows": rows}

    def lines():
        yield "identity " + _kv(reports[0], "mode", "tolerance")
        for r in reports:
            t = r.terms
            yield f"pairing {t.pairing} verdict {r.verdict}"
            yield "  l_sq " + " ".join(_fmt(v) for v in t.l_sq)
            yield (f"  4r_sq {_fmt(4 * t.r_sq)} lhs {_fmt(t.lhs)} rhs {_fmt(t.rhs)}"
                   f" residual {_fmt(t.residual)}")

    _emit(args, records, lines)
    return 1 if violations else 0


# --- iterate ----------------------------------------------------------


def _cmd_iterate(args) -> int:
    if not {"infile", "polygon", "seed"} & args.given:
        raise UsageError("provide one of --in, --polygon, or --seed")
    config = _configuration(args, 5)
    try:
        e_cycle = canonicalize([int(t) for t in args.cycle.split(",")])
    except ValueError:
        raise UsageError(f"--cycle takes comma-separated vertices, got {args.cycle!r}") from None
    if e_cycle.n != 5:
        raise UsageError("--cycle must list the 5 vertices")
    tr = trace(config, e_cycle, args.steps)
    max_rel = tr.max_relative_residual()
    if config.mode == RATIONAL:
        violated = any(r != 0 for r in tr.res_a + tr.res_b + tr.res_c)
    else:
        violated = max_rel > args.tol

    def records():
        yield {"kind": "trace", **_jsonable(tr, ("states",)), "cycle": e_cycle,
               "levels": [_jsonable(s, ("points", "mode")) for s in tr.states],
               "max_rel_residual": max_rel}

    def lines():
        yield "level,d,e,resA,resB,resC"
        # the last level has no law (A)/(B) residual, the last two no (C) one
        columns = (tr.states, tr.res_a + ("",), tr.res_b + ("",), tr.res_c + ("", ""))
        for s, *res in zip(*columns):
            yield ",".join(_fmt(v) for v in (s.level, s.d, s.e, *res))
        yield f"# max_rel_residual {_fmt(max_rel)}"

    _emit(args, records, lines)
    return 1 if violated else 0


# --- sequence ---------------------------------------------------------


def _pair_text(p: int, q: int) -> str:
    """str of the Fraction p/q, for ints p, q in lowest terms with q > 0.  Its
    decimal is the int division ``p / q``, correctly rounded like ``float()``."""
    return f"{p}/{q}" if q != 1 else str(p)


def _cmd_sequence(args) -> int:
    if not 2 <= args.terms <= MAX_TERMS:
        raise UsageError(f"--terms must be between 2 and {MAX_TERMS}")
    table = sequence_table(args.terms)
    check = None
    if args.check:
        if args.terms < 3:
            raise UsageError("--check needs --terms >= 3")
        check = check_sequence_properties(args.terms, table)

    def records():
        ratios = [table.ratio_pair(n) for n in range(1, args.terms)]
        bounds = [table.bound_pair(n) for n in range(2, args.terms + 1)]
        obj = {"kind": "sequence",
               "terms": [_pair_text(*table.term_pair(n)) for n in range(args.terms + 1)],
               "ratios": [_pair_text(*r) for r in ratios],
               "bounds": [_pair_text(*b) for b in bounds],
               "ratio_decimals": [p / q for p, q in ratios],
               "bound_decimals": [p / q for p, q in bounds]}
        if check is not None:
            obj["check"] = check
        yield obj

    def lines():
        yield "n,a,ratio,bound,bound_decimal"
        for n in range(args.terms + 1):
            a = _pair_text(*table.term_pair(n))
            if n < 2:
                yield f"{n},{a},,,"
            else:
                (rp, rq), (bp, bq) = table.ratio_pair(n - 1), table.bound_pair(n)
                yield f"{n},{a},{rp / rq!r},{_pair_text(bp, bq)},{bp / bq!r}"
        if check is not None:
            for name, value in _jsonable(check, ("n_checked",)).items():
                yield f"# {name} {_fmt(value)}"

    _emit(args, records, lines)
    return 1 if check is not None and check.verdict != HOLDS else 0


# --- optimize ---------------------------------------------------------


def _optimize_json(res) -> dict:
    dropped = ("objective", "config", "best_restart", "within_bounds", "history",
               "evals", "rescores", "acceptances", "halvings")
    return {**_jsonable(res, dropped), "objective_kind": res.objective,
            "witness_points": res.config.points}


def _cmd_optimize(args) -> int:
    if args.conjecture:
        _refuse(args, "--conjecture", "n", "objective")
        if args.n_min > args.n_max:
            raise UsageError("--n-min must not exceed --n-max")
        rows = conjecture_table(
            args.seed, range(args.n_min, args.n_max + 1), args.dim,
            args.restarts, args.budget,
        )
        results = [res for r in rows for res in (r.minimum, r.maximum)]

        def records():
            yield {"kind": "conjecture", "rows": [
                {**_jsonable(r, ("minimum", "maximum")),
                 "min": _optimize_json(r.minimum), "max": _optimize_json(r.maximum)}
                for r in rows
            ]}

        def lines():
            for r in rows:
                yield (f"n={r.n} min {_fmt(r.minimum.value)} max {_fmt(r.maximum.value)}"
                       f" proven {' '.join(_fmt(b) for b in r.proven)}")
                yield (f"  cycle_check min {r.min_cycle} {_fmt(r.min_cycle_value)}"
                       f" max {r.max_cycle} {_fmt(r.max_cycle_value)}")

    else:
        if args.n is None:
            raise UsageError("provide --n (or --conjecture)")
        _refuse(args, "--n", "n_min", "n_max")
        res = optimize(args.seed, args.n, args.dim, args.objective, args.restarts, args.budget)
        results = [res]

        def records():
            yield _optimize_json(res)

        def lines():
            header = _kv(res, "n", "dim", "objective", "restarts")
            yield f"optimize {header} budget={args.budget}"
            yield f"value {_fmt(res.value)}"
            yield f"bound {' '.join(_fmt(b) for b in res.bound)} within_bounds {res.within_bounds}"
            yield f"cycle {res.cycle}"
            yield (f"best_restart {res.best_restart} sweeps {res.sweeps}"
                   f" accepted {len(res.history)}")
            yield "witness:"
            yield from format_points(res.config).splitlines()

    _emit(args, records, lines)
    return 0 if all(res.within_bounds for res in results) else 1


# --- pentagon ---------------------------------------------------------


def _cmd_pentagon(args) -> int:
    if not 3 <= args.n <= 10:
        raise UsageError("--n must be between 3 and 10")
    if args.check and args.n != 5:
        raise UsageError("--check applies to the pentagon (n = 5)")
    if not args.check:
        _refuse(args, "pentagon without --check", "tol")
    config = regular_polygon(args.n, args.radius)
    # division by w_k > 0 is monotone: the extreme weights give the extreme ratios
    w = column_pair_weights(config.cols)
    w_k = ordered_sum(w)
    if not bounds_mod.has_ratio(w_k):
        raise DegenerateError(f"squared distances under- or overflow at radius {args.radius!r}")
    extremes = cycle_extremes(w, args.n)
    count, lo, hi = math.factorial(args.n - 1) // 2, *(w_e / w_k for w_e in extremes)
    # per-cycle rows for n = 4 and 5 only: n = 10 has 181,440 cycles.  A verdict is
    # monotone in w(E), so a row is violated only if an extreme is.
    report = bounds_mod.check_bounds(config, REL_TOL_DERIVED) if args.n in (4, 5) else None
    violations = report.violations if report is not None else sum(
        bounds_mod.classify(w_e, w_k, args.n, REL_TOL_DERIVED, FLOAT)[1] == VIOLATED
        for w_e in extremes)
    ends = bounds_mod.spectral_interval(5) if args.check else ()
    ok = [bounds_mod.at_end(w_e, w_k, 5, j, args.tol) for j, w_e in enumerate(extremes[:len(ends)])]

    def records():
        obj = {"kind": "pentagon", "n": args.n, "radius": args.radius, "cycles": count,
               "min_ratio": lo, "max_ratio": hi, "violations": violations}
        if report is not None:
            obj["rows"] = [_row_json(r, "config_id") for r in report.rows]
        if args.check:
            obj["check"] = {"lower_target": ends[0], "lower_ok": ok[0],
                            "upper_target": ends[1], "upper_ok": ok[1],
                            "tolerance": args.tol}
        yield obj

    def lines():
        yield "regular polygon " + _kv(args, "n", "radius")
        if report is not None:
            for r in report.rows:
                yield f"cycle {r.cycle} ratio {_fmt(r.ratio)} verdict {r.verdict}"
        yield f"extremes min {_fmt(lo)} max {_fmt(hi)}"
        for end, value, target, at in zip(("lower", "upper"), (lo, hi), ends, ok):
            yield f"{end} observed {_fmt(value)} target {_fmt(target)} ok {at}"

    _emit(args, records, lines)
    return 1 if violations or not all(ok) else 0


# --- parser -----------------------------------------------------------


def _add_common(p, *, seed=True, mode=True):
    if seed:
        p.add_argument("--seed", type=_seed, default=None)
    if mode:
        p.add_argument("--mode", choices=list(MODES), default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycleweights",
        description="verify and explore squared-distance cycle weights on K_n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a point configuration")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--dim", type=int, choices=(2, 3), default=None)
    p.add_argument("--polygon", action="store_true")
    p.add_argument("--radius", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="check cycle weights against the spectral interval")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--fuzz", type=int, nargs="?", const=1000, default=None, metavar="TRIALS")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--dim", type=int, choices=(2, 3), default=None)
    p.add_argument("--tol", type=_tolerance, default=REL_TOL_DERIVED)
    p.add_argument("--duality", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("identity", help="check the four-point midpoint relation")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--fuzz", type=int, nargs="?", const=1000, default=None, metavar="TRIALS")
    p.add_argument("--dim", type=int, choices=(2, 3), default=None)
    p.add_argument("--pairing", choices=("0", "1", "2", "all"), default="all")
    p.add_argument("--tol", type=_tolerance, default=REL_TOL_DERIVED)
    _add_common(p)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("iterate", help="run the five-point midpoint iteration")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--polygon", action="store_true")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--dim", type=int, choices=(2, 3), default=None)
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
    p.add_argument("--tol", type=_tolerance, default=REL_TOL_DIRECT)
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
    # the options given a value other than the subcommand's default
    defaults = vars(parser.parse_args([args.command]))
    args.given = {name for name, value in vars(args).items() if value != defaults[name]}
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
