"""End-to-end acceptance checks, one test (and one PASS/FAIL line) each.

Every tolerance and count here is part of the tool's contract.  Checks
against the irrational constants use the exact expressions
((5 -+ sqrt 5)/10, (3 + sqrt 5)/8, (3 + sqrt 5)/2) rather than their
rounded decimal displays, since several are pinned tighter (1e-12) than
the displays are accurate (about 5e-11).
"""

import math
import time
from fractions import Fraction

from cycleweights.bounds import check_k4_bounds, check_k5_bounds, fuzz, spectral_interval
from cycleweights.checks import HOLDS_WITH_EQUALITY
from cycleweights.cli import run
from cycleweights.cycles import canonicalize, complement_cycle, enumerate_cycles
from cycleweights.extremal import MAXIMIZE, MINIMIZE, optimize
from cycleweights.geometry import (
    Configuration,
    RATIONAL,
    random_config,
    regular_polygon,
)
from cycleweights.pentagon import trace
from cycleweights.prng import MASK64, mix64
from cycleweights.quadrilateral import (
    fuzz_identity,
    midpoint_parallelogram_relations,
    midsegment_relations,
)
from cycleweights.sequences import (
    BOUND_LIMIT,
    RATIO_LIMIT,
    check_sequence_properties,
    closed_form_term,
    representation_residual,
    sequence_table,
)

SIDES = canonicalize(range(5))
K5_ENDS = ((5 - math.sqrt(5)) / 10, (5 + math.sqrt(5)) / 10)


def _report(num: int, desc: str, problems: list):
    status = "PASS" if not problems else "FAIL"
    print(f"{status}: criterion {num} - {desc}")
    assert not problems, f"criterion {num} ({desc}): " + "; ".join(problems)


def test_criterion_01_four_point_identity_fuzz():
    problems = []
    t0 = time.perf_counter()
    rep2d = fuzz_identity(101, 10000, dim=2, tolerance=1e-9)
    rep3d = fuzz_identity(102, 10000, dim=3, tolerance=1e-9)
    repq = fuzz_identity(103, 1000, dim=2, mode=RATIONAL)
    elapsed = time.perf_counter() - t0
    if rep2d.violations or rep2d.max_rel_residual > 1e-9:
        problems.append(f"2D float residuals: {rep2d.max_rel_residual}")
    if rep3d.violations or rep3d.max_rel_residual > 1e-9:
        problems.append(f"3D float residuals: {rep3d.max_rel_residual}")
    if repq.violations or repq.max_rel_residual != 0.0:
        problems.append("rational residual not exactly zero")
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(1, "four-point identity fuzz (20k float + 1k rational)", problems)


def test_criterion_02_midpoint_relations_exact():
    problems = []
    for i in range(1000):
        config = random_config(mix64((201 + i) & MASK64), 4, 2, RATIONAL)
        for pairing in (0, 1, 2):
            if any(r != 0 for r in midpoint_parallelogram_relations(config, pairing)):
                problems.append(f"parallelogram residual at trial {i}")
                break
            if any(r != 0 for r in midsegment_relations(config, pairing)):
                problems.append(f"midsegment residual at trial {i}")
                break
        if problems:
            break
    _report(2, "parallelogram/midsegment relations exact on 1k rational quads", problems)


def test_criterion_03_k4_bounds():
    problems = []
    rep = fuzz(301, 10000, 4, tolerance=1e-9)
    if rep.checks != 30000:
        problems.append(f"expected 30000 checks, got {rep.checks}")
    if rep.violations:
        problems.append(f"{rep.violations} violations")
    square = Configuration(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    row = {str(r.cycle): r for r in check_k4_bounds(square).rows}["0,1,2,3"]
    if abs(row.ratio - 0.5) > 1e-12:
        problems.append(f"square perimeter ratio {row.ratio}")
    if row.verdict != HOLDS_WITH_EQUALITY:
        problems.append(f"square perimeter verdict {row.verdict}")
    _report(3, "K4 bounds: 10k fuzz configs + unit-square equality", problems)


def test_criterion_04_k5_bounds():
    problems = []
    rep = fuzz(401, 10000, 5, tolerance=1e-9)
    if rep.checks != 120000:
        problems.append(f"expected 120000 checks, got {rep.checks}")
    if rep.violations:
        problems.append(f"{rep.violations} violations")
    if not (0.2763932023 - 1e-9 <= rep.min_ratio and rep.max_ratio <= 0.7236067977 + 1e-9):
        problems.append(f"ratio range [{rep.min_ratio}, {rep.max_ratio}]")
    pent = check_k5_bounds(regular_polygon(5, 1.0))
    if abs(pent.min_ratio - K5_ENDS[0]) > 1e-12:
        problems.append(f"pentagon lower equality off by {abs(pent.min_ratio - K5_ENDS[0])}")
    if abs(pent.max_ratio - K5_ENDS[1]) > 1e-12:
        problems.append(f"pentagon upper equality off by {abs(pent.max_ratio - K5_ENDS[1])}")
    if pent.equalities != 2:
        problems.append(f"pentagon equalities {pent.equalities}")
    _report(4, "K5 bounds: 10k fuzz configs + pentagon equalities", problems)


def test_criterion_05_iteration_identities():
    problems = []
    worst = 0.0
    for i in range(100):
        config = random_config(mix64((501 + i) & MASK64), 5, 2)
        worst = max(worst, trace(config, SIDES, 30).max_relative_residual())
    if worst > 1e-9:
        problems.append(f"float residual {worst}")
    for i in range(20):
        config = random_config(mix64((551 + i) & MASK64), 5, 2, RATIONAL)
        tr = trace(config, SIDES, 30)
        if any(r != 0 for r in tr.res_a + tr.res_b + tr.res_c):
            problems.append(f"rational residual at trial {i}")
            break
    tr = trace(regular_polygon(5, 1.0), SIDES, 3)
    e, d = tr.e_values(), tr.d_values()
    for name, got, want in [
        ("e2", e[1], 0.6598300563),
        ("d2", d[1], 1.7274575141),
        ("e3", e[2], 0.0630081637),
    ]:
        if abs(got - want) > 1e-9:
            problems.append(f"pentagon {name} = {got}")
    _report(5, "iteration coupling laws: 100 float + 20 rational traces", problems)


def test_criterion_06_sequence_facts():
    problems = []
    t0 = time.perf_counter()
    table = sequence_table(61)
    if table.term(2) != Fraction(3, 4) or table.term(3) != Fraction(1, 2) or table.term(
        4
    ) != Fraction(21, 64):
        problems.append("early terms wrong")
    rep = check_sequence_properties(200)
    if not (rep.positive_decreasing and rep.ratio_above_limit and rep.ratio_nonincreasing):
        problems.append(f"property flags {rep}")
    if abs(float(table.term(41) / table.term(40)) - RATIO_LIMIT) >= 1e-12:
        problems.append("a41/a40 limit gap")
    bounds = [table.bound(n) for n in range(2, 61)]
    if not all(x > y for x, y in zip(bounds, bounds[1:])):
        problems.append("B(n) not strictly decreasing")
    if abs(float(table.bound(60)) - BOUND_LIMIT) >= 1e-12:
        problems.append("B(60) limit gap")
    for n in range(61):
        a = table.term(n)
        cf = closed_form_term(n)
        rel = abs(cf - a) / a if a else abs(cf)
        if rel > Fraction(1, 10**15):
            problems.append(f"closed form off at n={n}")
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 2.0:
        problems.append(f"runtime {elapsed:.2f}s >= 2s")
    _report(6, "sequence terms, monotonicity, limits, closed form", problems)


def test_criterion_07_weight_representation():
    problems = []
    for i in range(20):
        seed = mix64((701 + i) & MASK64)
        tq = trace(random_config(seed, 5, 2, RATIONAL), SIDES, 19)
        if any(representation_residual(tq, n) != 0 for n in range(2, 21)):
            problems.append(f"rational residual at trace {i}")
            break
        tf = trace(random_config(seed, 5, 2), SIDES, 19)
        for n in range(2, 21):
            res = representation_residual(tf, n)
            if abs(res) > 1e-10 * (1 + abs(tf.e_values()[n - 1])):
                problems.append(f"float residual {res} at trace {i}, n={n}")
                break
        if problems:
            break
    _report(7, "e_n representation via the sequence on 20 traces", problems)


def test_criterion_08_enumeration_and_involution():
    problems = []
    counts = {n: len(enumerate_cycles(n)) for n in (4, 5, 6)}
    if counts != {4: 3, 5: 12, 6: 60}:
        problems.append(f"counts {counts}")
    for cy in enumerate_cycles(5):
        if complement_cycle(complement_cycle(cy)) != cy:
            problems.append(f"involution fails on {cy}")
            break
    _report(8, "cycle enumeration counts and complement involution", problems)


def test_criterion_09_optimizer_targets():
    problems = []
    t0 = time.perf_counter()
    v_max5 = optimize(1, 5, 2, MAXIMIZE, 20, 500).value
    v_min5 = optimize(1, 5, 2, MINIMIZE, 20, 500).value
    v_min4 = optimize(1, 4, 2, MINIMIZE, 20, 500).value
    v_max4 = optimize(1, 4, 2, MAXIMIZE, 20, 500).value
    elapsed = time.perf_counter() - t0
    if not (0.723606 <= v_max5 <= 0.7236067977 + 1e-9):
        problems.append(f"n=5 maximize {v_max5}")
    if not v_min5 <= 0.276394:
        problems.append(f"n=5 minimize {v_min5}")
    if abs(v_min4 - 0.5) > 1e-6:
        problems.append(f"n=4 minimize {v_min4}")
    if not v_max4 >= 0.99:
        problems.append(f"n=4 maximize {v_max4}")
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.2f}s >= 60s")
    _report(9, "optimizer reaches the proven extremes (20 restarts, 500 sweeps)", problems)


def test_criterion_10_cli_determinism(capsys):
    problems = []
    invocations = [
        ["gen", "--seed", "11", "--n", "6", "--dim", "3"],
        ["verify", "--fuzz", "200", "--n", "4", "--seed", "12", "--json"],
        ["verify", "--fuzz", "200", "--n", "5", "--seed", "13"],
        ["identity", "--fuzz", "200", "--seed", "14", "--dim", "3", "--json"],
        ["iterate", "--seed", "15", "--steps", "25"],
        ["sequence", "--terms", "40", "--check"],
        ["optimize", "--seed", "16", "--n", "5", "--objective", "maximize",
         "--restarts", "4", "--budget", "120", "--json"],
        ["optimize", "--seed", "16", "--n", "4", "--objective", "minimize",
         "--restarts", "4", "--budget", "120"],
        ["pentagon", "--check", "--json"],
    ]
    for argv in invocations:
        code1 = run(argv)
        out1 = capsys.readouterr().out
        code2 = run(argv)
        out2 = capsys.readouterr().out
        if code1 != code2 or out1 != out2:
            problems.append(f"nondeterministic output for {' '.join(argv)}")
    _report(10, "repeated CLI invocations are byte-identical", problems)


def test_criterion_11_spectral_interval_ends():
    problems = []
    if spectral_interval(4) != (0.5, 1.0):
        problems.append(f"n=4 interval {spectral_interval(4)}")
    if spectral_interval(5) != K5_ENDS:
        problems.append(f"n=5 interval {spectral_interval(5)}")
    _report(11, "spectral interval gives the K4 and K5 ends bit for bit", problems)
