import itertools
import math
import sys
import tracemalloc
from decimal import Decimal, localcontext
from types import SimpleNamespace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cycleweights import bounds
from cycleweights.bounds import (
    CycleRow,
    _aggregate,
    _check_rows,
    check_bounds,
    check_k4_bounds,
    check_k5_bounds,
    classify,
    duality_check,
    fuzz,
    has_ratio,
    spectral_interval,
)
from cycleweights.checks import (
    DEGENERATE,
    HOLDS,
    HOLDS_WITH_EQUALITY,
    VIOLATED,
)
from cycleweights.cycles import (
    canonicalize, complement_cycle, cycle_edges, cycle_sums, cycle_weight, enumerate_cycles,
    total_weight,
)
from cycleweights.errors import DegenerateError, UsageError
from cycleweights.geometry import (
    Configuration,
    FLOAT,
    RATIONAL,
    column_pair_weights,
    ordered_sum,
    random_columns,
    random_config,
    regular_polygon,
    squared_distance,
)
from cycleweights.prng import mix64

UNIT_SQUARE = Configuration(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
PENTAGON = regular_polygon(5, 1.0)
K5_LOWER, K5_UPPER = (5 - math.sqrt(5)) / 10, (5 + math.sqrt(5)) / 10


def test_unit_square_report():
    rep = check_k4_bounds(UNIT_SQUARE)
    assert rep.checks == 3 and rep.violations == 0 and rep.degenerate == 0
    assert rep.equalities == 1
    by_cycle = {str(r.cycle): r for r in rep.rows}
    perim = by_cycle["0,1,2,3"]
    assert perim.verdict == HOLDS_WITH_EQUALITY
    assert abs(perim.ratio - 0.5) <= 1e-12
    assert by_cycle["0,2,1,3"].verdict == HOLDS
    assert abs(by_cycle["0,2,1,3"].ratio - 0.75) <= 1e-12
    assert rep.min_ratio == 0.5 and rep.max_ratio == 0.75


def test_unit_square_rational_exact():
    square = Configuration(((0, 0), (1, 0), (1, 1), (0, 1)), RATIONAL)
    rep = check_k4_bounds(square)
    assert rep.equalities == 1 and rep.violations == 0
    assert rep.min_ratio == Fraction(1, 2)
    assert rep.max_ratio == Fraction(3, 4)


def test_k4_degenerate_upper_end():
    # two coincident pairs: one cycle consists of the zero edges plus
    # the two positive ones twice -> ratio 1, flagged degenerate
    config = Configuration(((0, 0), (0, 0), (1, 0), (1, 0)), RATIONAL)
    rep = check_k4_bounds(config)
    assert rep.checks == 3
    assert rep.degenerate == 1
    assert rep.equalities == 2
    assert rep.violations == 0
    degenerate_rows = [r for r in rep.rows if r.verdict == DEGENERATE]
    assert degenerate_rows[0].ratio == 1


def test_all_coincident_every_row_degenerate():
    config = Configuration(((2.0, 1.0),) * 4)
    rep = check_k4_bounds(config)
    assert rep.degenerate == 3 and rep.checks == 3
    assert rep.min_ratio is None and rep.max_ratio is None
    assert all(r.ratio is None for r in rep.rows)


def test_classifier_k4_float_bands():
    assert classify(0.3, 1.0, 4, 1e-9, FLOAT)[1] == VIOLATED
    assert classify(0.7, 1.0, 4, 1e-9, FLOAT)[1] == HOLDS
    assert classify(0.5 + 1e-13, 1.0, 4, 1e-9, FLOAT)[1] == HOLDS_WITH_EQUALITY
    assert classify(1.0 - 1e-12, 1.0, 4, 1e-9, FLOAT)[1] == DEGENERATE
    assert classify(0.4, 0.0, 4, 1e-9, FLOAT) == (None, DEGENERATE)


@pytest.mark.parametrize("w_e, n, tolerance", [
    (0.95, 3, 0.05), (1.05, 3, 0.05), (0.276393201250021, 5, 1e-9),
])
def test_float_gaps_just_past_the_tolerance_are_violations(w_e, n, tolerance):
    # each gap to its end rounds past the tolerance: 0.95 - 1.0 = -0.05000000000000004
    assert classify(w_e, 1.0, n, tolerance, FLOAT) == (w_e, VIOLATED)


def test_classifier_k4_rational_exact():
    assert classify(Fraction(2, 5), Fraction(1), 4, 1e-9, RATIONAL)[1] == VIOLATED
    assert classify(Fraction(1, 2), Fraction(1), 4, 1e-9, RATIONAL)[1] == HOLDS_WITH_EQUALITY
    assert classify(Fraction(3, 5), Fraction(1), 4, 1e-9, RATIONAL)[1] == HOLDS
    assert classify(Fraction(1), Fraction(1), 4, 1e-9, RATIONAL)[1] == DEGENERATE


def test_classifier_k5_float_bands():
    assert classify(0.2, 1.0, 5, 1e-9, FLOAT)[1] == VIOLATED
    assert classify(0.8, 1.0, 5, 1e-9, FLOAT)[1] == VIOLATED
    assert classify(0.5, 1.0, 5, 1e-9, FLOAT)[1] == HOLDS
    assert classify(K5_LOWER, 1.0, 5, 1e-9, FLOAT)[1] == HOLDS_WITH_EQUALITY
    assert classify(K5_UPPER, 1.0, 5, 1e-9, FLOAT)[1] == HOLDS_WITH_EQUALITY
    assert classify(0.4, 0.0, 5, 1e-9, FLOAT) == (None, DEGENERATE)


def test_classifier_k5_rational_squaring():
    assert classify(Fraction(1, 5), Fraction(1), 5, 1e-9, RATIONAL)[1] == VIOLATED
    assert classify(Fraction(4, 5), Fraction(1), 5, 1e-9, RATIONAL)[1] == VIOLATED
    assert classify(Fraction(3, 10), Fraction(1), 5, 1e-9, RATIONAL)[1] == HOLDS
    assert classify(Fraction(1, 2), Fraction(1), 5, 1e-9, RATIONAL)[1] == HOLDS


@pytest.mark.parametrize("n, end", [(3, Fraction(1)), (4, Fraction(1, 2)), (6, Fraction(1, 6))])
def test_classifier_rational_equality_at_rational_ends(n, end):
    # an int pair and a Fraction pair that both reduce to the end
    for w_e, w_k in ((end.numerator * 7, end.denominator * 7), (end, Fraction(1))):
        assert classify(w_e, w_k, n, 1e-9, RATIONAL) == (None, HOLDS_WITH_EQUALITY)


@pytest.mark.parametrize("n, end", [(4, Fraction(1)), (6, Fraction(2, 3)), (8, Fraction(1, 2)),
                                    (10, Fraction(2, 5))])
def test_classifier_rational_even_upper_end_is_degenerate(n, end):
    w_e, w_k = end.numerator * 3, end.denominator * 3
    assert classify(w_e, w_k, n, 1e-9, RATIONAL) == (None, DEGENERATE)
    # just inside holds, just outside is violated
    eps = Fraction(1, 10**30)
    assert classify(end - eps, Fraction(1), n, 1e-9, RATIONAL)[1] == HOLDS
    assert classify(end + eps, Fraction(1), n, 1e-9, RATIONAL)[1] == VIOLATED


IRRATIONAL_ENDS = [(5, 0), (5, 1), (7, 0), (7, 1), (8, 0), (9, 0), (9, 1), (10, 0)]


@pytest.mark.parametrize("n, side", IRRATIONAL_ENDS)
def test_classifier_rational_just_past_each_irrational_end(n, side):
    """10^-30 from the end decides, though the float end cannot tell it apart."""
    k = 1 if side == 0 else n // 2
    with localcontext() as ctx:
        ctx.prec = 60
        # the end (2 - 2cos(2 pi k/n))/n to 60 digits, from the Taylor series of cos
        x = 2 * Decimal(k) / n * Decimal("3.14159265358979323846264338327950288419716939937510582")
        cos, term = Decimal(0), Decimal(1)
        for i in range(1, 80):
            cos, term = cos + term, -term * x * x / ((2 * i - 1) * (2 * i))
        end = Fraction((2 - 2 * cos) / n)
    eps = Fraction(1, 10**30)
    inside, outside = (end + eps, end - eps) if side == 0 else (end - eps, end + eps)
    assert float(inside) == float(outside) == spectral_interval(n)[side]
    for w_e, verdict in ((inside, HOLDS), (outside, VIOLATED)):
        assert classify(w_e, Fraction(1), n, 1e-9, RATIONAL) == (None, verdict)
        assert classify(w_e.numerator, w_e.denominator, n, 1e-9, RATIONAL) == (None, verdict)


def test_spectral_interval_closed_forms():
    with localcontext() as ctx:
        ctx.prec = 50
        root5 = Decimal(5).sqrt()
        k5 = (float((5 - root5) / 10), float((5 + root5) / 10))
    assert spectral_interval(3) == (1.0, 1.0)
    assert spectral_interval(4) == (0.5, 1.0)
    assert spectral_interval(5) == k5
    assert spectral_interval(6) == (1 / 6, 2 / 3)
    assert spectral_interval(8)[1] == 0.5
    assert spectral_interval(10)[1] == 0.4
    for n in range(3, 11):
        lo, hi = spectral_interval(n)
        for end, k in ((lo, 1), (hi, n // 2)):
            approx = (2 - 2 * math.cos(2 * math.pi * k / n)) / n
            assert abs(end - approx) <= math.ulp(end)
    with pytest.raises(UsageError):
        spectral_interval(2)


def _fraction_bisection_ends(n):
    """The reference ends: each bisected on Fractions from its float separators
    until both bracket ends round to one float."""
    poly = bounds._spectrum(n)[3]
    roots = [(2 - 2 * math.cos(j * math.pi / n)) / n for j in range(n + 1)]
    seps = [Fraction(-1), *(Fraction((a + b) / 2) for a, b in zip(roots, roots[1:])), Fraction(2)]
    ends = []
    for j in (2, 2 * (n // 2)):
        a, b = seps[j], seps[j + 1]
        sign = bounds._sign(poly, n, a.numerator, a.denominator)
        while float(a) != float(b):
            m = (a + b) / 2
            a, b = (m, b) if bounds._sign(poly, n, m.numerator, m.denominator) == sign else (a, m)
        ends.append(float(a))
    return tuple(ends)


@pytest.mark.parametrize("n", range(3, 11))
def test_spectrum_brackets_hold_exactly_their_root(n):
    spec = bounds._spectrum.__wrapped__(n)
    assert spec[:2] == _fraction_bisection_ends(n)
    poly = spec[3]
    # P has n + 1 roots, all in [0, 4/n]: between the float roots next to lam_j lies no other
    roots = [(2 - 2 * math.cos(j * math.pi / n)) / n for j in range(n + 1)] + [2.0]
    for end, j, (a, b, q, sign) in zip(spec[:2], (2, 2 * (n // 2)), spec[4:]):
        assert q & (q - 1) == 0 and a < b
        assert sign != 0 and bounds._sign(poly, n, a, q) == sign != bounds._sign(poly, n, b, q)
        assert roots[j - 1] < a / q and b / q < roots[j + 1]
        assert a / q == b / q == end


@pytest.mark.parametrize("n", range(3, 11))
@pytest.mark.parametrize("ulp", [1.0, 2.0**-80], ids=["past-the-separators", "missing-the-root"])
def test_spectrum_refuses_an_ulp_bracket_that_does_not_hold_its_root(n, ulp, monkeypatch):
    # 4 ulps of 1.0 reach past every separator; 4 of 2^-80 fall short of the float's error
    monkeypatch.setattr(bounds, "math", SimpleNamespace(cos=math.cos, pi=math.pi, ulp=lambda x: ulp))
    with pytest.raises(ArithmeticError, match="bracket"):
        bounds._spectrum.__wrapped__(n)


def test_has_ratio_needs_a_normal_float():
    assert has_ratio(1) and has_ratio(sys.float_info.min) and has_ratio(10**400)
    assert has_ratio(Fraction(1, 10**400))
    assert not any(has_ratio(w_k) for w_k in (5e-324, 0, 0.0, math.inf, Fraction(0)))


def test_rational_verdict_ignores_a_scale_below_the_floats():
    tiny = Fraction(1, 10**400)
    for n, w_e, w_k in ((4, 1, 2), (4, 3, 4), (5, 1, 2), (5, 1, 10), (5, 9, 10), (7, 1, 3)):
        verdict = classify(w_e, w_k, n, 1e-9, RATIONAL)
        assert classify(w_e * tiny, w_k * tiny, n, 1e-9, RATIONAL) == verdict
        assert verdict[1] != DEGENERATE


def test_subnormal_total_weight_leaves_every_row_degenerate():
    # squared gaps of order 1e-320 are subnormal, and so is their sum
    config = Configuration(((1e-160, 2e-160), (-3e-160, 1.5e-160), (2.5e-160, -1e-160),
                            (0.0, 4e-160), (-1e-160, -2e-160)))
    rep = check_bounds(config)
    assert rep.degenerate == rep.checks == 12 and rep.violations == 0
    assert rep.min_ratio is None and all(r.ratio is None for r in rep.rows)
    assert classify(1e-320, 5e-320, 5, 1e-9, FLOAT) == (None, DEGENERATE)
    with pytest.raises(DegenerateError):
        duality_check(config)


def test_spectrum_refuses_separators_that_do_not_isolate_the_roots(monkeypatch):
    # float roots all at 0: no separator lies strictly between two roots
    monkeypatch.setattr(bounds, "math", SimpleNamespace(cos=lambda t: 1.0, pi=math.pi))
    with pytest.raises(ArithmeticError, match="isolate"):
        bounds._spectrum.__wrapped__(7)


@pytest.mark.parametrize("n", range(3, 11))
def test_regular_polygon_sits_at_the_spectral_ends(n):
    rep = check_bounds(regular_polygon(n, 1.0))
    lo, hi = spectral_interval(n)
    assert rep.violations == 0 and rep.degenerate == 0
    assert abs(rep.min_ratio - lo) <= 1e-12
    if n % 2:
        # the star polygon of step n // 2 attains the upper end
        assert abs(rep.max_ratio - hi) <= 1e-12
    else:
        assert rep.max_ratio < hi


def test_pentagon_attains_both_bounds():
    rep = check_k5_bounds(PENTAGON)
    assert rep.checks == 12 and rep.violations == 0
    assert rep.equalities == 2
    assert abs(rep.min_ratio - K5_LOWER) <= 1e-12
    assert abs(rep.max_ratio - K5_UPPER) <= 1e-12
    by_cycle = {str(r.cycle): r for r in rep.rows}
    assert by_cycle["0,1,2,3,4"].verdict == HOLDS_WITH_EQUALITY
    assert by_cycle["0,2,4,1,3"].verdict == HOLDS_WITH_EQUALITY


def test_k5_min_max_are_complements():
    for seed in (1, 2, 3):
        rep = check_k5_bounds(random_config(seed, 5, 2))
        assert abs(rep.min_ratio + rep.max_ratio - 1.0) <= 1e-12


def test_k5_rational_exact_holds():
    for seed in (1, 2, 3):
        rep = check_k5_bounds(random_config(seed, 5, 3, RATIONAL))
        assert rep.violations == 0 and rep.degenerate == 0


def test_report_weights_match_cycle_module_bitwise():
    config = random_config(12, 5, 2)
    rep = check_k5_bounds(config)
    for r in rep.rows:
        assert r.w_cycle == cycle_weight(config, r.cycle)
        assert r.w_total == total_weight(config)


def test_check_size_validation():
    with pytest.raises(UsageError):
        check_k4_bounds(PENTAGON)
    with pytest.raises(UsageError):
        check_k5_bounds(UNIT_SQUARE)
    with pytest.raises(UsageError):
        check_k4_bounds(UNIT_SQUARE, tolerance=0.0)


def test_duality_pentagon():
    rep = duality_check(PENTAGON)
    assert rep.verdict == HOLDS
    assert len(rep.rows) == 12
    by_cycle = {str(r.cycle): r for r in rep.rows}
    side = by_cycle["0,1,2,3,4"]
    assert side.lower_attained and not side.upper_attained
    assert str(side.complement) == "0,2,4,1,3"
    star = by_cycle["0,2,4,1,3"]
    assert star.upper_attained and not star.lower_attained
    for r in rep.rows:
        assert abs(r.residual) <= 1e-12


def test_duality_rational_exact():
    rep = duality_check(random_config(44, 5, 2, RATIONAL))
    assert rep.verdict == HOLDS
    assert all(r.residual == 0 for r in rep.rows)
    # rational ratios can never attain the irrational bounds
    assert all(not r.lower_attained and not r.upper_attained for r in rep.rows)


def test_duality_validation():
    with pytest.raises(UsageError):
        duality_check(UNIT_SQUARE)
    with pytest.raises(DegenerateError):
        duality_check(Configuration(((1.0, 1.0),) * 5))


def test_fuzz_deterministic():
    a = fuzz(7, 100, 5)
    b = fuzz(7, 100, 5)
    assert a == b
    assert a.trials == 100 and a.checks == 1200


def test_fuzz_clean_on_random_configs():
    rep4 = fuzz(11, 300, 4)
    assert rep4.violations == 0 and rep4.degenerate == 0
    assert rep4.rows == ()
    assert 0.5 <= rep4.min_ratio <= rep4.max_ratio < 1.0
    rep5 = fuzz(13, 300, 5, dim=3)
    assert rep5.violations == 0 and rep5.degenerate == 0
    assert K5_LOWER <= rep5.min_ratio <= rep5.max_ratio <= K5_UPPER


def test_fuzz_rational_exact():
    rep = fuzz(17, 30, 5, mode=RATIONAL)
    assert rep.violations == 0 and rep.degenerate == 0


def test_fuzz_validation():
    with pytest.raises(UsageError):
        fuzz(1, 0, 4)
    with pytest.raises(UsageError):
        fuzz(1, 10, 11)
    with pytest.raises(UsageError):
        fuzz(1, 10, 2)
    with pytest.raises(UsageError):
        fuzz(1, 10, 4, mode="decimal")
    with pytest.raises(UsageError):
        fuzz(1, 10, 4, tolerance=-1.0)


def test_fuzz_refuses_a_huge_n_before_drawing():
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match="n = 3 to 10"):
            fuzz(1, 1, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_fuzz_memory_does_not_grow_with_trials():
    tracemalloc.start()
    try:
        # the first run fills the cycle tables and the interpreter's free
        # lists, which stay allocated; later peaks count what a run holds
        fuzz(3, 2000, 5)
        peaks = []
        for trials in (200, 2000, 20000):
            tracemalloc.reset_peak()
            fuzz(3, trials, 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]
    assert peaks[2] < 2 * peaks[0]


# --- the bound check against the Fraction loops it replaced -----------------


def _reference_classify(n, w_e, w_k, tolerance, mode):
    """The classifiers as they were when rational weights were Fractions."""
    k4_lower = 0.5
    k5_lower, k5_upper = (5 - math.sqrt(5)) / 10, (5 + math.sqrt(5)) / 10
    if w_k == 0:
        return None, DEGENERATE
    ratio = w_e / w_k
    if n == 4:
        w_d = w_k - w_e
        if mode == RATIONAL:
            if w_d == 0:
                return ratio, DEGENERATE
            if 2 * w_e < w_k:
                return ratio, VIOLATED
            if 2 * w_e == w_k:
                return ratio, HOLDS_WITH_EQUALITY
            return ratio, HOLDS
        if w_d <= tolerance * w_k:
            return ratio, DEGENERATE
        if ratio < k4_lower - tolerance:
            return ratio, VIOLATED
        if abs(ratio - k4_lower) <= tolerance:
            return ratio, HOLDS_WITH_EQUALITY
        return ratio, HOLDS
    if mode == RATIONAL:
        t = 10 * w_e - 5 * w_k
        return ratio, (HOLDS if t * t < 5 * w_k * w_k else VIOLATED)
    if ratio < k5_lower - tolerance or ratio > k5_upper + tolerance:
        return ratio, VIOLATED
    if abs(ratio - k5_lower) <= tolerance or abs(ratio - k5_upper) <= tolerance:
        return ratio, HOLDS_WITH_EQUALITY
    return ratio, HOLDS


def _reference_rows(configs, tolerance, keep_all):
    """The row loop as it was: Fraction weights, a ratio and extremes per row."""
    counts = dict.fromkeys((HOLDS, HOLDS_WITH_EQUALITY, VIOLATED, DEGENERATE), 0)
    lo = hi = None
    kept = []
    for config_id, config in enumerate(configs):
        n = config.n
        w = [squared_distance(p, q) for p, q in itertools.combinations(config.points, 2)]
        w_k = ordered_sum(w)
        for cycle, edges in zip(enumerate_cycles(n), cycle_edges(n)):
            w_e = ordered_sum([w[e] for e in edges])
            ratio, verdict = _reference_classify(n, w_e, w_k, tolerance, config.mode)
            counts[verdict] += 1
            if ratio is not None:
                if lo is None or ratio < lo:
                    lo = ratio
                if hi is None or ratio > hi:
                    hi = ratio
            if keep_all or verdict in (VIOLATED, DEGENERATE):
                kept.append(CycleRow(config_id, cycle, w_e, w_k - w_e, w_k, ratio, verdict))
    return kept, counts, lo, hi


small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def _config_lists(draw, mode, max_size=1):
    """Up to ``max_size`` configurations of one n (4 or 5) with small p/q
    coordinates; each draws its points from a pool of at most n, so that
    some coincide."""
    n = draw(st.sampled_from((4, 5)))
    coord = small if mode == RATIONAL else small.map(float)
    configs = []
    for _ in range(draw(st.integers(1, max_size))):
        point = st.tuples(*[coord] * draw(st.sampled_from((2, 3))))
        pool = draw(st.lists(point, min_size=1, max_size=n))
        configs.append(Configuration(tuple(draw(st.sampled_from(pool)) for _ in range(n)), mode))
    return configs


@settings(max_examples=200, deadline=None)
@given(_config_lists(RATIONAL).map(lambda c: c[0]), st.sampled_from((1e-9, 0.3)))
def test_single_checks_match_the_fraction_loops(config, tolerance):
    check = check_k4_bounds if config.n == 4 else check_k5_bounds
    expected = _aggregate(
        config.n, RATIONAL, tolerance, 1, *_reference_rows((config,), tolerance, True)
    )
    report = check(config, tolerance)
    assert repr(report) == repr(expected)
    assert all(isinstance(v, Fraction) for r in report.rows
               for v in (r.w_cycle, r.w_complement, r.w_total))


def _check_configs(configs, tolerance, keep_all):
    """``_check_rows`` on configurations of one n and mode, each weighed as
    ``check_bounds`` weighs it: ``column_pair_weights`` of its ``cols``."""
    n, mode = configs[0].n, configs[0].mode

    def weighed():
        for config_id, config in enumerate(configs):
            w = column_pair_weights(config.cols)
            yield config_id, cycle_sums(w, n), ordered_sum(w), config.den

    return _check_rows(n, mode, weighed(), tolerance, keep_all)


@settings(max_examples=100, deadline=None)
@given(_config_lists(RATIONAL, 6), st.booleans())
def test_streamed_rows_match_the_fraction_loops(configs, keep_all):
    # several configurations: the extremes are compared across them
    assert repr(_check_configs(configs, 1e-9, keep_all)) == repr(
        _reference_rows(configs, 1e-9, keep_all)
    )


@settings(max_examples=100, deadline=None)
@given(_config_lists(FLOAT, 6), st.booleans())
def test_float_rows_keep_their_bits(configs, keep_all):
    assert repr(_check_configs(configs, 1e-9, keep_all)) == repr(
        _reference_rows(configs, 1e-9, keep_all)
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**64 - 1), st.sampled_from((4, 5)), st.sampled_from((2, 3)))
def test_rational_fuzz_matches_the_fraction_loops(seed, n, dim):
    configs = [random_config(mix64((seed + i) % 2**64), n, dim, RATIONAL) for i in range(8)]
    expected = _aggregate(n, RATIONAL, 1e-9, 8, *_reference_rows(configs, 1e-9, False))
    report = fuzz(seed, 8, n, dim, mode=RATIONAL)
    assert repr(report) == repr(expected)
    assert isinstance(report.min_ratio, Fraction) and isinstance(report.max_ratio, Fraction)


HUGE = Configuration(((1e160, 2e160), (-3e160, 1.5e160), (2.5e160, -1e160), (0.0, 4e160),
                      (-1e160, -2e160)))


def test_overflowing_float_weights_are_degenerate():
    # every squared distance overflows to inf, so no ratio exists
    rep = check_k5_bounds(HUGE)
    assert rep.degenerate == rep.checks == 12 and rep.violations == 0
    assert rep.min_ratio is None and rep.max_ratio is None
    assert all(r.ratio is None and r.verdict == DEGENERATE for r in rep.rows)
    with pytest.raises(DegenerateError):
        duality_check(HUGE)


# --- the extreme-cycle screen against a per-row loop ------------------------


def _row_by_row(configs, tolerance):
    """``_check_configs(configs, tolerance, False)`` as one ``classify`` call per
    cycle on ``cycle_weight`` and ``total_weight``, with no screen."""
    counts = dict.fromkeys((HOLDS, HOLDS_WITH_EQUALITY, VIOLATED, DEGENERATE), 0)
    lo = hi = None
    kept = []
    for config_id, c in enumerate(configs):
        n, mode = c.n, c.mode
        w_k = total_weight(c)
        for cycle in enumerate_cycles(n):
            w_e = cycle_weight(c, cycle)
            if 0 < w_k < math.inf:
                ratio, verdict = classify(w_e, w_k, n, tolerance, mode)
                if mode == RATIONAL:
                    ratio = w_e / w_k
                lo = ratio if lo is None or ratio < lo else lo
                hi = ratio if hi is None or ratio > hi else hi
            else:
                ratio, verdict = None, DEGENERATE
            counts[verdict] += 1
            if verdict in (VIOLATED, DEGENERATE):
                kept.append(CycleRow(config_id, cycle, w_e, w_k - w_e, w_k, ratio, verdict))
    return kept, counts, lo, hi


@st.composite
def _near_an_end(draw, n, mode):
    """n points at a spectral end, each coordinate moved by 0 or by up to
    eps in 1e-12..1e-6: a regular n-gon (lower end), for odd n its star polygon
    (upper end), for even n alternate points nearly coincident (the
    degenerate upper end)."""
    dim = draw(st.sampled_from((2, 3)))
    eps = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1e-6)))
    shapes = ("polygon", "star") if n % 2 else ("polygon", "alternate")
    shape = draw(st.sampled_from(shapes))
    step = n // 2 if shape == "star" else 1
    points = []
    for i in range(n):
        if shape == "alternate":
            base = (0.25, 0.5) if i % 2 else (1.0, -0.75)
        else:
            t = 2 * math.pi * i * step / n
            base = (math.cos(t), math.sin(t))
        base += (0.0,) * (dim - 2)
        points.append(tuple(x + eps * draw(st.floats(-1, 1)) for x in base))
    return Configuration(tuple(points), mode)


def _fuzzed(n, mode):
    return st.builds(random_config, st.integers(0, 2**64 - 1), st.just(n),
                     st.sampled_from((2, 3)), st.just(mode))


TOLERANCES = st.one_of(st.sampled_from((1e-12, 1e-9, 1e-6, 0.05, 0.3)), st.floats(1e-12, 0.3))


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 8), st.sampled_from((FLOAT, RATIONAL)), TOLERANCES, st.data())
def test_screened_rows_match_the_row_loop(n, mode, tolerance, data):
    configs = data.draw(st.lists(st.one_of(_near_an_end(n, mode), _fuzzed(n, mode)),
                                 min_size=1, max_size=6 if n < 7 else 2))
    assert repr(_check_configs(configs, tolerance, False)) == repr(_row_by_row(configs, tolerance))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(3, 8), st.sampled_from((2, 3)),
       st.sampled_from((FLOAT, RATIONAL)), TOLERANCES)
def test_screened_fuzz_matches_the_row_loop(seed, n, dim, mode, tolerance):
    trials = 6 if n < 7 else 2
    configs = [random_config(mix64((seed + i) % 2**64), n, dim, mode) for i in range(trials)]
    expected = _aggregate(n, mode, tolerance, trials, *_row_by_row(configs, tolerance))
    assert repr(fuzz(seed, trials, n, dim, tolerance, mode)) == repr(expected)


def _ulps(x, k):
    """x moved k floats up (k > 0) or down."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 10), st.floats(1e-3, 1e3), TOLERANCES, st.data())
def test_float_rows_hold_exactly_inside_both_tolerance_bands(n, w_k, tolerance, data):
    lo, hi = spectral_interval(n)
    band_edges = st.builds(lambda end, side, k: _ulps((end + side * tolerance) * w_k, k),
                           st.sampled_from((lo, hi)), st.sampled_from((-1, 1)), st.integers(-3, 3))
    w_e = data.draw(st.one_of(band_edges, st.floats(0, w_k)))
    inside = w_e - lo * w_k > tolerance * w_k and w_e - hi * w_k < -tolerance * w_k
    assert (classify(w_e, w_k, n, tolerance, FLOAT)[1] == HOLDS) == inside


# (seed index, tolerance): the heaviest cycle's ratio r clears hi - r > tol,
# but hi * w_k - w_e <= tol * w_k rounds the other way, so the row is degenerate
ROUNDING_SLIVERS = [(13, 0.0512734553477091), (59, 0.05027550307370431),
                    (129, 0.07167563723982016), (156, 0.09694867469880807)]


@pytest.mark.parametrize("index, tolerance", ROUNDING_SLIVERS)
def test_screen_keeps_the_even_n_degenerate_test(index, tolerance):
    configs = [random_config(mix64(index), 6, 2, FLOAT)]
    kept, counts, _, _ = _check_configs(configs, tolerance, False)
    assert counts[DEGENERATE] >= 1
    assert repr((kept, counts)) == repr(_row_by_row(configs, tolerance)[:2])


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("end", ["lower", "upper"])
def test_screen_leaves_a_row_within_tolerance_of_one_end(n, end):
    # a configuration nearer one end than the other, with the tolerance
    # between its two gaps: only the rows at the nearer end are equalities
    lo, hi = spectral_interval(n)
    for index in range(1000):
        config = random_config(mix64(index), n, 2, FLOAT)
        w_k = total_weight(config)
        ratios = [cycle_weight(config, cycle) / w_k for cycle in enumerate_cycles(n)]
        near, far = min(ratios) - lo, hi - max(ratios)
        if end == "upper":
            near, far = far, near
        if 2 * near < far:
            break
    tolerance = (near + far) / 2
    kept, counts, _, _ = _check_configs([config], tolerance, False)
    assert counts[HOLDS_WITH_EQUALITY] + counts[DEGENERATE] >= 1
    assert repr((kept, counts)) == repr(_row_by_row([config], tolerance)[:2])


@pytest.mark.parametrize("mode", [FLOAT, RATIONAL])
def test_rows_are_classified_only_where_the_screen_does_not_settle(mode, monkeypatch):
    calls = []
    classify_row = bounds._classify
    monkeypatch.setattr(bounds, "_classify", lambda *a: calls.append(a) or classify_row(*a))
    # random configurations sit well inside the interval: every one settles
    assert fuzz(3, 50, 5, mode=mode).checks == 600 and calls == []
    # a single check classifies every row
    check_bounds(random_config(3, 5, 2, mode))
    assert len(calls) == 12
    # the unit square's perimeter sits on the lower end: its rows go through
    # the classifier, and the fuzzed configurations around it still settle
    calls.clear()
    square = Configuration(UNIT_SQUARE.points, mode)
    configs = [random_config(1, 4, 2, mode), square, random_config(2, 4, 2, mode), square]
    kept, counts, _, _ = _check_configs(configs, 1e-9, False)
    assert len(calls) == 6 and kept == []
    assert counts == {HOLDS: 10, HOLDS_WITH_EQUALITY: 2, VIOLATED: 0, DEGENERATE: 0}


def _reference_duality(config):
    """(cycle, complement, ratio, complement ratio, residual) of each cycle,
    from ``cycle_weight`` and ``total_weight``."""
    w_k = total_weight(config)
    rows = []
    for cycle in enumerate_cycles(5):
        comp = complement_cycle(cycle)
        r_e, r_d = cycle_weight(config, cycle) / w_k, cycle_weight(config, comp) / w_k
        rows.append((cycle, comp, r_e, r_d, r_e + r_d - 1))
    return rows


@settings(max_examples=100, deadline=None)
@given(_config_lists(RATIONAL).map(lambda c: c[0]).filter(lambda c: c.n == 5))
def test_duality_rows_match_the_cycle_weight_ratios(config):
    assume(total_weight(config) > 0)
    rep = duality_check(config)
    got = [(r.cycle, r.complement, r.ratio, r.complement_ratio, r.residual) for r in rep.rows]
    assert got == _reference_duality(config) and rep.verdict == HOLDS
    assert all(type(v) is Fraction for row in got for v in row[2:])
    # the float arm keeps its bits
    config = Configuration(config.points, FLOAT)
    got = [(r.cycle, r.complement, r.ratio, r.complement_ratio, r.residual)
           for r in duality_check(config).rows]
    assert repr(got) == repr(_reference_duality(config))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("mode", [FLOAT, RATIONAL])
@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**64 - 1), st.sampled_from((2, 3)), TOLERANCES, st.data())
def test_chunked_fuzz_matches_the_trial_by_trial_reference(n, mode, seed, dim, tolerance, data):
    # trial counts about the chunk size, so the last chunk is short, full or
    # one trial long; the tolerances leave some trials unsettled by the screen
    chunk = max(1, bounds._SCREEN_SUMS // len(enumerate_cycles(n)))
    trials = data.draw(st.sampled_from((chunk - 1, chunk, chunk + 1, 2 * chunk + 1)))
    assume(trials > 0)
    configs = [random_config(mix64((seed + i) % 2**64), n, dim, mode) for i in range(trials)]
    expected = _aggregate(n, mode, tolerance, trials, *_row_by_row(configs, tolerance))
    assert repr(fuzz(seed, trials, n, dim, tolerance, mode)) == repr(expected)


def test_fuzz_classifies_unsettled_trials_from_the_chunk_weights(monkeypatch):
    # 62 of these 200 trials are not settled by the screen; none is drawn again
    configs = [random_config(mix64(5 + i), 5, 2) for i in range(200)]
    expected = _aggregate(5, FLOAT, 0.05, 200, *_row_by_row(configs, 0.05))

    kernel_calls, unsettled = [], []
    kernel, screen = bounds.column_pair_weights, bounds._screen

    def refuse(*args):
        raise AssertionError("fuzz draws no configuration alone")

    def counted_screen(*args):
        r_min, r_max, verdict = screen(*args)
        unsettled.append(verdict is None)
        return r_min, r_max, verdict

    monkeypatch.setattr(bounds, "random_config", refuse)
    monkeypatch.setattr(bounds, "column_pair_weights",
                        lambda *a: kernel_calls.append(a) or kernel(*a))
    monkeypatch.setattr(bounds, "_screen", counted_screen)
    report = fuzz(5, 200, 5, tolerance=0.05)
    assert sum(unsettled) == 62
    assert len(kernel_calls) == 3  # one per 85-trial chunk
    assert repr(report) == repr(expected)


@pytest.mark.parametrize("n", range(3, 8))
def test_rational_rows_over_the_draws_den_match_a_single_check(n):
    # a chunk weighs rational draws as ints over 2**53; at n = 3 and 4 seeds 51 and
    # 218 draw coordinates whose lcm den, the one a parsed configuration takes, is smaller
    dens = set()
    for seed, dim in [(0, 2), (1, 3), (51, 2), (218, 2), (218, 3)]:
        cols, den = random_columns((seed,), n, dim, RATIONAL)
        w = column_pair_weights(cols)
        weighed = ((0, cycle_sums(w, n), ordered_sum(w), den),)
        # the points alone, so that the configuration takes the lcm den
        config = Configuration(random_config(seed, n, dim, RATIONAL).points, RATIONAL)
        dens.add(config.den)
        expected = check_bounds(config)
        rows = _check_rows(n, RATIONAL, weighed, expected.tolerance, True)
        assert den == 2**53
        assert repr(_aggregate(n, RATIONAL, expected.tolerance, 1, *rows)) == repr(expected)
    assert n > 4 or dens != {2**53}


@pytest.mark.parametrize("mode, tolerance, classified", [
    (FLOAT, 1e-9, 0), (RATIONAL, 1e-9, 0),
    # 1 - 2/3 <= 0.4: every row is degenerate and reported, so the rows are classified
    (FLOAT, 0.4, 3),
])
def test_cycles_of_equal_weight_are_settled_by_the_side_tests(
    mode, tolerance, classified, monkeypatch,
):
    calls = []
    classify_row = bounds._classify
    monkeypatch.setattr(bounds, "_classify", lambda *a: calls.append(a) or classify_row(*a))
    # a regular tetrahedron: every cycle weighs 2/3 of w(K_4)
    tetrahedron = Configuration(((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)), mode)
    kept, counts, _, _ = _check_configs([tetrahedron], tolerance, False)
    assert len(calls) == classified
    assert repr((kept, counts)) == repr(_row_by_row([tetrahedron], tolerance)[:2])
    assert counts[DEGENERATE] == (3 if classified == 3 else 0)
