import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycleweights.bounds import spectral_interval
from cycleweights.cycles import canonicalize
from cycleweights.errors import UsageError
from cycleweights.geometry import RATIONAL, random_config, regular_polygon
from cycleweights.pentagon import trace
from cycleweights.sequences import (
    BOUND_LIMIT,
    RATIO_LIMIT,
    SequencePropertyReport,
    SequenceTable,
    check_sequence_properties,
    closed_form_term,
    representation_residual,
    sequence_table,
)

SIDES = canonicalize(range(5))


def test_first_terms_exact():
    t = sequence_table(5)
    assert t.terms == (
        Fraction(0),
        Fraction(1),
        Fraction(3, 4),
        Fraction(1, 2),
        Fraction(21, 64),
        Fraction(55, 256),
    )


def test_ratio_accessor():
    t = sequence_table(4)
    assert t.ratio(1) == Fraction(3, 4)
    assert t.ratio(2) == Fraction(2, 3)
    assert t.ratio(3) == Fraction(21, 32)
    with pytest.raises(UsageError):
        t.ratio(0)
    with pytest.raises(UsageError):
        t.term(-1)


def test_bound_values_exact():
    assert sequence_table(2).bound(2) == Fraction(8, 3)
    assert sequence_table(3).bound(3) == Fraction(21, 8)
    assert sequence_table(4).bound(4) == Fraction(55, 21)
    with pytest.raises(UsageError):
        sequence_table(2).bound(1)


def test_table_validation():
    with pytest.raises(UsageError):
        sequence_table(1)


def test_closed_form_matches_recurrence_exactly():
    t = sequence_table(200)
    for n in range(201):
        assert closed_form_term(n) == t.terms[n]
    with pytest.raises(UsageError):
        closed_form_term(-1)


def test_bounds_strictly_decreasing_and_above_limit():
    t = sequence_table(60)
    bounds = [t.bound(n) for n in range(2, 61)]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
    for b in bounds:
        # b > (3+sqrt5)/2 decided exactly: 2b-3 > 0 and (2b-3)^2 > 5
        s = 2 * b - 3
        assert s > 0 and s * s > 5


def test_limit_gaps_tiny_in_float():
    t = sequence_table(61)
    assert abs(float(t.term(41) / t.term(40)) - RATIO_LIMIT) < 1e-12
    assert abs(float(t.bound(60)) - BOUND_LIMIT) < 1e-12


def test_property_report_holds_through_200():
    rep = check_sequence_properties(200)
    assert rep.verdict == "holds"
    assert rep.positive_decreasing
    assert rep.ratio_above_limit
    assert rep.ratio_nonincreasing
    assert rep.n_checked == 200
    assert rep.final_ratio_gap < 1e-12
    with pytest.raises(UsageError):
        check_sequence_properties(2)


def test_property_report_reuses_a_given_table():
    rep = check_sequence_properties(40)
    assert check_sequence_properties(40, sequence_table(40)) == rep
    assert check_sequence_properties(40, sequence_table(45)) == rep
    with pytest.raises(UsageError):
        check_sequence_properties(40, sequence_table(39))


def test_representation_residual_rational_exact():
    config = random_config(8, 5, 2, RATIONAL)
    tr = trace(config, SIDES, 20)
    for n in range(2, 22):
        assert representation_residual(tr, n) == 0


def test_representation_residual_float_small():
    tr = trace(regular_polygon(5, 1.0), SIDES, 20)
    e1 = tr.e_values()[0]
    for n in range(2, 21):
        assert abs(representation_residual(tr, n)) <= 1e-10 * (1 + e1)


def test_representation_residual_validation():
    tr = trace(regular_polygon(5, 1.0), SIDES, 5)
    with pytest.raises(UsageError):
        representation_residual(tr, 1)
    with pytest.raises(UsageError):
        representation_residual(tr, 7)


def test_bound_dominates_weight_ratio():
    # B(n) e_1 >= d_1 for any start, with equality (in the limit) only
    # for regular-pentagon proportions
    for seed in (2, 5, 9):
        tr = trace(random_config(seed, 5, 2), SIDES, 1)
        e1, d1 = tr.e_values()[0], tr.d_values()[0]
        for n in range(2, 20):
            assert float(sequence_table(n).bound(n)) * e1 >= d1 * (1 - 1e-9)
    s = trace(regular_polygon(5, 1.0), SIDES, 1)
    e1, d1 = s.e_values()[0], s.d_values()[0]
    assert abs(float(sequence_table(60).bound(60)) * e1 - d1) <= 1e-9 * d1


# --- the int checks against the Fraction checks they replaced --------------


def _reference_properties(n_max, table):
    """check_sequence_properties as it was: every comparison on Fractions."""
    a = table.terms[: n_max + 1]
    a += (Fraction(12, 16) * a[-1] - Fraction(1, 16) * a[-2],)
    positive_decreasing = all(a[n] > 0 and a[n + 1] < a[n] for n in range(1, n_max + 1))
    ratio_above = True
    for n in range(1, n_max + 1):
        s = 8 * a[n + 1] - 3 * a[n]
        if not (s > 0 and s * s > 5 * a[n] * a[n]):
            ratio_above = False
            break
    nonincreasing = all(a[n + 2] * a[n] <= a[n + 1] * a[n + 1] for n in range(1, n_max))
    gap = abs(float(a[n_max + 1] / a[n_max]) - RATIO_LIMIT)
    ok = positive_decreasing and ratio_above and nonincreasing
    return SequencePropertyReport(
        n_max, positive_decreasing, ratio_above, nonincreasing, gap,
        "holds" if ok else "violated",
    )


@pytest.mark.parametrize("n_max", [3, 4, 5, 17, 64, 300])
def test_int_checks_match_the_fraction_checks(n_max):
    table = sequence_table(n_max)
    assert repr(check_sequence_properties(n_max, table)) == repr(
        _reference_properties(n_max, table)
    )


@pytest.mark.parametrize("k", [1, 2, 9, 30])
@pytest.mark.parametrize("change", [
    lambda y: y + 1,
    lambda y: y - 1,
    lambda y: y * 2,
    lambda y: 0,
])
def test_a_perturbed_term_is_violated_without_raising(k, change):
    y = list(sequence_table(30).y)
    y[k] = change(y[k])
    bad = SequenceTable(y)
    rep = check_sequence_properties(30, bad)
    assert rep.verdict == "violated"
    if k < 30:  # the Fraction checks divide by a_30
        ref = _reference_properties(30, bad)
        flags = ("positive_decreasing", "ratio_above_limit", "ratio_nonincreasing",
                 "final_ratio_gap")
        assert [getattr(rep, f) for f in flags] == [getattr(ref, f) for f in flags]


def test_rates_are_the_five_point_spectral_ends():
    """(3 -+ sqrt 5)/8 is 1 - (5/4) times the lower and upper end for n = 5;
    their sum and product are the recurrence's coefficients 12/16 and 1/16."""
    lo, hi = spectral_interval(5)
    rate, conjugate = 1 - 1.25 * lo, 1 - 1.25 * hi
    assert abs(rate - RATIO_LIMIT) <= 1e-15
    assert abs(conjugate - (3 - math.sqrt(5)) / 8) <= 1e-15
    # a_{n+1} = c1 a_n - c0 a_{n-1}, read off a_0 = 0, a_1 = 1, a_2 and a_3
    a = sequence_table(3).terms
    c1 = a[2] / a[1]
    c0 = (c1 * a[2] - a[3]) / a[1]
    assert (c1, c0) == (Fraction(12, 16), Fraction(1, 16))
    assert abs(rate + conjugate - c1) <= 1e-15
    assert abs(rate * conjugate - c0) <= 1e-15


def _fraction_recurrence(n_max):
    """terms, ratios and bound values of a table from the Fraction recurrence."""
    terms = [Fraction(0), Fraction(1)]
    while len(terms) <= n_max:
        terms.append(Fraction(12, 16) * terms[-1] - Fraction(1, 16) * terms[-2])
    ratios = tuple(terms[k + 1] / terms[k] for k in range(1, n_max))
    bounds = tuple(3 - terms[k - 1] / (4 * terms[k]) for k in range(2, n_max + 1))
    return tuple(terms), ratios, bounds


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 300))
def test_table_matches_the_fraction_recurrence(n_max):
    table = sequence_table(n_max)
    got = (table.terms, table.ratios, table.bound_values)
    assert got == _fraction_recurrence(n_max)
    assert all(type(v) is Fraction for part in got for v in part)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7000))
@example(7000)
def test_reduced_pairs_are_the_fractions_in_lowest_terms(n):
    """Each pair is reduced by a shift alone, with no gcd, yet equals the
    Fraction of the unreduced quotient of y_n."""
    table = sequence_table(n)
    y, x = table.y[n], table.y[n - 1]
    for pair, p, q in [
        (table.term_pair(n), y, 8 ** (n - 1)),
        (table.ratio_pair(n - 1), y, 8 * x),
        (table.bound_pair(n), 3 * y - 2 * x, y),
    ]:
        f = Fraction(p, q)
        assert pair == (f.numerator, f.denominator)
