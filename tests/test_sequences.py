import math
from fractions import Fraction

import pytest

from cycleweights.cycles import canonicalize
from cycleweights.errors import UsageError
from cycleweights.geometry import RATIONAL, random_config, regular_polygon
from cycleweights.pentagon import trace
from cycleweights.sequences import (
    BOUND_LIMIT,
    RATIO_LIMIT,
    bound_value,
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


def test_bound_values_exact():
    assert bound_value(2) == Fraction(8, 3)
    assert bound_value(3) == Fraction(21, 8)
    assert bound_value(4) == Fraction(55, 21)
    with pytest.raises(UsageError):
        bound_value(1)


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
            assert float(bound_value(n)) * e1 >= d1 * (1 - 1e-9)
    s = trace(regular_polygon(5, 1.0), SIDES, 1)
    e1, d1 = s.e_values()[0], s.d_values()[0]
    assert abs(float(bound_value(60)) * e1 - d1) <= 1e-9 * d1
