import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cycleweights.cycles import (
    canonicalize, complement_cycle, complement_weight, cycle_weight, enumerate_cycles,
    total_weight,
)
from cycleweights.errors import DegenerateError, UsageError
from cycleweights.geometry import (
    FLOAT, Configuration, RATIONAL, midpoint, random_config, regular_polygon, squared_distance,
)
from cycleweights.pentagon import init_state, quadruple_decomposition, step, trace
from cycleweights.sequences import BOUND_LIMIT, RATIO_LIMIT

PENTAGON = regular_polygon(5, 1.0)
SIDES = canonicalize(range(5))

# closed forms for the unit-circumradius regular pentagon
E1 = (25 - 5 * math.sqrt(5)) / 2   # weight of the side cycle
D1 = (25 + 5 * math.sqrt(5)) / 2   # weight of the pentagram


def test_init_state_regular_pentagon():
    s = init_state(PENTAGON, SIDES)
    assert s.level == 1
    assert abs(s.e - E1) <= 1e-9 * 25
    assert abs(s.d - D1) <= 1e-9 * 25
    assert abs(s.d + s.e - 25.0) <= 1e-12 * 25
    # points are reordered along the complement (pentagram) cycle
    assert s.points == tuple(PENTAGON.points[v] for v in (0, 2, 4, 1, 3))


def test_init_state_matches_cycle_weight_and_complement_weight():
    config = random_config(23, 5, 2)
    cy = canonicalize((0, 2, 1, 4, 3))
    s = init_state(config, cy)
    assert s.e == cycle_weight(config, cy)
    assert s.d == complement_weight(config, cy)


def test_init_state_validation():
    with pytest.raises(UsageError):
        init_state(random_config(1, 4, 2), canonicalize(range(4)))
    with pytest.raises(UsageError):
        init_state(random_config(1, 5, 2), canonicalize(range(4)))
    with pytest.raises(DegenerateError):
        init_state(Configuration(((1.0, 1.0),) * 5), SIDES)


def test_step_coupling_laws_level1():
    s1 = init_state(PENTAGON, SIDES)
    s2 = step(s1)
    assert s2.level == 2
    assert abs(4 * s2.d - s1.e) <= 1e-12 * 25        # 4 d_2 = e_1
    assert abs(s1.d + 4 * s2.e - 3 * s1.e) <= 1e-12 * 75  # d_1 + 4 e_2 = 3 e_1


def test_trace_frozen_pentagon_values():
    tr = trace(PENTAGON, SIDES, 3)
    e = tr.e_values()
    d = tr.d_values()
    assert abs(e[1] - 0.6598300563) <= 1e-9
    assert abs(d[1] - 1.7274575141) <= 1e-9
    assert abs(e[2] - 0.0630081637) <= 1e-9
    assert tr.levels == 4
    assert len(tr.res_a) == 3 and len(tr.res_b) == 3 and len(tr.res_c) == 2


def test_trace_residuals_small_float():
    tr = trace(PENTAGON, SIDES, 30)
    assert tr.max_relative_residual() <= 1e-9
    config = random_config(77, 5, 3)
    assert trace(config, SIDES, 30).max_relative_residual() <= 1e-9


def test_trace_residuals_exact_rational():
    for seed in (3, 4):
        config = random_config(seed, 5, 2, RATIONAL)
        tr = trace(config, SIDES, 20)
        assert all(r == 0 for r in tr.res_a + tr.res_b + tr.res_c)
        assert tr.max_relative_residual() == 0.0


def test_trace_level_invariant_d_plus_e():
    # d + e at every level is the total weight of that level's points
    config = random_config(15, 5, 2, RATIONAL)
    tr = trace(config, SIDES, 10)
    for s in tr.states:
        assert s.d + s.e == total_weight(Configuration(s.points, RATIONAL))


def test_trace_validation():
    with pytest.raises(UsageError):
        trace(PENTAGON, SIDES, 0)
    with pytest.raises(UsageError):
        trace(PENTAGON, SIDES, 201)


def test_pentagon_is_the_slow_mode():
    # regular pentagon contracts at the *small* recurrence root (3-sqrt5)/8
    tr = trace(PENTAGON, SIDES, 2)
    e = tr.e_values()
    small_root = (3 - math.sqrt(5)) / 8
    assert abs(e[1] / e[0] - small_root) <= 1e-12


def test_generic_ratio_converges_to_large_root():
    config = random_config(99, 5, 2)
    tr = trace(config, SIDES, 30)
    e = tr.e_values()
    assert abs(e[26] / e[25] - RATIO_LIMIT) <= 1e-6


def test_pentagon_attains_bound_limit():
    # d_1 / e_1 = (3 + sqrt(5))/2 exactly on the regular pentagon
    s = init_state(PENTAGON, SIDES)
    assert abs(s.d - BOUND_LIMIT * s.e) <= 1e-12 * 25


def test_quadruple_decomposition_exact_rational():
    config = random_config(31, 5, 2, RATIONAL)
    terms = quadruple_decomposition(config, SIDES)
    assert len(terms) == 5
    assert all(t.residual == 0 for t in terms)
    tr = trace(config, SIDES, 1)
    e1, e2 = tr.e_values()[0], tr.e_values()[1]
    d1 = tr.d_values()[0]
    # summed over the five windows the relation is the level-1 coupling law
    assert sum(4 * t.r_sq for t in terms) == 4 * e2
    assert sum(t.l_sq[4] + t.l_sq[5] for t in terms) == 2 * d1
    assert sum(t.rhs for t in terms) == 3 * e1 + d1


def test_quadruple_decomposition_float_pentagon():
    terms = quadruple_decomposition(PENTAGON, SIDES)
    for t in terms:
        assert abs(t.residual) <= 1e-9 * (1 + abs(t.lhs) + abs(t.rhs))
    lhs = sum(t.lhs for t in terms)
    rhs = sum(t.rhs for t in terms)
    assert abs(lhs - (3 * E1 + D1)) <= 1e-9 * 50
    assert abs(rhs - (3 * E1 + D1)) <= 1e-9 * 50


def test_quadruple_decomposition_validation():
    with pytest.raises(UsageError):
        quadruple_decomposition(random_config(1, 4, 2), canonicalize(range(4)))
    with pytest.raises(UsageError):
        quadruple_decomposition(random_config(1, 5, 2), canonicalize(range(6)))


def test_trace_respects_chosen_cycle():
    # the pentagram cycle of the regular pentagon has e and d swapped
    pentagram = canonicalize((0, 2, 4, 1, 3))
    s = init_state(PENTAGON, pentagram)
    assert abs(s.e - D1) <= 1e-9 * 25
    assert abs(s.d - E1) <= 1e-9 * 25
    assert trace(PENTAGON, pentagram, 10).max_relative_residual() <= 1e-9


# --- the iteration against per-pair Fraction references ---------------------


def _reference_states(config, e_cycle, steps):
    """(level, points, d, e) of every level, stepped with ``midpoint`` and
    weighed with ``squared_distance`` on the configuration's own scalars."""
    pts = tuple(config.points[v] for v in complement_cycle(e_cycle).order)
    states = [(1, pts, complement_weight(config, e_cycle), cycle_weight(config, e_cycle))]
    for level in range(2, steps + 2):
        pts = tuple(midpoint(pts[k], pts[(k + 1) % 5]) for k in range(5))
        d = e = 0
        for k in range(5):
            d += squared_distance(pts[k], pts[(k + 1) % 5])
        for k in range(5):
            e += squared_distance(pts[k], pts[(k + 2) % 5])
        states.append((level, pts, d, e))
    return states


small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def _five_points(draw):
    """Five small p/q points of dimension 2 or 3 from a pool of at most five,
    so that some coincide, or a seeded random configuration's points."""
    dim = draw(st.sampled_from((2, 3)))
    if draw(st.booleans()):
        return random_config(draw(st.integers(0, 2**64 - 1)), 5, dim, RATIONAL).points
    pool = draw(st.lists(st.tuples(*[small] * dim), min_size=2, max_size=5))
    points = tuple(draw(st.sampled_from(pool)) for _ in range(5))
    assume(len(set(points)) > 1)
    return points


@settings(max_examples=100, deadline=None)
@given(_five_points(), st.sampled_from(enumerate_cycles(5)), st.integers(1, 12))
def test_trace_states_match_the_per_pair_references(points, e_cycle, steps):
    config = Configuration(points, RATIONAL)
    got = [(s.level, s.points, s.d, s.e) for s in trace(config, e_cycle, steps).states]
    assert got == _reference_states(config, e_cycle, steps)
    assert all(type(v) is Fraction
               for _, pts, d, e in got for v in (d, e, *(x for p in pts for x in p)))
    # the float arm keeps its bits
    config = Configuration(points, FLOAT)
    got = [(s.level, s.points, s.d, s.e) for s in trace(config, e_cycle, steps).states]
    assert repr(got) == repr(_reference_states(config, e_cycle, steps))


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("e_cycle", (SIDES, canonicalize((0, 2, 4, 1, 3))), ids=("sides", "pentagram"))
def test_rational_trace_of_200_steps_matches_the_references(dim, e_cycle):
    config = random_config(40 + dim, 5, dim, RATIONAL)
    tr = trace(config, e_cycle, 200)
    got = [(s.level, s.points, s.d, s.e) for s in tr.states]
    assert got == _reference_states(config, e_cycle, 200)
    assert all(type(v) is Fraction
               for _, pts, d, e in got for v in (d, e, *(x for p in pts for x in p)))
    residuals = tr.res_a + tr.res_b + tr.res_c
    assert len(residuals) == 599
    assert all(type(r) is Fraction and r == 0 for r in residuals)
    assert tr.max_relative_residual() == 0.0
