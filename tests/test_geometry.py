import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycleweights import quadrilateral
from cycleweights.bounds import check_bounds, duality_check
from cycleweights.cycles import enumerate_cycles, total_weight
from cycleweights.errors import UsageError
from cycleweights.geometry import (
    FLOAT,
    RATIONAL,
    Configuration,
    column_pair_weights,
    columns,
    exact,
    format_points,
    midpoint,
    normalized_points,
    ordered_sum,
    parse_points,
    random_columns,
    random_config,
    regular_polygon,
    squared_distance,
)
from cycleweights.pentagon import trace
from cycleweights.prng import SplitMix64
from cycleweights.quadrilateral import fuzz_identity, identity_terms

finite = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
point2 = st.tuples(finite, finite)
rational = st.fractions(min_value=-10, max_value=10)
rpoint2 = st.tuples(rational, rational)


def test_squared_distance_basic():
    assert squared_distance((0.0, 0.0), (3.0, 4.0)) == 25.0
    assert squared_distance((1.0, 2.0), (1.0, 2.0)) == 0.0
    assert squared_distance((0, 0, 0), (1, 2, 2)) == 9


def test_squared_distance_rational_exact():
    a = (Fraction(1, 3), Fraction(0))
    b = (Fraction(1), Fraction(0))
    assert squared_distance(a, b) == Fraction(4, 9)


def test_squared_distance_dimension_mismatch():
    with pytest.raises(UsageError):
        squared_distance((0.0, 0.0), (1.0, 2.0, 3.0))
    with pytest.raises(UsageError):
        midpoint((0.0,), (1.0, 2.0))


@given(point2, point2)
def test_squared_distance_symmetric(p, q):
    assert squared_distance(p, q) == squared_distance(q, p)


@given(rpoint2, rpoint2, rational, rpoint2)
def test_similarity_scales_weight_exactly(p, q, s, t):
    ps = tuple(s * x + dx for x, dx in zip(p, t))
    qs = tuple(s * x + dx for x, dx in zip(q, t))
    assert squared_distance(ps, qs) == s * s * squared_distance(p, q)


@given(rpoint2, rpoint2)
def test_midpoint_quarter_weight(p, q):
    m = midpoint(p, q)
    assert squared_distance(p, m) == squared_distance(p, q) / 4
    assert squared_distance(m, q) == squared_distance(p, q) / 4


def test_midpoint_values():
    assert midpoint((0.0, 0.0), (1.0, 3.0)) == (0.5, 1.5)
    assert midpoint((Fraction(1, 3), Fraction(0)), (Fraction(1), Fraction(0))) == (
        Fraction(2, 3),
        Fraction(0),
    )


def test_configuration_validation():
    with pytest.raises(UsageError):
        Configuration(((0.0, 0.0), (1.0, 1.0)))  # too few points
    with pytest.raises(UsageError):
        Configuration(((0.0, 0.0), (1.0, 1.0), (1.0, 0.0, 0.0)))  # mixed dims
    with pytest.raises(UsageError):
        Configuration(((0.0,), (1.0,), (2.0,)))  # dim 1
    with pytest.raises(UsageError):
        Configuration(((0.0, 0.0), (1.0, 1.0), (1.0, 0.0)), mode="decimal")
    with pytest.raises(UsageError):
        Configuration(((0.0, 0.0), (1.0, float("inf")), (1.0, 0.0)))


def test_configuration_rational_coercion():
    c = Configuration(((0, 0), (1, 0), (0, 1)), RATIONAL)
    assert all(isinstance(x, Fraction) for p in c.points for x in p)
    assert c.dim == 2 and c.n == 3 and c.mode == RATIONAL


def test_random_config_deterministic_and_in_unit_box():
    a = random_config(99, 6, 3)
    b = random_config(99, 6, 3)
    assert a == b
    assert a.n == 6 and a.dim == 3
    assert all(0.0 <= x < 1.0 for p in a.points for x in p)
    assert random_config(100, 6, 3) != a


def test_random_config_frozen_seed1():
    c = random_config(1, 4, 2)
    assert c.points[0] == (0.5665615751722809, 0.7457817572627011)
    assert c.points[1] == (0.9710027535867962, 0.4443592170557721)


def test_random_config_modes_agree_exactly():
    cf = random_config(9, 5, 3, FLOAT)
    cr = random_config(9, 5, 3, RATIONAL)
    for pf, pr in zip(cf.points, cr.points):
        for xf, xr in zip(pf, pr):
            assert xr == Fraction(xf)


def test_random_config_equals_a_checked_configuration():
    # random_config skips the coercion and checks of Configuration(...)
    for seed in range(200):
        for n in range(3, 8):
            for dim in (2, 3):
                rng = SplitMix64(seed)
                units = [rng.next_unit() for _ in range(n * dim)]
                for mode in (FLOAT, RATIONAL):
                    c = random_config(seed, n, dim, mode)
                    checked = Configuration(c.points, mode)
                    assert c == checked and repr(c) == repr(checked)
                    assert [x for p in c.points for x in p] == units


def test_a_point_set_is_held_once_as_columns():
    built = Configuration(((0, 0), (1, 2), (Fraction(1, 3), 5)), RATIONAL)
    for c in (built, random_config(3, 5, 3, FLOAT), random_config(3, 4, 2, RATIONAL)):
        assert set(vars(c)) == {"mode", "dim", "cols", "den"}


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("n, dim", [(4, 2), (5, 3)])
def test_drawn_configuration_copies_and_pickles_without_its_points(seed, n, dim):
    # the drawn configuration's points are never read: each round trip
    # carries the columns alone and reads the points from them
    drawn = random_config(seed, n, dim, RATIONAL)
    for clone in (copy.copy(drawn), copy.deepcopy(drawn), pickle.loads(pickle.dumps(drawn))):
        assert set(vars(clone)) == {"mode", "dim", "cols", "den"}
        assert (clone.cols, clone.den) == random_columns((seed,), n, dim, RATIONAL)
        fresh = random_config(seed, n, dim, RATIONAL)
        assert clone == fresh and repr(clone) == repr(fresh)
    assert (drawn.cols, drawn.den) == random_columns((seed,), n, dim, RATIONAL)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_random_config_takes_successive_stream_draws(seed):
    # the closed-form draws against the sequential generator, point-major
    for n in range(3, 11):
        for dim in (2, 3):
            rng = SplitMix64(seed)
            units = [rng.next_unit() for _ in range(n * dim)]
            rng = SplitMix64(seed)
            fractions = [Fraction(rng.next_u64() >> 11, 2**53) for _ in range(n * dim)]
            for mode, expected in ((FLOAT, units), (RATIONAL, fractions)):
                c = random_config(seed, n, dim, mode)
                assert len(c.points) == n and all(len(p) == dim for p in c.points)
                coords = [x for p in c.points for x in p]
                assert list(map(repr, coords)) == list(map(repr, expected))


@pytest.mark.parametrize("mode", [FLOAT, RATIONAL])
@pytest.mark.parametrize("dim", [2, 3])
def test_random_columns_are_the_configurations_end_to_end(mode, dim):
    seeds = [0, 1, 2**64 - 1, 12345]
    for n in (3, 5, 8):
        cols, den = random_columns(seeds, n, dim, mode)
        points = [p for seed in seeds for p in random_config(seed, n, dim, mode).points]
        assert len(cols) == dim and all(len(c) == n * len(seeds) for c in cols)
        if mode == RATIONAL:
            assert den == 2**53 and all(type(x) is int for c in cols for x in c)
            points = [tuple(int(x * den) for x in p) for p in points]
        else:
            assert den is None
        assert list(map(repr, zip(*cols))) == list(map(repr, points))
    assert random_columns([], 5, dim, mode)[0] == [[]] * dim


def test_random_config_validation():
    with pytest.raises(UsageError):
        random_config(0, 2)
    with pytest.raises(UsageError):
        random_config(0, 5, dim=4)
    with pytest.raises(UsageError):
        random_config(0, 5, mode="decimal")


def test_regular_polygon_square_and_pentagon():
    sq = regular_polygon(4, 1.0)
    # vertices (1,0),(0,1),(-1,0),(0,-1): sides have squared length 2
    for k in range(4):
        assert abs(squared_distance(sq.points[k], sq.points[(k + 1) % 4]) - 2.0) < 1e-12
    pent = regular_polygon(5, 1.0)
    assert abs(total_weight(pent) - 25.0) < 1e-12
    # total weight scales with the squared radius
    pent2 = regular_polygon(5, 2.0)
    assert abs(total_weight(pent2) - 100.0) < 1e-10


def test_regular_polygon_validation():
    with pytest.raises(UsageError):
        regular_polygon(2)
    with pytest.raises(UsageError):
        regular_polygon(5, 0.0)
    with pytest.raises(UsageError):
        regular_polygon(5, -1.0)


def test_normalize_unit_weight_and_centroid():
    c = random_config(5, 6, 2)
    cols = normalized_points([list(col) for col in zip(*c.points)])
    points = tuple(zip(*cols))
    assert abs(ordered_sum(column_pair_weights(cols)) - 1.0) < 1e-12
    for col in cols:
        assert abs(sum(col)) < 1e-12
    # idempotent up to rounding
    again = tuple(zip(*normalized_points(cols)))
    for p, q in zip(points, again):
        assert squared_distance(p, q) < 1e-24


def test_normalize_errors():
    # coincident points have no total weight to scale to 1
    assert normalized_points([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]) is None


def test_point_file_round_trip_float():
    c = random_config(17, 5, 3)
    assert parse_points(format_points(c)) == c


def test_point_file_round_trip_rational():
    c = random_config(18, 4, 2, RATIONAL)
    assert parse_points(format_points(c)) == c


def test_point_file_comments_and_tokens():
    text = """
    # a comment
    points 3 dim 2 mode rational

    0 0
    1/3 0.5
    # another comment
    -2 7e-1
    """
    c = parse_points(text)
    assert c.mode == RATIONAL
    assert c.points[1] == (Fraction(1, 3), Fraction(1, 2))
    assert c.points[2] == (Fraction(-2), Fraction(7, 10))


def test_point_file_errors():
    with pytest.raises(UsageError):
        parse_points("")
    with pytest.raises(UsageError):
        parse_points("points x dim 2 mode float\n0 0\n")
    with pytest.raises(UsageError):
        parse_points("points 3 dim 2 mode decimal\n0 0\n1 0\n0 1\n")
    with pytest.raises(UsageError):  # row count mismatch
        parse_points("points 3 dim 2 mode float\n0 0\n1 0\n")
    with pytest.raises(UsageError):  # token count mismatch
        parse_points("points 3 dim 2 mode float\n0 0\n1 0 0\n0 1\n")
    with pytest.raises(UsageError):  # bad token
        parse_points("points 3 dim 2 mode float\n0 0\n1 zero\n0 1\n")
    with pytest.raises(UsageError):  # non-finite
        parse_points("points 3 dim 2 mode float\n0 0\n1 inf\n0 1\n")
    with pytest.raises(UsageError):  # fraction token in float mode
        parse_points("points 3 dim 2 mode float\n0 0\n1 1/3\n0 1\n")


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_pairwise_weight_matches_direct_sum(seed):
    c = random_config(seed, 5, 2)
    # a plain loop, not sum(): from Python 3.12 on, sum() of floats is compensated
    direct = 0
    for i in range(5):
        for j in range(i + 1, 5):
            direct += squared_distance(c.points[i], c.points[j])
    assert total_weight(c) == direct


# The row-major loops that the column kernel replaced, kept as references.


def _row_pair_weights(points):
    out = []
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            total = 0
            for a, b in zip(points[i], points[j]):
                d = a - b
                total += d * d
            out.append(total)
    return out


def _row_normalized_points(points):
    n = len(points)
    dim = len(points[0])
    centroid = [0.0] * dim
    for p in points:
        for j in range(dim):
            centroid[j] += p[j]
    for j in range(dim):
        centroid[j] /= n
    shifted = [tuple(p[j] - centroid[j] for j in range(dim)) for p in points]
    w = ordered_sum(_row_pair_weights(shifted))
    if w == 0.0:
        return None
    s = 1.0 / math.sqrt(w)
    return tuple(tuple(x * s for x in p) for p in shifted)


@st.composite
def _point_sets(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    point = st.tuples(*[draw(st.sampled_from((finite, rational)))] * draw(st.sampled_from((2, 3))))
    if draw(st.booleans()):  # every point equal: normalized_points gives None
        return [draw(point)] * n
    return draw(st.lists(point, min_size=n, max_size=n))


@settings(max_examples=300)
@given(_point_sets())
def test_column_kernel_matches_row_loops(points):
    assert repr(column_pair_weights(list(zip(*points)))) == repr(_row_pair_weights(points))
    cols = normalized_points([list(c) for c in zip(*points)])
    assert repr(cols if cols is None else tuple(zip(*cols))) == repr(_row_normalized_points(points))


@settings(max_examples=200)
@given(st.lists(st.tuples(*[st.builds(Fraction, st.integers(-99, 99), st.integers(1, 60))] * 2),
                min_size=1, max_size=6))
@example([(Fraction(1), Fraction(-2)), (Fraction(3), Fraction(0))])  # den == 1
def test_columns_clear_every_denominator(points):
    cols, den = columns(points, RATIONAL)
    assert den == math.lcm(*(x.denominator for p in points for x in p))
    assert all(type(x) is int for col in cols for x in col)
    assert [tuple(Fraction(x, den) for x in p) for p in zip(*cols)] == points
    assert column_pair_weights(cols) == [w * den * den for w in _row_pair_weights(points)]
    assert exact(column_pair_weights(cols), den) == tuple(_row_pair_weights(points))
    # float mode: the plain columns, whose weights are already values
    floats = [tuple(map(float, p)) for p in points]
    cols, den = columns(floats, FLOAT)
    assert den is None and cols == list(zip(*floats))
    assert repr(exact(column_pair_weights(cols), den)) == repr(tuple(_row_pair_weights(floats)))


# draws whose every coordinate has an even numerator over 2**53, so that the
# lcm den of their points is 2**52
HALF_DEN_DRAWS = [(218, 4, 2), (51, 3, 2), (839, 5, 2)]


@pytest.mark.parametrize("seed, n, dim", HALF_DEN_DRAWS + [
    (218, 4, 3), (0, 5, 2), (1, 5, 3), (7, 4, 3), (51, 6, 2),
])
def test_drawn_and_parsed_configurations_weigh_the_same(monkeypatch, seed, n, dim):
    drawn = random_config(seed, n, dim, RATIONAL)
    parsed = parse_points(format_points(drawn))
    assert parsed == drawn
    # the draw keeps its own columns over 2**53; the parsed points take their lcm
    assert (drawn.cols, drawn.den) == random_columns((seed,), n, dim, RATIONAL)
    assert parsed.den == math.lcm(*(x.denominator for p in parsed.points for x in p))
    assert (parsed.den == 2**52) == ((seed, n, dim) in HALF_DEN_DRAWS)
    assert repr(check_bounds(drawn)) == repr(check_bounds(parsed))
    if n == 5:
        cycle = enumerate_cycles(5)[seed % 12]
        assert repr(duality_check(drawn)) == repr(duality_check(parsed))
        assert repr(trace(drawn, cycle, 6)) == repr(trace(parsed, cycle, 6))
    if n == 4:
        # the identity fuzz weighs the configuration it draws
        seen = []

        def kept(config, pairing, _real=quadrilateral.identity_terms):
            seen.append(_real(config, pairing))
            return seen[-1]

        monkeypatch.setattr(quadrilateral, "random_config", lambda *args: drawn)
        monkeypatch.setattr(quadrilateral, "identity_terms", kept)
        assert fuzz_identity(seed, 1, dim, RATIONAL).violations == 0
        expected = [identity_terms(parsed, p) for p in (0, 1, 2)]
        assert list(map(repr, seen)) == list(map(repr, expected))
