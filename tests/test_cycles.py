import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycleweights.cycles as cycles_mod
from cycleweights.cycles import (
    Cycle,
    canonicalize,
    complement_cycle,
    complement_weight,
    cycle_edges,
    cycle_extremes,
    cycle_sums,
    cycle_weight,
    enumerate_cycles,
    total_weight,
)
from cycleweights.errors import UsageError
from cycleweights.geometry import (
    Configuration,
    column_pair_weights,
    FLOAT,
    RATIONAL,
    ordered_sum,
    pair_weights,
    random_config,
    regular_polygon,
    squared_distance,
)

UNIT_SQUARE = Configuration(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
RSQUARE = Configuration(((0, 0), (1, 0), (1, 1), (0, 1)), RATIONAL)


def test_canonicalize_examples():
    assert canonicalize((2, 0, 1)).order == (0, 1, 2)
    assert canonicalize((0, 2, 1)).order == (0, 1, 2)
    assert canonicalize((3, 2, 0, 1)).order == (0, 1, 3, 2)
    assert canonicalize((0, 3, 2, 1)).order == (0, 1, 2, 3)


def test_canonicalize_identifies_rotations_and_reflections():
    base = (0, 3, 1, 4, 2)
    expected = canonicalize(base)
    for k in range(5):
        rotated = base[k:] + base[:k]
        assert canonicalize(rotated) == expected
        assert canonicalize(rotated[::-1]) == expected


def test_cycle_constructor_rejects_non_canonical():
    with pytest.raises(UsageError):
        Cycle((0, 2, 1))  # wrong direction
    with pytest.raises(UsageError):
        Cycle((1, 0, 2))  # wrong start
    with pytest.raises(UsageError):
        Cycle((0, 1))
    with pytest.raises(UsageError):
        Cycle((0, 1, 1))
    with pytest.raises(UsageError):
        canonicalize((0, 1, 3))  # not a permutation of 0..2


def test_cycle_edges_and_str():
    cy = Cycle((0, 1, 3, 2))
    assert cy.edges() == frozenset({(0, 1), (1, 3), (2, 3), (0, 2)})
    assert str(cy) == "0,1,3,2"
    assert cy.n == 4


def test_enumeration_counts():
    # (n-1)!/2 distinct cycles
    for n, count in [(3, 1), (4, 3), (5, 12), (6, 60), (7, 360), (8, 2520)]:
        cycles = enumerate_cycles(n)
        assert len(cycles) == count
        assert len(set(cycles)) == count
        assert math.factorial(n - 1) // 2 == count


def test_enumeration_matches_brute_force_dedup():
    # oracle: distinct undirected edge sets over every permutation
    for n in (4, 5):
        all_edge_sets = set()
        for perm in itertools.permutations(range(n)):
            edges = frozenset(
                tuple(sorted((perm[k], perm[(k + 1) % n]))) for k in range(n)
            )
            all_edge_sets.add(edges)
        assert all_edge_sets == {cy.edges() for cy in enumerate_cycles(n)}


def test_enumeration_range():
    with pytest.raises(UsageError):
        enumerate_cycles(2)
    with pytest.raises(UsageError):
        enumerate_cycles(11)


def test_unit_square_weights():
    perimeter = canonicalize((0, 1, 2, 3))
    crossing = canonicalize((0, 2, 1, 3))
    assert cycle_weight(UNIT_SQUARE, perimeter) == 4.0
    assert cycle_weight(UNIT_SQUARE, crossing) == 6.0
    assert total_weight(UNIT_SQUARE) == 8.0
    # complement of the perimeter is the two diagonals
    diagonals = squared_distance((0.0, 0.0), (1.0, 1.0)) + squared_distance(
        (1.0, 0.0), (0.0, 1.0)
    )
    assert complement_weight(UNIT_SQUARE, perimeter) == diagonals == 4.0


def test_cycle_weight_size_mismatch():
    with pytest.raises(UsageError):
        cycle_weight(UNIT_SQUARE, canonicalize(range(5)))
    with pytest.raises(UsageError):
        complement_weight(UNIT_SQUARE, canonicalize(range(5)))


def test_weight_invariant_under_representation():
    # raw traversal sum equals the canonical cycle's weight, exactly,
    # in rational mode (no reordering error possible)
    config = random_config(7, 5, 2, RATIONAL)
    base = (3, 0, 4, 2, 1)
    cy = canonicalize(base)
    raw = sum(
        squared_distance(config.points[base[k]], config.points[base[(k + 1) % 5]])
        for k in range(5)
    )
    assert raw == cycle_weight(config, cy)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_cycle_plus_complement_is_total_exactly(seed):
    config = random_config(seed, 5, 2, RATIONAL)
    for cy in enumerate_cycles(5):
        assert cycle_weight(config, cy) + complement_weight(config, cy) == total_weight(
            config
        )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=3, max_value=8),
    st.sampled_from([FLOAT, RATIONAL]),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_pair_vector_kernel_matches_cycle_weight_exactly(n, mode, dim, seed):
    config = random_config(seed, n, dim, mode)
    w = pair_weights(config.points)
    assert ordered_sum(w) == total_weight(config)
    cycles = enumerate_cycles(n)
    assert len(cycle_edges(n)) == len(cycles)
    for cycle, edges in zip(cycles, cycle_edges(n)):
        assert ordered_sum([w[e] for e in edges]) == cycle_weight(config, cycle)


def test_cycle_edges_builds_no_cycle(monkeypatch):
    pairs = list(itertools.combinations(range(7), 2))
    expected = tuple(
        tuple(pairs.index(tuple(sorted(e))) for e in zip(cy.order, cy.order[1:] + cy.order[:1]))
        for cy in enumerate_cycles(7)
    )
    cycles_mod.enumerate_cycles.cache_clear()
    cycles_mod.cycle_edges.cache_clear()
    monkeypatch.setattr(cycles_mod, "Cycle", None)  # building a Cycle would fail
    assert cycle_edges(7) == expected


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("mode", [FLOAT, RATIONAL])
def test_cycle_sums_match_cycle_weight_bit_for_bit(n, mode):
    configs = [random_config(seed, n, dim, mode) for seed in range(4) for dim in (2, 3)]
    # coincident points give zero weights, and n = 3 has a single cycle
    configs.append(Configuration(((0.5, 0.25),) * (n - 1) + ((1.0, 0.0),), mode))
    for config in configs:
        expected = [cycle_weight(config, cycle) for cycle in enumerate_cycles(n)]
        got = cycle_sums(pair_weights(config.points), n)
        assert isinstance(got, list)
        assert list(map(repr, got)) == list(map(repr, expected))


def test_complement_cycle_example_and_involution():
    pentagon = canonicalize(range(5))
    pentagram = complement_cycle(pentagon)
    assert pentagram.order == (0, 2, 4, 1, 3)
    for cy in enumerate_cycles(5):
        comp = complement_cycle(cy)
        assert complement_cycle(comp) == cy
        assert comp.edges().isdisjoint(cy.edges())
        assert len(comp.edges() | cy.edges()) == 10


def test_complement_cycle_needs_n5():
    with pytest.raises(UsageError):
        complement_cycle(canonicalize(range(4)))
    with pytest.raises(UsageError):
        complement_cycle(canonicalize(range(6)))


def test_coincident_points_zero_weights():
    config = Configuration(((2.0, 3.0),) * 4)
    cy = canonicalize(range(4))
    assert cycle_weight(config, cy) == 0.0
    assert total_weight(config) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=3, max_value=7),
    st.sampled_from([FLOAT, RATIONAL]),
    st.integers(min_value=2, max_value=3),
    st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=5),
)
def test_batched_weights_are_the_single_ones_end_to_end(n, mode, dim, seeds):
    # one pass over B configurations laid end to end gives, bit for bit, the
    # pair weights and cycle sums of each configuration alone, concatenated
    configs = [random_config(seed, n, dim, mode) for seed in seeds]
    # a configuration with coincident points gives zero weights
    configs.append(Configuration(((0.5, 0.25) + (0.0,) * (dim - 2),) * n, mode))
    # rational columns as ints over one den, 2**53, as a chunk of draws has them
    scale = (lambda x: int(x * 2**53)) if mode == RATIONAL else float
    single = [[list(map(scale, c)) for c in zip(*config.points)] for config in configs]
    batched = [[x for cols in single for x in cols[k]] for k in range(dim)]
    w = column_pair_weights(batched, len(configs))
    pair_vectors = [column_pair_weights(cols) for cols in single]
    assert repr(w) == repr([x for v in pair_vectors for x in v])
    sums = [x for v in pair_vectors for x in cycle_sums(v, n)]
    assert repr(cycle_sums(w, n, len(configs))) == repr(sums)
    assert all(type(x) is (int if mode == RATIONAL else float) for x in sums)


def _assert_extremes_match_cycle_sums(points):
    weights = cycle_sums(pair_weights(points), len(points))
    expected = (min(weights), max(weights))
    got = cycle_extremes(points)
    assert got == expected
    assert tuple(map(type, got)) == tuple(map(type, expected))
    # repr tells float bits apart where == would not (-0.0)
    assert repr(got) == repr(expected)


@pytest.mark.parametrize("radius", [1.0, 3.0, 7.25, 1e-100, 1e100, 1e-150, 1e150])
@pytest.mark.parametrize("n", range(3, 11))
def test_cycle_extremes_on_regular_polygons(n, radius):
    # many cycles share the extreme weights here, so most of the walk is skipped
    _assert_extremes_match_cycle_sums(regular_polygon(n, radius).points)


def _configurations(n_values, coordinates):
    return st.sampled_from(n_values).flatmap(
        lambda n: st.integers(min_value=2, max_value=3).flatmap(
            lambda dim: st.lists(st.tuples(*[coordinates] * dim), min_size=n, max_size=n)))


FLOATS = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
FRACTIONS = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


@settings(max_examples=60, deadline=None)
@given(_configurations(range(3, 9), FLOATS))
def test_cycle_extremes_on_float_configurations(points):
    _assert_extremes_match_cycle_sums(Configuration(tuple(points)).points)


@settings(max_examples=60, deadline=None)
@given(_configurations(range(3, 9), FRACTIONS))
def test_cycle_extremes_on_rational_configurations(points):
    _assert_extremes_match_cycle_sums(Configuration(tuple(points), RATIONAL).points)


@settings(max_examples=60, deadline=None)
@given(_configurations(range(3, 9), st.integers(min_value=0, max_value=2)),
       st.sampled_from([FLOAT, RATIONAL]))
def test_cycle_extremes_on_grid_configurations(points, mode):
    # a 3 x 3 grid gives many equal cycle weights, and coincident points zero weights
    _assert_extremes_match_cycle_sums(Configuration(tuple(points), mode).points)


@pytest.mark.parametrize("n, mode", [(9, FLOAT), (9, RATIONAL), (10, FLOAT)])
def test_cycle_extremes_on_large_configurations(n, mode):
    # Fraction sums over every cycle take seconds here: rational mode runs the n = 9 grid only
    grid = tuple((k % 3, k // 3 % 2) for k in range(n))
    _assert_extremes_match_cycle_sums(Configuration(grid, mode).points)
    if mode == FLOAT:
        for seed in range(2):
            _assert_extremes_match_cycle_sums(random_config(seed, n, 2).points)


def test_cycle_extremes_range():
    with pytest.raises(UsageError):
        cycle_extremes(((0.0, 0.0),) * 2)
    with pytest.raises(UsageError):
        cycle_extremes(tuple((float(k), 0.0) for k in range(11)))
    with pytest.raises(UsageError):
        cycle_sums(pair_weights(((0.0, 0.0),) * 2), 2)
    with pytest.raises(UsageError):
        cycle_sums(pair_weights(tuple((float(k), 0.0) for k in range(11))), 11)
