import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cycleweights import extremal
from cycleweights import bounds
from cycleweights.bounds import spectral_interval
from cycleweights.cycles import canonicalize, complement_cycle
from cycleweights.errors import DegenerateError, UsageError
from cycleweights.extremal import (
    MAXIMIZE,
    MINIMIZE,
    conjecture_table,
    optimize,
    ratio,
)
from cycleweights.geometry import (
    Configuration, normalized_points, ordered_sum, random_config, regular_polygon,
)

K5_LOWER, K5_UPPER = (5 - math.sqrt(5)) / 10, (5 + math.sqrt(5)) / 10


def test_ratio_examples():
    square = Configuration(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    assert ratio(square, canonicalize(range(4))) == 0.5
    pentagon = regular_polygon(5, 1.0)
    assert abs(ratio(pentagon, canonicalize(range(5))) - K5_LOWER) <= 1e-12


def test_ratio_degenerate():
    with pytest.raises(DegenerateError):
        ratio(Configuration(((1.0, 1.0),) * 4), canonicalize(range(4)))


def test_ratio_complement_pair_sums_to_one():
    config = random_config(3, 5, 2)
    cy = canonicalize((0, 3, 1, 4, 2))
    assert abs(ratio(config, cy) + ratio(config, complement_cycle(cy)) - 1.0) <= 1e-12


def test_optimize_deterministic():
    a = optimize(5, 5, 2, MAXIMIZE, restarts=3, budget=60)
    b = optimize(5, 5, 2, MAXIMIZE, restarts=3, budget=60)
    assert a == b


def closed_form(n, objective):
    """Extreme eigenvalue of the n-cycle's Laplacian over n: the exact extreme
    of w(E)/w(K_n), at k = 1 for the minimum and k = n // 2 for the maximum."""
    k = 1 if objective == MINIMIZE else n // 2
    return (2 - 2 * math.cos(2 * math.pi * k / n)) / n


@pytest.mark.parametrize("offset, within", [(0.0, True), (0.9e-9, True), (1.1e-9, False)])
@pytest.mark.parametrize("objective", [MINIMIZE, MAXIMIZE])
def test_within_bounds_allows_the_classifier_tolerance(monkeypatch, objective, offset, within):
    res = optimize(3, 5, 2, objective, restarts=1, budget=20)
    lo, hi, *rest = bounds._spectrum(5)
    # move the end the search heads for to just past its value: the search never reads it
    ends = (res.value + offset, hi) if objective == MINIMIZE else (lo, res.value - offset)
    monkeypatch.setattr(bounds, "_spectrum", lambda n: (*ends, *rest))
    assert optimize(3, 5, 2, objective, restarts=1, budget=20).within_bounds is within


@pytest.mark.parametrize("objective", [MINIMIZE, MAXIMIZE])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_optimize_reaches_closed_form(n, dim, objective):
    for seed in (1, 2, 3):
        res = optimize(seed, n, dim, objective, restarts=20, budget=500)
        assert abs(res.value - closed_form(n, objective)) <= 1e-12
        assert res.value == ratio(res.config, res.cycle)
        steps = zip(res.history, res.history[1:])
        assert all((a < b) if objective == MAXIMIZE else (a > b) for a, b in steps)
        assert res.within_bounds is True and res.bound == spectral_interval(n)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 7).flatmap(lambda n: st.lists(
    st.lists(st.floats(-1, 1), min_size=n, max_size=n), min_size=2, max_size=3)))
def test_move_slopes_match_full_recompute(raw):
    cols = normalized_points(raw)
    assume(cols is not None)
    n = len(cols[0])
    w_e0, w_k0 = extremal._identity_weights(cols)
    for i in range(n):
        for j, col in enumerate(cols):
            g_k, g_e = extremal._slopes(col, i, ordered_sum(col))
            for delta in (0.25, -0.25, 1e-3, -1e-3, 1e-9, -1e-9):
                moved = col[:]
                moved[i] += delta
                w_e, w_k = extremal._identity_weights(cols[:j] + [moved] + cols[j + 1:])
                screened_k = w_k0 + delta * (g_k + (n - 1) * delta)
                screened_e = w_e0 + delta * (g_e + 2 * delta)
                # relative to the recomputed weight, or to the unmoved w(K_n) = 1
                # where a move nearly collapses the points
                assert abs(screened_k - w_k) <= 1e-12 * max(w_k, w_k0)
                assert abs(screened_e - w_e) <= 1e-12 * max(w_e, w_k0)


@pytest.mark.parametrize("args", [(3, 5, 2, MAXIMIZE, 2, 40), (4, 4, 3, MINIMIZE, 2, 30)])
def test_optimize_normalizes_once_per_start_and_rescore(monkeypatch, args):
    seen = []
    inner = extremal.normalized_points
    monkeypatch.setattr(extremal, "normalized_points", lambda cols: seen.append(None) or inner(cols))
    res = optimize(*args)
    assert len(seen) == res.restarts + res.rescores
    assert res.acceptances <= res.rescores < res.evals / 10
    assert res.acceptances >= len(res.history) - 1 and res.halvings > 0


def test_optimize_value_matches_witness():
    res = optimize(2, 5, 2, MAXIMIZE, restarts=2, budget=80)
    assert res.value == ratio(res.config, res.cycle)
    assert res.cycle.order == (0, 1, 2, 3, 4)


def test_optimize_history_monotone():
    res = optimize(4, 5, 2, MAXIMIZE, restarts=2, budget=80)
    assert all(a < b for a, b in zip(res.history, res.history[1:]))
    res = optimize(4, 4, 2, MINIMIZE, restarts=2, budget=80)
    assert all(a > b for a, b in zip(res.history, res.history[1:]))


def test_optimize_reaches_known_extremes_smallrun():
    res = optimize(1, 4, 2, MINIMIZE, restarts=3, budget=150)
    assert abs(res.value - 0.5) <= 1e-4
    assert res.within_bounds
    res = optimize(1, 5, 2, MAXIMIZE, restarts=3, budget=150)
    assert res.value >= 0.7236
    assert res.value <= K5_UPPER + 1e-9
    assert res.within_bounds


def test_optimize_bound_for_n6():
    res = optimize(1, 6, 2, MAXIMIZE, restarts=1, budget=15)
    assert res.bound == (1 / 6, 2 / 3) and res.within_bounds is True
    assert 0.0 < res.value < 1.0


def test_optimize_validation():
    with pytest.raises(UsageError):
        optimize(1, 5, 2, "explore")
    with pytest.raises(UsageError):
        optimize(1, 3, 2, MAXIMIZE)
    with pytest.raises(UsageError):
        optimize(1, 8, 2, MAXIMIZE)
    with pytest.raises(UsageError):
        optimize(1, 5, 4, MAXIMIZE)
    with pytest.raises(UsageError):
        optimize(1, 5, 2, MAXIMIZE, restarts=0)
    with pytest.raises(UsageError):
        optimize(1, 5, 2, MAXIMIZE, budget=0)


def test_conjecture_table_proven_rows():
    rows = conjecture_table(3, (4, 5), dim=2, restarts=2, budget=60)
    assert [r.n for r in rows] == [4, 5]
    for r in rows:
        assert r.proven == spectral_interval(r.n)
        # enumerating all cycles on the witness can only widen the range
        assert r.min_cycle_value <= r.minimum.value + 1e-15
        assert r.max_cycle_value >= r.maximum.value - 1e-15
    k5 = rows[1]
    assert k5.proven == (K5_LOWER, K5_UPPER)
    assert k5.minimum.value >= K5_LOWER - 1e-9
    assert k5.maximum.value <= K5_UPPER + 1e-9


def test_conjecture_table_n6_row():
    rows = conjecture_table(3, (6,), dim=2, restarts=1, budget=20)
    assert rows[0].proven == (1 / 6, 2 / 3)
    assert rows[0].minimum.within_bounds and rows[0].maximum.within_bounds


def test_conjecture_table_validation():
    with pytest.raises(UsageError):
        conjecture_table(1, (3, 4), restarts=1, budget=5)
