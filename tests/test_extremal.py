import pytest

from cycleweights import extremal
from cycleweights.bounds import K5_LOWER, K5_UPPER
from cycleweights.cycles import canonicalize, complement_cycle
from cycleweights.errors import DegenerateError, UsageError
from cycleweights.extremal import (
    MAXIMIZE,
    MINIMIZE,
    conjecture_table,
    optimize,
    ratio,
)
from cycleweights.geometry import Configuration, random_config, regular_polygon


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


@pytest.mark.parametrize(
    "args, calls", [((3, 5, 2, MAXIMIZE, 2, 40), 1551), ((4, 4, 3, MINIMIZE, 2, 30), 1412)]
)
def test_optimize_normalizes_once_per_start_and_candidate(monkeypatch, args, calls):
    # the benchmark's traced evaluation count is these calls minus the restarts
    seen = []
    inner = extremal.normalized_points
    monkeypatch.setattr(extremal, "normalized_points", lambda cols: seen.append(None) or inner(cols))
    optimize(*args)
    assert len(seen) == calls


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


def test_optimize_no_bound_for_n6():
    res = optimize(1, 6, 2, MAXIMIZE, restarts=1, budget=15)
    assert res.bound is None and res.within_bounds is None
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
        assert r.status == "proven"
        assert r.proven is not None
        # enumerating all cycles on the witness can only widen the range
        assert r.min_cycle_value <= r.minimum.value + 1e-15
        assert r.max_cycle_value >= r.maximum.value - 1e-15
    k5 = rows[1]
    assert k5.proven == (K5_LOWER, K5_UPPER)
    assert k5.minimum.value >= K5_LOWER - 1e-9
    assert k5.maximum.value <= K5_UPPER + 1e-9


def test_conjecture_table_exploratory_row():
    rows = conjecture_table(3, (6,), dim=2, restarts=1, budget=20)
    assert rows[0].status == "conjectured"
    assert rows[0].proven is None


def test_conjecture_table_validation():
    with pytest.raises(UsageError):
        conjecture_table(1, (3, 4), restarts=1, budget=5)
