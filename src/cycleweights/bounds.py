"""Cycle-weight bounds on 4- and 5-point configurations.

For squared-distance weights every Hamiltonian cycle E on 4 points
satisfies

    1/2 <= w(E) / w(K4) < 1

(lower bound attained, upper bound approached but never reached), and
on 5 points

    (5 - sqrt(5))/10 <= w(E) / w(K5) <= (5 + sqrt(5))/10

with both ends attained (regular pentagon).  On 5 points the
complement of a cycle is again a cycle and the two ratios sum to 1
exactly, which makes the two K5 bounds equivalent statements.

Float mode classifies each cycle with a tolerance band around the
bounds; rational mode decides everything exactly, on int weights over
the configuration's common denominator, comparing against sqrt(5) via
the squaring transform  t = 10 w(E) - 5 w(K5):
both bounds together are |t| <= sqrt(5) w(K5), i.e. t^2 <= 5 w(K5)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .checks import (
    DEGENERATE,
    HOLDS,
    HOLDS_WITH_EQUALITY,
    REL_TOL_DERIVED,
    VIOLATED,
)
from .cycles import (
    Cycle, complement_cycle, cycle_edges, cycle_weight, enumerate_cycles, total_weight,
)
from .errors import DegenerateError, UsageError
from .geometry import (
    Configuration, FLOAT, MODES, RATIONAL, column_pair_weights, integer_columns, ordered_sum,
    pair_weights, random_config,
)
from .prng import MASK64, mix64

K4_LOWER = 0.5
K5_LOWER = (5 - math.sqrt(5)) / 10
K5_UPPER = (5 + math.sqrt(5)) / 10


@dataclass(frozen=True)
class CycleRow:
    """One checked cycle: weights, ratio, and its verdict."""

    config_id: int
    cycle: Cycle
    w_cycle: object
    w_complement: object
    w_total: object
    ratio: object  # None when the total weight is zero
    verdict: str


@dataclass(frozen=True)
class BoundReport:
    """Aggregate over all checked cycles of one or many configurations.

    ``rows`` carries every row for single-configuration checks but only
    the interesting (violated/degenerate) rows under fuzzing.
    """

    n: int
    mode: str
    tolerance: float
    trials: int
    checks: int
    violations: int
    degenerate: int
    equalities: int
    min_ratio: object
    max_ratio: object
    rows: tuple


@dataclass(frozen=True)
class DualityRow:
    cycle: Cycle
    complement: Cycle
    ratio: object
    complement_ratio: object
    residual: object  # ratio + complement_ratio - 1
    lower_attained: bool
    upper_attained: bool


@dataclass(frozen=True)
class DualityReport:
    mode: str
    tolerance: float
    verdict: str
    rows: tuple


def _classify_k4(w_e, w_k, tolerance: float, mode: str):
    """(ratio, verdict) for 1/2 w(K4) <= w(E) < w(K4) on one cycle.  Rational
    mode decides on the weights alone: its ratio is None, built only if reported."""
    if w_k == 0:
        return None, DEGENERATE
    w_d = w_k - w_e
    if mode == RATIONAL:
        if w_d == 0:
            # upper end: only reachable when two points coincide
            return None, DEGENERATE
        if 2 * w_e < w_k:
            return None, VIOLATED
        return None, (HOLDS_WITH_EQUALITY if 2 * w_e == w_k else HOLDS)
    ratio = w_e / w_k
    if w_d <= tolerance * w_k:
        return ratio, DEGENERATE
    if ratio < K4_LOWER - tolerance:
        return ratio, VIOLATED
    if abs(ratio - K4_LOWER) <= tolerance:
        return ratio, HOLDS_WITH_EQUALITY
    return ratio, HOLDS


def _classify_k5(w_e, w_k, tolerance: float, mode: str):
    """(ratio, verdict) for the (5 -+ sqrt(5))/10 bounds, as for K4."""
    if w_k == 0:
        return None, DEGENERATE
    if mode == RATIONAL:
        # t^2 == 5 w_k^2 would make sqrt(5) rational, so no equality case
        t = 10 * w_e - 5 * w_k
        return None, (HOLDS if t * t < 5 * w_k * w_k else VIOLATED)
    ratio = w_e / w_k
    if ratio < K5_LOWER - tolerance or ratio > K5_UPPER + tolerance:
        return ratio, VIOLATED
    if abs(ratio - K5_LOWER) <= tolerance or abs(ratio - K5_UPPER) <= tolerance:
        return ratio, HOLDS_WITH_EQUALITY
    return ratio, HOLDS


def _check_rows(configs, tolerance: float, keep_all: bool):
    """Classify every cycle of each configuration, as a stream.

    Each configuration becomes one pair-weight vector (ints times den**2
    in rational mode, see ``integer_columns``), and each cycle weight a
    sum over its edge indices.  If w(K_n) is 0 or not finite, every row is
    degenerate.  Verdict counts and ratio extremes run as the rows go by
    (first value kept, replaced only on a strict < or >, as ``min``/``max``
    do).  A CycleRow is built only for rows that are reported: all of them
    when ``keep_all``, otherwise the violated and degenerate ones.  Config
    ids count from 0.
    """
    counts = dict.fromkeys((HOLDS, HOLDS_WITH_EQUALITY, VIOLATED, DEGENERATE), 0)
    lo = hi = None  # extreme ratios; (w_e, w_k) pairs in rational mode
    kept = []
    for config_id, config in enumerate(configs):
        n, mode = config.n, config.mode
        classify = _classify_k4 if n == 4 else _classify_k5
        if mode == RATIONAL:
            cols, den = integer_columns(config.points)
            w, unit = column_pair_weights(cols), den * den
        else:
            w = pair_weights(config.points)
        w_k = ordered_sum(w)
        w_es = [ordered_sum([w[e] for e in edges]) for edges in cycle_edges(n)]
        has_ratio = 0 < w_k < math.inf
        if has_ratio and mode == RATIONAL:
            # w_k > 0, so cross-multiplying compares the ratios
            e_lo, e_hi = min(w_es), max(w_es)
            lo = (e_lo, w_k) if lo is None or e_lo * lo[1] < lo[0] * w_k else lo
            hi = (e_hi, w_k) if hi is None or e_hi * hi[1] > hi[0] * w_k else hi
        elif has_ratio:
            # division by w_k > 0 is monotone: the extreme weights give the extreme ratios
            r_lo, r_hi = min(w_es) / w_k, max(w_es) / w_k
            lo = r_lo if lo is None or r_lo < lo else lo
            hi = r_hi if hi is None or r_hi > hi else hi
        for cycle, w_e in zip(enumerate_cycles(n), w_es):
            ratio, verdict = classify(w_e, w_k, tolerance, mode) if has_ratio else (None, DEGENERATE)
            counts[verdict] += 1
            if keep_all or verdict in (VIOLATED, DEGENERATE):
                weights = (w_e, w_k - w_e, w_k)
                if mode == RATIONAL:
                    ratio = Fraction(w_e, w_k) if has_ratio else None
                    weights = tuple(Fraction(v, unit) for v in weights)
                kept.append(CycleRow(config_id, cycle, *weights, ratio, verdict))
    if isinstance(lo, tuple):
        lo, hi = Fraction(*lo), Fraction(*hi)
    return kept, counts, lo, hi


def _aggregate(n, mode, tolerance, trials, kept, counts, min_ratio, max_ratio) -> BoundReport:
    return BoundReport(
        n, mode, tolerance, trials, sum(counts.values()), counts[VIOLATED],
        counts[DEGENERATE], counts[HOLDS_WITH_EQUALITY], min_ratio, max_ratio, tuple(kept),
    )


def _require_tolerance(tolerance):
    if not tolerance > 0:
        raise UsageError("tolerance must be positive")


def check_k4_bounds(config: Configuration, tolerance: float = REL_TOL_DERIVED) -> BoundReport:
    """Check every cycle of a 4-point configuration against the K4 bounds."""
    _require_tolerance(tolerance)
    if config.n != 4:
        raise UsageError("K4 bounds need exactly 4 points")
    return _aggregate(4, config.mode, tolerance, 1, *_check_rows((config,), tolerance, True))


def check_k5_bounds(config: Configuration, tolerance: float = REL_TOL_DERIVED) -> BoundReport:
    """Check every cycle of a 5-point configuration against the K5 bounds."""
    _require_tolerance(tolerance)
    if config.n != 5:
        raise UsageError("K5 bounds need exactly 5 points")
    return _aggregate(5, config.mode, tolerance, 1, *_check_rows((config,), tolerance, True))


def duality_check(config: Configuration, tolerance: float = 1e-12) -> DualityReport:
    """Verify ratio(E) + ratio(complement E) = 1 for all 12 cycles on 5 points.

    Also flags where each cycle sits against the two K5 bounds and
    checks the exchange symmetry: E attains the lower bound exactly
    when its complement attains the upper one.  The default tolerance
    is tight (1e-12) because each ratio is a handful of float ops.
    """
    _require_tolerance(tolerance)
    if config.n != 5:
        raise UsageError("duality needs exactly 5 points")
    w_k = total_weight(config)
    if not 0 < w_k < math.inf:
        raise DegenerateError("all points coincide, or the total weight overflows; no ratio")
    rows = []
    ok = True
    for cycle in enumerate_cycles(5):
        comp = complement_cycle(cycle)
        r_e = cycle_weight(config, cycle) / w_k
        r_d = cycle_weight(config, comp) / w_k
        residual = r_e + r_d - 1
        if config.mode == RATIONAL:
            # sqrt(5) is irrational, so no rational ratio attains a K5 bound
            lo_e = hi_e = False
            ok = ok and residual == 0
        else:
            lo_e, hi_e = _attains(r_e, tolerance)
            # bound exchange: E at the bottom iff its complement at the top
            ok = ok and abs(residual) <= tolerance and (hi_e, lo_e) == _attains(r_d, tolerance)
        rows.append(DualityRow(cycle, comp, r_e, r_d, residual, lo_e, hi_e))
    return DualityReport(config.mode, tolerance, HOLDS if ok else VIOLATED, tuple(rows))


def _attains(ratio, tolerance: float) -> tuple:
    """Whether a float ratio sits at the (lower, upper) K5 bound."""
    return abs(ratio - K5_LOWER) <= tolerance, abs(ratio - K5_UPPER) <= tolerance


def fuzz(
    seed: int,
    trials: int,
    n: int,
    dim: int = 2,
    tolerance: float = REL_TOL_DERIVED,
    mode: str = FLOAT,
) -> BoundReport:
    """Check the K4 or K5 bounds on ``trials`` random configurations.

    Trial i draws its configuration from the derived seed
    mix64(seed + i); any trial can be replayed alone with that seed.
    The report keeps only violated/degenerate rows.
    """
    _require_tolerance(tolerance)
    if trials < 1:
        raise UsageError("trials must be at least 1")
    if n not in (4, 5):
        raise UsageError("bound checks exist for n = 4 and n = 5 only")
    if mode not in MODES:
        raise UsageError(f"unknown scalar mode {mode!r}")
    configs = (
        random_config(mix64((seed + i) & MASK64), n, dim, mode) for i in range(trials)
    )
    return _aggregate(n, mode, tolerance, trials, *_check_rows(configs, tolerance, False))
