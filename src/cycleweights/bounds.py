"""Cycle-weight bounds on n points: the spectral interval.

Centered, w(K_n) = n sum |p_i|^2, so w(E)/w(K_n) is a Rayleigh quotient of
the cycle Laplacian over n, and for every n and dimension (Brouwer &
Haemers, Spectra of Graphs, 2012)

    (2 - 2cos(2 pi/n))/n  <=  w(E)/w(K_n)  <=  (2 - 2cos(2 pi floor(n/2)/n))/n.

The regular n-gon attains the lower end, its star polygon the upper one for
odd n.  For even n the upper end 4/n needs alternate points to coincide, so
reaching it is degenerate.  n = 4 gives 1/2 <= ratio < 1 and n = 5
(5 -+ sqrt 5)/10, where a cycle's complement is a cycle of ratio 1 - its own.

The ends are roots of P = T_{n+1}(y) - y T_n(y), y = 1 - n lam/2, which is
-sin t sin nt at y = cos t: its roots lam_j = (2 - 2cos(j pi/n))/n, j = 0..n,
are simple, and the ends are lam_2 and lam_{2 floor(n/2)}.  Float midpoints
isolate the roots, checked exactly (Collins & Akritas, SYMSAC 1976).  Each end's
bracket, 4 ulps around its float root and checked to hold it, is bisected
until both its ends round to one float, the end correctly rounded.  ``_side``
compares w(E) with one end: in float mode with end * w(K_n) within tolerance *
w(K_n), in rational mode exactly on int weights over the common denominator, by
one cross-multiplication outside the end's bracket and the sign of P inside it.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .checks import (
    DEGENERATE,
    HOLDS,
    HOLDS_WITH_EQUALITY,
    REL_TOL_DERIVED,
    REL_TOL_DIRECT,
    VIOLATED,
)
from .cycles import complement_cycle, cycle_sums, enumerate_cycles
from .errors import DegenerateError, UsageError
from .geometry import (
    Configuration, FLOAT, RATIONAL, column_pair_weights, exact, ordered_sum, random_columns,
)
# not called here: the benchmark's tracer hooks this name on this module
from .geometry import random_config  # noqa: F401
from .prng import MASK64, mix64


class CycleRow(namedtuple(
    "CycleRow", "config_id cycle w_cycle w_complement w_total ratio verdict",
)):
    """One checked cycle: weights, ratio (None when the total weight is zero),
    and its verdict."""

    __slots__ = ()


class BoundReport(namedtuple(
    "BoundReport",
    "n mode tolerance trials checks violations degenerate equalities min_ratio max_ratio rows",
)):
    """Aggregate over all checked cycles of one or many configurations.

    ``rows`` carries every row for single-configuration checks but only
    the interesting (violated/degenerate) rows under fuzzing.
    """

    __slots__ = ()


class DualityRow(namedtuple(
    "DualityRow",
    "cycle complement ratio complement_ratio residual lower_attained upper_attained",
)):
    """One cycle and its complement; ``residual`` is ratio + complement_ratio - 1."""

    __slots__ = ()


class DualityReport(namedtuple("DualityReport", "mode tolerance verdict rows")):
    """The duality verdict over the 12 cycles on 5 points, one row each."""

    __slots__ = ()


def _sign(poly, n: int, p, q) -> int:
    """Sign of P at lam = p/q, q > 0: P's homogenized form at y = (2q - np)/(2q)."""
    y, z = 2 * q - n * p, 2 * q
    h, zk = poly[-1], z
    for c in reversed(poly[:-1]):
        h, zk = h * y + c * zk, zk * z
    return (h > 0) - (h < 0)


@lru_cache(maxsize=None)
def _spectrum(n: int) -> tuple:
    """(lo, hi, n, P, lower end, upper end), built on first use for each n.

    P holds the coefficients of P(y), constant first.  An end is (a, b, q,
    sign of P at a/q), ints for a bracket a/q < lam <= b/q holding no other
    root, q a power of two.
    """
    if not 3 <= n <= 10:
        raise UsageError("bound checks exist for n = 3 to 10")
    prev, cur = [1], [0, 1]  # T_0, T_1
    for _ in range(n):
        prev, cur = cur, [2 * c - d for c, d in zip([0] + cur, prev + [0, 0])]
    poly = tuple(c - d for c, d in zip(cur, [0] + prev))
    roots = [(2 - 2 * math.cos(j * math.pi / n)) / n for j in range(n + 1)]
    seps = [-1.0, *((a + b) / 2 for a, b in zip(roots, roots[1:])), 2.0]
    signs = [_sign(poly, n, *s.as_integer_ratio()) for s in seps]
    if any(a * b >= 0 for a, b in zip(signs, signs[1:])):
        raise ArithmeticError(f"float separators do not isolate the roots for n = {n}")
    ends = []
    for j in (2, 2 * (n // 2)):
        # lam_j is the only root in (seps[j], seps[j + 1]).  q = 1 / ulp of its float r, a power
        # of two, makes r * q an int; (r * q -+ 4) / q, checked to hold lam_j, is bisected on ints
        # over a doubling q: the int quotient a / q is correctly rounded.
        s, q = signs[j], int(1 / math.ulp(roots[j]))
        a, b = int(roots[j] * q) - 4, int(roots[j] * q) + 4
        if not (seps[j] * q < a and b < seps[j + 1] * q
                and _sign(poly, n, a, q) == s != _sign(poly, n, b, q)):
            raise ArithmeticError(f"4 ulps around the float do not bracket lam_{j} for n = {n}")
        while a / q != b / q:
            m, q = a + b, 2 * q
            a, b = (m, 2 * b) if _sign(poly, n, m, q) == s else (2 * a, m)
        ends.append((a, b, q, s))
    lo, hi = (a / q for a, _, q, _ in ends)
    return lo, hi, n, poly, *ends


def has_ratio(w_k) -> bool:
    """Whether w(K_n) gives a ratio: a positive int or Fraction, or a normal finite float.
    A subnormal float has lost the bits a float verdict rests on, as 0 and inf have."""
    return sys.float_info.min <= w_k < math.inf if isinstance(w_k, float) else w_k > 0


def spectral_interval(n: int) -> tuple:
    """(lo, hi), the range of w(E)/w(K_n) for n = 3..10, each end correctly rounded."""
    return _spectrum(n)[:2]


def _side(spec, j: int, w_e, w_k, tolerance: float, mode: str) -> int:
    """-1, 0 or 1 as w_e / w_k (w_k > 0) lies below, at or above end j (0 the lower,
    1 the upper): w_e - end * w_k against tolerance * w_k in float mode, exact in rational."""
    if mode != RATIONAL:
        d = w_e - spec[j] * w_k
        return 0 if abs(d) <= tolerance * w_k else (1 if d > 0 else -1)
    a, b, q, sign_a = spec[4 + j]
    if w_e * q <= a * w_k:
        return -1
    if w_e * q > b * w_k:
        return 1
    # P keeps sign_a from a up to its one root in the bracket, then flips
    return -sign_a * _sign(spec[3], spec[2], w_e, w_k)


def at_end(w_e, w_k, n: int, j: int, tolerance: float) -> bool:
    """Whether the float w_e / w_k is at end j (0 lower, 1 upper) of n's interval, by ``_side``."""
    return _side(_spectrum(n), j, w_e, w_k, tolerance, FLOAT) == 0


def _classify(spec, w_e, w_k, tolerance: float, mode: str):
    """``classify``, given the configuration's ``_spectrum``."""
    if not has_ratio(w_k):
        return None, DEGENERATE
    below, above = (_side(spec, j, w_e, w_k, tolerance, mode) for j in (0, 1))
    ratio = None if mode == RATIONAL else w_e / w_k
    if below < 0 or above > 0:
        return ratio, VIOLATED
    if above == 0 and spec[2] % 2 == 0:
        return ratio, DEGENERATE
    return ratio, (HOLDS_WITH_EQUALITY if below == 0 or above == 0 else HOLDS)


def classify(w_e, w_k, n: int, tolerance: float, mode: str):
    """(ratio, verdict) of one cycle on n points; rational mode is exact and
    leaves the ratio None.  For even n the upper end is degenerate."""
    return _classify(_spectrum(n), w_e, w_k, tolerance, mode)


def _screen(spec, r_min, r_max, w_es, w_k, tolerance: float, mode: str) -> tuple:
    """The running extreme ratios after a configuration with cycle weights
    ``w_es`` (first kept, replaced only on a strict < or >, as ``min``/``max``
    do), and the verdict of all its rows if the report only counts it, else
    None.  ``_side`` is monotone in w_e: if the lightest cycle lies above the
    lower end and the heaviest below the upper one, every row holds."""
    if not has_ratio(w_k):
        return r_min, r_max, None
    e_min, e_max = min(w_es), max(w_es)
    if mode == RATIONAL:
        # cross-multiplying compares the ratios; a Fraction is built per new extreme
        if r_min is None or e_min * r_min.denominator < r_min.numerator * w_k:
            r_min = Fraction(e_min, w_k)
        if r_max is None or e_max * r_max.denominator > r_max.numerator * w_k:
            r_max = Fraction(e_max, w_k)
    else:
        # division by w_k > 0 is monotone: the extreme weights give the extreme ratios
        lo_r, hi_r = e_min / w_k, e_max / w_k
        r_min = lo_r if r_min is None or lo_r < r_min else r_min
        r_max = hi_r if r_max is None or hi_r > r_max else r_max
    clear = (_side(spec, 0, e_min, w_k, tolerance, mode) > 0
             and _side(spec, 1, e_max, w_k, tolerance, mode) < 0)
    return r_min, r_max, HOLDS if clear else None


def _check_rows(n: int, mode: str, weighed, tolerance: float, keep_all: bool):
    """Classify every cycle of a stream of weighed configurations of n points.

    ``weighed`` yields ``(config_id, w_es, w_k, den)``: a configuration's cycle
    weights in ``cycle_sums`` order and w(K_n), floats (den None) or ints over
    den**2 (``geometry.columns``) that ``exact`` and ``Fraction`` reduce, so any
    common den gives the same rows.  If w(K_n) gives no ratio (``has_ratio``),
    every row is degenerate.  ``_screen`` gives the ratio extremes, and counts the
    rows of a configuration it settles unless ``keep_all``; the others are
    classified row by row.  Only reported rows become CycleRows: all when
    ``keep_all``, else the violated and degenerate ones.  ``_spectrum`` refuses
    an n outside 3..10 before ``weighed`` is read.
    """
    spec = _spectrum(n)
    counts = dict.fromkeys((HOLDS, HOLDS_WITH_EQUALITY, VIOLATED, DEGENERATE), 0)
    r_min = r_max = None
    kept = []
    for config_id, w_es, w_k, den in weighed:
        r_min, r_max, verdict = _screen(spec, r_min, r_max, w_es, w_k, tolerance, mode)
        if verdict is not None and not keep_all:
            counts[verdict] += len(w_es)
            continue
        for cycle, w_e in zip(enumerate_cycles(n), w_es):
            ratio, verdict = _classify(spec, w_e, w_k, tolerance, mode)
            counts[verdict] += 1
            if keep_all or verdict in (VIOLATED, DEGENERATE):
                if mode == RATIONAL and has_ratio(w_k):
                    ratio = Fraction(w_e, w_k)
                weights = exact((w_e, w_k - w_e, w_k), den)
                kept.append(CycleRow(config_id, cycle, *weights, ratio, verdict))
    return kept, counts, r_min, r_max


def _aggregate(n, mode, tolerance, trials, kept, counts, min_ratio, max_ratio) -> BoundReport:
    return BoundReport(
        n, mode, tolerance, trials, sum(counts.values()), counts[VIOLATED],
        counts[DEGENERATE], counts[HOLDS_WITH_EQUALITY], min_ratio, max_ratio, tuple(kept),
    )


def _require_tolerance(tolerance):
    if not tolerance > 0:
        raise UsageError("tolerance must be positive")


def check_bounds(config: Configuration, tolerance: float = REL_TOL_DERIVED) -> BoundReport:
    """Check every cycle of one configuration against the spectral interval."""
    _require_tolerance(tolerance)
    n, mode = config.n, config.mode
    w = column_pair_weights(config.cols)
    weighed = ((0, cycle_sums(w, n), ordered_sum(w), config.den),)
    return _aggregate(n, mode, tolerance, 1, *_check_rows(n, mode, weighed, tolerance, True))


def check_k4_bounds(config: Configuration, tolerance: float = REL_TOL_DERIVED) -> BoundReport:
    """``check_bounds`` on exactly 4 points."""
    if config.n != 4:
        raise UsageError("K4 bounds need exactly 4 points")
    return check_bounds(config, tolerance)


def check_k5_bounds(config: Configuration, tolerance: float = REL_TOL_DERIVED) -> BoundReport:
    """``check_bounds`` on exactly 5 points."""
    if config.n != 5:
        raise UsageError("K5 bounds need exactly 5 points")
    return check_bounds(config, tolerance)


def duality_check(config: Configuration, tolerance: float = REL_TOL_DIRECT) -> DualityReport:
    """Verify ratio(E) + ratio(complement E) = 1 for all 12 cycles on 5 points.

    Also flags where each cycle sits against the two ends of the interval
    and checks the exchange symmetry: E attains the lower end exactly
    when its complement attains the upper one.  The default tolerance
    is tight (``REL_TOL_DIRECT``) because each ratio is a handful of float ops.
    """
    _require_tolerance(tolerance)
    if config.n != 5:
        raise UsageError("duality needs exactly 5 points")
    w = column_pair_weights(config.cols)
    w_k = ordered_sum(w)
    if not has_ratio(w_k):
        raise DegenerateError("the total weight is zero, subnormal or not finite")
    spec, mode = _spectrum(5), config.mode
    cycles = enumerate_cycles(5)
    w_es = cycle_sums(w, 5)
    rows = []
    ok = True
    for cycle, w_e in zip(cycles, w_es):
        comp = complement_cycle(cycle)
        w_d = w_es[cycles.index(comp)]
        # rational mode: both ends are irrational, so no ratio attains one
        lo_e, hi_e, lo_d, hi_d = (_side(spec, j, v, w_k, tolerance, mode) == 0
                                  for v in (w_e, w_d) for j in (0, 1))
        if mode == RATIONAL:
            r_e, r_d, residual = (Fraction(v, w_k) for v in (w_e, w_d, w_e + w_d - w_k))
            ok = ok and residual == 0
        else:
            r_e, r_d = w_e / w_k, w_d / w_k
            residual = r_e + r_d - 1
            # bound exchange: E at the bottom iff its complement at the top
            ok = ok and abs(residual) <= tolerance and (hi_e, lo_e) == (lo_d, hi_d)
        rows.append(DualityRow(cycle, comp, r_e, r_d, residual, lo_e, hi_e))
    return DualityReport(mode, tolerance, HOLDS if ok else VIOLATED, tuple(rows))


# Cycle sums per pass of the fuzz screen: a chunk is max(1, 1024 // cycle
# count) trials, 85 at n = 5 and 1 from n = 8 up.
_SCREEN_SUMS = 1024


def fuzz(
    seed: int,
    trials: int,
    n: int,
    dim: int = 2,
    tolerance: float = REL_TOL_DERIVED,
    mode: str = FLOAT,
) -> BoundReport:
    """Check the spectral interval on ``trials`` random configurations of n points.

    Trial i draws its configuration from the derived seed
    mix64(seed + i); any trial can be replayed alone with that seed.
    The report keeps only violated/degenerate rows.  An unsupported n,
    dim or mode raises UsageError before any trial is drawn.  A chunk of
    trials is drawn and weighed one stage at a time; ``_check_rows`` classifies
    each trial from its chunk's weights, into the rows ``check_bounds`` gives it.
    """
    _require_tolerance(tolerance)
    if trials < 1:
        raise UsageError("trials must be at least 1")

    def weighed():
        # first run after _check_rows has refused an n over 10: the factorial stays small
        pairs, cycles = n * (n - 1) // 2, math.factorial(n - 1) // 2
        chunk = max(1, _SCREEN_SUMS // cycles)
        for start in range(0, trials, chunk):
            seeds = [mix64((seed + i) & MASK64) for i in range(start, min(start + chunk, trials))]
            cols, den = random_columns(seeds, n, dim, mode)
            w = column_pair_weights(cols, len(seeds))
            es = cycle_sums(w, n, len(seeds))
            for k in range(len(seeds)):
                w_k = ordered_sum(w[k * pairs:(k + 1) * pairs])
                yield start + k, es[k * cycles:(k + 1) * cycles], w_k, den

    rows = _check_rows(n, mode, weighed(), tolerance, False)
    return _aggregate(n, mode, tolerance, trials, *rows)
