"""Midpoint iteration on five points.

Fix a Hamiltonian cycle E on a 5-point configuration and let D be its
complement cycle.  Arrange the points in D-cycle order; each iteration
step replaces them by the midpoints of consecutive pairs.  Writing d_n
and e_n for the D-type weight (consecutive pairs) and E-type weight
(pairs two apart) at level n, the step satisfies exact coupling laws

    (A)  4 d_{n+1} = e_n
    (B)  d_n + 4 e_{n+1} = 3 e_n

which combine into a two-term linear recurrence for e alone

    (C)  e_{n+2} = (12/16) e_{n+1} - (1/16) e_n.

Level 1 is the starting configuration, so d_1 is the weight of the
chosen cycle's complement D and e_1 the weight of E itself.  Law (B)
at one level is equivalent to summing the four-point relation over the
five quadruples of consecutive E-cycle vertices; see
:func:`quadruple_decomposition`.

Rational mode steps on int columns whose denominator doubles at each level,
so a midpoint is an int sum; d, e and the residuals stay ints until read.
"""

from __future__ import annotations

import operator
from collections import namedtuple

from .bounds import has_ratio
from .checks import relative_residual
from .cycles import Cycle, complement_cycle, cycle_sums, enumerate_cycles
from .errors import DegenerateError, UsageError
from .geometry import (
    RATIONAL, Configuration, Exact, Record, column_pair_weights, exact_points,
    exact_value, from_columns, ordered_sum,
)
from .quadrilateral import identity_terms


class IterationState(Record):
    """One level: five points in D-cycle order plus both weights.

    ``d`` sums consecutive pairs of ``points`` (the current D-type
    weight), ``e`` sums pairs two apart (the current E-type weight).
    ``mode`` is the configuration's scalar mode, which :func:`step` weighs in.
    ``points`` (as columns), ``d`` and ``e`` are held as ``columns`` over ``den``.
    """

    _fields = ("level", "points", "d", "e", "mode")
    points = Exact(exact_points)
    d = Exact()
    e = Exact()

    def __init__(self, level, points, d, e, mode, den=None):
        vars(self).update(level=level, points=points, d=d, e=e, mode=mode, den=den)


class Trace(namedtuple("Trace", "mode states res_a res_b res_c")):
    """States of levels 1..steps+1 and the residuals of laws (A), (B), (C).

    ``res_a[i]`` anchors law (A) at level i+1 (4 d_{i+2} - e_{i+1} in
    1-based level terms), likewise ``res_b``; ``res_c`` needs three
    consecutive levels so it has one entry fewer.
    """

    __slots__ = ()

    @property
    def levels(self) -> int:
        return len(self.states)

    def e_values(self) -> tuple:
        return tuple(s.e for s in self.states)

    def d_values(self) -> tuple:
        return tuple(s.d for s in self.states)

    def max_relative_residual(self) -> float:
        """Worst residual across all three law families, term-scaled; 0.0,
        with no term read, when every residual is 0."""
        if not any(self.res_a + self.res_b + self.res_c):
            return 0.0
        d = self.d_values()
        e = self.e_values()
        worst = 0.0
        for i, r in enumerate(self.res_a):
            worst = max(worst, float(relative_residual(r, 4 * d[i + 1], e[i])))
        for i, r in enumerate(self.res_b):
            worst = max(worst, float(relative_residual(r, d[i], 4 * e[i + 1], 3 * e[i])))
        for i, r in enumerate(self.res_c):
            worst = max(
                worst,
                float(relative_residual(r, e[i + 2], 0.75 * float(e[i + 1]), 0.0625 * float(e[i]))),
            )
        return worst


# kernel order on five points: 01 02 03 04 12 13 14 23 24 34
_D_PAIRS = operator.itemgetter(0, 4, 7, 9, 3)  # k and k + 1: 01 12 23 34 40
_E_PAIRS = operator.itemgetter(1, 5, 8, 2, 6)  # k and k + 2: 02 13 24 30 41


def init_state(config: Configuration, e_cycle: Cycle) -> IterationState:
    """Level-1 state for a configuration and a chosen E-cycle.

    Points are reordered along the complement cycle of ``e_cycle``, so
    consecutive entries realize D edges and entries two apart realize E
    edges.  A total weight that gives no ratio (``has_ratio``) is degenerate.
    """
    if config.n != 5:
        raise UsageError("midpoint iteration needs exactly 5 points")
    if e_cycle.n != 5:
        raise UsageError("cycle size does not match configuration")
    w = column_pair_weights(config.cols)
    w_k = ordered_sum(w)
    if not has_ratio(w_k):
        raise DegenerateError("the total weight is zero, subnormal or not finite")
    # E summed along its traversal, as cycle_weight sums it; D is the rest of K_5
    e = cycle_sums(w, 5)[enumerate_cycles(5).index(e_cycle)]
    order = operator.itemgetter(*complement_cycle(e_cycle).order)
    return IterationState(1, [order(c) for c in config.cols], w_k - e, e, config.mode, config.den)


def step(state: IterationState) -> IterationState:
    """Replace the five points by midpoints of consecutive pairs: (a + b) / 2
    in float mode, and in rational mode a + b over twice the denominator."""
    cols, den = vars(state)["points"], state.den
    if den is None:
        cols = [[(c[k] + c[k - 4]) / 2 for k in range(5)] for c in cols]
    else:
        cols, den = [[c[k] + c[k - 4] for k in range(5)] for c in cols], 2 * den
    w = column_pair_weights(cols)
    d, e = ordered_sum(_D_PAIRS(w)), ordered_sum(_E_PAIRS(w))
    return IterationState(state.level + 1, cols, d, e, state.mode, den)


def trace(config: Configuration, e_cycle: Cycle, steps: int) -> Trace:
    """Run ``steps`` iterations and record all residuals of laws (A)-(C)."""
    if not 1 <= steps <= 200:
        raise UsageError("steps must be between 1 and 200")
    states = [init_state(config, e_cycle)]
    for _ in range(steps):
        states.append(step(states[-1]))
    d, e, den = ([vars(s)[k] for s in states] for k in ("d", "e", "den"))
    # A rational level i holds ints over den_i**2, and den_{i+1} = 2 den_i.  Over den_i**2,
    # 4 d_{i+1} is the int d_{i+1}, and 16 times law (C) is e_{i+2} - 3 e_{i+1} + e_i, so
    # (C) itself is that int over den_{i+2}**2 = 16 den_i**2.
    k, c1, c2 = (1, 3, 1) if config.mode == RATIONAL else (4, 0.75, 0.0625)
    res_a = tuple(exact_value(k * d[i + 1] - e[i], den[i]) for i in range(steps))
    res_b = tuple(exact_value(d[i] + k * e[i + 1] - 3 * e[i], den[i]) for i in range(steps))
    res_c = tuple(exact_value(e[i + 2] - c1 * e[i + 1] + c2 * e[i], den[i + 2])
                  for i in range(steps - 1))
    return Trace(config.mode, tuple(states), res_a, res_b, res_c)


def quadruple_decomposition(config: Configuration, e_cycle: Cycle) -> tuple:
    """Four-point relation terms for the five consecutive E-cycle quadruples.

    Window i takes vertices (o_i, o_{i+1}, o_{i+2}, o_{i+3}) of the
    E-cycle order with pairing 0, so the window's 4-cycle runs along E
    edges and its diagonals are E edges two apart (i.e. D edges of the
    iteration).  Summing the five relations: each diagonal-midpoint
    term contributes a level-2 E edge, giving

        sum(4 r^2) = 4 e_2,   sum(l5 + l6) = 2 d_1,   sum(rhs) = 3 e_1 + d_1

    whose combination is exactly law (B) at level 1.
    """
    if config.n != 5:
        raise UsageError("the decomposition needs exactly 5 points")
    if e_cycle.n != 5:
        raise UsageError("cycle size does not match configuration")
    o = e_cycle.order * 2
    windows = (operator.itemgetter(*o[i:i + 4]) for i in range(5))
    return tuple(identity_terms(from_columns([w(c) for c in config.cols], config.den, config.mode))
                 for w in windows)
