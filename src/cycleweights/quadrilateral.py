"""Euler's four-point relation and its midpoint corollaries.

For four points A, B, C, D (any shape: convex, concave, self-crossing,
or a tetrahedron in 3-space) label the six segment weights

    l1 = |AB|^2   l2 = |BC|^2   l3 = |CD|^2   l4 = |DA|^2   (the 4-cycle)
    l5 = |AC|^2   l6 = |BD|^2                               (the diagonals)

and let r be the distance between the midpoints of AC and BD.  Then

    4 r^2 + l5 + l6 = l1 + l2 + l3 + l4

exactly.  Joining the four side midpoints always yields a parallelogram
(Varignon), which gives three equivalent half-sum relations and six
midsegment relations of the form  4 |midpoint-midpoint|^2 = l_k.

Which pair of the six segments plays the "diagonal" role is a labeling
choice, not geometry: a 4-point set admits three pairings, indexed
0, 1, 2.  Pairing 0 is the natural order given; 1 and 2 swap one point
so each of the three perfect matchings of {A, B, C, D} takes its turn
as the diagonal pair.  Rational mode evaluates every term on ints over twice
the common denominator, and a term stays an int until it is read.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import floordiv, itemgetter, truediv

from .checks import HOLDS, REL_TOL_DERIVED, VIOLATED, relative_residual
from .errors import DegenerateError, UsageError
from .geometry import (
    FLOAT,
    RATIONAL,
    Configuration,
    Exact,
    Record,
    column_pair_weights,
    columns,
    exact,
    random_config,
)
from .prng import MASK64, mix64

# vertex order (A, B, C, D) realizing each pairing of the input points
_ORDERS = tuple(itemgetter(*order) for order in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)))


def _columns(points, mode: str) -> tuple:
    """``columns`` of the points, in rational mode over twice the common
    denominator, so that every midpoint is an integer point."""
    cols, den = columns(points, mode)
    return (cols, den) if den is None else ([[2 * x for x in c] for c in cols], 2 * den)


class QuadLabeling(Record):
    """Four points plus a pairing choice and a scalar mode; ``cols`` and
    ``den``, not fields, hold :func:`_columns` of the points."""

    _fields = ("points", "pairing", "mode")

    def __init__(self, points, pairing: int = 0, mode: str = FLOAT):
        if pairing not in (0, 1, 2):
            raise UsageError("pairing must be 0, 1, or 2")
        if len(points) != 4:
            raise UsageError("a quadrilateral labeling needs exactly 4 points")
        points = Configuration(points, mode).points
        cols, den = _columns(points, mode)
        vars(self).update(points=points, pairing=pairing, mode=mode, cols=cols, den=den)

    def ordered(self) -> tuple:
        """Points as (A, B, C, D) for this pairing."""
        return _ORDERS[self.pairing](self.points)


class IdentityTerms(Record):
    """All terms of the four-point relation for one labeling.

    ``l_sq`` is (l1..l6) squared weights; ``p_sq``/``q_sq`` are the
    squared Varignon parallelogram half-diagonals |L1L3|^2 and |L2L4|^2
    (L_k = midpoint of segment k); ``r_sq`` is |L5L6|^2.  ``residual``
    is lhs - rhs and is identically zero in exact arithmetic.  Each term is
    held in the number format of ``columns`` over ``den`` and read exactly.
    """

    _fields = ("pairing", "l_sq", "p_sq", "q_sq", "r_sq", "lhs", "rhs", "residual")
    l_sq = Exact(exact)
    p_sq = Exact()
    q_sq = Exact()
    r_sq = Exact()
    lhs = Exact()
    rhs = Exact()
    residual = Exact()

    def __init__(self, pairing, l_sq, p_sq, q_sq, r_sq, lhs, rhs, residual, den=None):
        vars(self).update(pairing=pairing, l_sq=l_sq, p_sq=p_sq, q_sq=q_sq, r_sq=r_sq,
                          lhs=lhs, rhs=rhs, residual=residual, den=den)


class IdentityReport(namedtuple("IdentityReport", "verdict terms tolerance mode")):
    """The verdict of one labeling's relation and the terms it was decided on."""

    __slots__ = ()


class IdentityFuzzReport(namedtuple(
    "IdentityFuzzReport", "trials dim mode tolerance checks violations max_rel_residual",
)):
    """The relation checked on every pairing of ``trials`` random 4-point sets."""

    __slots__ = ()


# Segment k of A, B, C, D joins points _ENDS[0][k] and _ENDS[1][k] and has
# midpoint L_k.  The kernel weighs the gathered points two by two.
_ENDS = (itemgetter(0, 1, 2, 3, 0, 1), itemgetter(1, 2, 3, 0, 2, 3))
_SEGMENTS = itemgetter(0, 1, 1, 2, 2, 3, 0, 3, 0, 2, 1, 3)  # l1..l6: AB BC CD DA AC BD
_PQR = itemgetter(0, 2, 1, 3, 4, 5)  # p^2 = L1L3, q^2 = L2L4, r^2 = L5L6
_MIDSEGMENTS = itemgetter(1, 4, 0, 4, 1, 5, 0, 5, 0, 1, 0, 3)  # L2L5 L1L5 L2L6 L1L6 L1L2 L1L4


def _weigh(quad: QuadLabeling, pairs) -> tuple:
    """``(l, m)`` from one kernel call: l1..l6, and the weights of the midpoint
    pairs that ``pairs`` gathers from L1..L6, in the number format of ``quad.den``."""
    (ga, gb), half = _ENDS, truediv if quad.den is None else floordiv
    cols = [[*_SEGMENTS(c), *pairs([half(x + y, 2) for x, y in zip(ga(c), gb(c))])]
            for c in map(_ORDERS[quad.pairing], quad.cols)]
    w = column_pair_weights(cols, len(cols[0]) // 2)
    return tuple(w[:6]), w[6:]


def identity_terms(quad: QuadLabeling) -> IdentityTerms:
    """Evaluate every term of the relation for one labeling, on ints in rational mode."""
    l_sq, (p_sq, q_sq, r_sq) = _weigh(quad, _PQR)
    l1, l2, l3, l4, l5, l6 = l_sq
    rhs = l1 + l2 + l3 + l4
    lhs = 4 * r_sq + l5 + l6
    return IdentityTerms(quad.pairing, l_sq, p_sq, q_sq, r_sq, lhs, rhs, lhs - rhs, quad.den)


def midpoint_parallelogram_relations(quad: QuadLabeling) -> tuple:
    """Residuals of the three Varignon half-sum relations.

    With p^2 = |L1L3|^2, q^2 = |L2L4|^2, r^2 = |L5L6|^2:

        (l5 + l6)/2 = p^2 + q^2
        (l1 + l3)/2 = q^2 + r^2
        (l2 + l4)/2 = p^2 + r^2

    Returns the three lhs - rhs residuals in that order.
    """
    t = identity_terms(quad)
    l1, l2, l3, l4, l5, l6 = t.l_sq
    return (
        (l5 + l6) / 2 - (t.p_sq + t.q_sq),
        (l1 + l3) / 2 - (t.q_sq + t.r_sq),
        (l2 + l4) / 2 - (t.p_sq + t.r_sq),
    )


def midsegment_relations(quad: QuadLabeling) -> tuple:
    """Residuals 4|LiLj|^2 - l_k for the six midsegment equalities.

    Each segment's weight equals four times the squared distance
    between the midpoints of two of the other segments:

        l1: L2L5    l2: L1L5    l3: L2L6    l4: L1L6    l5: L1L2    l6: L1L4

    (each has a mirror twin, e.g. |L2L5| = |L4L6|; the twins are
    equal by the parallelogram structure, so one residual per segment
    suffices).
    """
    l_sq, m = _weigh(quad, _MIDSEGMENTS)
    return exact((4 * x - l for x, l in zip(m, l_sq)), quad.den)


def verify_identity(quad: QuadLabeling, tolerance: float = REL_TOL_DERIVED) -> IdentityReport:
    """Check the relation for one labeling.

    Float mode holds when |residual| <= tolerance * (1 + |lhs| + |rhs|), and
    an lhs or rhs that overflows is degenerate; rational mode demands an
    exact zero.
    """
    if not tolerance > 0:
        raise UsageError("tolerance must be positive")
    t = identity_terms(quad)
    if quad.mode == RATIONAL:
        ok = vars(t)["residual"] == 0  # the int as held: no Fraction is built
    else:
        if not (math.isfinite(t.lhs) and math.isfinite(t.rhs)):
            raise DegenerateError("squared distances overflow; the relation has no finite sides")
        ok = abs(t.residual) <= tolerance * (1 + abs(t.lhs) + abs(t.rhs))
    return IdentityReport(HOLDS if ok else VIOLATED, t, tolerance, quad.mode)


def fuzz_identity(
    seed: int,
    trials: int,
    dim: int = 2,
    mode: str = FLOAT,
    tolerance: float = REL_TOL_DERIVED,
) -> IdentityFuzzReport:
    """Check all three pairings on ``trials`` random 4-point sets.

    Trial i uses the derived seed mix64(seed + i), so reports are fully
    reproducible and individual trials can be replayed in isolation.  A trial's
    labelings share its columns, and no term is read for a zero residual.
    """
    if trials < 1:
        raise UsageError("trials must be at least 1")
    checks = violations = 0
    worst = 0.0
    for i in range(trials):
        config = random_config(mix64((seed + i) & MASK64), 4, dim, mode)
        cols, den = _columns(config.points, mode)
        for pairing in (0, 1, 2):
            # the draw needs no coercion or checks: set the fields, skip __init__
            quad = object.__new__(QuadLabeling)
            quad.__dict__.update(points=config.points, pairing=pairing, mode=mode,
                                 cols=cols, den=den)
            report = verify_identity(quad, tolerance)
            t = report.terms
            checks += 1
            if vars(t)["residual"]:
                rel = float(relative_residual(t.residual, t.lhs, t.rhs))
                if rel > worst:
                    worst = rel
            if report.verdict == VIOLATED:
                violations += 1
    return IdentityFuzzReport(trials, dim, mode, tolerance, checks, violations, worst)
