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
as the diagonal pair.  Rational mode evaluates every term on ints and
reports it as a reduced Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import floordiv, itemgetter, truediv

from .checks import HOLDS, REL_TOL_DERIVED, VIOLATED, relative_residual
from .errors import UsageError
from .geometry import (
    FLOAT,
    RATIONAL,
    Configuration,
    Scalar,
    column_pair_weights,
    columns,
    exact,
    random_config,
)
from .prng import MASK64, mix64

# vertex order (A, B, C, D) realizing each pairing of the input points
_PAIRING_ORDERS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))


@dataclass(frozen=True)
class QuadLabeling:
    """Four points plus a pairing choice and a scalar mode."""

    points: tuple
    pairing: int = 0
    mode: str = FLOAT

    def __post_init__(self):
        if self.pairing not in (0, 1, 2):
            raise UsageError("pairing must be 0, 1, or 2")
        if len(self.points) != 4:
            raise UsageError("a quadrilateral labeling needs exactly 4 points")
        object.__setattr__(self, "points", Configuration(self.points, self.mode).points)

    def ordered(self) -> tuple:
        """Points as (A, B, C, D) for this pairing."""
        return tuple(self.points[i] for i in _PAIRING_ORDERS[self.pairing])


@dataclass(frozen=True)
class IdentityTerms:
    """All terms of the four-point relation for one labeling.

    ``l_sq`` is (l1..l6) squared weights; ``p_sq``/``q_sq`` are the
    squared Varignon parallelogram half-diagonals |L1L3|^2 and |L2L4|^2
    (L_k = midpoint of segment k); ``r_sq`` is |L5L6|^2.  ``residual``
    is lhs - rhs and is identically zero in exact arithmetic.
    """

    pairing: int
    l_sq: tuple
    p_sq: Scalar
    q_sq: Scalar
    r_sq: Scalar
    lhs: Scalar
    rhs: Scalar
    residual: Scalar


@dataclass(frozen=True)
class IdentityReport:
    verdict: str
    terms: IdentityTerms
    tolerance: float
    mode: str


@dataclass(frozen=True)
class IdentityFuzzReport:
    trials: int
    dim: int
    mode: str
    tolerance: float
    checks: int
    violations: int
    max_rel_residual: float


# The kernel weighs the pairs of A, B, C, D in the order AB, AC, AD, BC, BD,
# CD.  Segment k joins points _ENDS[0][k] and _ENDS[1][k] and has midpoint L_k,
# and the kernel weighs the pairs of L1..L6 in the order L1L2, L1L3, ..., L5L6.
_ENDS = (itemgetter(0, 1, 2, 3, 0, 1), itemgetter(1, 2, 3, 0, 2, 3))
_SEGMENTS = itemgetter(0, 3, 5, 2, 1, 4)  # l1..l6
_PQR = itemgetter(1, 6, 14)  # p^2 = L1L3, q^2 = L2L4, r^2 = L5L6
_MIDSEGMENTS = itemgetter(7, 3, 8, 4, 0, 2)  # L2L5, L1L5, L2L6, L1L6, L1L2, L1L4


def _weigh(quad: QuadLabeling) -> tuple:
    """``(l, m, den)`` from two kernel calls: l1..l6, and the pair weights of
    the midpoints L1..L6 in kernel order, in the number format of
    ``geometry.columns``, so that ``exact(terms, den)`` gives their values."""
    cols, den = columns(quad.ordered(), quad.mode)
    half = truediv
    if den is not None:
        # over twice the common denominator, every point and midpoint is an integer point
        cols, den, half = [[2 * x for x in c] for c in cols], 2 * den, floordiv
    ga, gb = _ENDS
    mids = [[half(x + y, 2) for x, y in zip(ga(c), gb(c))] for c in cols]
    return _SEGMENTS(column_pair_weights(cols)), column_pair_weights(mids), den


def identity_terms(quad: QuadLabeling) -> IdentityTerms:
    """Evaluate every term of the relation for one labeling."""
    l_sq, m, den = _weigh(quad)
    l1, l2, l3, l4, l5, l6 = l_sq
    p_sq, q_sq, r_sq = _PQR(m)
    rhs = l1 + l2 + l3 + l4
    lhs = 4 * r_sq + l5 + l6
    terms = exact((*l_sq, p_sq, q_sq, r_sq, lhs, rhs, lhs - rhs), den)
    return IdentityTerms(quad.pairing, terms[:6], *terms[6:])


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
    l_sq, m, den = _weigh(quad)
    return exact((4 * x - l for x, l in zip(_MIDSEGMENTS(m), l_sq)), den)


def verify_identity(quad: QuadLabeling, tolerance: float = REL_TOL_DERIVED) -> IdentityReport:
    """Check the relation for one labeling.

    Float mode holds when |residual| <= tolerance * (1 + |lhs| + |rhs|);
    rational mode demands an exact zero.
    """
    if not tolerance > 0:
        raise UsageError("tolerance must be positive")
    t = identity_terms(quad)
    if quad.mode == RATIONAL:
        ok = t.residual == 0
    else:
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
    reproducible and individual trials can be replayed in isolation.
    """
    if trials < 1:
        raise UsageError("trials must be at least 1")
    checks = violations = 0
    worst = 0.0
    for i in range(trials):
        config = random_config(mix64((seed + i) & MASK64), 4, dim, mode)
        for pairing in (0, 1, 2):
            report = verify_identity(QuadLabeling(config.points, pairing, mode), tolerance)
            t = report.terms
            checks += 1
            rel = float(relative_residual(t.residual, t.lhs, t.rhs))
            if rel > worst:
                worst = rel
            if report.verdict == VIOLATED:
                violations += 1
    return IdentityFuzzReport(trials, dim, mode, tolerance, checks, violations, worst)
