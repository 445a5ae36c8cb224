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
from fractions import Fraction

from .checks import HOLDS, REL_TOL_DERIVED, VIOLATED, relative_residual
from .errors import UsageError
from .geometry import (
    FLOAT,
    MODES,
    RATIONAL,
    Scalar,
    _coerce_point,
    integer_columns,
    midpoint,
    random_config,
    squared_distance,
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
        if self.mode not in MODES:
            raise UsageError(f"unknown scalar mode {self.mode!r}")
        if self.pairing not in (0, 1, 2):
            raise UsageError("pairing must be 0, 1, or 2")
        if len(self.points) != 4:
            raise UsageError("a quadrilateral labeling needs exactly 4 points")
        pts = tuple(_coerce_point(p, self.mode) for p in self.points)
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise UsageError("all points must share one dimension")
        if dims.pop() not in (2, 3):
            raise UsageError("dimension must be 2 or 3")
        object.__setattr__(self, "points", pts)

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


def identity_terms(quad: QuadLabeling) -> IdentityTerms:
    """Evaluate every term of the relation for one labeling."""
    a, b, c, d = quad.ordered()
    mid = midpoint
    if quad.mode == RATIONAL:
        # over twice the common denominator, every point and midpoint is an integer point
        cols, den = integer_columns((a, b, c, d))
        a, b, c, d = zip(*([2 * x for x in col] for col in cols))
        mid = lambda p, q: tuple((x + y) >> 1 for x, y in zip(p, q))  # noqa: E731
    l1 = squared_distance(a, b)
    l2 = squared_distance(b, c)
    l3 = squared_distance(c, d)
    l4 = squared_distance(d, a)
    l5 = squared_distance(a, c)
    l6 = squared_distance(b, d)
    m1, m3 = mid(a, b), mid(c, d)
    m2, m4 = mid(b, c), mid(d, a)
    m5, m6 = mid(a, c), mid(b, d)
    p_sq = squared_distance(m1, m3)
    q_sq = squared_distance(m2, m4)
    r_sq = squared_distance(m5, m6)
    rhs = l1 + l2 + l3 + l4
    lhs = 4 * r_sq + l5 + l6
    terms = (l1, l2, l3, l4, l5, l6, p_sq, q_sq, r_sq, lhs, rhs, lhs - rhs)
    if quad.mode == RATIONAL:
        terms = tuple(Fraction(t, 4 * den * den) for t in terms)
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
    l1, l2, l3, l4, l5, l6 = identity_terms(quad).l_sq
    a, b, c, d = quad.ordered()
    m1, m2 = midpoint(a, b), midpoint(b, c)
    m4 = midpoint(d, a)
    m5, m6 = midpoint(a, c), midpoint(b, d)
    return (
        4 * squared_distance(m2, m5) - l1,
        4 * squared_distance(m1, m5) - l2,
        4 * squared_distance(m2, m6) - l3,
        4 * squared_distance(m1, m6) - l4,
        4 * squared_distance(m1, m2) - l5,
        4 * squared_distance(m1, m4) - l6,
    )


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
