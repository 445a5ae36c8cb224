"""The rational sequence governing the midpoint iteration, exactly.

    a_0 = 0,  a_1 = 1,  a_{n+2} = (12/16) a_{n+1} - (1/16) a_n

The table holds the ints y_n = a_n 8^(n-1), y_{n+2} = 6 y_{n+1} - 4 y_n, and
builds a Fraction only for a term, ratio or bound that is read.  As
y_{n+1}^2 - y_{n+2} y_n = 4^n, the odd parts of consecutive y_n are coprime,
so each term, ratio and bound reduces by a shift, with no gcd.  The
sequence's qualitative facts (positivity, monotone decay, ratio bounds)
involve comparisons against the irrational (3 + sqrt(5))/8, which exact
arithmetic settles by squaring, as int comparisons on y_n — no tolerance
enters a verdict.

The same coefficients have the closed form a_n = y_n / 8^(n-1) where
(3 + sqrt(5))^n = x_n + y_n sqrt(5) with integer x_n, y_n; it is
computed here by binary powering in Z[sqrt(5)] and serves as an
algorithm-independent cross-check on the recurrence.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .checks import HOLDS, VIOLATED
from .errors import UsageError
from .geometry import Record

RATIO_LIMIT = (3 + math.sqrt(5)) / 8  # limit of a_{n+1}/a_n
BOUND_LIMIT = (3 + math.sqrt(5)) / 2  # limit of B(n) = 3 - a_{n-1}/(4 a_n)


def _lowest(p: int, q: int) -> tuple:
    """p/q (q > 0) as ints in lowest terms, when the odd parts of p and q are
    coprime: both shifted right by the trailing zero bits of x = p | q, the
    lesser count of p's and q's, ``(x & -x).bit_length() - 1``."""
    x = p | q
    s = (x & -x).bit_length() - 1
    return p >> s, q >> s


class SequenceTable(Record):
    """Terms a_0..a_N with consecutive ratios and bound values B(n), held as
    the tuple ``y`` of ints y_0..y_N and read as tuples of Fractions.

    ``ratios[k]`` is a_{k+2}/a_{k+1} (defined from a_1 on);
    ``bound_values[k]`` is B(k+2) = 3 - a_{k+1}/(4 a_{k+2}).  Use the
    accessors to avoid the offsets and to build one Fraction; the ``_pair``
    ones give it as ints ``(p, q)``, in lowest terms for the recurrence's y_n.
    """

    _fields = ("terms", "ratios", "bound_values")
    terms = property(lambda self: tuple(map(self.term, range(self.n_max + 1))))
    ratios = property(lambda self: tuple(map(self.ratio, range(1, self.n_max))))
    bound_values = property(lambda self: tuple(map(self.bound, range(2, self.n_max + 1))))

    def __init__(self, y):
        vars(self).update(y=tuple(y))

    @property
    def n_max(self) -> int:
        return len(self.y) - 1

    def term_pair(self, n: int) -> tuple:
        """a_n = 8 y_n / 8^n for n >= 0."""
        if n < 0:
            raise UsageError("a term is defined for n >= 0")
        return _lowest(8 * self.y[n], 1 << 3 * n)

    def ratio_pair(self, n: int) -> tuple:
        """a_{n+1}/a_n = y_{n+1} / (8 y_n) for n >= 1."""
        if n < 1:
            raise UsageError("ratio is defined for n >= 1")
        return _lowest(self.y[n + 1], 8 * self.y[n])

    def bound_pair(self, n: int) -> tuple:
        """B(n) = 3 - a_{n-1}/(4 a_n) = (3 y_n - 2 y_{n-1}) / y_n for n >= 2."""
        if n < 2:
            raise UsageError("the bound expression needs n >= 2")
        return _lowest(3 * self.y[n] - 2 * self.y[n - 1], self.y[n])

    def term(self, n: int) -> Fraction:
        return Fraction(*self.term_pair(n))

    def ratio(self, n: int) -> Fraction:
        return Fraction(*self.ratio_pair(n))

    def bound(self, n: int) -> Fraction:
        return Fraction(*self.bound_pair(n))


def sequence_table(n_max: int) -> SequenceTable:
    """Exact table of a_0..a_{n_max} (n_max >= 2)."""
    if n_max < 2:
        raise UsageError("n_max must be at least 2")
    y = [0, 1]
    while len(y) <= n_max:
        y.append(6 * y[-1] - 4 * y[-2])
    return SequenceTable(y)


def closed_form_term(n: int) -> Fraction:
    """a_n via the Z[sqrt(5)] closed form; independent of the recurrence.

    With (3 + sqrt(5))^n = x + y sqrt(5), a_n = y / 8^(n-1).
    """
    if n < 0:
        raise UsageError("n must be nonnegative")
    if n == 0:
        return Fraction(0)
    # binary powering of (3 + 1*sqrt(5)) in Z[sqrt(5)]
    bx, by = 3, 1
    x, y = 1, 0
    k = n
    while k:
        if k & 1:
            x, y = x * bx + 5 * y * by, x * by + y * bx
        bx, by = bx * bx + 5 * by * by, 2 * bx * by
        k >>= 1
    return Fraction(y, 8 ** (n - 1))


class SequencePropertyReport(namedtuple(
    "SequencePropertyReport",
    "n_checked positive_decreasing ratio_above_limit ratio_nonincreasing final_ratio_gap verdict",
)):
    """Exact verdicts for the sequence's qualitative properties up to N.

    ``ratio_above_limit`` certifies a_{n+1}/a_n > (3 + sqrt(5))/8 using
    the squaring transform: with s = 8 a_{n+1} - 3 a_n the claim is
    equivalent to s > 0 and s^2 > 5 a_n^2, and so to the int comparison
    t > 0 and t^2 > 5 y_n^2 with t = 8^(n-1) s and y_n = 8^(n-1) a_n.
    ``final_ratio_gap`` is |a_{N+1}/a_N - limit| in float, for display.
    """

    __slots__ = ()


def check_sequence_properties(
    n_max: int, table: SequenceTable | None = None
) -> SequencePropertyReport:
    """Exactly verify positivity/decay/ratio facts for n = 1..n_max.

    ``table`` is a :func:`sequence_table` of at least a_0..a_{n_max}, so a
    caller that already holds one does not build a second; the one further
    term the checks need comes from the recurrence.
    """
    if n_max < 3:
        raise UsageError("n_max must be at least 3")
    if table is None:
        table = sequence_table(n_max)
    elif table.n_max < n_max:
        raise UsageError("the table must reach a_{n_max}")
    # each property is homogeneous in y_n = a_n 8^(n-1), the ints the table holds
    y = list(table.y[: n_max + 1])
    y.append(6 * y[-1] - 4 * y[-2])  # the recurrence, times 8^n
    positive_decreasing = all(0 < y[n] and y[n + 1] < 8 * y[n] for n in range(1, n_max + 1))
    ratio_above = all(
        (t := y[n + 1] - 3 * y[n]) > 0 and t * t > 5 * y[n] * y[n] for n in range(1, n_max + 1)
    )
    nonincreasing = all(y[n + 2] * y[n] <= y[n + 1] * y[n + 1] for n in range(1, n_max))
    gap = abs(y[n_max + 1] / (8 * y[n_max]) - RATIO_LIMIT) if y[n_max] else math.inf
    ok = positive_decreasing and ratio_above and nonincreasing
    return SequencePropertyReport(
        n_max, positive_decreasing, ratio_above, nonincreasing, gap,
        HOLDS if ok else VIOLATED,
    )


def representation_residual(tr, n: int):
    """Residual of e_n = a_{n-1} e_2 - (a_{n-2}/16) e_1 against a trace.

    ``tr`` is a pentagon iteration :class:`~cycleweights.pentagon.Trace`;
    levels are 1-based and n must satisfy 2 <= n <= tr.levels.  In
    rational mode the residual is exactly zero; in float mode the
    coefficients are rounded to float once, so the residual stays at
    rounding scale.
    """
    if n < 2 or n > tr.levels:
        raise UsageError("n must satisfy 2 <= n <= trace levels")
    e = tr.e_values()
    table = sequence_table(max(n - 1, 2))
    coeff_2 = table.term(n - 1)
    coeff_1 = table.term(n - 2) / 16
    return e[n - 1] - (coeff_2 * e[1] - coeff_1 * e[0])
