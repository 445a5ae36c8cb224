"""Points, configurations, and squared-distance weights.

A point is a plain tuple of scalars.  A configuration is an ordered,
immutable collection of points sharing one dimension (2 or 3) and one
scalar mode, held once as coordinate columns (:func:`columns`): mode ``"float"``
computes in binary64; mode ``"rational"`` reads its points as Fractions, but
weighs them as ints (:func:`exact`) and decides on ints, with zero tolerance.

The edge weight between two points is the *squared* Euclidean distance,
i.e. the sum of squared coordinate differences — no square roots appear
anywhere in the weight arithmetic, which is what makes the exact mode
possible.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from fractions import Fraction

from .errors import UsageError
from .prng import stream_draws

FLOAT = "float"
RATIONAL = "rational"
MODES = (FLOAT, RATIONAL)

Scalar = float | Fraction
Point = tuple


def _coerce_scalar(x, mode: str) -> Scalar:
    if mode == RATIONAL:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, float):
            if not math.isfinite(x):
                raise UsageError("coordinates must be finite")
            # binary floats are dyadic rationals, so this is lossless
            return Fraction(x)
        raise UsageError(f"cannot use {type(x).__name__} as a rational coordinate")
    v = float(x)
    if not math.isfinite(v):
        raise UsageError("coordinates must be finite")
    return v


def _coerce_point(p, mode: str) -> Point:
    return tuple(_coerce_scalar(x, mode) for x in p)


def squared_distance(p: Point, q: Point) -> Scalar:
    """Edge weight between two points: sum of squared coordinate gaps.

    The two-point reference, kept for the ``cycles`` oracles; every other
    weight comes from :func:`column_pair_weights`, bit for bit the same."""
    if len(p) != len(q):
        raise UsageError(f"dimension mismatch: {len(p)} vs {len(q)}")
    total = 0
    for a, b in zip(p, q):
        d = a - b
        total += d * d
    return total


def midpoint(p: Point, q: Point) -> Point:
    """Coordinate-wise mean; exact in rational mode."""
    if len(p) != len(q):
        raise UsageError(f"dimension mismatch: {len(p)} vs {len(q)}")
    return tuple((a + b) / 2 for a, b in zip(p, q))


def _gather(indices):
    """``operator.itemgetter(*indices)``, but a sequence for any length:
    itemgetter of one index returns a bare item, not a 1-tuple."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    return lambda c: [c[i] for i in indices]


@functools.lru_cache(maxsize=64)
def _pair_gathers(n: int, batch: int = 1) -> tuple:
    """Gathers of the i ends and of the j ends of every (i, j), i < j pair,
    offset by t*n in the t-th of ``batch`` configurations."""
    pairs = list(itertools.combinations(range(n), 2))
    ends = tuple(zip(*[(t + i, t + j) for t in range(0, batch * n, n) for i, j in pairs]))
    return tuple(_gather(e) for e in ends or ((), ()))


def column_pair_weights(cols, batch: int = 1) -> list:
    """The one weight kernel: every pair's squared distance in the package's one
    pair order, (i, j) with i < j, where ``cols[k][i]`` is coordinate k of point i.
    Entry (i, j) is d0*d0 + d1*d1 (+ d2*d2), as :func:`squared_distance` sums from 0.
    There are 2 or 3 columns, summed in one pass.  The columns may hold ``batch``
    configurations end to end, point t*n + i being point i of configuration t;
    their pair vectors come back end to end."""
    ga, gb = _pair_gathers(len(cols[0]) // batch, batch)
    if len(cols) == 2:
        c0, c1 = cols
        return [(d := x0 - y0) * d + (e := x1 - y1) * e
                for x0, y0, x1, y1 in zip(ga(c0), gb(c0), ga(c1), gb(c1))]
    c0, c1, c2 = cols
    return [(d := x0 - y0) * d + (e := x1 - y1) * e + (f := x2 - y2) * f
            for x0, y0, x1, y1, x2, y2 in zip(ga(c0), gb(c0), ga(c1), gb(c1), ga(c2), gb(c2))]


def columns(points, mode: str) -> tuple:
    """``(cols, den)``, the columns of ``points`` for :func:`column_pair_weights`:
    as they are, with ``den`` None, in float mode.  In rational mode ``den`` is
    the lcm of the denominators and ``cols[k][i] == points[i][k] * den``, an int,
    so every pair weight is an int, the exact weight times den**2."""
    if mode != RATIONAL:
        return list(zip(*points)), None
    den = math.lcm(*(x.denominator for p in points for x in p))
    return [[x.numerator * (den // x.denominator) for x in c] for c in zip(*points)], den


def exact(weights, den) -> tuple:
    """The exact values of weights over :func:`columns`' ``den``: each int over
    den**2 as a Fraction, or the float weights (``den`` None) as they are."""
    if den is None:
        return tuple(weights)
    unit = den * den
    return tuple(Fraction(v, unit) for v in weights)


def exact_value(weight, den) -> Scalar:
    """:func:`exact` of one weight."""
    return exact((weight,), den)[0]


def exact_points(cols, den) -> tuple:
    """The points of :func:`columns`' ``(cols, den)``, as :func:`exact` reads weights."""
    if den is not None:
        cols = [[Fraction(x, den) for x in c] for c in cols]
    return tuple(zip(*cols))


class Exact:
    """A :class:`Record` field held in the number format of :func:`columns` over
    the instance's ``den`` and read as ``read(value, den)``, one exact weight by
    default: a Fraction is built only for a value that is read.  A copy or a
    pickle keeps the held value and ``den``, so it reads the same."""

    def __init__(self, read=exact_value):
        self.read = read

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return self.read(obj.__dict__[self.name], obj.den)

    # a data descriptor, so that the held value in the instance __dict__ does not shadow it
    def __set__(self, obj, value):
        raise AttributeError(f"cannot assign to field {self.name!r}")


class Record:
    """A read-only record whose fields, named in order by ``_fields``, sit in
    the instance ``__dict__``.  Equality, hash and repr run over the fields as
    read; a value held only to read them by, such as the ``den`` of
    :class:`Exact` fields, is not a field.  Each subclass checks its input in
    its own ``__init__`` and stores it with ``vars(self).update``."""

    _fields = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def ordered_sum(values) -> Scalar:
    """Left-to-right ``+=`` from 0: the one summation order for weights.

    Not ``sum()``: from Python 3.12 on, ``sum()`` of floats is
    compensated, so its bits would differ from this loop's and between
    Python versions.  ``reduce(add, ...)`` gives the same bits but is
    slower on CPython 3.11, which specializes this loop's float ``+=``.
    """
    total = 0
    for v in values:
        total += v
    return total


class Configuration(Record):
    """Ordered, immutable point set with one dimension and one scalar mode.

    ``dim`` is derived from the points; mixing dimensions or passing
    fewer than three points is a usage error.  ``cols`` and ``den``, not fields,
    hold :func:`columns` of the points, which every weighing reads and from
    which the ``points`` field is read on each access.
    """

    _fields = ("points", "mode", "dim")
    points = property(lambda self: exact_points(self.cols, self.den))

    def __init__(self, points, mode: str = FLOAT):
        if mode not in MODES:
            raise UsageError(f"unknown scalar mode {mode!r}")
        pts = tuple(_coerce_point(p, mode) for p in points)
        if len(pts) < 3:
            raise UsageError("a configuration needs at least 3 points")
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise UsageError("all points must share one dimension")
        dim = dims.pop()
        if dim not in (2, 3):
            raise UsageError("dimension must be 2 or 3")
        cols, den = columns(pts, mode)
        vars(self).update(mode=mode, dim=dim, cols=cols, den=den)

    @property
    def n(self) -> int:
        return len(self.cols[0])


def from_columns(cols, den, mode: str) -> Configuration:
    """The Configuration carrying ``cols`` and ``den`` as they are, for columns that need
    no checks (a draw's, or a Configuration's own): it builds and coerces no point."""
    config = object.__new__(Configuration)
    config.__dict__.update(mode=mode, dim=len(cols), cols=cols, den=den)
    return config


def random_columns(seeds, n: int, dim: int = 2, mode: str = FLOAT) -> tuple:
    """``(cols, den)`` of one configuration per seed, laid end to end for
    ``column_pair_weights(cols, len(seeds))``: n points uniform in the unit
    square/cube, from the first n * dim draws of the seed's SplitMix64 stream
    in point-major order.  Float columns hold the unit floats, ``den`` None;
    rational ones the same 53-bit draws as ints, ``den`` 2**53 (see :func:`columns`)."""
    if n < 3:
        raise UsageError("n must be at least 3")
    if dim not in (2, 3):
        raise UsageError("dimension must be 2 or 3")
    if mode not in MODES:
        raise UsageError(f"unknown scalar mode {mode!r}")
    xs, den = stream_draws(seeds, n * dim), 1 << 53
    if mode != RATIONAL:
        xs, den = [x * 2.0**-53 for x in xs], None  # SplitMix64.next_unit's bits
    return [xs[k::dim] for k in range(dim)], den


def random_config(seed: int, n: int, dim: int = 2, mode: str = FLOAT) -> Configuration:
    """The configuration of :func:`random_columns` for one seed, so a seed pins
    it exactly.  Rational mode keeps the 53-bit draws as ints over 2**53:
    both modes describe the identical point set.  ``cols`` and ``den`` are the
    draw's own, ``den`` 2**53 in rational mode, not the lcm :func:`columns` finds."""
    return from_columns(*random_columns((seed,), n, dim, mode), mode)


def regular_polygon(n: int, circumradius: float = 1.0) -> Configuration:
    """Vertices of a regular n-gon on a circle about the origin (float mode)."""
    if n < 3:
        raise UsageError("n must be at least 3")
    r = float(circumradius)
    if not (math.isfinite(r) and r > 0):
        raise UsageError("circumradius must be positive and finite")
    pts = tuple(
        (r * math.cos(2.0 * math.pi * k / n), r * math.sin(2.0 * math.pi * k / n))
        for k in range(n)
    )
    return Configuration(pts, FLOAT)


def normalized_points(cols):
    """Center at the origin and scale to unit total weight; None if degenerate.

    Takes and returns coordinate columns, the optimizer's layout for its
    whole search; the result is a new list of lists.
    """
    n = len(cols[0])
    shifted = [[x - c for x in col] for col in cols
               for c in (functools.reduce(operator.add, col, 0.0) / n,)]
    w = ordered_sum(column_pair_weights(shifted))
    if w == 0.0:
        return None
    s = 1.0 / math.sqrt(w)
    return [[x * s for x in col] for col in shifted]


# --- point-file format ----------------------------------------------------
#
#   # optional comment / blank lines anywhere
#   points <n> dim <d> mode <float|rational>
#   <coordinate row> x n
#
# Rows hold d whitespace-separated tokens; a token is any decimal literal
# (float mode) or an integer/fraction/decimal literal (rational mode).

# Longest rational-mode token, and largest exponent magnitude in one.  At
# this size the exact weights and ratios of a 5-point, 3-D file stay within
# the interpreter's limit on the digits of an int rendered as text (4300 by
# default), and Fraction() never expands an exponent into millions of digits.
MAX_RATIONAL_TOKEN = 64

_HEADER_RE = re.compile(r"^points\s+(\d+)\s+dim\s+(\d+)\s+mode\s+(\w+)$")


def parse_points(text: str) -> Configuration:
    """Parse the point-file format into a Configuration."""
    lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    if not lines:
        raise UsageError("empty point file")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise UsageError(f"bad header line: {lines[0]!r}")
    n, dim, mode = int(m.group(1)), int(m.group(2)), m.group(3)
    if mode not in MODES:
        raise UsageError(f"unknown scalar mode {mode!r}")
    rows = lines[1:]
    if len(rows) != n:
        raise UsageError(f"expected {n} coordinate rows, found {len(rows)}")
    pts = []
    for row in rows:
        tokens = row.split()
        if len(tokens) != dim:
            raise UsageError(f"expected {dim} coordinates per row, got {row!r}")
        pts.append(tuple(_parse_token(t, mode) for t in tokens))
    return Configuration(tuple(pts), mode)


def _parse_token(token: str, mode: str) -> Scalar:
    try:
        if mode == RATIONAL:
            exponent = token.lower().partition("e")[2]
            if len(token) > MAX_RATIONAL_TOKEN or abs(int(exponent or 0)) > MAX_RATIONAL_TOKEN:
                raise UsageError(
                    f"rational token {token!r} is too large: at most {MAX_RATIONAL_TOKEN}"
                    f" characters and an exponent of at most {MAX_RATIONAL_TOKEN} in size"
                )
            return Fraction(token)
        v = float(token)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad coordinate token {token!r}") from None
    if not math.isfinite(v):
        raise UsageError(f"bad coordinate token {token!r}")
    return v


def format_points(config: Configuration) -> str:
    """Render a Configuration in the point-file format (round-trips exactly)."""
    out = [f"points {config.n} dim {config.dim} mode {config.mode}"]
    for p in config.points:
        # str of a float is its repr, the shortest round-trip form
        out.append(" ".join(map(str, p)))
    return "\n".join(out) + "\n"
