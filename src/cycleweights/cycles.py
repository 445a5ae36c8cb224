"""Hamiltonian cycles on the complete graph over a configuration.

A cycle visits every vertex exactly once; vertices are configuration indices.  Cycles
are stored in a canonical form so each of the (n-1)!/2 distinct cycles has exactly one
representation: the sequence starts at vertex 0 and its second entry is smaller than its
last (fixing the traversal direction).  One gather per edge position weighs every cycle
of one configuration or of many (:func:`cycle_sums`); a pruned depth-first walk finds
just the extremes (:func:`cycle_extremes`).
"""

from __future__ import annotations

import functools
import itertools
import operator

from .geometry import (
    Configuration, Record, Scalar, _gather, pair_weights, pairwise_weight, squared_distance,
)
from .errors import UsageError


class Cycle(Record):
    """Canonical vertex order of a Hamiltonian cycle.

    Construct via :func:`canonicalize` unless the sequence is already
    canonical; the constructor rejects anything else.
    """

    _fields = ("order",)

    def __init__(self, order):
        order = tuple(int(v) for v in order)
        n = len(order)
        if n < 3:
            raise UsageError("a cycle needs at least 3 vertices")
        if sorted(order) != list(range(n)):
            raise UsageError("cycle must be a permutation of 0..n-1")
        if order[0] != 0 or order[1] > order[-1]:
            raise UsageError(
                "vertex sequence is not canonical; build it with canonicalize()"
            )
        vars(self)["order"] = order

    @property
    def n(self) -> int:
        return len(self.order)

    def edges(self) -> frozenset:
        """The n undirected edges, each as a sorted index pair."""
        o = self.order
        n = len(o)
        return frozenset(
            (o[k], o[(k + 1) % n]) if o[k] < o[(k + 1) % n] else (o[(k + 1) % n], o[k])
            for k in range(n)
        )

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.order)


def canonicalize(vertex_sequence) -> Cycle:
    """Rotate/reflect a vertex sequence into the canonical representative."""
    seq = tuple(int(v) for v in vertex_sequence)
    n = len(seq)
    if n < 3 or sorted(seq) != list(range(n)):
        raise UsageError("input must be a permutation of 0..n-1 with n >= 3")
    i = seq.index(0)
    rot = seq[i:] + seq[:i]
    if rot[1] > rot[-1]:
        rot = rot[:1] + rot[:0:-1]
    return Cycle(rot)


def _canonical_orders(n: int):
    """The canonical vertex sequences of the cycles on n vertices, as tuples in
    lexicographic order: the one filter behind both cycle tables."""
    if not 3 <= n <= 10:
        raise UsageError("cycle enumeration supports 3 <= n <= 10")
    return ((0, *perm) for perm in itertools.permutations(range(1, n)) if perm[0] < perm[-1])


# The tables are cached per n; n is capped at 10, so at most eight
# entries each, and every entry is immutable.
@functools.lru_cache(maxsize=None)
def enumerate_cycles(n: int) -> tuple:
    """All (n-1)!/2 distinct Hamiltonian cycles on n vertices.

    Deterministic order: lexicographic in the canonical vertex sequence.
    Capped at n = 10 (181440 cycles) to keep full enumeration sane.
    """
    return tuple(map(Cycle, _canonical_orders(n)))


@functools.lru_cache(maxsize=None)
def cycle_edges(n: int) -> tuple:
    """Edge indices of each cycle of ``enumerate_cycles(n)``, in that order.

    Entry k lists the indices into ``pair_weights(points)`` of cycle k's
    edges in traversal order, so summing those pair weights in list
    order gives exactly ``cycle_weight``.  Built from the vertex sequences,
    so no Cycle is made.  :func:`cycle_sums` gathers them one edge position
    at a time, for one configuration or for many at one n.
    """
    pair_index = {}
    for k, (a, b) in enumerate(itertools.combinations(range(n), 2)):
        pair_index[a, b] = pair_index[b, a] = k
    index = pair_index.__getitem__
    return tuple(tuple(map(index, zip(o, o[1:] + o[:1]))) for o in _canonical_orders(n))


@functools.lru_cache(maxsize=64)
def _position_gathers(n: int, batch: int = 1) -> tuple:
    """Gather k takes the k-th edge of every cycle from each of ``batch``
    pair-weight vectors laid end to end."""
    size = n * (n - 1) // 2
    return tuple(_gather([t + e for t in range(0, batch * size, size) for e in position])
                 for position in zip(*cycle_edges(n)))


def cycle_sums(w, n: int, batch: int = 1) -> list:
    """Weight of every cycle of ``enumerate_cycles(n)`` from the pair weights
    ``w`` of n points (``pair_weights`` order), as a list in that order; the
    lists of ``batch`` configurations end to end if ``w`` holds their vectors so.

    Edge position by position, each cycle adds its next pair weight to its
    running sum, the column idiom of ``geometry.column_pair_weights``.  The
    additions are the ones ``cycle_weight`` makes, in the same order, and the
    sum from 0 skips nothing since 0 + x == x for weights x >= 0, so every
    entry equals it bit for bit.
    """
    first, *rest = _position_gathers(n, batch)
    acc = first(w)
    for gather in rest:
        acc = list(map(operator.add, acc, gather(w)))
    return acc


def cycle_extremes(points) -> tuple:
    """``(min(s), max(s))`` of ``s = cycle_sums(pair_weights(points), n)``, equal by ``==``
    and by type, with no list.  A depth-first walk over the canonical sequences 0, o1, ...,
    o(n-1) with o1 < o(n-1) carries each prefix's left-to-right sum down the walk, the
    additions ``cycle_weight`` makes, and skips a subtree whose running sum plus the least
    (greatest) pair weight per remaining edge can move neither end.  Rounded addition is
    monotone, so that needs no margin in floats.  Random points skip almost nothing and run
    slower than ``cycle_sums``, so the fuzz screen and ``extremal`` do not use it."""
    n = len(points)
    if not 3 <= n <= 10:
        raise UsageError("cycle enumeration supports 3 <= n <= 10")
    pairs = pair_weights(points)
    w = [[0] * n for _ in range(n)]
    for (i, j), x in zip(itertools.combinations(range(n), 2), pairs):
        w[i][j] = w[j][i] = x
    lo_pair, hi_pair = min(pairs), max(pairs)
    # the walk's first cycle, 0, 1, ..., n - 1, seeds both ends
    lo = hi = functools.reduce(operator.add, (w[k][k + 1] for k in range(n - 1))) + w[n - 1][0]

    def walk(first, last, rest, total):
        nonlocal lo, hi
        low = high = total
        for _ in range(len(rest) + 1):
            low += lo_pair
            high += hi_pair
        if low >= lo and high <= hi:
            return
        if len(rest) == 2:
            for a, b in (rest, rest[::-1]):
                if first < b:
                    s = total + w[last][a] + w[a][b] + w[b][0]
                    lo, hi = min(lo, s), max(hi, s)  # a tie keeps the earlier cycle
            return
        for k, v in enumerate(rest):
            walk(first, v, rest[:k] + rest[k + 1:], total + w[last][v])

    for first in range(1, n - 1):
        walk(first, first, tuple(v for v in range(1, n) if v != first), w[0][first])
    return lo, hi


def cycle_weight(config: Configuration, cycle: Cycle) -> Scalar:
    """Sum of squared distances along the cycle's edges, in traversal order."""
    if cycle.n != config.n:
        raise UsageError("cycle size does not match configuration")
    pts = config.points
    o = cycle.order
    n = len(o)
    total = 0
    for k in range(n):
        total += squared_distance(pts[o[k]], pts[o[(k + 1) % n]])
    return total


def total_weight(config: Configuration) -> Scalar:
    """Weight of the whole complete graph: every unordered pair once."""
    return pairwise_weight(config.points)


def complement_weight(config: Configuration, cycle: Cycle) -> Scalar:
    """Weight of all edges *not* on the cycle (total minus cycle weight)."""
    if cycle.n != config.n:
        raise UsageError("cycle size does not match configuration")
    return total_weight(config) - cycle_weight(config, cycle)


def complement_cycle(cycle: Cycle) -> Cycle:
    """The Hamiltonian cycle formed by the complement edges; n = 5 only.

    K5 splits into a 5-cycle and its complement, which is again a
    5-cycle (the pentagram of the original).  No other n has this
    property, so anything else is rejected.
    """
    if cycle.n != 5:
        raise UsageError("complement of a Hamiltonian cycle is a cycle only for n = 5")
    o = cycle.order
    # the non-edges join vertices two apart along the cycle
    return canonicalize(o[0::2] + o[1::2])
