"""Search for extremal cycle-weight ratios over point configurations.

The ratio of interest is w(E)/w(K_n) for the identity cycle
(0, 1, ..., n-1); by vertex relabeling every cycle's ratio range is
the same, so optimizing this one objective explores them all.  The
ratio is scale- and translation-invariant, which makes the unit-weight
normalized configurations a compact search space.  Each result is set
against the exact range, ``bounds.spectral_interval(n)``, which the
search is a numerical cross-check of.

The optimizer is a deterministic multi-start coordinate pattern search
(Hooke & Jeeves 1961, Torczon 1997): from a seeded random start
(normalized), sweep the coordinates in order, trying +h then -h on each,
and accept the first strict improvement; after a sweep with no
improvement halve h.  Start at h = 0.25, stop when h < 1e-9 or the sweep
budget is spent.  No randomness beyond the seeded starts, so results are
reproducible bit for bit.

Each candidate is screened in O(1).  For the current normalized columns
the search keeps w(K_n), the identity-cycle weight w(E) and each column
sum S_j.  Moving point i by d in column j changes w(K_n) by
2d(n x_i - S_j) + (n-1)d^2 and w(E) by 2d(2x_i - x_{i-1} - x_{i+1}) + 2d^2
(indices mod n).  A candidate whose screened ratio is not a strict
improvement, or whose w(K_n) would not be positive, is dropped unbuilt.
One that passes is built, normalized and rescored in full, and accepted
only if that confirmed ratio is a strict improvement too, so ``value`` is
always the ratio of the returned witness and ``history`` is strictly
monotone.  The ratio is translation- and scale-invariant, so the screen
needs no normalization; only ulp-level ties can resolve differently from
rescoring every candidate.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from .bounds import spectral_interval
from .cycles import (
    Cycle, canonicalize, cycle_edges, cycle_sums, cycle_weight, enumerate_cycles, total_weight,
)
from .errors import DegenerateError, UsageError
from .geometry import (
    Configuration, FLOAT, column_pair_weights, normalized_points, ordered_sum, pair_weights,
    random_config,
)
from .prng import MASK64, mix64

MAXIMIZE = "maximize"
MINIMIZE = "minimize"

_H_INITIAL = 0.25
_H_FLOOR = 1e-9


class OptimizationResult(namedtuple(
    "OptimizationResult",
    "n dim objective value config cycle restarts sweeps best_restart bound within_bounds"
    " history evals rescores acceptances halvings",
)):
    """Outcome of one multi-start search.

    ``value`` is the best objective found; ``history`` lists the
    accepted values of the winning restart in order.  ``bound`` is the
    spectral interval for this n and ``within_bounds`` allows a 1e-9 guard
    band around it.

    The counters are summed over all restarts: ``evals`` candidates were
    screened, ``rescores`` of them passed the screen and were normalized
    and rescored, ``acceptances`` of those were accepted, and the step was
    halved ``halvings`` times.
    """

    __slots__ = ()


class ConjectureRow(namedtuple(
    "ConjectureRow",
    "n minimum maximum proven min_cycle min_cycle_value max_cycle max_cycle_value",
)):
    """Min/max search outcome for one n, with consistency checks.

    ``min_cycle``/``max_cycle`` are the extreme cycles when *all*
    cycles are enumerated on the witness configurations; their values
    can only improve on the identity-cycle search value (relabeling
    symmetry), never beat it by much.  ``proven`` is the spectral interval.
    """

    __slots__ = ()


def ratio(config: Configuration, cycle: Cycle) -> float:
    """w(cycle)/w(total); degenerate when the total weight is zero."""
    w_k = total_weight(config)
    if w_k == 0:
        raise DegenerateError("all points coincide; ratio is undefined")
    return cycle_weight(config, cycle) / w_k


def _identity_weights(cols) -> tuple:
    """(w(E), w(K_n)) of coordinate columns, E the identity cycle."""
    w = column_pair_weights(cols)
    # the identity cycle 0, 1, ..., n-1 is first in canonical order
    return ordered_sum(itemgetter(*cycle_edges(len(cols[0]))[0])(w)), ordered_sum(w)


def _slopes(col, i: int, col_sum: float) -> tuple:
    """``(g_k, g_e)`` for moving point i by d in coordinate column ``col``.

    The move changes w(K_n) by ``d * (g_k + (n - 1) * d)`` and the
    identity-cycle weight by ``d * (g_e + 2 * d)``, where ``col_sum`` is
    the column's sum and neighbours are taken mod n.
    """
    x = col[i]
    return 2.0 * (len(col) * x - col_sum), 2.0 * (2.0 * x - col[i - 1] - col[(i + 1) % len(col)])


def optimize(
    seed: int,
    n: int,
    dim: int = 2,
    objective: str = MAXIMIZE,
    restarts: int = 20,
    budget: int = 500,
) -> OptimizationResult:
    """Multi-start pattern search for the extremal identity-cycle ratio.

    Restart r starts from random_config(mix64(seed + r), n, dim),
    normalized.  Ties between restarts keep the earliest one.
    """
    if objective not in (MAXIMIZE, MINIMIZE):
        raise UsageError("objective must be 'maximize' or 'minimize'")
    if not 4 <= n <= 7:
        raise UsageError("optimization supports 4 <= n <= 7")
    if dim not in (2, 3):
        raise UsageError("dimension must be 2 or 3")
    if restarts < 1:
        raise UsageError("restarts must be at least 1")
    if budget < 1:
        raise UsageError("sweep budget must be at least 1")
    maximize = objective == MAXIMIZE
    bend_k = n - 1  # curvature of w(K_n) along a move; w(E)'s is 2
    best = None
    total_sweeps = evals = rescores = acceptances = halvings = 0
    for r in range(restarts):
        start = random_config(mix64((seed + r) & MASK64), n, dim, FLOAT)
        # coordinate columns for the whole search: a move copies one column
        pts = normalized_points(list(zip(*start.points)))
        if pts is None:  # unreachable for random draws, but stay safe
            continue
        w_e, w_k = _identity_weights(pts)
        value = w_e / w_k
        sums = [ordered_sum(c) for c in pts]
        history = [value]
        h = _H_INITIAL
        sweeps = 0
        while h >= _H_FLOOR and sweeps < budget:
            sweeps += 1
            improved = False
            for i in range(n):
                for j in range(dim):
                    col = pts[j]
                    g_k, g_e = _slopes(col, i, sums[j])
                    for delta in (h, -h):
                        evals += 1
                        k = w_k + delta * (g_k + bend_k * delta)
                        if k <= 0.0:
                            continue
                        v = (w_e + delta * (g_e + 2.0 * delta)) / k
                        if not ((v > value) if maximize else (v < value)):
                            continue
                        rescores += 1
                        moved = col[:]
                        moved[i] += delta
                        cand = normalized_points(pts[:j] + [moved] + pts[j + 1:])
                        if cand is None:
                            continue
                        c_e, c_k = _identity_weights(cand)
                        v = c_e / c_k
                        if (v > value) if maximize else (v < value):
                            pts, value, w_e, w_k = cand, v, c_e, c_k
                            sums = [ordered_sum(c) for c in pts]
                            history.append(v)
                            acceptances += 1
                            improved = True
                            break
            if not improved:
                h *= 0.5
                halvings += 1
        total_sweeps += sweeps
        better = best is None or (
            (value > best[1]) if maximize else (value < best[1])
        )
        if better:
            best = (r, value, pts, tuple(history), sweeps)
    best_restart, value, pts, history, _ = best
    config = Configuration(tuple(zip(*pts)), FLOAT)
    bound = spectral_interval(n)
    within = bound[0] - 1e-9 <= value <= bound[1] + 1e-9
    return OptimizationResult(
        n, dim, objective, value, config, canonicalize(range(n)),
        restarts, total_sweeps, best_restart, bound, within, history,
        evals, rescores, acceptances, halvings,
    )


def conjecture_table(
    seed: int,
    n_values=(4, 5, 6, 7),
    dim: int = 2,
    restarts: int = 20,
    budget: int = 500,
) -> tuple:
    """Observed extremal ratios per n, next to the spectral intervals.

    For each witness configuration the table also reports the true
    extreme cycle over full enumeration, as a relabeling-consistency
    check on the identity-cycle search.
    """
    rows = []
    for n in n_values:
        lo = optimize(seed, n, dim, MINIMIZE, restarts, budget)
        hi = optimize(seed, n, dim, MAXIMIZE, restarts, budget)
        min_cy, min_val = _extreme_cycle(lo.config, minimize=True)
        max_cy, max_val = _extreme_cycle(hi.config, minimize=False)
        rows.append(ConjectureRow(n, lo, hi, lo.bound, min_cy, min_val, max_cy, max_val))
    return tuple(rows)


def _extreme_cycle(config: Configuration, minimize: bool):
    w = pair_weights(config.points)
    w_k = ordered_sum(w)
    ratios = [w_e / w_k for w_e in cycle_sums(w, config.n)]
    # min and max keep the first of equal extremes, as a strict < or > would
    k = (min if minimize else max)(range(len(ratios)), key=ratios.__getitem__)
    return enumerate_cycles(config.n)[k], ratios[k]
