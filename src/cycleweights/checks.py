"""Shared verdict labels, default tolerances, and residual scaling.

A residual is always reported relative to the size of the terms that
produced it: ``|residual| / (1 + max |term|)``.  The ``1 +`` keeps the
scale sane when all terms are tiny.  Checks on quantities that are
derived through longer float pipelines use ``REL_TOL_DERIVED``; checks
on quantities produced by a handful of arithmetic ops use
``REL_TOL_DIRECT``.  Exact (rational) mode ignores tolerances entirely
and demands residuals of exactly zero.
"""

HOLDS = "holds"
HOLDS_WITH_EQUALITY = "holds-with-equality"
VIOLATED = "violated"
DEGENERATE = "degenerate"

REL_TOL_DERIVED = 1e-9
REL_TOL_DIRECT = 1e-12


def relative_residual(residual, *terms):
    """|residual| scaled by 1 plus the largest term magnitude.

    Works for floats and fractions alike; with no terms given the raw
    magnitude is returned.
    """
    largest = 0
    for t in terms:
        m = -t if t < 0 else t
        if m > largest:
            largest = m
    return abs(residual) / (1 + largest)
