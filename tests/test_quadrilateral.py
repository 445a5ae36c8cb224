from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleweights import quadrilateral
from cycleweights.checks import HOLDS, VIOLATED, relative_residual
from cycleweights.errors import DegenerateError, UsageError
from cycleweights.geometry import (
    FLOAT, RATIONAL, Configuration, midpoint, random_config, squared_distance,
)
from cycleweights.prng import MASK64, mix64
from cycleweights.quadrilateral import (
    IdentityTerms,
    fuzz_identity,
    identity_terms,
    midpoint_parallelogram_relations,
    midsegment_relations,
    verify_identity,
)

rational = st.fractions(min_value=-8, max_value=8)
rpoint = st.tuples(rational, rational)
rquad = st.tuples(rpoint, rpoint, rpoint, rpoint)
finite = st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False)
fpoint = st.tuples(finite, finite)
fquad = st.tuples(fpoint, fpoint, fpoint, fpoint)

# worked example: A(0,0) B(2,0) C(3,2) D(1,3)
HAND = ((0, 0), (2, 0), (3, 2), (1, 3))

# the vertex order (A, B, C, D) of each pairing, held apart from the code under test
ORDERS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))


def _ordered(config, pairing):
    """The points of ``config`` as (A, B, C, D) for ``pairing``."""
    points = config.points
    return tuple(points[k] for k in ORDERS[pairing])


def test_hand_example_exact_terms():
    t = identity_terms(Configuration(HAND, RATIONAL), 0)
    assert t.l_sq == (4, 5, 5, 10, 13, 10)
    assert t.p_sq == Fraction(29, 4)
    assert t.q_sq == Fraction(17, 4)
    assert t.r_sq == Fraction(1, 4)
    assert t.lhs == 24 and t.rhs == 24 and t.residual == 0


def test_hand_example_float_close():
    t = identity_terms(Configuration(HAND, FLOAT), 0)
    assert t.lhs == 24.0 and t.rhs == 24.0 and t.residual == 0.0


def test_unit_square_terms():
    t = identity_terms(Configuration(((0, 0), (1, 0), (1, 1), (0, 1)), RATIONAL), 0)
    assert t.l_sq == (1, 1, 1, 1, 2, 2)
    # diagonal midpoints coincide: the parallelogram law case
    assert t.r_sq == 0
    assert t.lhs == t.rhs == 4


def test_all_pairings_hold_on_assorted_shapes():
    shapes = [
        ((0, 0), (4, 0), (5, 3), (1, 4)),          # convex
        ((0, 0), (4, 0), (1, 1), (0, 4)),          # concave
        ((0, 0), (3, 3), (3, 0), (0, 3)),          # self-crossing order
        ((0, 0), (1, 0), (2, 0), (5, 0)),          # collinear
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),  # tetrahedron
    ]
    for pts in shapes:
        for pairing in (0, 1, 2):
            rep = verify_identity(Configuration(pts, RATIONAL), pairing)
            assert rep.verdict == HOLDS
            assert rep.terms.residual == 0


def test_coincident_points_all_zero():
    t = identity_terms(Configuration(((1.5, 2.5),) * 4, FLOAT), 0)
    assert t.lhs == 0.0 and t.rhs == 0.0 and t.residual == 0.0


@given(rquad, st.sampled_from([0, 1, 2]))
def test_identity_exact_on_rationals(pts, pairing):
    t = identity_terms(Configuration(pts, RATIONAL), pairing)
    assert t.residual == 0


@given(fquad, st.sampled_from([0, 1, 2]))
def test_identity_tight_in_float(pts, pairing):
    t = identity_terms(Configuration(pts, FLOAT), pairing)
    assert abs(t.residual) <= 1e-12 * (1 + abs(t.lhs) + abs(t.rhs))


@given(rquad)
def test_pairings_permute_the_midpoint_triple(pts):
    triples = [
        sorted(
            (lambda t: (t.p_sq, t.q_sq, t.r_sq))(
                identity_terms(Configuration(pts, RATIONAL), pairing)
            )
        )
        for pairing in (0, 1, 2)
    ]
    assert triples[0] == triples[1] == triples[2]


@given(rquad, st.sampled_from([0, 1, 2]))
def test_parallelogram_and_midsegment_relations_exact(pts, pairing):
    q = Configuration(pts, RATIONAL)
    assert midpoint_parallelogram_relations(q, pairing) == (0, 0, 0)
    assert midsegment_relations(q, pairing) == (0, 0, 0, 0, 0, 0)


@given(rquad)
def test_midsegment_mirror_twins(pts):
    # each midsegment relation has a mirror: |L2L5|=|L4L6| etc.
    q = Configuration(pts, RATIONAL)
    a, b, c, d = _ordered(q, 0)
    l_sq = identity_terms(q, 0).l_sq
    m1, m2, m3, m4 = midpoint(a, b), midpoint(b, c), midpoint(c, d), midpoint(d, a)
    m5, m6 = midpoint(a, c), midpoint(b, d)
    twins = [(m4, m6), (m3, m6), (m4, m5), (m3, m5), (m3, m4), (m2, m3)]
    for k, (u, v) in enumerate(twins):
        assert 4 * squared_distance(u, v) == l_sq[k]


@given(rquad)
def test_diagonal_sum_bounded_by_cycle_sum(pts):
    # corollary of the relation: l5 + l6 <= l1 + l2 + l3 + l4
    t = identity_terms(Configuration(pts, RATIONAL), 0)
    l1, l2, l3, l4, l5, l6 = t.l_sq
    assert l5 + l6 <= l1 + l2 + l3 + l4


@given(rpoint, rpoint, rpoint)
def test_parallelogram_attains_equality(a, u, v):
    # vertices a, a+u, a+u+v, a+v: diagonal midpoints coincide, r = 0
    pts = (
        a,
        tuple(x + y for x, y in zip(a, u)),
        tuple(x + y + z for x, y, z in zip(a, u, v)),
        tuple(x + z for x, z in zip(a, v)),
    )
    t = identity_terms(Configuration(pts, RATIONAL), 0)
    assert t.r_sq == 0
    l1, l2, l3, l4, l5, l6 = t.l_sq
    assert l5 + l6 == l1 + l2 + l3 + l4


def test_verify_identity_tolerance_validation():
    q = Configuration(HAND, FLOAT)
    with pytest.raises(UsageError, match="tolerance"):
        verify_identity(q, 0, 0.0)
    with pytest.raises(UsageError, match="tolerance"):
        verify_identity(q, 0, -1e-9)


@pytest.mark.parametrize("big", [1e200, 1e154])
@pytest.mark.parametrize("pairing", [0, 1, 2])
def test_verify_identity_refuses_overflowing_float_terms(big, pairing):
    # every l_sq overflows at 1e200; at 1e154 some are finite, but lhs and rhs are not
    q = Configuration(((big, 0.0), (0.0, big), (0.0, 0.0), (big, big)), FLOAT)
    with pytest.raises(DegenerateError):
        verify_identity(q, pairing)


LABELINGS = (identity_terms, verify_identity, midpoint_parallelogram_relations,
             midsegment_relations)


def test_quad_labeling_validation():
    for labeling in LABELINGS:
        with pytest.raises(UsageError):
            labeling(Configuration(((0, 0), (1, 0), (0, 1))))
        with pytest.raises(UsageError):
            labeling(Configuration(((0, 0), (1, 0), (0, 1), (1, 1), (2, 2))))
    with pytest.raises(UsageError):
        identity_terms(Configuration(((0, 0), (1, 0), (0, 1), (1, 1, 1))))
    with pytest.raises(UsageError):
        identity_terms(Configuration(HAND, "decimal"))


# 0.0 and 1e-9 are also what a tolerance passed in the pairing's place gives
@pytest.mark.parametrize("pairing", [0.0, 1e-9, True, 3, -1, "1"])
def test_a_labeling_takes_only_the_int_pairings(pairing):
    for labeling in LABELINGS:
        with pytest.raises(UsageError, match="pairing"):
            labeling(Configuration(HAND), pairing)


def test_fuzz_identity_deterministic_and_clean():
    a = fuzz_identity(5, 200)
    b = fuzz_identity(5, 200)
    assert a == b
    assert a.checks == 600
    assert a.violations == 0
    assert a.max_rel_residual <= 1e-9


def test_fuzz_identity_rational_exact():
    rep = fuzz_identity(6, 25, mode=RATIONAL)
    assert rep.violations == 0
    assert rep.max_rel_residual == 0.0


def test_relative_residual_scales_by_largest_term():
    assert relative_residual(Fraction(-3), Fraction(1), Fraction(-5)) == Fraction(1, 2)
    assert relative_residual(2.0, -3.0) == 0.5
    # a zero residual comes back as its magnitude, of its own type
    zero = relative_residual(Fraction(0), Fraction(7))
    assert zero == 0 and isinstance(zero, Fraction)
    assert str(relative_residual(-0.0, 5.0)) == "0.0"


def test_fuzz_identity_validation():
    with pytest.raises(UsageError):
        fuzz_identity(1, 0)
    with pytest.raises(UsageError):
        fuzz_identity(1, 5, tolerance=0.0)


def test_verdict_labels():
    rep = verify_identity(Configuration(HAND, FLOAT), 1)
    assert rep.verdict in (HOLDS, VIOLATED)
    assert rep.verdict == HOLDS


# --- the exact terms against the Fraction arithmetic they replaced ----------


def _reference_terms(config, pairing):
    """identity_terms as it was: Fraction midpoints and squared distances."""
    a, b, c, d = _ordered(config, pairing)
    l1, l2, l3 = squared_distance(a, b), squared_distance(b, c), squared_distance(c, d)
    l4, l5, l6 = squared_distance(d, a), squared_distance(a, c), squared_distance(b, d)
    m1, m3 = midpoint(a, b), midpoint(c, d)
    m2, m4 = midpoint(b, c), midpoint(d, a)
    m5, m6 = midpoint(a, c), midpoint(b, d)
    p_sq, q_sq, r_sq = squared_distance(m1, m3), squared_distance(m2, m4), squared_distance(m5, m6)
    rhs = l1 + l2 + l3 + l4
    lhs = 4 * r_sq + l5 + l6
    return IdentityTerms(
        pairing, (l1, l2, l3, l4, l5, l6), p_sq, q_sq, r_sq, lhs, rhs, lhs - rhs
    )


small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def _small_quads(draw):
    """Four points with small p/q coordinates from a pool of at most four, so
    that some coincide."""
    point = st.tuples(*[small] * draw(st.sampled_from((2, 3))))
    pool = draw(st.lists(point, min_size=1, max_size=4))
    return tuple(draw(st.sampled_from(pool)) for _ in range(4))


@settings(max_examples=200, deadline=None)
@given(_small_quads())
def test_exact_terms_match_the_fraction_arithmetic(pts):
    for pairing in (0, 1, 2):
        quad = Configuration(pts, RATIONAL)
        terms = identity_terms(quad, pairing)
        assert repr(terms) == repr(_reference_terms(quad, pairing))
        assert all(isinstance(v, Fraction) for v in (*terms.l_sq, terms.r_sq, terms.residual))
        # the float arm keeps its bits
        quad = Configuration(pts, FLOAT)
        assert repr(identity_terms(quad, pairing)) == repr(_reference_terms(quad, pairing))


def test_quad_labeling_refuses_points_a_configuration_refuses():
    # a labeling's points are a Configuration's, refused before any weighing
    with pytest.raises(UsageError):
        Configuration(((0, 0), (1, 0), (0, 1), (float("inf"), 1)))
    with pytest.raises(UsageError):
        Configuration(((0, 0), (1, 0), (0, 1), (float("nan"), 1)), RATIONAL)
    with pytest.raises(UsageError):
        Configuration(((0,), (1,), (2,), (3,)))
    with pytest.raises(UsageError):
        Configuration(((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)), RATIONAL)


# --- the midpoint relations against per-pair loops --------------------------


def _reference_relations(config, pairing):
    """midpoint_parallelogram_relations and midsegment_relations, each
    written as per-pair midpoint and squared_distance calls."""
    a, b, c, d = _ordered(config, pairing)
    l1, l2, l3 = squared_distance(a, b), squared_distance(b, c), squared_distance(c, d)
    l4, l5, l6 = squared_distance(d, a), squared_distance(a, c), squared_distance(b, d)
    m1, m2, m3 = midpoint(a, b), midpoint(b, c), midpoint(c, d)
    m4, m5, m6 = midpoint(d, a), midpoint(a, c), midpoint(b, d)
    p_sq, q_sq, r_sq = squared_distance(m1, m3), squared_distance(m2, m4), squared_distance(m5, m6)
    parallelogram = (
        (l5 + l6) / 2 - (p_sq + q_sq),
        (l1 + l3) / 2 - (q_sq + r_sq),
        (l2 + l4) / 2 - (p_sq + r_sq),
    )
    ends = ((m2, m5), (m1, m5), (m2, m6), (m1, m6), (m1, m2), (m1, m4))
    midsegment = tuple(
        4 * squared_distance(u, v) - l for (u, v), l in zip(ends, (l1, l2, l3, l4, l5, l6))
    )
    return parallelogram, midsegment


any_float = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _float_quads(draw):
    """Four float points of dimension 2 or 3, from a pool of at most four
    (so that some coincide), at any finite magnitude."""
    point = st.tuples(*[any_float] * draw(st.sampled_from((2, 3))))
    pool = draw(st.lists(point, min_size=1, max_size=4))
    return tuple(draw(st.sampled_from(pool)) for _ in range(4))


@settings(max_examples=200, deadline=None)
@given(_small_quads(), _float_quads())
def test_midpoint_relations_match_the_per_pair_loops(small_pts, float_pts):
    for pts, mode in ((small_pts, RATIONAL), (small_pts, FLOAT), (float_pts, FLOAT)):
        for pairing in (0, 1, 2):
            quad = Configuration(pts, mode)
            got = (midpoint_parallelogram_relations(quad, pairing),
                   midsegment_relations(quad, pairing))
            assert repr(got) == repr(_reference_relations(quad, pairing))


# --- the identity fuzz stays on ints ----------------------------------------


def test_exact_terms_are_held_as_ints_and_read_as_fractions():
    quad = Configuration(HAND, RATIONAL)
    terms = identity_terms(quad, 0)
    assert all(type(v) is int for v in (*vars(terms)["l_sq"], vars(terms)["residual"]))
    reference = _reference_terms(quad, 0)
    assert terms == reference and hash(terms) == hash(reference)


def test_fuzz_identity_calls_the_hooked_names_per_trial_and_pairing(monkeypatch):
    calls = dict.fromkeys(("random_config", "mix64", "identity_terms"), 0)
    for name in calls:
        def counted(*args, _real=getattr(quadrilateral, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(quadrilateral, name, counted)
    for mode in (FLOAT, RATIONAL):
        calls.update(dict.fromkeys(calls, 0))
        assert fuzz_identity(3, 40, 2, mode).checks == 120
        assert calls == {"random_config": 40, "mix64": 40, "identity_terms": 120}


def test_rational_fuzz_builds_fractions_only_for_the_draws(monkeypatch):
    count = 0
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    for dim in (2, 3):
        count = 0
        rep = fuzz_identity(8, 200, dim, RATIONAL)
        assert rep.violations == 0 and rep.max_rel_residual == 0.0
        assert count == 0


def test_rational_fuzz_reports_a_perturbed_kernel(monkeypatch):
    real = quadrilateral.column_pair_weights

    def off_by_one(*args):
        w = real(*args)
        w[0] += 1
        return w

    monkeypatch.setattr(quadrilateral, "column_pair_weights", off_by_one)
    rep = fuzz_identity(9, 30, mode=RATIONAL)
    assert rep.violations == 90
    assert rep.max_rel_residual > 0


def test_float_fuzz_judges_a_perturbed_kernel_as_verify_identity_does(monkeypatch):
    real = quadrilateral.column_pair_weights
    shift = 1.0

    def shifted(*args):
        w = real(*args)
        w[0] += shift
        return w

    monkeypatch.setattr(quadrilateral, "column_pair_weights", shifted)
    rep = fuzz_identity(9, 30)
    assert rep.violations == 90 and rep.max_rel_residual > 1e-3
    shift = 1e-12  # inside the tolerance of every labeling
    rep = fuzz_identity(9, 30)
    assert rep.violations == 0 and 0 < rep.max_rel_residual < 1e-9
    shift = float("inf")  # an overflowing side is degenerate, as for ``identity --in``
    with pytest.raises(DegenerateError):
        fuzz_identity(9, 30)
    with pytest.raises(DegenerateError):
        verify_identity(Configuration(HAND))


def _reference_fuzz(seed, trials, dim, mode, tolerance=1e-9):
    """fuzz_identity trial by trial, each pairing labeled from the bare points
    through Configuration's checks and decided by verify_identity."""
    violations = 0
    worst = 0.0
    for i in range(trials):
        points = random_config(mix64((seed + i) & MASK64), 4, dim, mode).points
        for pairing in (0, 1, 2):
            report = verify_identity(Configuration(points, mode), pairing, tolerance)
            t = report.terms
            violations += report.verdict == VIOLATED
            worst = max(worst, float(relative_residual(t.residual, t.lhs, t.rhs)))
    return quadrilateral.IdentityFuzzReport(
        trials, dim, mode, tolerance, 3 * trials, violations, worst)


@pytest.mark.parametrize("trials", [1, 40])
@pytest.mark.parametrize("mode", [FLOAT, RATIONAL])
@pytest.mark.parametrize("dim", [2, 3])
def test_fuzz_matches_one_checked_labeling_at_a_time(trials, mode, dim):
    got = fuzz_identity(11, trials, dim, mode)
    assert repr(got) == repr(_reference_fuzz(11, trials, dim, mode))
    if trials > 1:  # the comparison has teeth: a float worst residual is read
        assert (got.max_rel_residual > 0) == (mode == FLOAT)
