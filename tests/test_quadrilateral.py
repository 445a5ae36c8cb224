from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleweights import quadrilateral
from cycleweights.checks import HOLDS, VIOLATED, relative_residual
from cycleweights.errors import DegenerateError, UsageError
from cycleweights.geometry import FLOAT, RATIONAL, midpoint, squared_distance
from cycleweights.quadrilateral import (
    IdentityTerms,
    QuadLabeling,
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


def test_hand_example_exact_terms():
    t = identity_terms(QuadLabeling(HAND, 0, RATIONAL))
    assert t.l_sq == (4, 5, 5, 10, 13, 10)
    assert t.p_sq == Fraction(29, 4)
    assert t.q_sq == Fraction(17, 4)
    assert t.r_sq == Fraction(1, 4)
    assert t.lhs == 24 and t.rhs == 24 and t.residual == 0


def test_hand_example_float_close():
    t = identity_terms(QuadLabeling(HAND, 0, FLOAT))
    assert t.lhs == 24.0 and t.rhs == 24.0 and t.residual == 0.0


def test_unit_square_terms():
    t = identity_terms(QuadLabeling(((0, 0), (1, 0), (1, 1), (0, 1)), 0, RATIONAL))
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
            rep = verify_identity(QuadLabeling(pts, pairing, RATIONAL))
            assert rep.verdict == HOLDS
            assert rep.terms.residual == 0


def test_coincident_points_all_zero():
    t = identity_terms(QuadLabeling(((1.5, 2.5),) * 4, 0, FLOAT))
    assert t.lhs == 0.0 and t.rhs == 0.0 and t.residual == 0.0


@given(rquad, st.sampled_from([0, 1, 2]))
def test_identity_exact_on_rationals(pts, pairing):
    t = identity_terms(QuadLabeling(pts, pairing, RATIONAL))
    assert t.residual == 0


@given(fquad, st.sampled_from([0, 1, 2]))
def test_identity_tight_in_float(pts, pairing):
    t = identity_terms(QuadLabeling(pts, pairing, FLOAT))
    assert abs(t.residual) <= 1e-12 * (1 + abs(t.lhs) + abs(t.rhs))


@given(rquad)
def test_pairings_permute_the_midpoint_triple(pts):
    triples = [
        sorted(
            (lambda t: (t.p_sq, t.q_sq, t.r_sq))(
                identity_terms(QuadLabeling(pts, pairing, RATIONAL))
            )
        )
        for pairing in (0, 1, 2)
    ]
    assert triples[0] == triples[1] == triples[2]


@given(rquad, st.sampled_from([0, 1, 2]))
def test_parallelogram_and_midsegment_relations_exact(pts, pairing):
    q = QuadLabeling(pts, pairing, RATIONAL)
    assert midpoint_parallelogram_relations(q) == (0, 0, 0)
    assert midsegment_relations(q) == (0, 0, 0, 0, 0, 0)


@given(rquad)
def test_midsegment_mirror_twins(pts):
    # each midsegment relation has a mirror: |L2L5|=|L4L6| etc.
    q = QuadLabeling(pts, 0, RATIONAL)
    a, b, c, d = q.ordered()
    l_sq = identity_terms(q).l_sq
    m1, m2, m3, m4 = midpoint(a, b), midpoint(b, c), midpoint(c, d), midpoint(d, a)
    m5, m6 = midpoint(a, c), midpoint(b, d)
    twins = [(m4, m6), (m3, m6), (m4, m5), (m3, m5), (m3, m4), (m2, m3)]
    for k, (u, v) in enumerate(twins):
        assert 4 * squared_distance(u, v) == l_sq[k]


@given(rquad)
def test_diagonal_sum_bounded_by_cycle_sum(pts):
    # corollary of the relation: l5 + l6 <= l1 + l2 + l3 + l4
    t = identity_terms(QuadLabeling(pts, 0, RATIONAL))
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
    t = identity_terms(QuadLabeling(pts, 0, RATIONAL))
    assert t.r_sq == 0
    l1, l2, l3, l4, l5, l6 = t.l_sq
    assert l5 + l6 == l1 + l2 + l3 + l4


def test_verify_identity_tolerance_validation():
    q = QuadLabeling(HAND, 0, FLOAT)
    with pytest.raises(UsageError):
        verify_identity(q, 0.0)
    with pytest.raises(UsageError):
        verify_identity(q, -1e-9)


@pytest.mark.parametrize("big", [1e200, 1e154])
@pytest.mark.parametrize("pairing", [0, 1, 2])
def test_verify_identity_refuses_overflowing_float_terms(big, pairing):
    # every l_sq overflows at 1e200; at 1e154 some are finite, but lhs and rhs are not
    q = QuadLabeling(((big, 0.0), (0.0, big), (0.0, 0.0), (big, big)), pairing, FLOAT)
    with pytest.raises(DegenerateError):
        verify_identity(q)


def test_quad_labeling_validation():
    with pytest.raises(UsageError):
        QuadLabeling(((0, 0), (1, 0), (0, 1)))
    with pytest.raises(UsageError):
        QuadLabeling(((0, 0),) * 5)
    with pytest.raises(UsageError):
        QuadLabeling(HAND, 3)
    with pytest.raises(UsageError):
        QuadLabeling(((0, 0), (1, 0), (0, 1), (1, 1, 1)))
    with pytest.raises(UsageError):
        QuadLabeling(HAND, 0, "decimal")


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
    rep = verify_identity(QuadLabeling(HAND, 1, FLOAT))
    assert rep.verdict in (HOLDS, VIOLATED)
    assert rep.verdict == HOLDS


# --- the exact terms against the Fraction arithmetic they replaced ----------


def _reference_terms(quad):
    """identity_terms as it was: Fraction midpoints and squared distances."""
    a, b, c, d = quad.ordered()
    l1, l2, l3 = squared_distance(a, b), squared_distance(b, c), squared_distance(c, d)
    l4, l5, l6 = squared_distance(d, a), squared_distance(a, c), squared_distance(b, d)
    m1, m3 = midpoint(a, b), midpoint(c, d)
    m2, m4 = midpoint(b, c), midpoint(d, a)
    m5, m6 = midpoint(a, c), midpoint(b, d)
    p_sq, q_sq, r_sq = squared_distance(m1, m3), squared_distance(m2, m4), squared_distance(m5, m6)
    rhs = l1 + l2 + l3 + l4
    lhs = 4 * r_sq + l5 + l6
    return IdentityTerms(
        quad.pairing, (l1, l2, l3, l4, l5, l6), p_sq, q_sq, r_sq, lhs, rhs, lhs - rhs
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
        quad = QuadLabeling(pts, pairing, RATIONAL)
        terms = identity_terms(quad)
        assert repr(terms) == repr(_reference_terms(quad))
        assert all(isinstance(v, Fraction) for v in (*terms.l_sq, terms.r_sq, terms.residual))
        # the float arm keeps its bits
        quad = QuadLabeling(pts, pairing, FLOAT)
        assert repr(identity_terms(quad)) == repr(_reference_terms(quad))


def test_quad_labeling_refuses_points_a_configuration_refuses():
    with pytest.raises(UsageError):
        QuadLabeling(((0, 0), (1, 0), (0, 1), (float("inf"), 1)))
    with pytest.raises(UsageError):
        QuadLabeling(((0, 0), (1, 0), (0, 1), (float("nan"), 1)), 0, RATIONAL)
    with pytest.raises(UsageError):
        QuadLabeling(((0,), (1,), (2,), (3,)))
    with pytest.raises(UsageError):
        QuadLabeling(((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)), 0, RATIONAL)


# --- the midpoint relations against per-pair loops --------------------------


def _reference_relations(quad):
    """midpoint_parallelogram_relations and midsegment_relations, each
    written as per-pair midpoint and squared_distance calls."""
    a, b, c, d = quad.ordered()
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
            quad = QuadLabeling(pts, pairing, mode)
            got = (midpoint_parallelogram_relations(quad), midsegment_relations(quad))
            assert repr(got) == repr(_reference_relations(quad))


# --- the identity fuzz stays on ints ----------------------------------------


def test_exact_terms_are_held_as_ints_and_read_as_fractions():
    quad = QuadLabeling(HAND, 0, RATIONAL)
    terms = identity_terms(quad)
    assert all(type(v) is int for v in (*vars(terms)["l_sq"], vars(terms)["residual"]))
    reference = _reference_terms(quad)
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
        assert count == 4 * dim * 200


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
