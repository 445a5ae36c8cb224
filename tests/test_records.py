"""The contract every record type of the package keeps: its repr, a copy, a
deep copy and a pickle round trip that compare equal, fields that cannot be
set or deleted, and equal instances that hash equal.  One instance of each
type is built through the public functions."""

import copy
import pickle
from fractions import Fraction

import pytest

from cycleweights.bounds import check_bounds, duality_check
from cycleweights.cycles import canonicalize
from cycleweights.extremal import conjecture_table, optimize
from cycleweights.geometry import RATIONAL, Configuration
from cycleweights.pentagon import init_state, trace
from cycleweights.quadrilateral import fuzz_identity, identity_terms, verify_identity
from cycleweights.sequences import check_sequence_properties, sequence_table

P4 = ((0, 0), (2, 0), (3, 2), (1, 3))
P5 = (*P4, (-1, 1))


def _quad():
    return Configuration(P4, RATIONAL)


# type name: (build one instance, a field, repr of the instance)
CASES = {
    "Configuration": (
        lambda: Configuration(P4, RATIONAL), "points",
        'Configuration(points=((Fraction(0, 1), Fraction(0, 1)), (Fraction(2, 1),'
        ' Fraction(0, 1)), (Fraction(3, 1), Fraction(2, 1)), (Fraction(1, 1),'
        " Fraction(3, 1))), mode='rational', dim=2)",
    ),
    "Cycle": (
        lambda: canonicalize((0, 2, 1, 3)), "order",
        'Cycle(order=(0, 2, 1, 3))',
    ),
    "IdentityTerms": (
        lambda: identity_terms(_quad(), 0), "p_sq",
        'IdentityTerms(pairing=0, l_sq=(Fraction(4, 1), Fraction(5, 1),'
        ' Fraction(5, 1), Fraction(10, 1), Fraction(13, 1), Fraction(10, 1)),'
        ' p_sq=Fraction(29, 4), q_sq=Fraction(17, 4), r_sq=Fraction(1, 4),'
        ' lhs=Fraction(24, 1), rhs=Fraction(24, 1), residual=Fraction(0, 1))',
    ),
    "IterationState": (
        lambda: init_state(Configuration(P5, RATIONAL), canonicalize(range(5))), "d",
        'IterationState(level=1, points=((Fraction(0, 1), Fraction(0, 1)),'
        ' (Fraction(3, 1), Fraction(2, 1)), (Fraction(-1, 1), Fraction(1, 1)),'
        ' (Fraction(2, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(3, 1))),'
        " d=Fraction(60, 1), e=Fraction(24, 1), mode='rational')",
    ),
    "CycleRow": (
        lambda: check_bounds(Configuration(P4, RATIONAL)).rows[0], "ratio",
        'CycleRow(config_id=0, cycle=Cycle(order=(0, 1, 2, 3)),'
        ' w_cycle=Fraction(24, 1), w_complement=Fraction(23, 1),'
        " w_total=Fraction(47, 1), ratio=Fraction(24, 47), verdict='holds')",
    ),
    "BoundReport": (
        lambda: check_bounds(Configuration(P4, RATIONAL)), "rows",
        "BoundReport(n=4, mode='rational', tolerance=1e-09, trials=1, checks=3,"
        ' violations=0, degenerate=0, equalities=0, min_ratio=Fraction(24, 47),'
        ' max_ratio=Fraction(38, 47), rows=(CycleRow(config_id=0,'
        ' cycle=Cycle(order=(0, 1, 2, 3)), w_cycle=Fraction(24, 1),'
        ' w_complement=Fraction(23, 1), w_total=Fraction(47, 1),'
        " ratio=Fraction(24, 47), verdict='holds'), CycleRow(config_id=0,"
        ' cycle=Cycle(order=(0, 1, 3, 2)), w_cycle=Fraction(32, 1),'
        ' w_complement=Fraction(15, 1), w_total=Fraction(47, 1),'
        " ratio=Fraction(32, 47), verdict='holds'), CycleRow(config_id=0,"
        ' cycle=Cycle(order=(0, 2, 1, 3)), w_cycle=Fraction(38, 1),'
        ' w_complement=Fraction(9, 1), w_total=Fraction(47, 1), ratio=Fraction(38, 47),'
        " verdict='holds')))",
    ),
    "DualityRow": (
        lambda: duality_check(Configuration(P5, RATIONAL)).rows[0], "residual",
        'DualityRow(cycle=Cycle(order=(0, 1, 2, 3, 4)), complement=Cycle(order=(0, 2, 4, 1, 3)),'
        ' ratio=Fraction(2, 7), complement_ratio=Fraction(5, 7),'
        ' residual=Fraction(0, 1), lower_attained=False, upper_attained=False)',
    ),
    "DualityReport": (
        lambda: duality_check(Configuration(P5, RATIONAL)), "verdict",
        "DualityReport(mode='rational', tolerance=1e-12, verdict='holds',"
        ' rows=(DualityRow(cycle=Cycle(order=(0, 1, 2, 3, 4)),'
        ' complement=Cycle(order=(0, 2, 4, 1, 3)), ratio=Fraction(2, 7),'
        ' complement_ratio=Fraction(5, 7), residual=Fraction(0, 1),'
        ' lower_attained=False, upper_attained=False),'
        ' DualityRow(cycle=Cycle(order=(0, 1, 2, 4, 3)),'
        ' complement=Cycle(order=(0, 2, 3, 1, 4)), ratio=Fraction(11, 21),'
        ' complement_ratio=Fraction(10, 21), residual=Fraction(0, 1),'
        ' lower_attained=False, upper_attained=False),'
        ' DualityRow(cycle=Cycle(order=(0, 1, 3, 2, 4)),'
        ' complement=Cycle(order=(0, 2, 1, 4, 3)), ratio=Fraction(19, 42),'
        ' complement_ratio=Fraction(23, 42), residual=Fraction(0, 1),'
        ' lower_attained=False, upper_attained=False),'
        ' DualityRow(cycle=Cycle(order=(0, 1, 3, 4, 2)),'
        ' complement=Cycle(order=(0, 3, 2, 1, 4)), ratio=Fraction(13, 21),'
        ' complement_ratio=Fraction(8, 21), residual=Fraction(0, 1),'
        ' lower_attained=False, upper_attained=False),'
        ' DualityRow(cycle=Cycle(order=(0, 1, 4, 2, 3)),'
        ' complement=Cycle(order=(0, 2, 1, 3, 4)), ratio=Fraction(23, 42),'
        ' complement_ratio=Fraction(19, 42), residual=Fraction(0, 1),'
        ' lower_attained=False, upper_attained=False),'
        ' DualityRow(cycle=Cycle(order=(0, 1, 4, 3, 2)),'
        ' complement=Cycle(order=(0, 3, 1, 2, 4)), ratio=Fraction(10, 21),'
        ' complement_ratio=Fraction(11, 21), residual=Fraction(0, 1),'
        ' lower_attained=False, upper_attained=False),'
        ' DualityRow(cycle=Cycle(order=(0, 2, 1, 3, 4)),'
        ' complement=Cycle(order=(0, 1, 4, 2, 3)), ratio=Fraction(19, 42),'
        ' complement_ratio=Fraction(23, 42), residual=Fraction(0, 1),'
        ' lower_attained=False, upper_attained=False),'
        ' DualityRow(cycle=Cycle(order=(0, 2, 1, 4, 3)),'
        ' complement=Cycle(order=(0, 1, 3, 2, 4)), ratio=Fraction(23, 42),'
        ' complement_ratio=Fraction(19, 42), residual=Fraction(0, 1),'
        ' lower_attained=False, upper_attained=False),'
        ' DualityRow(cycle=Cycle(order=(0, 2, 3, 1, 4)),'
        ' complement=Cycle(order=(0, 1, 2, 4, 3)), ratio=Fraction(10, 21),'
        ' complement_ratio=Fraction(11, 21), residual=Fraction(0, 1),'
        ' lower_attained=False, upper_attained=False),'
        ' DualityRow(cycle=Cycle(order=(0, 2, 4, 1, 3)),'
        ' complement=Cycle(order=(0, 1, 2, 3, 4)), ratio=Fraction(5, 7),'
        ' complement_ratio=Fraction(2, 7), residual=Fraction(0, 1),'
        ' lower_attained=False, upper_attained=False),'
        ' DualityRow(cycle=Cycle(order=(0, 3, 1, 2, 4)),'
        ' complement=Cycle(order=(0, 1, 4, 3, 2)), ratio=Fraction(11, 21),'
        ' complement_ratio=Fraction(10, 21), residual=Fraction(0, 1),'
        ' lower_attained=False, upper_attained=False),'
        ' DualityRow(cycle=Cycle(order=(0, 3, 2, 1, 4)),'
        ' complement=Cycle(order=(0, 1, 3, 4, 2)), ratio=Fraction(8, 21),'
        ' complement_ratio=Fraction(13, 21), residual=Fraction(0, 1),'
        ' lower_attained=False, upper_attained=False)))',
    ),
    "OptimizationResult": (
        lambda: optimize(1, 4, restarts=1, budget=2), "value",
        "OptimizationResult(n=4, dim=2, objective='maximize',"
        ' value=0.9848309925813805,'
        ' config=Configuration(points=((-0.13961677478524367, 0.14558457705222616),'
        ' (0.17593440616018846, -0.13531230350959042), (-0.2526230774401053, 0.15201144882333312),'
        " (0.21630544606516058, -0.16228372236596886)), mode='float', dim=2),"
        ' cycle=Cycle(order=(0, 1, 2, 3)), restarts=1, sweeps=2, best_restart=0,'
        ' bound=(0.5, 1.0), within_bounds=True, history=(0.6335306945646186, 0.6627188534638274, 0.7037361577483315, 0.8009467369738542, 0.9068938780627599, 0.9193347533325211, 0.9819916971783192, 0.9832322279398024, 0.9848309925813805),'
        ' evals=29, rescores=8, acceptances=8, halvings=0)',
    ),
    "ConjectureRow": (
        lambda: conjecture_table(1, (4,), restarts=1, budget=2)[0], "minimum",
        'ConjectureRow(n=4, minimum=OptimizationResult(n=4, dim=2,'
        " objective='minimize', value=0.5024440560520299,"
        ' config=Configuration(points=((0.15418595262348414, -0.07005136533011329),'
        ' (-0.0640779203079492, 0.2839497840067882), (-0.18813239990735972, 0.07839802590892914),'
        " (0.09802436759182478, -0.29229644458560405)), mode='float', dim=2),"
        ' cycle=Cycle(order=(0, 1, 2, 3)), restarts=1, sweeps=2, best_restart=0,'
        ' bound=(0.5, 1.0), within_bounds=True, history=(0.6335306945646186, 0.6177993746115746, 0.5413619103028369, 0.5400706661629908, 0.5024440560520299),'
        ' evals=29, rescores=4, acceptances=4, halvings=1),'
        " maximum=OptimizationResult(n=4, dim=2, objective='maximize',"
        ' value=0.9848309925813805,'
        ' config=Configuration(points=((-0.13961677478524367, 0.14558457705222616),'
        ' (0.17593440616018846, -0.13531230350959042), (-0.2526230774401053, 0.15201144882333312),'
        " (0.21630544606516058, -0.16228372236596886)), mode='float', dim=2),"
        ' cycle=Cycle(order=(0, 1, 2, 3)), restarts=1, sweeps=2, best_restart=0,'
        ' bound=(0.5, 1.0), within_bounds=True, history=(0.6335306945646186, 0.6627188534638274, 0.7037361577483315, 0.8009467369738542, 0.9068938780627599, 0.9193347533325211, 0.9819916971783192, 0.9832322279398024, 0.9848309925813805),'
        ' evals=29, rescores=8, acceptances=8, halvings=0), proven=(0.5, 1.0),'
        ' min_cycle=Cycle(order=(0, 1, 2, 3)), min_cycle_value=0.5024440560520299,'
        ' max_cycle=Cycle(order=(0, 1, 2, 3)),'
        ' max_cycle_value=0.9848309925813805)',
    ),
    "IdentityReport": (
        lambda: verify_identity(_quad(), 0), "verdict",
        "IdentityReport(verdict='holds', terms=IdentityTerms(pairing=0,"
        ' l_sq=(Fraction(4, 1), Fraction(5, 1), Fraction(5, 1), Fraction(10, 1),'
        ' Fraction(13, 1), Fraction(10, 1)), p_sq=Fraction(29, 4),'
        ' q_sq=Fraction(17, 4), r_sq=Fraction(1, 4), lhs=Fraction(24, 1),'
        ' rhs=Fraction(24, 1), residual=Fraction(0, 1)), tolerance=1e-09,'
        " mode='rational')",
    ),
    "IdentityFuzzReport": (
        lambda: fuzz_identity(1, 2, mode=RATIONAL), "violations",
        "IdentityFuzzReport(trials=2, dim=2, mode='rational', tolerance=1e-09,"
        ' checks=6, violations=0, max_rel_residual=0.0)',
    ),
    "Trace": (
        lambda: trace(Configuration(P5, RATIONAL), canonicalize(range(5)), 1), "states",
        "Trace(mode='rational', states=(IterationState(level=1,"
        ' points=((Fraction(0, 1), Fraction(0, 1)), (Fraction(3, 1), Fraction(2, 1)),'
        ' (Fraction(-1, 1), Fraction(1, 1)), (Fraction(2, 1), Fraction(0, 1)),'
        ' (Fraction(1, 1), Fraction(3, 1))), d=Fraction(60, 1), e=Fraction(24, 1),'
        " mode='rational'), IterationState(level=2, points=((Fraction(3, 2),"
        ' Fraction(1, 1)), (Fraction(1, 1), Fraction(3, 2)), (Fraction(1, 2),'
        ' Fraction(1, 2)), (Fraction(3, 2), Fraction(3, 2)), (Fraction(1, 2),'
        " Fraction(3, 2))), d=Fraction(6, 1), e=Fraction(3, 1), mode='rational')),"
        ' res_a=(Fraction(0, 1),), res_b=(Fraction(0, 1),), res_c=())',
    ),
    "SequenceTable": (
        lambda: sequence_table(3), "terms",
        'SequenceTable(terms=(Fraction(0, 1), Fraction(1, 1), Fraction(3, 4),'
        ' Fraction(1, 2)), ratios=(Fraction(3, 4), Fraction(2, 3)),'
        ' bound_values=(Fraction(8, 3), Fraction(21, 8)))',
    ),
    "SequencePropertyReport": (
        lambda: check_sequence_properties(3), "verdict",
        'SequencePropertyReport(n_checked=3, positive_decreasing=True,'
        ' ratio_above_limit=True, ratio_nonincreasing=True,'
        " final_ratio_gap=0.0017415028125262744, verdict='holds')",
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_repr_is_pinned(case):
    make, _, text = case
    assert repr(make()) == text


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
])
def test_copies_are_equal(case, duplicate):
    make, _, text = case
    record = make()
    twin = duplicate(record)
    assert type(twin) is type(record) and twin == record and repr(twin) == text


def test_fields_are_read_only(case):
    make, field, text = case
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == text


def test_equal_instances_hash_equal(case):
    make, _, _ = case
    a, b = make(), make()
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
])
def test_exact_terms_survive_a_copy(duplicate):
    terms = duplicate(identity_terms(_quad(), 0))
    assert terms.p_sq == Fraction(29, 4) and terms.l_sq[4] == 13
