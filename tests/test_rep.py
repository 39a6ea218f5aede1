"""Tests for the 27-variable operator realization of the rank-6 algebra."""

from hypothesis import given, settings
import hypothesis.strategies as st

from e6poly import polyops
from e6poly.golden import (
    AMBIGUOUS_REFERENCE_ROWS,
    DISCREPANT_REFERENCE_ROWS,
    WEIGHT_TABLE_X,
)
from e6poly.polyops import apply, commutator, op_scale, op_sub, x
from e6poly.rep import (
    all_operators,
    compare_reference_operators,
    compare_weight_tables,
    derive_cartan_action,
    lowering_operator,
    raising_operator,
    verify_homomorphism,
    weight_table,
)


def test_operator_inventory():
    ops = all_operators()
    # 72 root operators plus 6 diagonal ones
    assert len(ops) == 78


def test_weight_table_matches_reference():
    cmp = compare_weight_tables()
    assert cmp.ok
    assert cmp.rows_compared == 27
    assert cmp.mismatches == ()


def test_weight_table_shape():
    table = weight_table()
    assert len(table) == 27
    assert all(len(row) == 6 for row in table)
    assert table == WEIGHT_TABLE_X


def test_diagonal_action_is_diagonal():
    for j in range(1, 7):
        op = derive_cartan_action(j).weyl()
        for v in range(1, 28):
            image = apply(op, x(v))
            assert set(image) <= {next(iter(x(v)))}


def test_reference_operator_comparison():
    cmp = compare_reference_operators()
    assert cmp.ok
    assert cmp.rows_compared == 72
    assert cmp.mismatches == ()
    # exactly the two known-defective printed rows get flagged
    assert len(cmp.flagged) == len(DISCREPANT_REFERENCE_ROWS) == 2
    for root in DISCREPANT_REFERENCE_ROWS:
        assert any(str(root) in entry for entry in cmp.flagged)


def test_typo_normalized_rows_are_the_documented_ones():
    cmp = compare_reference_operators()
    assert set(cmp.normalized_rows) == set(AMBIGUOUS_REFERENCE_ROWS)


def test_homomorphism_report():
    rep = verify_homomorphism()
    assert rep.ok
    assert rep.pairs_checked == 324
    assert rep.failures == ()


def test_homomorphism_indexes_each_generator_once(monkeypatch):
    calls = []
    real = polyops._factor_index

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(polyops, "_factor_index", counted)
    assert verify_homomorphism().ok
    # 18 simple generators, one index each, not one per pair
    assert len(calls) == 18


_k = st.integers(min_value=1, max_value=6)


@settings(max_examples=36, deadline=None)
@given(_k, _k)
def test_simple_bracket_relations(i, j):
    # [e_i, f_j] = -delta_ij h_i: the sign factor on (alpha, -alpha) is -1
    e = raising_operator(i).weyl()
    f = lowering_operator(j).weyl()
    c = commutator(e, f)
    if i == j:
        h = op_scale(-1, derive_cartan_action(i).weyl())
        assert op_sub(c, h) == {}
    else:
        assert c == {}


@settings(max_examples=36, deadline=None)
@given(_k, st.integers(min_value=1, max_value=27))
def test_raising_lowering_shift_weights(k, v):
    # a nonzero image of a weight vector lands in a single weight again
    table = weight_table()
    for op_root in (raising_operator(k), lowering_operator(k)):
        image = apply(op_root.weyl(), x(v))
        weights = set()
        for m in image:
            (idx,) = m
            weights.add(table[idx - 1])
        assert len(weights) <= 1
        if weights:
            (w,) = weights
            assert w != table[v - 1]
