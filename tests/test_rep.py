"""Tests for the 27-variable operator realization of the rank-6 algebra."""

import json

from hypothesis import given, settings
import hypothesis.strategies as st

from e6poly import cli, golden, liealg, polyops, rep
from e6poly.golden import (
    AMBIGUOUS_REFERENCE_ROWS,
    DISCREPANT_REFERENCE_ROWS,
    WEIGHT_TABLE_X,
)
from e6poly.polyops import apply, pscale, psub, x
from e6poly.rep import (
    all_operators,
    compare_reference_operators,
    compare_weight_tables,
    derive_cartan_action,
    derive_root_action,
    generator_certificate,
    generators,
    lowering_operator,
    raising_operator,
    verify_homomorphism,
    weight_table,
)
from e6poly.rootsys import alpha, root_system, vneg
from oracles import commutator


def test_operator_inventory():
    ops = all_operators()
    # 72 root operators plus 6 diagonal ones
    assert len(ops) == 78


def test_root_action_is_read_off_the_sign_factor(monkeypatch):
    # the operators come from rootsys.cocycle_F alone; the algebra
    # bracket serves only the other side of the homomorphism check
    ops = all_operators()

    def no_bracket(a, b):
        raise AssertionError("derive_root_action called liealg.bracket")

    monkeypatch.setattr(liealg, "bracket", no_bracket)
    monkeypatch.setattr(rep, "bracket", no_bracket)
    roots = [r[:6] for r in root_system().e6_roots]
    assert len(roots) == 72
    for root6 in roots:
        assert derive_root_action(root6) == ops[root6]


def test_operators_are_stored_in_one_first_order_form():
    # every derived operator is the WeylOp {((i,), (j,)): c} with int c,
    # and the simple raising/lowering operators are the stored objects
    ops = all_operators()
    for w in ops.values():
        assert type(w) is dict and w
        for key, c in w.items():
            (i,), (j,) = key
            assert 1 <= i <= 27 and 1 <= j <= 27
            assert type(c) is int and c
    for k in range(1, 7):
        assert raising_operator(k) is ops[alpha(k)[:6]]
        assert lowering_operator(k) is ops[vneg(alpha(k))[:6]]


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
        op = derive_cartan_action(j)
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


def test_reference_sign_change_is_found_past_the_defective_rows(monkeypatch):
    # a reference written in the convention x_5 -> -x_5: every term
    # c x_i d_j becomes eps_i eps_j c, the two defective rows included,
    # and the fit still reads the sign vector off the other rows
    eps = [1] * 28
    eps[5] = -1

    def resign(rows):
        return tuple((root6, tuple((eps[i] * eps[j] * c, i, j) for c, i, j in terms))
                     for root6, terms in rows)

    for name in ("RAISING_OPERATORS", "LOWERING_OPERATORS"):
        monkeypatch.setattr(golden, name, resign(getattr(golden, name)))
    cmp = compare_reference_operators()
    assert not cmp.ok
    assert cmp.mismatches[0] == f"uniform diagonal sign change: {tuple(eps[1:])}"


def test_typo_normalized_rows_are_the_documented_ones(capsys):
    # rep --json names the rows normalized on entry, and each is a row of
    # the printed operator tables
    assert cli.main(["rep", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["typo_normalized_rows"] == [
        cli.ser(r) for r in AMBIGUOUS_REFERENCE_ROWS]
    printed = {root6 for root6, _ in golden.RAISING_OPERATORS + golden.LOWERING_OPERATORS}
    assert set(AMBIGUOUS_REFERENCE_ROWS) <= printed


def test_homomorphism_report():
    rep = verify_homomorphism()
    assert rep.ok
    assert rep.pairs_checked == 324
    assert rep.failures == ()


def test_homomorphism_check_catches_one_wrong_sign(monkeypatch, fresh_caches):
    # negate the algebra's F(alpha_1, alpha_3) only: the operators keep
    # their own sign factor, so exactly [e_alpha_1, e_alpha_3] disagrees
    real = liealg.cocycle_F
    a1, a3 = alpha(1), alpha(3)

    def flipped(a, b):
        return -real(a, b) if (a, b) == (a1, a3) else real(a, b)

    monkeypatch.setattr(liealg, "cocycle_F", flipped)
    report = verify_homomorphism()
    assert report.ok is False
    assert report.pairs_checked == 324
    assert report.failures == ("pair #7",)


def test_homomorphism_indexes_each_generator_once(monkeypatch, fresh_caches):
    calls = []
    real = polyops._factor_index

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(polyops, "_factor_index", counted)
    assert verify_homomorphism().ok
    # 18 simple generators, one index each, not one per pair
    assert len(calls) == 18


def test_generators_are_the_simple_raising_and_lowering_operators():
    ops = all_operators()
    gens = generators()
    assert list(gens) == [key for key in ops if key in gens]
    assert sorted(map(id, gens.values())) == sorted(
        id(op(k)) for k in range(1, 7) for op in (raising_operator, lowering_operator))


def test_generator_certificate_holds_with_66_brackets():
    # 6 Cartan elements and 60 non-simple roots, one bracket each
    cert = generator_certificate()
    assert cert.ok
    assert cert.failures == ()
    assert cert.brackets == 66


def _height_three_root():
    return next(key for key in all_operators() if key[0] != "h" and sum(key) == 3)


def test_certificate_fails_on_one_flipped_sign(monkeypatch, fresh_caches):
    # one term of one height-3 root operator negated: its own identity
    # fails, and so does each identity that brackets with it
    root = _height_three_root()
    w = dict(all_operators()[root])
    term = next(iter(w))
    w[term] = -w[term]
    monkeypatch.setitem(all_operators(), root, w)
    cert = generator_certificate()
    assert not cert.ok
    assert cert.brackets == 66
    assert cert.failures[0] == root


def test_certificate_brackets_each_generator_once(monkeypatch, fresh_caches):
    calls = []
    real = rep.first_order_brackets

    def counted(ws, a):
        ws = list(ws)
        calls.append((len(ws), a))
        return real(ws, a)

    monkeypatch.setattr(rep, "first_order_brackets", counted)
    assert generator_certificate().ok
    # one call per generator that some identity reads, 66 brackets in all
    assert sum(n for n, _a in calls) == 66
    assert len(calls) <= 12
    gens = list(generators().values())
    assert all(any(a is g for g in gens) for _n, a in calls)


_k = st.integers(min_value=1, max_value=6)


@settings(max_examples=36, deadline=None)
@given(_k, _k)
def test_simple_bracket_relations(i, j):
    # [e_i, f_j] = -delta_ij h_i: the sign factor on (alpha, -alpha) is -1
    e = raising_operator(i)
    f = lowering_operator(j)
    c = commutator(e, f)
    if i == j:
        h = pscale(-1, derive_cartan_action(i))
        assert psub(c, h) == {}
    else:
        assert c == {}


@settings(max_examples=36, deadline=None)
@given(_k, st.integers(min_value=1, max_value=27))
def test_raising_lowering_shift_weights(k, v):
    # a nonzero image of a weight vector lands in a single weight again
    table = weight_table()
    for op_root in (raising_operator(k), lowering_operator(k)):
        image = apply(op_root, x(v))
        weights = set()
        for m in image:
            (idx,) = m
            weights.add(table[idx - 1])
        assert len(weights) <= 1
        if weights:
            (w,) = weights
            assert w != table[v - 1]
