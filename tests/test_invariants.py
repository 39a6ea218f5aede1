"""Tests for the cubic invariant, the dual quadratic family, and the
operator calculus built from them.

Printed reference data is compared explicitly where it is known to be
defective; those comparisons pin the size and location of each defect
so that silent drift in either direction fails the suite.
"""

import json
import random
import re
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from e6poly import cli, golden, invariants, polyops, singular
from e6poly.golden import (
    CLAIMED_BRACKET_TRIPLE,
    CLAIMED_PAIRING_BRACKET,
    DSIGNS,
    SIGMA,
    iota,
)
from e6poly.invariants import (
    annihilation,
    bilinear_eta,
    bilinear_reference_full,
    bilinear_relation_dim,
    build_eta,
    build_zeta_family,
    cubic_operator,
    derived_cubic_scalar,
    eta_report,
    family,
    lemma_bracket_triple,
    lemma_cubic_action,
    lemma_pairing_bracket,
    lemma_pairing_eigenvalue,
    pairing_operator,
    plain_involution_defect,
    sigma_root,
    tau,
    verify_dual_module,
    verify_invariance,
)
from e6poly.polyops import (
    apply,
    dualize,
    euler_operator,
    first_order_brackets,
    format_poly,
    leibniz_bracket,
    monomial,
    padd,
    pmul,
    poly_to_json,
    ppow,
    pscale,
    psub,
    x,
)
from e6poly.rep import (
    all_operators,
    generator_certificate,
    generators,
    weight_table,
)
from e6poly.rootsys import root_system
from oracles import (
    annihilated_by_all_full,
    commutator,
    cubic_scalar_full,
    dual_columns_full,
    fraction_kernel,
    monomial_weight,
    multiplication,
    tau_dual,
    verify_dual_module_full,
    verify_invariance_full,
)

# --- the cubic invariant ---------------------------------------------


def test_eta_shape():
    eta = build_eta()
    assert len(eta) == 45
    assert set(eta.values()) == {3, -3}
    assert all(len(m) == 3 for m in eta)
    assert all(len(set(m)) == 3 for m in eta)  # squarefree


def test_eta_weight_zero():
    eta = build_eta()
    for m in eta:
        assert monomial_weight(m) == (0, 0, 0, 0, 0, 0)


def test_eta_support_is_every_zero_weight_triple():
    # independent of the singular-space solver: the support of eta is
    # exactly the set of index triples whose x-weights sum to zero
    table = weight_table()
    zero_triples = {
        m for m in combinations_with_replacement(range(1, 28), 3)
        if not any(sum(col) for col in zip(*(table[v - 1] for v in m)))
    }
    assert len(zero_triples) == 45
    assert zero_triples == set(build_eta())


def test_eta_report_is_clean():
    r = eta_report()
    assert r.ok
    assert r.annihilated_by_all
    assert r.bilinear_signs_match
    assert r.scan_line_match
    assert r.bilinear_relation_dim == 6


def test_eta_annihilation_agrees_with_the_78_operator_route():
    assert eta_report().annihilated_by_all
    assert annihilated_by_all_full(build_eta())


# --- the singular scan as the second route --------------------------

def _scan_line(degree, weight):
    (line,) = dict(singular.enumerate_singular(degree).bases)[weight]
    return line


def test_builds_do_not_read_the_singular_scan(monkeypatch, fresh_caches):
    built = (build_eta(), build_zeta_family(), pairing_operator())
    fresh_caches()

    def boom(degree):
        raise AssertionError(f"the singular scan ran at degree {degree}")

    monkeypatch.setattr(invariants, "enumerate_singular", boom)
    monkeypatch.setattr(singular, "enumerate_singular", boom)
    assert (build_eta(), build_zeta_family(), pairing_operator()) == built


def test_eta_is_three_times_the_scan_line():
    assert build_eta() == pscale(3, _scan_line(3, invariants.ZERO_WEIGHT))


def test_zeta_1_is_the_scan_line():
    assert build_zeta_family()[1] == _scan_line(2, invariants.LAMBDA6)


def _partial(f, k):
    """d f / d x_k, by hand."""
    out = {}
    for mono, c in f.items():
        if k in mono:
            rest = list(mono)
            rest.remove(k)
            out[tuple(rest)] = mono.count(k) * c
    return out


def test_pairing_operator_is_the_square_of_the_gradient_of_eta():
    # (1/9) sum_k d_k eta(x) d_k eta(d): the d-signs square away, so
    # neither iota nor the signs enter
    eta = build_eta()
    terms = []
    for k in range(1, 28):
        g = _partial(eta, k)
        terms += [((xm, dm), Fraction(cx * cd, 9))
                  for xm, cx in g.items() for dm, cd in g.items()]
    assert pairing_operator() == polyops.poly(terms)


def test_a_flipped_cocycle_breaks_eta(capsys, monkeypatch, fresh_caches):
    # negate F whenever a_1 is odd; this flips 33 of the 45 terms (such
    # flips on a_1..a_6 change 14 to 41).  The a_7 class would not do:
    # every basis root has k_7 = 1, so that flip negates all 45 terms
    # and leaves eta invariant.
    ops = all_operators()
    real = invariants.cocycle_F
    monkeypatch.setattr(invariants, "cocycle_F",
                        lambda a, b: -real(a, b) if a[0] % 2 else real(a, b))
    eta = build_eta()
    assert any(apply(w, eta) for w in ops.values())
    assert not verify_invariance(dualize(eta), "D").ok
    code = cli.main(["invariant", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert "Traceback" not in captured.out
    rows = {r["check_id"]: r for r in json.loads(captured.out)["reports"]}
    assert rows["invariant.eta"]["status"] == "fail"


def test_eta_printed_expansion_defects_are_exactly_thirteen():
    r = eta_report()
    assert len(r.expansion_diffs) == 13
    assert not r.printed_expansion_invariant
    assert r.printed_residual_terms == 13


def test_eta_printed_bilinear_misses_five_monomials():
    r = eta_report()
    assert r.printed_bilinear_residual_terms == 5
    # the full 27-product identity reproduces eta exactly
    full = bilinear_eta(bilinear_reference_full())
    assert psub(full, build_eta()) == {}


def test_bilinear_products_span_codimension_six():
    assert bilinear_relation_dim() == 6


def test_bilinear_terms_cover_all_members():
    terms = bilinear_reference_full()
    assert len(terms) == 27
    assert {v for _c, v, _z in terms} == set(range(1, 28))
    for c, v, z in terms:
        assert z == iota(v)
        assert c == DSIGNS[v]


def test_serialization_lists_terms_in_graded_lex_order():
    # graded lexicographic with x1 > ... > x27: higher degree first, then
    # larger exponent lists first; format_poly walks the same order
    for f, first in ((build_zeta_family()[1], "x1*x14"),
                     (build_eta(), "3*x1*x14*x27")):
        exps = [tuple(int(e) for e in t["exponents"]) for t in poly_to_json(f)]
        assert len(exps) == len(set(exps)) == len(f)
        assert all(len(e) == 27 for e in exps)
        keys = [(sum(e), e) for e in exps]
        assert keys == sorted(keys, reverse=True)
        bodies = [
            "*".join(f"x{i}" + (f"^{k}" if k > 1 else "")
                     for i, k in enumerate(e, start=1) if k)
            for e in exps
        ]
        text = format_poly(f)
        assert text.startswith(first)
        assert re.findall(r"x\d+(?:\^\d+)?(?:\*x\d+(?:\^\d+)?)*", text) == bodies


# --- the dual quadratic family ---------------------------------------


def test_zeta_family_matches_printed_low_members():
    from e6poly.invariants import zeta_reference_diff

    fam = build_zeta_family()
    assert zeta_reference_diff(fam) == ()
    assert len(fam) == 27


def test_zeta_family_spans_rank_27():
    r = verify_dual_module()
    assert r.rank == 27
    assert r.ok


def test_zeta_weights_match_printed_table():
    r = verify_dual_module()
    # a zeta_i off its derived Cartan eigenvalue is an "h_j ..." failure
    assert not any(f.startswith("h_") for f in r.failures)
    assert r.cartan_reference_ok


def _simple_root_signs(r):
    return [s for root, s in r.nu_signs if sum(root) == 1]


def test_nu_signs():
    r = verify_dual_module()
    assert _simple_root_signs(r) == [1] * 6
    signs = [s for _root, s in r.nu_signs]
    assert all(s in (1, -1) for s in signs)
    assert len(signs) == 36
    assert signs.count(-1) == 14


def test_dual_module_applies_and_solves_no_member(monkeypatch):
    # the action on the family is read off the operators' matrices: no
    # zeta reaches `apply` and no image is solved in the span
    fam = build_zeta_family()
    all_operators()
    applied, solved = [], []
    real_apply = invariants.apply
    real_scalars = invariants._scalars

    def counted_apply(w, f):
        applied.append(f)
        return real_apply(w, f)

    def counted_scalars(target, *basis):
        solved.append(target)
        return real_scalars(target, *basis)

    monkeypatch.setattr(invariants, "apply", counted_apply)
    monkeypatch.setattr(invariants, "_scalars", counted_scalars)
    r = verify_dual_module()
    assert r.ok and r.ops_checked == 42
    assert not any(f == z for f in applied for z in fam.values())
    assert solved == []


def test_dual_matrices_equal_the_apply_and_solve_columns():
    # the gradient rule gives every operator's columns, all 78 of them,
    # exactly as applying it to each zeta and solving the image does
    full = dual_columns_full()
    assert len(full) == 78
    for key, w in all_operators().items():
        solved = {(l, k): c for k, col in enumerate(full[key], start=1)
                  for l, c in col.items()}
        assert invariants._dual_matrix(w) == solved, key


_N = None
CORRUPTED_FAMILIES = {
    "flip-zeta2": dict(
        member=2, corrupt=lambda z: pscale(-1, z),
        signs=(_N, _N, -1, 1, _N, 1, 1, -1, _N, -1, 1, 1, _N, 1, -1, _N, -1, _N,
               -1, _N, 1, -1, 1, _N, 1, 1, _N, 1, _N, 1, _N, _N, -1, _N, _N, _N),
        span_failures=(),
        failures=(
            "dual action law fails at simple root (0, 0, 0, 0, 0, 1)",
            "dual action law fails at simple root (0, 0, 0, 0, 1, 0)",
        ),
    ),
    "x1-squared-zeta5": dict(
        member=5, corrupt=lambda z: pmul(x(1), x(1)),
        signs=(1, 1, -1, 1, -1, 1, _N, _N, _N, _N, _N, _N, _N, _N, -1, 1, -1, 1,
               -1, 1, _N, -1, 1, -1, 1, _N, _N, _N, _N, _N, _N, 1, -1, 1, 1, _N),
        span_failures=tuple(
            f"root {root} on zeta_5" for root in (
                (-1, -2, -2, -3, -2, -1), (-1, -1, -2, -3, -2, -1),
                (-1, -1, -2, -2, -2, -1), (-1, -1, -2, -2, -1, -1),
                (-1, -1, -2, -2, -1, 0), (-1, -1, -1, -2, -2, -1),
                (-1, -1, -1, -2, -1, -1), (-1, -1, -1, -2, -1, 0),
                (-1, -1, -1, -1, -1, -1), (-1, -1, -1, -1, -1, 0),
                (-1, -1, -1, -1, 0, 0), (-1, 0, -1, -1, -1, -1),
                (-1, 0, -1, -1, -1, 0), (-1, 0, -1, -1, 0, 0),
                (-1, 0, -1, 0, 0, 0), (-1, 0, 0, 0, 0, 0),
            )
        ) + tuple(
            f"root {root} on zeta_{j}" for root, j in (
                ((0, 0, -1, -1, -1, -1), 1), ((0, 0, -1, -1, -1, 0), 2),
                ((0, 0, -1, -1, 0, 0), 3), ((0, 0, -1, 0, 0, 0), 4),
                ((0, 1, 0, 0, 0, 0), 7), ((0, 1, 0, 1, 0, 0), 9),
                ((0, 1, 0, 1, 1, 0), 11), ((0, 1, 0, 1, 1, 1), 14),
                ((1, 0, 0, 0, 0, 0), 8), ((1, 1, 1, 1, 0, 0), 13),
                ((1, 1, 1, 1, 1, 0), 16), ((1, 1, 1, 1, 1, 1), 19),
                ((1, 1, 1, 2, 1, 0), 18), ((1, 1, 1, 2, 1, 1), 21),
                ((1, 1, 1, 2, 2, 1), 22), ((1, 2, 2, 3, 2, 1), 26),
            )
        ),
        failures=(
            "dual action law fails at simple root (0, 0, 1, 0, 0, 0)",
            "dual action law fails at simple root (0, 1, 0, 0, 0, 0)",
            "dual action law fails at simple root (1, 0, 0, 0, 0, 0)",
            "h_1 not scalar 1 on zeta_5",
            "h_2 not scalar 1 on zeta_5",
            "h_3 not scalar -1 on zeta_5",
        ),
    ),
}


def _dual_row_fails(capsys):
    """`invariant --json` exits 1 with no traceback, and its
    `invariant.dual-family` row fails."""
    code = cli.main(["invariant", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err + captured.out
    rows = {r["check_id"]: r for r in json.loads(captured.out)["reports"]}
    assert rows["invariant.dual-family"]["status"] == "fail"


@pytest.mark.parametrize("case", sorted(CORRUPTED_FAMILIES))
def test_dual_module_reports_a_corrupted_family(monkeypatch, capsys, fresh_caches, case):
    # on the 78-operator route a sign flip breaks only the dual-action
    # law; x_1^2 also leaves the span and breaks the Cartan eigenvalues
    # on its member.  The package reads the operators' matrices, which
    # no family changes, so it fails the gradient premise instead
    want = CORRUPTED_FAMILIES[case]
    zetas = dict(build_zeta_family())
    k = want["member"]
    zetas[k] = want["corrupt"](zetas[k])
    monkeypatch.setattr(invariants, "build_zeta_family", lambda: zetas)
    full = verify_dual_module_full()
    positive = [p[:6] for p in root_system().e6_positive]
    assert full.nu_signs == tuple(zip(positive, want["signs"]))
    assert full.span_failures == want["span_failures"]
    assert full.failures == want["failures"]
    assert _simple_root_signs(full) != [1] * 6
    assert full.ops_checked == 78 and not full.ok
    r = verify_dual_module()
    assert r.failures == ("the family is not eta's signed gradient",)
    assert r.rank == 27 and r.ops_checked == 42 and not r.ok
    _dual_row_fails(capsys)


@pytest.mark.parametrize("case", [None, *sorted(CORRUPTED_FAMILIES)])
def test_dual_module_agrees_with_the_78_operator_route(monkeypatch, case):
    if case is not None:
        want = CORRUPTED_FAMILIES[case]
        zetas = dict(build_zeta_family())
        zetas[want["member"]] = want["corrupt"](zetas[want["member"]])
        monkeypatch.setattr(invariants, "build_zeta_family", lambda: zetas)
    r, full = verify_dual_module(), verify_dual_module_full()
    if case is None:
        for field in ("rank", "nu_signs", "failures", "cartan_reference_ok"):
            assert getattr(r, field) == getattr(full, field), field
    assert r.ok == full.ok == (case is None)


def test_dual_module_needs_eta_killed(monkeypatch, capsys, fresh_caches):
    # a cubic off the invariant, one sign flipped, with its own signed
    # gradient as the family: the matrices still satisfy the action law,
    # so only the annihilation premise fails the row
    eta = dict(build_eta())
    first = min(eta)
    eta[first] = -eta[first]
    gradient = invariants._signed_gradient(eta)
    fresh_caches()
    monkeypatch.setattr(invariants, "build_eta", lambda: eta)
    monkeypatch.setattr(invariants, "build_zeta_family", lambda: gradient)
    r = verify_dual_module()
    assert r.failures == ("eta is not killed by the generators under the certificate",)
    assert r.rank == 27 and not r.ok
    _dual_row_fails(capsys)


def test_dual_module_needs_the_diagram_automorphism(monkeypatch, capsys):
    # sigma sending alpha_1 to alpha_2 instead of alpha_6 breaks the
    # dual-action law at alpha_1 alone
    real = invariants.sigma_root
    alpha1, alpha2 = (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)
    monkeypatch.setattr(invariants, "sigma_root",
                        lambda r: alpha2 if r == alpha1 else real(r))
    r = verify_dual_module()
    assert r.failures == (f"dual action law fails at simple root {alpha1}",)
    assert dict(r.nu_signs)[alpha1] is None
    _dual_row_fails(capsys)


def test_dual_module_rank_counts_independent_members(monkeypatch):
    # a repeated member leaves 26 independent quadratics, and the
    # "27 independent quadratics" claim fails
    zetas = dict(build_zeta_family())
    zetas[2] = zetas[1]
    monkeypatch.setattr(invariants, "build_zeta_family", lambda: zetas)
    r = verify_dual_module()
    assert r.rank == 26
    assert not r.ok


def test_plain_relabeling_rule_escapes_on_nine_members():
    bad = [i for i, ok in plain_involution_defect() if not ok]
    assert bad == [18, 20, 21, 22, 23, 24, 25, 26, 27]


def test_signed_involution_generates_the_high_members():
    fam = build_zeta_family()
    for i in range(16, 28):
        assert fam[i] == pscale(-DSIGNS[i], tau_dual(fam[28 - i]))


_v = st.integers(min_value=1, max_value=27)


@settings(max_examples=100)
@given(_v)
def test_variable_involution_is_an_involution(i):
    assert tau(tau(x(i))) == x(i)
    assert tau_dual(tau_dual(x(i))) == x(i)


@settings(max_examples=50)
@given(_v, _v)
def test_signed_involution_on_products(i, j):
    f = pmul(x(i), x(j))
    assert tau_dual(tau_dual(f)) == f
    expected = pscale(
        DSIGNS[i] * DSIGNS[j],
        pmul(x(iota(i)), x(iota(j))),
    )
    assert tau_dual(f) == expected


def test_sigma_is_an_involution_of_order_two():
    image = [SIGMA[SIGMA[i - 1] - 1] for i in range(1, 7)]
    assert image == [1, 2, 3, 4, 5, 6]


def test_sigma_root_preserves_the_root_set():
    from e6poly.rootsys import root_system

    rs = root_system()
    e6 = {r[:6] for r in rs.e6_roots}
    for r in e6:
        assert sigma_root(r) in e6
        assert sigma_root(sigma_root(r)) == r


# --- invariant operators ---------------------------------------------


def invariant_operators():
    return (("D", cubic_operator()), ("D1", euler_operator()),
            ("D2", pairing_operator()))


def test_operators_commute_with_every_generator():
    for label, op in invariant_operators():
        report = verify_invariance(op, label)
        assert report.ok, report.failures
        assert report.certified
        assert report.ops_checked == 12


NON_INVARIANT = (("mult x1", multiplication(x(1))),
                 ("dual x1^3", dualize(ppow(x(1), 3))))


@pytest.mark.parametrize("label", ["D", "D1", "D2", "mult x1", "dual x1^3"])
def test_invariance_agrees_with_the_78_operator_route(label):
    op = dict(invariant_operators() + NON_INVARIANT)[label]
    full = verify_invariance_full(op, label)
    assert full.ops_checked == 78
    assert verify_invariance(op, label).ok == full.ok == label.startswith("D")


def test_multiplication_by_x1_fails_on_a_lowering_generator_only():
    # x_1 spans the highest weight line: the raising generators kill it,
    # so mult(x_1) commutes with them, and f_1 alone moves it
    report = verify_invariance(multiplication(x(1)), "mult x1")
    raising = [key for key in generators() if sum(key) == 1]
    assert len(raising) == 6
    assert report.failures == ((-1, 0, 0, 0, 0, 0),)
    assert not set(report.failures) & set(raising)
    assert report.certified and not report.ok


def test_verify_invariance_indexes_each_operator_once(monkeypatch):
    ops = invariant_operators()
    generator_certificate()  # cached, so its generator indexes are not counted
    calls = []
    real = polyops._factor_index

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(polyops, "_factor_index", counted)
    for label, op in ops:
        assert verify_invariance(op, label).ops_checked == 12
    # one index per operator, shared by its 12 generator brackets
    assert calls == [op for _label, op in ops]


def test_derivation_route_matches_commutator_on_invariant_operators():
    # oracle for the fast route of verify_invariance: 12 seeded generators
    # against D, D1, D2, compared with generic normal-ordered composition
    gens = random.Random(20240823).sample(list(all_operators().values()), 12)
    for _label, op in invariant_operators():
        for w, b in zip(gens, first_order_brackets(gens, op), strict=True):
            assert b == pscale(-1, commutator(op, w))


def test_derivation_route_matches_commutator_on_generator_pairs():
    gens = list(all_operators().values())
    rng = random.Random(7)
    for _ in range(50):
        wa, wb = rng.choice(gens), rng.choice(gens)
        assert first_order_brackets([wa], wb) == [commutator(wa, wb)]


def test_invariance_failures_match_commutator_loop():
    # operators that do not commute: the fast route names the same
    # generators, in the same order, as a commutator-based loop, and the
    # 78-operator route names every operator that loop flags
    gens = generators()
    for label, op in NON_INVARIANT:
        expected = tuple(key for key, w in all_operators().items()
                         if commutator(op, w))
        report = verify_invariance(op, label)
        assert expected
        assert report.failures == tuple(key for key in expected if key in gens)
        assert report.failures
        assert not report.ok
        assert verify_invariance_full(op, label).failures == expected


def test_a_flipped_sign_off_the_generators_fails_every_invariance_row(
        capsys, monkeypatch, fresh_caches):
    # one term of one height-3 root operator negated: the 12 generators
    # are untouched, so only the certificate sees it, and every row that
    # reads the certificate fails
    root = next(key for key in all_operators() if key[0] != "h" and sum(key) == 3)
    w = dict(all_operators()[root])
    term = next(iter(w))
    w[term] = -w[term]
    monkeypatch.setitem(all_operators(), root, w)
    assert not generator_certificate().ok
    for label, op in invariant_operators():
        report = verify_invariance(op, label)
        assert report.failures == ()
        assert not report.certified and not report.ok
    code = cli.main(["all", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert "Traceback" not in captured.out
    rows = {r["check_id"]: r["status"] for r in json.loads(captured.out)["reports"]}
    for check_id in ("invariant.commutes.D", "invariant.commutes.D1",
                     "invariant.commutes.D2", "invariant.eta",
                     "invariant.dual-family"):
        assert rows[check_id] == "fail", check_id


def test_all_brackets_the_invariant_operators_with_the_12_generators(
        capsys, monkeypatch, fresh_caches):
    # a guard against the 78-operator sweep: in one run, D, D1 and D2
    # are each bracketed once with the 12 generators, and the cached
    # certificate takes its 66 brackets once
    calls = {}
    real = polyops.first_order_brackets

    def counted(ws, a):
        ws = list(ws)
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension
            frame = frame.f_back
        calls.setdefault(frame.f_code.co_name, []).append((len(ws), a))
        return real(ws, a)

    for name, module in list(sys.modules.items()):
        if name.startswith("e6poly") and hasattr(module, "first_order_brackets"):
            monkeypatch.setattr(module, "first_order_brackets", counted)
    assert cli.main(["all", "--json"]) == 0
    capsys.readouterr()
    assert set(calls) == {"generator_certificate", "verify_invariance",
                          "verify_homomorphism"}
    ops = [op for _label, op in invariant_operators()]
    assert sorted(ops.index(a) for _n, a in calls["verify_invariance"]) == [0, 1, 2]
    assert [n for n, _a in calls["verify_invariance"]] == [12] * 3
    assert sum(n for n, _a in calls["generator_certificate"]) == 66


def test_invariant_calculus_is_integer():
    objects = [build_eta()] + [op for _label, op in invariant_operators()]
    objects += list(build_zeta_family().values())
    for obj in objects:
        assert obj
        assert all(type(c) is int for c in obj.values())


def test_leibniz_route_matches_commutator_on_eta():
    # oracle for the two bracket lemmas: the real D and D2 against
    # generic normal-ordered composition
    eta = build_eta()
    m_eta = multiplication(eta)
    for a in (cubic_operator(), pairing_operator()):
        assert leibniz_bracket(a, eta) == commutator(a, m_eta)


def test_euler_bracket_with_cubic_multiplication():
    # [D1, mult(eta)] = 3 mult(eta): D1 is the degree grading
    m_eta = multiplication(build_eta())
    c = commutator(euler_operator(), m_eta)
    assert psub(c, pscale(3, m_eta)) == {}


# small integer bases over int keys 0..5, vector i holding the key 10 + i
# alone, so each has a private key; others may be private by chance
@st.composite
def private_key_combinations(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    entry = st.integers(min_value=-5, max_value=5).filter(bool)
    basis = [draw(st.dictionaries(st.integers(min_value=0, max_value=5), entry,
                                  max_size=4)) | {10 + i: draw(entry)}
             for i in range(n)]
    coeffs = draw(st.lists(st.integers(min_value=-4, max_value=4),
                           min_size=n, max_size=n))
    return basis, coeffs


@settings(max_examples=150)
@given(private_key_combinations())
def test_scalars_equal_the_fraction_kernel_coordinates(case):
    basis, coeffs = case
    n = len(basis)
    target = polyops.poly((k, c * v) for c, b in zip(coeffs, basis) for k, v in b.items())
    # columns (basis..., target): the kernel is the one relation
    # sum_i x_i b_i + x_n target = 0, so coordinate i is -x_i / x_n
    keys = sorted(set(target).union(*basis))
    columns = [*basis, target]
    rows = [{i: col[k] for i, col in enumerate(columns) if k in col} for k in keys]
    (relation,) = fraction_kernel(rows, list(range(n + 1)))
    want = tuple(Fraction(-relation.get(i, 0), relation[n]) for i in range(n))
    assert invariants._scalars(target, *basis) == want == tuple(coeffs)
    assert invariants._scalars(padd(target, {99: 1}), *basis) is None
    assert invariants._scalars({}, *basis) == (0,) * n


@pytest.mark.parametrize("basis", [({1: 1}, {1: 2, 2: 1}), ({1: 1}, {})],
                         ids=["keys-in-another", "empty"])
def test_scalars_need_a_private_key_per_vector(basis):
    with pytest.raises(ValueError, match="a basis vector holds no key of its own"):
        invariants._scalars({1: 1}, *basis)


def test_bracket_lemma_needs_a_private_key_per_operator(monkeypatch, capsys,
                                                        fresh_caches):
    # D1 + Id shares Id's only key, so the reader refuses {Id, D1 + Id, D2},
    # though that basis is independent and holds the bracket: the
    # structure row and the sweep reading its constants fail, and no
    # constants are reported
    real = invariants.euler_operator
    monkeypatch.setattr(invariants, "euler_operator",
                        lambda: padd(real(), {((), ()): 1}))
    code = cli.main(["invariant", "--verify", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err + captured.out
    rows = {row["check_id"]: row for row in json.loads(captured.out)["reports"]}
    for check_id in ("invariant.bracket.structure", "invariant.cubic-action-sweep"):
        assert rows[check_id]["status"] == "fail"
        assert rows[check_id]["computed"] == (
            "ValueError: a basis vector holds no key of its own")
    assert "invariant.bracket.constants" not in rows


def test_bracket_triple_value():
    r = lemma_bracket_triple()
    assert r.structural_ok
    assert tuple(r.triple) == (405, 45, 9)
    assert CLAIMED_BRACKET_TRIPLE == (111, 11, 9)
    assert r.triple != CLAIMED_BRACKET_TRIPLE  # the printed triple disagrees


def test_pairing_bracket_value():
    r = lemma_pairing_bracket()
    assert r.structural_ok
    assert tuple(r.pair) == (15, 2)
    assert r.eta_scalar == 15
    assert r.eta_x1_scalar == 17
    assert r.ok
    assert CLAIMED_PAIRING_BRACKET == (3, 2)
    assert r.pair != CLAIMED_PAIRING_BRACKET  # the printed pair disagrees


def test_pairing_eigenvalue_formula():
    for m1 in range(5):
        for m2 in range((5 - m1) // 2 + 1):
            mu = lemma_pairing_eigenvalue(0, m1, m2)
            assert mu == golden.claimed_pairing_eigenvalue(m1, m2)
            assert golden.claimed_pairing_eigenvalue(m1, m2) == m2 * (m1 + m2 + 4)


@pytest.mark.parametrize("j, m1, m2", [(1, 0, 0), (1, 1, 0), (1, 0, 1),
                                       (2, 0, 0), (2, 1, 0)])
def test_pairing_eigenvalue_follows_the_pairing_bracket(j, m1, m2):
    # each eta factor adds c1 + c2 * degree, with (c1, c2) = (15, 2)
    mu = m2 * (m1 + m2 + 4) + sum(15 + 2 * (3 * k + m1 + 2 * m2) for k in range(j))
    assert lemma_pairing_eigenvalue(j, m1, m2) == mu


def test_pairing_eigenvalue_is_none_off_an_eigenvector(monkeypatch, fresh_caches):
    # D2 kills x_1^2 and scales zeta_1 by 5, so their sum is no eigenvector
    off = padd(pmul(x(1), x(1)), build_zeta_family()[1])
    monkeypatch.setattr(invariants, "family", lambda j, m1, m2: off)
    assert lemma_pairing_eigenvalue(0, 1, 0) is None
    with pytest.raises(ValueError, match="not a D2 eigenvector"):
        derived_cubic_scalar(1, 1, 0, lemma_pairing_eigenvalue(0, 1, 0),
                             (405, 45, 9), (15, 2))


def test_annihilation_low_degrees():
    for m1 in range(5):
        for m2 in range((4 - m1) // 2 + 1):
            assert annihilation(m1, m2)


def test_cubic_action_base_case():
    r = lemma_cubic_action(1, 0, 0)
    assert r.ok
    assert r.scalar == 405
    assert golden.claimed_cubic_scalar(1, 0, 0) == 171
    assert r.scalar != golden.claimed_cubic_scalar(1, 0, 0)


def test_cubic_action_eta_squared():
    r = lemma_cubic_action(2, 0, 0)
    assert r.ok
    assert r.scalar == 1080


def test_cubic_action_mixed_cases():
    for m, m1, m2 in ((1, 1, 0), (1, 0, 1), (1, 2, 0), (2, 0, 1)):
        r = lemma_cubic_action(m, m1, m2)
        assert r.ok, (m, m1, m2)
        assert r.scalar == derived_cubic_scalar(
            m, m1, m2, m2 * (m1 + m2 + 4), (405, 45, 9), (15, 2)
        )


SWEEP = [(m, m1, m2) for m in range(1, cli.CUBIC_DEGREE // 3 + 1)
         for m1, m2 in cli._label_pairs(cli.CUBIC_DEGREE - 3 * m)]


def test_certified_scalars_equal_the_expanded_product():
    # the scalar read off one coefficient, under the premises, is the
    # multiple that the expanded D(eta B) solves for
    assert len(SWEEP) == 16
    for m, m1, m2 in SWEEP:
        r = lemma_cubic_action(m, m1, m2)
        assert r.ok, (m, m1, m2)
        assert r.scalar == cubic_scalar_full(m, m1, m2), (m, m1, m2)


def test_cubic_sweep_expands_no_product(monkeypatch):
    # no D(eta B) is formed: the sweep applies D to no polynomial
    D = cubic_operator()
    applied = []
    real = invariants.apply

    def recorded(w, f):
        if w is D:
            applied.append(len(f))
        return real(w, f)

    monkeypatch.setattr(invariants, "apply", recorded)
    for case in SWEEP:
        lemma_cubic_action(*case)
    assert applied == []


def _failing_d_invariance(monkeypatch):
    real = invariants.verify_invariance

    def broken(op, label="operator"):
        r = real(op, label)
        return r if op is not cubic_operator() else r._replace(failures=(("h", 1),))

    monkeypatch.setattr(invariants, "verify_invariance", broken)


def _eta_not_annihilated(monkeypatch):
    # the cached premise that eta_report and the cubic sweep both read
    monkeypatch.setattr(invariants, "eta_annihilated", lambda: False)


def _scan_with(monkeypatch, change):
    real = invariants.enumerate_singular
    monkeypatch.setattr(invariants, "enumerate_singular", lambda d: singular.SingularScan(
        tuple((w, change(d, basis)) for w, basis in real(d).bases)))


def _two_dimensional_lines(monkeypatch):
    _scan_with(monkeypatch, lambda d, basis: basis + basis)


def _lines_off_the_family(monkeypatch):
    # x_27^d has the lowest weight of degree d, so it lies in no line
    _scan_with(monkeypatch, lambda d, basis: [
        {**vec, (27,) * d: 1} for vec in basis])


@pytest.mark.parametrize("breaks", [
    _failing_d_invariance, _eta_not_annihilated, _two_dimensional_lines,
    _lines_off_the_family,
], ids=["d-not-invariant", "eta-not-annihilated", "line-not-one-dimensional",
        "family-off-the-line"])
def test_a_failed_premise_gives_no_cubic_scalar(monkeypatch, capsys, fresh_caches,
                                                breaks):
    breaks(monkeypatch)
    r = lemma_cubic_action(2, 0, 1)
    assert r.scalar is None
    assert not r.ok
    code = cli.main(["invariant", "--verify", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert "Traceback" not in captured.out
    rows = {row["check_id"]: row for row in json.loads(captured.out)["reports"]}
    assert rows["invariant.cubic-action-sweep"]["status"] == "fail"


def test_derived_scalar_closed_form():
    # one bracket peel: D(eta g) = [D, M_eta] g for g in the kernel of D;
    # the base eigenvalues are m2(m1 + m2 + 4): 0 on 1 and x_1, 5 on zeta_1
    triple = (405, 45, 9)
    pairing = (15, 2)
    assert derived_cubic_scalar(1, 0, 0, 0, triple, pairing) == 405
    assert derived_cubic_scalar(1, 1, 0, 0, triple, pairing) == 450
    assert derived_cubic_scalar(1, 0, 1, 5, triple, pairing) == 540
    assert derived_cubic_scalar(2, 0, 0, 0, triple, pairing) == 1080


@pytest.mark.parametrize("j, m1, m2", [
    (j, m1, m2) for j in range(3) for m1 in range(5) for m2 in range((4 - m1) // 2 + 1)
])
def test_family_is_the_product_of_powers(j, m1, m2):
    eta, zeta1 = build_eta(), build_zeta_family()[1]
    f = family(j, m1, m2)
    assert f == pmul(ppow(eta, j), pmul(ppow(x(1), m1), ppow(zeta1, m2)))
    # homogeneous of weight m1 lambda_1 + m2 lambda_6, eta having weight 0
    weight = tuple(m1 * a + m2 * b for a, b in zip(invariants.LAMBDA1, invariants.LAMBDA6))
    assert {(len(m), monomial_weight(m)) for m in f} == {(3 * j + m1 + 2 * m2, weight)}


def test_d2_on_zeta1():
    fam = build_zeta_family()
    z = fam[1]
    assert apply(pairing_operator(), z) == pscale(5, z)  # m2(m1+m2+4) at (0, 1)


def test_d_kills_generators():
    D = cubic_operator()
    assert apply(D, x(1)) == {}
    assert apply(D, build_zeta_family()[1]) == {}
    assert apply(D, {monomial({}): Fraction(1)}) == {}
