"""Acceptance gate: one check per advertised guarantee.

Each test prints a single pass/fail line (visible with `pytest -s` or
on failure) and asserts the same condition, so the suite doubles as a
human-readable scorecard.  Known defects of the printed reference data
are *flagged* inside a passing line, never silently absorbed: the
computed ground truth is asserted, and the printed value is quoted.
"""

import time
from math import comb

import pytest

from e6poly import golden
from e6poly.invariants import (
    annihilation,
    build_eta,
    cubic_operator,
    eta_report,
    lemma_bracket_triple,
    lemma_cubic_action,
    lemma_pairing_bracket,
    lemma_pairing_eigenvalue,
    pairing_operator,
    verify_dual_module,
    verify_invariance,
)
from e6poly.decomp import lowering_closure, phi_dim
from e6poly.polyops import euler_operator
from e6poly.rep import (
    compare_reference_operators,
    compare_weight_tables,
    generator_certificate,
    verify_homomorphism,
)
from e6poly.rootsys import check_cocycle_laws, root_system
from e6poly.singular import (
    enumerate_singular,
    expected_line_count,
    singular_space,
)
from e6poly.weyl import identity_check
from oracles import annihilated_by_all_full, verify_invariance_full


def _criterion(num: int, description: str, passed: bool, note: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"[{verdict}] criterion {num:2d}: {description}"
    if note:
        line += f" ({note})"
    print(line)
    assert passed, line


def test_criterion_01_root_inventory():
    t0 = time.perf_counter()
    rs = root_system()
    counts_ok = (
        len(rs.roots) == 126
        and len(rs.e6_roots) == 72
        and len(rs.e6_positive) == 36
        and len(rs.bar_positive) == 27
    )
    partition_ok = (
        len(rs.positive) == 63
        and set(rs.positive) == set(rs.e6_positive) | set(rs.bar_positive)
        and not set(rs.e6_positive) & set(rs.bar_positive)
    )
    _criterion(
        1,
        "root inventory 126/72/36/27 and positive-set partition 63 = 36 + 27",
        counts_ok and partition_ok,
        f"{time.perf_counter() - t0:.2f}s",
    )


def test_criterion_02_cocycle_laws():
    t0 = time.perf_counter()
    rep = check_cocycle_laws(seed=20240823, n_random=1000)
    _criterion(
        2,
        "sign-factor laws on the full root sweep plus 1000 seeded samples",
        rep.ok and rep.pairs_checked >= 1000 and rep.triples_checked >= 1000,
        f"{rep.pairs_checked} pairs, {rep.triples_checked} triples, "
        f"{time.perf_counter() - t0:.2f}s",
    )


def test_criterion_03_reference_operator_tables():
    t0 = time.perf_counter()
    weights = compare_weight_tables()
    ops = compare_reference_operators()
    entries_ok = weights.ok and weights.rows_compared == 27
    rows_ok = ops.ok and ops.rows_compared == 72 and not ops.mismatches
    # the known-defective printed rows must be reported term-by-term
    flags_ok = len(ops.flagged) == 2 and all(":" in f for f in ops.flagged)
    _criterion(
        3,
        "162 diagonal table entries and 72 operator rows match after "
        "typo normalization; residual defects reported term-by-term",
        entries_ok and rows_ok and flags_ok,
        f"{len(golden.AMBIGUOUS_REFERENCE_ROWS)} rows normalized, "
        f"{len(ops.flagged)} printed rows flagged, "
        f"{time.perf_counter() - t0:.2f}s",
    )


def test_criterion_04_homomorphism():
    t0 = time.perf_counter()
    rep = verify_homomorphism()
    _criterion(
        4,
        "operator brackets realize the algebra brackets on all generator pairs",
        rep.ok and rep.pairs_checked == 324,
        f"{rep.pairs_checked} pairs, {time.perf_counter() - t0:.2f}s",
    )


def test_criterion_05_singular_scan():
    t0 = time.perf_counter()
    counts = [enumerate_singular(m).total for m in range(6)]
    counts_ok = counts == [expected_line_count(m) for m in range(6)] == [1, 1, 2, 3, 4, 5]
    lam1 = (1, 0, 0, 0, 0, 0)
    lam6 = (0, 0, 0, 0, 0, 1)
    x1_ok = singular_space(1, lam1) == [{(1,): 1}]
    from e6poly.invariants import build_zeta_family

    (zvec,) = singular_space(2, lam6)
    zeta_ok = zvec == build_zeta_family()[1]
    (cubic_vec,) = singular_space(3, (0,) * 6)
    from e6poly.invariants import build_eta
    from e6poly.polyops import pscale

    f = cubic_vec
    eta = build_eta()
    k1 = min(eta)
    cubic_ok = k1 in f and pscale(eta[k1], f) == pscale(f[k1], eta)
    er = eta_report()
    documented = len(er.expansion_diffs) == 13
    _criterion(
        5,
        "singular lines 1,1,2,3,4,5 through degree 5; degree-1 and "
        "degree-2 generators exact; degree-3 generator recovered",
        counts_ok and x1_ok and zeta_ok and cubic_ok and documented,
        "printed cubic expansion flagged: 13 coefficient diffs, "
        f"{time.perf_counter() - t0:.2f}s",
    )


def test_criterion_06_dual_family():
    t0 = time.perf_counter()
    rep = verify_dual_module()
    simple_ok = [s for root, s in rep.nu_signs if sum(root) == 1] == [1] * 6
    _criterion(
        6,
        "27-member quadratic family: independent, printed weights, "
        "raising-action compatibility",
        rep.ok and rep.rank == 27 and rep.cartan_reference_ok and simple_ok,
        f"{time.perf_counter() - t0:.2f}s",
    )


def test_criterion_07_invariance():
    t0 = time.perf_counter()
    er = eta_report()
    ops = (("D", cubic_operator()), ("D1", euler_operator()),
           ("D2", pairing_operator()))
    reports = [verify_invariance(op, label) for label, op in ops]
    # the 12 generators under the generated-by certificate, and the same
    # verdicts from the 78-operator route
    full = [verify_invariance_full(op, label) for label, op in ops]
    _criterion(
        7,
        "eta, D, D1, D2 each invariant under all 78 generators",
        generator_certificate().ok
        and er.annihilated_by_all
        and annihilated_by_all_full(build_eta())
        and all(r.ok and r.ops_checked == 12 for r in reports)
        and all(r.ok and r.ops_checked == 78 for r in full),
        f"{time.perf_counter() - t0:.2f}s",
    )


def test_criterion_08_bracket_span():
    t0 = time.perf_counter()
    rep = lemma_bracket_triple()
    _criterion(
        8,
        "[D, mult(eta)] lies exactly in span{Id, D1, D2}",
        rep.structural_ok and tuple(rep.triple) == (405, 45, 9),
        f"printed {golden.CLAIMED_BRACKET_TRIPLE} flagged, computed "
        f"({rep.triple[0]}, {rep.triple[1]}, {rep.triple[2]}), "
        f"{time.perf_counter() - t0:.2f}s",
    )


def test_criterion_09_eigenvalue_formula():
    t0 = time.perf_counter()
    ok = all(
        lemma_pairing_eigenvalue(0, m1, m2) == golden.claimed_pairing_eigenvalue(m1, m2)
        for m1 in range(9)
        for m2 in range((8 - m1) // 2 + 1)
    )
    _criterion(
        9,
        "D2 eigenvalue m2(m1+m2+4) on x_1^m1 zeta_1^m2 for m1+2m2 <= 8",
        ok,
        f"{time.perf_counter() - t0:.2f}s",
    )


def test_criterion_10_pairing_bracket():
    t0 = time.perf_counter()
    rep = lemma_pairing_bracket()
    # structural identity plus self-consistent instances; the printed
    # constants provably disagree with the computed ground truth and
    # are therefore flagged rather than asserted
    _criterion(
        10,
        "[D2, mult(eta)] = mult(eta)(c1 + c2 D1) with consistent instances",
        rep.structural_ok and rep.ok and tuple(rep.pair) == (15, 2)
        and rep.eta_scalar == 15 and rep.eta_x1_scalar == 17,
        f"printed {golden.CLAIMED_PAIRING_BRACKET} and instances (3, 5) flagged, computed "
        f"(15, 2) and (15, 17), {time.perf_counter() - t0:.2f}s",
    )


def test_criterion_11_cubic_action():
    t0 = time.perf_counter()
    kill_ok = all(
        annihilation(m1, m2)
        for m1 in range(7)
        for m2 in range((6 - m1) // 2 + 1)
    )
    cases = [
        (m, m1, m2)
        for m in (1, 2)
        for m1 in range(9 - 3 * m)
        for m2 in range((8 - 3 * m - m1) // 2 + 1)
    ]
    reports = [lemma_cubic_action(m, m1, m2) for m, m1, m2 in cases]
    action_ok = all(r.ok and r.scalar is not None and r.scalar != 0 for r in reports)
    printed_agree = sum(r.scalar == golden.claimed_cubic_scalar(r.m, r.m1, r.m2)
                        for r in reports)
    _criterion(
        11,
        "D kills low powers and acts on eta-multiples by the derived scalar",
        kill_ok and action_ok and len(reports) == 16,
        f"printed closed form flagged: agrees on {printed_agree}/16 cases, "
        f"{time.perf_counter() - t0:.2f}s",
    )


def test_criterion_12_kernel_dimensions():
    t0 = time.perf_counter()
    ok = True
    for m in (3, 4):
        s = phi_dim(m)
        ok = ok and s.dim_phi == s.dim_Am - s.rank_D
        ok = ok and s.rank_D == comb(m + 23, 26)
        ok = ok and s.dim_phi == comb(m + 26, 26) - comb(m + 23, 26)
        ok = ok and s.direct_sum_ok and s.weyl_sum == s.dim_phi
    _criterion(
        12,
        "kernel dimensions match the binomial difference, the direct-sum "
        "check, and the irreducible dimension sums for degrees 3 and 4",
        ok,
        f"{time.perf_counter() - t0:.2f}s",
    )


def test_criterion_12_kernel_dimension_degree_five():
    t0 = time.perf_counter()
    s = phi_dim(5)
    _criterion(
        12,
        "degree-5 kernel dimension",
        s.dim_phi == s.dim_Am - s.rank_D and s.rank_D == comb(28, 26)
        and s.direct_sum_ok and s.dim_phi == s.weyl_sum == 169533,
        f"{time.perf_counter() - t0:.2f}s",
    )


def test_criterion_13_series_identity():
    t0 = time.perf_counter()
    rep = identity_check(10)
    _criterion(
        13,
        "(1-q)^26 times the dimension series equals 1 + q + q^2 through "
        "degree 10",
        rep.series_coefficients == (1, 1, 1) + (0,) * 8
        and rep.degree_sums == tuple(comb(m + 26, 26) for m in range(11)),
        f"{time.perf_counter() - t0:.2f}s",
    )


def test_criterion_14_lowering_closures():
    t0 = time.perf_counter()
    ok = lowering_closure(1, 0) == 27 and lowering_closure(0, 1) == 27
    _criterion(
        14,
        "lowering closures of the two basic highest vectors have dimension 27",
        ok,
        f"{time.perf_counter() - t0:.2f}s",
    )


@pytest.mark.slow
def test_criterion_14_adjoint_closure():
    t0 = time.perf_counter()
    dim = lowering_closure(1, 1)
    _criterion(
        14,
        "lowering closure of the composite highest vector (opt-in extension)",
        dim == 650,
        f"{time.perf_counter() - t0:.2f}s",
    )
