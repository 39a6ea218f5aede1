"""Singular vector scan tests.

A singular vector is a polynomial killed by all 36 positive-root
operators; each one generates a highest-weight submodule.  The scan
finds them degree by degree: products of lower lines, certified by a
count of Weyl dimensions, and the dominant weight spaces that the count
leaves open.
"""

import hashlib
import json
from collections import Counter
from itertools import combinations_with_replacement
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from e6poly import cli, decomp, rep, singular
from e6poly.decomp import phi_dim
from e6poly.invariants import build_eta, build_zeta_family
from e6poly.polyops import pscale, x
from e6poly.rootsys import CARTAN_E7
from e6poly.singular import (
    dominant_weights,
    enumerate_singular,
    expected_line_count,
    orbit_size,
    singular_space,
    weight_buckets,
    weight_space,
)
from oracles import (
    enumerate_singular_full,
    monomial_weight,
    verify_annihilated,
)

LAM1 = (1, 0, 0, 0, 0, 0)
LAM6 = (0, 0, 0, 0, 0, 1)
ZERO = (0, 0, 0, 0, 0, 0)


def test_weight_buckets_partition_monomials():
    from math import comb

    for degree in range(4):
        buckets = weight_buckets(degree)
        total = sum(len(v) for v in buckets.values())
        assert total == comb(degree + 26, 26)


@pytest.mark.parametrize("degree", range(5))
def test_weight_buckets_follow_combinations_order(degree):
    # same keys, same lists, both in the order of
    # combinations_with_replacement, as the prefix-sum build promises
    expected = {}
    for mono in combinations_with_replacement(range(1, 28), degree):
        expected.setdefault(singular._pack(monomial_weight(mono)), []).append(mono)
    assert list(weight_buckets(degree).items()) == list(expected.items())


def test_line_counts_through_degree_five():
    # solutions of a + 2b + 3c = m, one singular line each
    expected = [1, 1, 2, 3, 4, 5]
    for m, n in enumerate(expected):
        assert expected_line_count(m) == n
        assert enumerate_singular(m).total == n


def test_degree_one_generator_is_first_variable():
    assert singular_space(1, LAM1) == [{(1,): 1}]


def test_degree_two_generators():
    scan = enumerate_singular(2)
    assert dict(scan.lines) == {LAM6: 1, (2, 0, 0, 0, 0, 0): 1}
    (vec,) = singular_space(2, LAM6)
    assert vec == build_zeta_family()[1]
    (sq,) = singular_space(2, (2, 0, 0, 0, 0, 0))
    assert sq == {(1, 1): 1}


def test_degree_three_weight_zero_generator_is_the_cubic_invariant():
    (vec,) = singular_space(3, ZERO)
    f = vec
    eta = build_eta()
    # same line; normalizations may differ
    k1 = min(eta)
    assert k1 in f
    assert pscale(eta[k1], f) == pscale(f[k1], eta)


def test_scanned_generators_are_annihilated():
    # every line, products included, checked by all 36 positive-root
    # operators: the scan itself applies none to a product
    for degree in range(9):
        for _w, basis in enumerate_singular(degree).bases:
            for vec in basis:
                assert verify_annihilated(vec)


def test_scan_keeps_the_block_solver_bases():
    scan = enumerate_singular(4)
    assert scan.lines == tuple((w, len(b)) for w, b in scan.bases)
    assert scan.total == 4
    for w, basis in scan.bases:
        assert basis == singular_space(4, w)


# the blocks of 1, x_1, zeta_1 and eta: no product of lower lines reaches
# them, so the scan solves them, and no other block through degree 5
GENERATOR_BLOCKS = [(0, ZERO), (1, LAM1), (2, LAM6), (3, ZERO)]


@pytest.mark.parametrize("degree, pinned", [(1, 1), (5, 0)])
def test_singular_command_solves_each_dominant_block_once(monkeypatch, capsys,
                                                          fresh_caches, degree, pinned):
    # pinned: the low-degree generator rows, which read the scan's bases
    # and solve no block of their own.  The scan reads its lower degrees
    # for products of lines, and lists the rows of a block only to solve
    # it, once: the generator blocks of degree 1 to m, none of degree 5
    calls = Counter()
    real = singular._raising_system

    def counted(m, w):
        calls[m, w] += 1
        return real(m, w)

    monkeypatch.setattr(singular, "_raising_system", counted)
    assert cli.main(["singular", "--degree", str(degree), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert calls == Counter({b: 1 for b in GENERATOR_BLOCKS if 0 < b[0] <= degree})
    generators = [r["status"] for r in doc["reports"]
                  if r["check_id"].endswith(".generator")]
    assert generators == ["pass"] * pinned


def _items(scan):
    return [(w, [list(v.items()) for v in basis]) for w, basis in scan.bases]


@pytest.mark.parametrize("degree", [*range(7), pytest.param(7, marks=pytest.mark.slow)])
def test_singular_space_equals_the_full_elimination(degree):
    # the scan, which solves only the generator blocks, gives what
    # solving every dominant block gives, key order included
    assert _items(enumerate_singular(degree)) == _items(enumerate_singular_full(degree))


def test_only_the_generator_blocks_fall_back_to_full_elimination(monkeypatch,
                                                                 fresh_caches):
    # every line from degree 4 on is a product of lower lines, and their
    # Weyl dimensions add up to C(m + 26, 26): the scan solves only the
    # generator blocks, and lists dominant weights only at degrees 0-3
    solved, listed = [], set()
    real_space, real_weights = singular.singular_space, singular.dominant_weights

    def recorded(m, w):
        solved.append((m, w))
        return real_space(m, w)

    def listing(m):
        listed.add(m)
        return real_weights(m)

    monkeypatch.setattr(singular, "singular_space", recorded)
    monkeypatch.setattr(singular, "dominant_weights", listing)
    for m in range(6):
        enumerate_singular(m)
    assert solved == GENERATOR_BLOCKS
    assert listed == {0, 1, 2, 3}


def _scan_rows_fail(capsys, message, also=()):
    """`singular --degree 3` and `all` exit 1 with no traceback, and every
    line-count row of each, and the rows `also` of `all`, fail with an
    exception whose text starts with `message`.  Returns the rows of
    `all` by check id."""
    for argv, degrees, extra in [(["singular", "--degree", "3"], [3], ()),
                                 (["all"], range(cli.SINGULAR_DEGREE + 1), also)]:
        code = cli.main([*argv, "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert "Traceback" not in captured.out
        rows = {r["check_id"]: r for r in json.loads(captured.out)["reports"]}
        counts = sorted(k for k in rows
                        if k.startswith("singular.deg") and k.endswith(".line-count"))
        assert counts == sorted(f"singular.deg{m}.line-count" for m in degrees)
        for k in [*counts, *extra]:
            assert rows[k]["status"] == "fail"
            assert rows[k]["computed"].startswith(f"ValueError: {message}")
    return rows


def test_without_the_homomorphism_the_scan_fails(monkeypatch, capsys, fresh_caches):
    # complete reducibility rests on the homomorphism check: with a
    # failed report the dimension count proves nothing, so the scan
    # raises, naming the premise, and each of its rows fails
    monkeypatch.setattr(singular, "verify_homomorphism", lambda: rep.HomReport(
        pairs_checked=324, failures=("pair #1",)))
    with pytest.raises(ValueError, match="homomorphism check fails"):
        enumerate_singular(2)
    _scan_rows_fail(capsys, "the homomorphism check fails")


@pytest.mark.parametrize("term", [((), ()), ((1, 5), (2,))])
def test_a_raising_operator_off_the_derivation_form_fails_every_scan_row(
        monkeypatch, capsys, fresh_caches, term):
    # a product of singular lines is singular because the raising
    # operators are derivations, and the scan checks no product: a
    # zeroth- or second-order term must fail the premises, which run
    # first_order_brackets over them, and with them every scan row and
    # the cubic sweep.  The premise is the only guard: no block is solved.
    # The mutated generator no longer kills eta, so the dual family's
    # annihilation premise fails its row too, with no exception
    real = rep.all_operators()
    e1 = next(k for k, w in real.items() if w is rep.raising_operator(1))
    mutated = {**real, e1: {**real[e1], term: 1}}
    monkeypatch.setattr(rep, "all_operators", lambda: mutated)
    solved = []
    monkeypatch.setattr(singular, "_raising_system", lambda *block: solved.append(block))
    rows = _scan_rows_fail(capsys, "not a first-order term x_i d_j",
                           also=["invariant.cubic-action-sweep", "rep.operators"])
    assert solved == []
    assert rows["invariant.dual-family"]["status"] == "fail"


def test_a_wrong_dimension_leaves_the_count_open(monkeypatch, capsys, fresh_caches):
    # dim V(5 lambda_1) read one too high: the product lines over-count
    # the degree-5 polynomials, the scan raises, and its row fails
    real = singular.dimension
    monkeypatch.setattr(singular, "dimension",
                        lambda w: real(w) + (w == (5, 0, 0, 0, 0, 0)))
    code = cli.main(["singular", "--degree", "5", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    doc = json.loads(captured.out)
    (row,) = [r for r in doc["reports"] if r["check_id"] == "singular.deg5.line-count"]
    assert row["status"] == "fail"
    assert row["computed"].startswith("ValueError: singular lines of degree 5 count")


def test_singular_weights_are_dominant():
    for degree in range(4):
        for w, _dim in enumerate_singular(degree).lines:
            assert all(c >= 0 for c in w)
            assert w in dominant_weights(degree)


def test_monomial_weight_is_additive():
    a = (1, 3)
    b = (2, 2, 5)
    combined = tuple(sorted(a + b))
    wa, wb = monomial_weight(a), monomial_weight(b)
    assert monomial_weight(combined) == tuple(p + q for p, q in zip(wa, wb))


def test_nondominant_weight_has_no_singular_vector():
    assert singular_space(1, (0, 0, 1, 0, 0, 0)) == []


@pytest.mark.parametrize("degree, lines, digest", [
    pytest.param(7, 8, "6e1ba1e9645caa220ff8b488bafb98590d7ea5790fcaa2e889bbcb61674ed66f",
                 id="degree7"),
    pytest.param(8, 10, "d96cb7e5168667a736998ba3138f7c45d9018f2a65ab28bf83a54cf10223d5f8",
                 id="degree8"),
    pytest.param(9, 12, "7de1c335fedcc13548e3ff514d6da9102d77f6012e05bfcc0c01ad44df2bd51b",
                 id="degree9", marks=pytest.mark.slow),
    pytest.param(10, 14, "033d8e570c1111c2e6c4808e0c336a1a592ae6f8ccf4f7397eea57842bf7e622",
                 id="degree10", marks=pytest.mark.slow),
])
def test_singular_golden_bytes(capsys, degree, lines, digest):
    # the lines and generators past degree 6: products of lower lines
    # close the dimension count, so the scan lists no block of degree m
    assert enumerate_singular(degree).total == expected_line_count(degree) == lines
    assert cli.main(["singular", "--degree", str(degree), "--force", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_line_counts_degrees_six_and_seven():
    assert enumerate_singular(6).total == expected_line_count(6) == 7
    assert enumerate_singular(7).total == expected_line_count(7) == 8


# Oracles for the dominant-weight route: the full bucketing by weight
# and a breadth-first Weyl orbit, neither of which the route uses.


def _reflect(weight, i):
    return tuple(w - weight[i] * a for w, a in zip(weight, CARTAN_E7[i][:6]))


def _orbit(weight):
    seen = {weight}
    queue = [weight]
    while queue:
        w = queue.pop()
        for i in range(6):
            image = _reflect(w, i)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return seen


@pytest.mark.parametrize("degree", range(5))
def test_weight_space_equals_the_bucket_of_every_weight(degree):
    for monos in weight_buckets(degree).values():
        assert weight_space(degree, monomial_weight(monos[0])) == monos


def test_weight_space_equals_the_bucket_of_every_dominant_weight_at_five():
    buckets = weight_buckets(5)
    for w in dominant_weights(5):
        assert weight_space(5, w) == buckets[singular._pack(w)]


def test_weight_space_of_an_absent_weight_is_empty():
    assert weight_space(2, (1, 0, 0, 0, 0, 0)) == []
    assert weight_space(0, (0, 0, 0, 0, 0, 0)) == [()]


def test_weight_space_turns_away_a_weight_that_packs_like_another():
    # 65536 - 65536 = 0: out of range, this weight packs to the zero
    # weight's key, whose degree-3 block holds the 45 monomials of eta
    alias = (65536, -1, 0, 0, 0, 0)
    assert singular._pack(alias) == singular._pack(ZERO)
    assert len(weight_space(3, ZERO)) == 45
    assert weight_space(3, alias) == []


_coords = st.tuples(*[st.integers(min_value=-2**14, max_value=2**14)] * 6)


@settings(max_examples=200)
@given(_coords, _coords)
def test_packing_is_one_to_one_and_adds(a, b):
    assert (singular._pack(a) == singular._pack(b)) == (a == b)
    total = tuple(x + y for x, y in zip(a, b))
    assert singular._pack(a) + singular._pack(b) == singular._pack(total)


@pytest.mark.parametrize("degree", range(6))
def test_dominant_weights_equal_the_filtered_buckets(degree):
    weights = (monomial_weight(monos[0]) for monos in weight_buckets(degree).values())
    old = sorted(w for w in weights if all(c >= 0 for c in w))
    assert list(dominant_weights(degree)) == old


def test_orbit_sizes_equal_the_reflection_closure():
    weights = {w for m in range(6) for w in dominant_weights(m)}
    for w in weights:
        assert orbit_size(w) == len(_orbit(w))
    # the trivial weight is fixed; the 27 weights of x_i form one orbit
    assert orbit_size((0, 0, 0, 0, 0, 0)) == 1
    assert orbit_size((1, 0, 0, 0, 0, 0)) == 27


@pytest.mark.parametrize("degree", range(9))
def test_orbit_weighted_blocks_count_every_monomial(degree):
    total = sum(orbit_size(w) * len(weight_space(degree, w))
                for w in dominant_weights(degree))
    assert total == comb(degree + 26, 26)


def test_wrong_orbit_size_fails_the_certification(monkeypatch, capsys, fresh_caches):
    # the orbit of lambda_1 read one too large: phi_dim's degree-1 blocks
    # over-count the 27 monomials, and the kernel row of degree 4 fails
    real = decomp.orbit_size
    monkeypatch.setattr(decomp, "orbit_size", lambda w: real(w) + (w == LAM1))
    with pytest.raises(ValueError, match="dominant blocks of degree 1 count 28"):
        phi_dim(4)
    code = cli.main(["decompose", "--degree", "4", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert "Traceback" not in captured.out
    doc = json.loads(captured.out)
    (row,) = [r for r in doc["reports"] if r["check_id"] == "decompose.deg4.kernel-dim"]
    assert row["status"] == "fail"
    assert row["computed"].startswith("ValueError: dominant blocks")


def test_a_weight_missing_from_phi_dim_fails_its_count(monkeypatch, fresh_caches):
    # lambda_6 dropped from the degree-2 dominant weights: the blocks
    # phi_dim ranks no longer hold every degree-2 monomial
    real = decomp.dominant_weights
    monkeypatch.setattr(decomp, "dominant_weights",
                        lambda m: tuple(w for w in real(m) if (m, w) != (2, LAM6)))
    with pytest.raises(ValueError, match="dominant blocks of degree 2 count"):
        phi_dim(5)


def test_a_weight_missing_from_the_candidates_leaves_the_count_open(
        monkeypatch, capsys, fresh_caches):
    # lambda_6 dropped from the degree-2 candidates: no product of lower
    # lines reaches zeta_1's block, the Weyl dimensions stay short of
    # C(28, 26), and the line-count row fails
    real = singular.dominant_weights
    monkeypatch.setattr(singular, "dominant_weights",
                        lambda m: tuple(w for w in real(m) if (m, w) != (2, LAM6)))
    code = cli.main(["singular", "--degree", "2", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    doc = json.loads(captured.out)
    (row,) = [r for r in doc["reports"] if r["check_id"] == "singular.deg2.line-count"]
    assert row["status"] == "fail"
    assert row["computed"].startswith("ValueError: singular lines of degree 2 count")


@pytest.mark.parametrize("m", range(3, 7))
def test_phi_dim_lists_each_block_once_and_the_weights_list_none(monkeypatch, m,
                                                                  fresh_caches):
    # phi_dim lists each degree-(m - 3) dominant block once, for its rank
    # and its certificate alike, and dominant_weights lists no monomial
    listed = Counter()

    def counted(module):
        real = module.weight_space

        def wrapper(degree, w):
            listed[degree, tuple(w)] += 1
            return real(degree, w)
        return wrapper

    for module in (singular, decomp):
        monkeypatch.setattr(module, "weight_space", counted(module))
    for k in range(m + 1):
        dominant_weights(k)
    assert not listed
    phi_dim(m)
    blocks = Counter({(m - 3, w): 1 for w in dominant_weights(m - 3)})
    assert Counter({k: n for k, n in listed.items() if k[0] == m - 3}) == blocks
