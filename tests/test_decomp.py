"""Kernel decomposition tests.

The cubic operator D maps degree m to degree m-3.  Its kernel carries
the new irreducible content at each degree; the complement is exactly
eta times the lower degree, which the directness check certifies.
"""

import hashlib
import json
from math import comb

from hypothesis import example, given
import hypothesis.strategies as st
import pytest

from e6poly import cli, decomp, singular
from e6poly.decomp import (
    SAMPLE_BLOCKS,
    KernelSummary,
    _cubic_rows,
    _rank,
    lowering_closure,
    materialized_kernel_dim,
    phi_dim,
)
from e6poly.invariants import build_eta, cubic_operator
from e6poly.linalg import kernel_basis, row_content
from e6poly.polyops import apply, pdiv_exact, pmul
from e6poly.singular import (
    dominant_weights,
    enumerate_singular,
    weight_buckets,
    weight_space,
)
from e6poly.weyl import weyl_dim
from oracles import (
    kernel_samples_full,
    listed_kernel_dim_full,
    materialized_kernel_dim_full,
    monomial_weight,
    source_rank_full,
)


def _source_rows(monos):
    """Rows of D on one block, built the way phi_dim builds its matrix:
    D applied to each source monomial, indexed by image monomial."""
    rows = {}
    for mono in monos:
        for k, v in apply(cubic_operator(), {mono: 1}).items():
            rows.setdefault(k, {})[mono] = v
    return list(rows.values())


def test_decomp_reads_the_one_cubic_operator():
    # decomp builds no D of its own: it applies the cached object that
    # invariants holds
    assert decomp.cubic_operator is cubic_operator
    assert decomp.cubic_operator() is cubic_operator()


def assert_decomposition(s):
    # the kernel complements eta * A_(m-3), and its dimension is the
    # sum of the irreducible dimensions
    assert s.dim_phi == s.dim_Am - s.rank_D
    assert s.rank_D == comb(s.degree + 23, 26)
    assert s.direct_sum_ok
    assert s.dim_phi == s.weyl_sum


def test_low_degrees_have_trivial_kernel_rank():
    for m in range(3):
        s = phi_dim(m)
        assert s.rank_D == 0
        assert s.dim_phi == s.dim_Am == comb(m + 26, 26)


def test_degree_three_decomposition():
    # the cubic invariant itself is not in the kernel, so the trivial
    # weight does not appear in the sum
    s = phi_dim(3)
    assert_decomposition(s)
    assert s.dim_phi == 3653
    assert s.rank_D == 1
    assert s.weyl_sum == weyl_dim(3, 0) + weyl_dim(1, 1)


def test_degree_four_decomposition():
    s = phi_dim(4)
    assert_decomposition(s)
    assert s.dim_phi == 27378
    assert s.rank_D == 27
    assert s.direct_sum_ok


def test_weyl_sum_report():
    r = phi_dim(4)
    assert_decomposition(r)
    assert r.dim_phi == 27378
    assert set(r.weyl_terms) == {
        (4, 0, weyl_dim(4, 0)),
        (2, 1, weyl_dim(2, 1)),
        (0, 2, weyl_dim(0, 2)),
    }


@pytest.mark.parametrize("m", [3, 4, 5])
def test_phi_dim_carries_its_weyl_terms(m):
    s = phi_dim(m)
    assert s.weyl_terms == tuple(
        (m - 2 * i, i, weyl_dim(m - 2 * i, i)) for i in range(m // 2 + 1))
    assert s.weyl_sum == sum(d for _, _, d in s.weyl_terms) == s.dim_phi


def test_kernel_samples_are_killed():
    D = cubic_operator()
    for vec in materialized_kernel_dim(3).samples:
        assert not apply(D, vec)


@pytest.mark.parametrize("m", [3, 4])
def test_target_rows_equal_source_rows_on_every_block(m):
    # the materialized route builds rows of D / 3 from targets; phi_dim
    # applies D to sources; on every weight block the target rows are
    # exactly the source rows divided by 3, in the same order, and each
    # is primitive
    targets = weight_buckets(m - 3)
    for key, monos in weight_buckets(m).items():
        block = targets.get(key, [])
        rows = _cubic_rows(block)
        thirds = [pdiv_exact(row, 3) for row in _source_rows(monos)]
        assert rows == thirds
        assert len(rows) == len(block)
        assert all(row_content(row) == 1 for row in rows)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_kernel_samples_come_from_blocks_with_rows(m):
    # the samples are the bases of the first row blocks over the monomials
    # their rows touch, so none is a unit vector that D kills trivially
    sampled = [monomial_weight(targets[0])
               for targets in list(weight_buckets(m - 3).values())[:SAMPLE_BLOCKS]]
    samples = materialized_kernel_dim(m).samples
    assert samples
    for vec in samples:
        (w,) = {monomial_weight(mono) for mono in vec}
        assert w in sampled
        assert len(vec) > 1
        assert not apply(cubic_operator(), vec)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_kernel_samples_are_empty_below_degree_three(m):
    # below degree 3 there are no row blocks to sample
    assert materialized_kernel_dim(m).samples == []


def test_materialized_kernel_matches_rank_count():
    assert materialized_kernel_dim(3).dim_phi == 3653


def test_fundamental_closures():
    assert lowering_closure(1, 0) == 27
    assert lowering_closure(0, 1) == 27


def test_adjoint_closure():
    # highest weight (1,0)+(0,1) generates the 650-dimensional piece,
    # matching the dimension oracle
    assert lowering_closure(1, 1) == weyl_dim(1, 1) == 650


def test_degree_five_decomposition():
    s = phi_dim(5)
    assert_decomposition(s)
    assert s.dim_phi == 169533
    assert s.rank_D == comb(28, 26)


def test_materialized_kernel_degree_four():
    assert materialized_kernel_dim(4).dim_phi == 27378


def test_materialized_kernel_degree_five():
    assert materialized_kernel_dim(5).dim_phi == 169533


@pytest.mark.parametrize("m", [3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_row_blocks_give_what_the_full_listing_gives(m):
    # counting the blocks D does not reach, instead of listing their unit
    # vectors, changes neither the dimension nor the samples
    mat = materialized_kernel_dim(m)
    assert mat.dim_phi == listed_kernel_dim_full(m)
    assert mat.samples == kernel_samples_full(m)


@pytest.mark.parametrize("m", [*range(7), pytest.param(7, marks=pytest.mark.slow)])
def test_leading_column_ranks_give_what_elimination_gives(m):
    # the blocks past the sampled ones add minus their target count, read
    # off leading columns; eliminating each of them gives the same count,
    # and the sampled blocks the same samples
    mat, full = materialized_kernel_dim(m), materialized_kernel_dim_full(m)
    assert mat.dim_phi == full.dim_phi
    assert mat.samples == full.samples


@pytest.mark.parametrize("m", [3, 4, 5])
def test_rank_of_a_row_block_is_its_touched_columns_less_its_kernel(m):
    # rank-nullity over the touched columns: a block's rank is what its
    # kernel basis leaves of them, and it is the target count, which the
    # blocks past the sampled ones add negated
    for targets in weight_buckets(m - 3).values():
        rows = _cubic_rows(targets)
        cols = sorted(set().union(*rows))
        rank = _rank(rows, len(rows))
        assert rank == len(cols) - len(kernel_basis(rows, cols)) == len(targets)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_touched_columns_give_the_full_block_basis_without_untouched_units(
        m, monkeypatch):
    # materialized_kernel_dim solves each sampled row block over the
    # monomials its rows touch; over the whole block the basis is the same
    # vectors in the same order, plus one unit vector per untouched monomial
    solved = []

    def recorded(rows, cols):
        solved.append((rows, cols))
        return kernel_basis(rows, cols)

    monkeypatch.setattr(decomp, "kernel_basis", recorded)
    materialized_kernel_dim(m)
    assert len(solved) == min(SAMPLE_BLOCKS, len(weight_buckets(m - 3)))
    blocks = list(weight_buckets(m - 3).values())
    for (rows, cols), targets in zip(solved, blocks):
        touched = set().union(*rows)
        assert cols == sorted(touched)
        # every touched column is a monomial of the targets' weight
        monos = weight_space(m, monomial_weight(targets[0]))
        assert touched <= set(monos)
        full = kernel_basis(rows, monos)
        assert [vec for vec in full if vec.keys() <= touched] == kernel_basis(rows, cols)
        assert [vec for vec in full if not vec.keys() <= touched] == [
            {c: 1} for c in monos if c not in touched]


def test_materialized_route_lists_no_weight_space(monkeypatch):
    # bases for the sampled blocks, leading-column ranks for the later
    # ones, so no block is eliminated for its rank, and no degree-m
    # weight space listed for either
    listed = []
    solved = []
    ranked = []

    def counted(m, w):
        listed.append(w)
        return weight_space(m, w)

    def recorded(rows, cols):
        solved.append(cols)
        return kernel_basis(rows, cols)

    def ranks(rows, full):
        ranked.append(full)
        return _rank(rows, full)

    monkeypatch.setattr(decomp, "weight_space", counted)
    monkeypatch.setattr(decomp, "kernel_basis", recorded)
    monkeypatch.setattr(decomp, "_rank", ranks)
    materialized_kernel_dim(5)
    assert listed == []
    assert len(solved) == SAMPLE_BLOCKS
    assert ranked == []


def test_eta_terms_are_squarefree():
    # _cubic_rows counts each factor of a source as its count in the
    # target plus one, which needs three distinct indices per term
    assert len(build_eta()) == 45
    assert all(len(set(abc)) == 3 for abc in build_eta())


def _monomials(degree):
    # crowded monomials hold large exponents, x_1^15 and x_27^15 among them
    extremes = st.sampled_from([(1,) * degree, (27,) * degree])
    return st.one_of(extremes, *(
        st.lists(st.integers(1, top), min_size=degree, max_size=degree)
        .map(lambda vs: tuple(sorted(vs)))
        for top in (3, 27)))


@st.composite
def _order_cases(draw):
    d = draw(st.integers(1, 15))
    return (draw(_monomials(draw(st.integers(0, 15)))), draw(_monomials(d)),
            draw(_monomials(d)), draw(_monomials(draw(st.integers(0, 15)))))


@given(_order_cases())
@example(((1,) * 15, (1,) * 15, (27,) * 15, (27,) * 15))
@example(((27,) * 15, (27,) * 15, (26,) * 15, (1,) * 15))
@example(((), (2,) * 15, (1,) + (27,) * 14, (2,) * 15))
def test_products_keep_tuple_order(case):
    # the leading-column premise: on one degree, tuple order is reversed
    # lex order on exponent vectors, a monomial order, so multiplying by
    # a monomial keeps it.  Row t's smallest column is t * min(terms),
    # and s < s' gives s * u < s' * u
    t, s, s2, u = case
    terms = list(build_eta())
    assert (min(tuple(sorted(t + abc)) for abc in terms)
            == tuple(sorted(t + min(terms))))
    assert (tuple(sorted(s + u)) < tuple(sorted(s2 + u))) == (s < s2)


def test_materializing_degree_five_lists_no_degree_five_bucket(monkeypatch, capsys,
                                                               fresh_caches):
    # the caches start empty, so the rank route's degree-2 and degree-3
    # listings are seen whichever tests ran before
    degrees = []

    def counted(real):
        def wrapper(degree):
            degrees.append(degree)
            return real(degree)
        return wrapper

    for module in (singular, decomp):
        monkeypatch.setattr(module, "weight_buckets", counted(singular.weight_buckets))
    argv = ["decompose", "--degree", "5", "--materialize", "--force", "--json"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # the row blocks are built from the degree-2 buckets, and every
    # composite block is full, so no degree-5 block is listed: neither
    # its degree-3 half buckets nor all 169911 degree-5 monomials
    assert 2 in degrees
    assert 3 not in degrees
    assert 5 not in degrees


@pytest.mark.parametrize("degree", [-1, -30])
@pytest.mark.parametrize("route", [phi_dim, materialized_kernel_dim, weight_buckets,
                                   enumerate_singular])
def test_negative_degrees_are_refused(route, degree):
    # both kernel routes, the bucketing they share and the singular scan
    # refuse a negative degree, rather than reporting a kernel or failing
    # deeper down; C(m + 26, 26) is 0 for -26 <= m <= -1, so the scan's
    # dimension count would close on no line at all
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        route(degree)


# phi_dim(m) as the rank route gave it when it also listed every dominant
# weight of degree m: (dim_Am, dim_phi, weyl_terms)
RANK_ROUTE = {
    3: (3654, 3653, ((3, 0, 3003), (1, 1, 650))),
    4: (27405, 27378, ((4, 0, 19305), (2, 1, 7722), (0, 2, 351))),
    5: (169911, 169533, ((5, 0, 100386), (3, 1, 61425), (1, 2, 7722))),
    6: (906192, 902538,
        ((6, 0, 442442), (4, 1, 371800), (2, 2, 85293), (0, 3, 3003))),
}


@pytest.mark.parametrize("m", sorted(RANK_ROUTE))
def test_phi_dim_lists_only_the_target_weights(m, monkeypatch, fresh_caches):
    # D maps the weight-w block of degree m into the one of degree m - 3,
    # so phi_dim ranks the dominant weights of degree m - 3; every
    # composite block is full, which proves each block's rank, so no
    # degree-m monomial is listed
    ranked, listed = [], []

    def counted_weights(degree):
        ranked.append(degree)
        return dominant_weights(degree)

    def counted_space(degree, w):
        listed.append((degree, w))
        return weight_space(degree, w)

    monkeypatch.setattr(decomp, "dominant_weights", counted_weights)
    monkeypatch.setattr(decomp, "weight_space", counted_space)
    s = phi_dim(m)
    assert ranked == [m - 3]
    targets = dominant_weights(m - 3)
    assert listed == [(m - 3, w) for w in targets]
    dim_am, dim_phi, weyl_terms = RANK_ROUTE[m]
    assert s == KernelSummary(degree=m, dim_Am=dim_am, rank_D=comb(m + 23, 26),
                              dim_phi=dim_phi, weyl_terms=weyl_terms,
                              direct_sum_ok=True)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_dominant_blocks_give_the_full_block_rank(m):
    # the rank over every weight block, as phi_dim computed it before it
    # weighted the dominant blocks by orbit size
    targets = weight_buckets(m - 3)
    sources = weight_buckets(m)
    D = cubic_operator()
    rank = sum(_rank([apply(D, {s: 1}) for s in sources.get(w, [])], len(t))
               for w, t in targets.items())
    direct = all(
        _rank([apply(D, pmul(build_eta(), {g: 1})) for g in monos], len(monos))
        == len(monos)
        for monos in targets.values())
    s = phi_dim(m)
    assert (s.rank_D, s.direct_sum_ok) == (rank, direct)
    assert rank == comb(m + 23, 26)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_rank_equals_the_source_side_rank(m):
    assert phi_dim(m).rank_D == source_rank_full(m)


def test_a_short_composite_block_takes_the_source_rank(monkeypatch, capsys,
                                                       fresh_caches):
    # with eta g lost for one g, its block's composite rank falls short:
    # the direct-sum check fails, and that block alone lists its degree-m
    # monomials for its exact source-side rank, so the rank row passes
    m, w = 5, (0, 0, 0, 0, 0, 1)
    lost = {weight_space(m - 3, w)[2]: 1}
    real = decomp.pmul
    monkeypatch.setattr(decomp, "pmul", lambda f, g: {} if g == lost else real(f, g))
    listed = []

    def counted_space(degree, weight):
        listed.append((degree, weight))
        return weight_space(degree, weight)

    monkeypatch.setattr(decomp, "weight_space", counted_space)
    s = phi_dim(m)
    assert not s.direct_sum_ok
    assert s.rank_D == comb(m + 23, 26)
    assert [(d, v) for d, v in listed if d == m] == [(m, w)]
    code = cli.main(["decompose", "--degree", str(m), "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert "Traceback" not in captured.out
    rows = {row["check_id"]: row["status"]
            for row in json.loads(captured.out)["reports"]}
    assert rows[f"decompose.deg{m}.directness"] == "fail"
    assert rows[f"decompose.deg{m}.rank"] == "pass"
    assert rows[f"decompose.deg{m}.kernel-dim"] == "pass"


@pytest.mark.slow
def test_degree_eight_decomposition(capsys):
    s = phi_dim(8)
    assert_decomposition(s)
    assert s.dim_phi == 17986293
    assert s.rank_D == 169911
    assert s.direct_sum_ok
    # phi_dim(8) is cached above, so the decomposition report costs little
    assert cli.main(["decompose", "--degree", "8", "--force", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3064d582436ee695c98fa4b4b3478385c7a9e8a4a9953438acce14c4974783ac")
