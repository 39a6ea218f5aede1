"""Exact linear algebra tests: echelon rank, kernel bases, spans,
determinants."""

from math import gcd

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from e6poly.decomp import _cubic_rows
from e6poly.linalg import IntEchelon, int_det, kernel_basis
from e6poly.singular import weight_buckets
from oracles import fraction_kernel


def _rank(rows):
    ech = IntEchelon(lambda c: c)
    for row in rows:
        ech.insert(row)
    return ech.rank


def test_echelon_rank_of_identity():
    ech = IntEchelon(lambda k: k)
    for i in range(4):
        assert ech.insert({i: 1})
    assert ech.rank == 4
    assert not ech.insert({0: 2, 2: -5})  # dependent row


def test_kernel_basis_simple_relation():
    # x + y = 0 over columns (x, y): kernel is the line (1, -1)
    rows = [{"x": 1, "y": 1}]
    basis = kernel_basis(rows, ["x", "y"])
    assert len(basis) == 1
    (vec,) = basis
    assert vec["x"] * 1 + vec["y"] * 1 == 0
    assert sorted(vec.values()) == [-1, 1]


def test_kernel_basis_content_one():
    rows = [{"a": 2, "b": 4}]
    (vec,) = kernel_basis(rows, ["a", "b"])
    assert gcd(*[abs(v) for v in vec.values()]) == 1


def test_rank_of_dependent_rows():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}]
    assert _rank(rows) == 2


def test_echelon_insert_dedup():
    span = IntEchelon(lambda k: k)
    assert span.insert({0: 1, 1: 2})
    assert not span.insert({0: 2, 1: 4})
    assert span.insert({1: 1})
    assert span.rank == 2
    assert not span.insert({0: 3, 1: 7})
    assert span.pivots.keys() == {0, 1}


_dim = 4


@st.composite
def square_matrices(draw):
    return [
        [draw(st.integers(min_value=-5, max_value=5)) for _ in range(_dim)]
        for _ in range(_dim)
    ]


@settings(max_examples=100)
@given(square_matrices())
def test_det_zero_iff_rank_deficient(mat):
    rows = [
        {j: v for j, v in enumerate(row) if v}
        for row in mat
    ]
    rank = _rank(r for r in rows if r)
    det = int_det([row[:] for row in mat])
    assert (det == 0) == (rank < _dim)


@settings(max_examples=60)
@given(square_matrices(), square_matrices())
def test_det_multiplicative(a, b):
    prod = [
        [sum(a[i][k] * b[k][j] for k in range(_dim)) for j in range(_dim)]
        for i in range(_dim)
    ]
    assert int_det(prod) == int_det([r[:] for r in a]) * int_det([r[:] for r in b])


@settings(max_examples=60)
@given(square_matrices())
def test_kernel_vectors_annihilate_rows(mat):
    rows = [
        {j: v for j, v in enumerate(row) if v}
        for row in mat
    ]
    rows = [r for r in rows if r]
    for vec in kernel_basis(rows, list(range(_dim))):
        for row in rows:
            assert sum(row.get(j, 0) * vec.get(j, 0) for j in range(_dim)) == 0


# up to 12 columns against at most 6 rows, so free columns met by three
# or more pivots come up
@st.composite
def integer_systems(draw):
    ncols = draw(st.integers(min_value=1, max_value=12))
    entries = st.integers(min_value=-4, max_value=4) | st.just(0)
    matrix = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                           max_size=6))
    rows = [{c: v for c, v in enumerate(row) if v} for row in matrix]
    return rows, draw(st.permutations(range(ncols)))


@settings(max_examples=300)
@given(integer_systems())
def test_kernel_basis_matches_fraction_rref(system):
    rows, columns = system
    assert kernel_basis(rows, columns) == fraction_kernel(rows, columns)


@pytest.mark.parametrize("m", [4, 5])
def test_kernel_basis_matches_fraction_rref_on_the_cubic_blocks(m):
    # every row block of D at degree m, over the monomials its rows
    # touch: 27 blocks of 1 x 45 at degree 4; 243 of 1 x 45 and 27 of
    # 5 x 215 at degree 5
    for targets in weight_buckets(m - 3).values():
        rows = _cubic_rows(targets)
        cols = sorted(set().union(*rows))
        assert kernel_basis(rows, cols) == fraction_kernel(rows, cols)
