"""Dimension oracle tests.

The oracle multiplies pairings over the 36 positive roots and never
touches the polynomial machinery, so it can certify kernel dimensions
computed the hard way.
"""

from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from e6poly import weyl
from e6poly.weyl import dimension, identity_check, positive_roots, weyl_dim

KNOWN_DIMS = {
    (0, 0): 1,
    (1, 0): 27,
    (0, 1): 27,
    (2, 0): 351,
    (1, 1): 650,
    (0, 2): 351,
    (3, 0): 3003,
    (2, 1): 7722,
    (4, 0): 19305,
}


def test_known_dimensions():
    for (m1, m2), dim in KNOWN_DIMS.items():
        assert weyl_dim(m1, m2) == dim


def test_fundamental_dimensions():
    # Bourbaki labels: lambda_1 and lambda_6 the two 27s, lambda_2 the
    # adjoint, lambda_3 and lambda_5 the two 351s, lambda_4 the 2925
    fundamental = [dimension(tuple(int(i == j) for i in range(6)))
                   for j in range(6)]
    assert fundamental == [27, 78, 351, 2925, 351, 27]
    assert dimension((1, 0, 0, 0, 0, 1)) == 650
    assert dimension((0,) * 6) == 1


def test_weyl_dim_is_the_dimension_at_its_labels():
    for m2 in range(7):
        for m1 in range(13 - 2 * m2):
            assert weyl_dim(m1, m2) == dimension((m1, 0, 0, 0, 0, m2))


def test_dimension_refuses_a_negative_label():
    with pytest.raises(ValueError, match="nonnegative"):
        dimension((0, 0, -1, 0, 0, 0))


def test_half_sum_pairings():
    roots = positive_roots()
    heights = [sum(c) for c in roots]
    assert len(roots) == 36
    assert min(heights) == 1   # simple roots pair to 1
    assert max(heights) == 11  # highest root pairs to the exponent


_m = st.integers(min_value=0, max_value=12)


@settings(max_examples=120)
@given(_m, _m)
def test_dimension_symmetry(m1, m2):
    # the two 27-dimensional weights are swapped by the diagram flip
    assert weyl_dim(m1, m2) == weyl_dim(m2, m1)


@settings(max_examples=120)
@given(_m, _m)
def test_dimension_positive_integer(m1, m2):
    d = weyl_dim(m1, m2)
    assert isinstance(d, int)
    assert d >= 1


@settings(max_examples=60)
@given(_m)
def test_row_growth_is_monotone(m1):
    assert weyl_dim(m1 + 1, 0) > weyl_dim(m1, 0)


def test_series_identity_through_degree_twelve():
    r = identity_check(12)
    assert r.series_coefficients == (1, 1, 1) + (0,) * 10
    assert r.degree_sums == tuple(comb(m + 26, 26) for m in range(13))


def test_binomial_partition_at_low_degree():
    # every monomial degree splits across the invariant-power grading
    for m in range(7):
        total = sum(
            weyl_dim(m - 3 * m3 - 2 * m2, m2)
            for m3 in range(m // 3 + 1)
            for m2 in range((m - 3 * m3) // 2 + 1)
        )
        assert total == comb(m + 26, 26)


def test_weyl_dim_rejects_bad_root_table(monkeypatch):
    broken = positive_roots()[:35]
    monkeypatch.setattr(weyl, "positive_roots", lambda: broken)
    with pytest.raises(ArithmeticError):
        weyl_dim(1, 0)
