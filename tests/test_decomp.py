"""Kernel decomposition tests.

The cubic operator D maps degree m to degree m-3.  Its kernel carries
the new irreducible content at each degree; the complement is exactly
eta times the lower degree, which the directness check certifies.
"""

from math import comb

import pytest

from e6poly.decomp import (
    CLOSURE_GUARD,
    _cubic_terms,
    kernel_samples,
    lowering_closure,
    materialized_kernel_dim,
    phi_dim,
    weyl_sum_check,
)
from e6poly.invariants import build_eta, build_operators
from e6poly.polyops import apply
from e6poly.weyl import weyl_dim


def test_cubic_terms_match_the_invariant():
    eta = build_eta()
    assert len(_cubic_terms()) == 45
    rebuilt = {}
    for c, (a, b, d) in _cubic_terms():
        rebuilt[(a, b, d)] = c
    assert rebuilt == eta


def test_low_degrees_have_trivial_kernel_rank():
    for m in range(3):
        s = phi_dim(m)
        assert s.rank_D == 0
        assert s.dim_phi == s.dim_Am == comb(m + 26, 26)


def test_degree_three_decomposition():
    # the cubic invariant itself is not in the kernel, so the trivial
    # weight does not appear in the sum
    s = phi_dim(3)
    assert s.ok
    assert s.dim_phi == 3653
    assert s.rank_D == 1
    assert s.weyl_sum == weyl_dim(3, 0) + weyl_dim(1, 1)


def test_degree_four_decomposition():
    s = phi_dim(4)
    assert s.ok
    assert s.dim_phi == 27378
    assert s.rank_D == 27
    assert s.direct_sum_ok


def test_weyl_sum_report():
    r = weyl_sum_check(4)
    assert r.ok
    assert r.dim_phi == 27378
    assert set(r.terms) == {
        (4, 0, weyl_dim(4, 0)),
        (2, 1, weyl_dim(2, 1)),
        (0, 2, weyl_dim(0, 2)),
    }


def test_kernel_samples_are_killed():
    D = build_operators().D
    for vec in kernel_samples(3, max_blocks=6):
        assert not apply(D, vec)


def test_materialized_kernel_matches_rank_count():
    assert materialized_kernel_dim(3) == 3653


def test_closure_guard():
    assert CLOSURE_GUARD == 4
    with pytest.raises(ValueError):
        lowering_closure(3, 1)
    with pytest.raises(ValueError):
        lowering_closure(1, 2)


def test_fundamental_closures():
    assert lowering_closure(1, 0) == 27
    assert lowering_closure(0, 1) == 27


def test_adjoint_closure():
    # highest weight (1,0)+(0,1) generates the 650-dimensional piece,
    # matching the dimension oracle
    assert lowering_closure(1, 1, force=True) == weyl_dim(1, 1) == 650


@pytest.mark.slow
def test_degree_five_decomposition():
    s = phi_dim(5)
    assert s.ok
    assert s.dim_phi == 169533
    assert s.rank_D == comb(28, 26)


@pytest.mark.slow
def test_materialized_kernel_degree_four():
    assert materialized_kernel_dim(4) == 27378
