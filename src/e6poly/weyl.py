"""Dimension oracle for dominant highest weights.

This module is deliberately independent of the representation
machinery: dimensions come from the product formula over the 36
positive roots, and the series identity cross-checks them against pure
binomial counting of polynomial degrees.  Since all roots have norm 2,
pairings reduce to integer coordinate sums and no irrational
arithmetic is needed: for alpha = sum c_j alpha_j and lambda =
sum w_j lambda_j one has (rho, alpha) = sum c_j and (lambda, alpha) =
sum w_j c_j.  `positive_roots` reads the coordinates once and checks
their shape (36 roots of heights 1..11); `dimension` forms the product
for any dominant weight, and `weyl_dim(m1, m2)` reads it at
m1 lambda_1 + m2 lambda_6.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod
from typing import NamedTuple

from .rootsys import root_system

__all__ = [
    "MAX_IDENTITY_DEGREE",
    "SeriesReport",
    "dimension",
    "identity_check",
    "positive_roots",
    "weyl_dim",
]


@lru_cache(maxsize=1)
def positive_roots() -> tuple[tuple[int, ...], ...]:
    """Simple-root coordinates (c_1..c_6) of the positive roots."""
    coords = tuple(v[:6] for v in root_system().e6_positive)
    heights = [sum(c) for c in coords]
    # 36 positive roots, every height >= 1, highest root height 11
    if len(coords) != 36 or min(heights) < 1 or max(heights) != 11:
        raise ValueError("positive-root data out of shape")
    return coords


def dimension(weight) -> int:
    """dim V(lambda), lambda = sum w_j lambda_j dominant given as (w_1..w_6):
    the product of (lambda + rho, alpha) / (rho, alpha) over alpha > 0."""
    if any(w < 0 for w in weight):
        raise ValueError("highest-weight labels must be nonnegative")
    roots = positive_roots()
    heights = factors = [sum(c) for c in roots]
    for w, column in zip(weight, zip(*roots)):
        if w:  # one pass per nonzero label, not a 6-term sum per root
            factors = [f + w * c for f, c in zip(factors, column)]
    q, rem = divmod(prod(factors), prod(heights))
    if rem:
        raise ArithmeticError(f"non-integral dimension for {tuple(weight)}")
    return q


def weyl_dim(m1: int, m2: int) -> int:
    """dim V(m1 lambda_1 + m2 lambda_6), an exact integer."""
    return dimension((m1, 0, 0, 0, 0, m2))


# degree bound of the series identity: the default of identity_check and
# the largest bound the command line accepts
MAX_IDENTITY_DEGREE = 12


class SeriesReport(NamedTuple):
    """Truncated check that (1-q)^26 sum dim q^(m1+2m2) = 1 + q + q^2.

    degree_sums carries the equivalent coefficient form: its entry m is
    the sum of weyl_dim(m1, m2) over 3m3 + m1 + 2m2 = m, which must equal
    the dimension of degree-m polynomials in 27 variables, C(m+26, 26).
    """

    series_coefficients: tuple[int, ...]
    degree_sums: tuple[int, ...]


def identity_check(max_degree: int = MAX_IDENTITY_DEGREE) -> SeriesReport:
    """Verify the dimension generating identity through max_degree."""
    n = max_degree
    if n < 0:
        raise ValueError("max_degree must be nonnegative")
    dim_series = [0] * (n + 1)
    for m2 in range(n // 2 + 1):
        for m1 in range(n - 2 * m2 + 1):
            dim_series[m1 + 2 * m2] += weyl_dim(m1, m2)
    truncated = tuple(
        sum(
            (-1) ** j * comb(26, j) * dim_series[k - j]
            for j in range(min(k, 26) + 1)
        )
        for k in range(n + 1)
    )
    return SeriesReport(
        series_coefficients=truncated,
        degree_sums=tuple(
            sum(dim_series[m - 3 * m3] for m3 in range(m // 3 + 1))
            for m in range(n + 1)
        ),
    )
