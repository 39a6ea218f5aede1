"""Weight spaces and singular vectors of the polynomial module.

Degree-m monomials are enumerated as the sorted index tuples of
`polyops` and bucketed by weight.  A singular vector is a polynomial
killed by all six simple raising operators; because the module algebra
is completely reducible, that is equivalent to being a highest-weight
vector, and `verify_annihilated` double-checks candidates against all 36
positive root operators.

Kernels are computed per weight space: the six raising operators map a
weight space into six other weight spaces (each image comes from
`polyops.apply` with integer coefficients), and the joint kernel of the
stacked coefficient matrix is found by exact fraction-free elimination.
Singular vectors are returned as integer polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add

from .linalg import kernel_basis, rank_of
from .polyops import Monomial, Poly, apply
from .rep import all_operators, raising_operator, weight_table
from .rootsys import root_system

Weight = tuple[int, int, int, int, int, int]


def monomial_weight(mono: Monomial) -> Weight:
    rows = weight_table()
    acc = (0, 0, 0, 0, 0, 0)
    for v in mono:
        row = rows[v - 1]
        acc = tuple(a + b for a, b in zip(acc, row))
    return acc


@lru_cache(maxsize=None)
def weight_buckets(degree: int) -> dict[Weight, list[Monomial]]:
    """All degree-m monomials grouped by weight.

    Monomials are built factor by factor in lex order, each prefix
    carrying its weight, so keys and lists come out in the order of
    combinations_with_replacement(range(1, 28), degree).
    """
    if degree == 0:
        return {(0, 0, 0, 0, 0, 0): [()]}
    rows = weight_table()
    buckets: dict[Weight, list[Monomial]] = {}

    def extend(mono: Monomial, acc: Weight, first: int, left: int) -> None:
        for v in range(first, 28):
            w = tuple(map(add, acc, rows[v - 1]))
            if left == 1:
                buckets.setdefault(w, []).append(mono + (v,))
            else:
                extend(mono + (v,), w, v, left - 1)

    extend((), (0, 0, 0, 0, 0, 0), 1, degree)
    return buckets


def weight_space(degree: int, weight: Weight) -> list[Monomial]:
    return list(weight_buckets(degree).get(tuple(weight), []))


def _raising_system(degree: int, weight: Weight):
    """Constraint rows of the six simple raising operators on one weight
    space, indexed by image monomial, and the weight-space basis in
    graded-lex column order (larger tuple first)."""
    basis = weight_space(degree, weight)
    if not basis:
        return [], []
    ops = [raising_operator(k).weyl() for k in range(1, 7)]
    rows: dict[tuple[int, Monomial], dict[Monomial, int]] = {}
    for mono in basis:
        for k, op in enumerate(ops):
            for target, c in apply(op, {mono: 1}).items():
                rows.setdefault((k, target), {})[mono] = c
    return [rows[key] for key in sorted(rows)], sorted(basis, reverse=True)


def singular_space(degree: int, weight: Weight) -> list[dict[Monomial, int]]:
    """Basis of the singular vectors of given degree and weight.

    Vectors are integer, content 1, positive on their canonically
    earliest monomial (largest in graded-lex order).
    """
    rows, columns = _raising_system(degree, weight)
    return kernel_basis(rows, columns) if columns else []


def singular_dimension(degree: int, weight: Weight) -> int:
    rows, columns = _raising_system(degree, weight)
    if not columns:
        return 0
    order = {m: i for i, m in enumerate(columns)}
    return len(columns) - rank_of(rows, lambda c: order[c])


def dominant_weights(degree: int) -> list[Weight]:
    return sorted(
        w for w in weight_buckets(degree) if all(c >= 0 for c in w)
    )


@dataclass(frozen=True)
class SingularScan:
    degree: int
    lines: tuple[tuple[Weight, int], ...]  # (weight, dimension), dim > 0

    @property
    def total(self) -> int:
        return sum(d for _, d in self.lines)


def enumerate_singular(degree: int) -> SingularScan:
    """Scan every dominant weight of the degree-m monomial set.

    A singular vector generates a highest-weight line, and highest
    weights are dominant, so scanning all dominant weights realized by
    degree-m monomials finds every singular line.
    """
    lines = []
    for w in dominant_weights(degree):
        d = singular_dimension(degree, w)
        if d:
            lines.append((w, d))
    return SingularScan(degree=degree, lines=tuple(lines))


def verify_annihilated(vec: Poly) -> bool:
    """Check annihilation by all 36 positive-root operators."""
    ops = all_operators()
    return not any(apply(ops[r[:6]].weyl(), vec) for r in root_system().e6_positive)


def expected_line_count(degree: int) -> int:
    """Number of singular lines predicted by the monomial generators:
    solutions of a + 2b + 3c = degree in nonneg integers."""
    return sum(
        (degree - 3 * c) // 2 + 1 for c in range(degree // 3 + 1)
    )
