"""Weight spaces and singular vectors of the polynomial module.

Degree-m monomials are the sorted index tuples of `polyops`.
`weight_buckets` is the one bucketing: all of them grouped by weight,
cached per degree.  `weight_space` lists one weight only, joining two
half-degree bucketings, so the scan never holds all C(m + 26, 26)
monomials.

Bucketing keys each weight by one packed integer (`_pack`): six
balanced 16-bit digits, one per coordinate.  The 27 variable weights
have coordinates in {-1, 0, 1}, so a degree-m weight has coordinates in
[-m, m]; packing is additive and one-to-one there, so a monomial's key
is built with one int add per factor, and a join subtracts keys.

Weight multiplicities are Weyl-invariant, so the dominant weights
carry all the information: `dominant_weights` builds them degree by
degree by simple-reflection walks, listing no monomial: `decomp.phi_dim`
certifies the blocks it lists by their `orbit_size`-weighted count.

A singular vector is a polynomial killed by all six simple raising
operators; because the module algebra is completely reducible, that is
equivalent to being a highest-weight vector.  Highest weights are
dominant, so only dominant blocks are scanned.

A block is solved by `singular_space`: `linalg.kernel_basis` of the six
raising operators' integer rows on one weight space, built with one
`polyops.apply` per monomial and operator.

The scan `enumerate_singular` solves few blocks.  The raising operators
are derivations, so a product of two lower singular vectors is singular
(Humphreys section 20-21): the scan multiplies its lower lines, one
product per weight reached, and applies no operator to it.  The
homomorphism check is the premise: its `first_order_brackets` refuses
a term that is not x_i d_j, and the 78 operators form a representation,
so the degree-m polynomials are completely reducible and C(m + 26, 26)
is the sum of dim V(w) over their singular lines.  Once the product
weights' dimensions add up to it, no other block holds a line.  Blocks
the count leaves open, those of 1, x_1, zeta_1 and eta, are solved in
weight order; if the check fails, the scan raises.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import comb
from operator import add
from typing import NamedTuple

from .linalg import kernel_basis
from .polyops import Monomial, Poly, apply, pmul, poly
from .rep import raising_operator, verify_homomorphism, weight_table
from .rootsys import CARTAN_E7
from .weyl import dimension, positive_roots

Weight = tuple[int, int, int, int, int, int]


_DIGIT = 16  # bits per packed coordinate


def _pack(weight) -> int:
    """One int for a weight: coordinate i is the balanced base-2**16
    digit i.  Additive, and one-to-one on coordinates in [-2**15, 2**15)."""
    return sum(c << (_DIGIT * i) for i, c in enumerate(weight))


def _variable_keys() -> list[int]:
    """`_pack` of each variable's weight, x_1 first."""
    return [_pack(row) for row in weight_table()]


@lru_cache(maxsize=None)
def weight_buckets(degree: int) -> dict[int, list[Monomial]]:
    """All degree-m monomials grouped by weight, keyed by `_pack`: every
    coordinate of a degree-m weight lies in [-m, m], so keys are
    distinct.

    Monomials are built factor by factor in lex order, each prefix
    carrying its packed weight, so keys and lists come out in the order
    of combinations_with_replacement(range(1, 28), degree).
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree == 0:
        return {0: [()]}
    keys = _variable_keys()
    buckets: dict[int, list[Monomial]] = {}

    def extend(mono: Monomial, acc: int, first: int, left: int) -> None:
        for v in range(first, 28):
            w = acc + keys[v - 1]
            if left == 1:
                buckets.setdefault(w, []).append(mono + (v,))
            else:
                extend(mono + (v,), w, v, left - 1)

    extend((), 0, 1, degree)
    return buckets


def weight_space(degree: int, weight: Weight) -> list[Monomial]:
    """The degree-m monomials of one weight, in lex order.

    Meet in the middle: each monomial splits into a low half of degree
    m // 2 and a high half whose first index is at least the low half's
    last, and the high half's weight is the complement of the low one's.
    A weight with a coordinate outside [-m, m] has no monomials; it is
    turned away before packing, where it could alias a real key.
    """
    weight = tuple(weight)
    if any(abs(c) > degree for c in weight):
        return []
    key = _pack(weight)
    low = weight_buckets(degree // 2)
    high = weight_buckets(degree - degree // 2)
    out = []
    for k, halves in low.items():
        rest = high.get(key - k)
        if rest:
            for p in halves:
                # rest is in lex order: skip the q with q[0] < p[-1]
                out.extend(p + q for q in rest[bisect_left(rest, p[-1:]):])
    return sorted(out)


def _raising_system(degree: int, weight: Weight):
    """Constraint rows of the six simple raising operators on one weight
    space, one `apply` per monomial and operator: rows indexed by
    (operator, image monomial) in sorted order, entries in basis order,
    and the basis in graded-lex column order (larger tuple first)."""
    basis = weight_space(degree, weight)
    ops = [raising_operator(k) for k in range(1, 7)]
    rows: dict[tuple[int, Monomial], dict[Monomial, int]] = {}
    for mono in basis:
        for k, op in enumerate(ops):
            for target, c in apply(op, {mono: 1}).items():
                rows.setdefault((k, target), {})[mono] = c
    return [rows[key] for key in sorted(rows)], sorted(basis, reverse=True)


def singular_space(degree: int, weight: Weight) -> list[dict[Monomial, int]]:
    """Basis of the singular vectors of given degree and weight: the
    kernel of the block's `_raising_system` rows.  The scan solves only
    the blocks its dimension count leaves open.

    Vectors are integer, content 1, positive on their canonically
    earliest monomial (largest in graded-lex order), keys ascending.
    """
    return kernel_basis(*_raising_system(degree, weight))


def raising_residual(f: Poly) -> Poly:
    """Combined image of f under the 6 simple raising operators; on a
    weight vector their images have distinct weights, so none cancel."""
    return poly(term for k in range(1, 7)
                for term in apply(raising_operator(k), f).items())


WEYL_ORDER = 51840  # |W(E6)|


def orbit_size(weight: Weight) -> int:
    """Size of the Weyl orbit of a dominant weight.

    Its stabiliser is the parabolic subgroup W_J on the zero coordinates
    J, whose order is the product of (ht a + 1) / ht a over the positive
    roots a supported on J (Macdonald's height formula).
    """
    num = den = 1
    for root in positive_roots():
        if not any(c and w for c, w in zip(root, weight)):
            h = sum(root)
            num *= h + 1
            den *= h
    q, rem = divmod(WEYL_ORDER * den, num)
    if rem:
        raise ArithmeticError(f"non-integral orbit size for {weight}")
    return q


def dominant(weight) -> Weight:
    """The dominant weight of a weight's Weyl orbit, reached by simple
    reflections s_i(w) = w - w_i alpha_i in fundamental coordinates."""
    w = list(weight)
    while True:
        i = next((i for i, c in enumerate(w) if c < 0), None)
        if i is None:
            return tuple(w)
        c = w[i]
        for j, a in enumerate(CARTAN_E7[i][:6]):
            w[j] -= c * a


@lru_cache(maxsize=None)
def dominant_weights(degree: int) -> tuple[Weight, ...]:
    """The dominant weights of the degree-m monomials, sorted.

    A weight of degree m is a weight of degree m - 1 plus one of the 27
    variable weights, and the weight set is W-stable, so the dominant
    ones are the dominant representatives of mu + eps over the dominant
    mu of degree m - 1.  Plain combinatorics: no monomial is listed, and
    a caller that lists the blocks certifies them by its own count.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree == 0:
        found = {(0, 0, 0, 0, 0, 0)}
    else:
        found = {
            dominant(map(add, mu, eps))
            for mu in dominant_weights(degree - 1)
            for eps in weight_table()
        }
    return tuple(sorted(found))


class SingularScan(NamedTuple):
    bases: tuple[tuple[Weight, list[Poly]], ...]  # (weight, basis), basis nonempty

    @property
    def lines(self) -> tuple[tuple[Weight, int], ...]:
        """(weight, dimension) of each weight space holding singular vectors."""
        return tuple((w, len(basis)) for w, basis in self.bases)

    @property
    def total(self) -> int:
        return sum(len(basis) for _, basis in self.bases)


def _product_lines(degree: int) -> dict[Weight, list[Poly]]:
    """One line per weight that a product of two lower lines reaches: the
    first basis vectors of lines of degrees d1 <= m/2 and m - d1,
    multiplied, checked nonzero and of the summed weight in every
    monomial, keys sorted.  They are singular, as the raising operators
    are derivations (`first_order_brackets` in `verify_homomorphism`).

    A product is already in `singular_space`'s normal form.  Content is
    multiplicative (Gauss's lemma), and tuple order on one degree is
    reverse lex on exponents, a monomial order, so the product's largest
    monomial is the product of its factors' largest ones, positive."""
    keys = _variable_keys()
    lines: dict[Weight, list[Poly] | None] = {}  # None: the product failed
    for d1 in range(1, degree // 2 + 1):
        upper = enumerate_singular(degree - d1).bases
        for w1, (low, *_) in enumerate_singular(d1).bases:
            for w2, (high, *_) in upper:
                weight = tuple(map(add, w1, w2))
                if weight not in lines:
                    vec, key = pmul(low, high), _pack(weight)
                    ok = vec and all(sum(keys[v - 1] for v in m) == key for m in vec)
                    lines[weight] = [dict(sorted(vec.items()))] if ok else None
    return {w: line for w, line in lines.items() if line}


@lru_cache(maxsize=None)
def enumerate_singular(degree: int) -> SingularScan:
    """The singular lines of degree m, as (dominant weight, basis) in
    weight order: the product lines, then solved dominant blocks until
    the Weyl dimensions add up to C(m + 26, 26), else ValueError, as
    when the homomorphism check fails: the premise of the count and,
    through `first_order_brackets`, of the product lines."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if not verify_homomorphism().ok:
        raise ValueError("the homomorphism check fails, so complete "
                         "reducibility and the dimension count have no premise")
    total = comb(degree + 26, 26)
    bases = _product_lines(degree)
    count = sum(map(dimension, bases))
    if count < total:
        for w in dominant_weights(degree):
            if w not in bases and (basis := singular_space(degree, w)):
                bases[w] = basis
                count += len(basis) * dimension(w)
                if count >= total:
                    break
    if count != total:
        raise ValueError(
            f"singular lines of degree {degree} count {count} dimensions, "
            f"not C({degree + 26}, 26)"
        )
    return SingularScan(bases=tuple(sorted(bases.items())))


def expected_line_count(degree: int) -> int:
    """Number of singular lines predicted by the monomial generators:
    solutions of a + 2b + 3c = degree in nonneg integers."""
    return sum(
        (degree - 3 * c) // 2 + 1 for c in range(degree // 3 + 1)
    )
