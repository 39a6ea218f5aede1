"""Root lattice of type E7, its E6 subsystem, and the boundary cocycle.

Vectors are 7-tuples of integers: coordinates with respect to the simple
roots alpha_1..alpha_7, numbered so that the Dynkin diagram has edges
1-3, 3-4, 2-4, 4-5, 5-6, 6-7 (node 2 is the short branch).  The symmetric
bilinear form is the one that gives every root squared length 2.

The roots come from two independent routes that must agree.  The first
closes the 7 simple roots under the simple reflections
s_i(v) = v - (A v)_i alpha_i; every root is W-conjugate to a simple root
(Humphreys, Reflection Groups and Coxeter Groups, 1.5).  The second is an
exhaustive scan of every lattice vector of norm 2.  On a positive definite
form A, the maximum of k_i^2 over k^T A k <= c is c (A^-1)_ii (Fincke and
Pohst, Math. Comp. 44, 1985), so every norm-2 vector lies in the box
|k_i| <= isqrt(2 minor_ii(A) // det(A)) = (2,2,3,4,3,2,1), the exact
inverse being read off integer determinants.  The scan sums the
nonzero terms of k^T A k over the box's open grid, so it never lists the
box's 165 375 vectors.

The subsystem generated by alpha_1..alpha_6 is of type E6, and the set of
positive roots with k_7 = 1 carries the 27-dimensional basic E6 module.
Their ordering as basis vectors x_1..x_27 is fixed by BAR_BASIS_SUMS.

The sign cocycle F on the lattice is defined by

    F(a, b) = (-1) ** (sum_i a_i*b_i + sum_{i>j} a_i*b_j*(alpha_i, alpha_j))

and supplies the structure constants of the Lie bracket in `liealg`.
Its exponent mod 2 depends only on the parities of a and b, so F is read
off the 7-bit odd masks by one kernel, `_sign_parity`.  Its laws come
from two routes: an F2 certificate on the 7 x 7 matrix of that kernel
proves them for every lattice vector, and a seeded sweep over root
pairs, sampled lattice pairs and triples, and simple-root triples checks
them directly.

numpy serves only the box scan, which is integer elementwise work, so the
module caps OpenBLAS at one thread before it imports numpy (unless the
caller set OPENBLAS_NUM_THREADS): no idle BLAS worker thread starts.
"""

from __future__ import annotations

import itertools
import os
import random
from collections.abc import Iterator
from functools import lru_cache
from math import isqrt
from operator import mul
from typing import NamedTuple

# numpy runs no BLAS routine here, so its OpenBLAS pool would only start an
# idle worker thread; the library reads this variable once, when it loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np

from .linalg import int_det

NVARS = 27

CARTAN_E7: tuple[tuple[int, ...], ...] = (
    (2, 0, -1, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0),
    (0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, -1, 2),
)

Vector = tuple[int, ...]

# Seeded random lattice vectors for the cocycle laws are drawn from
# [-COCYCLE_SAMPLE_BOUND, COCYCLE_SAMPLE_BOUND]^7.
COCYCLE_SAMPLE_BOUND = 4


def bilinear(a: Vector, b: Vector) -> int:
    total = 0
    for ai, row in zip(a, CARTAN_E7):
        if ai:
            total += ai * sum(map(mul, row, b))
    return total


def is_root(v: Vector) -> bool:
    return bilinear(v, v) == 2


def alpha(i: int) -> Vector:
    """Simple root alpha_i, 1-based."""
    return tuple(1 if j == i - 1 else 0 for j in range(7))


def srange(lo: int, hi: int) -> Vector:
    """alpha_lo + alpha_{lo+1} + ... + alpha_hi (empty when lo > hi)."""
    return tuple(1 if lo - 1 <= j <= hi - 1 else 0 for j in range(7))


def vadd(*vs: Vector) -> Vector:
    return tuple(map(sum, zip(*vs)))


def vneg(v: Vector) -> Vector:
    return tuple(-c for c in v)


def vscale(k: int, v: Vector) -> Vector:
    return tuple(k * c for c in v)


def leading_minors_positive() -> bool:
    return all(int_det([r[: k + 1] for r in CARTAN_E7[: k + 1]]) > 0 for k in range(7))


def certified_bounds() -> Vector:
    """Per-coordinate bounds b_i with |k_i| <= b_i for every k of norm 2.

    b_i = isqrt(2 (A^-1)_ii), with (A^-1)_ii = minor_ii(A) / det(A) taken
    from exact integer determinants.  The bound needs A positive definite.
    """
    if not leading_minors_positive():
        raise ValueError("the form is not positive definite, so no box holds its roots")
    det = int_det(CARTAN_E7)
    bounds = []
    for i in range(7):
        rows = CARTAN_E7[:i] + CARTAN_E7[i + 1:]
        minor = [row[:i] + row[i + 1:] for row in rows]
        bounds.append(isqrt(2 * int_det(minor) // det))
    return tuple(bounds)


def _scan_norm2() -> list[Vector]:
    """Every vector of norm 2 in the certified box, sorted.

    k^T A k is evaluated on the open grid np.ix_ of the box's seven
    ranges: each of the 13 nonzero Cartan terms, a k_i^2 on the diagonal
    and 2a k_i k_j on an edge, broadcasts from at most two axes into one
    int32 array of the box's shape.  No meshgrid or (N, 7) block of the
    box's vectors is built: the scan holds one norm per box point, and
    only the indices of the 126 roots become vectors.
    """
    bounds = certified_bounds()
    k = np.ix_(*(np.arange(-b, b + 1, dtype=np.int32) for b in bounds))
    norms = np.zeros([2 * b + 1 for b in bounds], dtype=np.int32)
    for i, row in enumerate(CARTAN_E7):
        for j in range(i, 7):
            if row[j]:
                norms += (row[j] if i == j else 2 * row[j]) * k[i] * k[j]
    return sorted(tuple(int(c) - b for c, b in zip(idx, bounds))
                  for idx in np.argwhere(norms == 2))


def _reflection_closure() -> list[Vector]:
    """Orbit of the simple roots under s_i(v) = v - (A v)_i alpha_i."""
    seen = {alpha(i) for i in range(1, 8)}
    todo = list(seen)
    while todo:
        v = todo.pop()
        for i, row in enumerate(CARTAN_E7):
            w = v[:i] + (v[i] - sum(a * c for a, c in zip(row, v)),) + v[i + 1:]
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return sorted(seen)


def _is_positive_by_sign_pattern(v: Vector) -> bool:
    return all(c >= 0 for c in v) and any(c > 0 for c in v)


def _is_positive_by_first_nonzero(v: Vector) -> bool:
    for c in v:
        if c:
            return c > 0
    return False


class RootSystem(NamedTuple):
    roots: tuple[Vector, ...]
    positive: tuple[Vector, ...]
    e6_roots: tuple[Vector, ...]
    e6_positive: tuple[Vector, ...]
    bar_positive: tuple[Vector, ...]  # k_7 = 1, in x_1..x_27 basis order
    root_set: frozenset[Vector]


@lru_cache(maxsize=None)
def root_system() -> RootSystem:
    roots = _scan_norm2()
    if _reflection_closure() != roots:
        raise ValueError("reflection closure of the simple roots disagrees with the norm-2 scan")
    positive = []
    for v in roots:
        p1 = _is_positive_by_sign_pattern(v)
        p2 = _is_positive_by_first_nonzero(v)
        if p1 != p2:
            raise ValueError(f"positivity conventions disagree on {v}")
        if p1:
            positive.append(v)
    e6_roots = [v for v in roots if v[6] == 0]
    e6_positive = [v for v in positive if v[6] == 0]
    bar = bar_basis()
    bar_from_scan = {v for v in positive if v[6] == 1}
    if set(bar) != bar_from_scan:
        raise ValueError("explicit k_7=1 basis does not match the scanned set")
    return RootSystem(
        roots=tuple(roots),
        positive=tuple(positive),
        e6_roots=tuple(e6_roots),
        e6_positive=tuple(e6_positive),
        bar_positive=bar,
        root_set=frozenset(roots),
    )


# Basis vectors x_1..x_27: each entry is a list of summands in the
# composite form used to fix the ordering; every sum must land on a
# norm-2 lattice vector with k_7 = 1.
_TWO16 = vscale(2, srange(1, 6))

BAR_BASIS_SUMS: tuple[tuple[Vector, ...], ...] = (
    (alpha(3), vscale(2, alpha(4)), alpha(5), srange(1, 6), srange(1, 7)),  # x1
    (_TWO16, vneg(alpha(1)), alpha(4), vneg(alpha(6)), srange(3, 7)),       # x2
    (_TWO16, vneg(alpha(1)), alpha(4), vneg(alpha(6)), srange(4, 7)),       # x3
    (_TWO16, vneg(alpha(1)), vneg(alpha(6)), srange(4, 7)),                 # x4
    (_TWO16, vneg(alpha(1)), alpha(4), alpha(7)),                           # x5
    (srange(1, 5), srange(3, 6), srange(4, 7)),                             # x6
    (alpha(4), srange(3, 6), srange(1, 7)),                                 # x7
    (_TWO16, vneg(alpha(1)), alpha(4), vneg(alpha(6)), alpha(7)),          # x8
    (srange(3, 6), srange(1, 7)),                                           # x9
    (alpha(4), srange(3, 5), srange(1, 7)),                                 # x10
    (srange(4, 6), srange(1, 7)),                                           # x11
    (srange(3, 5), srange(1, 7)),                                           # x12
    (alpha(3), alpha(4), srange(1, 7)),                                     # x13
    (srange(2, 6), srange(4, 7)),                                           # x14
    (alpha(4), alpha(5), srange(1, 7)),                                     # x15
    (alpha(4), srange(1, 7)),                                               # x16
    (alpha(4), alpha(5), srange(2, 7)),                                     # x17
    (srange(1, 7),),                                                        # x18
    (alpha(4), srange(2, 7)),                                               # x19
    (alpha(1), srange(3, 7)),                                               # x20
    (srange(2, 7),),                                                        # x21
    (alpha(2), srange(4, 7)),                                               # x22
    (srange(3, 7),),                                                        # x23
    (srange(4, 7),),                                                        # x24
    (srange(5, 7),),                                                        # x25
    (alpha(6), alpha(7)),                                                   # x26
    (alpha(7),),                                                            # x27
)


@lru_cache(maxsize=None)
def bar_basis() -> tuple[Vector, ...]:
    out = []
    for n, parts in enumerate(BAR_BASIS_SUMS, start=1):
        v = vadd(*parts)
        if not is_root(v):
            raise ValueError(f"basis expression for x_{n} is not a root: {v}")
        if v[6] != 1:
            raise ValueError(f"basis expression for x_{n} has k_7 != 1: {v}")
        out.append(v)
    if len(set(out)) != NVARS:
        raise ValueError("basis expressions are not distinct")
    return tuple(out)


@lru_cache(maxsize=None)
def bar_index() -> dict[Vector, int]:
    """Map root -> 1-based basis position."""
    return {v: i for i, v in enumerate(bar_basis(), start=1)}


def bar_set_expressions() -> list[tuple[str, Vector, bool]]:
    """The set-level composite expressions for the k_7 = 1 roots.

    Returns (label, normalized vector, is_norm2).  One family member fails
    the norm test; the set of the passing ones must still be the full
    27-element k_7 = 1 set, which `root_system` checks independently.
    """
    base = vadd(_TWO16, vneg(alpha(1)), alpha(4), vneg(alpha(6)))
    out: list[tuple[str, Vector, bool]] = []
    v = vadd(alpha(1), srange(3, 7))
    out.append(("single-1", v, is_root(v)))
    v = vadd(alpha(3), vscale(2, alpha(4)), alpha(5), srange(1, 6), srange(1, 7))
    out.append(("single-2", v, is_root(v)))
    for i in range(1, 7):
        v = vadd(base, srange(i + 1, 7))
        out.append((f"family-a-{i}", v, is_root(v)))
    for i in range(2, 7):
        v = srange(i + 1, 7)
        out.append((f"family-b-{i}", v, is_root(v)))
    for j in range(2, 7):
        v = vadd(srange(2, j), srange(4, 7))
        out.append((f"family-c-{j}", v, is_root(v)))
    for i, j in itertools.combinations(range(2, 7), 2):
        v = vadd(srange(1, i), srange(3, j), srange(4, 7))
        out.append((f"family-d-{i}-{j}", v, is_root(v)))
    return out


# Row i of I + strictly-lower(A): the exponent of F(a, b) is
# sum_i a_i (row_i . b).
_COCYCLE_ROWS: tuple[tuple[int, ...], ...] = tuple(
    tuple(int(i == j) + (CARTAN_E7[i][j] if j < i else 0) for j in range(7))
    for i in range(7)
)


def _odd(v: Vector) -> int:
    """The 7-bit mask of the odd coordinates of v (bit i for v_i)."""
    v0, v1, v2, v3, v4, v5, v6 = v
    return ((v0 & 1) | (v1 & 1) << 1 | (v2 & 1) << 2 | (v3 & 1) << 3
            | (v4 & 1) << 4 | (v5 & 1) << 5 | (v6 & 1) << 6)


def _parity_table(rows) -> tuple[int, ...]:
    """Entry m is the XOR of the odd masks of the rows whose bits are
    set in m."""
    table = [0]
    for row in rows:
        # the entries 2^i .. 2^(i+1) - 1 add row i to those below 2^i
        row_mask = _odd(row)
        table += [t ^ row_mask for t in table]
    return tuple(table)


_PARITY_TABLE = _parity_table(_COCYCLE_ROWS)
# The same table from the rows of A: (a, b) mod 2 has the parity of
# popcount(_FORM_PARITY[odd(a)] & odd(b)), as it depends only on parities.
_FORM_PARITY = _parity_table(CARTAN_E7)


def _sign_parity(oa: int, ob: int) -> int:
    """The exponent of F mod 2 on odd masks: 1 exactly where F(a, b) = -1."""
    return (_PARITY_TABLE[oa] & ob).bit_count() & 1


def cocycle_F(a: Vector, b: Vector) -> int:
    """F(a, b) from the odd masks of a and b.

    The exponent is bimultiplicative, so only the parities of a and b
    matter (Kac, Infinite-Dimensional Lie Algebras, 7.8): a_i (row_i . b)
    is odd exactly when a_i is odd and row_i . b is odd, and row_i . b
    has the parity of the number of odd coordinates b_j with row_i[j]
    odd.  Summing over the odd a_i, the exponent has the parity of
    popcount(T[odd(a)] & odd(b)), with T the 128-entry `_parity_table`.
    """
    return -1 if _sign_parity(_odd(a), _odd(b)) else 1


def lattice_samples(seed: int) -> Iterator[Vector]:
    """Endless seeded vectors of [-COCYCLE_SAMPLE_BOUND, COCYCLE_SAMPLE_BOUND]^7.

    Coordinate for coordinate these are the draws of
    random.Random(seed).randint(-B, B), made as randint makes them:
    getrandbits(k), with k the bit length of the 2B + 1 choices, is
    drawn again until it falls below 2B + 1.
    """
    getrandbits = random.Random(seed).getrandbits
    choices = 2 * COCYCLE_SAMPLE_BOUND + 1
    k = choices.bit_length()
    while True:
        v = []
        for _ in range(7):
            r = getrandbits(k)
            while r >= choices:
                r = getrandbits(k)
            v.append(r - COCYCLE_SAMPLE_BOUND)
        yield tuple(v)


class CocycleReport(NamedTuple):
    pairs_checked: int
    triples_checked: int
    failures: tuple[str, ...]  # the sweep's first 10, then the certificate's
    certified: bool  # the F2 certificate `_parity_certificate` holds

    @property
    def ok(self) -> bool:
        return self.certified and not self.failures


def _parity_certificate() -> list[str]:
    """The cocycle laws for every lattice vector, proved over F2.

    With M_ij = bit j of T[2^i], the three checks are: T is linear, so
    that F(a, b) = (-1)^(odd(a)^T M odd(b)) and F is bimultiplicative;
    M + M^T = A mod 2 off the diagonal (both diagonals are even), which
    is the symmetry law F(a, b) F(b, a) = (-1)^(a, b) and, since
    (a, b) = -1 on a root sum, the antisymmetry there; and
    M_ii = A_ii / 2 mod 2, which is the diagonal law
    F(a, a) = (-1)^((a, a)/2), as the two sides are F2 quadratic forms
    with the same polarization that agree on a basis.  Each failed law
    gives one line.
    """
    table = _PARITY_TABLE
    m = [tuple(table[1 << i] >> j & 1 for j in range(7)) for i in range(7)]
    fails = []
    bad = [k for k, (t, s) in enumerate(zip(table, _parity_table(m))) if t != s]
    if bad:
        fails.append(f"F2 certificate: parity table entry {bad[0]} is not "
                     "the XOR of its basis entries")
    bad = [(i, j) for i in range(7) for j in range(7)
           if i != j and (m[i][j] + m[j][i] - CARTAN_E7[i][j]) & 1]
    if bad:
        i, j = bad[0]
        fails.append(f"F2 certificate: symmetry law fails, M + M^T != A "
                     f"mod 2 at ({i + 1}, {j + 1})")
    bad = [i for i in range(7) if (m[i][i] - CARTAN_E7[i][i] // 2) & 1]
    if bad:
        fails.append(f"F2 certificate: diagonal law fails, M_ii != A_ii / 2 "
                     f"mod 2 at i = {bad[0] + 1}")
    return fails


def check_cocycle_laws(seed: int, n_random: int) -> CocycleReport:
    """The defining identities of the cocycle, by two routes.

    `_parity_certificate` proves every law for every lattice vector from
    the 7 x 7 F2 matrix M, and `ok` requires it.  The sweep checks the
    laws directly, on odd masks with the one sign kernel `_sign_parity`:
    all pairs of positive E6 roots, plus `n_random` seeded lattice pairs.
    Checked per pair: F(a,b)F(b,a) = (-1)^(a,b), and for pairs whose sum
    is a root, F(a,b) = -F(b,a).  Biadditivity in both arguments is
    checked on seeded lattice triples and on all simple-root triples.
    F(a,a) = (-1)^((a,a)/2) is checked on every root.  The root pairs and
    roots read (a, b) from the integer form; the seeded pairs read it
    mod 2 from `_FORM_PARITY`.  The odd mask of a + b is
    odd(a) ^ odd(b).
    """
    rs = root_system()
    rset = rs.root_set
    fails: list[str] = []

    def check_pair(a: Vector, b: Vector, oa: int, ob: int, form_odd: int) -> None:
        if _sign_parity(oa, ob) ^ _sign_parity(ob, oa) != form_odd:
            fails.append(f"symmetry law at {a}, {b}")
            # a, b and a + b roots give (a, b) = -1, odd, where
            # F(a, b) = F(b, a) is this failure: the antisymmetry law
            # can fail only here
            if a in rset and b in rset and vadd(a, b) in rset:
                fails.append(f"antisymmetry on root sum at {a}, {b}")

    positive = [(a, _odd(a)) for a in rs.e6_positive]
    for a, oa in positive:
        for b, ob in positive:
            check_pair(a, b, oa, ob, bilinear(a, b) & 1)

    samples = lattice_samples(seed)

    for _ in range(n_random):
        a, b = next(samples), next(samples)
        oa, ob = _odd(a), _odd(b)
        check_pair(a, b, oa, ob, (_FORM_PARITY[oa] & ob).bit_count() & 1)

    def check_triple(a: Vector, b: Vector, c: Vector, oa: int, ob: int, oc: int) -> None:
        if _sign_parity(oa ^ ob, oc) != _sign_parity(oa, oc) ^ _sign_parity(ob, oc):
            fails.append(f"additivity (first slot) at {a}, {b}, {c}")
        if _sign_parity(oa, ob ^ oc) != _sign_parity(oa, ob) ^ _sign_parity(oa, oc):
            fails.append(f"additivity (second slot) at {a}, {b}, {c}")

    for _ in range(n_random):
        a, b, c = next(samples), next(samples), next(samples)
        check_triple(a, b, c, _odd(a), _odd(b), _odd(c))
    simple = [(alpha(i), 1 << (i - 1)) for i in range(1, 8)]
    for (a, oa), (b, ob), (c, oc) in itertools.product(simple, repeat=3):
        check_triple(a, b, c, oa, ob, oc)

    for r in rs.roots:
        o = _odd(r)
        if _sign_parity(o, o) != (bilinear(r, r) // 2) & 1:
            fails.append(f"diagonal law at {r}")

    certificate = _parity_certificate()
    return CocycleReport(
        pairs_checked=len(positive) ** 2 + n_random + len(rs.roots),
        triples_checked=n_random + len(simple) ** 3,
        failures=tuple(fails[:10]) + tuple(certificate),
        certified=not certificate,
    )
