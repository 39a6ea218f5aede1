"""Kernel decomposition for the cubic invariant operator.

Phi_m is the kernel of D on the degree-m polynomials.  D preserves
weight, so its matrix is block-diagonal over weight classes.  Two
independently built matrices give its dimension:

- the rank route (phi_dim) lists the dominant weights of degree m - 3
  only: D maps each weight block into the degree-(m - 3) block of the
  same weight, so no other block has rank, and eta has weight 0, so
  each of them is a weight of degree m too.  It lists each degree-(m - 3)
  block once, certified by their `orbit_size`-weighted count, and
  weights each block rank by its orbit size: D commutes with all 78
  generators, so Weyl-conjugate blocks have equal rank.  The direct-sum
  check ranks the images under D of eta times each monomial of the
  degree-(m - 3) block, inserted sparsest first (every image must
  count, so none is skipped).  These images lie in D's image on the
  degree-m block, which is no larger than the degree-(m - 3) block, so
  a full composite rank is the block's rank too and no degree-m
  monomial is listed.  Only a block whose composite rank falls short
  lists its degree-m monomials and applies D to each, lazily, with an
  early exit at full row rank, for its exact rank.  The summary also
  carries the Weyl dimension terms whose sum the kernel dimension must
  match;
- the materialized route (materialized_kernel_dim) builds each row
  from its target t, whose only sources are t times the 45 terms of
  eta: a copy of the coefficients of eta / 3, with only the terms that
  share a variable with t rescaled.  So only the blocks whose weight occurs at
  degree m - 3 have rows.  Its columns are the monomials those rows
  touch: every other degree-m monomial, in a row block or not, is
  killed by D and counted without being listed.  One pass over these
  row blocks gives both the count and the samples: kernel bases for
  the sampled blocks, leading-column ranks for the rest.  The first
  SAMPLE_BLOCKS blocks get explicit kernel bases, which are the
  samples; no other function solves them.  Every later block is
  counted with no row built, by the order of its columns: on monomials
  of one degree, tuple order is lex order on exponent vectors with
  x_1 > ... > x_27, reversed, and lex order is a monomial order, so
  s < s' gives s * u < s' * u.  Row t's smallest column is then
  t * min(terms), where its entry is eta / 3's coefficient times
  positive counts, so when that coefficient is nonzero and the block's
  targets are distinct the rows are independent: the block's rank is
  its target count, which by rank-nullity it takes off the count.
  Both premises are checked on every call.

Both routes refuse a negative degree.

Both routes read eta and D from `invariants` (`build_eta`,
`cubic_operator`); this module builds no copy of either.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .invariants import build_eta, cubic_operator, family
from .linalg import IntEchelon, kernel_basis
from .polyops import Monomial, Poly, apply, pdiv_exact, pmul
from .rep import lowering_operator
from .singular import dominant_weights, orbit_size, weight_buckets, weight_space
from .weyl import weyl_dim

__all__ = [
    "KernelSummary",
    "MaterializedKernel",
    "lowering_closure",
    "materialized_kernel_dim",
    "phi_dim",
]

SAMPLE_BLOCKS = 8  # leading row blocks whose kernel vectors are the samples


class KernelSummary(NamedTuple):
    degree: int
    dim_Am: int
    rank_D: int
    dim_phi: int
    weyl_terms: tuple[tuple[int, int, int], ...]  # (m1, m2, weyl_dim(m1, m2))
    direct_sum_ok: bool

    @property
    def weyl_sum(self) -> int:
        return sum(d for _, _, d in self.weyl_terms)


class MaterializedKernel(NamedTuple):
    dim_phi: int
    samples: list[dict[Monomial, int]]  # bases of the first SAMPLE_BLOCKS row blocks


def _rank(rows: Iterable[Poly], full: int) -> int:
    """Rank of `rows`, stopping at `full`."""
    ech = IntEchelon()
    for row in rows:
        if ech.rank == full:
            break
        if row:
            ech.insert(row)
    return ech.rank


@lru_cache(maxsize=1)
def _eta_template() -> tuple[tuple[Monomial, ...], tuple[int, ...], dict[int, list[int]]]:
    """The 45 terms of eta, the coefficients of eta / 3 (each 1 or -1)
    in the same order, and for each variable the positions of the terms
    that hold it."""
    eta = pdiv_exact(build_eta(), 3)
    holding: dict[int, list[int]] = {}
    for i, abc in enumerate(eta):
        for v in abc:
            holding.setdefault(v, []).append(i)
    return tuple(eta), tuple(eta.values()), holding


def _cubic_rows(targets: list[Monomial]) -> list[Poly]:
    """Rows of D / 3 on the block of one weight, one per target:
    `targets` are the degree-(m - 3) monomials of that weight.  Columns
    are the degree-m products t * x_a x_b x_c, in `_eta_template` term
    order.

    The only sources reaching a target t are t * x_a x_b x_c over the 45
    terms c x_a x_b x_c of eta, where c d_a d_b d_c takes the source to
    c * count_a * count_b * count_c * t.  The terms are squarefree (a, b,
    c are distinct), so each count is t's count plus one: a row is a
    copy of the coefficients of eta / 3 with only the terms that share a
    variable with t multiplied.  Each variable lies in 5 of the 45
    terms, so below degree 9 some term shares no variable with t and
    keeps its coefficient 1 or -1: the row is primitive as built.
    D / 3 has the kernel of D.
    """
    terms, coeffs, holding = _eta_template()
    rows = []
    for t in targets:
        row = list(coeffs)
        for v in set(t):
            k = t.count(v) + 1
            for i in holding[v]:
                row[i] *= k
        rows.append(dict(zip([tuple(sorted(t + abc)) for abc in terms], row)))
    return rows


@lru_cache(maxsize=None)
def phi_dim(m: int) -> KernelSummary:
    """Kernel dimension of D on degree m, with decomposition checks."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    dim_am = comb(m + 26, 26)
    rank, composite_ok = 0, True  # D lowers degree by 3: zero below degree 3
    if m >= 3:
        # D and mult(eta) commute with the group, so every block has the
        # rank of the dominant block in its Weyl orbit.  Only the blocks
        # whose weight occurs at degree m - 3 have rank, and each of these
        # weights occurs at degree m (eta has weight 0).  Counted over their
        # orbits, the degree-(m - 3) blocks must hold every monomial
        blocks = [(w, orbit_size(w), weight_space(m - 3, w))
                  for w in dominant_weights(m - 3)]
        count = sum(n * len(monos) for _, n, monos in blocks)
        if count != comb(m + 23, 26):
            raise ValueError(f"dominant blocks of degree {m - 3} count {count} "
                             f"monomials, not C({m + 23}, 26)")
        D, eta = cubic_operator(), build_eta()
        for w, n, monos in blocks:
            # D(eta g) lies in D's image on the degree-m block of weight w,
            # which lies in the len(monos)-dimensional degree-(m - 3) block:
            # a full composite rank is that block's rank too
            full = len(monos)
            block_rank = _rank(sorted((apply(D, pmul(eta, {g: 1})) for g in monos),
                                      key=len), full)
            if block_rank < full:
                composite_ok = False
                block_rank = _rank((apply(D, {s: 1}) for s in weight_space(m, w)), full)
            rank += n * block_rank
    return KernelSummary(
        degree=m,
        dim_Am=dim_am,
        rank_D=rank,
        dim_phi=dim_am - rank,
        weyl_terms=tuple(
            (m - 2 * i, i, weyl_dim(m - 2 * i, i)) for i in range(m // 2 + 1)
        ),
        direct_sum_ok=composite_ok,
    )


def materialized_kernel_dim(m: int) -> MaterializedKernel:
    """Dimension of Phi_m from one pass over the row blocks: explicit
    kernel bases over the monomials D touches for the first SAMPLE_BLOCKS
    blocks, which are the samples, and leading-column ranks for the
    rest.  By rank-nullity a block's kernel over its touched columns is
    their count minus the rank, so a sampled block adds its basis size
    less its column count, and a later block minus its rank.

    A later block's rank is its target count, read off leading columns
    with no row built.  Row t has its entries on the products t * term,
    so under the monomial order of the module docstring its smallest
    column is t * min(terms), and its entry there is eta / 3's
    coefficient at min(terms) times positive counts.  If that
    coefficient is nonzero and the targets are pairwise distinct, the
    rows have distinct leading columns, since multiplying by one
    monomial is one-to-one, and are independent.  Both premises are
    checked here, and a failed one raises a ValueError that names it,
    with no fallback to elimination.  The count is read bucket by
    bucket, not from a closed form or phi_dim's orbit weights.

    Every degree-m monomial outside a row block's columns has no target,
    so D kills it: it is counted, not listed.  The rows are built from
    the targets, independently of phi_dim's source-side matrix and orbit
    weights, so the two dimensions cross-check each other; also drives
    the materializing CLI path.
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    dim = comb(m + 26, 26)
    samples = []
    if m < 3:
        # D vanishes: no degree-(m - 3) target, so no row block
        return MaterializedKernel(dim_phi=dim, samples=samples)
    terms, coeffs, _ = _eta_template()
    if not coeffs[terms.index(min(terms))]:
        raise ValueError("leading-column premise failed: eta / 3 has coefficient 0 "
                         "at its tuple-smallest term")
    for i, targets in enumerate(weight_buckets(m - 3).values()):
        if i < SAMPLE_BLOCKS:
            rows = _cubic_rows(targets)
            cols = sorted(set().union(*rows))
            basis = kernel_basis(rows, cols)
            dim += len(basis) - len(cols)
            samples += basis
        elif len(set(targets)) == len(targets):
            # distinct leading columns: the rank is the row count
            dim -= len(targets)
        else:
            raise ValueError(f"leading-column premise failed: two targets of row "
                             f"block {i} are equal")
    return MaterializedKernel(dim_phi=dim, samples=samples)


def lowering_closure(m1: int, m2: int) -> int:
    """Dimension of the span generated from x_1^m1 zeta_1^m2 by the six
    simple lowering operators; expected to match weyl_dim(m1, m2).  The
    cost grows with that dimension: the command line runs only fixed
    pairs, and the 650-dimensional (1, 1) only with `closure --force`."""
    if m1 < 0 or m2 < 0:
        raise ValueError("powers must be nonnegative")
    ops = [lowering_operator(k) for k in range(1, 7)]
    work = [family(0, m1, m2)]
    span = IntEchelon()
    span.insert(work[0])
    while work:
        v = work.pop()
        for op in ops:
            img = apply(op, v)
            if img and span.insert(img):
                work.append(img)
    return span.rank
