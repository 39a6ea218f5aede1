"""Sparse exact polynomials in x_1..x_27 and normal-ordered Weyl operators.

A monomial is the sorted tuple of its 1-based variable indices, one entry
per factor: x_1^2 x_14 is (1, 1, 14) and the constant monomial is ().  A
polynomial is a dict mapping monomials to nonzero coefficients (the zero
polynomial is the empty dict).  A Weyl operator is a dict mapping
(x-monomial, d-monomial) pairs to coefficients, always kept in normal
order: all multiplications to the left of all derivatives.  `poly`,
`padd`, `psub` and `pscale` read only the coefficients of a sparse dict,
so they serve polynomials and operators alike: an operator is built by
`poly` from ((x-monomial, d-monomial), coefficient) pairs.

Every helper keeps the coefficient type of its inputs, so integer
data stays `int`; `Fraction` enters only with a caller's data.
`apply` is the one place where an operator acts on a polynomial; it
indexes the monomials of f by variable, so each operator
term visits only the monomials that hold all of its derivative
variables, and strips those factors from one list copy of each
monomial it visits, sorting only when the term also multiplies.
Two brackets are formed without any operator product.
`first_order_brackets` gives [w, a] for each of several first-order
w = sum c x_i d_j, a derivation sending x_j to sum c x_i and d_i to
-sum c d_j; it indexes the factors of a by variable once, and a term
x_i d_j of w visits only the x_j and d_i entries.  `leibniz_bracket`
is [a, mult(f)] by the Leibniz rule
[x^A d^B, f] = sum_{0 < C <= B} C(B, C) (d^C f) x^A d^(B-C),
summed straight into one dict; the splits C of each distinct d^B and
each partial d^C f are found once per call.

The canonical monomial order is graded lexicographic with
x_1 > x_2 > ... > x_27, which on index tuples is ascending (-degree,
tuple).  The serialization helpers list terms in that order and are the
only place where the 27-exponent form of a monomial appears.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb
from typing import Iterable

from .rootsys import NVARS

Monomial = tuple[int, ...]
Coeff = int | Fraction
Poly = dict[Monomial, Coeff]
OpKey = tuple[Monomial, Monomial]
WeylOp = dict[OpKey, Coeff]


def monomial(powers: dict[int, int]) -> Monomial:
    """Monomial from {1-based variable: exponent}."""
    for var in powers:
        if not 1 <= var <= NVARS:
            raise ValueError(f"variable index out of range: {var}")
    return tuple(sorted(v for v, e in powers.items() for _ in range(e)))


def x(var: int, coeff: Coeff = 1) -> Poly:
    return {(var,): coeff}


def poly(terms: Iterable[tuple[Monomial, Coeff]]) -> Poly:
    """Sparse dict summing (key, coefficient) pairs, zeros dropped; the
    keys are monomials, or (x-monomial, d-monomial) for an operator."""
    out: Poly = {}
    for m, c in terms:
        if not c:
            continue
        w = out.get(m, 0) + c
        if w:
            out[m] = w
        else:
            del out[m]
    return out


def padd(f: Poly, g: Poly) -> Poly:
    """f + g for sparse dicts of one key shape, polynomials or operators."""
    out = dict(f)
    for m, c in g.items():
        w = out.get(m, 0) + c
        if w:
            out[m] = w
        else:
            del out[m]
    return out


def pscale(k: Coeff, f: Poly) -> Poly:
    if not k:
        return {}
    return {m: k * c for m, c in f.items()}


def psub(f: Poly, g: Poly) -> Poly:
    return padd(f, pscale(-1, g))


def pdiv_exact(f: Poly, d: int) -> Poly:
    """f / d, raising ValueError unless d divides every coefficient."""
    if any(c % d for c in f.values()):
        raise ValueError(f"{d} does not divide every coefficient")
    return {m: c // d for m, c in f.items()}


def pmul(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(sorted(m1 + m2))
            w = out.get(m, 0) + c1 * c2
            if w:
                out[m] = w
            else:
                out.pop(m, None)
    return out


def ppow(f: Poly, n: int) -> Poly:
    out: Poly = {(): 1}
    for _ in range(n):
        out = pmul(out, f)
    return out


def sorted_terms(f: Poly) -> list[tuple[Monomial, Coeff]]:
    """Terms in canonical order, biggest monomial first."""
    return [(m, f[m]) for m in sorted(f, key=lambda m: (-len(m), m))]


def format_poly(f: Poly) -> str:
    if not f:
        return "0"
    chunks: list[str] = []
    for m, c in sorted_terms(f):
        vars_ = "*".join(
            f"x{v}" + (f"^{e}" if e > 1 else "") for v, e in Counter(m).items()
        )
        body = vars_ or "1"
        if c == 1 and vars_:
            term = body
        elif c == -1 and vars_:
            term = f"-{body}"
        else:
            term = f"{c}*{body}" if vars_ else str(c)
        if chunks and not term.startswith("-"):
            chunks.append("+" + term)
        else:
            chunks.append(term)
    return "".join(chunks)


def poly_to_json(f: Poly) -> list[dict]:
    # every number rides as a decimal string so JSON output stays exact
    out = []
    for m, c in sorted_terms(f):
        exps = [0] * NVARS
        for v in m:
            exps[v - 1] += 1
        out.append({"exponents": [str(e) for e in exps], "coefficient": str(c)})
    return out


# -- Weyl operators ---------------------------------------------------------


def op_identity() -> WeylOp:
    return {((), ()): 1}


def euler_operator() -> WeylOp:
    return {((i,), (i,)): 1 for i in range(1, NVARS + 1)}


def dualize(f: Poly) -> WeylOp:
    """Replace each x-monomial by the matching derivative monomial."""
    return {((), m): c for m, c in f.items()}


def apply(a: WeylOp, f: Poly) -> Poly:
    """Image of f under a, with the coefficient type of a and f kept.

    A term of a is tried only if f holds all of its derivative variables
    (one subset test).  When f has more than one monomial, they are
    indexed by variable once per call, and the term visits only the
    monomials that hold every one of its derivative variables; a term
    without derivatives visits all of them.  A single monomial passes
    the subset test exactly when it holds them, so it is not indexed.
    Each visit removes the derivative factors from a list copy of the
    monomial, counting each before its removal; a repeated derivative
    variable that runs out kills the term.
    """
    present = set().union(*f)
    holders: dict[int, set[Monomial]] = {}
    if len(f) > 1:
        for m in f:
            for v in m:
                held = holders.get(v)
                if held is None:
                    holders[v] = {m}
                else:
                    held.add(m)
    out: Poly = {}
    get = out.get
    for (xe, de), c in a.items():
        if not present.issuperset(de):
            continue
        hits = f
        if de and holders:
            hits = holders[de[0]]
            for v in de[1:]:
                hits = hits & holders[v]
        for m in hits:
            rest = list(m)
            mult = 1
            for v in de:
                # d_v on x_v^e gives e x_v^(e-1); no x_v kills the term
                e = rest.count(v)
                if not e:
                    break
                mult *= e
                rest.remove(v)
            else:
                if xe:
                    rest += xe
                    rest.sort()
                target = tuple(rest)
                w = get(target, 0) + c * f[m] * mult
                if w:
                    out[target] = w
                else:
                    out.pop(target, None)
    return out


def _drop(m: Monomial, v: int, k: int) -> Monomial:
    """m with k factors x_v removed (m holds at least k of them)."""
    i = m.index(v)
    return m[:i] + m[i + k:]


def _splits(de: Monomial) -> list[tuple[Monomial, Monomial, int]]:
    """(C, de - C, C(de, C)) for every nonempty sub-multiset C of de,
    with C(de, C) the product of the per-variable binomials."""
    splits = [((), (), 1)]
    for v, n in Counter(de).items():
        splits = [
            (c + (v,) * k, r + (v,) * (n - k), mult * comb(n, k))
            for c, r, mult in splits
            for k in range(n + 1)
        ]
    return splits[1:]


def leibniz_bracket(a: WeylOp, f: Poly) -> WeylOp:
    """Exact [a, mult(f)] by the Leibniz rule.

    On a normal-ordered term, [x^A d^B, f] is the sum over nonempty
    sub-multisets C of B of C(B, C) (d^C f) x^A d^(B-C); each d^C f is
    computed once, as d_v of the smaller partial d^(C - v) f, and the
    splits of each distinct B once.  Terms are summed into the result in
    the order `poly` would sum them, dropping any that cancel.
    """
    partials: dict[Monomial, Poly] = {(): f}

    def partial(dc: Monomial) -> Poly:
        df = partials.get(dc)
        if df is None:
            df = partials[dc] = apply({((), dc[-1:]): 1}, partial(dc[:-1]))
        return df

    splits: dict[Monomial, list[tuple[Monomial, Monomial, int]]] = {}
    out: WeylOp = {}
    get = out.get
    for (xa, db), ca in a.items():
        db_splits = splits.get(db)
        if db_splits is None:
            db_splits = splits[db] = _splits(db)
        for dc, rest, mult in db_splits:
            c = ca * mult
            for m, cf in partial(dc).items():
                key = (tuple(sorted(xa + m)) if xa else m, rest)
                w = get(key, 0) + c * cf
                if w:
                    out[key] = w
                else:
                    out.pop(key, None)
    return out


FactorIndex = dict[int, list[tuple[Monomial, Monomial, Coeff]]]


def _factor_index(a: WeylOp) -> tuple[FactorIndex, FactorIndex]:
    """The factors of a by variable: x_k -> [(x^A / x_k, d^B, c * A_k)]
    and d_k -> [(x^A, d^B / d_k, c * B_k)] over the terms c x^A d^B."""
    xs: FactorIndex = {}
    ds: FactorIndex = {}
    for (xa, da), ca in a.items():
        for k in dict.fromkeys(xa):
            xs.setdefault(k, []).append((_drop(xa, k, 1), da, ca * xa.count(k)))
        for k in dict.fromkeys(da):
            ds.setdefault(k, []).append((xa, _drop(da, k, 1), ca * da.count(k)))
    return xs, ds


def first_order_brackets(ws: Iterable[WeylOp], a: WeylOp) -> list[WeylOp]:
    """Exact [w, a] for each first-order w = sum c x_i d_j in ws.

    ad w is a derivation: on x^A d^B it replaces one factor at a time,
    x_j by sum c x_i and d_i by -sum c d_j, each distinct factor weighted
    by its exponent.  The factors of a are indexed by variable once, so
    a term c x_i d_j of w visits only the x_j and d_i entries.  Raises
    ValueError if a w has a term of another shape.
    """
    xs, ds = _factor_index(a)
    brackets = []
    for w in ws:
        out: WeylOp = {}
        for key, c in w.items():
            xe, de = key
            if len(xe) != 1 or len(de) != 1:
                raise ValueError(f"not a first-order term x_i d_j: {key}")
            i, j = xe[0], de[0]
            for xa, da, mult in xs.get(j, ()):
                k = (tuple(sorted(xa + xe)), da)
                v = out.get(k, 0) + mult * c
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
            for xa, da, mult in ds.get(i, ()):
                k = (xa, tuple(sorted(da + de)))
                v = out.get(k, 0) - mult * c
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
        brackets.append(out)
    return brackets
