"""Dual quadratic family, the cubic invariant, and its operator calculus.

The family zeta_1..zeta_27 spans a copy of the dual module inside the
degree-2 polynomials: zeta_1 is the quadratic singular vector, zeta_2..15
come from a fixed chain of simple lowering operators, and the rest arise
from the variable relabeling tau induced by the index involution iota.
The family is a plain dict keyed 1..27, like `all_operators()`.
The cubic invariant eta is taken from the degree-3 weight-0 singular
space (one-dimensional) and normalized so the coefficient of
x_1 x_14 x_27 is 3; one normalizer, `_singular_line`, builds both
zeta_1 and eta from the bases kept by the cached singular scan
`enumerate_singular`, so no singular block is solved twice.

Three invariant operators are assembled from these polynomials: the
constant-coefficient cubic operator D = dualize(eta), the Euler operator
D1, and the pairing operator D2 = sum_i mult(zeta_i) dualize(zeta_i).
Each has one producer, read directly by every caller: `cubic_operator`
(also read by the kernel decomposition in `decomp`), `euler_operator`
and `pairing_operator`.
The lemma routines establish exact operator identities among them on
one family of highest-weight vectors, `family(j, m1, m2)` =
eta^j x_1^m1 zeta_1^m2: the two bracket lemmas, the D2 eigenvalue on
every member (`lemma_pairing_eigenvalue`, which also gives the pairing
bracket's two instances and the base of the derived cubic scalar, which
a caller solves once and passes in), and the action of D.  Their
reports hold computed values only; the command line compares them
with the hand-entered reference constants of `golden`, and
disagreements are reported, never patched.
All of these have `int` coefficients, spans use the integer echelon,
and both bracket lemmas use the Leibniz rule.  Every coordinate the
module reads (the zeta coordinates of an image and every lemma scalar,
the latter through `_scalars`) comes from `linalg.SpanCoordinates`, and
`Fraction` enters only there and in the derived cubic scalar built from
those constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from . import golden
from .linalg import IntEchelon, SpanCoordinates
from .polyops import (
    Monomial,
    Poly,
    WeylOp,
    apply,
    dualize,
    euler_operator,
    first_order_brackets,
    leibniz_bracket,
    monomial,
    op_identity,
    pdiv_exact,
    poly,
    ppow,
    pmul,
    pscale,
    psub,
    x,
)
from .rep import (
    Root6,
    all_operators,
    lowering_operator,
    matrix,
    raising_operator,
    weight_table,
)
from .rootsys import root_system
from .singular import enumerate_singular

ZERO_WEIGHT = (0, 0, 0, 0, 0, 0)
LAMBDA1 = (1, 0, 0, 0, 0, 0)
LAMBDA6 = (0, 0, 0, 0, 0, 1)
ZETA1_LEAD = monomial({1: 1, 14: 1})
ETA_LEAD = monomial({1: 1, 14: 1, 27: 1})


def tau(f: Poly) -> Poly:
    """Plain variable relabeling x_v -> x_{iota(v)}.

    This is the involution exactly as the reference states it.  It does
    not preserve the dual submodule (see plain_involution_defect), so
    the family construction uses tau_dual instead.
    """
    return {tuple(sorted(golden.iota(v) for v in mono)): c for mono, c in f.items()}


def tau_dual(f: Poly) -> Poly:
    """Signed relabeling x_v -> d_v x_{iota(v)} with the d-signs of the
    bilinear pairing.

    The signs make the relabeling compatible with the module structure:
    images of dual-family members stay inside the submodule generated by
    the quadratic singular vector, which fails for the unsigned rule on
    9 of the 12 high-index members (no variable-wise sign vector fixes
    those 9 alone; the d-signs plus a per-member sign do, and the
    dual-action law certifies the result).  Since d_v d_{iota(v)} = 1
    for every v, d_v = d_{iota(v)}: the sign is the d-sign of each image
    monomial of `tau`, and this is still an involution.
    """
    return {mono: prod(golden.DSIGNS[v] for v in mono) * c
            for mono, c in tau(f).items()}


def sigma_root(root6: Root6) -> Root6:
    """Diagram automorphism on root coefficient vectors (1<->6, 3<->5)."""
    return (root6[5], root6[1], root6[4], root6[3], root6[2], root6[0])


def _from_terms(terms) -> Poly:
    """Polynomial from printed (c, i, j[, k]) tuples, each the term
    c x_i x_j [x_k]."""
    return poly((monomial(dict.fromkeys(idx, 1)), c) for c, *idx in terms)


def zeta_reference_diff(fam: dict[int, Poly]) -> tuple[str, ...]:
    """Term-level diffs of the built family against the reference
    expansions (which cover the first 15 members only)."""
    diffs = []
    for i, terms in sorted(golden.ZETA_REFERENCE.items()):
        delta = psub(fam[i], _from_terms(terms))
        if delta:
            diffs.append(f"zeta_{i}: residual {sorted(delta.items())}")
    return tuple(diffs)


def lowering_span(start: Poly) -> IntEchelon:
    """Span of `start` and its images under the six simple lowering
    operators, applied until nothing new enters the span."""
    ops = [lowering_operator(k) for k in range(1, 7)]
    span = IntEchelon(lambda k: k)
    span.insert(start)
    work = [start]
    while work:
        v = work.pop()
        for op in ops:
            img = apply(op, v)
            if img and span.insert(img):
                work.append(img)
    return span


@lru_cache(maxsize=1)
def dual_module_span() -> IntEchelon:
    """Lowering closure of the quadratic singular vector: the actual
    27-dimensional dual submodule, built independently of the family's
    high-index construction rule."""
    return lowering_span(_singular_line(2, LAMBDA6, ZETA1_LEAD, 1))


def _in_dual_module(f: Poly) -> bool:
    return not dual_module_span().reduce(f)


def _singular_line(degree: int, weight: Root6, lead: Monomial, value: int) -> Poly:
    """The one singular line of this degree and weight, scaled so the
    coefficient of `lead` is `value`."""
    lines = dict(enumerate_singular(degree).bases).get(weight, [])
    if len(lines) != 1:
        raise ValueError(f"expected one singular line of degree {degree} and "
                         f"weight {weight}, got {len(lines)}")
    f = poly(lines[0].items())
    c = f.get(lead, 0)
    if not c:
        raise ValueError(f"the singular line of degree {degree} misses {lead}")
    return pdiv_exact(pscale(value, f), c)


@lru_cache(maxsize=1)
def build_zeta_family() -> dict[int, Poly]:
    """Build all 27 members, keyed 1..27, and cross-check the printed
    expansions.

    Members 2..15 follow the lowering chain; members 16..27 use the
    signed involution tau_dual, and each is validated to lie in the
    dual submodule (the unsigned rule fails this, see
    plain_involution_defect)."""
    zetas: dict[int, Poly] = {1: _singular_line(2, LAMBDA6, ZETA1_LEAD, 1)}
    for target, k, source, sign in golden.ZETA_CHAIN:
        image = apply(lowering_operator(k), zetas[source])
        zetas[target] = pscale(sign, image)
    for i in range(16, 28):
        # member sign -d_i on top of the signed relabeling; this is the
        # unique normalization (given members 1..15) under which the
        # dual-action law holds for the simple raising operators
        zetas[i] = pscale(-golden.DSIGNS[i], tau_dual(zetas[28 - i]))
        if not _in_dual_module(zetas[i]):
            raise ValueError(f"zeta_{i} escapes the dual submodule")
    # the chain lists members 2..15 in order, so the keys run 1..27
    diffs = zeta_reference_diff(zetas)
    if diffs:
        raise ValueError("zeta family mismatch: " + "; ".join(diffs))
    return zetas


def plain_involution_defect() -> tuple[tuple[int, bool], ...]:
    """Membership of the unsigned-involution images in the dual module.

    Returns (member index, lies inside) for i in 16..27 using the plain
    relabeling rule.  The rule as printed in the reference produces
    vectors outside the module for 9 of the 12 members; this records the
    defect for reporting."""
    fam = build_zeta_family()
    return tuple((i, _in_dual_module(tau(fam[28 - i]))) for i in range(16, 28))


@dataclass(frozen=True)
class DualModuleReport:
    rank: int
    ops_checked: int
    span_failures: tuple[str, ...]
    nu_signs: tuple[tuple[Root6, int | None], ...]
    cartan_reference_ok: bool
    failures: tuple[str, ...]  # every failed law, derived or reference

    @property
    def ok(self) -> bool:
        return self.rank == 27 and not self.span_failures and not self.failures


def verify_dual_module() -> DualModuleReport:
    """Span stability under all 78 operators, the dual-action law for
    the raising operators through the diagram automorphism, and the
    diagonal Cartan action against both the derived and the reference
    weight tables.

    Each operator is applied to each zeta_j once: columns[key][j - 1]
    holds the zeta coordinates of the image, or None if the image
    escapes the span, and all three checks read those columns.
    """
    fam = build_zeta_family()
    coords = SpanCoordinates(fam.items())
    rs = root_system()
    ops = all_operators()
    columns = {
        key: [coords.express(apply(w, z)) for z in fam.values()]
        for key, w in ops.items()
    }
    span_failures = [
        f"root {r[:6]} on zeta_{j}"
        for r in rs.e6_roots
        for j, col in enumerate(columns[r[:6]], start=1)
        if col is None
    ]
    failures: list[str] = []

    # Dual action law: coordinates of E_alpha on the zeta basis equal the
    # coefficient matrix of E_{sigma(alpha)} on the x basis.
    nu_signs: list[tuple[Root6, int | None]] = []
    simple_roots = {tuple(1 if t == k else 0 for t in range(6)) for k in range(6)}
    for r in rs.e6_positive:
        root6 = r[:6]
        cols = columns[root6]
        mat = None if None in cols else {
            (i, j): c for j, col in enumerate(cols, start=1) for i, c in col.items()
        }
        ref = matrix(ops[sigma_root(root6)])
        if mat == ref:
            sign = 1
        elif mat == {k: -v for k, v in ref.items()}:
            sign = -1
        else:
            sign = None
        nu_signs.append((root6, sign))
        if root6 in simple_roots and sign != 1:
            failures.append(f"dual action law fails at simple root {root6}")

    # Cartan: each zeta_i is an eigenvector of h_j with eigenvalue
    # matching both the sigma-permuted derived table and the reference.
    a = weight_table()
    cartan_reference_ok = True
    for j in range(1, 7):
        sig = golden.SIGMA[j - 1]
        for i, col in enumerate(columns[("h", j)], start=1):
            expect = a[i - 1][sig - 1]
            if col != ({i: expect} if expect else {}):
                failures.append(f"h_{j} not scalar {expect} on zeta_{i}")
            if expect != golden.WEIGHT_TABLE_ZETA[i - 1][j - 1]:
                cartan_reference_ok = False
                failures.append(f"b[{i},{j}] reference disagrees")

    return DualModuleReport(
        rank=coords.rank,
        ops_checked=len(columns),
        span_failures=tuple(span_failures),
        nu_signs=tuple(nu_signs),
        cartan_reference_ok=cartan_reference_ok,
        failures=tuple(failures),
    )


@lru_cache(maxsize=1)
def build_eta() -> Poly:
    """The cubic invariant, normalized to coefficient 3 on x_1 x_14 x_27."""
    return _singular_line(3, ZERO_WEIGHT, ETA_LEAD, 3)


@lru_cache(maxsize=1)
def cubic_operator() -> WeylOp:
    """D = dualize(eta), the one copy; the kernel decomposition in
    `decomp` reads it too."""
    return dualize(build_eta())


@lru_cache(maxsize=1)
def pairing_operator() -> WeylOp:
    """D2 = sum_i mult(zeta_i) dualize(zeta_i), whose products are
    already normal ordered, so its terms are written down directly."""
    return poly(
        ((xm, dm), cx * cd)
        for z in build_zeta_family().values()
        for xm, cx in z.items()
        for dm, cd in z.items()
    )


def bilinear_eta(terms) -> Poly:
    """Expand a bilinear form sum c x_i zeta_j into a cubic polynomial."""
    fam = build_zeta_family()
    return poly((m, c * v) for c, i, j in terms
                for m, v in pmul(x(i), fam[j]).items())


def bilinear_reference_full() -> tuple[tuple[int, int, int], ...]:
    """All 27 signed products d_i x_i zeta_{iota(i)}.

    The printed form lists 26 of them; the i = 18 product is absent
    there, with its sign forced to d_18 = +1 by d_v d_{iota(v)} = 1.
    """
    return tuple((golden.DSIGNS[i], i, golden.iota(i)) for i in range(1, 28))


def bilinear_relation_dim() -> int:
    """Dimension of the space of linear relations among the 27 products.

    The products x_i zeta_{iota(i)} span only a 21-dimensional space of
    cubics, so the representation of eta as a signed sum of them is far
    from unique; the d-signed one is the symmetric choice.
    """
    fam = build_zeta_family()
    span = IntEchelon(lambda k: k)
    for i in range(1, 28):
        span.insert(pmul(x(i), fam[golden.iota(i)]))
    return 27 - span.rank


@dataclass(frozen=True)
class EtaReport:
    monomial_count: int
    coefficient_values: tuple[int, ...]
    annihilated_by_all: bool
    bilinear_signs_match: bool
    bilinear_relation_dim: int
    printed_bilinear_residual_terms: int
    expansion_diffs: tuple[tuple[Monomial, int, int], ...]
    printed_expansion_invariant: bool
    printed_residual_terms: int

    @property
    def ok(self) -> bool:
        return (
            self.annihilated_by_all
            and self.monomial_count == 45
            and self.bilinear_signs_match
        )


@lru_cache(maxsize=1)
def eta_report() -> EtaReport:
    """Build eta and diff it against both printed forms.

    The solver-derived facts drive `ok`: 45 monomials, annihilation by
    every generator, and the exact identity
    eta = sum_i d_i x_i zeta_{iota(i)} over all 27 products.  The
    printed 26-term bilinear list and the printed expansion each carry
    defects that are reported as data, never patched.
    """
    eta = build_eta()
    coeffs = sorted(set(eta.values()))
    annihilated = not any(apply(w, eta) for w in all_operators().values())
    full = bilinear_eta(bilinear_reference_full())
    printed_residual = psub(bilinear_eta(golden.ETA_BILINEAR_REFERENCE), eta)
    ref = _from_terms(golden.ETA_REFERENCE_TERMS)
    diffs = tuple(
        (mono, eta.get(mono, 0), ref.get(mono, 0))
        for mono in sorted(set(eta) | set(ref))
        if eta.get(mono, 0) != ref.get(mono, 0)
    )
    residual = _raising_residual(ref)
    return EtaReport(
        monomial_count=len(eta),
        coefficient_values=tuple(coeffs),
        annihilated_by_all=annihilated,
        bilinear_signs_match=not psub(full, eta),
        bilinear_relation_dim=bilinear_relation_dim(),
        printed_bilinear_residual_terms=len(printed_residual),
        expansion_diffs=diffs,
        printed_expansion_invariant=not residual,
        printed_residual_terms=len(residual),
    )


def _raising_residual(f: Poly) -> Poly:
    """Combined image of f under the 6 simple raising operators."""
    return poly(term for k in range(1, 7)
                for term in apply(raising_operator(k), f).items())


@dataclass(frozen=True)
class InvarianceReport:
    label: str
    ops_checked: int
    failures: tuple  # keys of `all_operators` whose bracket is nonzero

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_invariance(op: WeylOp, label: str = "operator") -> InvarianceReport:
    """Exact vanishing of the commutator with all 78 generators.

    Each generator w is first order, so [w, op] = -[op, w] comes from the
    derivation route `first_order_brackets` and is zero exactly when op
    commutes with w; no normal-ordering `compose` runs.  The factors of
    op are indexed once and that index serves all 78 generators.
    """
    gens = all_operators()
    brackets = first_order_brackets(gens.values(), op)
    failures = tuple(key for key, b in zip(gens, brackets) if b)
    return InvarianceReport(label=label, ops_checked=len(gens), failures=failures)


def _scalars(target: dict, *basis: dict) -> tuple[Fraction, ...] | None:
    """Exact coordinates of `target` on `basis`, in order, or None if it
    lies outside their span; the one reader of every lemma's scalars."""
    c = SpanCoordinates(enumerate(basis)).express(target)
    return None if c is None else tuple(c.get(i, Fraction(0)) for i in range(len(basis)))


@dataclass(frozen=True)
class BracketReport:
    triple: tuple[Fraction, Fraction, Fraction] | None  # None outside the span

    @property
    def structural_ok(self) -> bool:
        return self.triple is not None


@lru_cache(maxsize=1)
def lemma_bracket_triple() -> BracketReport:
    """Solve [D, mult(eta)] = b0 + b1 D1 + b2 D2 exactly.

    The bracket comes from `leibniz_bracket` and is solved in
    span{Id, D1, D2}.  The computed triple is compared with the
    reference constants downstream; a mismatch there is a finding about
    the reference, not a failure.
    """
    C = leibniz_bracket(cubic_operator(), build_eta())
    return BracketReport(_scalars(C, op_identity(), euler_operator(), pairing_operator()))


def family(j: int, m1: int, m2: int) -> Poly:
    """eta^j x_1^m1 zeta_1^m2, the vectors every lemma below acts on.

    Each factor is killed by the raising operators, which are
    derivations, so each product is a highest-weight vector.  Not
    cached: the cubic sweep's vectors are large and each is read once.
    """
    tail = pmul(ppow(x(1), m1), ppow(build_zeta_family()[1], m2))
    return pmul(ppow(build_eta(), j), tail)


def lemma_pairing_eigenvalue(j: int, m1: int, m2: int) -> Fraction | None:
    """The scalar by which D2 acts on eta^j x_1^m1 zeta_1^m2, or None if
    the vector is not an eigenvector; the reference gives m2(m1+m2+4)
    at j = 0."""
    g = family(j, m1, m2)
    s = _scalars(apply(pairing_operator(), g), g)
    return None if s is None else s[0]


@dataclass(frozen=True)
class PairingBracketReport:
    pair: tuple[Fraction, Fraction] | None  # None outside the span
    eta_scalar: Fraction | None       # D2(eta) = eta_scalar * eta
    eta_x1_scalar: Fraction | None    # D2(eta x_1) = eta_x1_scalar * eta x_1

    @property
    def structural_ok(self) -> bool:
        return self.pair is not None

    @property
    def ok(self) -> bool:
        # The instances must agree with the solved pair: applying the
        # bracket to 1 gives c1, applying it to x_1 gives c1 + c2.
        return (
            self.structural_ok
            and self.eta_scalar == self.pair[0]
            and self.eta_x1_scalar == self.pair[0] + self.pair[1]
        )


@lru_cache(maxsize=1)
def lemma_pairing_bracket() -> PairingBracketReport:
    """Solve [D2, mult(eta)] = mult(eta) (c1 + c2 D1) exactly.

    The bracket comes from `leibniz_bracket` and is solved in
    span{mult(eta), mult(eta) D1}; the second operator, the sum of
    eta x_i d_i over i, is normal ordered as written.  The instances
    are the D2 eigenvalues on eta and eta x_1.
    """
    eta = build_eta()
    m_eta = {(m, ()): c for m, c in eta.items()}
    m_eta_d1 = {(tuple(sorted(m + (i,))), (i,)): c
                for m, c in eta.items() for i in range(1, 28)}
    return PairingBracketReport(
        pair=_scalars(leibniz_bracket(pairing_operator(), eta), m_eta, m_eta_d1),
        eta_scalar=lemma_pairing_eigenvalue(1, 0, 0),
        eta_x1_scalar=lemma_pairing_eigenvalue(1, 1, 0),
    )


def annihilation(m1: int, m2: int) -> bool:
    """D kills x_1^m1 zeta_1^m2 exactly."""
    return not apply(cubic_operator(), family(0, m1, m2))


def derived_cubic_scalar(
    m: int,
    m1: int,
    m2: int,
    mu0: Fraction | None,
    triple: tuple[Fraction, Fraction, Fraction],
    pairing: tuple[Fraction, Fraction],
) -> Fraction:
    """Scalar for D(eta^m x_1^m1 zeta_1^m2) implied by the verified
    bracket identities, given the computed D2 eigenvalue mu0 on
    x_1^m1 zeta_1^m2 (None if it is no eigenvector), triple (b0, b1, b2)
    of [D, mult(eta)] and pair (c1, c2) of [D2, mult(eta)].

    Unwinding [D, mult(eta)] m times gives sum over k < m of
    b0 + b1(3k+m1+2m2) + b2 mu_k, where mu_k, the D2 eigenvalue on
    eta^k x_1^m1 zeta_1^m2, obeys mu_{k+1} = mu_k + c1 + c2(3k+m1+2m2)
    from mu_0 = mu0.
    """
    if mu0 is None:
        raise ValueError(f"x_1^{m1} zeta_1^{m2} is not a D2 eigenvector")
    b0, b1, b2 = triple
    c1, c2 = pairing
    mu = mu0
    total = Fraction(0)
    for k in range(m):
        deg = 3 * k + m1 + 2 * m2
        total += b0 + b1 * deg + b2 * mu
        mu += c1 + c2 * deg
    return total


@dataclass(frozen=True)
class CubicActionReport:
    m: int
    m1: int
    m2: int
    scalar: Fraction | None  # None when the image is not a multiple
    derived_scalar: Fraction

    @property
    def ok(self) -> bool:
        # a nonzero multiple, by the scalar the bracket lemmas derive;
        # the printed closed form is compared by the CLI, not here
        return (self.scalar is not None and self.scalar != 0
                and self.scalar == self.derived_scalar)


def lemma_cubic_action(m: int, m1: int, m2: int,
                       mu0: Fraction | None) -> CubicActionReport:
    """D(eta^m x_1^m1 zeta_1^m2) is a nonzero multiple of
    eta^(m-1) x_1^m1 zeta_1^m2; the multiple is recorded next to the
    one derived from the two bracket lemmas and mu0, the D2 eigenvalue
    on x_1^m1 zeta_1^m2 as `lemma_pairing_eigenvalue(0, m1, m2)` solves
    it, so a sweep solves each base once for all its m."""
    if m < 1:
        raise ValueError("m must be positive")
    base = family(m - 1, m1, m2)
    s = _scalars(apply(cubic_operator(), pmul(build_eta(), base)), base)
    triple = lemma_bracket_triple().triple
    pairing = lemma_pairing_bracket().pair
    if triple is None or pairing is None:
        raise ValueError("a bracket lemma is not structural, so the "
                         "derived scalar has no constants")
    return CubicActionReport(
        m=m,
        m1=m1,
        m2=m2,
        scalar=None if s is None else s[0],
        derived_scalar=derived_cubic_scalar(m, m1, m2, mu0, triple, pairing),
    )
