"""Dual quadratic family, the cubic invariant, and its operator calculus.

The cubic invariant eta is Dickson's invariant trilinear form written
in root data (Aschbacher, Invent. Math. 89, 1987).  With v_a the basis
root of x_a (`rootsys.bar_basis`) and F the sign cocycle
(`rootsys.cocycle_F`),

    eta = 3 sum F(v_a, v_b) F(v_a, v_c) F(v_b, v_c) x_a x_b x_c

over the 45 triples a < b < c whose weights (`rep.weight_table`) sum
to zero.  The family zeta_1..zeta_27 is its signed gradient,
zeta_i = d_i (1/3) d eta / d x_iota(i) with the d-signs of the bilinear
pairing (Springer-Veldkamp 2000, ch. 5), kept as a plain dict keyed
1..27 like `all_operators()`.  Since eta is invariant, each operator's
action on the family is read off the operator's own matrix (the
gradient rule), so the family spans a stable copy of the dual module
inside the degree-2 polynomials; `verify_dual_module` checks the
rule's premises and the dual-action law.  Neither build reads the
singular scan
`enumerate_singular`, which is the second route: `eta_report` checks
that the scan's degree-3 weight-0 line is eta / 3, and the command line
checks that its degree-2 line of weight lambda_6 is zeta_1.

Three invariant operators are assembled from these polynomials: the
constant-coefficient cubic operator D = dualize(eta), the Euler operator
D1, and the pairing operator D2 = sum_i mult(zeta_i) dualize(zeta_i).
Each has one producer, read directly by every caller: `cubic_operator`
(also read by the kernel decomposition in `decomp`), `euler_operator`
and `pairing_operator`.
The lemma routines establish exact operator identities among them on
one family of highest-weight vectors, `family(j, m1, m2)` =
eta^j x_1^m1 zeta_1^m2: the two bracket lemmas, the D2 eigenvalue on
every member (`lemma_pairing_eigenvalue`, one cached solve per vector,
which also gives the pairing bracket's two instances and the base of
the derived cubic scalar), and the action of D on eta B, for B =
eta^(m-1) x_1^m1 zeta_1^m2.  That action is certified, not expanded: D
commutes with the algebra, eta and B are singular, and the scan's line
through B has dimension 1, so D(eta B) is a multiple of B, read off one
coefficient (`lemma_cubic_action`).
Invariance under the algebra is checked on its 12 Chevalley generators
`rep.generators` only, under the cached `rep.generator_certificate`
that the 78 derived operators lie in the Lie algebra the 12 generate
(Humphreys, section 18.1): the operators that commute with a given
one, or keep a given subspace, or kill a given polynomial, form a Lie
algebra, so holding for the 12 is holding for all 78.
The lemma reports hold computed values only; the command line compares
them with the hand-entered reference constants of `golden`, and
disagreements are reported, never patched.
All of these have `int` coefficients, spans use the integer echelon,
and both bracket lemmas use the Leibniz rule.  Every lemma scalar but
the cubic one is read by `_scalars` at keys that one basis vector
holds alone, and `Fraction` enters only there, in the cubic scalar's
one division, and in the derived cubic scalar built from those
constants; the zeta coordinates of an image are integers by the
gradient rule.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import lcm, perm, prod
from typing import NamedTuple

from . import golden
from .linalg import IntEchelon
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
    generator_certificate,
    generators,
    matrix,
    weight_table,
)
from .rootsys import bar_basis, cocycle_F, root_system
from .singular import enumerate_singular, raising_residual

ZERO_WEIGHT = (0, 0, 0, 0, 0, 0)
LAMBDA1 = (1, 0, 0, 0, 0, 0)
LAMBDA6 = (0, 0, 0, 0, 0, 1)


def tau(f: Poly) -> Poly:
    """Plain variable relabeling x_v -> x_{iota(v)}.

    This is the involution exactly as the reference states it.  It does
    not preserve the dual submodule (see plain_involution_defect); the
    high members of the family come from the signed gradient of eta
    instead (`build_zeta_family`).
    """
    return {tuple(sorted(golden.iota(v) for v in mono)): c for mono, c in f.items()}


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


def _signed_gradient(eta: Poly) -> dict[int, Poly]:
    """zeta_i = d_i (1/3) d eta / d x_iota(i) for i = 1..27, in key order."""
    return {
        i: pdiv_exact(pscale(golden.DSIGNS[i], apply(dualize(x(golden.iota(i))), eta)), 3)
        for i in range(1, 28)
    }


@lru_cache(maxsize=1)
def build_zeta_family() -> dict[int, Poly]:
    """eta's signed gradient, with the printed expansions of
    zeta_1..zeta_15 cross-checked."""
    zetas = _signed_gradient(build_eta())
    diffs = zeta_reference_diff(zetas)
    if diffs:
        raise ValueError("zeta family mismatch: " + "; ".join(diffs))
    return zetas


def plain_involution_defect() -> tuple[tuple[int, bool], ...]:
    """Membership of the unsigned-involution images in the dual module.

    Returns (member index, lies inside) for i in 16..27 using the plain
    relabeling rule; the module is the span of the family.  The rule as printed in the
    reference produces vectors outside the module for 9 of the 12
    members; this records the defect for reporting."""
    fam = build_zeta_family()
    return tuple((i, _scalars(tau(fam[28 - i]), *fam.values()) is not None)
                 for i in range(16, 28))


class DualModuleReport(NamedTuple):
    rank: int
    ops_checked: int
    nu_signs: tuple[tuple[Root6, int | None], ...]
    cartan_reference_ok: bool
    failures: tuple[str, ...]  # every failed premise or law, derived or reference

    @property
    def ok(self) -> bool:
        return self.rank == 27 and not self.failures


def _dual_matrix(w: WeylOp) -> dict[tuple[int, int], int]:
    """{(l, k): c}, c the zeta_l coordinate of w(zeta_k), by the gradient
    rule c = -d_k d_l a_{iota(k) iota(l)} for w = sum a_ij x_i d_j.

    If w is first order (`matrix` refuses any other term) and kills eta,
    then w(d_m eta) = d_m(w eta) - [d_m, w] eta = -sum_j a_mj d_j eta,
    and d_iota(k) eta = 3 d_k zeta_k when zeta is eta's signed gradient.
    """
    d, iota = golden.DSIGNS, golden.iota
    return {(iota(j), iota(i)): -d[iota(i)] * d[iota(j)] * c
            for (i, j), c in matrix(w).items()}


def verify_dual_module() -> DualModuleReport:
    """The dual-action law for the raising operators through the diagram
    automorphism, and the diagonal Cartan action against both the
    derived and the reference weight tables, on a family of rank 27.

    No zeta is applied or solved: each operator's action on the family
    is read off its own matrix (`_dual_matrix`; Humphreys section 6.1).
    The rule's premises are checked, and a failed one fails the report:
    the family is eta's signed gradient, and eta is killed by the 12
    generators under `rep.generator_certificate` (`eta_annihilated`),
    so by all 78 operators, each of them first order.  Under them every
    image has integer zeta coordinates, so the span is stable under all
    78.  The checks read 42 of them: the 36 positive roots and the 6
    Cartan elements.
    """
    fam = build_zeta_family()
    failures: list[str] = []
    if fam != _signed_gradient(build_eta()):
        failures.append("the family is not eta's signed gradient")
    if not eta_annihilated():
        failures.append("eta is not killed by the generators under the certificate")
    ops = all_operators()
    positive = [r[:6] for r in root_system().e6_positive]

    # Dual action law: coordinates of E_alpha on the zeta basis equal the
    # coefficient matrix of E_{sigma(alpha)} on the x basis.
    nu_signs: list[tuple[Root6, int | None]] = []
    for root6 in positive:
        mat, ref = _dual_matrix(ops[root6]), matrix(ops[sigma_root(root6)])
        sign = next((s for s in (1, -1)
                     if mat == {k: s * v for k, v in ref.items()}), None)
        nu_signs.append((root6, sign))
        if sum(root6) == 1 and sign != 1:
            failures.append(f"dual action law fails at simple root {root6}")

    # Cartan: each zeta_i is an eigenvector of h_j with eigenvalue
    # matching both the sigma-permuted derived table and the reference.
    cartan_reference_ok = True
    for j in range(1, 7):
        derived = [row[golden.SIGMA[j - 1] - 1] for row in weight_table()]
        diagonal = {(i, i): b for i, b in enumerate(derived, start=1) if b}
        if _dual_matrix(ops["h", j]) != diagonal:
            failures.append(f"h_{j} is not diagonal with the derived weights")
        for i, b in enumerate(derived, start=1):
            if b != golden.WEIGHT_TABLE_ZETA[i - 1][j - 1]:
                cartan_reference_ok = False
                failures.append(f"b[{i},{j}] reference disagrees")

    span = IntEchelon()
    for z in fam.values():
        span.insert(z)
    return DualModuleReport(
        rank=span.rank,
        ops_checked=len(positive) + 6,
        nu_signs=tuple(nu_signs),
        cartan_reference_ok=cartan_reference_ok,
        failures=tuple(failures),
    )


@lru_cache(maxsize=1)
def build_eta() -> Poly:
    """Dickson's cubic form: 3 F(v_a, v_b) F(v_a, v_c) F(v_b, v_c) on
    x_a x_b x_c for each triple a < b < c of zero weight sum.

    The 27 weights are distinct, so a pair a < b has at most one
    partner c, the variable of weight -(w_a + w_b); the term is kept
    when c > b, so the monomials come out sorted.
    """
    v = bar_basis()
    weights = weight_table()
    index = {w: c for c, w in enumerate(weights, start=1)}
    eta: Poly = {}
    for a, b in combinations(range(1, 28), 2):
        c = index.get(tuple(-p - q for p, q in zip(weights[a - 1], weights[b - 1])))
        if c is not None and c > b:
            va, vb, vc = v[a - 1], v[b - 1], v[c - 1]
            eta[a, b, c] = 3 * cocycle_F(va, vb) * cocycle_F(va, vc) * cocycle_F(vb, vc)
    return eta


@lru_cache(maxsize=1)
def eta_annihilated() -> bool:
    """eta is killed by the 12 generators under `rep.generator_certificate`,
    so by all 78 operators; `eta_report`, `verify_dual_module` and
    `cubic_sweep_premises` read this one copy."""
    return generator_certificate().ok and not any(
        apply(w, build_eta()) for w in generators().values())


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
    span = IntEchelon()
    for i in range(1, 28):
        span.insert(pmul(x(i), fam[golden.iota(i)]))
    return 27 - span.rank


class EtaReport(NamedTuple):
    monomial_count: int
    coefficient_values: tuple[int, ...]
    annihilated_by_all: bool
    bilinear_signs_match: bool
    bilinear_relation_dim: int
    printed_bilinear_residual_terms: int
    expansion_diffs: tuple[tuple[Monomial, int, int], ...]
    printed_expansion_invariant: bool
    printed_residual_terms: int
    scan_line_match: bool  # the degree-3 weight-0 singular line is eta / 3

    @property
    def ok(self) -> bool:
        return (
            self.annihilated_by_all
            and self.monomial_count == 45
            and self.bilinear_signs_match
            and self.scan_line_match
        )


@lru_cache(maxsize=1)
def eta_report() -> EtaReport:
    """Build eta and diff it against both printed forms.

    The derived facts drive `ok`: 45 monomials, annihilation by the 12
    generators under `rep.generator_certificate` (so by all 78), the
    exact identity eta = sum_i d_i x_i zeta_{iota(i)}
    over all 27 products (Euler's identity, as zeta is the signed
    gradient, with d_v d_{iota(v)} = 1), and the second route: the one
    basis vector the singular scan keeps at degree 3 and weight 0 equals
    eta / 3.  The printed 26-term bilinear list and the printed
    expansion each carry defects that are reported as data, never
    patched.
    """
    eta = build_eta()
    coeffs = sorted(set(eta.values()))
    full = bilinear_eta(bilinear_reference_full())
    printed_residual = psub(bilinear_eta(golden.ETA_BILINEAR_REFERENCE), eta)
    ref = _from_terms(golden.ETA_REFERENCE_TERMS)
    diffs = tuple(
        (mono, eta.get(mono, 0), ref.get(mono, 0))
        for mono in sorted(set(eta) | set(ref))
        if eta.get(mono, 0) != ref.get(mono, 0)
    )
    residual = raising_residual(ref)
    scan_line = dict(enumerate_singular(3).bases).get(ZERO_WEIGHT)
    return EtaReport(
        monomial_count=len(eta),
        coefficient_values=tuple(coeffs),
        annihilated_by_all=eta_annihilated(),
        bilinear_signs_match=not psub(full, eta),
        bilinear_relation_dim=bilinear_relation_dim(),
        printed_bilinear_residual_terms=len(printed_residual),
        expansion_diffs=diffs,
        printed_expansion_invariant=not residual,
        printed_residual_terms=len(residual),
        scan_line_match=scan_line == [pdiv_exact(eta, 3)],
    )


class InvarianceReport(NamedTuple):
    label: str
    ops_checked: int
    failures: tuple  # keys of `rep.generators` whose bracket is nonzero
    certified: bool  # `rep.generator_certificate` holds

    @property
    def ok(self) -> bool:
        return self.certified and not self.failures


def verify_invariance(op: WeylOp, label: str = "operator") -> InvarianceReport:
    """Exact vanishing of the commutator with the 12 generators, which
    is commuting with all 78 derived operators once
    `rep.generator_certificate` holds; `ok` requires both.

    Each generator w is first order, so [w, op] = -[op, w] comes from the
    derivation route `first_order_brackets` and is zero exactly when op
    commutes with w; no normal-ordering `compose` runs.  The factors of
    op are indexed once and that index serves all 12 generators.
    """
    gens = generators()
    brackets = first_order_brackets(gens.values(), op)
    failures = tuple(key for key, b in zip(gens, brackets) if b)
    return InvarianceReport(label=label, ops_checked=len(gens), failures=failures,
                            certified=generator_certificate().ok)


@lru_cache(maxsize=1)
def cubic_invariance() -> InvarianceReport:
    """D's invariance report, the one copy: the command line's
    `invariant.commutes.D` row and `cubic_sweep_premises` both read it."""
    return verify_invariance(cubic_operator(), "D")


def _scalars(target: dict, *basis: dict) -> tuple[Fraction, ...] | None:
    """Exact coordinates of `target` on `basis`, in order, or None if it
    lies outside their span; the one reader of every lemma's scalars.

    Every entry is an integer, and each basis vector holds a key that no
    other one holds, its private key; ValueError if one holds none.  At
    its private key only that vector meets the target, which forces its
    coordinate there: n_i / d, with d the lcm of the basis entries at
    those keys.  One exact check, d target - sum n_i b_i = 0, certifies
    the n_i; when it fails, no combination gives the target.
    """
    held = Counter(k for b in basis for k in b)
    keys = [next((k for k in b if held[k] == 1), None) for b in basis]
    if None in keys:
        raise ValueError("a basis vector holds no key of its own")
    d = lcm(*(b[k] for b, k in zip(basis, keys)))
    ns = [d * target.get(k, 0) // b[k] for b, k in zip(basis, keys)]
    residual = poly(chain(((k, d * c) for k, c in target.items()),
                          ((k, -n * c) for b, n in zip(basis, ns) for k, c in b.items())))
    return None if residual else tuple(Fraction(n, d) for n in ns)


class BracketReport(NamedTuple):
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


@lru_cache(maxsize=None)
def lemma_pairing_eigenvalue(j: int, m1: int, m2: int) -> Fraction | None:
    """The scalar by which D2 acts on eta^j x_1^m1 zeta_1^m2, or None if
    the vector is not an eigenvector; the reference gives m2(m1+m2+4)
    at j = 0.  Cached: the eigenvalue sweep and every m of the cubic
    sweep read one solve per vector."""
    g = family(j, m1, m2)
    s = _scalars(apply(pairing_operator(), g), g)
    return None if s is None else s[0]


class PairingBracketReport(NamedTuple):
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


class CubicActionReport(NamedTuple):
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


@lru_cache(maxsize=1)
def cubic_sweep_premises() -> bool:
    """The operator premises of the cubic sweep's certificate: D commutes
    with the algebra (`cubic_invariance`: the 12 generators under the
    generated-by certificate), eta is killed by those 12, the six raising
    operators among them (`eta_annihilated`), and these are derivations
    (`first_order_brackets` in `cubic_invariance` refuses a term that is
    not x_i d_j)."""
    return cubic_invariance().ok and eta_annihilated()


def _product_coefficient(f: Poly, g: Poly, mono: Monomial) -> int:
    """[x^mono] (f g), from the terms of f that divide mono."""
    held = set(mono)
    total = 0
    for m, c in f.items():
        if not held.issuperset(m):
            continue
        rest = list(mono)
        for v in m:
            if v not in rest:
                break
            rest.remove(v)
        else:
            total += c * g.get(tuple(rest), 0)
    return total


def _certified_cubic_scalar(base: Poly, degree: int, weight) -> Fraction | None:
    """s with D(eta base) = s base, read off one coefficient, or None
    when a premise fails.

    With the premises of `cubic_sweep_premises`, whose derivation form
    `first_order_brackets` certifies, eta base is singular whenever base
    is, and so is its image under D, which keeps the weight and lowers
    the degree by 3: D commutes with every operator of the algebra, the
    six raising ones among them.  If the scan's line at base's degree
    and weight has dimension 1 and base is a multiple of its
    basis vector, that image is s base, and s = [x^t] D(eta base) / [x^t]
    base at any monomial t of the line.  That coefficient needs eta base
    only at the monomials t x^e over the terms d^e of D.
    """
    line = dict(enumerate_singular(degree).bases).get(weight)
    if not cubic_sweep_premises() or line is None or len(line) != 1:
        return None
    (vec,) = line
    t = next(iter(vec))
    if not base.get(t) or pscale(vec[t], base) != pscale(base[t], vec):
        return None
    # d^e x^s = prod_v perm(s_v, e_v) x^(s - e) for s = t + e
    value = 0
    eta = build_eta()
    for (_, de), c in cubic_operator().items():
        source = tuple(sorted(t + de))
        mult = prod(perm(source.count(v), de.count(v)) for v in set(de))
        value += c * mult * _product_coefficient(eta, base, source)
    return Fraction(value, base[t])


def lemma_cubic_action(m: int, m1: int, m2: int) -> CubicActionReport:
    """D(eta^m x_1^m1 zeta_1^m2) is a nonzero multiple of
    eta^(m-1) x_1^m1 zeta_1^m2; the multiple is recorded next to the
    one derived from the two bracket lemmas and the D2 eigenvalue on
    x_1^m1 zeta_1^m2, read from `lemma_pairing_eigenvalue`.

    The product D(eta B), B = eta^(m-1) x_1^m1 zeta_1^m2, is never
    expanded: the scalar is certified by `_certified_cubic_scalar` from
    `cubic_sweep_premises`, the scan's line at B's degree and weight
    (`enumerate_singular`) and one coefficient, and is None when any
    premise fails."""
    if m < 1:
        raise ValueError("m must be positive")
    base = family(m - 1, m1, m2)
    weight = tuple(m1 * a + m2 * b for a, b in zip(LAMBDA1, LAMBDA6))
    scalar = _certified_cubic_scalar(base, 3 * (m - 1) + m1 + 2 * m2, weight)
    triple = lemma_bracket_triple().triple
    pairing = lemma_pairing_bracket().pair
    if triple is None or pairing is None:
        raise ValueError("a bracket lemma is not structural, so the "
                         "derived scalar has no constants")
    return CubicActionReport(
        m=m,
        m1=m1,
        m2=m2,
        scalar=scalar,
        derived_scalar=derived_cubic_scalar(
            m, m1, m2, lemma_pairing_eigenvalue(0, m1, m2), triple, pairing),
    )
