"""Slow, independent routes that the tests compare the package against.

None of these is called by the package itself.  `compose` is the
general normal-ordered product of two Weyl operators, which uses

    d^n x^m  =  sum_k  C(n, k) * m!/(m-k)! * x^(m-k) d^(n-k)

per variable, so products and commutators stay exact; `commutator`
builds on it, and `multiplication` is the operator of multiplying by a
polynomial.  `monomial_weight` sums the weight table one factor at a
time, and `verify_annihilated` applies all 36 positive-root operators.
`verify_invariance_full` and `annihilated_by_all_full` are the
invariance and annihilation checks over all 78 derived operators, as
the package ran them before it read the 12 generators and the
generated-by certificate.  `verify_dual_module_full` applies all 78 to
every zeta and solves each image in the family's span
(`dual_columns_full`), as the package ran it before it read the action
off the operators' matrices by the gradient rule.
`listed_kernel_dim_full` lists every weight block of degree m, as the
materialized kernel route once did, and takes a kernel basis of each
over those rows, unit vectors included; `kernel_samples_full` lists the
sampled blocks in full and drops the unit vectors of the monomials no
row touches.  `materialized_kernel_dim_full` is the materialized pass
that builds every row block and takes an exact rank of each block past
the sampled ones, as the route did before it read those ranks off
leading columns.
`source_rank_full` is D's rank on degree m from the source side, D
applied to every degree-m monomial of each dominant block, as `phi_dim`
took it before a full composite rank certified a block's rank.
`fraction_kernel` is the kernel basis by Fraction reduced row echelon
form, the reference for `linalg.kernel_basis`.  `enumerate_singular_full`
solves every dominant block with `singular_space`, as the scan did
before it counted dimensions.  `cubic_scalar_full` expands
D(eta B) and solves for its multiple of B, as the cubic sweep once did.  `tau_dual` is the
signed relabeling that once built the high members of the zeta family.
`check_cocycle_laws_full` is the cocycle sweep on vectors, one
`cocycle_F` call per sign and `vadd` for every sum, as the package ran
it before it read odd masks and proved the laws over F2.
Two helpers only the tests need live here too: `basis_elements` lists
the algebra's basis and `poly_from_json` reads a serialized polynomial
back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm, perm, prod

from e6poly import golden, invariants
from e6poly.decomp import (
    SAMPLE_BLOCKS,
    MaterializedKernel,
    _cubic_rows,
    _rank,
)
from e6poly.invariants import (
    DualModuleReport,
    InvarianceReport,
    _scalars,
    build_eta,
    cubic_operator,
    family,
    sigma_root,
    tau,
)
from e6poly.linalg import SpanCoordinates, kernel_basis
from e6poly.polyops import (
    Monomial,
    Poly,
    WeylOp,
    _drop,
    apply,
    first_order_brackets,
    monomial,
    pmul,
    poly,
    psub,
)
from e6poly.rep import all_operators, matrix, weight_table
from e6poly.rootsys import (
    CocycleReport,
    Vector,
    alpha,
    bilinear,
    cocycle_F,
    lattice_samples,
    root_system,
    vadd,
)
from e6poly.singular import (
    SingularScan,
    Weight,
    dominant_weights,
    orbit_size,
    singular_space,
    weight_buckets,
    weight_space,
)


def _contractions(de: Monomial, xe: Monomial) -> list[tuple[Monomial, Monomial, int]]:
    """Normal-order d^de x^xe: (x left, d left, multiplier) per contraction."""
    terms = [(xe, de, 1)]
    for v in set(de).intersection(xe):
        p, q = de.count(v), xe.count(v)
        terms = [
            (_drop(xm, v, k), _drop(dm, v, k), mult * comb(p, k) * perm(q, k))
            for xm, dm, mult in terms
            for k in range(min(p, q) + 1)
        ]
    return terms


def compose(a: WeylOp, b: WeylOp) -> WeylOp:
    """Normal-ordered product a . b (apply b first)."""
    out: WeylOp = {}
    for (xa, da), ca in a.items():
        for (xb, db), cb in b.items():
            c0 = ca * cb
            for xk, dk, mult in _contractions(da, xb):
                key = (tuple(sorted(xa + xk)), tuple(sorted(dk + db)))
                w = out.get(key, 0) + c0 * mult
                if w:
                    out[key] = w
                else:
                    out.pop(key, None)
    return out


def commutator(a: WeylOp, b: WeylOp) -> WeylOp:
    return psub(compose(a, b), compose(b, a))


def multiplication(f: Poly) -> WeylOp:
    return {(m, ()): c for m, c in f.items()}


def monomial_weight(mono: Monomial) -> Weight:
    rows = weight_table()
    acc = (0, 0, 0, 0, 0, 0)
    for v in mono:
        row = rows[v - 1]
        acc = tuple(a + b for a, b in zip(acc, row))
    return acc


def verify_annihilated(vec: Poly) -> bool:
    """Check annihilation by all 36 positive-root operators."""
    ops = all_operators()
    return not any(apply(ops[r[:6]], vec) for r in root_system().e6_positive)


def annihilated_by_all_full(f: Poly) -> bool:
    """Check annihilation by all 78 derived operators."""
    return not any(apply(w, f) for w in all_operators().values())


def verify_invariance_full(op: WeylOp, label: str = "operator") -> InvarianceReport:
    """Commutators of op with all 78 derived operators, by the derivation
    route; `failures` names every key of `all_operators` whose bracket is
    nonzero, and no certificate is read."""
    ops = all_operators()
    brackets = first_order_brackets(ops.values(), op)
    failures = tuple(key for key, b in zip(ops, brackets) if b)
    return InvarianceReport(label=label, ops_checked=len(ops), failures=failures,
                            certified=True)


def dual_columns_full() -> dict:
    """For each of the 78 operators w, the zeta coordinates of w(zeta_k)
    for k = 1..27, each None when the image escapes the span: every
    member applied and solved with `SpanCoordinates.express`.  The
    family is read through the `invariants` module, so a test that
    patches it there reaches this route too."""
    fam = invariants.build_zeta_family()
    coords = SpanCoordinates(fam.items())
    return {key: [coords.express(apply(w, z)) for z in fam.values()]
            for key, w in all_operators().items()}


@dataclass(frozen=True)
class DualModuleFull(DualModuleReport):
    span_failures: tuple[str, ...] = ()  # every root and member whose image escapes

    @property
    def ok(self) -> bool:
        return super().ok and not self.span_failures


def verify_dual_module_full() -> DualModuleFull:
    """`invariants.verify_dual_module` by `dual_columns_full`, as the
    package ran it before it read the columns off the operators'
    matrices: span stability under all 78 roots and Cartan elements, no
    premise read, and the dual-action law and Cartan checks on the
    solved columns."""
    rs = root_system()
    ops = all_operators()
    columns = dual_columns_full()
    span_failures = [
        f"root {r[:6]} on zeta_{j}"
        for r in rs.e6_roots
        for j, col in enumerate(columns[r[:6]], start=1)
        if col is None
    ]
    failures: list[str] = []
    nu_signs = []
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
    return DualModuleFull(
        rank=SpanCoordinates(invariants.build_zeta_family().items()).rank,
        ops_checked=len(columns),
        nu_signs=tuple(nu_signs),
        cartan_reference_ok=cartan_reference_ok,
        failures=tuple(failures),
        span_failures=tuple(span_failures),
    )


def listed_kernel_dim_full(m: int) -> int:
    """Dimension of Phi_m by kernel bases over every degree-m block."""
    if m < 3:
        return comb(m + 26, 26)
    targets = weight_buckets(m - 3)
    return sum(
        len(kernel_basis(_cubic_rows(targets.get(key, [])), monos))
        for key, monos in weight_buckets(m).items()
    )


def materialized_kernel_dim_full(m: int) -> MaterializedKernel:
    """Dimension of Phi_m and the samples from one pass that builds and
    eliminates every row block: kernel bases for the first SAMPLE_BLOCKS
    blocks, which are the samples, and an exact rank for each later
    one, which by rank-nullity adds -rank to the count."""
    dim = comb(m + 26, 26)
    samples = []
    if m < 3:
        return MaterializedKernel(dim_phi=dim, samples=samples)
    for i, targets in enumerate(weight_buckets(m - 3).values()):
        rows = _cubic_rows(targets)
        if i >= SAMPLE_BLOCKS:
            dim -= _rank(rows, len(rows))
            continue
        cols = sorted(set().union(*rows))
        basis = kernel_basis(rows, cols)
        dim += len(basis) - len(cols)
        samples += basis
    return MaterializedKernel(dim_phi=dim, samples=samples)


def kernel_samples_full(m: int) -> list[Poly]:
    """Kernel vectors of the degree-m blocks of the first SAMPLE_BLOCKS
    weights of degree m - 3, each block listed in full, without the unit
    vectors of the monomials no row touches."""
    out = []
    for key, targets in list(weight_buckets(m - 3).items())[:SAMPLE_BLOCKS]:
        monos = weight_buckets(m)[key]
        rows = _cubic_rows(targets)
        touched = set().union(*rows)
        units = [{mono: 1} for mono in monos if mono not in touched]
        out.extend(vec for vec in kernel_basis(rows, monos) if vec not in units)
    return out


def source_rank_full(m: int) -> int:
    """D's rank on degree m from its source side: D applied to every
    degree-m monomial of each dominant block of degree m - 3, each
    block's rank weighted by its orbit size."""
    D = cubic_operator()
    return sum(
        orbit_size(w) * _rank((apply(D, {s: 1}) for s in weight_space(m, w)),
                              len(weight_space(m - 3, w)))
        for w in dominant_weights(m - 3))


def enumerate_singular_full(degree: int) -> SingularScan:
    """The singular lines of degree m with every dominant block solved:
    the kernel of its raising rows, kept where it is nonempty."""
    spaces = ((w, singular_space(degree, w)) for w in dominant_weights(degree))
    return SingularScan(bases=tuple((w, b) for w, b in spaces if b))


def cubic_scalar_full(m: int, m1: int, m2: int) -> Fraction | None:
    """The multiple of B = eta^(m-1) x_1^m1 zeta_1^m2 that D(eta B) is,
    from the expanded product, or None if it is no multiple."""
    base = family(m - 1, m1, m2)
    s = _scalars(apply(cubic_operator(), pmul(build_eta(), base)), base)
    return None if s is None else s[0]


def fraction_kernel(rows, columns):
    """Kernel basis by Fraction reduced row echelon form: for each free
    column f, x_f = 1 and x_p = -R[p][f] on the pivots, then scaled to a
    primitive integer vector positive on its earliest column."""
    mat = [[Fraction(row.get(c, 0)) for c in columns] for row in rows]
    pivots = []
    for j in range(len(columns)):
        r = len(pivots)
        k = next((i for i in range(r, len(mat)) if mat[i][j]), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        mat[r] = [v / mat[r][j] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][j]:
                f = mat[i][j]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(j)
    basis = []
    for f in range(len(columns)):
        if f in pivots:
            continue
        vec = {f: Fraction(1)}
        for r, p in enumerate(pivots):
            if mat[r][f]:
                vec[p] = -mat[r][f]
        denom = lcm(*(v.denominator for v in vec.values()))
        ints = {j: int(v * denom) for j, v in vec.items()}
        g = gcd(*ints.values())
        sign = 1 if ints[min(ints)] > 0 else -1
        basis.append({columns[j]: sign * v // g for j, v in ints.items()})
    return basis


def check_cocycle_laws_full(seed: int, n_random: int) -> CocycleReport:
    """The sweep of `rootsys.check_cocycle_laws` on vectors: the same
    pairs, triples and roots in the same order, each sign from
    `cocycle_F`, each sum from `vadd`, each pairing from `bilinear`, and
    the antisymmetry law tested on every pair; no certificate is read."""
    rs = root_system()
    rset = rs.root_set
    fails: list[str] = []
    pairs = 0

    def check_pair(a: Vector, b: Vector) -> None:
        nonlocal pairs
        pairs += 1
        if cocycle_F(a, b) * cocycle_F(b, a) != (-1) ** (bilinear(a, b) & 1):
            fails.append(f"symmetry law at {a}, {b}")
        if a in rset and b in rset and vadd(a, b) in rset:
            if cocycle_F(a, b) != -cocycle_F(b, a):
                fails.append(f"antisymmetry on root sum at {a}, {b}")

    for a in rs.e6_positive:
        for b in rs.e6_positive:
            check_pair(a, b)

    samples = lattice_samples(seed)

    for _ in range(n_random):
        check_pair(next(samples), next(samples))

    triples = 0

    def check_triple(a: Vector, b: Vector, c: Vector) -> None:
        nonlocal triples
        triples += 1
        if cocycle_F(vadd(a, b), c) != cocycle_F(a, c) * cocycle_F(b, c):
            fails.append(f"additivity (first slot) at {a}, {b}, {c}")
        if cocycle_F(a, vadd(b, c)) != cocycle_F(a, b) * cocycle_F(a, c):
            fails.append(f"additivity (second slot) at {a}, {b}, {c}")

    for _ in range(n_random):
        check_triple(next(samples), next(samples), next(samples))
    for i, j, k in itertools.product(range(1, 8), repeat=3):
        check_triple(alpha(i), alpha(j), alpha(k))

    for r in rs.roots:
        pairs += 1
        if cocycle_F(r, r) != (-1) ** ((bilinear(r, r) // 2) & 1):
            fails.append(f"diagonal law at {r}")

    return CocycleReport(pairs_checked=pairs, triples_checked=triples,
                         failures=tuple(fails[:10]), certified=True)


def tau_dual(f: Poly) -> Poly:
    """Signed relabeling x_v -> d_v x_{iota(v)} with the d-signs of the
    bilinear pairing.

    Since d_v d_{iota(v)} = 1 for every v, d_v = d_{iota(v)}: the sign
    is the d-sign of each image monomial of `tau`, and this is still an
    involution.  With a member sign -d_i on top it maps zeta_{28-i} to
    zeta_i for i = 16..27, where the unsigned rule leaves the dual
    module on 9 of the 12 members.
    """
    return {mono: prod(golden.DSIGNS[v] for v in mono) * c
            for mono, c in tau(f).items()}


def basis_elements() -> list[dict]:
    """The 7 Cartan directions, then one root vector per root."""
    return ([{("h", i): 1} for i in range(1, 8)]
            + [{r: 1} for r in root_system().roots])


def poly_from_json(data: list[dict]) -> Poly:
    """Inverse of `polyops.poly_to_json`."""
    return poly(
        (monomial({i: int(e) for i, e in enumerate(entry["exponents"], start=1)}),
         Fraction(entry["coefficient"]))
        for entry in data
    )
