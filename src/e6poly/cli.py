"""Command-line front end for the verification pipelines.

Each command assembles a list of verification rows and a payload
section, then emits them as JSON or text.  Output is deterministic for
fixed flags (timings are opt-in), and every number is serialized as a
decimal string.  Exit status is zero exactly when no row has status
"fail"; rows documenting defects of the printed reference carry the
"discrepancy-flagged" status instead and do not fail a run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from math import comb
from operator import attrgetter
from typing import NamedTuple

from . import decomp, golden, invariants, rep, rootsys, singular, weyl
from .polyops import apply, format_poly, poly, poly_to_json
from .singular import expected_line_count

# Run defaults and cost guards; degrees past a guard need --force.
SEED = 20240823             # default --seed for the sampled law checks
COCYCLE_SAMPLES = 1000
SINGULAR_DEGREE = 5         # singular scan sweep bound
EIGENVALUE_DEGREE = 8       # m1 + 2*m2 bound for the eigenvalue sweep
ANNIHILATION_DEGREE = 6     # m1 + 2*m2 bound for the kill sweep
CUBIC_DEGREE = 8            # 3*m + m1 + 2*m2 bound for the cubic sweep
DECOMPOSE_DEGREE = 4        # default kernel decomposition degree
DECOMPOSE_GUARD = 5         # highest degree allowed without --force
IDENTITY_DEGREE = 10        # default series identity bound

PASS = "pass"
FAIL = "fail"
FLAGGED = "discrepancy-flagged"

# provenance tags for expected values
REFERENCE = "reference"    # printed in the source tables
DERIVED = "derived"        # computed from an independent construction
DEFINITION = "definition"  # forced by a definition or pure counting


class VerificationReport(NamedTuple):
    check_id: str
    claim: str
    expected: str   # serialized value plus provenance tag
    computed: str
    status: str     # pass | fail | discrepancy-flagged
    runtime_ms: int

    def to_dict(self, timings: bool) -> dict:
        out = self._asdict()
        if timings:
            out["runtime_ms"] = str(self.runtime_ms)
        else:
            del out["runtime_ms"]
        return out


def ser(v) -> str:
    """Serialize a value as a decimal string (tuples recursively); an
    int and a Fraction of equal value print alike, as n or n/d."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)):
        return "(" + ", ".join(ser(x) for x in v) + ")"
    return str(v)


class Assembler:
    """Collects verification rows with timing and status bookkeeping."""

    def __init__(self) -> None:
        self.rows: list[VerificationReport] = []

    def check(self, check_id, claim, expected, provenance, compute,
              pick=lambda report: report, flag=False):
        """Run compute(), compare pick(report) with expected, and return
        the report.

        flag=True records a mismatch as a reference discrepancy rather
        than a failure; use it when the expected value is printed
        reference data already known to disagree with the derivation.
        An exception raised by compute() or pick() becomes a "fail" row
        naming the exception, and None is returned, so later checks
        still run; callers skip whatever reads a None report.
        """
        t0 = time.perf_counter()
        try:
            report = compute()
            computed = pick(report)
        except Exception as exc:
            report = None
            computed = f"{type(exc).__name__}: {exc}"
            status = FAIL
        else:
            status = PASS if computed == expected else (FLAGGED if flag else FAIL)
        ms = round((time.perf_counter() - t0) * 1000)
        self.note(check_id, claim, expected, provenance, computed, status, ms)
        return report

    def note(self, check_id, claim, expected, provenance, computed, status,
             runtime_ms=0):
        """Record a row whose computed value and status are already known."""
        self.rows.append(
            VerificationReport(
                check_id=check_id,
                claim=claim,
                expected=f"{ser(expected)} [{provenance}]",
                computed=ser(computed),
                status=status,
                runtime_ms=runtime_ms,
            )
        )


def cmd_roots(a: Assembler, seed: int) -> dict:
    rs = rootsys.root_system  # called inside each check, so a raise is a row
    counts = {
        "e7_roots": a.check("roots.e7-count", "norm-2 vectors in the rank-7 lattice",
                            126, REFERENCE, lambda: len(rs().roots)),
        "e6_roots": a.check("roots.e6-count", "vectors with final coordinate zero",
                            72, REFERENCE, lambda: len(rs().e6_roots)),
        "e6_positive": a.check("roots.e6-positive-count",
                               "positive vectors in the rank-6 subsystem",
                               36, REFERENCE, lambda: len(rs().e6_positive)),
        "basis_vectors": a.check("roots.basis-count",
                                 "positive vectors with final coordinate one",
                                 27, REFERENCE, lambda: len(rs().bar_positive)),
    }
    a.check("roots.positive-partition",
            "rank-7 positives split into rank-6 positives plus the basis set",
            True, DERIVED,
            lambda: set(rs().positive) == set(rs().e6_positive) | set(rs().bar_positive)
            and len(rs().positive) == 63)
    exprs = a.check("roots.basis-expressions",
                    "valid printed composite expressions pin down the basis set exactly",
                    True, DERIVED, rootsys.bar_set_expressions,
                    pick=lambda exprs: {v for _l, v, ok in exprs if ok}
                    == set(rs().bar_positive))
    if exprs is not None:
        bad_exprs = [(label, v) for label, v, ok in exprs if not ok]
        a.note("roots.basis-expressions-defective",
               "printed composite expressions that are not norm-2 vectors",
               0, REFERENCE, len(bad_exprs), FLAGGED)
    c = a.check("roots.cocycle-laws",
                "sign-factor bimultiplicativity and symmetry on full sweep plus samples",
                True, DERIVED,
                lambda: rootsys.check_cocycle_laws(
                    seed=seed, n_random=COCYCLE_SAMPLES),
                pick=attrgetter("ok"))
    payload = {key: str(n) for key, n in counts.items() if n is not None}
    if exprs is not None:
        payload["defective_basis_expressions"] = [
            f"{label}: {ser(v)} has norm 4" for label, v in bad_exprs
        ]
    if c is not None:
        payload["cocycle_pairs_checked"] = str(c.pairs_checked)
        payload["cocycle_triples_checked"] = str(c.triples_checked)
    payload["seed"] = str(seed)
    return payload


def cmd_rep(a: Assembler) -> dict:
    a.check("rep.weight-table", "27 x 6 diagonal action table matches the reference",
            True, REFERENCE, lambda: rep.compare_weight_tables().ok)
    t = a.check("rep.operators",
                "72 root operators match the reference after typo normalization",
                True, REFERENCE, rep.compare_reference_operators, pick=attrgetter("ok"))
    if t is not None and t.flagged:
        a.note("rep.operators-defective-rows",
               "printed rows consistent with the derived bracket closure",
               0, REFERENCE, len(t.flagged), FLAGGED)
    a.check("rep.homomorphism",
            "operator brackets equal algebra brackets on all generator pairs",
            True, DERIVED, lambda: rep.verify_homomorphism().ok)
    if t is None:
        return {}
    return {
        "rows_compared": str(t.rows_compared),
        "typo_normalized_rows": [ser(r) for r in golden.AMBIGUOUS_REFERENCE_ROWS],
        "defective_reference_rows": list(t.flagged),
        "unexpected_mismatches": list(t.mismatches),
    }


def _singular_degree(a: Assembler, m: int, weight_filter=None) -> list[dict]:
    scan = a.check(f"singular.deg{m}.line-count",
                   f"singular lines at degree {m} count solutions of a+2b+3c={m}",
                   expected_line_count(m), DERIVED,
                   lambda: singular.enumerate_singular(m),
                   pick=lambda s: len(s.lines))
    payload = []
    bases = dict(scan.bases) if scan is not None else {}
    for w, basis in bases.items():
        if weight_filter is not None and tuple(w) != weight_filter:
            continue
        a.check(f"singular.deg{m}.weight{ser(w).replace(' ', '')}.dim",
                "each singular weight space is a single line",
                1, DERIVED, lambda: len(basis))
        payload.append({"degree": str(m), "weight": ser(w),
                        "dimension": str(len(basis)),
                        "generators": [poly_to_json(v) for v in basis]})
    # pinned identifications at low degree, read off the scan's bases
    if m == 1 and scan is not None:
        a.check("singular.deg1.generator",
                "the degree-1 singular line is spanned by x_1",
                True, REFERENCE,
                lambda: bases.get(invariants.LAMBDA1) == [{(1,): 1}])
    if m == 2 and scan is not None:
        a.check("singular.deg2.generator",
                "the degree-2 singular line matches the printed quadratic exactly",
                True, REFERENCE,
                lambda: bases.get(invariants.LAMBDA6)
                == [invariants.build_zeta_family()[1]])
    if m == 3:
        a.check("singular.deg3.invariant-vs-printed",
                "coefficient differences between the degree-3 invariant and its printed form",
                0, REFERENCE, lambda: len(invariants.eta_report().expansion_diffs),
                flag=True)
    return payload


def _invariant_summary(a: Assembler) -> dict:
    payload = {}
    er = a.check("invariant.eta",
                 "cubic invariant: 45 monomials, annihilated, bilinear identity",
                 True, DERIVED, invariants.eta_report, pick=attrgetter("ok"))
    if er is not None:
        a.note("invariant.eta.printed-expansion",
               "coefficient differences against the printed 45-term cubic",
               0, REFERENCE, len(er.expansion_diffs), FLAGGED)
        a.note("invariant.eta.printed-expansion-annihilated",
               "the printed cubic is itself killed by all raising operators",
               True, REFERENCE, er.printed_expansion_invariant, FLAGGED)
        a.note("invariant.eta.printed-bilinear-residual",
               "monomials missed by the printed 26-product bilinear form",
               0, REFERENCE, er.printed_bilinear_residual_terms, FLAGGED)
        payload["eta_monomials"] = str(er.monomial_count)
        payload["eta_coefficients"] = [ser(c) for c in er.coefficient_values]
        payload["bilinear_relation_dim"] = str(er.bilinear_relation_dim)
    dm = a.check("invariant.dual-family",
                 "27 independent quadratics spanning a stable dual copy, action law exact",
                 True, DERIVED, invariants.verify_dual_module, pick=attrgetter("ok"))
    if dm is not None:
        a.check("invariant.dual-family.weights",
                "family weights match the printed weight table",
                True, REFERENCE, lambda: dm.cartan_reference_ok)
    defect = a.check("invariant.dual-family.plain-relabeling-defect",
                     "high members produced by the unsigned relabeling rule stay in the module",
                     0, REFERENCE,
                     lambda: [i for i, ok in invariants.plain_involution_defect() if not ok],
                     pick=len, flag=True)
    if defect is not None:
        payload["plain_relabeling_escapees"] = [str(i) for i in defect]
    if dm is not None:
        payload["dual_rank"] = str(dm.rank)
    return payload


def _label_pairs(n: int) -> list[tuple[int, int]]:
    """(m1, m2) with m1 + 2*m2 <= n, m1 ascending, then m2."""
    return [(m1, m2) for m1 in range(n + 1) for m2 in range((n - m1) // 2 + 1)]


def _invariant_lemmas(a: Assembler) -> dict:
    # producers are looked up at call time, so a raising one is a fail row;
    # D's report is the cached one the cubic sweep's premises read
    for label, report in (
            ("D", lambda: invariants.cubic_invariance()),
            ("D1", lambda: invariants.verify_invariance(invariants.euler_operator(), "D1")),
            ("D2", lambda: invariants.verify_invariance(invariants.pairing_operator(), "D2"))):
        a.check(f"invariant.commutes.{label}",
                f"{label} commutes with all 78 generator operators",
                True, DERIVED, report, pick=attrgetter("ok"))
    payload = {}
    br = a.check("invariant.bracket.structure",
                 "[D, mult(eta)] lies exactly in span{Id, D1, D2}",
                 True, DERIVED, invariants.lemma_bracket_triple,
                 pick=attrgetter("structural_ok"))
    # constants are read only off a bracket that lies in its span
    if br is not None:
        if br.structural_ok:
            a.note("invariant.bracket.constants",
                   "printed constants of [D, mult(eta)]",
                   golden.CLAIMED_BRACKET_TRIPLE, REFERENCE, br.triple, FLAGGED)
            payload["bracket_triple"] = ser(br.triple)
        payload["bracket_triple_printed"] = ser(golden.CLAIMED_BRACKET_TRIPLE)
    pb = a.check("invariant.pairing.structure",
                 "[D2, mult(eta)] = mult(eta)(c1 + c2 D1) with consistent instances",
                 True, DERIVED, invariants.lemma_pairing_bracket, pick=attrgetter("ok"))
    if pb is not None:
        if pb.structural_ok:
            a.note("invariant.pairing.constants",
                   "printed constants of [D2, mult(eta)]",
                   golden.CLAIMED_PAIRING_BRACKET, REFERENCE, pb.pair, FLAGGED)
            payload["pairing"] = ser(pb.pair)
        payload["pairing_printed"] = ser(golden.CLAIMED_PAIRING_BRACKET)
        a.note("invariant.pairing.instances",
               "printed eigenvalues of D2 on eta and eta*x_1",
               (3, 5), REFERENCE, (pb.eta_scalar, pb.eta_x1_scalar), FLAGGED)

    # the cubic sweep reads the D2 eigenvalues this sweep solves, from
    # the cache of lemma_pairing_eigenvalue
    a.check("invariant.eigenvalue-sweep",
            f"D2 eigenvalue m2(m1+m2+4) for m1+2m2 <= {EIGENVALUE_DEGREE}",
            True, REFERENCE,
            lambda: all(invariants.lemma_pairing_eigenvalue(0, m1, m2)
                        == golden.claimed_pairing_eigenvalue(m1, m2)
                        for m1, m2 in _label_pairs(EIGENVALUE_DEGREE)))
    a.check("invariant.annihilation-sweep",
            f"D kills x_1^m1 zeta_1^m2 for m1+2m2 <= {ANNIHILATION_DEGREE}",
            True, REFERENCE,
            lambda: all(invariants.annihilation(m1, m2)
                        for m1, m2 in _label_pairs(ANNIHILATION_DEGREE)))
    cubic = a.check("invariant.cubic-action-sweep",
                    "D(eta^m x_1^m1 zeta_1^m2) nonzero, proportional, scalar matches derivation",
                    True, DERIVED,
                    lambda: [invariants.lemma_cubic_action(m, m1, m2)
                             for m in range(1, CUBIC_DEGREE // 3 + 1)
                             for m1, m2 in _label_pairs(CUBIC_DEGREE - 3 * m)],
                    pick=lambda rs: all(r.ok for r in rs))
    if cubic is None:
        return payload
    claimed_diffs = [r for r in cubic
                     if r.scalar != golden.claimed_cubic_scalar(r.m, r.m1, r.m2)]
    a.note("invariant.cubic-action.printed-scalars",
           "cases where the printed closed form matches the computed scalar",
           len(cubic), REFERENCE, len(cubic) - len(claimed_diffs), FLAGGED)
    base = next(r for r in cubic if (r.m, r.m1, r.m2) == (1, 0, 0))
    # the three competing values for the bracket's constant term:
    # the printed bracket text, the direct evaluation on the
    # invariant itself, and the printed closed form at its base case
    payload["base_constant_candidates"] = {
        "printed_bracket": ser(golden.CLAIMED_BRACKET_TRIPLE[0]),
        "direct_evaluation": ser(base.scalar),
        "printed_closed_form": ser(golden.claimed_cubic_scalar(1, 0, 0)),
    }
    payload["cubic_cases"] = str(len(cubic))
    payload["cubic_printed_mismatches"] = str(len(claimed_diffs))
    return payload


def cmd_invariant(a: Assembler, verify: bool, dump: str | None) -> dict:
    if dump == "eta":
        eta = a.check("invariant.eta.monomials", "number of cubic monomials",
                      45, DERIVED, invariants.build_eta, pick=len)
        if eta is None:
            return {}
        return {"eta": poly_to_json(eta), "eta_text": format_poly(eta)}
    if dump == "zeta":
        fam = a.check("invariant.zeta.count", "number of family members",
                      27, DERIVED, invariants.build_zeta_family,
                      pick=len)
        if fam is None:
            return {}
        return {
            "zeta": {
                str(i): {
                    "terms": poly_to_json(fam[i]),
                    "text": format_poly(fam[i]),
                    "dual_index": str(golden.iota(i)),
                }
                for i in range(1, 28)
            }
        }
    payload = _invariant_summary(a)
    if verify:
        payload.update(_invariant_lemmas(a))
    return payload


def cmd_decompose(a: Assembler, m: int, materialize: bool) -> dict:
    lower = comb(m + 23, 26) if m >= 3 else 0
    s = a.check(f"decompose.deg{m}.kernel-dim",
                "kernel dimension equals the binomial difference",
                comb(m + 26, 26) - lower, DERIVED, lambda: decomp.phi_dim(m),
                pick=attrgetter("dim_phi"))
    payload = {"degree": str(m)}
    mat = None
    if s is not None:
        a.check(f"decompose.deg{m}.rank",
                "rank of the cubic operator equals the lower space dimension",
                lower, DERIVED, lambda: s.rank_D)
        a.check(f"decompose.deg{m}.directness",
                "composite map g -> D(eta g) has full rank",
                True, DERIVED, lambda: s.direct_sum_ok)
        a.check(f"decompose.deg{m}.weyl-sum",
                "kernel dimension equals the irreducible dimension sum",
                s.dim_phi, DERIVED, lambda: s.weyl_sum)
        payload.update({
            "dim_total": str(s.dim_Am),
            "rank": str(s.rank_D),
            "dim_kernel": str(s.dim_phi),
            "weyl_sum": str(s.weyl_sum),
            "weyl_terms": [ser(t) for t in s.weyl_terms],
            "direct_sum_ok": ser(s.direct_sum_ok),
        })
        if materialize:
            mat = a.check(f"decompose.deg{m}.materialized-dim",
                          "explicit kernel bases reproduce the rank-derived dimension",
                          s.dim_phi, DERIVED, lambda: decomp.materialized_kernel_dim(m),
                          pick=attrgetter("dim_phi"))
    if mat is not None:
        def verify_samples() -> bool:
            # D once per distinct monomial; a sample's image is the
            # combination of its monomials' images
            D = invariants.cubic_operator()
            images = {s: apply(D, {s: 1}) for s in set().union(*mat.samples)}
            return not any(poly((t, c * d) for s, c in vec.items()
                                for t, d in images[s].items())
                           for vec in mat.samples)

        a.check(f"decompose.deg{m}.kernel-samples",
                "sampled kernel vectors are exactly killed by D",
                True, DERIVED, verify_samples)
    if materialize:
        payload["materialized"] = "true"
    return payload


def cmd_identity(a: Assembler, max_degree: int) -> dict:
    expected = tuple(1 if k <= 2 else 0 for k in range(max_degree + 1))
    r = a.check("identity.series",
                "(1-q)^26 times the dimension series truncates to 1 + q + q^2",
                expected, REFERENCE, lambda: weyl.identity_check(max_degree),
                pick=attrgetter("series_coefficients"))
    payload = {"max_degree": str(max_degree)}
    if r is not None:
        for m, total in enumerate(r.degree_sums):
            a.check(f"identity.coeff-q{m}",
                    "degree count matches the partitioned dimension sum",
                    comb(m + 26, 26), DEFINITION, lambda total=total: total)
        payload["series"] = [str(c) for c in r.series_coefficients]
    return payload


def cmd_closure(a: Assembler, force: bool) -> dict:
    pairs = [(1, 0, 27), (0, 1, 27)]
    if force:
        pairs.append((1, 1, 650))
    for m1, m2, want in pairs:
        a.check(f"closure.{m1}-{m2}",
                "lowering closure dimension equals the dimension formula",
                want, DERIVED,
                lambda m1=m1, m2=m2: decomp.lowering_closure(m1, m2))
    return {"pairs": [ser((m1, m2, w)) for m1, m2, w in pairs]}


def cmd_all(a: Assembler, seed: int, force: bool, max_degree: int) -> dict:
    payload = {"roots": cmd_roots(a, seed), "rep": cmd_rep(a)}
    spaces: list[dict] = []
    for m in range(SINGULAR_DEGREE + 1):
        spaces.extend(_singular_degree(a, m))
    payload["singular"] = {"spaces_scanned": str(len(spaces))}
    payload["invariant"] = cmd_invariant(a, verify=True, dump=None)
    degrees = list(range(3, DECOMPOSE_DEGREE + 1))
    if force:
        degrees.append(DECOMPOSE_GUARD)
    payload["decompose"] = {
        str(m): cmd_decompose(a, m, materialize=False) for m in degrees
    }
    payload["identity"] = cmd_identity(a, max_degree)
    payload["closure"] = cmd_closure(a, force)
    return payload


def emit(command: str, seed: int, rows, payload, as_json: bool,
         timings: bool) -> None:
    if as_json:
        doc = {
            "command": command,
            "seed": str(seed),
            "reports": [r.to_dict(timings) for r in rows],
            "payload": payload,
        }
        print(json.dumps(doc, indent=2))
        return
    print(f"e6poly {command}")
    for r in rows:
        stamp = {PASS: "pass", FAIL: "FAIL", FLAGGED: "flag"}[r.status]
        line = f"  [{stamp}] {r.check_id}: {r.claim}; expected {r.expected}, computed {r.computed}"
        if timings:
            line += f" ({r.runtime_ms} ms)"
        print(line)
    npass = sum(r.status == PASS for r in rows)
    nflag = sum(r.status == FLAGGED for r in rows)
    nfail = sum(r.status == FAIL for r in rows)
    print(f"  checks: {len(rows)}  pass: {npass}  flagged: {nflag}  fail: {nfail}")
    if command == "invariant" and "eta_text" in payload:
        print(f"  eta = {payload['eta_text']}")
    if command == "invariant" and "zeta" in payload:
        for i in range(1, 28):
            entry = payload["zeta"][str(i)]
            print(f"  zeta_{i} (dual index {entry['dual_index']}) = {entry['text']}")
    if command == "singular":
        for entry in payload.get("spaces", []):
            print(f"  degree {entry['degree']} weight {entry['weight']}: "
                  f"dimension {entry['dimension']}")


def build_parser() -> argparse.ArgumentParser:
    # shared flags are accepted both before and after the subcommand;
    # SUPPRESS keeps the subparser from clobbering a value parsed earlier
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS, help="emit JSON")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for sampled law checks")
    common.add_argument("--timings", action="store_true",
                        default=argparse.SUPPRESS,
                        help="include runtimes (breaks byte-for-byte determinism)")
    p = argparse.ArgumentParser(
        prog="e6poly",
        parents=[common],
        description="Exact verification suite for the 27-variable cubic "
                    "invariant and its operator calculus.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("roots", parents=[common],
                   help="root counts, partition, sign-factor laws")
    sub.add_parser("rep", parents=[common],
                   help="operator table comparison and homomorphism")
    ps = sub.add_parser("singular", parents=[common],
                        help="singular vector scan at one degree")
    ps.add_argument("--degree", type=int, default=2)
    ps.add_argument("--weight", type=str, default=None,
                    help="restrict to one weight, comma-separated 6 integers")
    ps.add_argument("--force", action="store_true")
    pi = sub.add_parser("invariant", parents=[common],
                        help="cubic invariant and dual family")
    pi.add_argument("--verify", action="store_true",
                    help="run the full operator lemma suite")
    pi.add_argument("--dump", choices=("eta", "zeta"), default=None)
    pd = sub.add_parser("decompose", parents=[common],
                        help="kernel decomposition at one degree")
    pd.add_argument("--degree", type=int, default=DECOMPOSE_DEGREE)
    pd.add_argument("--materialize", action="store_true")
    pd.add_argument("--force", action="store_true")
    pid = sub.add_parser("identity", parents=[common],
                         help="dimension series identity")
    pid.add_argument("--max-degree", type=int, default=IDENTITY_DEGREE)
    pc = sub.add_parser("closure", parents=[common],
                        help="lowering closures of highest vectors")
    pc.add_argument("--force", action="store_true",
                    help="include the 650-dimensional closure")
    pa = sub.add_parser("all", parents=[common],
                        help="full verification suite")
    pa.add_argument("--force", action="store_true",
                    help="include opt-in heavy checks")
    pa.add_argument("--max-degree", type=int, default=IDENTITY_DEGREE,
                    help="series identity bound")
    return p


class UsageError(Exception):
    """A bad argument value: one line on stderr and exit status 2."""


def _degree(degree: int, guard: int, force: bool) -> int:
    if degree < 0:
        raise UsageError("degree must be nonnegative")
    if degree > guard and not force:
        raise UsageError(f"degree {degree} exceeds the cost guard "
                         f"{guard}; pass --force to run")
    return degree


def _identity_degree(max_degree: int) -> int:
    if not 0 <= max_degree <= weyl.MAX_IDENTITY_DEGREE:
        raise UsageError(f"max degree must lie in 0..{weyl.MAX_IDENTITY_DEGREE}")
    return max_degree


def _weight(text: str | None):
    if text is None:
        return None
    try:
        weight = tuple(int(x) for x in text.split(","))
    except ValueError:
        weight = ()
    if len(weight) != 6:
        raise UsageError("weight must have 6 comma-separated integers")
    return weight


def _run_invariant(a: Assembler, seed: int, args) -> dict:
    if args.dump and args.verify:
        raise UsageError("--verify cannot be combined with --dump")
    return cmd_invariant(a, args.verify, args.dump)


def _run_decompose(a: Assembler, seed: int, args) -> dict:
    m = _degree(args.degree, DECOMPOSE_GUARD, args.force)
    return cmd_decompose(a, m, args.materialize)


# command -> handler(assembler, seed, parsed args) returning the payload;
# argument values are validated before the first check runs
COMMANDS = {
    "roots": lambda a, seed, args: cmd_roots(a, seed),
    "rep": lambda a, seed, args: cmd_rep(a),
    "singular": lambda a, seed, args: {"spaces": _singular_degree(
        a, _degree(args.degree, SINGULAR_DEGREE, args.force),
        _weight(args.weight))},
    "invariant": _run_invariant,
    "decompose": _run_decompose,
    "identity": lambda a, seed, args: cmd_identity(
        a, _identity_degree(args.max_degree)),
    "closure": lambda a, seed, args: cmd_closure(a, args.force),
    "all": lambda a, seed, args: cmd_all(
        a, seed, args.force, _identity_degree(args.max_degree)),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # shared flags use SUPPRESS defaults, so absent ones need fallbacks
    as_json = getattr(args, "json", False)
    timings = getattr(args, "timings", False)
    seed = getattr(args, "seed", SEED)
    a = Assembler()
    try:
        payload = COMMANDS[args.command](a, seed, args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    emit(args.command, seed, a.rows, payload, as_json, timings)
    return 1 if any(r.status == FAIL for r in a.rows) else 0


if __name__ == "__main__":
    sys.exit(main())
