"""Which e6poly functions are traced, and the per-layer metrics built from them.

All knowledge of e6poly's modules used by the traced run lives here; the
tracer itself is generic.
"""

from __future__ import annotations

import importlib
import inspect
import sys

from tracer import CALLS, OWN, SELF, Tracer, install

LAYERS = ("rootsys", "rep", "liealg", "polyops", "invariants", "singular",
          "linalg", "decomp", "weyl", "cli")

# Only the output step of the front end is a span: the command bodies
# would cover the whole run and hide how much the layer spans miss.
ONLY = {"cli": frozenset({"cli.emit"})}

# Cached builds are boundaries, so the first caller of a cache does not
# carry its build time.
CACHED_BUILDS = frozenset({
    "rootsys.root_system",
    "rep.all_operators",
    "invariants.build_operators",
    "invariants.build_zeta_family",
    "invariants.build_eta",
    "invariants.dual_module_span",
    "singular.weight_buckets",
})


def _invariance_name(args, kwargs) -> str:
    label = kwargs.get("label", args[1] if len(args) > 1 else "operator")
    return f"invariants.verify_invariance.{label}"


def _coeff_bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _after_compose(t: Tracer, args, kwargs, out) -> None:
    t.count("compose_terms_out", len(out))


def _scan_echelon(t: Tracer) -> None:
    """Take the largest coefficient of the last echelon's pivot rows."""
    ech = t.counters.pop("echelon", None)
    if ech is not None:
        for row in ech.pivots.values():
            t.peak("max_coeff_bits", _coeff_bits(row.values()))


def _after_insert(t: Tracer, args, kwargs, out) -> None:
    if out:
        t.count("echelon_useful")
    # An insert can also swap its reduced row into a held pivot column, so
    # the pivot rows are read once per echelon, when the next one starts
    # and at the end of the body, not per insert.
    if t.counters.get("echelon") is not args[0]:
        _scan_echelon(t)
        t.counters["echelon"] = args[0]


def _after_span_add(t: Tracer, args, kwargs, out) -> None:
    if out:
        t.count("span_useful")


def _after_kernel_basis(t: Tracer, args, kwargs, out) -> None:
    t.count("kernel_vectors", len(out))
    for vec in out:
        t.peak("max_coeff_bits", _coeff_bits(vec.values()))


def _after_weight_buckets(t: Tracer, args, kwargs, out) -> None:
    degree = args[0] if args else kwargs["degree"]
    built = t.counters.setdefault("bucket_degrees", set())
    if degree not in built:
        built.add(degree)
        t.count("monomials_enumerated", sum(len(v) for v in out.values()))
        t.count("weight_blocks", len(out))


NAMES = {"invariants.verify_invariance": _invariance_name}
HOOKS = {
    "polyops.compose": _after_compose,
    "linalg.IntEchelon.insert": _after_insert,
    "linalg.FractionSpan.add": _after_span_add,
    "linalg.kernel_basis": _after_kernel_basis,
    "singular.weight_buckets": _after_weight_buckets,
}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer of the imported e6poly package."""
    modules = {name: importlib.import_module(f"e6poly.{name}") for name in LAYERS}
    package = importlib.import_module("e6poly")
    everything = [m for n, m in vars(package).items()
                  if inspect.ismodule(m) and m.__name__.startswith("e6poly.")]
    install(tracer, modules, everything, ONLY, CACHED_BUILDS, NAMES, HOOKS)


def bucket_memory_mb(degrees) -> float:
    """Memory held by the cached weight_buckets(d) of each degree: the
    dict, its weight keys, its lists and its monomial tuples. The small
    ints inside are shared and not counted."""
    singular = importlib.import_module("e6poly.singular")
    cached = inspect.unwrap(singular.weight_buckets,
                            stop=lambda f: hasattr(f, "cache_info"))
    total = 0
    for d in degrees:
        buckets = cached(d)
        total += sys.getsizeof(buckets)
        for weight, monos in buckets.items():
            total += sys.getsizeof(weight) + sys.getsizeof(monos)
            total += sum(map(sys.getsizeof, monos))
    return total / 2**20


def layer_metrics(tracer: Tracer, body_s: float, covered_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by metric name."""
    _scan_echelon(tracer)
    st = tracer.stats
    c = tracer.counters

    def calls(*names):
        return sum(st[n][CALLS] for n in names if n in st)

    def self_s(*names):
        return sum(st[n][SELF] for n in names if n in st)

    def own_s(*names):
        return sum(st[n][OWN] for n in names if n in st)

    def layer_own(prefix):
        return sum(v[OWN] for n, v in st.items() if n.startswith(prefix))

    def ratio(num, den):
        return num / den if den else 0.0

    inserts = calls("linalg.IntEchelon.insert")
    adds = calls("linalg.FractionSpan.add")
    return {
        "rootsys.root_system_s": own_s("rootsys.root_system"),
        "rootsys.cocycle_s": own_s("rootsys.check_cocycle_laws"),
        "rep.all_operators_s": own_s("rep.all_operators"),
        "rep.homomorphism_s": own_s("rep.verify_homomorphism"),
        "rep.reference_compare_s": own_s("rep.compare_reference_operators",
                                         "rep.compare_weight_tables"),
        "liealg.bracket_calls": calls("liealg.bracket"),
        "liealg.bracket_s": own_s("liealg.bracket"),
        "polyops.compose_calls": calls("polyops.compose"),
        "polyops.compose_s": self_s("polyops.compose"),
        "polyops.compose_terms_out": c.get("compose_terms_out", 0),
        "polyops.commutator_calls": calls("polyops.commutator"),
        "polyops.apply_calls": calls("polyops.apply"),
        "polyops.apply_s": self_s("polyops.apply"),
        "polyops.op_linear_s": self_s("polyops.op_add", "polyops.op_sub",
                                      "polyops.op_scale"),
        "invariants.build_operators_s": own_s("invariants.build_operators"),
        "invariants.invariance_D_s": own_s("invariants.verify_invariance.D"),
        "invariants.invariance_D1_s": own_s("invariants.verify_invariance.D1"),
        "invariants.invariance_D2_s": own_s("invariants.verify_invariance.D2"),
        "invariants.bracket_lemma_s": own_s("invariants.lemma_bracket_triple"),
        "invariants.pairing_lemma_s": own_s("invariants.lemma_pairing_bracket"),
        "invariants.cubic_action_s": own_s("invariants.lemma_cubic_action"),
        "invariants.eigenvalue_s": own_s("invariants.lemma_pairing_eigenvalue"),
        "invariants.eta_report_s": own_s("invariants.eta_report"),
        "invariants.dual_module_s": own_s("invariants.verify_dual_module"),
        "invariants.zeta_family_s": own_s("invariants.build_zeta_family"),
        "singular.weight_buckets_s": own_s("singular.weight_buckets"),
        "singular.weight_buckets_mb": bucket_memory_mb(c.get("bucket_degrees", ())),
        "singular.monomials_enumerated": c.get("monomials_enumerated", 0),
        "singular.weight_blocks": c.get("weight_blocks", 0),
        "singular.scan_s": layer_own("singular.") - own_s("singular.weight_buckets"),
        "linalg.echelon_inserts": inserts,
        "linalg.echelon_useful_ratio": ratio(c.get("echelon_useful", 0), inserts),
        "linalg.echelon_s": layer_own("linalg.IntEchelon.") + own_s("linalg.rank_of"),
        "linalg.kernel_basis_s": own_s("linalg.kernel_basis"),
        "linalg.kernel_vectors": c.get("kernel_vectors", 0),
        "linalg.max_coeff_bits": c.get("max_coeff_bits", 0),
        "linalg.span_adds": adds,
        "linalg.span_useful_ratio": ratio(c.get("span_useful", 0), adds),
        "linalg.span_s": layer_own("linalg.FractionSpan."),
        "decomp.phi_dim_self_s": own_s("decomp.phi_dim"),
        "decomp.materialize_self_s": own_s("decomp.materialized_kernel_dim"),
        "decomp.samples_s": own_s("decomp.kernel_samples"),
        "decomp.closure_s": own_s("decomp.lowering_closure"),
        "weyl.weyl_dim_calls": calls("weyl.weyl_dim"),
        "weyl.identity_s": own_s("weyl.identity_check"),
        "cli.emit_s": self_s("cli.emit"),
        "cli.unattributed_s": body_s - covered_s,
    }
