"""Command-line interface tests: exit codes, determinism, and the
serialization contract (every JSON leaf is a string)."""

import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from e6poly import cli, decomp, golden, invariants, rep, singular, weyl
from e6poly.polyops import padd
from e6poly.weyl import MAX_IDENTITY_DEGREE


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_roots_exit_zero(capsys):
    code, out = run(capsys, "roots")
    assert code == 0
    assert "fail: 0" in out


def test_roots_json_document_shape(capsys):
    code, doc = run_json(capsys, "roots")
    assert code == 0
    assert set(doc) == {"command", "seed", "reports", "payload"}
    assert doc["command"] == "roots"
    assert doc["seed"] == "20240823"
    for report in doc["reports"]:
        assert report["status"] in ("pass", "fail", "discrepancy-flagged")


def _assert_string_leaves(node, path="$"):
    if isinstance(node, dict):
        for k, v in node.items():
            _assert_string_leaves(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _assert_string_leaves(v, f"{path}[{i}]")
    else:
        assert isinstance(node, str), f"non-string leaf at {path}: {node!r}"


def test_numbers_serialize_as_decimal_strings(capsys):
    for argv in (
        ("identity", "--max-degree", "4"),
        ("singular", "--degree", "2"),
        ("invariant", "--dump", "eta"),
    ):
        _code, doc = run_json(capsys, *argv)
        _assert_string_leaves(doc)


@pytest.mark.parametrize("argv", [
    ("all", "--force", "--json"),
    ("decompose", "--degree", "5", "--materialize", "--json"),
])
def test_no_report_record_is_serialized(capsys, monkeypatch, argv):
    # the reports are named tuples: one that reached a row or the payload
    # would print as a tuple and compare equal to a plain tuple, so no
    # value `ser` sees, nested ones included, may be a package record
    real, seen = cli.ser, []

    def recording(v):
        seen.append(v)
        return real(v)

    monkeypatch.setattr(cli, "ser", recording)
    code, _out = run(capsys, *argv)
    assert code == 0 and seen
    records = [type(v).__qualname__ for v in seen
               if type(v).__module__.startswith("e6poly.") and hasattr(v, "_fields")]
    assert records == []


def test_output_is_deterministic(capsys):
    _code, first = run(capsys, "rep", "--json")
    _code, second = run(capsys, "rep", "--json")
    assert first == second


def test_flag_position_is_irrelevant(capsys):
    _code, before = run(capsys, "--json", "identity", "--max-degree", "3")
    _code, after = run(capsys, "identity", "--max-degree", "3", "--json")
    assert before == after


def test_timings_are_suppressed_by_default(capsys):
    keys = ["check_id", "claim", "expected", "computed", "status"]
    _code, doc = run_json(capsys, "roots")
    assert all(list(r) == keys for r in doc["reports"])
    _code, doc = run_json(capsys, "roots", "--timings")
    assert all(list(r) == [*keys, "runtime_ms"] for r in doc["reports"])


def test_singular_degree_guard(capsys):
    code = cli.main(["singular", "--degree", "9"])
    capsys.readouterr()
    assert code == 2


def test_decompose_degree_guard(capsys):
    code = cli.main(["decompose", "--degree", "6"])
    capsys.readouterr()
    assert code == 2


def test_materializing_obeys_the_decompose_guard_alone(capsys):
    # degree 5 is within DECOMPOSE_GUARD, so --materialize needs no --force
    argv = ["decompose", "--degree", "5", "--materialize", "--json"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--force") == (0, out)


def test_materializing_solves_each_row_block_once(capsys, monkeypatch):
    # only the first SAMPLE_BLOCKS row blocks are built, each gets one
    # kernel basis, and the samples row reads the vectors the
    # materialized-dim row's pass already solved, so no block is solved
    # twice; every later block is counted by its leading columns, with
    # no rows built
    built, solved, ranked = [], [], []
    real_rows, real_basis, real_rank = decomp._cubic_rows, decomp.kernel_basis, decomp._rank

    def recorded_rows(targets):
        built.append(real_rows(targets))
        return built[-1]

    def counted_basis(rows, cols):
        solved.append(id(rows))
        return real_basis(rows, cols)

    def counted_rank(rows, full):
        ranked.append(rows)  # held, so no id is reused by a later block
        return real_rank(rows, full)

    monkeypatch.setattr(decomp, "_cubic_rows", recorded_rows)
    monkeypatch.setattr(decomp, "kernel_basis", counted_basis)
    monkeypatch.setattr(decomp, "_rank", counted_rank)
    code, _out = run(capsys, "decompose", "--degree", "5", "--materialize")
    assert code == 0
    assert len(built) == decomp.SAMPLE_BLOCKS < len(singular.weight_buckets(2)) == 270
    assert solved == [id(rows) for rows in built]
    # phi_dim ranks its own composite rows; no row block is ranked
    assert not any(r is rows for r in ranked for rows in built)


def _materialized_rows(capsys):
    # a degree-5 materializing run that fails cleanly: its report rows
    # by check id
    code = cli.main(["decompose", "--degree", "5", "--materialize", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    return {r["check_id"]: r for r in json.loads(captured.out)["reports"]}


def test_a_counted_block_still_counts(capsys, monkeypatch):
    # a block past the sampled ones adds minus its target count: with one
    # of its targets lost the count is one too high, and the samples,
    # which come from other blocks, still pass
    real = decomp.weight_buckets

    def dropped(degree):
        buckets = dict(real(degree))
        key = list(buckets)[decomp.SAMPLE_BLOCKS]
        buckets[key] = buckets[key][1:]
        return buckets

    monkeypatch.setattr(decomp, "weight_buckets", dropped)
    rows = _materialized_rows(capsys)
    row = rows["decompose.deg5.materialized-dim"]
    assert row["status"] == "fail"
    assert row["computed"] == str(169533 + 1)
    assert rows["decompose.deg5.kernel-samples"]["status"] == "pass"


def _duplicated_target(monkeypatch):
    # block SAMPLE_BLOCKS, a counted one, lists one of its targets twice:
    # two rows share a leading column
    real = decomp.weight_buckets

    def doubled(degree):
        buckets = dict(real(degree))
        key = list(buckets)[decomp.SAMPLE_BLOCKS]
        buckets[key] = buckets[key] + buckets[key][:1]
        return buckets

    monkeypatch.setattr(decomp, "weight_buckets", doubled)
    return "two targets of row block"


def _lead_term_zeroed(monkeypatch):
    # eta / 3 with no coefficient at its tuple-smallest term: no row has
    # an entry at its leading column
    terms, coeffs, holding = decomp._eta_template()
    lead = terms.index(min(terms))
    zeroed = coeffs[:lead] + (0,) + coeffs[lead + 1:]
    monkeypatch.setattr(decomp, "_eta_template", lambda: (terms, zeroed, holding))
    return "coefficient 0 at its tuple-smallest term"


@pytest.mark.parametrize("mutate", [_duplicated_target, _lead_term_zeroed])
def test_a_failed_leading_column_premise_fails_its_row(capsys, monkeypatch,
                                                       fresh_caches, mutate):
    # the counted blocks' ranks rest on two checked premises; a failed one
    # fails the materialized-dim row by name, with no fallback elimination
    named = mutate(monkeypatch)
    rows = _materialized_rows(capsys)
    row = rows["decompose.deg5.materialized-dim"]
    assert row["status"] == "fail"
    assert row["computed"].startswith("ValueError: leading-column premise failed")
    assert named in row["computed"]
    assert rows["decompose.deg5.kernel-dim"]["status"] == "pass"
    assert "decompose.deg5.kernel-samples" not in rows


def test_a_sample_off_the_kernel_fails_its_row(capsys, monkeypatch):
    # the sample check combines D's images of the samples' monomials: a
    # sample with one coefficient doubled is off the kernel, since every
    # sampled monomial is one D touches
    real = decomp.materialized_kernel_dim

    def bent(m):
        mat = real(m)
        first, *rest = mat.samples
        s, c = next(iter(first.items()))
        return decomp.MaterializedKernel(mat.dim_phi, [{**first, s: 2 * c}, *rest])

    monkeypatch.setattr(decomp, "materialized_kernel_dim", bent)
    rows = _materialized_rows(capsys)
    assert rows["decompose.deg5.kernel-samples"]["status"] == "fail"
    assert rows["decompose.deg5.materialized-dim"]["status"] == "pass"


@pytest.mark.parametrize("producer, materialized_row", [
    ("phi_dim", None), ("materialized_kernel_dim", "fail")])
def test_samples_row_needs_the_materialized_report(capsys, monkeypatch,
                                                   producer, materialized_row):
    # the samples are the materialized pass's own vectors: with no report
    # to read, their row is left out and the run still ends cleanly
    def boom(*args, **kwargs):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(decomp, producer, boom)
    code = cli.main(["decompose", "--degree", "3", "--materialize", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    doc = json.loads(captured.out)
    status = {r["check_id"]: r["status"] for r in doc["reports"]}
    assert "decompose.deg3.kernel-samples" not in status
    assert status.get("decompose.deg3.materialized-dim") == materialized_row
    assert doc["payload"]["materialized"] == "true"


def test_bad_weight_argument(capsys):
    for weight in ("1,2", "1,a,0,0,0,0"):
        code = cli.main(["singular", "--weight", weight])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1


def test_singular_lists_the_quadratic_weight(capsys):
    _code, doc = run_json(capsys, "singular", "--degree", "2")
    weights = {entry["weight"] for entry in doc["payload"]["spaces"]}
    assert "(0, 0, 0, 0, 0, 1)" in weights


def test_invariant_flagged_rows_do_not_fail(capsys):
    code, doc = run_json(capsys, "invariant")
    assert code == 0
    statuses = {r["status"] for r in doc["reports"]}
    assert "discrepancy-flagged" in statuses
    assert "fail" not in statuses


def test_dump_eta_round_trips(capsys):
    from e6poly.invariants import build_eta
    from oracles import poly_from_json

    _code, doc = run_json(capsys, "invariant", "--dump", "eta")
    data = [
        {"exponents": t["exponents"], "coefficient": t["coefficient"]}
        for t in doc["payload"]["eta"]
    ]
    assert poly_from_json(data) == build_eta()


def test_dump_zeta_covers_the_family(capsys):
    _code, doc = run_json(capsys, "invariant", "--dump", "zeta")
    assert set(doc["payload"]["zeta"]) == {str(i) for i in range(1, 28)}


def test_failure_status_sets_exit_code(capsys, monkeypatch):
    from e6poly import rootsys

    class Broken:
        ok = False
        pairs_checked = 0
        triples_checked = 0
        failures = ("synthetic",)

    monkeypatch.setattr(rootsys, "check_cocycle_laws",
                        lambda seed, n_random: Broken())
    code, out = run(capsys, "roots")
    assert code == 1
    assert "FAIL" in out


def test_seed_is_threaded_through(capsys):
    _code, doc = run_json(capsys, "--seed", "31337", "roots")
    assert doc["seed"] == "31337"
    assert doc["payload"]["seed"] == "31337"


def test_closure_command(capsys):
    code, out = run(capsys, "closure")
    assert code == 0
    assert "closure.1-0" in out
    assert "closure.0-1" in out


def test_raising_check_does_not_end_the_run(capsys, monkeypatch):
    from e6poly import rep

    def boom():
        raise ZeroDivisionError("injected")

    _code, clean = run_json(capsys, "rep")
    monkeypatch.setattr(rep, "compare_weight_tables", boom)
    code, doc = run_json(capsys, "rep")
    assert code == 1
    first, *rest = doc["reports"]
    assert first["check_id"] == "rep.weight-table"
    assert first["status"] == "fail"
    assert first["computed"] == "ZeroDivisionError: injected"
    assert first["expected"] == clean["reports"][0]["expected"]
    # every later check still ran and gave its usual row
    assert rest == clean["reports"][1:]
    assert doc["payload"] == clean["payload"]


# (module, producer, cheapest command reaching it, row of the producer,
#  payload key built from its report, or a tuple of such keys, or None if
#  the row feeds no key)
PRODUCERS = [
    ("rootsys", "check_cocycle_laws", ["roots"], "roots.cocycle-laws",
     "cocycle_pairs_checked"),
    ("rep", "compare_reference_operators", ["rep"], "rep.operators",
     "rows_compared"),
    ("singular", "enumerate_singular", ["singular", "--degree", "2"],
     "singular.deg2.line-count", None),
    ("invariants", "eta_report", ["invariant"], "invariant.eta",
     "eta_monomials"),
    ("invariants", "verify_dual_module", ["invariant"],
     "invariant.dual-family", "dual_rank"),
    ("invariants", "lemma_bracket_triple", ["invariant", "--verify"],
     "invariant.bracket.structure", "bracket_triple"),
    ("invariants", "lemma_pairing_bracket", ["invariant", "--verify"],
     "invariant.pairing.structure", "pairing"),
    ("invariants", "lemma_cubic_action", ["invariant", "--verify"],
     "invariant.cubic-action-sweep", "cubic_cases"),
    ("decomp", "phi_dim", ["decompose", "--degree", "3"],
     "decompose.deg3.kernel-dim", "rank"),
    ("weyl", "identity_check", ["identity", "--max-degree", "3"],
     "identity.series", "series"),
    ("rootsys", "root_system", ["roots"], "roots.e7-count",
     ("cocycle_pairs_checked", "e7_roots", "e6_roots", "e6_positive",
      "basis_vectors")),
    ("rootsys", "bar_set_expressions", ["roots"], "roots.basis-expressions",
     "defective_basis_expressions"),
    ("singular", "singular_space", ["singular", "--degree", "2"],
     "singular.deg2.line-count", None),
    ("invariants", "plain_involution_defect", ["invariant"],
     "invariant.dual-family.plain-relabeling-defect",
     "plain_relabeling_escapees"),
    ("invariants", "pairing_operator", ["invariant", "--verify"],
     "invariant.commutes.D2", None),
    ("invariants", "build_eta", ["invariant", "--dump", "eta"],
     "invariant.eta.monomials", "eta"),
    ("invariants", "build_zeta_family", ["invariant", "--dump", "zeta"],
     "invariant.zeta.count", "zeta"),
]


@pytest.mark.parametrize("module, producer, argv, check_id, key", PRODUCERS,
                         ids=[p[1] for p in PRODUCERS])
def test_raising_producer_becomes_a_fail_row(capsys, monkeypatch, fresh_caches, module,
                                             producer, argv, check_id, key):
    def boom(*args, **kwargs):
        raise ZeroDivisionError("injected")

    # the caches start empty, so a patched singular_space, which only the
    # cached scan calls, is reached
    monkeypatch.setattr(importlib.import_module(f"e6poly.{module}"), producer, boom)
    code = cli.main([*argv, "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    doc = json.loads(captured.out)
    (row,) = [r for r in doc["reports"] if r["check_id"] == check_id]
    assert row["status"] == "fail"
    assert row["computed"] == "ZeroDivisionError: injected"
    if argv[0] == "singular":
        assert doc["payload"] == {"spaces": []}
    elif key is not None:
        keys = (key,) if isinstance(key, str) else key
        assert not set(keys) & doc["payload"].keys()


def test_constants_are_read_only_off_a_structural_bracket(capsys, monkeypatch,
                                                           fresh_caches):
    # x_1 d_2 lies outside span{Id, D1, D2} and span{M_eta, M_eta D1}
    real = invariants.leibniz_bracket
    monkeypatch.setattr(invariants, "leibniz_bracket",
                        lambda a, f: padd(real(a, f), {((1,), (2,)): 1}))
    code, doc = run_json(capsys, "invariant", "--verify")
    assert code == 1
    rows = {r["check_id"]: r for r in doc["reports"]}
    for lemma in ("bracket", "pairing"):
        assert rows[f"invariant.{lemma}.structure"]["status"] == "fail"
        assert f"invariant.{lemma}.constants" not in rows
    assert not {"bracket_triple", "pairing"} & set(doc["payload"])
    sweep = rows["invariant.cubic-action-sweep"]
    assert sweep["status"] == "fail"
    assert sweep["computed"].startswith("ValueError: ")


def test_a_wrong_printed_eigenvalue_fails_only_the_row_comparing_it(
        capsys, monkeypatch):
    # the derived cubic scalar starts from the computed D2 eigenvalue, so
    # the printed formula reaches the eigenvalue sweep alone
    monkeypatch.setattr(golden, "claimed_pairing_eigenvalue",
                        lambda m1, m2: m2 * (m1 + m2 + 5))
    code, doc = run_json(capsys, "invariant", "--verify")
    assert code == 1
    status = {r["check_id"]: r["status"] for r in doc["reports"]}
    assert status["invariant.cubic-action-sweep"] == "pass"
    assert [k for k, v in status.items() if v == "fail"] == [
        "invariant.eigenvalue-sweep"]


def test_all_builds_the_eta_report_once(capsys, monkeypatch, fresh_caches):
    # two rows read the report; it is built once
    calls = []
    real = invariants.bilinear_relation_dim

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(invariants, "bilinear_relation_dim", counted)
    code, _doc = run_json(capsys, "all")
    assert code == 0
    assert len(calls) == 1


def test_all_solves_each_singular_block_once(capsys, monkeypatch, fresh_caches):
    # the scan solves only the blocks of the generators 1, x_1, zeta_1
    # and eta, which no product of lower lines reaches; the dimension
    # count settles every other block, and the generator rows and the
    # eta cross-check read the scan's bases instead of solving again
    calls = Counter()
    real = singular.singular_space

    def counted(degree, weight):
        calls[degree, tuple(weight)] += 1
        return real(degree, weight)

    monkeypatch.setattr(singular, "singular_space", counted)
    code, _doc = run_json(capsys, "all")
    assert code == 0
    zero, lam1, lam6 = invariants.ZERO_WEIGHT, invariants.LAMBDA1, invariants.LAMBDA6
    assert calls == Counter({(0, zero): 1, (1, lam1): 1, (2, lam6): 1, (3, zero): 1})


def test_invariant_verify_solves_each_base_eigenvalue_once(capsys, monkeypatch,
                                                          fresh_caches):
    # the cubic sweep reads the eigenvalue sweep's D2 eigenvalues on
    # x_1^m1 zeta_1^m2 instead of solving its 12 bases again: D2 is
    # applied once to each vector whose eigenvalue is solved
    D2 = invariants.pairing_operator()
    solves = Counter()
    real = invariants.apply

    def counted(w, f):
        if w is D2:
            solves[frozenset(f.items())] += 1
        return real(w, f)

    monkeypatch.setattr(invariants, "apply", counted)
    code, _doc = run_json(capsys, "invariant", "--verify")
    assert code == 0
    bases = {frozenset(invariants.family(0, m1, m2).items())
             for m1, m2 in cli._label_pairs(cli.EIGENVALUE_DEGREE)}
    assert len(bases) == 25 and bases <= solves.keys()
    assert set(solves.values()) == {1}


def test_identity_rows_read_the_degree_sums(capsys, monkeypatch):
    # the per-degree rows report identity_check's own sums, not a recount
    real = weyl.identity_check

    def shifted(max_degree):
        r = real(max_degree)
        return r._replace(degree_sums=tuple(v + 1 for v in r.degree_sums))

    monkeypatch.setattr(weyl, "identity_check", shifted)
    code, doc = run_json(capsys, "identity", "--max-degree", "3")
    assert code == 1
    rows = {r["check_id"]: r for r in doc["reports"]}
    for m in range(4):
        row = rows[f"identity.coeff-q{m}"]
        assert row["computed"] == str(comb(m + 26, 26) + 1)
        assert row["status"] == "fail"


NEGATIVE = st.integers(max_value=-1)
MALFORMED_WEIGHT = st.one_of(
    st.lists(st.integers(), max_size=12)
    .filter(lambda xs: len(xs) != 6)
    .map(lambda xs: ",".join(map(str, xs))),
    st.builds(
        lambda xs, bad, i: ",".join([*map(str, xs[:i]), bad, *map(str, xs[i:])]),
        st.lists(st.integers(), min_size=5, max_size=5),
        st.from_regex(r"[a-z. ]*", fullmatch=True),
        st.integers(0, 5),
    ),
)
BAD_ARGV = st.one_of(
    st.builds(lambda d, extra: ["singular", f"--degree={d}", *extra],
              NEGATIVE, st.sampled_from([[], ["--force"]])),
    st.builds(lambda d: ["singular", f"--degree={d}"],
              st.integers(min_value=cli.SINGULAR_DEGREE + 1)),
    st.builds(lambda w: ["singular", f"--weight={w}"], MALFORMED_WEIGHT),
    st.builds(lambda d, extra: ["decompose", f"--degree={d}", *extra],
              NEGATIVE, st.sampled_from([[], ["--force"], ["--materialize", "--force"]])),
    st.builds(lambda d, extra: ["decompose", f"--degree={d}", *extra],
              st.integers(min_value=cli.DECOMPOSE_GUARD + 1),
              st.sampled_from([[], ["--materialize"]])),
    st.builds(lambda cmd, d: [cmd, f"--max-degree={d}"],
              st.sampled_from(["identity", "all"]),
              NEGATIVE | st.integers(min_value=MAX_IDENTITY_DEGREE + 1)),
    st.builds(lambda dump: ["invariant", "--verify", f"--dump={dump}"],
              st.sampled_from(["eta", "zeta"])),
)


@settings(max_examples=150, deadline=None)
@given(argv=BAD_ARGV)
def test_bad_argument_values_exit_2_before_any_check(argv):
    out, err = io.StringIO(), io.StringIO()
    computed = AssertionError(f"a check ran for {argv}")
    with mock.patch.object(cli.Assembler, "check", side_effect=computed), \
            mock.patch.object(cli.Assembler, "note", side_effect=computed), \
            redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().count("\n") == 1
    assert err.getvalue().endswith("\n")


def test_all_json_is_independent_of_hash_seed():
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "e6poly.cli", "all", "--json"],
            env=env, capture_output=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    # golden bytes: integer and Fraction coefficients must print alike
    assert hashlib.sha256(outs[0]).hexdigest() == (
        "330141fe435122470b3cd618d15ccebfcae3a60499ae6377602b30f8c782e09f")


@pytest.mark.parametrize("argv, digest", [
    (("invariant", "--dump", "eta", "--json"),
     "c1f1a19bc80b93d2c454b56d9f8285be484618b62c285b77fc0578f0c341b454"),
    (("invariant", "--dump", "eta"),
     "aeb4df6457e885d1fe8d2c7080c68d4c1449befe138adcbbc05320c66f41e85c"),
    (("invariant", "--dump", "zeta", "--json"),
     "fbb339147c4eafa8d6c64ea26e7dc46d27a2f2cca1fc90cf48a79c42de897b7e"),
])
def test_eta_dump_golden_bytes(capsys, argv, digest):
    _code, out = run(capsys, *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("invariant", "--verify"),
     "9dd558932b4854c8eaf6b963d84761c229c5c80daa61e6c2eba04d990c8e790f"),
    (("roots",),
     "931bd6b9c6be861c0e35effd9dfe453144405980b91fb485702e6d59ddbb7b47"),
    (("all", "--force", "--json"),
     "32794326c94e99998c98c28f3afc8cb584a29faec98e84b50a5000a48ca3c28c"),
    (("roots", "--json"),
     "d839ad1aabb2233415c453b55d4d19f79d8343c043ca74ae405ad362679b746c"),
    (("singular", "--degree", "6", "--force", "--json"),
     "2cd400d20211c132a26778246b245312705ecbf5963c9128fe375719af09e00b"),
    (("invariant", "--json"),
     "7bfd5846fb6166bd47f679db51c8eb8096e247f0afb9a2a82082c36692a30466"),
    (("invariant", "--verify", "--json"),
     "f47daa016d5706031277deec49a6fd5d620112b5c047ee7359604249c2edfd9c"),
    (("invariant", "--dump", "zeta"),
     "421ae9bb98e4562be06252ff98777f04c9989b3fe18edf7032afeb3b27959445"),
    (("identity", "--json"),
     "61bc88fa20f393f9dc8da9675f7d5543fcf2d4fc23d4939d8ab5d673f82cb0f6"),
])
def test_text_report_golden_bytes(capsys, argv, digest):
    # the invariance checks and the sign-factor laws print in these, and
    # the forced checks, the root counts and the degree-6 lines in the JSON;
    # the invariant rows carry the plain-relabeling escapees, the dual rank
    # and the zeta expansions, and the identity rows the series
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_singular_degree_five_golden_bytes(capsys):
    # the generators are in no tier-1 golden file but this one
    code, out = run(capsys, "singular", "--degree", "5", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "301cd3121f18fd9dd4f75cd231fa4e8af0bf92e7e6dc63e82d9fa9e6d35e2089")


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    root = Path(cli.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(root / "scripts" / name), *args],
        env=env, capture_output=True)


def _script_stdout(name: str, *args: str) -> bytes:
    proc = _run_script(name, *args)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_scan_singular_script_golden_bytes():
    out = _script_stdout("scan_singular.py", "4")
    assert hashlib.sha256(out).hexdigest() == (
        "10769592abee683419d46f334d6e014abca22f0f72c3f2afd00557357d39b19c")


def test_kernel_table_script_golden_bytes():
    # the script reads phi_dim and its Weyl terms from decomp
    out = _script_stdout("kernel_table.py", "4")
    assert hashlib.sha256(out).hexdigest() == (
        "c5b49ae0eb8261c85548533a6a7408a38bdbc20bb0b681a7b5cbe4c4b5b6c41d")


@pytest.mark.parametrize("name", ["kernel_table.py", "scan_singular.py"])
@pytest.mark.parametrize("args", [["abc"], ["-1"], ["2.5"], ["3", "4"]])
def test_script_refuses_a_bad_degree_with_exit_two(name, args):
    proc = _run_script(name, *args)
    assert proc.returncode == 2
    assert proc.stdout == b""
    stderr = proc.stderr.decode()
    assert "Traceback" not in stderr
    assert stderr.splitlines()[-1].startswith(f"{name}: error: ")


@pytest.mark.parametrize("name", ["kernel_table.py", "scan_singular.py"])
def test_script_help_prints_usage(name):
    proc = _run_script(name, "--help")
    assert proc.returncode == 0
    assert proc.stdout.decode().startswith(f"usage: {name} [-h] [MAX_DEGREE]")


def test_decompose_degree_six_golden_bytes(capsys):
    # the output of the kernel-m6 benchmark workload
    code, out = run(capsys, "decompose", "--degree", "6", "--force", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9272cfd044f6767e6bdc89de25fedfae72e8270d186d85c1034579709ea801f2")


@pytest.mark.parametrize("argv, digest", [
    (("--degree", "2", "--materialize"),
     "abd83e9e7ea900afd0e99a8747b2a92f04654e6021d6e2ef3f13a90d3d0c7ee0"),
    (("--degree", "3", "--materialize"),
     "81aee7d1123dddc2b89a529af05e1b18bb2258388f58821098a03a389cccb94c"),
    (("--degree", "5", "--materialize"),
     "c15cd22d4f7b2fa235a6650c80f9a23b70ca64688c7bd33e01c63dd29e7b0e34"),
    (("--degree", "6", "--materialize", "--force"),
     "ea0406eae9ae67437842b1649b997fae3b58aa61d077d16aa4c4ce727a98c944"),
    (("--degree", "7", "--force"),
     "9ab365c80949563a44e8278ecbe608fb57836d1a78901a86b734288f36743d9f"),
    pytest.param(("--degree", "7", "--materialize", "--force"),
                 "4fa2174d3175719e871e4c1e669616f0575a23fe3fef6cf876ddc100f4a86c4d",
                 marks=pytest.mark.slow),
])
def test_decompose_golden_bytes(capsys, argv, digest):
    # both kernel routes below, at and above degree 3, and both routes at
    # degree 7, the materialized one about 0.5 s
    code, out = run(capsys, "decompose", *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
