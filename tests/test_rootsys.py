"""Root enumeration and sign-factor law tests."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from e6poly import cli, rootsys
from e6poly.rootsys import (
    CARTAN_E7,
    COCYCLE_SAMPLE_BOUND,
    alpha,
    bar_basis,
    bilinear,
    certified_bounds,
    check_cocycle_laws,
    cocycle_F,
    lattice_samples,
    leading_minors_positive,
    root_system,
    vadd,
    vneg,
)
from oracles import check_cocycle_laws_full


def test_form_is_positive_definite():
    assert leading_minors_positive()


def test_certified_bounds_are_tight():
    bounds = certified_bounds()
    assert bounds == (2, 2, 3, 4, 3, 2, 1)
    roots = root_system().roots
    assert tuple(max(abs(r[i]) for r in roots) for i in range(7)) == bounds


@settings(max_examples=300)
@given(st.lists(st.integers(-6, 6), min_size=7, max_size=7),
       st.integers(0, 6), st.integers(1, 30), st.booleans())
def test_vectors_outside_the_box_are_longer_than_roots(k, i, excess, negate):
    b = certified_bounds()[i]
    k[i] = -(b + excess) if negate else b + excess
    assert bilinear(tuple(k), tuple(k)) > 2


def test_reflection_closure_equals_scan():
    closure = rootsys._reflection_closure()
    assert len(closure) == 126
    assert closure == rootsys._scan_norm2()


def test_closure_scan_disagreement_raises(monkeypatch, capsys, fresh_caches):
    real = rootsys._reflection_closure
    monkeypatch.setattr(rootsys, "_reflection_closure", lambda: real()[1:])
    with pytest.raises(ValueError, match="reflection closure"):
        root_system()
    code = cli.main(["roots", "--json"])
    doc = json.loads(capsys.readouterr().out)
    (row,) = [r for r in doc["reports"] if r["check_id"] == "roots.e7-count"]
    assert code == 1
    assert row["status"] == "fail"
    assert row["computed"].startswith("ValueError: reflection closure")


def _full_box_scan(bounds=(4,) * 7):
    """The chunked scan of |k_i| <= bounds[i] that predates the open grid:
    it lists each vector of the box as a row and takes k^T A k by einsum."""
    import numpy as np

    widths = [2 * b + 1 for b in bounds]
    n = math.prod(widths)
    a = np.array(CARTAN_E7, dtype=np.int32)
    found = []
    chunk = 1 << 19
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n), dtype=np.int64)
        block = np.stack(np.unravel_index(idx, widths), axis=1) - np.array(bounds)
        norms = np.einsum("ij,jk,ik->i", block, a, block)
        for row in block[norms == 2]:
            found.append(tuple(int(c) for c in row))
    found.sort()
    return found


def test_scan_equals_the_listed_box_scan():
    # the same certified box, scanned row by row with the explicit matrix
    assert rootsys._scan_norm2() == _full_box_scan(certified_bounds())


def test_root_scan_lists_no_box_sized_block():
    # a listed 165 375 x 7 int32 block of the box alone takes 4.6 MB; the
    # open grid holds one int32 norm per box point, 0.66 MB
    root_system.cache_clear()
    tracemalloc.start()
    try:
        root_system()
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        root_system()
    assert peak < 4 * 2**20


def _fresh_import(**env_set: str) -> tuple[str | None, int | None]:
    """OPENBLAS_NUM_THREADS and the OS thread count (None where
    /proc/self/task is absent) after `import e6poly.cli` in a fresh
    interpreter, whose OPENBLAS_NUM_THREADS is set only if `env_set`
    sets it."""
    src = str(Path(rootsys.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_set)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import json, os, e6poly.cli\n"
            "task = '/proc/self/task'\n"
            "n = len(os.listdir(task)) if os.path.isdir(task) else None\n"
            "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), n]))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return tuple(json.loads(proc.stdout))


def test_importing_the_package_starts_no_blas_thread():
    # rootsys caps OpenBLAS at one thread before it imports numpy
    value, threads = _fresh_import()
    assert value == "1"
    if threads is None:
        pytest.skip("no /proc/self/task to count threads")
    assert threads == 1


def test_the_blas_pin_keeps_the_callers_value():
    value, _threads = _fresh_import(OPENBLAS_NUM_THREADS="2")
    assert value == "2"


@pytest.mark.slow
def test_roots_equal_the_full_box_scan():
    assert root_system().roots == tuple(_full_box_scan())


def test_root_counts():
    rs = root_system()
    assert len(rs.roots) == 126
    assert len(rs.positive) == 63
    assert len(rs.e6_roots) == 72
    assert len(rs.e6_positive) == 36
    assert len(rs.bar_positive) == 27


def test_roots_have_norm_two():
    rs = root_system()
    assert all(bilinear(r, r) == 2 for r in rs.roots)


def test_roots_closed_under_negation():
    rs = root_system()
    roots = set(rs.roots)
    assert all(vneg(r) in roots for r in roots)


def test_positive_partition():
    rs = root_system()
    assert set(rs.positive) == set(rs.e6_positive) | set(rs.bar_positive)
    assert not set(rs.e6_positive) & set(rs.bar_positive)


def test_bar_basis_matches_positive_bar_set():
    rs = root_system()
    assert set(bar_basis()) == set(rs.bar_positive)
    assert len(bar_basis()) == 27


def test_cocycle_values_are_signs():
    rs = root_system()
    for a in rs.roots[:10]:
        for b in rs.roots:
            assert cocycle_F(a, b) in (1, -1)


def test_cocycle_full_report():
    # 36^2 root pairs, n sampled pairs and the 126 roots' diagonal law;
    # n sampled triples and the 7^3 simple-root triples
    for n in (0, 17, cli.COCYCLE_SAMPLES):
        rep = check_cocycle_laws(cli.SEED, n)
        assert rep.ok and rep.certified
        assert rep.failures == ()
        assert rep.pairs_checked == 36 ** 2 + n + 126
        assert rep.triples_checked == n + 343


def _sweep(rep):
    return tuple(f for f in rep.failures if not f.startswith("F2 certificate"))


@pytest.mark.parametrize("n_random", [0, 1, cli.COCYCLE_SAMPLES])
@pytest.mark.parametrize("seed", [0, 1, cli.SEED])
def test_cocycle_sweep_matches_the_vector_oracle(seed, n_random):
    rep = check_cocycle_laws(seed, n_random)
    full = check_cocycle_laws_full(seed, n_random)
    assert (rep.pairs_checked, rep.triples_checked, _sweep(rep)) == (
        full.pairs_checked, full.triples_checked, full.failures)


# (entry, bit): a basis entry, which breaks the symmetry law, and a sum
# entry, which breaks additivity
@pytest.mark.parametrize("entry, bit", [(1, 1), (3, 0), (90, 4)])
def test_cocycle_sweep_matches_the_vector_oracle_on_a_flipped_table(
        monkeypatch, entry, bit):
    _flip_table(monkeypatch, entry, bit)
    rep = check_cocycle_laws(cli.SEED, cli.COCYCLE_SAMPLES)
    full = check_cocycle_laws_full(cli.SEED, cli.COCYCLE_SAMPLES)
    assert _sweep(rep) != ()
    assert (rep.pairs_checked, rep.triples_checked, _sweep(rep)) == (
        full.pairs_checked, full.triples_checked, full.failures)


_root_idx = st.integers(min_value=0, max_value=125)


@settings(max_examples=200)
@given(_root_idx, _root_idx, _root_idx)
def test_cocycle_bimultiplicative(i, j, k):
    roots = root_system().roots
    a, b, c = roots[i], roots[j], roots[k]
    assert cocycle_F(vadd(a, b), c) == cocycle_F(a, c) * cocycle_F(b, c)
    assert cocycle_F(a, vadd(b, c)) == cocycle_F(a, b) * cocycle_F(a, c)


@settings(max_examples=200)
@given(_root_idx, _root_idx)
def test_cocycle_symmetry_law(i, j):
    # commuting the two arguments costs exactly the parity of the pairing
    roots = root_system().roots
    a, b = roots[i], roots[j]
    assert cocycle_F(a, b) * cocycle_F(b, a) == (-1) ** bilinear(a, b)


@settings(max_examples=100)
@given(_root_idx)
def test_cocycle_diagonal_norm_law(i):
    a = root_system().roots[i]
    assert cocycle_F(a, a) == (-1) ** (bilinear(a, a) // 2)


# --- the row form of the sign factor against the defining sums ----------


def _sum_bilinear(a, b):
    """Oracle: the loop form of (a, b) = sum_{i,j} a_i A_ij b_j."""
    total = 0
    for i in range(7):
        ai = a[i]
        if ai:
            row = CARTAN_E7[i]
            total += ai * sum(row[j] * b[j] for j in range(7) if b[j])
    return total


def _sum_cocycle_F(a, b):
    """Oracle: the full exponent sum_i a_i b_i + sum_{i>j} a_i b_j A_ij."""
    exp = sum(a[i] * b[i] for i in range(7))
    for i in range(7):
        ai = a[i]
        if ai:
            row = CARTAN_E7[i]
            exp += ai * sum(row[j] * b[j] for j in range(i))
    return -1 if exp & 1 else 1


_lattice = st.tuples(*[st.integers(-9, 9)] * 7)


@settings(max_examples=500)
@given(_lattice, _lattice)
@example((-3, 0, -1, 0, 0, 0, -9), (1, -1, 0, 2, -7, 0, 1))
@example((1, -1, 0, 2, -7, 0, 1), (-3, 0, -1, 0, 0, 0, -9))
def test_row_form_matches_the_defining_sums(a, b):
    # negative odd entries included: the row form takes parity with & 1
    assert bilinear(a, b) == _sum_bilinear(a, b)
    assert cocycle_F(a, b) == _sum_cocycle_F(a, b)


def test_parity_table_matches_the_defining_sums_on_every_parity_pair():
    # F(a, b) depends on a and b only mod 2, so the 128 x 128 pairs of
    # 0/1 vectors cover every lattice pair
    parities = list(itertools.product((0, 1), repeat=7))
    bad = [(a, b) for a in parities for b in parities
           if cocycle_F(a, b) != _sum_cocycle_F(a, b)]
    assert bad == []


def _flip_table(monkeypatch, entry, bit):
    table = list(rootsys._PARITY_TABLE)
    table[entry] ^= 1 << bit
    monkeypatch.setattr(rootsys, "_PARITY_TABLE", tuple(table))


def test_cocycle_check_fails_when_one_parity_class_is_flipped(monkeypatch):
    # flip bit 1 of T[1]: F(a, b) changes sign for a = alpha_1 mod 2 and
    # b with odd alpha_2 coordinate, F(b, a) does not, which breaks the
    # symmetry law.  The first broken pair of the sweep's order is
    # (alpha_2, alpha_1); (alpha_1, alpha_2) is broken too, but 16 sweep
    # lines come before it, past the sweep's cut at 10.
    _flip_table(monkeypatch, 1, 1)
    rep = check_cocycle_laws(cli.SEED, cli.COCYCLE_SAMPLES)
    assert not rep.ok
    assert rep.failures[0] == f"symmetry law at {alpha(2)}, {alpha(1)}"
    assert rep.failures[10:] == (
        "F2 certificate: parity table entry 3 is not the XOR of its basis entries",
        "F2 certificate: symmetry law fails, M + M^T != A mod 2 at (1, 2)",
    )


def _linear_table(monkeypatch, i, j):
    """Flip M_ij and install the linear table built from the new M."""
    m = [[rootsys._PARITY_TABLE[1 << r] >> c & 1 for c in range(7)] for r in range(7)]
    m[i][j] ^= 1
    monkeypatch.setattr(rootsys, "_PARITY_TABLE", rootsys._parity_table(m))


def _certificate(rep):
    return tuple(f for f in rep.failures if f.startswith("F2 certificate"))


def test_certificate_holds_on_the_table():
    assert rootsys._parity_certificate() == []


def test_certificate_fails_the_symmetry_law_on_one_flipped_M_entry(monkeypatch):
    _linear_table(monkeypatch, 4, 2)
    rep = check_cocycle_laws(cli.SEED, 0)
    assert not rep.certified and not rep.ok
    assert _certificate(rep) == (
        "F2 certificate: symmetry law fails, M + M^T != A mod 2 at (3, 5)",)


def test_certificate_fails_linearity_on_one_entry_off_the_xor(monkeypatch):
    _flip_table(monkeypatch, 0b1010110, 6)
    rep = check_cocycle_laws(cli.SEED, 0)
    assert not rep.certified and not rep.ok
    assert _certificate(rep) == (
        "F2 certificate: parity table entry 86 is not the XOR of its basis entries",)


def test_certificate_fails_the_diagonal_law_on_one_flipped_M_ii(monkeypatch):
    _linear_table(monkeypatch, 3, 3)
    rep = check_cocycle_laws(cli.SEED, 0)
    assert not rep.certified and not rep.ok
    assert _certificate(rep) == (
        "F2 certificate: diagonal law fails, M_ii != A_ii / 2 mod 2 at i = 4",)


def test_the_certificate_alone_sees_an_entry_the_sweep_never_reads(monkeypatch):
    # without samples the sweep reads T only at the odd masks of roots and
    # of sums of two simple roots; alpha_1 + alpha_2 + alpha_3 is neither
    # a root mod 2 nor such a sum
    _flip_table(monkeypatch, 0b111, 0)
    rep = check_cocycle_laws(cli.SEED, 0)
    assert not rep.certified and not rep.ok
    assert rep.failures == (
        "F2 certificate: parity table entry 7 is not the XOR of its basis entries",)


@pytest.mark.parametrize("patch", [
    lambda mp: _linear_table(mp, 4, 2),
    lambda mp: _flip_table(mp, 0b1010110, 6),
    lambda mp: _linear_table(mp, 3, 3),
], ids=["symmetry", "linearity", "diagonal"])
def test_a_failed_certificate_is_a_fail_row(capsys, monkeypatch, patch):
    patch(monkeypatch)
    code = cli.main(["roots", "--json"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    (row,) = [r for r in doc["reports"] if r["check_id"] == "roots.cocycle-laws"]
    assert code == 1
    assert row["status"] == "fail"
    assert "Traceback" not in captured.out + captured.err


def test_cocycle_laws_hold_on_every_parity_class():
    # F(a, b) depends on a and b only mod 2, and so do (a, b) mod 2 and
    # (a, a)/2 mod 2, so the 128 x 128 pairs of 0/1 vectors cover every
    # lattice pair.  Bimultiplicativity on the classes is F(a, b) as the
    # product of its values on the unit vectors in each slot.
    parities = list(itertools.product((0, 1), repeat=7))
    units = [alpha(i) for i in range(1, 8)]
    # F(u, v) and F(v, u) for each unit vector u, by the defining sum
    left = {v: [_sum_cocycle_F(u, v) for u in units] for v in parities}
    right = {v: [_sum_cocycle_F(v, u) for u in units] for v in parities}
    bad = []
    for a in parities:
        if cocycle_F(a, a) != (-1) ** (_sum_bilinear(a, a) // 2):
            bad.append(("diagonal", a))
        for b in parities:
            fab = cocycle_F(a, b)
            if fab * cocycle_F(b, a) != (-1) ** _sum_bilinear(a, b):
                bad.append(("symmetry", a, b))
            first = math.prod(f for f, ai in zip(left[b], a) if ai)
            second = math.prod(f for f, bi in zip(right[a], b) if bi)
            if not fab == first == second:
                bad.append(("bimultiplicative", a, b))
    assert bad == []


@pytest.mark.parametrize("seed", [0, 1, cli.SEED])
def test_lattice_samples_are_the_randint_draws(seed):
    # the check draws 2 vectors per sampled pair and 3 per sampled triple
    n = 5 * cli.COCYCLE_SAMPLES
    rng = random.Random(seed)
    b = COCYCLE_SAMPLE_BOUND
    expected = [tuple(rng.randint(-b, b) for _ in range(7)) for _ in range(n)]
    assert list(itertools.islice(lattice_samples(seed), n)) == expected
