"""Tests of the benchmark's own logic. Run: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from e6poly.linalg import IntEchelon  # noqa: E402
from tracer import CALLS, OWN, SELF, Tracer, install  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_and_own_time_on_synthetic_tree():
    # A(a) 0-10 { B(a) 1-4 { C(b) 2-3 }  D(b) 5-7 { E(b) 5.5-6 }  F(a, boundary) 8-9 }
    t = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 5.5, 6, 7, 8, 9, 10]))
    t.enter("A", "a")
    t.enter("B", "a")
    t.enter("C", "b")
    t.exit()
    t.exit()
    t.enter("D", "b")
    t.enter("E", "b")
    t.exit()
    t.exit()
    t.enter("F", "a", boundary=True)
    t.exit()
    t.exit()

    def field(i):
        return {name: st[i] for name, st in t.stats.items()}

    assert field(SELF) == {"A": 4, "B": 2, "C": 1, "D": 1.5, "E": 0.5, "F": 1}
    # B and E are called from their own layer, so their time stays with
    # their caller; F is a boundary and leaves A's own time.
    assert field(OWN) == {"A": 6, "B": 0, "C": 1, "D": 2, "E": 0, "F": 1}
    own = field(OWN)
    assert own["A"] + own["F"] == sum(field(SELF)[n] for n in "ABF")
    assert own["C"] + own["D"] == sum(field(SELF)[n] for n in "CDE")
    assert all(st[CALLS] == 1 for st in t.stats.values())
    assert t.covered_s == 10


def test_bookkeeping_is_not_billed_to_the_open_span():
    t = Tracer(clock=fake_clock([0, 10]))
    t.enter("A", "a")
    t.charge(3)
    t.exit()
    assert t.stats["A"][SELF] == 7
    assert t.stats["A"][OWN] == 7
    assert t.covered_s == 10


def test_install_wraps_module_attributes_methods_and_imported_names():
    lay = types.ModuleType("lay")
    exec(
        "def f(x):\n    return x + 1\n"
        "def _private():\n    return 0\n"
        "def skipped():\n    return 0\n"
        "class K:\n    def m(self):\n        return f(1)\n",
        lay.__dict__,
    )
    user = types.ModuleType("user")
    user.f = lay.f  # what `from lay import f` binds
    seen = []
    t = Tracer()
    install(t, {"lay": lay}, [user], {"lay": frozenset({"lay.f", "lay.K.m"})},
            frozenset(), {}, {"lay.f": lambda tr, a, k, out: seen.append(out)})
    assert user.f is lay.f
    assert user.f(1) == 2
    assert lay.K().m() == 2
    assert t.stats["lay.f"][CALLS] == 2
    assert t.stats["lay.K.m"][CALLS] == 1
    assert "lay._private" not in t.stats and "lay.skipped" not in t.stats
    assert seen == [2, 2]


def test_seed_fields_are_normalised_and_nothing_else():
    doc = '{\n  "seed": "%s",\n  "payload": {\n    "roots": {\n      "seed": "%s"\n    }\n  }\n}\n'
    d1, n1 = child.digest(doc % (7, 7))
    d2, n2 = child.digest(doc % (20240823, 20240823))
    assert (d1, n1) == (d2, n2)
    assert n1 == 2
    other, _ = child.digest((doc % (7, 7)).replace("roots", "rep"))
    assert other != d1


def fake_proc(returncode=0, result=None, stderr=""):
    out = json.dumps(result) + "\n" if result is not None else ""
    return subprocess.CompletedProcess([], returncode, stdout=out, stderr=stderr)


EXPECTED = {"argv": [], "digest": "abc", "seed_fields": 1}


def good_result(**changes):
    r = {"setup_s": 1.0, "wall_s": 2.0, "cpu_s": 2.0, "peak_rss_mb": 100.0, "rc": 0,
         "fail_rows": 0, "check_rows": 4, "numpy": "x", "digest": "abc",
         "seed_fields": 1}
    r.update(changes)
    return r


@pytest.mark.parametrize("proc, reason", [
    (fake_proc(result=good_result()), ""),
    (fake_proc(returncode=1, stderr="Traceback\nValueError: boom"),
     "child exit code 1: ValueError: boom"),
    (fake_proc(), "no result line"),
    (fake_proc(result=good_result(rc=1)), "e6poly exit code 1"),
    (fake_proc(result=good_result(fail_rows=2)), "2 fail rows"),
    (fake_proc(result=good_result(digest="def")), "output digest differs from the recorded one"),
    (fake_proc(result=good_result(seed_fields=0)), "0 seed fields, expected 1"),
])
def test_verdict(proc, reason):
    assert run.verdict(proc, EXPECTED)[1] == reason


# the recorded output of the workload the faked runs claim to run
KERNEL_OUTPUT = {k: json.loads((BENCH / "workloads.json").read_text())["kernel-m6"][k]
                 for k in ("digest", "seed_fields")}


def timed_out():
    raise subprocess.TimeoutExpired([], 1)


def run_main(monkeypatch, capsys, outcomes):
    """Run an untraced run.main on faked child processes. The run goes on
    until an outcome times out, as the fake clock never reaches --seconds."""
    procs = iter(outcomes)

    def fake_run(*args, **kwargs):
        proc = next(procs)
        return proc() if callable(proc) else proc

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    monkeypatch.setattr(run, "time", types.SimpleNamespace(
        perf_counter=itertools.count().__next__))
    rc = run.main(["--workload", "kernel-m6", "--seed", "1", "--seconds", "100"])
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    return rc, lines


def test_failed_runs_are_counted_and_not_sampled(monkeypatch, capsys):
    rc, lines = run_main(monkeypatch, capsys, [
        fake_proc(returncode=1, stderr="boom"),
        fake_proc(result={"setup_s": 1.2}),
        fake_proc(result=good_result(**{**KERNEL_OUTPUT, "digest": "wrong"},
                                     setup_s=5.0, wall_s=9.0)),
        fake_proc(result=good_result(**KERNEL_OUTPUT)),
        timed_out,
    ])
    assert rc == 0
    context, result = lines
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 5, 3)
    assert (context["failed_share"], context["timed_out"]) == (3 / 5, 1)
    # only the set-up probe and the plain run that passed their checks count
    assert result["metrics"]["setup_s"]["value"] == 1.1
    assert result["metrics"]["wall_s"]["value"] == 2.0


def test_a_timeout_is_a_failed_attempt_not_a_wrong_output(monkeypatch, capsys):
    rc, lines = run_main(monkeypatch, capsys, [
        fake_proc(result={"setup_s": 1.0}),
        fake_proc(result={"setup_s": 1.0}),
        fake_proc(result=good_result(**KERNEL_OUTPUT)),
        timed_out,
    ])
    assert rc == 0
    context, result = lines
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 4, 1)
    assert context["invocations"][-1]["reason"] == run.TIMED_OUT


def test_no_result_when_no_run_passes(monkeypatch, capsys):
    rc, lines = run_main(monkeypatch, capsys, [
        fake_proc(result={"setup_s": 1.0}),
        fake_proc(result={"setup_s": 1.0}),
        fake_proc(result=good_result(**{**KERNEL_OUTPUT, "digest": "wrong"})),
        timed_out,
    ])
    assert rc == 1
    assert len(lines) == 1 and lines[0]["failed_share"] == 2 / 4


def test_max_coeff_bits_sees_rows_swapped_into_held_pivots():
    t = Tracer()
    ech = IntEchelon(lambda c: c)
    # The third row has a smaller lead than the held pivot at column 0, so
    # it takes that column; the held row then reduces to zero: no new rank.
    for row in ({1: 1}, {0: 3, 1: 1}, {0: 1, 1: 2**40}):
        layers._after_insert(t, (ech, row), {}, ech.insert(row))
    assert ech.rank == 2
    metrics = layers.layer_metrics(t, 0.0, 0.0)
    assert metrics["linalg.max_coeff_bits"] == 41


def test_metric_names_match_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from_layers = set(layers.layer_metrics(Tracer(), 0.0, 0.0))
    from_run = {"cli.check_rows", "trace.body_s", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == from_layers | from_run
    assert {w["name"] for w in spec["workloads"]} <= set(
        json.loads((BENCH / "workloads.json").read_text()))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel-m6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
