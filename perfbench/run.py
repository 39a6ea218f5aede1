"""e6poly benchmark: cold CLI runs in fresh processes, closed loop, one client.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Each invocation is one `perfbench/child.py` process running one e6poly
command after set-up. Untraced runs start with a few set-up-only
processes, then run the workload's command again until --seconds have
passed, and report the end-to-end metrics as medians. Traced runs
alternate an untraced and a traced invocation and report the per-layer
metrics and the tracing overhead. Every invocation's output is checked
against the digest recorded in workloads.json.

Earlier stdout lines carry the samples, quartiles, load averages and
versions; the last line is the result: correct, attempted, failed and the
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

SETUP_PROBES = 2        # set-up-only processes at the start of an untraced run
# A run must end within 180 s; 10 s are left for start-up and output. A
# cycle is only started if the longest cycle so far still fits before
# this limit, so a slower program gives shorter runs, not timeouts.
RUN_LIMIT_S = 170
TIMED_OUT = "timed out at the run limit"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def verdict(proc: subprocess.CompletedProcess, expected: dict | None):
    """Judge one child process: return (result or None, failure reason or "").

    `expected` is the workload's entry of workloads.json, or None for a
    set-up-only probe.
    """
    if proc.returncode != 0:
        tail = (proc.stderr or "").strip().splitlines()[-1:] or [""]
        return None, f"child exit code {proc.returncode}: {tail[0]}"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "no result line"
    if expected is None:
        return result, ""
    if result["rc"] != 0:
        return result, f"e6poly exit code {result['rc']}"
    if result["fail_rows"]:
        return result, f"{result['fail_rows']} fail rows"
    if result["seed_fields"] != expected["seed_fields"]:
        return result, f"{result['seed_fields']} seed fields, expected {expected['seed_fields']}"
    if result["digest"] != expected["digest"]:
        return result, "output digest differs from the recorded one"
    return result, ""


def invoke(kind: str, workload: str, seed: int, expected: dict, deadline: float) -> dict:
    """Run one child process of `kind` (setup, plain or traced)."""
    args = [sys.executable, str(CHILD)]
    if kind == "setup":
        args.append("--setup-only")
    else:
        args += ["--workload", workload, "--seed", str(seed)]
    if kind == "traced":
        args.append("--trace")
    load_before = os.getloadavg()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(args, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0))
        result, reason = verdict(proc, None if kind == "setup" else expected)
    except subprocess.TimeoutExpired:
        result, reason = None, TIMED_OUT
    return {
        "kind": kind,
        "ok": not reason,
        "reason": reason,
        "seconds": time.perf_counter() - t0,
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "result": result,
    }


def run_loop(workload: str, seed: int, seconds: float, trace: bool,
             expected: dict) -> list[dict]:
    """Invocations of one run: a closed loop that starts cycles until
    `seconds` have passed, so a run measures at least that long, unless
    the next cycle would not end before RUN_LIMIT_S."""
    start = time.perf_counter()
    hard_stop = start + RUN_LIMIT_S
    invocations = []
    if not trace:
        for _ in range(SETUP_PROBES):
            invocations.append(invoke("setup", workload, seed, expected, hard_stop))
    cycle = ["plain", "traced"] if trace else ["plain"]
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        for kind in cycle:
            invocations.append(invoke(kind, workload, seed, expected, hard_stop))
            if invocations[-1]["reason"] == TIMED_OUT:
                return invocations
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - start >= seconds or now + longest > hard_stop:
            return invocations


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def collect(invocations: list[dict], trace: bool) -> dict[str, list[float]]:
    """Samples per metric from every invocation that passed its checks."""
    got = [i for i in invocations if i["ok"]]
    plain = [i["result"] for i in got if i["kind"] == "plain"]
    samples: dict[str, list[float]] = {}
    if not trace:
        samples["setup_s"] = [i["result"]["setup_s"] for i in got]
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[key] = [r[key] for r in plain]
        return samples
    traced = [i["result"] for i in got if i["kind"] == "traced"]
    for r in traced:
        for key, value in r["layers"].items():
            samples.setdefault(key, []).append(value)
    if traced:
        samples["trace.body_s"] = [r["wall_s"] for r in traced]
    if traced and plain:
        samples["trace.overhead_ratio"] = [
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain)
        ]
    return samples


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    workloads_path = HERE / "workloads.json"
    p = argparse.ArgumentParser(description="e6poly benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "e6poly" / "cli.py").is_file():
        print(f"no e6poly source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workloads = json.loads(workloads_path.read_text())
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    invocations = run_loop(args.workload, args.seed, args.seconds, bool(args.trace),
                           workloads[args.workload])
    samples = collect(invocations, bool(args.trace))
    missing = [m["name"] for m in wanted if not samples.get(m["name"])]
    failed = sum(not i["ok"] for i in invocations)
    timed_out = sum(i["reason"] == TIMED_OUT for i in invocations)
    numpy = next((i["result"].get("numpy") for i in invocations
                  if i["result"] and "numpy" in i["result"]), None)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "failed_share": failed / len(invocations),
        "timed_out": timed_out,
        "summary": {k: summary(v) for k, v in samples.items() if v},
        "invocations": [{k: v for k, v in i.items() if k != "result"}
                        | {k: i["result"][k] for k in ("setup_s", "wall_s", "cpu_s")
                           if i["result"] and k in i["result"]}
                        for i in invocations],
    }))
    if missing:
        print(f"no samples for {missing}; failures: "
              f"{[i['reason'] for i in invocations if not i['ok']]}", file=sys.stderr)
        return 1
    print(json.dumps({
        # a timed-out invocation is a failed attempt, not a wrong output
        "correct": failed == timed_out,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
