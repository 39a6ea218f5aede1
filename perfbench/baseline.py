"""Repeat benchmark runs over seeds and record their spread.

Usage, from the root of a checkout:
    python3 perfbench/baseline.py --runs 10 --traced 2 --out perfbench/baseline.json
    python3 perfbench/baseline.py --runs 5 --workload kernel-m6 --out spread.json

Runs `perfbench/run.py` once per seed (1..runs) and workload with the
spec's run_seconds, then writes, per workload and end-to-end metric, the
run values, their median and quartiles, and the quartile spread as a
share of the median next to the metric's bound. Each run's context line
(versions, nproc, load averages, per-invocation samples) is kept too.
With --traced N it also makes N traced runs per workload and keeps their
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--traced", type=int, default=0,
                   help="traced runs per workload (default 0)")
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.runs + 1)

    def run(name: str, seed: int, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        context, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        print(name, seed, trace, {k: round(v["value"], 4)
                                  for k, v in result["metrics"].items()},
              file=sys.stderr)
        return {"seed": seed, "context": context, "result": result}

    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = [run(name, seed, 0) for seed in seeds]
        traced = [run(name, seed, 1) for seed in seeds[:args.traced]]
        report["workloads"][name] = {
            "attempted": sum(r["result"]["attempted"] for r in runs + traced),
            "failed": sum(r["result"]["failed"] for r in runs + traced),
            "metrics": {
                m["name"]: spread([r["result"]["metrics"][m["name"]]["value"]
                                   for r in runs]) | {"bound": m["bound"]}
                for m in spec["end_to_end"]
            },
            "runs": runs,
            "traced_runs": traced,
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
