"""One cold e6poly run in this fresh process.

Usage (from the checkout root):
    python3 perfbench/child.py --workload verify-all --seed 1 [--trace]
    python3 perfbench/child.py --setup-only

Set-up is `import e6poly.cli` (which imports every layer) plus
`rootsys.root_system()` and `rep.all_operators()`. The body is one call of
`e6poly.cli.main` with the workload's arguments, its stdout captured.
Prints one JSON line: timings, resource use, the digest of the output with
its seed fields normalised, and, with --trace, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SEED_FIELD = re.compile(r'("seed": )"-?\d+"')


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def normalise(text: str) -> tuple[str, int]:
    """Replace every seed field value; return the text and the count."""
    return SEED_FIELD.subn(r'\1"*"', text)


def digest(text: str) -> tuple[str, int]:
    norm, n = normalise(text)
    return hashlib.sha256(norm.encode()).hexdigest(), n


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if not args.setup_only and args.workload is None:
        p.error("--workload is required unless --setup-only is given")

    sys.path.insert(0, str(SRC))
    tracer = None
    t0 = time.perf_counter()
    import e6poly.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"e6poly imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        sys.path.insert(0, str(HERE))
        from layers import instrument
        from tracer import Tracer
        tracer = Tracer()
        instrument(tracer)
    rs = cli.rootsys.root_system()
    ops = cli.rep.all_operators()
    setup_s = time.perf_counter() - t0
    if len(rs.roots) != 126 or len(ops) != 78:
        print("set-up built the wrong root system", file=sys.stderr)
        return 1
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    argv_cmd = load_workloads()[args.workload]["argv"] + ["--seed", str(args.seed)]
    buf = io.StringIO()
    covered0 = tracer.covered_s if tracer else 0.0
    cpu0 = _cpu_s()
    w0 = time.perf_counter()
    with redirect_stdout(buf):
        rc = cli.main(argv_cmd)
    wall_s = time.perf_counter() - w0
    cpu_s = _cpu_s() - cpu0
    text = buf.getvalue()
    doc = json.loads(text)
    out.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        rc=rc,
        fail_rows=sum(r["status"] == "fail" for r in doc["reports"]),
        check_rows=len(doc["reports"]),
        numpy=sys.modules["numpy"].__version__,
    )
    out["digest"], out["seed_fields"] = digest(text)
    if tracer:
        from layers import layer_metrics
        covered = tracer.covered_s - covered0
        out["layers"] = layer_metrics(tracer, wall_s, covered)
        out["layers"]["cli.check_rows"] = len(doc["reports"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
