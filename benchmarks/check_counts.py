"""Self-check: two traced runs of the same code give identical counts.

Runs ``bench.py --trace 1`` twice per workload with the same seed and
compares every ``*.calls`` metric and the exact work counts (normals,
generators, right-hand-side columns, Hankel arguments).  Count-based perf
claims rest on these repeating exactly.  Exits 1 on any difference.

    python3 benchmarks/check_counts.py [--seconds 4] [workload ...]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spans import EXACT_COUNTS

BENCH = Path(__file__).resolve().parent / "bench.py"
ROOT = BENCH.parent.parent


def traced_counts(workload: str, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH), "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith(".calls") or k in EXACT_COUNTS}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seconds", type=int, default=4)
    args = p.parse_args(argv)
    ok = True
    for workload in args.workloads:
        first, second = (traced_counts(workload, args.seconds) for _ in range(2))
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        ok = ok and not diff
        verdict = f"DIFFERENT {diff}" if diff else "identical"
        print(f"{workload}: {verdict} ({len(first)} counts)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
