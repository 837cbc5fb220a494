"""ductpml benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 benchmarks/bench.py --workload mc_h --seed 1 --seconds 25 --trace 0

Each run starts fresh worker processes (``worker.py``) with BLAS pinned to
one thread, so set-up includes the imports and peak memory belongs to one
workload.  With ``--trace 0`` it runs two set-up-only workers and one
measuring worker, and reports the end-to-end metrics; ``setup_s`` is the
median of the three set-ups.  With ``--trace 1`` it runs one worker that
alternates untraced and traced ops, and reports the per-layer metrics.

End-to-end times are scaled to a reference host speed: each op's wall
and CPU time, and each set-up, is multiplied by the calibration job's
reference time over its time measured next to it (``worker.calibrate``).
On a shared host the raw times of identical runs spread by a quarter or
more; the scaled ones by a few percent.  The raw medians are printed in
``info``.

Metric names and units come from ``BENCHMARK.json``.  The line before
the last on standard output describes the run (versions, parameters,
tail percentile, failures, trace coverage details); the last line is the
result object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def _git_sha():
    """Commit of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _spawn(args, deadline, setup_only):
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(OUT_DIR), "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the next worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _tail(sorted_values):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it, never below the median."""
    n = len(sorted_values)
    rank = n - 1 - TAIL_BEYOND
    if rank < (n - 1) / 2:
        return statistics.median(sorted_values), 50.0, n // 2
    return sorted_values[rank], 100.0 * (rank + 1) / n, n - 1 - rank


def _end_to_end(main, setups):
    ops = main["ops"]
    for op in ops:
        op["speed"] = main["cal_ref_s"] / op["cal"]
    walls = sorted(op["wall"] * op["speed"] for op in ops)
    tail, pct, beyond = _tail(walls)
    setup = [s["setup_s"] * s["cal_ref_s"] / s["setup_cal_s"] for s in setups]
    metrics = {
        "op_s.p50": statistics.median(walls),
        "op_s.tail": tail,
        "work_per_s": sum(op["units"] for op in ops if not op["failed"]) / sum(walls),
        "cpu_s.p50": statistics.median(op["cpu"] * op["speed"] for op in ops),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    info = {
        "n_ops": len(ops),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "setup_s_samples": setup,
        "host_speed_p50": statistics.median(op["speed"] for op in ops),
        "raw": {
            "op_s.p50": statistics.median(op["wall"] for op in ops),
            "cpu_s.p50": statistics.median(op["cpu"] for op in ops),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        },
    }
    return metrics, info


def _result(spec, metrics, names, attempted, failed, correct):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError(f"benchmark computed no value for {missing}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }


def run(args, spec):
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ductpml" / "__init__.py").is_file():
        raise BenchError(f"no ductpml sources under {ROOT / 'src'}")
    OUT_DIR.mkdir(exist_ok=True)
    n_setups = 1 if args.trace else SETUP_REPEATS
    setups = [_spawn(args, deadline, setup_only=True) for _ in range(n_setups - 1)]
    main = _spawn(args, deadline, setup_only=False)
    setups.append(main)
    ref_problems = sorted({p for s in setups for p in s["ref_problems"]})
    ops = main["ops"]
    # the measuring worker's reference op is attempted and checked too
    attempted = len(ops) + 1
    failed = sum(op["failed"] for op in ops) + bool(main["ref_problems"])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "env": main["env"],
        "params": main["params"],
        "fail_frac": failed / attempted,
        "first_error": main["first_error"],
        "reference_problems": ref_problems,
        "op_info": main["op_info"],
    }
    if args.trace:
        metrics = main["layer"]
        names = [m["name"] for m in spec["per_layer"]]
        info["trace"] = main["trace_info"]
    else:
        metrics, extra = _end_to_end(main, setups)
        names = [m["name"] for m in spec["end_to_end"]]
        info.update(extra)
    correct = not ref_problems and failed == 0
    return info, _result(spec, metrics, names, attempted, failed, correct)


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 1
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be between 1 and 60")
    try:
        info, result = run(args, spec)
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
