"""One workload in one fresh process; started by ``bench.py``.

Set-up is everything from process start to the first timed op: the
imports, the workload's inputs, and one untimed warm-up op at the fixed
reference inputs, whose outputs are compared with ``reference.json``.
Then ops run in a closed loop for the requested seconds.  With ``--trace
1`` every second op runs with the span tracer installed, so traced and
untraced op times come from the same process.  Prints one JSON line.

A fixed calibration job runs after set-up and between ops, untimed by
the ops; ``bench.py`` scales each time by it (see ``calibrate``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

import spans
import workloads

HERE = Path(__file__).resolve().parent

_CAL_RNG = np.random.default_rng(0)
_CAL_FLOATS = [i * 0.001234567 for i in range(2000)]
_CAL_MATRIX = _CAL_RNG.standard_normal((120, 120))
_CAL_VECTOR = _CAL_RNG.standard_normal(1 << 17)
_CAL_BANDS = _CAL_RNG.standard_normal((3, 641)) + 1j * _CAL_RNG.standard_normal((3, 641))
_CAL_BANDS[1] += 4.0  # diagonally dominant
_CAL_RHS = _CAL_RNG.standard_normal((641, 4)) + 0j


def _cal_loop():
    acc, table = 0, {}
    for i in range(45_000):
        acc += i * i
        table[i & 255] = acc


def _cal_format():
    ",".join("%.17g" % x for x in _CAL_FLOATS * 4)


def _cal_numpy():
    for _ in range(10):
        _CAL_MATRIX @ _CAL_MATRIX
        np.sort(_CAL_VECTOR[:65536])
    _CAL_VECTOR.copy()


def _cal_banded():
    for _ in range(50):
        scipy.linalg.solve_banded((1, 1), _CAL_BANDS, _CAL_RHS)


# Units of the calibration job, each about CAL_UNIT_S on the machine the
# baseline was recorded on.
CAL_UNITS = {
    "loop": _cal_loop, "format": _cal_format, "numpy": _cal_numpy, "banded": _cal_banded,
}
CAL_UNIT_S = 0.005


def calibrate(mix: dict) -> float:
    """Wall time of a fixed job made of ``CAL_UNITS``, ``mix`` giving how
    many of each; a workload's mix is the kind of work its op does.

    On a shared host the same op runs up to 1.7 times slower for minutes
    at a time, whatever the program does.  A job of the same kind slows
    with it, so the ratio of an op's time to the job's time next to it
    holds steady; each kind slows by its own amount, hence one mix per
    workload.
    """
    t0 = time.perf_counter()
    for name, count in mix.items():
        for _ in range(count):
            CAL_UNITS[name]()
    return time.perf_counter() - t0


def _one_op(wl, inp, tracer=None):
    """Run one op; returns (wall_s, cpu_s, output, error, layer metrics)."""
    layer = None
    if tracer is not None:
        tracer.install()
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out, error = wl.run(inp), None
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            out, error = None, traceback.format_exc(limit=4)
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            layer = tracer.op_metrics(t1 - t0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return t1 - t0, c1 - c0, out, error, layer


def _problems(wl, inp, out, error, reference=None):
    if error is not None:
        return [error.strip().splitlines()[-1]]
    try:
        problems = wl.check(inp, out)
        if reference is not None:
            problems += workloads.compare(wl.digest(inp, out), reference, wl.rtol)
    except Exception:  # noqa: BLE001 - an unreadable output is a failed check
        problems = [traceback.format_exc(limit=2).strip().splitlines()[-1]]
    return problems


def run(args) -> dict:
    wl_cls = workloads.WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        wl = wl_cls(scratch)
        ref_inp = wl.reference_inputs()
        _, _, out, error, _ = _one_op(wl, ref_inp)
        ref_problems = _problems(
            wl, ref_inp, out, error, reference.get(wl.name, {"missing reference": []})
        )
        wl.cleanup(ref_inp)
        setup_s = time.time() - args.spawned_at
        calibrate(wl.calibration)  # warm-up: first BLAS call, allocator
        result = {
            "setup_s": setup_s,
            "setup_cal_s": statistics.median(calibrate(wl.calibration) for _ in range(5)),
            "cal_ref_s": CAL_UNIT_S * sum(wl.calibration.values()),
            "ref_problems": ref_problems,
            "params": dict(wl.params, work_unit=wl.work_unit, units_per_op=wl.units_per_op),
        }
        if args.setup_only:
            return result
        result.update(_measure(wl, args, out_dir))
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(wl, args, out_dir) -> dict:
    rng = random.Random(f"{wl.name}:{args.seed}")
    tracer = spans.Tracer().load() if args.trace else None
    ops = []
    layer_ops = []
    span_rows = []
    first_error = None
    info = {}
    min_ops = 2 if tracer is not None else 1
    start = time.perf_counter()
    cal_before = calibrate(wl.calibration)
    while len(ops) < min_ops or time.perf_counter() - start < args.seconds:
        inp = wl.inputs(rng)
        traced = tracer is not None and len(ops) % 2 == 1
        wall, cpu, out, error, layer = _one_op(wl, inp, tracer if traced else None)
        problems = _problems(wl, inp, out, error)
        if problems and first_error is None:
            first_error = problems[0]
        if error is None:
            for key, value in wl.info(inp, out).items():
                info.setdefault(key, []).append(value)
        if traced:
            layer["cli.bytes_written"] = getattr(wl, "bytes_written", lambda inp: 0)(inp)
            layer_ops.append(layer)
            span_rows.extend(tracer.dump(len(ops)))
        wl.cleanup(inp)
        cal_after = calibrate(wl.calibration)
        ops.append(
            {"wall": wall, "cpu": cpu, "cal": (cal_before + cal_after) / 2,
             "units": wl.units_per_op, "failed": bool(problems), "traced": traced}
        )
        cal_before = cal_after
    result = {
        "ops": ops,
        "first_error": first_error,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_info": {
            k: f"{sum(v)}/{len(v)}" if isinstance(v[0], bool) else statistics.median(v)
            for k, v in info.items()
        },
    }
    if tracer is not None:
        result["layer"], result["trace_info"] = _layer_summary(tracer, ops, layer_ops)
        path = out_dir / f"spans-{wl.name}-{args.seed}.json"
        path.write_text(json.dumps(span_rows), encoding="utf-8")
        result["trace_info"]["spans_file"] = str(path.relative_to(out_dir.parent))
    return result


def _layer_summary(tracer, ops, layer_ops):
    keys = sorted({k for op in layer_ops for k in op})
    layer = {k: statistics.median(op.get(k, 0) for op in layer_ops) for k in keys}
    traced = [op["wall"] for op in ops if op["traced"]]
    untraced = [op["wall"] for op in ops if not op["traced"]]
    layer["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    layer["trace.missing_targets"] = len(tracer.missing)
    counts = [k for k in keys if k.endswith(".calls") or k in spans.EXACT_COUNTS]
    repeat = all(len({op.get(k, 0) for op in layer_ops}) == 1 for k in counts)
    missing_metrics = sorted(
        f"{group}.*" for group, fkeys in spans.GROUPS.items()
        if all(key in tracer.missing for key in fkeys)
    )
    info = {
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
        "missing_targets": tracer.missing,
        "missing_metrics": missing_metrics,
        "counter_errors": sorted(tracer.counter_errors),
        "counts_repeat_across_ops": repeat,
        "exact_counts": {k: layer[k] for k in counts},
    }
    return layer, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--out-dir", required=True)
    args = p.parse_args(argv)
    result = run(args)
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
