"""The four benchmark workloads.

Each workload makes one op's inputs from a ``random.Random`` stream, runs
the op through the public API or the CLI (looking the entry point up on
its module at call time, so the traced run sees it), checks the outputs,
and reduces them to a digest that is compared with values recorded at the
seed commit (``reference.json``).  The reference op uses fixed inputs
(``REF_SEED``); every timed op draws fresh seeds.
"""

from __future__ import annotations

import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from ductpml import cli, greens, harness, noise
from ductpml.duct import DuctConfig
from ductpml.errors import InsufficientDataError

REF_SEED = 1000
H_LEVELS = (1 / 8, 1 / 16, 1 / 32)
# Solver and harness outputs may move only by roundoff; kernel values may
# move within the criterion-2 cross-representation bound.
SOLVER_RTOL = 1e-10
KERNEL_RTOL = 1e-4


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(a)))) for a in arrays)


def _flat(a) -> list:
    return [float(v) for v in np.ravel(np.asarray(a, dtype=float))]


class McH:
    """Noise-refinement study at criterion 8's pinned scale."""

    name = "mc_h"
    work_unit = "seeds"
    rtol = SOLVER_RTOL
    # generator construction and glue in the interpreter, then the solve
    calibration = {"loop": 2, "numpy": 2, "banded": 4}
    samples = 200
    params = {
        "entry": "harness.run_h_study",
        "d": 1.0, "M": 0.3, "k": 5.0, "L": 2.0,
        "h_levels": list(H_LEVELS), "ref_refine": 2, "n_samples": samples, "threads": 1,
    }

    def __init__(self, scratch: Path):
        self.cfg = DuctConfig(d=1.0, M=0.3, k=5.0, x_minus=-1.0, x_plus=1.0, L=2.0)
        self.units_per_op = self.samples

    def reference_inputs(self):
        return {"base_seed": REF_SEED}

    def inputs(self, rng):
        return {"base_seed": rng.randrange(1, 1 << 40)}

    def run(self, inp):
        return harness.run_h_study(
            self.cfg, None, H_LEVELS, self.samples, inp["base_seed"], ref_refine=2, threads=1
        )

    def check(self, inp, res):
        problems = []
        if not _finite(res.error_mean, res.error_stderr, res.fitted_rate, res.rate_stderr):
            problems.append("non-finite study output")
        if not res.fitted_rate >= harness.RATE_PASS_THRESHOLD:
            problems.append(f"fitted rate {res.fitted_rate:.4f} below 1.8")
        if not res.rate_stderr < harness.RATE_STDERR_THRESHOLD:
            problems.append(f"rate stderr {res.rate_stderr:.4f} not below 0.15")
        return problems

    def digest(self, inp, res):
        return {
            "error_mean": _flat(res.error_mean),
            "error_stderr": _flat(res.error_stderr),
            "fitted_rate": [float(res.fitted_rate)],
            "rate_stderr": [float(res.rate_stderr)],
        }

    def info(self, inp, res):
        return {"passed": bool(res.passed), "fitted_rate": float(res.fitted_rate)}

    def cleanup(self, inp):
        pass


class McTotal(McH):
    """Combined (h, L) error table; the only workload on the thread map."""

    name = "mc_total"
    # banded factor-and-solve calls and the numpy glue around them
    calibration = {"numpy": 3, "banded": 5}
    samples = 50
    l_values = (0.5, 1.0, 1.5, 2.0)
    params = {
        "entry": "harness.run_total_error_study",
        "d": 1.0, "M": 0.6, "k": 20.0, "sigma_plus": 20.0,
        "h_levels": list(H_LEVELS), "l_values": list(l_values), "ref_refine": 2,
        "n_samples": samples, "threads": 2,
    }

    def __init__(self, scratch: Path):
        self.cfg = DuctConfig(d=1.0, M=0.6, k=20.0, x_minus=-1.0, x_plus=1.0, L=2.0)
        self.units_per_op = self.samples

    def run(self, inp):
        return harness.run_total_error_study(
            self.cfg, H_LEVELS, self.l_values, 20.0, self.samples, inp["base_seed"],
            ref_refine=2, threads=2,
        )

    def check(self, inp, res):
        problems = []
        if res.error_mean.shape != (len(H_LEVELS), len(self.l_values)):
            problems.append(f"error table shape {res.error_mean.shape}")
        if not _finite(res.error_mean, res.error_stderr, res.abscissae_l):
            problems.append("non-finite error table")
        elif not bool(np.all(res.error_mean > 0.0)):
            problems.append("non-positive mean-square error")
        return problems

    def digest(self, inp, res):
        return {
            "error_mean": _flat(res.error_mean),
            "error_stderr": _flat(res.error_stderr),
            "abscissae_l": _flat(res.abscissae_l),
        }

    def info(self, inp, res):
        # Information only: the flow-blind default spacing puts this rate
        # near 1.65 at k=20, M=0.6, so it is not an invariant.
        try:
            rate, _ = harness.fit_rate(
                res.h_values, res.error_mean[:, -1], res.error_stderr[:, -1], "loglog"
            )
        except InsufficientDataError:
            return {}
        return {"h_rate_at_largest_L": float(rate)}


SOLVE_CONFIG = """\
[duct]
d = 1
M = 0.6
k = 20
[pml]
sigma_plus = 20
L = 1
[source]
type = mode_box+noise
[grid]
formulation = pml_full
"""


class SolveCli:
    """`ductpml solve` into a fresh directory: the CSV write path."""

    name = "solve_cli"
    work_unit = "solves"
    rtol = SOLVER_RTOL
    # CSV formatting, then the per-mode solves
    calibration = {"format": 5, "banded": 3}
    params = {
        "entry": "cli.dispatch(['solve', ...])",
        "d": 1.0, "M": 0.6, "k": 20.0, "L": 1.0, "sigma_plus": 20.0,
        "source": "mode_box+noise", "formulation": "pml_full",
    }

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.config = scratch / "solve.cfg"
        self.config.write_text(SOLVE_CONFIG, encoding="utf-8")
        self.units_per_op = 1
        self.rows = None

    def _inputs(self, seed):
        out = Path(tempfile.mkdtemp(prefix="solve-", dir=self.scratch))
        return {"seed": seed, "out": out}

    def reference_inputs(self):
        return self._inputs(REF_SEED)

    def inputs(self, rng):
        return self._inputs(rng.randrange(1, 1 << 40))

    def run(self, inp):
        argv = ["solve", "--config", str(self.config), "--out", str(inp["out"])]
        return cli.dispatch(argv + ["--seed", str(inp["seed"])])

    def _tables(self, inp):
        modal = np.loadtxt(inp["out"] / "modal.csv", delimiter=",", skiprows=1, ndmin=2)
        field = np.loadtxt(inp["out"] / "field.csv", delimiter=",", skiprows=1, ndmin=2)
        return modal, field

    def check(self, inp, status):
        if status != 0:
            return [f"ductpml solve exited with {status}"]
        modal, field = self._tables(inp)
        problems = []
        if not _finite(modal, field):
            problems.append("non-finite values in modal.csv or field.csv")
        rows = (modal.shape[0], field.shape[0])
        if self.rows is None:
            self.rows = rows
        elif rows != self.rows:
            problems.append(f"row counts {rows} differ from {self.rows}")
        return problems

    def digest(self, inp, status):
        modal, field = self._tables(inp)
        modes = modal[:, 0].astype(int)
        p = modal[:, 2] + 1j * modal[:, 3]
        n_modes = int(modes.max()) + 1
        return {
            "modal_norm2": _flat(np.bincount(modes, np.abs(p) ** 2, n_modes)),
            "modal_sum_re": _flat(np.bincount(modes, p.real, n_modes)),
            "modal_sum_im": _flat(np.bincount(modes, p.imag, n_modes)),
            "field_norm2": [float(np.sum(field[:, 2] ** 2 + field[:, 3] ** 2))],
            "rows": [float(modal.shape[0]), float(field.shape[0])],
        }

    def info(self, inp, status):
        return {}

    def bytes_written(self, inp):
        return sum(f.stat().st_size for f in inp["out"].iterdir() if f.is_file())

    def cleanup(self, inp):
        shutil.rmtree(inp["out"], ignore_errors=True)


class Oracle:
    """Verification path: stochastic solution and the kernel-difference probe."""

    name = "oracle"
    work_unit = "points"
    rtol = KERNEL_RTOL
    # image series and cell integrals run in interpreter loops
    calibration = {"loop": 8}
    grid = 4
    params = {
        "entry": "greens.stochastic_solution + greens.lemma2_exponent_probe",
        "d": 1.0, "M": 0.3, "k": 5.0, "points": "4x4 in the forcing rectangle",
        "noise_cells": "11x6", "probe_gaps": "7 in [1e-3, 1e-1]",
    }

    def __init__(self, scratch: Path):
        self.cfg = DuctConfig(d=1.0, M=0.3, k=5.0, x_minus=-1.0, x_plus=1.0, L=2.0)
        self.rect = harness.default_forcing_rect(self.cfg)
        x1_lo, x1_hi, x2_lo, x2_hi = self.rect
        # the CLI's default noise mesh; its coarsest level is 11 x 6 cells
        diag = math.hypot(x1_hi - x1_lo, x2_hi - x2_lo)
        self.mesh = noise.build_mesh(self.rect, diag / 32, 3)
        self.params_g = greens.GreensEvalParams()
        self.gaps = np.logspace(-3, -1, 7)
        self.units_per_op = self.grid * self.grid

    def _points(self, jitter):
        x1_lo, x1_hi, x2_lo, x2_hi = self.rect
        w1 = (x1_hi - x1_lo) / self.grid
        w2 = (x2_hi - x2_lo) / self.grid
        cells = [(i, j) for i in range(self.grid) for j in range(self.grid)]
        return [
            (x1_lo + (i + 0.5 + a) * w1, x2_lo + (j + 0.5 + b) * w2)
            for (i, j), (a, b) in zip(cells, jitter)
        ]

    def _pairs(self, y0, angle):
        c, s = math.cos(angle), math.sin(angle)
        return [(y0, (y0[0] + g * c, y0[1] + g * s)) for g in self.gaps]

    def reference_inputs(self):
        # criterion 10's probe pairs and the undisplaced point grid
        points = self._points([(0.0, 0.0)] * self.grid ** 2)
        pairs = self._pairs((0.1, 0.45), math.pi / 4)
        return {"seed": REF_SEED, "points": points, "pairs": pairs}

    def inputs(self, rng):
        jitter = [
            (rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25)) for _ in range(self.grid ** 2)
        ]
        y0 = (rng.uniform(-0.5, 0.5), rng.uniform(0.3, 0.7))
        return {
            "seed": rng.randrange(1, 1 << 40),
            "points": self._points(jitter),
            "pairs": self._pairs(y0, rng.uniform(0.0, 2.0 * math.pi)),
        }

    def run(self, inp):
        coarse = noise.realization_levels(noise.sample(self.mesh, inp["seed"]))[0]
        values = [
            greens.stochastic_solution(coarse, x, self.params_g, self.cfg) for x in inp["points"]
        ]
        slope, _, qs = greens.lemma2_exponent_probe(inp["pairs"], self.params_g, self.cfg)
        return np.asarray(values), slope, np.asarray(qs)

    def check(self, inp, out):
        values, slope, qs = out
        problems = []
        if not _finite(values, slope, qs):
            problems.append("non-finite kernel values")
        if not slope >= 1.8:
            problems.append(f"probe slope {slope:.4f} below 1.8")
        if not bool(np.all(np.diff(qs) > 0.0)):
            problems.append("probe Q not monotone")
        return problems

    def digest(self, inp, out):
        values, slope, qs = out
        return {
            "u": _flat(np.stack([values.real, values.imag], axis=1)),
            "q": _flat(qs),
            "slope": [float(slope)],
        }

    def info(self, inp, out):
        return {"probe_slope": float(out[1])}

    def cleanup(self, inp):
        pass


WORKLOADS = {w.name: w for w in (McH, McTotal, SolveCli, Oracle)}


def compare(digest: dict, reference: dict, rtol: float) -> list:
    """Problems found comparing a digest with its recorded reference; each
    group is compared relative to its largest reference magnitude."""
    problems = []
    for key, ref in reference.items():
        got = digest.get(key)
        if got is None or len(got) != len(ref):
            problems.append(f"{key}: shape differs from the reference")
            continue
        scale = max((abs(v) for v in ref), default=0.0) or 1e-300
        worst = max((abs(a - b) for a, b in zip(got, ref)), default=0.0)
        if not worst <= rtol * scale:
            problems.append(f"{key}: differs from the reference by {worst / scale:.3e} relative")
    return problems
