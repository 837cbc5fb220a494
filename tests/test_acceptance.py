"""Acceptance criteria, one test per criterion, each at its pinned scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion together with the measured quantities and runtimes.
"""

import math
import time

import numpy as np
import pytest

from ductpml import DuctConfig
from ductpml.cli import dispatch
from ductpml.duct import axial_wavenumbers, cutoff_numbers
from ductpml.greens import GreensEvalParams, lemma2_exponent_probe
from ductpml.harness import (
    run_equivalence_check,
    run_h_study,
    run_L_study,
)
from ductpml.noise import (
    NoiseMesh,
    build_mesh,
    coarsen,
    sample,
)
from ductpml.pml import (
    PmlProfile,
    dtn_gap_bound,
    nu_coefficients,
    reflection_coefficient,
    sigma_tilde_integral,
    theoretical_decay_constant,
)
from ductpml.solver import Grid1D, solve_full
from oracles import (
    dispersion_residual,
    evaluate_wh,
    greens_images,
    greens_modal,
    modal_amplitudes,
    pde_residual_images,
)


def report(num, name, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(
        f"\nACCEPTANCE {num:2d} [{name}]: {status}  ({detail}; "
        f"runtime {elapsed:.1f}s of {budget:.0f}s budget)"
    )
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"
    assert passed, f"criterion {num} [{name}] failed: {detail}"


def std_cfg(L=2.0):
    return DuctConfig(d=1.0, M=0.3, k=5.0, x_minus=-1.0, x_plus=1.0, L=L)


def test_criterion_01_dispersion_sweep():
    t0 = time.time()
    worst = 0.0
    for M in (0.0, 0.3, 0.6, 0.9):
        for k in (1.0, 5.0, 20.0):
            cfg = DuctConfig(d=1.0, M=M, k=k, x_minus=-1.0, x_plus=1.0, L=1.0)
            bound = 1e-12 * max(1.0, k * k)
            for n in range(51):
                bp, bm = axial_wavenumbers(n, cfg)
                r = max(dispersion_residual(bp, n, cfg), dispersion_residual(bm, n, cfg))
                worst = max(worst, r / bound)
    elapsed = time.time() - t0
    report(1, "dispersion", worst < 1.0, f"worst residual/bound = {worst:.3e}", elapsed, 1.0)


def test_criterion_02_greens_cross_validation():
    t0 = time.time()
    cfg = std_cfg()
    params_mod = GreensEvalParams()
    y = (0.0, 0.4)
    worst = 0.0
    for x1 in np.linspace(0.55, 0.95, 5):
        for x2 in np.linspace(0.05, 0.95, 5):
            gi = greens_images((x1, x2), y, 10_000, cfg).value
            gm = greens_modal((x1, x2), y, params_mod, cfg).value
            worst = max(worst, abs(gi - gm) / abs(gm))
    deltas = (1 / 64, 1 / 128, 1 / 256)
    resid = [abs(pde_residual_images((0.65, 0.62), y, 1500, cfg, d)) for d in deltas]
    order = float(np.polyfit(np.log(deltas), np.log(resid), 1)[0])
    passed = worst < 1e-4 and order >= 1.8
    report(
        2,
        "greens-oracles",
        passed,
        f"worst rep. disagreement = {worst:.2e}, FD residual order = {order:.2f}",
        time.time() - t0,
        60.0,
    )


def test_criterion_03_noise_statistics():
    t0 = time.time()
    n_seeds = 10_000
    # covariance: cells of area 0.01; same-cell pair and distinct-cell pair
    mesh = NoiseMesh(rect=(0.0, 0.4, 0.0, 0.1), levels=1, base_shape=(4, 1))
    area = mesh.cell_area(0)
    xs = (np.array([0.02, 0.07, 0.22]), np.array([0.03, 0.08, 0.05]))
    same = np.empty(n_seeds)
    diff = np.empty(n_seeds)
    for s in range(n_seeds):
        w = evaluate_wh(sample(mesh, s), xs)
        same[s] = w[0] * w[1]
        diff[s] = w[0] * w[2]
    se_same = same.std(ddof=1) / math.sqrt(n_seeds)
    se_diff = diff.std(ddof=1) / math.sqrt(n_seeds)
    cov_ok = (
        abs(same.mean() - 1.0 / area) < 3.0 * se_same
        and abs(diff.mean()) < 3.0 * se_diff
    )
    # coarsening preserves unit variance to machine precision: the exact
    # aggregation weight is sqrt(|child|/|parent|) = 1/2
    mesh2 = build_mesh((0.0, 1.0, 0.0, 1.0), 0.2, levels=2)
    agg_ok = True
    for s in range(64):
        r = sample(mesh2, s)
        c = coarsen(r)
        manual = 0.5 * (
            r.xi[0::2, 0::2] + r.xi[1::2, 0::2] + r.xi[0::2, 1::2] + r.xi[1::2, 1::2]
        )
        agg_ok &= bool(np.array_equal(c.xi, manual))
    w2 = 4.0 * (mesh2.cell_area(1) / mesh2.cell_area(0))
    agg_ok &= abs(w2 - 1.0) < 1e-15
    passed = cov_ok and agg_ok
    report(
        3,
        "noise-statistics",
        passed,
        f"same-cell dev = {abs(same.mean() - 1/area)/se_same:.2f} se, "
        f"distinct dev = {abs(diff.mean())/se_diff:.2f} se, aggregation exact = {agg_ok}",
        time.time() - t0,
        30.0,
    )


def test_criterion_04_reflection_and_nu_identities():
    t0 = time.time()
    count = 0
    worst_refl = 0.0
    worst_nu = 0.0
    for M in (0.0, 0.3, 0.6):
        for k in (2.3, 5.0, 9.7):
            for L in (0.5, 1.0, 2.0):
                cfg = DuctConfig(d=1.0, M=M, k=k, x_minus=-1.0, x_plus=1.0, L=L)
                k0, _ = cutoff_numbers(cfg)
                for sp in (0.5, 2.0, 8.0):
                    prof = PmlProfile(sigma_plus=sp, sigma_minus=sp)
                    mass = sp * L ** 3 / (3.0 * cfg.omega)
                    for n in range(8):
                        ratio = n / k0
                        if ratio < 1.0:
                            expect = math.exp(
                                -2.0 * k / cfg.one_minus_m2 * math.sqrt(1 - ratio ** 2) * mass
                            )
                        else:
                            expect = math.exp(
                                -2.0 * k * L / cfg.one_minus_m2 * math.sqrt(ratio ** 2 - 1)
                            )
                        if expect < 1e-280:
                            continue
                        got = reflection_coefficient(n, "+", prof, cfg)
                        worst_refl = max(worst_refl, abs(got - expect) / expect)
                        for side in "+-":
                            bp, bm = axial_wavenumbers(n, cfg)
                            cp, cm = modal_amplitudes(n, side, prof, cfg)
                            nu = nu_coefficients(n, side, prof, cfg)
                            combo = cp * complex(bp) + cm * complex(bm)
                            worst_nu = max(
                                worst_nu, abs(nu - combo) / max(1.0, abs(nu))
                            )
                        count += 1
    passed = count >= 200 and worst_refl <= 1e-12 and worst_nu <= 1e-12
    report(
        4,
        "reflection/nu-identities",
        passed,
        f"{count} points, worst refl dev = {worst_refl:.2e}, worst nu dev = {worst_nu:.2e}",
        time.time() - t0,
        5.0,
    )


def test_criterion_05_gap_bounds():
    t0 = time.time()
    bound_ok = True
    for M in (0.0, 0.3, 0.6):
        for L in (1.0, 2.0, 4.0):
            cfg = DuctConfig(d=1.0, M=M, k=5.0, x_minus=-1.0, x_plus=1.0, L=L)
            prof = PmlProfile(sigma_plus=5.0, sigma_minus=5.0)
            for n in range(41):
                for side in "+-":
                    gb = dtn_gap_bound(n, side, prof, cfg)
                    if gb.underflow or not gb.applicable:
                        continue
                    bound_ok &= gb.measured <= gb.bound * (1 + 1e-12)
    # fitted decay constant of the dominant (first evanescent) mode
    cfg0 = std_cfg()
    _, n0 = cutoff_numbers(cfg0)
    c2 = theoretical_decay_constant(cfg0)
    ts, gaps = [], []
    for L in (1.0, 1.5, 2.0, 2.5, 3.0):
        cfg = DuctConfig(d=1.0, M=0.3, k=5.0, x_minus=-1.0, x_plus=1.0, L=L)
        prof = PmlProfile(sigma_plus=5.0, sigma_minus=5.0)
        ts.append(sigma_tilde_integral(prof, "+", cfg))
        gaps.append(dtn_gap_bound(n0 + 1, "+", prof, cfg).measured)
    slope = float(np.polyfit(ts, np.log(gaps), 1)[0])
    rate_ok = abs(slope + c2) <= 0.25 * c2
    passed = bound_ok and rate_ok
    report(
        5,
        "gap-bounds",
        passed,
        f"bounds hold = {bound_ok}, fitted decay = {-slope:.3f} vs C2 = {c2:.3f}",
        time.time() - t0,
        5.0,
    )


def test_criterion_06_equivalence_order():
    t0 = time.time()
    cfg = std_cfg(L=1.0)
    profile = PmlProfile(5.0)
    res = run_equivalence_check(cfg, profile, deltas=(1 / 128, 1 / 256, 1 / 512))
    passed = res.fitted_rate >= 1.9
    report(
        6,
        "full-vs-reduced",
        passed,
        f"observed order = {res.fitted_rate:.3f}, diffs = "
        + ", ".join(f"{d:.2e}" for d in res.error_mean),
        time.time() - t0,
        60.0,
    )


def test_criterion_07_solver_vs_oracle():
    t0 = time.time()
    cfg = std_cfg(L=1.0)
    from test_solver import oracle_box_solution
    from ductpml.noise import ModeBoxSource

    n = 1
    box = ModeBoxSource(mode=n, x_lo=-0.25, x_hi=0.25)
    errs = []
    cells = (256, 512, 1024)  # spacings 1/128, 1/256, 1/512
    for nc in cells:
        grid = Grid1D(cfg.x_minus, cfg.x_plus, nc)
        sol = solve_full(cfg, box, "dtn", grid, n + 1).values[n]
        exact = oracle_box_solution(n, cfg, grid)
        num = np.trapezoid(np.abs(sol - exact) ** 2, dx=grid.delta)
        den = np.trapezoid(np.abs(exact) ** 2, dx=grid.delta)
        errs.append(float(math.sqrt(num / den)))
    order = -float(np.polyfit(np.log(cells), np.log(errs), 1)[0])
    passed = errs[-1] < 1e-3 and order >= 1.9
    report(
        7,
        "solver-vs-kernel",
        passed,
        f"rel L2 at 1/512 = {errs[-1]:.2e}, observed order = {order:.3f}",
        time.time() - t0,
        30.0,
    )


def test_criterion_08_h_rate():
    t0 = time.time()
    cfg = std_cfg()
    res = run_h_study(cfg, None, [1 / 8, 1 / 16, 1 / 32], n_samples=200, base_seed=1000)
    passed = res.fitted_rate >= 1.8 and res.rate_stderr < 0.15
    report(
        8,
        "noise-refinement-rate",
        passed,
        f"fitted rate = {res.fitted_rate:.3f} +- {res.rate_stderr:.3f}",
        time.time() - t0,
        600.0,
    )


def test_criterion_09_layer_rate():
    t0 = time.time()
    cfg = std_cfg()
    res = run_L_study(cfg, [0.5, 1.0, 1.5, 2.0], sigma_plus=5.0)
    c2 = theoretical_decay_constant(cfg)
    slope_ok = abs(res.fitted_rate + c2) <= 0.25 * c2
    passed = slope_ok and res.extra["monotone"]
    report(
        9,
        "layer-decay-rate",
        passed,
        f"fitted slope = {res.fitted_rate:.3f} vs -C2 = {-c2:.3f}, "
        f"monotone = {res.extra['monotone']}",
        time.time() - t0,
        300.0,
    )


def test_criterion_10_kernel_difference_probe():
    t0 = time.time()
    cfg = std_cfg()
    y0 = (0.1, 0.45)
    gaps = np.logspace(-3, -1, 7)
    pairs = [
        ((y0[0], y0[1]), (y0[0] + g / math.sqrt(2.0), y0[1] + g / math.sqrt(2.0)))
        for g in gaps
    ]
    slope, _, qs = lemma2_exponent_probe(pairs, GreensEvalParams(), cfg)
    passed = slope >= 1.8 and bool(np.all(np.diff(qs) > 0))
    report(
        10,
        "kernel-regularity-probe",
        passed,
        f"fitted exponent = {slope:.3f} over separations [1e-3, 1e-1]",
        time.time() - t0,
        300.0,
    )


def test_criterion_11_determinism_across_threads(tmp_path):
    t0 = time.time()
    cfg_text = (
        "[duct]\nd = 1\nM = 0.3\nk = 5\n"
        "[pml]\nsigma_plus = 5\nL = 2\n"
        "[run]\nbase_seed = 1000\nsamples = 200\n"
        "h_levels = 0.125,0.0625,0.03125\nl_values = 0.5,1,1.5,2\n"
        "equiv_deltas = 0.015625,0.0078125\n"
    )
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(cfg_text)
    identical = True
    details = []
    for kind, samples in (("h", None), ("L", None), ("equiv", None), ("total", "12")):
        outputs = []
        for threads in ("1", "3"):
            out = tmp_path / f"{kind}_{threads}"
            argv = [
                "study",
                kind,
                "--config",
                str(cfg_file),
                "--out",
                str(out),
                "--threads",
                threads,
            ]
            if samples:
                argv += ["--samples", samples]
            status = dispatch(argv)
            assert status == 0
            blobs = b"".join(
                p.read_bytes() for p in sorted(out.iterdir()) if p.suffix in (".csv", ".txt")
            )
            outputs.append(blobs)
        same = outputs[0] == outputs[1]
        identical &= same
        details.append(f"{kind}:{'=' if same else '!='}")
    report(
        11,
        "thread-determinism",
        identical,
        "byte-compare " + " ".join(details),
        time.time() - t0,
        1200.0,
    )
